"""Decision results with machine-readable failure witnesses."""

from __future__ import annotations

from .record import Record, _set


class Witness(Record):
    """Base of the failure witnesses below."""

    __slots__ = ()

    def to_dict(self):
        """``kind``, then the fields in order; letters stay tuples, which
        ``json`` writes as arrays."""
        return {"kind": self.kind, **{name: getattr(self, name) for name in self._fields}}


class NotWeak(Witness):
    __slots__ = ()
    kind = "not-weak"


class NotShape(Witness):
    """Some accepted word has a missing, repeated or misplaced separator."""

    __slots__ = _fields = ("state",)
    kind = "not-shape"


class ZeroLoopBroken(Witness):
    """Reading the all-zero letter moves the (minimal) initial state.

    Also reports a failed sign-digit absorption in the complement check,
    where the offending condition is likewise about the initial loop.
    """

    __slots__ = _fields = ("state",)
    kind = "zero-loop-broken"


class PairMismatch(Witness):
    """Dual digit tails diverge: bumping component ``component`` of
    ``letter`` at ``state`` changes the residual language."""

    __slots__ = _fields = ("component", "state", "letter", "bumped_letter")
    kind = "pair-mismatch"


class ComplementPrefix(Witness):
    """A word not starting with a sign letter is accepted."""

    __slots__ = _fields = ("letter",)
    kind = "complement-prefix"


class ComplementInitialLanguage(Witness):
    """The two all-sign fixings of some component disagree from the root."""

    __slots__ = _fields = ("component",)
    kind = "complement-initial-language"


class Verdict(Record):
    """Yes/no answer; a failing answer always carries a witness.

    ``minimized`` holds the minimal form the check read; equality, hash
    and repr leave it out.
    """

    _fields = ("answer", "witness", "detail")
    __slots__ = (*_fields, "minimized")

    def __init__(self, answer, witness=None, detail=None, minimized=None):
        if answer and witness is not None:
            raise ValueError("positive verdicts carry no witness")
        if not answer and witness is None:
            raise ValueError("negative verdicts need a witness")
        _set(self, "answer", answer)
        _set(self, "witness", witness)
        _set(self, "detail", detail)
        _set(self, "minimized", minimized)

    def __reduce__(self):
        return Verdict, (*self._values(), self.minimized)

    def __bool__(self):
        return self.answer

    def to_dict(self):
        data = {
            "answer": self.answer,
            "witness": self.witness.to_dict() if self.witness is not None else None,
        }
        if self.detail:
            data["detail"] = self.detail
        return data

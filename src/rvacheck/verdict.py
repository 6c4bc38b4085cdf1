"""Decision results with machine-readable failure witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field, fields


class Witness:
    """Base of the failure witnesses below."""

    def to_dict(self):
        """``kind``, then the fields in order; letters stay tuples, which
        ``json`` writes as arrays."""
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}


@dataclass(frozen=True)
class NotWeak(Witness):
    kind = "not-weak"


@dataclass(frozen=True)
class NotShape(Witness):
    """Some accepted word has a missing, repeated or misplaced separator."""

    state: int
    kind = "not-shape"


@dataclass(frozen=True)
class ZeroLoopBroken(Witness):
    """Reading the all-zero letter moves the (minimal) initial state.

    Also reports a failed sign-digit absorption in the complement check,
    where the offending condition is likewise about the initial loop.
    """

    state: int
    kind = "zero-loop-broken"


@dataclass(frozen=True)
class PairMismatch(Witness):
    """Dual digit tails diverge: bumping component ``component`` of
    ``letter`` at ``state`` changes the residual language."""

    component: int
    state: int
    letter: object
    bumped_letter: object
    kind = "pair-mismatch"


@dataclass(frozen=True)
class ComplementPrefix(Witness):
    """A word not starting with a sign letter is accepted."""

    letter: object
    kind = "complement-prefix"


@dataclass(frozen=True)
class ComplementInitialLanguage(Witness):
    """The two all-sign fixings of some component disagree from the root."""

    component: int
    kind = "complement-initial-language"


@dataclass(frozen=True)
class Verdict:
    """Yes/no answer; a failing answer always carries a witness."""

    answer: bool
    witness: object = None
    detail: str | None = None
    minimized: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.answer and self.witness is not None:
            raise ValueError("positive verdicts carry no witness")
        if not self.answer and self.witness is None:
            raise ValueError("negative verdicts need a witness")

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

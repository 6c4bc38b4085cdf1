"""Saturation checks for weak deterministic Buchi automata over digit alphabets."""

from .alphabet import AlphabetSpec, BLANK, PARALLEL, SEQUENTIAL, STAR
from .automaton import (
    Automaton,
    SccInfo,
    is_weak,
    sccs,
    trim_accessible,
)
from .aut_io import AutomatonFormatError, parse_automaton, serialize_automaton
from .check import (
    check_rva_complement_parallel,
    check_rva_dim1,
    check_rva_parallel,
    check_rva_sequential,
)
from .fixing import FixedAutomaton, dual_fixings, fix_parallel, fix_sequential
from .minimize import (
    EquivalenceTable,
    Morphism,
    distinguishing_word,
    joint_equivalence,
    minimal_form,
    minimize_weak,
)
from .oracle import (
    gen_interval_rva,
    gen_known_rva,
    gen_random_sequential_shaped,
    gen_random_weak,
    parallelize_automaton,
    saturation_oracle,
    state_lang_equal_bruteforce,
)
from .shape import check_minimal_shape, check_shape, dead_sink, fra_states, is_d_parallel, is_d_sequential, mod_states
from .verdict import Verdict
from .words import (
    LassoWord,
    PairWord,
    alternative_encodings,
    component_distance,
    fix_component_word,
    parallelize,
    sequentialize,
    value_fractional,
    value_natural,
    value_real,
)

__all__ = [name for name in dir() if not name.startswith("_")]

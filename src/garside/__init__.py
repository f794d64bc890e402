"""
garside: cycling operations, refined summit sets and conjugacy in Garside
groups, instantiated for braid groups with the classical structure.

Quick start::

    from garside import braid_structure, parse_word, c_star, decide_conjugacy

    x = parse_word("2 1 1", 3)          # an element of B_3
    print(c_star(x).members)            # its refined summit set
    print(decide_conjugacy(x, parse_word("1 2 1", 3)))
"""

from .braid import (
    BraidStructure,
    braid_structure,
    parse_word,
    random_simple,
    word_str,
)
from .core import (
    CanonicalElement,
    GarsideStructure,
    delta_power,
    identity_element,
    normalize,
    simple_element,
)
from .cycling import (
    NotRecurrentError,
    OrbitRecord,
    Trajectory,
    WitnessedElement,
    cmn_star_representative,
    cstar_representative,
    cyc,
    cyc_pq,
    cyc_q,
    dec,
    in_recurrence_set,
    is_rigid,
    recurrent_representative,
    trajectory,
)
from .rigid import RigidReport, c_star_star_rigid, rigid_power, stable_exponents
from .summit import (
    BudgetExceeded,
    ConjugacyAnswer,
    SummitSet,
    c_star,
    decide_conjugacy,
    summit_bounds,
    summit_set,
    super_summit_set,
    ultra_summit_set,
)
from .transport import OrbitTransport, TransportContext

__all__ = [
    "BraidStructure",
    "BudgetExceeded",
    "CanonicalElement",
    "ConjugacyAnswer",
    "GarsideStructure",
    "NotRecurrentError",
    "OrbitRecord",
    "OrbitTransport",
    "RigidReport",
    "SummitSet",
    "Trajectory",
    "TransportContext",
    "WitnessedElement",
    "braid_structure",
    "c_star",
    "c_star_star_rigid",
    "cmn_star_representative",
    "cstar_representative",
    "cyc",
    "cyc_pq",
    "cyc_q",
    "dec",
    "decide_conjugacy",
    "delta_power",
    "identity_element",
    "in_recurrence_set",
    "is_rigid",
    "normalize",
    "parse_word",
    "random_simple",
    "recurrent_representative",
    "rigid_power",
    "simple_element",
    "stable_exponents",
    "summit_bounds",
    "summit_set",
    "super_summit_set",
    "trajectory",
    "ultra_summit_set",
    "word_str",
]

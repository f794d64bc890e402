"""
rigid: rigid elements, stable exponents and rigid-power detection.

An element x of positive canonical length is rigid when its normal form
survives squaring: x^2 /\\ D^{inf x + sup x} = x D^{inf x}.  Cycling acts on
a rigid element by cyclically permuting its factors (up to tau), so rigid
elements are recurrent under every double-order cycling, and for rigid x
the set of conjugates recurrent at every double order is exactly the set
of rigid conjugates, obtained by filtering the super summit set with the
order-(2, inf+sup) recurrence test.

Whether some power of x is conjugate to a rigid element is decided through
the stable exponents N1, N2: denominators of the extremal normalized summit
bounds max_n infs(x^n)/n and min_n sups(x^n)/n over n up to the atom count
of D.  For N = lcm(N1, N2), drive x^N to its summit and then to
order-(2, infs+sups) recurrence; some power of x is conjugate to a rigid
element exactly when the element reached is rigid, and then N is below the
square of the atom count of D.

Exact rational arithmetic throughout; no floating point.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import lcm

from .core import CanonicalElement, delta_power
from .cycling import cstar_representative, in_recurrence_set, recurrent_representative
from .summit import SummitSet, summit_bounds, super_summit_set


def is_rigid(x: CanonicalElement) -> bool:
    """Whether the normal form of x survives squaring (and len x > 0)."""
    if x.clen == 0:
        return False
    return (x * x).meet_delta(x.inf + x.sup) == x * delta_power(x.struct, x.inf)


def stable_exponents(x: CanonicalElement) -> tuple[int, int]:
    """
    (N1, N2): denominators of max infs(x^n)/n and min sups(x^n)/n for n up
    to the atom count of D.  Powers of x taken at exponents divisible by N1
    (resp. N2) scale the summit inf (resp. sup) linearly.  Each power is
    the previous one times x, one product per exponent.
    """
    nd = x.struct.delta_norm
    ratios_inf = []
    ratios_sup = []
    for n in range(1, nd + 1):
        xn = x if n == 1 else xn * x
        lo, hi = summit_bounds(xn)
        ratios_inf.append(Fraction(lo, n))
        ratios_sup.append(Fraction(hi, n))
    return max(ratios_inf).denominator, min(ratios_sup).denominator


@dataclasses.dataclass(frozen=True)
class RigidReport:
    """
    Outcome of rigid-power detection.  exponents are the stable exponents
    (N1, N2) the detection computed.  When is_rigid holds, power is the
    exponent N, rigid_conjugate a rigid element and witness a conjugator
    with (x^N)^witness = rigid_conjugate.
    """

    is_rigid: bool
    exponents: tuple[int, int]
    power: int | None = None
    rigid_conjugate: CanonicalElement | None = None
    witness: CanonicalElement | None = None


def rigid_power(x: CanonicalElement) -> RigidReport:
    """
    Detect whether some power of x is conjugate to a rigid element, and if
    so exhibit one: take N = lcm of the stable exponents, move x^N to the
    summit, then iterate the order-(2, infs+sups) cycling to recurrence and
    test the element reached for rigidity.
    """
    n1, n2 = stable_exponents(x)
    n = lcm(n1, n2)
    xn = x ** n
    rep = cstar_representative(xn)
    y, wit = rep.element, rep.witness
    qbar = y.inf + y.sup
    rec = recurrent_representative(y, qbar, p=2)
    y = rec.recurrent_element
    wit = wit * rec.witness
    if not is_rigid(y):
        return RigidReport(False, (n1, n2))
    return RigidReport(True, (n1, n2), power=n, rigid_conjugate=y, witness=wit)


def c_star_star_rigid(x: CanonicalElement) -> SummitSet:
    """
    For rigid x, the conjugates recurrent at every double order: the super
    summit set filtered by order-(2, inf+sup) recurrence.  Every member is
    rigid.
    """
    if not is_rigid(x):
        raise ValueError("input element is not rigid")
    ss = super_summit_set(x)
    qbar = x.inf + x.sup
    members = tuple(y for y in ss.members if in_recurrence_set(y, qbar, p=2))
    witnesses = {y: ss.witnesses[y] for y in members}
    return SummitSet(
        kind="star_star",
        base=x,
        members=members,
        witnesses=witnesses,
        infs=ss.infs,
        sups=ss.sups,
    )

"""
rigid: rigid elements, stable exponents and rigid-power detection.

An element x of positive canonical length is rigid when its normal form
survives squaring: x^2 /\\ D^{inf x + sup x} = x D^{inf x}.  The test,
cycling.is_rigid, reads this off the one factor pair at the junction of x
with itself.  Cycling acts on a rigid element by cyclically permuting its
factors (up to tau), so rigid elements are recurrent under every
double-order cycling, and the cycling layer's recurrence walk ends at
the first rigid element it meets.  For rigid x the set of conjugates
recurrent at every double order is exactly the set of rigid conjugates.
A rigid element is recurrent at every order, so each of them lies in
C*(x), and the set is C*(x) filtered by is_rigid.

Whether some power of x is conjugate to a rigid element is decided through
the stable exponents N1, N2: denominators of the extremal normalized summit
bounds max_n infs(x^n)/n and min_n sups(x^n)/n over n up to the atom count
of D.  For N = lcm(N1, N2), drive x^N to its refined summit set and, at
canonical length 1, on to order-(2, infs+sups) recurrence; some power of x
is conjugate to a rigid element exactly when the element reached is rigid,
and then N is below the square of the atom count of D.

Exact rational arithmetic throughout; no floating point.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import lcm

from .core import CanonicalElement
from .cycling import cstar_representative, is_rigid, recurrent_representative
from .summit import SummitSet, c_star, summit_bounds


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
    so exhibit one: take N = lcm of the stable exponents, move x^N to its
    refined summit set, then iterate the order-(2, infs+sups) cycling to
    recurrence and test the element reached for rigidity.  The walk runs
    at canonical length 1 only:
    - a representative that is rigid already ends the walk at once, with
      the identity as witness (see recurrent_representative);
    - a representative y of canonical length >= 2 that is not rigid has
      no rigid conjugate for the walk to reach.  A rigid conjugate is
      recurrent at every order (see is_rigid), so it lies in C*(x^N) with
      y and has the canonical length of y; the ultra summit set, which
      holds y, would then be the set of rigid conjugates (Birman, Gebhardt
      and Gonzalez-Meneses, "Conjugacy in Garside groups I: cyclings,
      powers and rigidity", 2007).
    """
    n1, n2 = stable_exponents(x)
    n = lcm(n1, n2)
    xn = x ** n
    rep = cstar_representative(xn)
    y, wit = rep.element, rep.witness
    if y.clen == 1:
        rec = recurrent_representative(y, y.inf + y.sup, p=2)
        y = rec.recurrent_element
        wit = wit * rec.witness
    if not is_rigid(y):
        return RigidReport(False, (n1, n2))
    return RigidReport(True, (n1, n2), power=n, rigid_conjugate=y, witness=wit)


def c_star_star_rigid(x: CanonicalElement, **limits) -> SummitSet:
    """
    For rigid x, the conjugates recurrent at every double order, which are
    its rigid conjugates: C*(x) filtered by is_rigid.  A rigid element is
    recurrent at every order (see is_rigid), so every rigid conjugate lies
    in C*(x); at canonical length 1, C*(x) can hold members that are not
    rigid, which the filter drops.  The limits are summit_set's and bound
    C*(x).  trajectories is None, since C*'s would hold the dropped members.
    """
    if not is_rigid(x):
        raise ValueError("input element is not rigid")
    cs = c_star(x, **limits)
    members = tuple(y for y in cs.members if is_rigid(y))
    witnesses = {y: cs.witnesses[y] for y in members}
    return dataclasses.replace(
        cs, kind="star_star", members=members, witnesses=witnesses, trajectories=None
    )

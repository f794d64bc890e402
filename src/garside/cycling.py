"""
cycling: cycling operations of every order, orbit recurrence, trajectories.

The cycling of order q conjugates x by its prefix x /\\ D^q.  As x is that
prefix times the complementary suffix, the conjugate is the suffix times
the prefix, both read off the normal form (0 < k = q - p < l):

    D^p x_1...x_l   |->   x_{k+1}...x_l D^p x_1...x_k

so only the junction of the product is re-weighted.  For q at or below
inf x the prefix is D^q and the step is tau^q; for q at or above sup x the
suffix is trivial.  The double-order cycling (p, q) conjugates by
x^p /\\ D^q and is the order-q cycling at p = 1.  Iterating any single
order from any start eventually enters a closed orbit, because inf never
decreases and sup never increases, so the reachable set is finite.  The
elements lying on closed orbits of order q form the recurrence set G_q;
elements recurrent at every order are exactly the members of the refined
summit set of their conjugacy class, and the trajectory of such an element
is its closure under all interior-order cyclings together with tau.

Everything here is pure and operates on immutable values.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping

from .core import CanonicalElement, delta_power, identity_element


class NotRecurrentError(ValueError):
    """An operation required a closed-orbit element and did not get one."""


def cyc_q(x: CanonicalElement, q: int) -> tuple[CanonicalElement, CanonicalElement]:
    """
    Cycling of order q: returns (x conjugated by x /\\ D^q, the conjugator),
    computed as the suffix rest of x = (x /\\ D^q) rest times the prefix.
    inf never decreases and sup never increases under this step.
    """
    p = x.power
    conj = x.meet_delta(q)
    rest = CanonicalElement(x.struct, max(p - q, 0), x.factors[max(q - p, 0):])
    return rest * conj, conj


def cyc(x: CanonicalElement) -> CanonicalElement:
    """Classical cycling: tau^{-inf}(cycling of order inf+1)."""
    return cyc_q(x, x.inf + 1)[0].tau_pow(-x.power)


def dec(x: CanonicalElement) -> CanonicalElement:
    """Classical decycling: cycling of order sup-1."""
    return cyc_q(x, x.sup - 1)[0]


def cyc_pq(x: CanonicalElement, p: int, q: int) -> tuple[CanonicalElement, CanonicalElement]:
    """
    Cycling of double order (p, q): conjugation by x^p /\\ D^q; order
    (1, q) is cyc_q.  The p-th power is recomputed on each call; orbit
    lengths at desk scale keep this cheap.  Satisfies
    cyc_q(x^p) = (cyc_pq(x, p, q))^p.
    """
    if p == 1:
        return cyc_q(x, q)
    conj = (x ** p).meet_delta(q)
    return x.conj(conj), conj


@dataclasses.dataclass(frozen=True, eq=False)
class OrbitRecord:
    """
    The forward orbit of an element under one cycling step, up to the first
    revisit.  elements[i+1] = elements[i] conjugated by conjugators[i]; the
    step after the last element returns to elements[entry_index], so the
    tail from entry_index onwards is the closed orbit.
    """

    elements: tuple[CanonicalElement, ...]
    entry_index: int
    conjugators: tuple[CanonicalElement, ...]

    @property
    def recurrent_element(self) -> CanonicalElement:
        return self.elements[self.entry_index]

    @property
    def orbit_length(self) -> int:
        return len(self.elements) - self.entry_index

    @property
    def witness(self) -> CanonicalElement:
        """Conjugator carrying elements[0] to the recurrent element."""
        out = identity_element(self.elements[0].struct)
        for c in self.conjugators[: self.entry_index]:
            out = out * c
        return out


Step = Callable[[CanonicalElement], tuple[CanonicalElement, CanonicalElement]]


def closed_orbit(x: CanonicalElement, step: Step) -> OrbitRecord:
    """Iterate a conjugating step from x until an element repeats."""
    index: dict[CanonicalElement, int] = {}
    elements: list[CanonicalElement] = []
    conjugators: list[CanonicalElement] = []
    cur = x
    while cur not in index:
        index[cur] = len(elements)
        elements.append(cur)
        cur, c = step(cur)
        conjugators.append(c)
    return OrbitRecord(tuple(elements), index[cur], tuple(conjugators))


def recurrent_representative(x: CanonicalElement, q: int) -> OrbitRecord:
    """Orbit of x under cycling of order q; its tail lies in G_q."""
    return closed_orbit(x, lambda y: cyc_q(y, q))


def in_recurrence_set(x: CanonicalElement, q: int) -> bool:
    """Whether x lies on a closed orbit of the order-q cycling."""
    return recurrent_representative(x, q).entry_index == 0


def in_recurrence_set_pq(x: CanonicalElement, p: int, q: int) -> bool:
    return closed_orbit(x, lambda y: cyc_pq(y, p, q)).entry_index == 0


@dataclasses.dataclass(frozen=True)
class WitnessedElement:
    """An element together with a conjugator from a fixed base element."""

    base: CanonicalElement
    element: CanonicalElement
    witness: CanonicalElement

    def verify(self) -> bool:
        return self.base.conj(self.witness) == self.element


def _order_sweep(
    x: CanonicalElement, wit: CanonicalElement, p: int
) -> tuple[CanonicalElement, CanonicalElement, bool]:
    """
    One ascending order sweep of the (p, q) cycling: at each q strictly
    inside the bounds of the current p-th power, which may shrink, move to
    the closed orbit of that order.  Returns the element reached, wit times
    the conjugator from x to it, and whether anything moved.
    """
    cur, moved = x, False
    xp = cur ** p
    q = xp.inf + 1
    while q < xp.sup:
        if q > xp.inf:
            rec = closed_orbit(cur, lambda y: cyc_pq(y, p, q))
            if rec.entry_index:
                wit = wit * rec.witness
                cur = rec.recurrent_element
                xp = cur ** p
                moved = True
        q += 1
    return cur, wit, moved


def cstar_representative(x: CanonicalElement) -> WitnessedElement:
    """
    Drive x to an element recurrent at every order by one order sweep at
    p = 1: recurrence at earlier orders survives later steps, and orders at
    or below the current inf are recurrent for free.  The result attains
    the summit inf and sup of the conjugacy class.
    """
    cur, wit, _ = _order_sweep(x, identity_element(x.struct), 1)
    return WitnessedElement(x, cur, wit)


@dataclasses.dataclass(frozen=True, eq=False)
class Trajectory:
    """
    A finite set of elements closed under tau and under the cycling orders
    used to build it, with conjugators back to the seed element and a
    canonical representative (the member minimal under the (power, factor
    tables) order) used for deduplication.
    """

    seed: CanonicalElement
    members: tuple[CanonicalElement, ...]
    key_element: CanonicalElement
    witnesses: Mapping[CanonicalElement, CanonicalElement]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, y: CanonicalElement) -> bool:
        return y in self.witnesses

    def witness(self, y: CanonicalElement) -> CanonicalElement:
        """Conjugator u with seed^u = y."""
        return self.witnesses[y]


def recurrence_orders(kind: str, y: CanonicalElement) -> list[int]:
    """
    The cycling orders, ascending, at which members of the summit set of
    the given kind ("super", "ultra" or "star") must be recurrent, read off
    the bounds of an element y of that set.  Only the orders strictly
    inside (inf y, sup y) constrain anything: recurrence at the boundary
    orders holds for free.  Raises ValueError for an unknown kind.
    """
    if kind == "star":
        return list(range(y.inf, y.sup + 1))
    if kind == "ultra":
        return sorted({y.inf, min(y.inf + 1, y.sup), y.sup})
    if kind == "super":
        return sorted({y.inf, y.sup})
    raise ValueError(f"unknown summit kind {kind!r}")


def _closure_trajectory(seed: CanonicalElement, kind: str) -> Trajectory:
    """
    Worklist closure of the tau-orbit of seed under the interior recurrence
    orders of the given summit kind.  All members must keep the seed's
    (inf, sup), so the orders are read once off the seed; a drift means the
    seed was not recurrent at some order, which is reported as an error.
    """
    s = seed.struct
    bounds = (seed.inf, seed.sup)
    interior = [q for q in recurrence_orders(kind, seed) if seed.inf < q < seed.sup]
    witnesses: dict[CanonicalElement, CanonicalElement] = {}
    queue: list[CanonicalElement] = []
    cur, w = seed, identity_element(s)
    for _ in range(s.order_of_tau):
        if cur not in witnesses:
            witnesses[cur] = w
            queue.append(cur)
        cur = cur.tau_pow(1)
        w = w * delta_power(s, 1)
    while queue:
        y = queue.pop()
        wy = witnesses[y]
        for q in interior:
            z, c = cyc_q(y, q)
            if (z.inf, z.sup) != bounds:
                raise NotRecurrentError(
                    "trajectory closure left the recurrence sets; "
                    "the seed element was not recurrent at every order"
                )
            if z not in witnesses:
                witnesses[z] = wy * c
                queue.append(z)
    members = tuple(sorted(witnesses, key=CanonicalElement.key))
    return Trajectory(seed, members, members[0], witnesses)


def trajectory(x: CanonicalElement) -> Trajectory:
    """
    The full cycling trajectory of x: closure of the tau-orbit under every
    interior cycling order.  The caller must supply an element recurrent at
    every order (as produced by cstar_representative).
    """
    return _closure_trajectory(x, "star")


def cmn_star_representative(x: CanonicalElement, m: int, n: int) -> WitnessedElement:
    """
    An element of the conjugacy class of x recurrent under the double-order
    cycling (p, q) for every p in [m, n] and every q: run the ascending
    order sweep for each p in turn and repeat until a full pass changes
    nothing, at which point every orbit check found its start already
    recurrent, i.e. the element is simultaneously stable.  No bound on the
    number of passes is known, hence the cap.
    """
    if m > n:
        raise ValueError("need m <= n")
    cur = x
    wit = identity_element(x.struct)
    for _ in range(256):
        changed = False
        for p in range(m, n + 1):
            if p == 0:
                continue  # order-(0, q) cycling is tau^q or the identity
            cur, wit, moved = _order_sweep(cur, wit, p)
            changed = changed or moved
        if not changed:
            return WitnessedElement(x, cur, wit)
    raise RuntimeError("double-order sweep failed to stabilize")

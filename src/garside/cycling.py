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
is its closure under all interior-order cyclings together with tau.  The
closure takes its orders as one ascending list from inf to sup, and
summit.py decides which orders each summit kind needs.  It takes every
interior-order step from every member, so it also returns the closed
orbits of its key element, at the interior orders walked off the steps it
took and at the two boundary orders in closed form: this is the one place
that decides them, and the summit closure's seed step turns them into
orbit transports without cycling again.

A rigid element, one whose normal form survives squaring, lies on a closed
orbit of every cycling of every double order (is_rigid proves it), and
rigidity is read off the one factor pair at the junction of x with itself.
recurrent_representative is the one place that uses this: its walk ends
at the first rigid element it meets, with the witness the whole walk
would give.  So every caller that asks for a recurrent element, the order
sweep, in_recurrence_set and the summit bounds among them, stops at a
rigid element without a rule of its own.  The whole closed orbit, which
transports need, is the trajectory closure's, or closed_orbit with the
cycling step.

Everything here is pure and operates on immutable values.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping, Sequence

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


def is_rigid(x: CanonicalElement) -> bool:
    """
    Whether x = D^p x_1...x_l is rigid: l > 0 and the pair (tau^p(x_l), x_1)
    is left-weighted, so that the normal form of x^2 is that of x written
    twice, D^{2p} tau^p(x_1...x_l) x_1...x_l (Birman, Gebhardt and
    Gonzalez-Meneses, "Conjugacy in Garside groups I: cyclings, powers and
    rigidity", 2007).  One slide of that pair reads it.

    A rigid x lies on a closed orbit of the (r, q) cycling for every r and
    every q.  Order q with p < q < p + l and k = q - p conjugates x by
    D^p x_1...x_k, giving

        D^p tau^p(x_{k+1})...tau^p(x_l) x_1...x_k,

    which is left-weighted as written: the inner pairs are pairs of x or
    their images under tau^p, which preserves left-weighting, and the
    junction is the rigidity pair.  So the step is a twisted rotation of
    the factors.  Its result has the same inf and sup, and is rigid again:
    its rigidity pair is the image under tau^p of the pair (x_k, x_{k+1}).
    The twisted rotations of x form a finite set, on which the step is the
    same rotation for every element and can be undone, so it permutes that
    set and x lies on one of its cycles.  Orders q <= p act as tau^q, and
    orders q >= p + l fix x.

    At a double order r >= 2, x^r = D^{rp} tau^{(r-1)p}(w)...tau^p(w) w with
    w = x_1...x_l is in normal form, every junction being an image of the
    rigidity pair under a power of tau.  Writing q - rp = jl + i with
    0 <= i < l, the prefix x^r /\\ D^q is x^j (D^p x_1...x_i) D^{(r-j-1)p};
    x^j commutes with x, so the (r, q) step is the order-(p + i) step
    followed by tau^{(r-j-1)p}, again one permutation of the twisted
    rotations (q outside [rp, r(p + l)] is tau^q or the identity, as
    before).  At r <= -1, x^{-1} is rigid too: inversion carries the pairs
    of the normal form of x, rigidity pair included, to those of x^{-1}.
    The (r, q) step of x conjugates by the conjugator of the (-r, q) step
    of x^{-1}, so the orbit of x is the inverse of a closed orbit of x^{-1}.
    At r = 0 every element is recurrent.
    """
    fs = x.factors
    if not fs:
        return False
    s = x.struct
    return s.slide(s.tau_pow(fs[-1], x.power), fs[0])[1] == fs[0]


@dataclasses.dataclass(frozen=True, eq=False)
class OrbitRecord:
    """
    The forward orbit of an element under one conjugating step, up to the
    first revisit.  elements[i+1] = elements[i] conjugated by
    conjugators[i]; the step after the last element returns to
    elements[entry_index], so the tail from entry_index onwards is the
    closed orbit of that step.
    """

    elements: tuple[CanonicalElement, ...]
    entry_index: int
    conjugators: tuple[CanonicalElement, ...]

    @property
    def recurrent_element(self) -> CanonicalElement:
        return self.elements[self.entry_index]

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


def recurrent_representative(x: CanonicalElement, q: int, *, p: int = 1) -> OrbitRecord:
    """
    Walk of x under the (p, q) cycling, which at p = 1 is the order-q
    cycling, towards its closed orbit, which at p = 1 lies in G_q.  The
    record's recurrent element and witness are those of the walk to the
    first revisit, and its elements are a prefix of that walk: the walk
    treats a rigid element as a fixed point with the identity as
    conjugator, so a rigid element ends the record as a tail of one
    element.  This changes neither the recurrent element nor the
    witness: a rigid element lies on a closed orbit of the
    (p, q) cycling and every element of that orbit is rigid (see is_rigid,
    for every p), while an element before the walk enters its closed orbit
    is not recurrent, so not rigid.  The first rigid element met is
    therefore the one where the walk enters its closed orbit.  The whole
    closed orbit is closed_orbit(x, lambda y: cyc_pq(y, p, q)).
    """
    ident = identity_element(x.struct)
    return closed_orbit(x, lambda y: (y, ident) if is_rigid(y) else cyc_pq(y, p, q))


def in_recurrence_set(x: CanonicalElement, q: int, *, p: int = 1) -> bool:
    """
    Whether x lies on a closed orbit of the (p, q) cycling; at p = 1, of
    the order-q cycling, i.e. whether x is in G_q.  A rigid x is, at every
    (p, q), and its walk is one element long.
    """
    return recurrent_representative(x, q, p=p).entry_index == 0


@dataclasses.dataclass(frozen=True)
class WitnessedElement:
    """
    An element with a witness: x.conj(witness) == element, where x is the
    element passed to the function that returned it.
    """

    element: CanonicalElement
    witness: CanonicalElement


def _order_sweep(
    x: CanonicalElement, wit: CanonicalElement, p: int
) -> tuple[CanonicalElement, CanonicalElement, bool]:
    """
    One ascending order sweep of the (p, q) cycling: at each q strictly
    inside the bounds of the current p-th power, which may shrink, move to
    the closed orbit of that order.  Returns the element reached, wit times
    the conjugator from x to it, and whether anything moved.  Once the
    element is rigid, every later walk is one element long and moves
    nothing (see recurrent_representative).
    """
    cur, moved = x, False
    xp = cur ** p
    q = xp.inf + 1
    while q < xp.sup:
        if q > xp.inf:
            rec = recurrent_representative(cur, q, p=p)
            if rec.entry_index:
                wit = wit * rec.witness
                cur = rec.recurrent_element
                moved = True
                xp = cur ** p
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
    return WitnessedElement(cur, wit)


@dataclasses.dataclass(frozen=True, eq=False)
class Trajectory:
    """
    A finite set of elements closed under tau and under the cycling orders
    used to build it, with a canonical representative (the member minimal
    under the (power, factor handles) order) used for deduplication.  Each
    witness u satisfies b^u = member for one start element b: x itself
    for trajectory(x), the set's base for a summit set's trajectories.
    """

    members: tuple[CanonicalElement, ...]
    key_element: CanonicalElement
    witnesses: Mapping[CanonicalElement, CanonicalElement]

    def __len__(self) -> int:
        return len(self.members)


def _closure_trajectory(
    seed: CanonicalElement, orders: Sequence[int], conj: CanonicalElement
) -> tuple[Trajectory, dict[int, tuple[CanonicalElement, ...]]]:
    """
    Worklist closure of the tau-orbit of seed under the interior orders of
    the ascending list orders, which starts at inf seed and ends at sup
    seed.  conj carries the start element of the witnesses to seed, so each
    member's witness is one product.  All members must keep the bounds
    (orders[0], orders[-1]); a drift means the seed was not recurrent at
    some order, which is reported as an error.

    Returned with the trajectory is the key element's closed orbit at
    every one of orders, starting at the key element, from which the seed
    step of the key element builds its orbit transports.  The closure
    takes one cycling step of every interior order from every member, so
    it records each member's successor there and walks the interior orbits
    off those successors; the successor maps are dropped on return.  At
    the boundary orders the step is tau^q (q <= inf) or the identity
    (q >= sup), so those orbits take no cycling step: at orders[0] the
    tau^q-orbit of the key element, at orders[-1] the key element alone.
    When inf = sup the two orders coincide and the tau^q-orbit is listed,
    which for that Delta power is the key element alone too.
    """
    s = seed.struct
    bounds = (orders[0], orders[-1])
    interior = orders[1:-1]
    successors: dict[int, dict[CanonicalElement, CanonicalElement]] = {q: {} for q in interior}
    witnesses: dict[CanonicalElement, CanonicalElement] = {}
    queue: list[CanonicalElement] = []
    cur, w = seed, conj
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
            successors[q][y] = z
            if z not in witnesses:
                witnesses[z] = wy * c
                queue.append(z)
    members = tuple(sorted(witnesses, key=CanonicalElement.key))
    key = members[0]
    tau_orbit = [key]
    while (z := tau_orbit[-1].tau_pow(orders[0])) != key:
        tau_orbit.append(z)
    orbits = {orders[-1]: (key,), orders[0]: tuple(tau_orbit)}
    orbits.update((q, _walk_orbit(key, successors[q])) for q in interior)
    return Trajectory(members, key, witnesses), orbits


def _walk_orbit(
    start: CanonicalElement, successor: Mapping[CanonicalElement, CanonicalElement]
) -> tuple[CanonicalElement, ...]:
    """
    The closed orbit of start under a recorded cycling step, as the
    elements from start up to the one whose successor is start.  A walk
    that runs through as many elements as the map holds without coming
    back has entered a cycle that misses start, so start is not recurrent.
    """
    orbit = [start]
    z = successor[start]
    while z != start:
        if len(orbit) == len(successor):
            raise NotRecurrentError("element is not on a closed orbit of its cycling")
        orbit.append(z)
        z = successor[z]
    return tuple(orbit)


def trajectory(x: CanonicalElement) -> Trajectory:
    """
    The full cycling trajectory of x: closure of the tau-orbit under every
    interior cycling order.  The caller must supply an element recurrent at
    every order (as produced by cstar_representative).  The witnesses
    start from x.
    """
    return _closure_trajectory(x, range(x.inf, x.sup + 1), identity_element(x.struct))[0]


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
            return WitnessedElement(cur, wit)
    raise RuntimeError("double-order sweep failed to stabilize")

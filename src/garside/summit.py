"""
summit: summit-set computation and the conjugacy decision procedure.

The three nested conjugacy invariants are cut out of the conjugacy class by
recurrence conditions:

    super summit set   recurrence at the orders {infs, sups}
    ultra summit set   recurrence at the orders {infs, infs+1, sups}
    refined summit set recurrence at every order (equivalently every order
                       in [infs, sups]; the rest are recurrent for free)

All three are computed by one closure engine: start from the representative
produced by the ascending order sweep, split the set into trajectories
(closures under tau and the interior recurrence orders of the kind), and
grow trajectory by trajectory using minimal conjugators above atoms, with
the atom-exclusion shortcut.  For the super kind the trajectories are just
tau-orbits and for the ultra kind tau-closed cycling orbits, so the engine
specializes to the classical algorithms for those sets.

Budget guards (wall clock and set size) let callers abort computations that
explode, which reducible braids routinely make the ultra summit set do.
The closure builds each trajectory once, when it first reaches one of its
members.  The reference it is checked against is the definitional search
over every simple conjugator in tests/oracles.py.

Every member of every set carries a verified conjugator from the base
element, and the conjugacy decision returns such a witness.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Mapping

from .core import CanonicalElement
from .cycling import (
    Trajectory,
    WitnessedElement,
    _closure_trajectory,
    cstar_representative,
    recurrence_orders,
    recurrent_representative,
)
from .transport import _seed_trajectories


class BudgetExceeded(RuntimeError):
    """A summit computation ran past its wall-clock or size budget."""

    def __init__(self, kind: str, elapsed_ms: float, size: int):
        super().__init__(
            f"{kind} summit computation aborted after {elapsed_ms:.0f} ms at {size} members"
        )
        self.kind = kind
        self.elapsed_ms = elapsed_ms
        self.size = size


@dataclasses.dataclass(frozen=True, eq=False)
class SummitSet:
    """
    A finite conjugacy invariant: all members, each with a conjugator from
    the base element, all sharing the summit inf and sup.  The star kind
    also records the partition into trajectories.
    """

    kind: str
    base: CanonicalElement
    members: tuple[CanonicalElement, ...]  # sorted by canonical key
    witnesses: Mapping[CanonicalElement, CanonicalElement]
    infs: int
    sups: int
    trajectories: tuple[Trajectory, ...] | None = None

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, y: CanonicalElement) -> bool:
        return y in self.witnesses

    def witness(self, y: CanonicalElement) -> CanonicalElement:
        return self.witnesses[y]

    def verify_witnesses(self) -> bool:
        return all(self.base.conj(w) == y for y, w in self.witnesses.items())


@dataclasses.dataclass(frozen=True)
class ConjugacyAnswer:
    conjugate: bool
    witness: CanonicalElement | None = None


def summit_bounds(x: CanonicalElement) -> tuple[int, int]:
    """
    (summit inf, summit sup) of the conjugacy class of x, from two closed
    orbits.  An element whose inf is below the summit inf raises it within
    a bounded number of cyclings, and one whose sup is above the summit sup
    lowers it within a bounded number of decyclings (El-Rifai and Morton,
    "Algorithms for positive braids", 1994; Birman, Ko and Lee, "The
    infimum, supremum and geodesic length of a braid conjugacy class",
    2001).  inf never decreases and sup never increases along an orbit, so
    an element on a closed orbit of the order-(inf + 1) cycling attains the
    summit inf, and one on a closed orbit of the order-(sup - 1) cycling
    attains the summit sup; the second orbit keeps the inf reached by the
    first.  Each phase re-reads its order whenever the orbit moved the
    bound it is read from.  Canonical length at most 1 is final already.
    """
    y = x
    for order in (lambda z: z.inf + 1, lambda z: z.sup - 1):
        while y.clen > 1:
            q = order(y)
            y = recurrent_representative(y, q).recurrent_element
            if order(y) == q:
                break
    return y.inf, y.sup


class _Budget:
    def __init__(self, kind: str, budget_ms: float | None, max_size: int | None):
        self.kind = kind
        self.deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self.max_size = max_size
        self.start = time.monotonic()
        self.size = 0

    def count(self, extra: int = 0) -> None:
        self.size += extra
        if self.max_size is not None and self.size > self.max_size:
            raise BudgetExceeded(self.kind, (time.monotonic() - self.start) * 1000.0, self.size)
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(self.kind, (time.monotonic() - self.start) * 1000.0, self.size)


def _summit_closure(
    x: CanonicalElement,
    kind: str,
    budget_ms: float | None,
    max_size: int | None,
    rep: WitnessedElement | None,
    target: CanonicalElement | None = None,
) -> SummitSet:
    if rep is None:
        rep = cstar_representative(x)
    y0, w0 = rep.element, rep.witness
    budget = _Budget(kind, budget_ms, max_size)

    witnesses: dict[CanonicalElement, CanonicalElement] = {}
    trajectories: list[Trajectory] = []
    queue: list[CanonicalElement] = []

    def register(z: CanonicalElement, conj_to_z: CanonicalElement) -> None:
        # trajectories partition the set, so a known z means a known trajectory
        if z in witnesses:
            return
        traj = _closure_trajectory(z, kind)
        trajectories.append(traj)
        budget.count(len(traj))
        for member in traj.members:
            witnesses[member] = conj_to_z * traj.witness(member)
        queue.append(traj.key_element)

    # A membership query only needs to reach its target, so the closure stops
    # once the target is registered; the LIFO order and the never-overwritten
    # witnesses make the target's witness the one the full closure assigns.
    register(y0, w0)
    while queue and target not in witnesses:
        budget.count()
        y = queue.pop()
        if y.clen == 0:
            continue
        wy = witnesses[y]
        for conj, z in _seed_trajectories(y, kind):
            budget.count()
            register(z, wy * conj)
            if target in witnesses:
                break

    members = tuple(sorted(witnesses, key=CanonicalElement.key))
    return SummitSet(
        kind=kind,
        base=x,
        members=members,
        witnesses=witnesses,
        infs=y0.inf,
        sups=y0.sup,
        trajectories=tuple(trajectories) if kind == "star" else None,
    )


def summit_set(
    x: CanonicalElement,
    kind: str,
    *,
    budget_ms: float | None = None,
    max_size: int | None = None,
) -> SummitSet:
    """The summit set of the given kind: "super", "ultra" or "star"."""
    recurrence_orders(kind, x)  # rejects an unknown kind before any work
    return _summit_closure(x, kind, budget_ms, max_size, None)


def super_summit_set(x: CanonicalElement, **limits) -> SummitSet:
    """All conjugates attaining the summit inf and sup; summit_set's keywords."""
    return summit_set(x, "super", **limits)


def ultra_summit_set(x: CanonicalElement, **limits) -> SummitSet:
    """The cycling-recurrent part of the super summit set; summit_set's keywords."""
    return summit_set(x, "ultra", **limits)


def c_star(x: CanonicalElement, **limits) -> SummitSet:
    """The refined summit set, recurrent at every order; summit_set's keywords."""
    return summit_set(x, "star", **limits)


def decide_conjugacy(
    x: CanonicalElement,
    y: CanonicalElement,
    *,
    budget_ms: float | None = None,
    max_size: int | None = None,
) -> ConjugacyAnswer:
    """
    Whether x and y are conjugate; when they are, the witness w satisfies
    x^w = y exactly.  Decided by driving y to its refined-summit
    representative ry and growing the refined summit set of x until ry is
    reached: the closure stops as soon as it registers ry, so only a
    negative answer builds the whole set.  ry gets the conjugator the full
    set would give it, so the witness does not depend on where the closure
    stopped.  The invariants short-circuit to a negative answer, cheapest
    first: differing exponent sums before either representative is
    computed, then differing summit bounds.  The limits are summit_set's
    and count the partial closure.
    """
    if x.struct != y.struct:
        raise ValueError("elements belong to different structures")
    if x.exponent_sum != y.exponent_sum:
        return ConjugacyAnswer(False)
    rx = cstar_representative(x)
    ry = cstar_representative(y)
    if (rx.element.inf, rx.element.sup) != (ry.element.inf, ry.element.sup):
        return ConjugacyAnswer(False)
    reached = _summit_closure(x, "star", budget_ms, max_size, rx, ry.element)
    if ry.element not in reached.witnesses:
        return ConjugacyAnswer(False)
    witness = reached.witnesses[ry.element] * ry.witness.inv()
    return ConjugacyAnswer(True, witness)

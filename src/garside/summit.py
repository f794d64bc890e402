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
An exhaustive mode that conjugates by every simple element cross-validates
the transport-based closure at small strand counts.

Every member of every set carries a verified conjugator from the base
element, and the conjugacy decision returns such a witness.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Mapping

from .core import CanonicalElement, identity_element, simple_element
from .cycling import (
    Trajectory,
    WitnessedElement,
    _closure_trajectory,
    cstar_representative,
    in_recurrence_set,
    recurrence_orders,
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

    def member_keys(self) -> frozenset:
        return frozenset(m.key() for m in self.members)

    def verify_witnesses(self) -> bool:
        return all(self.base.conj(w) == y for y, w in self.witnesses.items())


@dataclasses.dataclass(frozen=True)
class ConjugacyAnswer:
    conjugate: bool
    witness: CanonicalElement | None = None


def summit_bounds(x: CanonicalElement) -> tuple[int, int]:
    """(summit inf, summit sup) of the conjugacy class of x."""
    y = cstar_representative(x).element
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
    exhaustive: bool,
    rep: WitnessedElement | None,
) -> SummitSet:
    if rep is None:
        rep = cstar_representative(x)
    y0, w0 = rep.element, rep.witness
    budget = _Budget(kind, budget_ms, max_size)

    witnesses: dict[CanonicalElement, CanonicalElement] = {}
    trajectories: dict[CanonicalElement, Trajectory] = {}
    queue: list[Trajectory] = []

    def register(traj: Trajectory, conj_to_seed: CanonicalElement) -> None:
        if traj.key_element in trajectories:
            return
        trajectories[traj.key_element] = traj
        budget.count(len(traj))
        for member in traj.members:
            witnesses[member] = conj_to_seed * traj.witness(member)
        queue.append(traj)

    register(_closure_trajectory(y0, kind), w0)

    while queue:
        budget.count()
        traj = queue.pop()
        y = traj.key_element
        wy = witnesses[y]
        if exhaustive:
            seeds = _exhaustive_seeds(y, kind)
        elif y.clen == 0:
            seeds = []
        else:
            seeds = _seed_trajectories(y, kind)
        for conj, traj2 in seeds:
            budget.count()
            register(traj2, wy * conj)

    members = tuple(sorted(witnesses, key=CanonicalElement.key))
    return SummitSet(
        kind=kind,
        base=x,
        members=members,
        witnesses=witnesses,
        infs=y0.inf,
        sups=y0.sup,
        trajectories=tuple(trajectories.values()) if kind == "star" else None,
    )


def _exhaustive_seeds(
    y: CanonicalElement, kind: str
) -> list[tuple[CanonicalElement, Trajectory]]:
    """
    Fallback closure step: conjugate by every nontrivial simple element and
    keep the results that stay in the set.  Only feasible when the simple
    elements can be enumerated (small strand counts); used to cross-check
    the transport-based closure.
    """
    s = y.struct
    interior = [q for q in recurrence_orders(kind, y) if y.inf < q < y.sup]
    out = []
    for tab in s.all_simples():
        if s.is_identity(tab):
            continue
        u = simple_element(s, tab)
        z = y.conj(u)
        if (z.inf, z.sup) != (y.inf, y.sup):
            continue
        if not all(in_recurrence_set(z, q) for q in interior):
            continue
        out.append((u, _closure_trajectory(z, kind)))
    return out


def super_summit_set(
    x: CanonicalElement,
    budget_ms: float | None = None,
    max_size: int | None = None,
    exhaustive: bool = False,
) -> SummitSet:
    """All conjugates attaining the summit inf and sup."""
    return _summit_closure(x, "super", budget_ms, max_size, exhaustive, None)


def ultra_summit_set(
    x: CanonicalElement,
    budget_ms: float | None = None,
    max_size: int | None = None,
    exhaustive: bool = False,
) -> SummitSet:
    """The cycling-recurrent part of the super summit set."""
    return _summit_closure(x, "ultra", budget_ms, max_size, exhaustive, None)


def c_star(
    x: CanonicalElement,
    budget_ms: float | None = None,
    max_size: int | None = None,
    exhaustive: bool = False,
) -> SummitSet:
    """The refined summit set: conjugates recurrent at every order."""
    return _summit_closure(x, "star", budget_ms, max_size, exhaustive, None)


def summit_set(
    x: CanonicalElement,
    kind: str,
    *,
    budget_ms: float | None = None,
    max_size: int | None = None,
    exhaustive: bool = False,
) -> SummitSet:
    """The summit set of the given kind: "super", "ultra" or "star"."""
    recurrence_orders(kind, x)  # rejects an unknown kind before any work
    return _summit_closure(x, kind, budget_ms, max_size, exhaustive, None)


def decide_conjugacy(
    x: CanonicalElement,
    y: CanonicalElement,
    budget_ms: float | None = None,
    max_size: int | None = None,
) -> ConjugacyAnswer:
    """
    Whether x and y are conjugate; when they are, the witness w satisfies
    x^w = y exactly.  Decided by driving y to its refined-summit
    representative and testing membership in the refined summit set of x;
    differing summit bounds short-circuit to a negative answer.
    """
    if x.struct != y.struct:
        raise ValueError("elements belong to different structures")
    rx = cstar_representative(x)
    ry = cstar_representative(y)
    if (rx.element.inf, rx.element.sup) != (ry.element.inf, ry.element.sup):
        return ConjugacyAnswer(False)
    if x.exponent_sum != y.exponent_sum:
        return ConjugacyAnswer(False)
    cs = _summit_closure(x, "star", budget_ms, max_size, False, rx)
    if ry.element not in cs.witnesses:
        return ConjugacyAnswer(False)
    witness = cs.witnesses[ry.element] * ry.witness.inv()
    return ConjugacyAnswer(True, witness)

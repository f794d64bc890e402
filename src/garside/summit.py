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
specializes to the classical algorithms for those sets.  The kinds are
named here only: recurrence_orders turns a kind into its ascending list of
orders, read once per closure off the representative, whose bounds every
member shares, and the trajectory closure and the seed step below it take
that list.  A class whose representative is rigid has one refined and
ultra summit set, so its refined closure runs on the ultra orders (see
_summit_closure).  A closure that computes an ultra summit set hands each
seed step only the atoms below iota(y) or iota(y^{-1}) of its key
element y, since every minimal simple conjugator inside that set is a
prefix of one of the two (see _arrow_atoms); every other closure hands it
every atom.

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
    is_rigid,
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

    def __reduce__(self):
        # the default reduce calls __init__ with the message alone
        return BudgetExceeded, (self.kind, self.elapsed_ms, self.size)


@dataclasses.dataclass(frozen=True, eq=False)
class SummitSet:
    """
    A finite conjugacy invariant: all members, each with a conjugator from
    the base element, all sharing the summit inf and sup.  trajectories is
    the paper's partition of C* into trajectories, in the order the closure
    built them; it is kept for the star kind only and is None otherwise.
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
    A rigid element lies on a closed orbit of every order, so its walk is
    one element long and ends the phase (see recurrent_representative).
    """
    y = x
    for order in (lambda z: z.inf + 1, lambda z: z.sup - 1):
        while y.clen > 1:
            q = order(y)
            y = recurrent_representative(y, q).recurrent_element
            if order(y) == q:
                break
    return y.inf, y.sup


def recurrence_orders(kind: str, y: CanonicalElement) -> list[int]:
    """
    The cycling orders, ascending, at which members of the summit set of
    the given kind ("super", "ultra" or "star") must be recurrent, read off
    the bounds of an element y of that set.  The list starts at inf y and
    ends at sup y.  Only the orders strictly inside (inf y, sup y)
    constrain anything: recurrence at the boundary orders holds for free.
    Raises ValueError for an unknown kind.
    """
    if kind == "star":
        return list(range(y.inf, y.sup + 1))
    if kind == "ultra":
        return sorted({y.inf, min(y.inf + 1, y.sup), y.sup})
    if kind == "super":
        return sorted({y.inf, y.sup})
    raise ValueError(f"unknown summit kind {kind!r}")


_clock = time.monotonic


class _Budget:
    """
    The limits of one summit computation: a wall-clock budget in ms, read
    off the module clock _clock, and a size bound, each None for no limit
    and 0 for an abort at the first check.  A NaN or negative budget and a
    negative size raise ValueError, since a NaN deadline would never fire
    and a negative limit would abort before any work.
    """

    def __init__(self, kind: str, budget_ms: float | None, max_size: int | None):
        if budget_ms is not None and not budget_ms >= 0:
            raise ValueError(f"budget_ms must be a number >= 0, got {budget_ms!r}")
        if max_size is not None and max_size < 0:
            raise ValueError(f"max_size must be >= 0, got {max_size!r}")
        self.kind = kind
        self.start = _clock()
        self.deadline = None if budget_ms is None else self.start + budget_ms / 1000.0
        self.max_size = max_size
        self.size = 0

    def count(self, extra: int = 0) -> None:
        self.size += extra
        if (self.max_size is not None and self.size > self.max_size) or (
            self.deadline is not None and _clock() > self.deadline
        ):
            raise BudgetExceeded(self.kind, (_clock() - self.start) * 1000.0, self.size)


def _arrow_atoms(y: CanonicalElement) -> list[int]:
    """
    The indices of the atoms that divide iota(y) = tau^{-inf y}(y_1) or
    iota(y^{-1}) = rc(y_l), for y = D^p y_1...y_l in its ultra summit set
    with l >= 1: the atoms the seed step of y sweeps in an ultra closure.

    Call a simple s != 1 with y^s in the ultra summit set indecomposable
    when no proper prefix t != 1 of s has y^t in it.  Every indecomposable
    s is a prefix of iota(y) or of iota(y^{-1}): the black and grey arrows
    of Birman, Gebhardt and Gonzalez-Meneses, "Conjugacy in Garside groups
    II: structure of the ultra summit set", 2008.  The set is connected by
    indecomposable conjugators, so the closure needs, for each
    indecomposable s of y, only the trajectory of y^s.  An atom a below an
    indecomposable s has s as its minimal conjugator c_a, so a divides
    iota(y) or iota(y^{-1}), and the filter keeps it.

    Exclusion stays sound.  Let G be the simple conjugators of y into its
    ultra summit set.  An orbit transport of y maps G into G, since cycling
    and tau keep the set, and preserves divisibility; each c in G comes
    back to itself after finitely many rounds (see transport), so the
    transport permutes G, its inverse is a power of it, and it maps
    indecomposables to indecomposables.  The pullback is the pushforward's
    adjoint, so the pullback of a pair below c in G divides the transport's
    preimage of c, and the pushforward of such a pair divides the image of
    c.  Starting from a below c_a, every iterate of the sweep of an atom a
    with c_a indecomposable therefore divides an indecomposable g(c_a),
    the image of c_a under some product of these permutations and their
    inverses, and g(c_a) is a simple: the D-power rule never fires for a,
    and an atom b that excludes a divides g(c_a), so c_b is g(c_a),
    indecomposable.  The atoms with indecomposable conjugators are thus
    excluded only by one another, all divide iota(y) or iota(y^{-1}), and
    are swept in the same ascending order with or without the filter:
    their sweeps, exclusions and surviving pairs are the unfiltered ones.
    No exclusion loses a trajectory either: y^{phi(c)} is a cycling image
    of y^c (the square identity of transport), so y^{g(c_a)} lies in the
    trajectory of y^{c_a}, which the survivor ending a chain of
    exclusions reaches.
    """
    s = y.struct
    first = s.tau_pow(y.factors[0], -y.power)
    last = s.right_complement(y.factors[-1])
    return [j for j in range(len(s.atoms)) if s.atom_divides(j, first) or s.atom_divides(j, last)]


def _summit_closure(
    x: CanonicalElement,
    kind: str,
    budget: _Budget,
    rep: WitnessedElement,
    target: CanonicalElement | None = None,
) -> SummitSet:
    """
    The summit set of the given kind of x, closed from rep, the
    refined-summit representative y0 of x, which the caller computes under
    the budget it started, so the representative counts too.  Every member
    shares the bounds of y0, so the orders read off it are every
    trajectory's.  With a target, the closure stops once it reaches it.

    The star closure of a rigid y0 runs on the ultra orders.  If x is
    conjugate to a rigid element of canonical length >= 2, its ultra
    summit set is exactly the set of its rigid conjugates (Birman, Gebhardt
    and Gonzalez-Meneses, "Conjugacy in Garside groups I: cyclings, powers
    and rigidity", 2007).  A rigid element is recurrent at every order (see
    is_rigid), so the rigid conjugates, C*(x) and the ultra summit set are
    one set, and the ultra closure computes it.  Its trajectories are the
    star kind's too: every member is rigid, and on a rigid element the
    order-(inf + k) step is a twisted rotation by k factors (see is_rigid),
    the order-(inf + 1) step taken k times followed by a power of tau, so
    tau and the order-(inf + 1) step close the same sets as every interior
    order.  At canonical length 1 or 2 the two lists of orders are equal
    already, [inf, sup] or [inf, inf + 1, sup], so the rule changes the
    list only at canonical length >= 3, inside the theorem's range, and
    needs no length test of its own.

    A closure on the ultra orders of a y0 of positive canonical length
    computes an ultra summit set, so its seed steps sweep only the atoms
    below iota(y) or iota(y^{-1}) of each key element y (_arrow_atoms).
    That covers the ultra kind, the refined closure of a rigid class, the
    refined closure at canonical length <= 2 and the super closure at
    canonical length 1, whose lists of orders are the ultra ones.  Every
    other closure sweeps every atom.
    """
    y0, w0 = rep.element, rep.witness
    orders = recurrence_orders("ultra" if kind == "star" and is_rigid(y0) else kind, y0)
    arrows = y0.clen > 0 and orders == recurrence_orders("ultra", y0)
    every_atom = range(len(y0.struct.atoms))

    witnesses: dict[CanonicalElement, CanonicalElement] = {}
    # only the star kind returns its trajectories, so only it keeps them
    trajectories: list[Trajectory] | None = [] if kind == "star" else None
    # key elements still to seed, each with its closed orbits at every
    # order, which its trajectory's closure has just returned
    queue: list[tuple[CanonicalElement, dict]] = []

    def register(z: CanonicalElement, conj_to_z: CanonicalElement) -> None:
        traj, orbits = _closure_trajectory(z, orders, conj_to_z)
        if trajectories is not None:
            trajectories.append(traj)
        budget.count(len(traj))
        witnesses.update(traj.witnesses)
        queue.append((traj.key_element, orbits))

    # A membership query only needs to reach its target, so the closure stops
    # once the target is registered; the LIFO order and the never-overwritten
    # witnesses make the target's witness the one the full closure assigns.
    register(y0, w0)
    while queue and target not in witnesses:
        budget.count()
        y, orbits = queue.pop()
        wy = witnesses[y]
        atoms = _arrow_atoms(y) if arrows else every_atom
        for conj, z in _seed_trajectories(y, orders, orbits, atoms):
            budget.count()
            # trajectories partition the set, so a known z means a known
            # trajectory, and its conjugator is only multiplied out when new
            if z not in witnesses:
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
        trajectories=None if trajectories is None else tuple(trajectories),
    )


def summit_set(
    x: CanonicalElement,
    kind: str,
    *,
    budget_ms: float | None = None,
    max_size: int | None = None,
) -> SummitSet:
    """
    The summit set of the given kind: "super", "ultra" or "star".  budget_ms
    bounds its wall-clock time and max_size its member count, and running
    past either raises BudgetExceeded; a NaN or negative limit raises
    ValueError before any work.
    """
    recurrence_orders(kind, x)  # rejects an unknown kind before any work
    budget = _Budget(kind, budget_ms, max_size)
    rep = cstar_representative(x)
    budget.count()
    return _summit_closure(x, kind, budget, rep)


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
    computed, then differing summit bounds.  The limits are summit_set's;
    the clock starts on entry, so it covers both representatives, and the
    size counts the partial closure.
    """
    budget = _Budget("star", budget_ms, max_size)
    if x.struct != y.struct:
        raise ValueError("elements belong to different structures")
    if x.exponent_sum != y.exponent_sum:
        return ConjugacyAnswer(False)
    rx = cstar_representative(x)
    budget.count()
    ry = cstar_representative(y)
    budget.count()
    if (rx.element.inf, rx.element.sup) != (ry.element.inf, ry.element.sup):
        return ConjugacyAnswer(False)
    reached = _summit_closure(x, "star", budget, rx, ry.element)
    if ry.element not in reached.witnesses:
        return ConjugacyAnswer(False)
    witness = reached.witnesses[ry.element] * ry.witness.inv()
    return ConjugacyAnswer(True, witness)

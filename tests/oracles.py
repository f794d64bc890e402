"""
Independent oracle implementations used only by the tests.

Everything here is deliberately written against the definitions rather than
the library's algorithms: general meets peel first factors, joins go
through inversion and the word-reversal anti-automorphism, transports are
evaluated by their definitional formulas in full group arithmetic, and
conjugacy classes come from an exhaustive conjugation graph.  Slow but
straightforward; used at small strand counts.
"""

from __future__ import annotations

import itertools
from math import lcm

from garside.braid import BraidStructure, braid_structure
from garside.core import (
    CanonicalElement,
    GarsideStructure,
    delta_power,
    identity_element,
    normalize,
    simple_element,
)


def assert_normal_form(x: CanonicalElement) -> None:
    """
    Assert the normal-form invariants of x: no factor is the identity or D,
    and every adjacent pair of factors is left-weighted.
    """
    s = x.struct
    for f in x.factors:
        if f == s.identity or f == s.delta:
            raise AssertionError("factor equals identity or Delta")
    for a, b in zip(x.factors, x.factors[1:]):
        if s.meet(s.right_complement(a), b) != s.identity:
            raise AssertionError("adjacent factors not left-weighted")


def simple_divides(st: BraidStructure, a, b) -> bool:
    """Whether the simple a left-divides the simple b: their norms add up."""
    return st.norm(a) + st.norm(st.left_quotient(a, b)) == st.norm(b)


def first_factor(x: CanonicalElement):
    """x /\\ D as a simple table; x must be positive."""
    s = x.struct
    if x.inf >= 1:
        return s.delta
    if x.factors:
        return x.factors[0]
    return s.identity


def general_meet(x: CanonicalElement, y: CanonicalElement) -> CanonicalElement:
    """Left gcd of arbitrary elements by first-factor peeling."""
    s = x.struct
    m = min(x.inf, y.inf)
    shift = delta_power(s, -m)
    a, b = shift * x, shift * y
    acc = []
    while True:
        c = s.meet(first_factor(a), first_factor(b))
        if c == s.identity:
            break
        acc.append(c)
        ce = simple_element(s, c)
        a = ce.inv() * a
        b = ce.inv() * b
    return delta_power(s, m) * normalize(s, 0, acc)


def rev(x: CanonicalElement) -> CanonicalElement:
    """Word reversal: the positive-preserving anti-automorphism fixing D."""
    s = x.struct
    assert isinstance(s, BraidStructure)
    word = [s.inverse_table(f) for f in reversed(x.factors)]
    return normalize(s, 0, word) * delta_power(s, x.power)


def general_join(x: CanonicalElement, y: CanonicalElement) -> CanonicalElement:
    """Left lcm: inverse of the right gcd of the inverses."""
    rgcd = rev(general_meet(rev(x.inv()), rev(y.inv())))
    return rgcd.inv()


def general_join_many(*xs: CanonicalElement) -> CanonicalElement:
    acc = xs[0]
    for x in xs[1:]:
        acc = general_join(acc, x)
    return acc


def divides(a: CanonicalElement, b: CanonicalElement) -> bool:
    """
    Whether a left-divides b, as a /\\ b = a by general_meet's first-factor
    peeling; CanonicalElement.divides reads the inf of a^{-1} b instead.
    """
    return general_meet(a, b) == a


def phi_definitional(x: CanonicalElement, q: int, u: CanonicalElement) -> CanonicalElement:
    """Pushforward by its defining formula, in full group arithmetic."""
    s = x.struct
    xp = x.meet_delta(q)
    xpp = xp.inv() * x
    return general_meet(xpp * u, xp.inv() * delta_power(s, q) * u.tau_pow(q))


def pi_definitional(x: CanonicalElement, q: int, u: CanonicalElement) -> CanonicalElement:
    """Pullback by its defining formula, in full group arithmetic."""
    s = x.struct
    xp = x.meet_delta(q)
    xpp = xp.inv() * x
    return general_join_many(
        delta_power(s, u.inf),
        xpp.inv() * u,
        xp * delta_power(s, -q) * u.tau_pow(-q),
    )


def sweep_meet(a, b):
    """
    Left gcd of two permutation tables by the greedy common-descent sweep,
    without any memo or shortcut: the reference for the lattice kernel.
    The result has the type of a.
    """
    n = len(a)
    va, vb = list(a), list(b)
    minv = list(range(n))  # inverse of the meet built so far
    todo = [
        k
        for k in range(n - 1)
        if va[k] > va[k + 1] and vb[k] > vb[k + 1]
    ]
    while todo:
        k = todo.pop()
        if va[k] > va[k + 1] and vb[k] > vb[k + 1]:
            va[k], va[k + 1] = va[k + 1], va[k]
            vb[k], vb[k + 1] = vb[k + 1], vb[k]
            minv[k], minv[k + 1] = minv[k + 1], minv[k]
            if k > 0:
                todo.append(k - 1)
            if k < n - 2:
                todo.append(k + 1)
    out = [0] * n
    for i, v in enumerate(minv):
        out[v] = i
    return type(a)(out)


def sweep_join(a, b):
    """
    Left lcm of two permutation tables through the sweep meet on
    complemented tables: the reference for the lattice kernel's bitset join.
    The result has the type of a.
    """
    # w0 o p complements the inversion set, turning joins into meets.
    m = len(a) - 1
    ca = tuple(m - v for v in a)
    cb = tuple(m - v for v in b)
    return type(a)(m - v for v in sweep_meet(ca, cb))


# The transport chain steps and the normal form's slide, each written out
# from the lattice operations with no memo: the references for the
# GarsideStructure step defaults and BraidStructure's memoised overrides.
# b_step is the pushforward's b-chain step, which the library takes as the
# first factor of a slide.


def a_step(s, x, a):
    return s.right_complement(s.left_quotient(s.meet(x, a), x))


def b_step(s, x, b):
    return s.mul(x, s.meet(s.right_complement(x), b))


def v_step(s, x, v):
    c = s.tau_pow(x, -1)
    d = s.tau_pow(v, -1)
    t = s.meet(s.right_complement(c), d)
    cp = s.mul(c, t)
    dp = s.left_quotient(t, d)
    r = s.right_complement(cp)
    return s.left_quotient(r, s.join(r, dp))


def w_step(s, x, w):
    return s.left_quotient(x, s.join(x, w))


def slide(s, a, b):
    c = s.meet(s.right_complement(a), b)
    return s.mul(a, c), s.left_quotient(c, b)


STEP_ORACLES = {
    "a_step": a_step,
    "v_step": v_step,
    "w_step": w_step,
    "slide": slide,
}


def weight_factors(struct, factors: list, suspects) -> tuple[int, tuple]:
    """
    Drive a factor list to its left-weighted fixed point by sliding any
    pair that is not weighted, with a pending set of the positions that
    may not be: the reference for the one-pass right multiplication.
    The fixed point does not depend on the order of the slides, because a
    word is normal exactly when every adjacent pair is.  suspects seeds
    the pending set (every position for a raw word, the junction for the
    concatenation of two normal words).
    """
    todo = sorted(set(suspects), reverse=True)
    pending = set(todo)
    while todo:
        i = todo.pop()
        pending.discard(i)
        if i < 0 or i + 1 >= len(factors):
            continue
        b = factors[i + 1]
        ac, rest = slide(struct, factors[i], b)
        if rest == b:  # already left-weighted
            continue
        factors[i], factors[i + 1] = ac, rest
        for j in (i - 1, i + 1):
            if 0 <= j < len(factors) - 1 and j not in pending:
                pending.add(j)
                todo.append(j)
    dp = 0
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == struct.delta:
        lo += 1
        dp += 1
    while lo < hi and factors[hi - 1] == struct.identity:
        hi -= 1
    return dp, tuple(factors[lo:hi])


def normalize_by_weighting(struct, power: int, word) -> CanonicalElement:
    """
    Left normal form of D^power * word by weight_factors over every pair;
    the letters enter through as_simple, as in normalize.
    """
    factors = [f for f in map(struct.as_simple, word) if f != struct.identity]
    dp, out = weight_factors(struct, factors, range(len(factors) - 1))
    return CanonicalElement(struct, power + dp, out)


def tau_pow(a, k: int):
    """
    tau^k of a simple of B_n by its definition on permutation tables,
    tau(a)[i] = n-1-a[n-1-i], with no memo: the reference for the
    structure's tau table.  tau is an involution, so k counts mod 2.  The
    result has the type of a.
    """
    m = len(a) - 1
    for _ in range(k % 2):
        a = type(a)(m - a[m - i] for i in range(m + 1))
    return a


def mul_by_weighting(x: CanonicalElement, y: CanonicalElement) -> CanonicalElement:
    """x * y as D^{p+r} tau^r(x_1...x_k) y_1...y_l, weighted at the junction."""
    s = x.struct
    left = [tau_pow(f, y.power) for f in x.factors]
    dp, out = weight_factors(s, left + list(y.factors), [len(left) - 1])
    return CanonicalElement(s, x.power + y.power + dp, out)


def nontrivial_simples(st: BraidStructure):
    for tab in itertools.permutations(range(st.n)):
        h = st.as_simple(tab)
        if h != st.identity:
            yield h


def proper_simples(st: BraidStructure):
    for tab in nontrivial_simples(st):
        if tab != st.delta:
            yield tab


def bounded_positive_elements(st: BraidStructure, cap: int) -> list[CanonicalElement]:
    """All z with 0 <= inf z and sup z <= cap (finite for fixed n)."""
    proper = list(proper_simples(st))
    follows = {
        a: [b for b in proper if st.meet(st.right_complement(a), b) == st.identity]
        for a in proper
    }
    out = []
    for p in range(cap + 1):
        level: list[tuple] = [()]
        words: list[tuple] = [()]
        for _ in range(cap - p):
            level = [
                w + (b,)
                for w in level
                for b in (follows[w[-1]] if w else proper)
            ]
            words.extend(level)
        for w in words:
            out.append(CanonicalElement(st, p, w))
    return out


def conjugation_components(st: BraidStructure, cap: int) -> dict[CanonicalElement, int]:
    """
    Connected components of the graph on {z : 0 <= inf z, sup z <= cap}
    with an edge z -> z^s for every simple s whenever the conjugate stays
    in the set.  Components are exactly conjugacy classes intersected with
    the set, for elements whose summit bounds fit inside it.
    """
    elements = bounded_positive_elements(st, cap)
    index = {z: i for i, z in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    simples = list(nontrivial_simples(st))
    for z, i in index.items():
        for tab in simples:
            w = z.conj(simple_element(st, tab))
            j = index.get(w)
            if j is not None:
                union(i, j)
    return {z: find(i) for z, i in index.items()}


def is_rigid_by_squaring(x: CanonicalElement) -> bool:
    """
    Rigidity by its definition: x has positive canonical length and its
    normal form survives squaring, x^2 /\\ D^{inf x + sup x} = x D^{inf x}.
    The reference for cycling.is_rigid, which reads one factor pair.
    """
    if x.clen == 0:
        return False
    return (x * x).meet_delta(x.inf + x.sup) == x * delta_power(x.struct, x.inf)


# The recurrence questions answered by walking the whole closed orbit of
# the cycling every time, with no stop at a rigid element: the references
# for cycling's order sweep, its two representatives, summit_bounds,
# in_recurrence_set and rigid_power, whose walks all end at the first rigid
# element.  Each walks closed_orbit with cyc_pq, read off the cycling
# module at call time.


def _walk(x: CanonicalElement, q: int, p: int = 1):
    """The orbit of x under the (p, q) cycling up to its first revisit."""
    from garside import cycling

    return cycling.closed_orbit(x, lambda y: cycling.cyc_pq(y, p, q))


def order_sweep_by_walking(x: CanonicalElement, wit: CanonicalElement, p: int):
    """The ascending (p, q) order sweep, walking an orbit at every order."""
    cur, moved = x, False
    xp = cur ** p
    q = xp.inf + 1
    while q < xp.sup:
        if q > xp.inf:
            rec = _walk(cur, q, p)
            if rec.entry_index:
                wit = wit * rec.witness
                cur = rec.recurrent_element
                xp = cur ** p
                moved = True
        q += 1
    return cur, wit, moved


def cstar_representative_by_walking(x: CanonicalElement) -> tuple:
    """(element, witness) of the order sweep at p = 1."""
    return order_sweep_by_walking(x, identity_element(x.struct), 1)[:2]


def cmn_star_representative_by_walking(x: CanonicalElement, m: int, n: int) -> tuple:
    """(element, witness) of the order sweeps for p in [m, n], repeated to a fixed point."""
    cur, wit = x, identity_element(x.struct)
    while True:
        changed = False
        for p in range(m, n + 1):
            if p:
                cur, wit, moved = order_sweep_by_walking(cur, wit, p)
                changed = changed or moved
        if not changed:
            return cur, wit


def summit_bounds_by_walking(x: CanonicalElement) -> tuple[int, int]:
    """summit_bounds' two phases of closed orbits, each walked to its end."""
    y = x
    for order in (lambda z: z.inf + 1, lambda z: z.sup - 1):
        while y.clen > 1:
            q = order(y)
            y = _walk(y, q).recurrent_element
            if order(y) == q:
                break
    return y.inf, y.sup


def in_recurrence_set_by_walking(x: CanonicalElement, q: int, p: int) -> bool:
    return _walk(x, q, p).entry_index == 0


def rigid_power_by_walking(x: CanonicalElement):
    """
    rigid_power's report with the order-(2, inf + sup) walk taken from
    every refined-summit representative that is not rigid, whatever its
    canonical length, and rigidity tested by squaring: the reference for
    rigid_power, which walks at canonical length 1 only.  The exponents
    are rigid.stable_exponents', which has its own reference.
    """
    from garside import cycling
    from garside.rigid import RigidReport, stable_exponents

    n1, n2 = stable_exponents(x)
    n = lcm(n1, n2)
    rep = cycling.cstar_representative(x ** n)
    y, wit = rep.element, rep.witness
    if not is_rigid_by_squaring(y):
        rec = _walk(y, y.inf + y.sup, 2)
        y, wit = rec.recurrent_element, wit * rec.witness
    if not is_rigid_by_squaring(y):
        return RigidReport(False, (n1, n2))
    return RigidReport(True, (n1, n2), power=n, rigid_conjugate=y, witness=wit)


def cstar_summit_bounds(x: CanonicalElement) -> tuple[int, int]:
    """
    (summit inf, summit sup) read off the refined-summit representative,
    which is recurrent at every order: the reference for summit_bounds.
    """
    from garside.cycling import cstar_representative

    y = cstar_representative(x).element
    return y.inf, y.sup


def summit_members_exhaustive(st: BraidStructure, x: CanonicalElement, kind: str) -> frozenset:
    """
    Summit sets by definition, as a frozenset of members: search the whole
    conjugacy class inside the summit box via single-simple conjugations,
    then filter by the kind's recurrence condition.  Only for small n and
    short elements.
    """
    from garside.cycling import closed_orbit, cstar_representative, cyc, cyc_q

    lo, hi = cstar_summit_bounds(x)
    seed = cstar_representative(x).element
    box_members = {seed}
    queue = [seed]
    simples = list(nontrivial_simples(st))
    while queue:
        y = queue.pop()
        for tab in simples:
            z = y.conj(simple_element(st, tab))
            if (z.inf, z.sup) == (lo, hi) and z not in box_members:
                box_members.add(z)
                queue.append(z)
    ident = identity_element(st)
    if kind == "super":
        keep = box_members
    elif kind == "ultra":
        keep = {
            z
            for z in box_members
            if closed_orbit(z, lambda w: (cyc(w), ident)).entry_index == 0
        }
    elif kind == "star":
        keep = {
            z
            for z in box_members
            if all(
                closed_orbit(z, lambda w, qq=q: cyc_q(w, qq)).entry_index == 0
                for q in range(z.inf + 1, z.sup)
            )
        }
    else:
        raise ValueError(kind)
    return frozenset(keep)


def element_orbits(x: CanonicalElement, kind: str) -> list[tuple]:
    """
    For each recurrence order q of the kind, ascending, the pair (q, the
    closed orbit of x under the order-q cycling), walked with cyc_q at
    every order, boundary orders included.
    """
    from garside.summit import recurrence_orders

    out = []
    for q in recurrence_orders(kind, x):
        rec = _walk(x, q)
        assert rec.entry_index == 0, (x, q)
        out.append((q, rec.elements))
    return out


def minimal_conjugator_by_elements(orbits: list[tuple], u: CanonicalElement, probe=None):
    """
    The two-sweep minimal recurrent conjugator on CanonicalElement values:
    the defining formulas phi_definitional and pi_definitional composed
    around each orbit of element_orbits, and domination by the general
    divides above.  The reference for the library's sweep on
    (power, simple) pairs, sharing none of transport.py's steps; the probe
    sees every iterate as an element.
    """
    stage_inputs = []
    cur = u
    for q, orbit in orbits:
        stage_inputs.append(cur)
        seen = {cur}
        while True:
            for y in reversed(orbit):
                cur = pi_definitional(y, q, cur)
            if probe is not None:
                probe(cur)
            if cur in seen:
                break
            seen.add(cur)
    for (q, orbit), entering in zip(reversed(orbits), reversed(stage_inputs)):
        seen = {cur}
        first_revisit = None
        while True:
            for y in orbit:
                cur = phi_definitional(y, q, cur)
            if probe is not None:
                probe(cur)
            if first_revisit is None:
                if cur not in seen:
                    seen.add(cur)
                    continue
                first_revisit = cur
            elif cur == first_revisit:
                raise RuntimeError("pushforward sweep failed to dominate its input")
            if divides(entering, cur):
                break
    return cur


class _Excluded(Exception):
    pass


def seed_trajectories_by_elements(x: CanonicalElement, kind: str) -> list:
    """
    The seed step's (v, x^v) list with atom exclusion, by
    minimal_conjugator_by_elements: an atom is dropped as soon as another
    live atom divides an iterate met while minimising it.
    """
    s = x.struct
    orbits = element_orbits(x, kind)
    live = set(range(len(s.atoms)))
    out = []
    for idx, atom in enumerate(s.atoms):
        others = [j for j in sorted(live) if j != idx]

        def probe(w: CanonicalElement) -> None:
            if w.power >= 1:
                if others:
                    raise _Excluded
                return
            if w.power < 0 or not w.factors:
                return
            if any(simple_divides(s, s.atoms[j], w.factors[0]) for j in others):
                raise _Excluded

        try:
            v = minimal_conjugator_by_elements(orbits, simple_element(s, atom), probe)
        except _Excluded:
            live.discard(idx)
            continue
        out.append((v, x.conj(v)))
    return out


class TupleBraidStructure(GarsideStructure):
    """
    B_n with tuple handles, the differential twin of BraidStructure: each
    method hands its arguments to the interned braid_structure(n) through
    its as_simple and returns tuple() of the answer.  The steps are
    GarsideStructure's defaults, with no memo.  A tuple sorts like the
    bytes table it stands for, so every generic layer must give the same
    members, member order and witnesses on both structures.
    """

    def __init__(self, n: int):
        b = self.base = braid_structure(n)
        self.n = n
        self.identity = tuple(b.identity)
        self.delta = tuple(b.delta)
        self.atoms = tuple(tuple(a) for a in b.atoms)
        self.order_of_tau = b.order_of_tau
        self.delta_norm = b.delta_norm

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TupleBraidStructure) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("tuple-braid", self.n))

    def __repr__(self) -> str:
        return f"TupleBraidStructure(n={self.n})"

    def mul(self, a, b):
        h = self.base.as_simple
        return tuple(self.base.mul(h(a), h(b)))

    def left_quotient(self, a, b):
        h = self.base.as_simple
        return tuple(self.base.left_quotient(h(a), h(b)))

    def right_complement(self, a):
        return tuple(self.base.right_complement(self.base.as_simple(a)))

    def meet(self, a, b):
        h = self.base.as_simple
        return tuple(self.base.meet(h(a), h(b)))

    def join(self, a, b):
        h = self.base.as_simple
        return tuple(self.base.join(h(a), h(b)))

    def tau_pow(self, a, k: int):
        return tuple(self.base.tau_pow(self.base.as_simple(a), k))

    def norm(self, a) -> int:
        return self.base.norm(self.base.as_simple(a))

    def as_simple(self, a):
        return tuple(self.base.as_simple(a))


def to_twin(x: CanonicalElement) -> CanonicalElement:
    """The element x of B_n as an element of TupleBraidStructure(n)."""
    return CanonicalElement(TupleBraidStructure(x.struct.n), x.power, tuple(map(tuple, x.factors)))


def from_twin(x: CanonicalElement) -> CanonicalElement:
    """The element x of TupleBraidStructure(n) as an element of B_n."""
    b = x.struct.base
    return CanonicalElement(b, x.power, tuple(map(b.as_simple, x.factors)))

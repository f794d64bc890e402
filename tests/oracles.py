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

from garside.braid import BraidStructure
from garside.core import (
    CanonicalElement,
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
        if s.is_identity(f) or s.is_delta(f):
            raise AssertionError("factor equals identity or Delta")
    for a, b in zip(x.factors, x.factors[1:]):
        if not s.is_identity(s.meet(s.right_complement(a), b)):
            raise AssertionError("adjacent factors not left-weighted")


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
        if s.is_identity(c):
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
    return (a.inv() * b).inf >= 0


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


def sweep_meet(a: tuple, b: tuple) -> tuple:
    """
    Left gcd of two permutation tables by the greedy common-descent sweep,
    without any memo or shortcut: the reference for the lattice kernel.
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
    return tuple(out)


def sweep_join(a: tuple, b: tuple) -> tuple:
    """Left lcm of two permutation tables through the sweep meet."""
    # w0 o p complements the inversion set, turning joins into meets.
    m = len(a) - 1
    ca = tuple(m - v for v in a)
    cb = tuple(m - v for v in b)
    return tuple(m - v for v in sweep_meet(ca, cb))


def nontrivial_simples(st: BraidStructure):
    for tab in itertools.permutations(range(st.n)):
        if not st.is_identity(tab):
            yield tab


def proper_simples(st: BraidStructure):
    for tab in nontrivial_simples(st):
        if not st.is_delta(tab):
            yield tab


def bounded_positive_elements(st: BraidStructure, cap: int) -> list[CanonicalElement]:
    """All z with 0 <= inf z and sup z <= cap (finite for fixed n)."""
    proper = list(proper_simples(st))
    follows = {
        a: [b for b in proper if st.is_identity(st.meet(st.right_complement(a), b))]
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

"""
transport: carrying conjugators along cycling steps.

For a cycling step x -> cyc_q(x) write x' = x /\\ D^q and x'' = x'^{-1} x.
The pushforward and pullback of a conjugator u along the step are

    phi(u) = x'' u  /\\  x'^{-1} D^q tau^q(u)
    pi(u)  = D^{inf u}  \\/  x''^{-1} u  \\/  x' D^{-q} tau^{-q}(u)

The pushforward makes the conjugation square commute: x' phi(u) = u (x^u /\\ D^q),
so cyc_q(x)^{phi(u)} = cyc_q(x^u).  The pullback is its order-theoretic
adjoint.  Both preserve D-powers, preserve divisibility, and keep inf from
dropping and sup from rising, so iterating either one on arguments of the
shape D^m * simple stays in that shape and must eventually repeat.

Arguments of that shape are all the algorithms ever need, and for them both
maps reduce to pure simple-lattice calculus on the normal form of x: chains
of meets, joins, complements and quotients, one per factor.  A leading D^m
peels off through tau:  phi_{x,q}(D^m s) = D^m phi_{tau^m(x),q}(s).

Composing the single steps around a closed orbit of the order-q cycling
gives the orbit transports (pushforward forwards, pullback in reversed
nesting).  An element x^u is order-q recurrent exactly when the orbit
pushforward returns to u after finitely many rounds, which is what makes
the minimal-conjugator sweep below terminate and be correct.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .core import (
    CanonicalElement,
    GarsideStructure,
    Simple,
    delta_power,
    simple_element,
)
from .cycling import (
    NotRecurrentError,
    Trajectory,
    recurrence_orders,
    recurrent_representative,
    trajectory,
)


def _phi_simple(
    s: GarsideStructure, factors: Sequence[Simple], p: int, k: int, u: Simple
) -> Simple:
    """
    Pushforward of a simple u (u != D) along the order-(p+k) cycling of
    D^p x_1...x_l, evaluated by the two normal-form chains

        a_0 = tau^p(u),  a_i = rc( (x_i /\\ a_{i-1})^{-1} x_i )     i = 1..k
        b_{l+1} = u,     b_i = x_i * ( rc(x_i) /\\ b_{i+1} )        i = l..k+1

    whose meet a_k /\\ b_{k+1} is the pushforward.
    """
    a = s.tau_pow(u, p)
    for i in range(k):
        xi = factors[i]
        a = s.right_complement(s.left_quotient(s.meet(xi, a), xi))
    b = u
    for i in range(len(factors) - 1, k - 1, -1):
        xi = factors[i]
        b = s.mul(xi, s.meet(s.right_complement(xi), b))
    return s.meet(a, b)


def _pi_simple(
    s: GarsideStructure, factors: Sequence[Simple], p: int, k: int, u: Simple
) -> Simple:
    """
    Pullback of a simple u (u != D) along the order-(p+k) cycling, by the
    dual chains

        v_k = u,      v_{i-1} = D^{-1} (D \\/ tau^{-1}(x_i v_i))   i = k..1
        w_{k+1} = u,  w_{i+1} = x_i^{-1} (x_i \\/ w_i)             i = k+1..l

    joined as tau^{-p}(v_0) \\/ w_{l+1}.  With tau^{-1}(x_i v_i) = cp dp in
    normal form and r = rc(cp), D^{-1} (D \\/ cp dp) = r^{-1} (r \\/ dp).
    """
    v = u
    for i in range(k - 1, -1, -1):
        c = s.tau_pow(factors[i], -1)
        d = s.tau_pow(v, -1)
        t = s.meet(s.right_complement(c), d)
        cp = s.mul(c, t)
        dp = s.left_quotient(t, d)
        r = s.right_complement(cp)
        v = s.left_quotient(r, s.join(r, dp))
    w = u
    for i in range(k, len(factors)):
        xi = factors[i]
        w = s.left_quotient(xi, s.join(xi, w))
    return s.join(s.tau_pow(v, -p), w)


class TransportContext:
    """
    A cycling step x -> cyc_q(x) prepared for transporting conjugators of
    the shape D^m * simple.  Immutable once built; safe to share.

    For q in [inf x, sup x] both maps run the factor chains on the normal
    form of x; push also accepts orders outside that range, where the step
    is tau^q or trivial, and evaluates the defining formula directly.
    """

    def __init__(self, x: CanonicalElement, q: int):
        self.x = x
        self.q = q
        self.struct = x.struct

    def _split(self, u: CanonicalElement) -> tuple[int, Simple]:
        if u.clen > 1:
            raise ValueError("transport arguments must have canonical length <= 1")
        return u.power, (u.factors[0] if u.factors else self.struct.identity)

    def push(self, u: CanonicalElement) -> CanonicalElement:
        s, x, q = self.struct, self.x, self.q
        if q < x.inf:
            # x /\ D^q = D^q, so phi(u) = D^{-q} u (x^u /\ D^q)
            return delta_power(s, -q) * u * x.conj(u).meet_delta(q)
        if q > x.sup:
            # the step is trivial and phi(u) = x^{-1} u (x^u /\ D^q)
            return x.inv() * u * x.conj(u).meet_delta(q)
        m, su = self._split(u)
        phi = _phi_simple(s, x.tau_pow(m).factors, x.power, q - x.power, su)
        return simple_element(s, phi, m)

    def pull(self, u: CanonicalElement) -> CanonicalElement:
        s, x, q = self.struct, self.x, self.q
        if not x.inf <= q <= x.sup:
            raise ValueError(
                "pullback is only defined for orders between inf x and sup x"
            )
        m, su = self._split(u)
        pi = _pi_simple(s, x.tau_pow(m).factors, x.power, q - x.power, su)
        return simple_element(s, pi, m)


class OrbitTransport:
    """
    Transport around the full closed orbit of x under the order-q cycling.
    Raises NotRecurrentError unless x lies on its closed orbit.
    """

    def __init__(self, x: CanonicalElement, q: int):
        rec = recurrent_representative(x, q)
        if rec.entry_index:
            raise NotRecurrentError(f"element is not order-{q} recurrent")
        self.x = x
        self.q = q
        self.contexts = tuple(TransportContext(y, q) for y in rec.elements)

    def push_around(self, u: CanonicalElement) -> CanonicalElement:
        for ctx in self.contexts:
            u = ctx.push(u)
        return u

    def pull_around(self, u: CanonicalElement) -> CanonicalElement:
        for ctx in reversed(self.contexts):
            u = ctx.pull(u)
        return u


Probe = Callable[[CanonicalElement], None]


def minimal_recurrent_conjugator(
    transports: Sequence[OrbitTransport],
    u: CanonicalElement,
    probe: Probe | None = None,
) -> CanonicalElement:
    """
    The minimal v with u dividing v such that x^v is recurrent at every
    order q of the transports, which are the orbit transports of one x in
    ascending order (u must have canonical length <= 1).  Building them is
    the costly part, so a caller minimising several u around the same x
    builds them once and passes the same list each time.

    Two sweeps: ascending through the orders, iterate the orbit pullback to
    its first revisited value; then descending, iterate the orbit
    pushforward until it both revisits a value and dominates the ascending
    stage's input.  Once the pushforward iterates come back to their first
    revisited value they have run through their whole period, so a sweep
    that has not found a dominating iterate by then never will.  The
    optional probe sees every intermediate iterate.
    """
    stage_inputs: list[CanonicalElement] = []
    cur = u
    for ot in transports:
        stage_inputs.append(cur)
        seen = {cur}
        while True:
            cur = ot.pull_around(cur)
            if probe is not None:
                probe(cur)
            if cur in seen:
                break
            seen.add(cur)
    for ot, entering in zip(reversed(transports), reversed(stage_inputs)):
        seen = {cur}
        first_revisit = None
        while True:
            cur = ot.push_around(cur)
            if probe is not None:
                probe(cur)
            if first_revisit is None:
                if cur not in seen:
                    seen.add(cur)
                    continue
                first_revisit = cur
            elif cur == first_revisit:
                raise RuntimeError("pushforward sweep failed to dominate its input")
            if entering.divides(cur):
                break
    return cur


def _orbit_transports(x: CanonicalElement, kind: str) -> list[OrbitTransport]:
    """The orbit transports of x at its recurrence orders of the kind, ascending."""
    return [OrbitTransport(x, q) for q in recurrence_orders(kind, x)]


def mu(x: CanonicalElement, u: CanonicalElement) -> CanonicalElement:
    """
    The minimal v above u conjugating x into the refined summit set of x
    (x must be recurrent at every order, as from cstar_representative).
    """
    return minimal_recurrent_conjugator(_orbit_transports(x, "star"), u)


class _Excluded(Exception):
    pass


def _seed_trajectories(
    x: CanonicalElement, kind: str
) -> list[tuple[CanonicalElement, CanonicalElement]]:
    """
    Shared engine behind seed_trajectories and the summit closures of every
    kind.  Returns (v, x^v) pairs, one per surviving atom, where v is the
    minimal recurrent conjugator above the atom; the trajectories of the
    x^v cover every minimal-conjugator successor trajectory of x inside the
    summit set of the given kind.  No trajectory is built here: the caller
    closes the ones it has not seen yet.

    An atom is dropped as soon as another still-live atom divides one of
    the transport iterates produced while minimizing it; the surviving
    atoms' trajectories cover the dropped ones.
    """
    s = x.struct
    transports = _orbit_transports(x, kind)
    atoms = s.atoms
    live = set(range(len(atoms)))
    out: list[tuple[CanonicalElement, CanonicalElement]] = []
    for idx, atom in enumerate(atoms):
        others = [j for j in sorted(live) if j != idx]

        def probe(w: CanonicalElement) -> None:
            if w.power >= 1:
                if others:
                    raise _Excluded
                return
            if w.power < 0 or not w.factors:
                return
            table = w.factors[0]
            for j in others:
                if s.atom_divides(j, table):
                    raise _Excluded

        try:
            v = minimal_recurrent_conjugator(transports, simple_element(s, atom), probe)
        except _Excluded:
            live.discard(idx)
            continue
        out.append((v, x.conj(v)))
    return out


def seed_trajectories(x: CanonicalElement) -> list[tuple[CanonicalElement, Trajectory]]:
    """
    Trajectories adjacent to the trajectory of x inside the refined summit
    set, as (v, trajectory of x^v) pairs: for each atom a (with the
    exclusion shortcut), minimize a to a conjugator v = mu_x(a) and take
    the full trajectory of x^v, whose seed is x^v.  The result covers every
    trajectory reachable from x by a minimal simple-element conjugation,
    and is bounded in size by the number of atoms; two pairs may share a
    trajectory.
    """
    return [(v, trajectory(z)) for v, z in _seed_trajectories(x, "star")]

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
of one structure step per factor, each a function of the factor and the
running simple that a structure may memoise.  The pushforward runs
GarsideStructure.a_step and the normal form's own slide, of which it keeps
the first factor; the pullback runs v_step and w_step.  The w-step is the
residual x\\w = x^{-1} (x \\/ w), and the v-step is a slide followed by
one.  A leading D^m peels off through tau:
phi_{x,q}(D^m s) = D^m phi_{tau^m(x),q}(s).  Outside [inf x, sup x] the
pushforward has a closed form (see TransportContext).  So the pair steps
_push and _pull map (power, simple) pairs, the orbit transports and the
minimal-conjugator sweep iterate such pairs rather than elements, and
elements are converted only in the seed step, once per atom, and in
TransportContext's push and pull.

Composing the single steps around a closed orbit of the order-q cycling
gives the orbit transports (pushforward forwards, pullback in reversed
nesting).  An element x^u is order-q recurrent exactly when the orbit
pushforward returns to u after finitely many rounds, which is what makes
the minimal-conjugator sweep below terminate and be correct.  A stop
predicate, asked about every iterate, ends a sweep early with None: the
seed step drops an atom that way.

This module takes no cycling step: an orbit transport is given its
closed orbit.  The summit closures seed from key elements of
trajectories, and the closure of a trajectory returns the key element's
closed orbit at every order it was given (cycling._closure_trajectory),
which the seed step turns into its orbit transports.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping, Sequence

from .core import (
    CanonicalElement,
    GarsideStructure,
    Simple,
    simple_element,
)


def _phi_simple(
    s: GarsideStructure, factors: Sequence[Simple], p: int, k: int, u: Simple
) -> Simple:
    """
    Pushforward of a simple u (u != D) along the order-(p+k) cycling of
    D^p x_1...x_l, evaluated by two normal-form chains, of the structure's
    a-steps and of the first factors of its slides,

        a_0 = tau^p(u),  a_i = a_step(x_i, a_{i-1}) = rc( (x_i /\\ a_{i-1})^{-1} x_i )
        b_{l+1} = u,     b_i = slide(x_i, b_{i+1})[0] = x_i * ( rc(x_i) /\\ b_{i+1} )

    (a-steps for i = 1..k, slides for i = l..k+1), whose meet a_k /\\ b_{k+1}
    is the pushforward.  b_i is x_i b_{i+1} /\\ D, the first factor of the
    normal form of x_i b_{i+1}.
    """
    a = u
    if p % s.order_of_tau:
        a = s.tau_pow(u, p)
    for i in range(k):
        a = s.a_step(factors[i], a)
    b = u
    for i in range(len(factors) - 1, k - 1, -1):
        b = s.slide(factors[i], b)[0]
    return s.meet(a, b)


def _pi_simple(
    s: GarsideStructure, factors: Sequence[Simple], p: int, k: int, u: Simple
) -> Simple:
    """
    Pullback of a simple u (u != D) along the order-(p+k) cycling, by the
    dual chains of the structure's v-steps and w-steps

        v_k = u,      v_{i-1} = v_step(x_i, v_i) = D^{-1} (D \\/ tau^{-1}(x_i v_i))
        w_{k+1} = u,  w_{i+1} = w_step(x_i, w_i) = x_i\\w_i

    (v-steps for i = k..1, w-steps for i = k+1..l), joined as
    tau^{-p}(v_0) \\/ w_{l+1}.  The w-step is the residual
    x\\w = x^{-1} (x \\/ w), and the v-step is a slide followed by one:
    with (cp, dp) = slide(tau^{-1}(x), tau^{-1}(v)), the normal form of
    tau^{-1}(x v), and r = rc(cp), D^{-1} (D \\/ cp dp) = r\\dp.
    """
    v = u
    for i in range(k - 1, -1, -1):
        v = s.v_step(factors[i], v)
    w = u
    for i in range(k, len(factors)):
        w = s.w_step(factors[i], w)
    if p % s.order_of_tau:
        v = s.tau_pow(v, -p)
    return s.join(v, w)


Pair = tuple[int, Simple]


def _pair(struct: GarsideStructure, u: CanonicalElement) -> Pair:
    """u as a (power, simple) pair, checked to be of struct and of canonical length <= 1."""
    if u.struct is not struct and u.struct != struct:
        raise ValueError("elements belong to different structures")
    if u.clen > 1:
        raise ValueError("transport arguments must have canonical length <= 1")
    return u.power, (u.factors[0] if u.factors else struct.identity)


def _push(x: CanonicalElement, q: int, u: Pair) -> Pair:
    """The pushforward of the pair u along the order-q cycling step of x."""
    m, t = u
    k = q - x.power
    if k < 0:
        return m, x.struct.tau_pow(t, q)
    if k > len(x.factors):
        return u
    return _chain(_phi_simple, x, m, k, t)


def _pull(x: CanonicalElement, q: int, u: Pair) -> Pair:
    """The pullback of the pair u along the order-q cycling step of x."""
    m, t = u
    k = q - x.power
    if not 0 <= k <= len(x.factors):
        raise ValueError("pullback is only defined for orders between inf x and sup x")
    return _chain(_pi_simple, x, m, k, t)


def _chain(chain: Callable[..., Simple], x: CanonicalElement, m: int, k: int, t: Simple) -> Pair:
    """
    D^m times the chain's value at the simple t, which runs on the
    factors of tau^m(x), since phi_{x,q}(D^m s) = D^m phi_{tau^m(x),q}(s)
    and likewise for pi; a D value moves into the power.
    """
    s = x.struct
    factors: Sequence[Simple] = x.factors
    if m % s.order_of_tau:
        factors = [s.tau_pow(f, m) for f in factors]
    r = chain(s, factors, x.power, k, t)
    return (m + 1, s.identity) if r == s.delta else (m, r)


@dataclasses.dataclass(frozen=True, eq=False)
class TransportContext:
    """
    A cycling step x -> cyc_q(x) prepared for transporting conjugators of
    the shape D^m * simple.  Immutable once built; safe to share.

    For q in [inf x, sup x] both maps run the factor chains on the normal
    form of x.  push also accepts orders outside that range, where it has
    a closed form.  With u = D^m s, x^u = s^{-1} tau^m(x) s, so
    inf x^u >= inf x - 1 and sup x^u <= sup x + 1.  From
    (x /\\ D^q) phi(u) = u (x^u /\\ D^q): for q < inf x both meets are D^q
    and phi(u) = tau^q(u); for q > sup x they are x and x^u, and phi(u) = u.
    Both maps raise ValueError, at every order, on an argument of canonical
    length above 1 or of another structure.

    push and pull convert elements to and from the (power, simple) pairs
    that the module's pair steps _push and _pull take, the values the
    orbit transports iterate: (m, s) stands for D^m s, and s is never D,
    so equal pairs are equal elements.
    """

    x: CanonicalElement
    q: int

    def push(self, u: CanonicalElement) -> CanonicalElement:
        m, t = _push(self.x, self.q, _pair(self.x.struct, u))
        return simple_element(self.x.struct, t, m)

    def pull(self, u: CanonicalElement) -> CanonicalElement:
        m, t = _pull(self.x, self.q, _pair(self.x.struct, u))
        return simple_element(self.x.struct, t, m)


class OrbitTransport:
    """
    Transport of (power, simple) pairs around a closed orbit of the
    order-q cycling, held as the tuple orbit, from its element
    x = orbit[0] onwards, whose elements the pair steps _push and _pull
    run on in turn.  The orbit is taken as given, every element of it,
    rigid ones included: the seed step passes the orbit that the
    trajectory closure returned (cycling._closure_trajectory), and
    cycling.closed_orbit with cyc_q walks one from any recurrent element.
    """

    def __init__(self, orbit: Sequence[CanonicalElement], q: int):
        self.x = orbit[0]
        self.q = q
        self.orbit = tuple(orbit)

    def push_around(self, u: Pair) -> Pair:
        for y in self.orbit:
            u = _push(y, self.q, u)
        return u

    def pull_around(self, u: Pair) -> Pair:
        for y in reversed(self.orbit):
            u = _pull(y, self.q, u)
        return u


def _dominates(s: GarsideStructure, entering: Pair, cur: Pair) -> bool:
    """
    Whether D^p a divides D^r b for pairs (p, a) and (r, b), with a and b
    simples other than D: at most one meet, where CanonicalElement.divides
    pays for an inverse and a product.  Three cases:
    - r > p: a divides D, which divides D^{r-p} b, so D^p a divides
      D^p D^{r-p} b = D^r b;
    - r < p: D^p a dividing D^r b would give D^p dividing D^r b, so
      inf D^r b >= p; but inf D^r b = r, since b is not D;
    - r = p: (D^p a)^{-1} D^r b = a^{-1} b, so D^p a divides D^r b exactly
      when a divides b, that is, a /\\ b = a (the identity divides all).
    """
    p, a = entering
    r, b = cur
    return r > p or (r == p and s.meet(a, b) == a)


def minimal_recurrent_conjugator(
    transports: Sequence[OrbitTransport], u: Pair, stop: Callable[[Pair], bool]
) -> Pair | None:
    """
    The minimal v with u dividing v such that x^v is recurrent at every
    order q of the transports, which are the orbit transports of one x in
    ascending order.  u and v are (power, simple) pairs, (m, s) standing
    for D^m s with s never D, so equal pairs are equal elements.  Building
    the transports is the costly part, so a caller minimising several u
    around the same x builds them once and passes the same list each time.

    Two sweeps: ascending through the orders, iterate the orbit pullback to
    its first revisited value; then descending, iterate the orbit
    pushforward until it both revisits a value and dominates the ascending
    stage's input.  Once the pushforward iterates come back to their first
    revisited value they have run through their whole period, so a sweep
    that has not found a dominating iterate by then never will.  The
    predicate stop is asked about every intermediate iterate; the sweep
    returns None at the first iterate it answers True for.
    """
    stage_inputs: list[Pair] = []
    cur = u
    for ot in transports:
        stage_inputs.append(cur)
        seen = {cur}
        while True:
            cur = ot.pull_around(cur)
            if stop(cur):
                return None
            if cur in seen:
                break
            seen.add(cur)
    for ot, entering in zip(reversed(transports), reversed(stage_inputs)):
        seen = {cur}
        first_revisit = None
        while True:
            cur = ot.push_around(cur)
            if stop(cur):
                return None
            if first_revisit is None:
                if cur not in seen:
                    seen.add(cur)
                    continue
                first_revisit = cur
            elif cur == first_revisit:
                raise RuntimeError("pushforward sweep failed to dominate its input")
            if _dominates(ot.x.struct, entering, cur):
                break
    return cur


def _seed_trajectories(
    x: CanonicalElement,
    orders: Sequence[int],
    orbits: Mapping[int, Sequence[CanonicalElement]],
    atoms: Sequence[int],
) -> list[tuple[CanonicalElement, CanonicalElement]]:
    """
    The seed step of the summit closures of every kind.  Returns (v, x^v)
    pairs, one per surviving swept atom, where v is the minimal conjugator
    above the atom that makes x^v recurrent at every one of orders, an
    ascending list from inf x to sup x, and builds one orbit transport of
    x per order for all atoms.  atoms lists, ascending, the indices into
    x.struct.atoms of the atoms to sweep, which the caller chooses; no
    other atom is swept or excludes one.  The trajectories of the x^v
    cover every minimal-conjugator successor trajectory of x inside the
    set of conjugates recurrent at those orders whose conjugator lies above
    a swept atom, so there are at most as many as swept atoms.  No
    trajectory is built here: the caller closes the ones it has not seen
    yet.

    orbits holds the closed orbit of x at each of orders, starting at x,
    as the closure of the trajectory of x returns them.

    An atom is dropped as soon as another still-live swept atom divides one
    of the transport iterates produced while minimizing it: the sweep's
    stop predicate answers True there and the sweep returns None.  The
    surviving atoms' trajectories cover the dropped ones.
    """
    s = x.struct
    transports = [OrbitTransport(orbits[q], q) for q in orders]
    live = set(atoms)
    out: list[tuple[CanonicalElement, CanonicalElement]] = []
    for idx in atoms:
        atom = s.atoms[idx]
        others = [j for j in sorted(live) if j != idx]

        def excluded(w: Pair) -> bool:
            power, table = w
            if power >= 1:
                return bool(others)
            if power < 0 or table == s.identity:
                return False
            for j in others:
                if s.atom_divides(j, table):
                    return True
            return False

        # the atom's pair; in a structure of rank one, as B_2, the atom is D
        start = (1, s.identity) if atom == s.delta else (0, atom)
        w = minimal_recurrent_conjugator(transports, start, excluded)
        if w is None:
            live.discard(idx)
            continue
        v = simple_element(s, w[1], w[0])
        out.append((v, x.conj(v)))
    return out

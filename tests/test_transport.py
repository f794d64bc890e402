"""Pushforward/pullback identities, the factor-chain calculus, minimal conjugators."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from garside import cycling, summit, transport
from garside.braid import BraidStructure, braid_structure, parse_word, random_simple
from garside.core import delta_power, identity_element, normalize, simple_element
from garside.cycling import (
    NotRecurrentError,
    closed_orbit,
    cstar_representative,
    cyc_q,
    in_recurrence_set,
    is_rigid,
    trajectory,
)
from garside.summit import c_star, recurrence_orders, ultra_summit_set
from garside.transport import (
    OrbitTransport,
    TransportContext,
    minimal_recurrent_conjugator,
)

from conftest import random_element, random_rigid_element
from oracles import (
    element_orbits,
    minimal_conjugator_by_elements,
    phi_definitional,
    pi_definitional,
    seed_trajectories_by_elements,
)

N_INSTANCES = 1100


def orbit_of(x, q):
    """The closed orbit of the recurrent x under the order-q cycling, from x, walked with cyc_q."""
    rec = closed_orbit(x, lambda y: cyc_q(y, q))
    assert rec.entry_index == 0, (x, q)
    return rec.elements


def transports_of(x, orders):
    """The orbit transports of x at each of orders, on walked orbits."""
    return [OrbitTransport(orbit_of(x, q), q) for q in orders]


def star_transports(x):
    """The orbit transports of x at every order of its refined summit set."""
    return transports_of(x, recurrence_orders("star", x))


def every_atom(st):
    """The indices of every atom of the structure, the seed step's unfiltered list."""
    return range(len(st.atoms))


def seed_trajectories(x, orders):
    """The seed step of x on walked orbits, sweeping every atom."""
    orbits = {q: orbit_of(x, q) for q in orders}
    return transport._seed_trajectories(x, orders, orbits, every_atom(x.struct))


def as_pair(u):
    """D^m s as the (m, s) pair that orbit transports iterate."""
    return u.power, (u.factors[0] if u.factors else u.struct.identity)


def as_element(st, pair):
    return simple_element(st, pair[1], pair[0])


def minimal_conjugator(transports, u):
    """The sweep from the element u, with a stop predicate that never fires, as an element."""
    st = u.struct

    def never(pair):
        # a D simple would make a second pair for the same element
        assert pair[1] != st.delta, pair
        return False

    return as_element(st, minimal_recurrent_conjugator(transports, as_pair(u), never))


def _instances(rng, count, interior_only=False):
    """Random (x, q, u) with u = D^m * simple, m in {-1, 0, 1}, in B_3/B_4."""
    for _ in range(count):
        n = rng.choice([3, 4])
        st = braid_structure(n)
        x = random_element(rng, n, max_len=4, min_len=1, min_power=-1, max_power=1)
        lo = x.inf if interior_only else x.inf - 2
        hi = x.sup if interior_only else x.sup + 2
        q = rng.randint(lo, hi)
        u = simple_element(st, random_simple(rng, n), rng.choice([-1, 0, 1]))
        yield st, x, q, u


def test_push_square_identity(rng):
    # (x /\ D^q) phi(u) = u (x^u /\ D^q), hence cyc_q(x)^{phi(u)} = cyc_q(x^u)
    for st, x, q, u in _instances(rng, N_INSTANCES):
        phi = TransportContext(x, q).push(u)
        assert x.meet_delta(q) * phi == u * x.conj(u).meet_delta(q), (x, q, u)
        assert cyc_q(x, q)[0].conj(phi) == cyc_q(x.conj(u), q)[0]


def test_push_fixes_delta_powers(rng):
    for st, x, q, _ in _instances(rng, 300):
        d = delta_power(st, rng.randint(-3, 3))
        assert TransportContext(x, q).push(d) == d


def test_push_monotone(rng):
    for st, x, q, u in _instances(rng, N_INSTANCES):
        bigger = simple_element(
            st, st.join(u.factors[0] if u.factors else st.identity, random_simple(rng, st.n)), u.power
        )
        assert u.divides(bigger)
        ctx = TransportContext(x, q)
        assert ctx.push(u).divides(ctx.push(bigger))


def test_push_meet_morphism(rng):
    # phi(u /\ v) = phi(u) /\ phi(v) for same-power simple shapes
    from oracles import general_meet

    for st, x, q, u in _instances(rng, N_INSTANCES):
        v = simple_element(st, random_simple(rng, st.n), u.power)
        ctx = TransportContext(x, q)
        assert ctx.push(general_meet(u, v)) == general_meet(ctx.push(u), ctx.push(v))


def test_push_bounds(rng):
    # inf u <= inf phi(u); and sup phi(u) <= sup u (the sup-side bound
    # holds with sup u on the right, not inf u)
    for st, x, q, u in _instances(rng, 600):
        phi = TransportContext(x, q).push(u)
        assert u.inf <= phi.inf
        assert phi.sup <= u.sup


def test_pull_adjoint(rng):
    # pi(u) divides v  <=>  inf u <= inf v and u divides phi(v)
    for st, x, q, u in _instances(rng, N_INSTANCES, interior_only=True):
        ctx = TransportContext(x, q)
        v = simple_element(st, random_simple(rng, st.n), rng.choice([-1, 0, 1]))
        assert ctx.pull(u).divides(v) == (u.inf <= v.inf and u.divides(ctx.push(v)))


def test_pull_fixes_delta_powers_and_monotone(rng):
    for st, x, q, u in _instances(rng, 600, interior_only=True):
        ctx = TransportContext(x, q)
        d = delta_power(st, rng.randint(-3, 3))
        assert ctx.pull(d) == d
        bigger = simple_element(
            st, st.join(u.factors[0] if u.factors else st.identity, random_simple(rng, st.n)), u.power
        )
        assert ctx.pull(u).divides(ctx.pull(bigger))


def test_pull_bounds(rng):
    for st, x, q, u in _instances(rng, 600, interior_only=True):
        pi = TransportContext(x, q).pull(u)
        assert u.inf <= pi.inf
        assert pi.sup <= u.sup


def test_push_pull_round_trips(rng):
    # u divides phi(pi(u)); and if inf phi(v) = inf v then pi(phi(v)) divides v
    for st, x, q, u in _instances(rng, N_INSTANCES, interior_only=True):
        ctx = TransportContext(x, q)
        assert u.divides(ctx.push(ctx.pull(u)))
        v = u
        phi = ctx.push(v)
        if phi.inf == v.inf:
            assert ctx.pull(phi).divides(v)


def test_push_injective_on_same_conjugate(rng):
    # x^u = x^v and phi(u) = phi(v) force u = v: exhaustive over small ranges
    st = braid_structure(3)
    x = parse_word("1 1", 3)
    simples = [st.as_simple(t) for t in itertools.permutations(range(3))]
    for q in range(x.inf, x.sup + 1):
        ctx = TransportContext(x, q)
        seen = {}
        for m in (0, 1):
            for tab in simples:
                u = simple_element(st, tab, m)
                sig = (x.conj(u), ctx.push(u))
                assert seen.setdefault(sig, u) == u, (sig, u)


def test_low_order_dominance(rng):
    # for q <= inf x: tau^{-q} phi(u) divides u, equality iff inf x^u >= q;
    # for q >= sup x: phi(u) divides u, equality iff sup x^u <= q
    for st, x, _, u in _instances(rng, N_INSTANCES):
        q_lo = x.inf - rng.randint(0, 2)
        phi = TransportContext(x, q_lo).push(u)
        t = phi.tau_pow(-q_lo)
        assert t.divides(u)
        assert (t == u) == (x.conj(u).inf >= q_lo)

        q_hi = x.sup + rng.randint(0, 2)
        phi = TransportContext(x, q_hi).push(u)
        assert phi.divides(u)
        assert (phi == u) == (x.conj(u).sup <= q_hi)


def test_recursion_matches_definitional(rng):
    # the factor-chain evaluation equals the defining formulas exactly, at
    # every order from inf x to sup x and for D^m * simple arguments
    checked = 0
    while checked < 500:
        n = rng.choice([3, 4])
        st = braid_structure(n)
        x = random_element(rng, n, max_len=4, min_len=1, min_power=-1, max_power=1)
        u = simple_element(st, random_simple(rng, n), rng.choice([-1, 0, 1]))
        for k in range(x.clen + 1):
            ctx = TransportContext(x, x.inf + k)
            assert ctx.push(u) == phi_definitional(x, ctx.q, u), (x, k, u)
            assert ctx.pull(u) == pi_definitional(x, ctx.q, u), (x, k, u)
            checked += 1


def test_transport_argument_validation():
    st = braid_structure(3)
    x = parse_word("1 1", 3)
    with pytest.raises(ValueError):
        TransportContext(x, x.inf + 3).pull(simple_element(st, st.atoms[0]))
    with pytest.raises(ValueError):
        TransportContext(x, 1).push(x)  # canonical length 2
    # outside [inf x, sup x] too, where push has a closed form
    for q in (x.inf - 1, x.sup + 1):
        with pytest.raises(ValueError):
            TransportContext(x, q).push(x)
    ident = identity_element(st)
    assert TransportContext(x, 1).push(ident) == ident


def test_transport_context_is_frozen():
    # a context is shared as a value: it holds x and q only, and neither
    # can be reassigned after it is built
    x = parse_word("1 2 2 1 2", 3)
    ctx = TransportContext(x, 1)
    assert [f.name for f in dataclasses.fields(ctx)] == ["x", "q"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.q = 5
    assert (ctx.x, ctx.q) == (x, 1)


def test_transport_rejects_other_structures():
    # as products and divides do, at every order: below inf x and above
    # sup x, where push has closed forms, and inside, where the factor
    # chains would index the tables of another strand count
    x = parse_word("1 2 3 1 2", 4)
    assert (x.inf, x.sup) == (0, 1)
    for n in (3, 5):
        for u in (parse_word("1", n), delta_power(braid_structure(n), 1)):
            for q in range(x.inf - 1, x.sup + 2):
                ctx = TransportContext(x, q)
                for fn in (ctx.push, ctx.pull):
                    with pytest.raises(ValueError, match="different structures"):
                        fn(u)


def test_closure_requires_recurrence():
    # the trajectory closure is where a key element's orbits are decided,
    # so it is what raises on a start off its closed orbits
    x = parse_word("2 1 1", 3)  # not order-1 recurrent
    assert not in_recurrence_set(x, 1)
    with pytest.raises(NotRecurrentError):
        cycling._closure_trajectory(x, recurrence_orders("star", x), identity_element(x.struct))


def test_orbit_transport_delta_powers(rng):
    for _ in range(60):
        x = cstar_representative(random_element(rng, rng.choice([3, 4]))).element
        st = x.struct
        q = rng.randint(x.inf, x.sup)
        d = as_pair(delta_power(st, rng.randint(-2, 2)))
        ot = OrbitTransport(orbit_of(x, q), q)
        assert ot.push_around(d) == d
        assert ot.pull_around(d) == d


def test_orbit_push_recurrence_characterization(rng):
    # x^u order-q recurrent <=> iterated orbit pushforward returns to u
    checked = 0
    while checked < 120:
        x = cstar_representative(random_element(rng, 3, max_len=3)).element
        st = x.struct
        if x.clen == 0:
            continue
        q = rng.randint(x.inf, x.sup)
        ot = OrbitTransport(orbit_of(x, q), q)
        u = simple_element(st, random_simple(rng, 3), rng.choice([0, 1]))
        recurrent = in_recurrence_set(x.conj(u), q)
        u = as_pair(u)
        seen = {u}
        cur = u
        returned = False
        for _ in range(200):
            cur = ot.push_around(cur)
            if cur == u:
                returned = True
                break
            if cur in seen:
                break
            seen.add(cur)
        assert returned == recurrent, (x, q, u)
        checked += 1


def test_orbit_pull_then_push_domination(rng):
    # with pullback-recurrent u dominated by v, some pushforward iterate of
    # v dominates u again
    checked = 0
    while checked < 60:
        x = cstar_representative(random_element(rng, 3, max_len=3)).element
        st = x.struct
        if x.clen == 0:
            continue
        q = rng.randint(x.inf, x.sup)
        ot = OrbitTransport(orbit_of(x, q), q)
        u = as_pair(simple_element(st, random_simple(rng, 3)))
        seen = {u}
        while True:
            u = ot.pull_around(u)
            if u in seen:
                break
            seen.add(u)
        v = simple_element(st, st.join(u[1], random_simple(rng, 3)), u[0])
        u = as_element(st, u)
        assert u.divides(v)
        cur, ok = as_pair(v), False
        for _ in range(300):
            cur = ot.push_around(cur)
            if u.divides(as_element(st, cur)):
                ok = True
                break
        assert ok, (x, q, u, v)
        checked += 1


def test_mu_minimality_exhaustive(rng):
    # minimal conjugator certified against brute force over all simples and
    # small D-shifts, for short elements of B_3 and B_4
    checked = 0
    while checked < 25:
        n = rng.choice([3, 4])
        st = braid_structure(n)
        x = cstar_representative(random_element(rng, n, max_len=3)).element
        if x.clen == 0:
            continue
        u = simple_element(st, random_simple(rng, n))
        v = minimal_conjugator(star_transports(x), u)
        z = x.conj(v)
        assert u.divides(v)
        assert (z.inf, z.sup) == (x.inf, x.sup)
        assert all(in_recurrence_set(z, q) for q in range(z.inf, z.sup + 1))
        for m in (0, 1):
            for tab in itertools.permutations(range(n)):
                cand = simple_element(st, st.as_simple(tab), m)
                if not u.divides(cand) or v.divides(cand):
                    continue
                zz = x.conj(cand)
                in_star = (zz.inf, zz.sup) == (x.inf, x.sup) and all(
                    in_recurrence_set(zz, q) for q in range(zz.inf, zz.sup + 1)
                )
                assert not in_star, (x, u, v, cand)
        checked += 1


def test_mu_trivial_cases(rng):
    for _ in range(40):
        x = cstar_representative(random_element(rng, rng.choice([3, 4]))).element
        st = x.struct
        transports = star_transports(x)
        assert minimal_conjugator(transports, identity_element(st)) == identity_element(st)
        # if x^u is already everywhere-recurrent with summit bounds, the
        # minimal conjugator above u is u
        u = delta_power(st, rng.randint(-1, 1))
        assert minimal_conjugator(transports, u) == u


def test_shared_orbit_transports_match_fresh(rng):
    # a seed step minimises every atom against one shared transport list;
    # each answer must equal the one from a freshly built list
    checked = 0
    while checked < 16:
        n = rng.choice([3, 4, 5, 6])
        st = braid_structure(n)
        x = cstar_representative(random_element(rng, n, max_len=3)).element
        if x.clen == 0:
            continue
        for kind in ("super", "ultra", "star"):
            orders = recurrence_orders(kind, x)
            # the seed step relies on ascending orders without repeats, and
            # the trajectory closure reads its bounds off the two ends
            assert all(a < b for a, b in zip(orders, orders[1:])), (x, kind, orders)
            assert orders[0] == x.inf and orders[-1] == x.sup, (x, kind, orders)
            shared = transports_of(x, orders)
            for atom in st.atoms:
                u = simple_element(st, atom)
                fresh = transports_of(x, orders)
                assert minimal_conjugator(shared, u) == minimal_conjugator(fresh, u), (x, kind, atom)
        checked += 1


def test_seed_trajectories_on_delta_powers(monkeypatch):
    # Delta powers form singleton refined summit sets; the covering
    # contract still holds: every seed reproduces the trajectory {x}.  In
    # B_2 the one atom is D, which the sweep must get as the pair (1, 1)
    sweep = transport.minimal_recurrent_conjugator

    def checked(transports, u, stop):
        assert u[1] != transports[0].x.struct.delta, u
        return sweep(transports, u, stop)

    monkeypatch.setattr(transport, "minimal_recurrent_conjugator", checked)
    for st in (braid_structure(2), braid_structure(3)):
        for k in (0, 1, -2):
            x = delta_power(st, k)
            seeds = seed_trajectories(x, recurrence_orders("star", x))
            assert seeds
            for v, z in seeds:
                assert x.conj(v) == x
                assert trajectory(z).members == (x,)
            assert [t.members for t in c_star(x).trajectories] == [(x,)]


def test_seed_trajectories_cardinality_and_coverage(rng):
    for _ in range(20):
        n = rng.choice([3, 4])
        st = braid_structure(n)
        x = cstar_representative(random_element(rng, n, max_len=3)).element
        seeds = seed_trajectories(x, recurrence_orders("star", x))
        assert len(seeds) <= len(st.atoms)
        for v, z in seeds:
            traj = trajectory(z)
            assert x.conj(v) == z
            assert z in traj.witnesses


def test_seed_trajectories_exclusion_is_safe(rng):
    # dropping the exclusion rule (minimizing every atom) yields a superset
    # of trajectories with the same union of minimal ones
    for _ in range(12):
        n = rng.choice([3, 4])
        st = braid_structure(n)
        x = cstar_representative(random_element(rng, n, max_len=3)).element
        if x.clen == 0:
            continue
        seeds = seed_trajectories(x, recurrence_orders("star", x))
        keys_with_rule = {trajectory(z).key_element for _, z in seeds}
        transports = star_transports(x)

        def mu(u):
            return minimal_conjugator(transports, u)

        all_keys = set()
        for atom in st.atoms:
            v = mu(simple_element(st, atom))
            all_keys.add(trajectory(x.conj(v)).key_element)
        assert keys_with_rule <= all_keys
        # every trajectory reached by a minimal simple conjugator is kept:
        # the survivors cover the dropped atoms' minimal trajectories
        for atom in st.atoms:
            v = mu(simple_element(st, atom))
            if v.clen <= 1 and v.power == 0:  # v simple: a candidate minimal element
                is_minimal = True
                for other in st.atoms:
                    w = mu(simple_element(st, other))
                    if w != v and w.divides(v):
                        is_minimal = False
                if is_minimal:
                    assert trajectory(x.conj(v)).key_element in keys_with_rule


class _ContractBraidStructure(BraidStructure):
    """B_n whose mul and left_quotient fail outside the GarsideStructure contract."""

    def mul(self, a, b):
        out = super().mul(a, b)
        assert self.norm(a) + self.norm(b) == self.norm(out), ("product exceeds D", a, b)
        return out

    def left_quotient(self, a, b):
        # the inverse table is no simple, so compose it with the unchecked mul
        out = BraidStructure.mul(self, self.inverse_table(a), b)
        assert self.norm(a) + self.norm(out) == self.norm(b), ("no left divisor", a, b)
        return out


def test_summit_sets_keep_the_simple_product_contract(rng):
    # generic code may multiply simples only when the product divides D and
    # divide only by a left divisor; the pullback used to break the first
    for _ in range(15):
        n = rng.choice([3, 4, 5])
        st = _ContractBraidStructure(n)
        word = [random_simple(rng, n) for _ in range(rng.randint(1, 3))]
        x = normalize(st, rng.randint(-1, 1), word)
        for ss in (c_star(x), ultra_summit_set(x)):
            assert ss.verify_witnesses()


def test_seeded_transports_reuse_the_closure_orbits(rng, monkeypatch):
    # the seed step of a key element builds its transport at every order
    # from the very orbit its trajectory's closure returned; each must hold
    # the same orbit elements, in the same order, as the closed orbit that
    # cycling from scratch walks
    built, returned = [], []

    class RecordingOrbitTransport(OrbitTransport):
        def __init__(self, orbit, q):
            super().__init__(orbit, q)
            built.append(self)

    def recording_closure(seed, orders, conj):
        traj, orbits = cycling._closure_trajectory(seed, orders, conj)
        assert sorted(orbits) == list(orders), (seed, orders)
        returned.extend(orbits.values())
        return traj, orbits

    monkeypatch.setattr(transport, "OrbitTransport", RecordingOrbitTransport)
    monkeypatch.setattr(summit, "_closure_trajectory", recording_closure)
    for _ in range(24):
        n = rng.choice([4, 5, 6, 7])
        x = random_element(rng, n, max_len=3)
        for ss in (ultra_summit_set(x), c_star(x)):
            assert ss.verify_witnesses()
    assert sum(ot.x.inf < ot.q < ot.x.sup for ot in built) >= 10
    assert sum(ot.q in (ot.x.inf, ot.x.sup) for ot in built) >= 10
    # the returned orbits are all kept alive, so their ids are distinct
    ids = {id(orbit) for orbit in returned}
    for ot in built:
        assert id(ot.orbit) in ids, (ot.x, ot.q)
        assert ot.orbit == orbit_of(ot.x, ot.q), (ot.x, ot.q)


def test_transport_sweep_divides_short_elements(rng, monkeypatch):
    # the domination test of the pushforward sweep runs on (power, simple)
    # pairs, with at most one meet; on every pair it sees it must answer as
    # CanonicalElement.divides does on the elements the pairs stand for
    original = transport._dominates
    answers = []

    def spy(s, entering, cur):
        out = original(s, entering, cur)
        assert out == as_element(s, entering).divides(as_element(s, cur)), (entering, cur)
        answers.append(out)
        return out

    monkeypatch.setattr(transport, "_dominates", spy)
    for _ in range(12):
        n = rng.choice([4, 5, 6, 7])
        x = random_element(rng, n, max_len=3, min_len=1)
        for ss in (ultra_summit_set(x), c_star(x)):
            assert ss.verify_witnesses()
    assert len(answers) >= 100
    # the sweep stops at its first dominating iterate, so it may see no
    # pair that fails the test: compare every pair of B_4 as well
    st = braid_structure(4)
    pairs = [as_pair(simple_element(st, st.as_simple(t), m))
             for m in (-1, 0, 1) for t in itertools.permutations(range(4))]
    for a in pairs:
        for b in pairs:
            assert original(st, a, b) == as_element(st, a).divides(as_element(st, b)), (a, b)


@hs.composite
def sweep_cases(draw):
    """A refined-summit element of B_3..B_8, from a word of D-power -1..1, and a summit kind."""
    rng = draw(hs.randoms(use_true_random=False))
    x = random_element(rng, draw(hs.integers(3, 8)), max_len=3, min_power=-1, max_power=1)
    return cstar_representative(x).element, draw(hs.sampled_from(["super", "ultra", "star"]))


@settings(max_examples=200, deadline=None)
@given(sweep_cases())
def test_pair_sweep_matches_the_element_oracle(case):
    # the sweep on (power, simple) pairs against the same sweep on
    # elements, for D^m times every atom with m in -1..1, and the seed
    # step's (v, x^v) list with atom exclusion on
    x, kind = case
    st = x.struct
    orders = recurrence_orders(kind, x)
    transports = transports_of(x, orders)
    orbits = element_orbits(x, kind)
    for m in (-1, 0, 1):
        for atom in st.atoms:
            u = simple_element(st, atom, m)
            expected = minimal_conjugator_by_elements(orbits, u)
            assert minimal_conjugator(transports, u) == expected, (x, kind, u)
    assert seed_trajectories(x, orders) == seed_trajectories_by_elements(x, kind)


@settings(max_examples=60, deadline=None)
@given(sweep_cases())
def test_sweep_stop_predicate(case):
    # a stop predicate that never fires is asked about every iterate and
    # lets the sweep answer a pair above u; one that fires on the first
    # iterate it is asked about ends the sweep there with None
    x, kind = case
    st = x.struct
    transports = transports_of(x, recurrence_orders(kind, x))
    for atom in st.atoms:
        u = (0, atom)
        asked = []

        def never(pair):
            asked.append(pair)
            return False

        def first(pair):
            asked.append(pair)
            return True

        v = minimal_recurrent_conjugator(transports, u, never)
        assert v is not None and transport._dominates(st, u, v), (x, kind, u, v)
        assert asked
        asked.clear()
        assert minimal_recurrent_conjugator(transports, u, first) is None, (x, kind, u)
        assert len(asked) == 1


@settings(max_examples=60, deadline=None)
@given(hs.integers(0, 2**32 - 1), hs.integers(3, 9))
def test_rigid_seed_on_the_ultra_orders_matches_the_all_orders_oracle(seed, n):
    # the refined summit closure of a rigid element of canonical length
    # >= 3 seeds on the ultra orders, three of its more than three; the
    # (v, x^v) list, order included, must be the all-orders sweep's on
    # elements.  A seeded generator, since drawing until an element is
    # rigid takes many draws
    y = trajectory(random_rigid_element(random.Random(seed), n, max_len=5, min_clen=3)).key_element
    orders = recurrence_orders("ultra", y)
    assert is_rigid(y) and len(orders) < len(recurrence_orders("star", y))
    _, orbits = cycling._closure_trajectory(y, orders, identity_element(y.struct))
    seeds = transport._seed_trajectories(y, orders, orbits, every_atom(y.struct))
    assert seeds == seed_trajectories_by_elements(y, "star"), y


def test_boundary_orbits_take_the_closed_form(rng, monkeypatch):
    # the trajectory closure returns its key element's orbit at inf, the
    # tau^inf-orbit, and at sup, the fixed point, with no cycling step at
    # either order; they list the elements that cycling walks.  At
    # inf = sup the tau^inf-orbit is the one returned
    def interior_only(y, q):
        assert y.inf < q < y.sup, f"cycled {y} at the boundary order {q}"
        return cyc_q(y, q)

    b2, b4 = braid_structure(2), braid_structure(4)
    assert b2.order_of_tau == 1
    tau_fixed = [parse_word("2", 4), parse_word("1 3 1 3", 4), delta_power(b4, 1) * parse_word("2", 4)]
    assert all(x.tau_pow(1) == x for x in tau_fixed)
    xs = [parse_word("1 1 1", 2), parse_word("-1", 2), delta_power(b2, 3)]
    xs += tau_fixed + [delta_power(b4, k) for k in (-2, 0, 1)] + [identity_element(b4)]
    xs += [random_element(rng, rng.randint(2, 6), max_len=3) for _ in range(40)]
    assert any(x.clen == 0 for x in xs) and any(x.tau_pow(1) != x for x in xs)
    keys = []
    for x in xs:
        y = cstar_representative(x).element
        for orders in (sorted({y.inf, y.sup}), recurrence_orders("star", y)):
            with monkeypatch.context() as patch:
                patch.setattr(cycling, "cyc_q", interior_only)
                traj, orbits = cycling._closure_trajectory(y, orders, identity_element(y.struct))
            key = traj.key_element
            keys.append(key)
            assert sorted(orbits) == orders, (y, orders)
            for q in {y.inf, y.sup}:
                assert orbits[q] == orbit_of(key, q), (key, q)
    assert any(k.clen == 0 for k in keys) and any(k.tau_pow(k.inf) != k for k in keys)


def test_orbit_walk_from_a_start_that_is_not_recurrent():
    # a recorded step map whose walk from the start enters a cycle that
    # misses it: the walk raises instead of looping
    a, b, c = (parse_word(w, 4) for w in ("1", "2", "3"))
    with pytest.raises(NotRecurrentError):
        cycling._walk_orbit(a, {a: b, b: c, c: b})
    assert cycling._walk_orbit(a, {a: b, b: c, c: a}) == (a, b, c)
    assert cycling._walk_orbit(a, {a: a}) == (a,)

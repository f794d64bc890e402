"""Pushforward/pullback identities, the factor-chain calculus, minimal conjugators."""

import itertools
import random

import pytest

from garside.braid import BraidStructure, braid_structure, parse_word, random_simple
from garside.core import delta_power, identity_element, normalize, simple_element
from garside.cycling import (
    NotRecurrentError,
    cstar_representative,
    in_recurrence_set,
    recurrence_orders,
)
from garside.summit import c_star, ultra_summit_set
from garside.transport import (
    OrbitTransport,
    TransportContext,
    minimal_recurrent_conjugator,
    mu,
    seed_trajectories,
)

from conftest import random_element
from oracles import phi_definitional, pi_definitional

N_INSTANCES = 1100


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
    from garside.cycling import cyc_q

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
    simples = list(itertools.permutations(range(3)))
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
    ident = identity_element(st)
    assert TransportContext(x, 1).push(ident) == ident


def test_orbit_transport_requires_recurrence():
    x = parse_word("2 1 1", 3)  # not order-1 recurrent
    with pytest.raises(NotRecurrentError):
        OrbitTransport(x, 1)


def test_orbit_transport_delta_powers(rng):
    for _ in range(60):
        x = cstar_representative(random_element(rng, rng.choice([3, 4]))).element
        st = x.struct
        q = rng.randint(x.inf, x.sup)
        d = delta_power(st, rng.randint(-2, 2))
        ot = OrbitTransport(x, q)
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
        ot = OrbitTransport(x, q)
        u = simple_element(st, random_simple(rng, 3), rng.choice([0, 1]))
        recurrent = in_recurrence_set(x.conj(u), q)
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
        ot = OrbitTransport(x, q)
        u = simple_element(st, random_simple(rng, 3))
        seen = {u}
        while True:
            u = ot.pull_around(u)
            if u in seen:
                break
            seen.add(u)
        su = u.factors[0] if u.factors else st.identity
        v = simple_element(st, st.join(su, random_simple(rng, 3)), u.power)
        assert u.divides(v)
        cur, ok = v, False
        for _ in range(300):
            cur = ot.push_around(cur)
            if u.divides(cur):
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
        v = mu(x, u)
        z = x.conj(v)
        assert u.divides(v)
        assert (z.inf, z.sup) == (x.inf, x.sup)
        assert all(in_recurrence_set(z, q) for q in range(z.inf, z.sup + 1))
        for m in (0, 1):
            for tab in itertools.permutations(range(n)):
                cand = simple_element(st, tab, m)
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
        assert mu(x, identity_element(st)).is_identity
        # if x^u is already everywhere-recurrent with summit bounds, mu(u) = u
        u = delta_power(st, rng.randint(-1, 1))
        assert mu(x, u) == u


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
        for kind in ("ultra", "star"):
            orders = sorted(set(recurrence_orders(kind, x)))
            shared = [OrbitTransport(x, q) for q in orders]
            for atom in st.atoms:
                u = simple_element(st, atom)
                fresh = [OrbitTransport(x, q) for q in orders]
                assert minimal_recurrent_conjugator(shared, u) == \
                    minimal_recurrent_conjugator(fresh, u), (x, kind, atom)
        checked += 1


def test_seed_trajectories_on_delta_powers():
    # Delta powers form singleton refined summit sets; the covering
    # contract still holds: every seed reproduces the trajectory {x}
    st = braid_structure(3)
    for k in (0, 1, -2):
        x = delta_power(st, k)
        seeds = seed_trajectories(x)
        assert seeds
        for v, t in seeds:
            assert x.conj(v) == x
            assert t.members == (x,)


def test_seed_trajectories_cardinality_and_coverage(rng):
    for _ in range(20):
        n = rng.choice([3, 4])
        st = braid_structure(n)
        x = cstar_representative(random_element(rng, n, max_len=3)).element
        seeds = seed_trajectories(x)
        assert len(seeds) <= len(st.atoms)
        for v, traj in seeds:
            assert x.conj(v) == traj.seed
            assert traj.seed in traj.witnesses


def test_seed_trajectories_exclusion_is_safe(rng):
    # dropping the exclusion rule (minimizing every atom) yields a superset
    # of trajectories with the same union of minimal ones
    from garside.cycling import trajectory as full_trajectory

    for _ in range(12):
        n = rng.choice([3, 4])
        st = braid_structure(n)
        x = cstar_representative(random_element(rng, n, max_len=3)).element
        if x.clen == 0:
            continue
        seeds = seed_trajectories(x)
        keys_with_rule = {t.key_element for _, t in seeds}
        all_keys = set()
        for atom in st.atoms:
            v = mu(x, simple_element(st, atom))
            all_keys.add(full_trajectory(x.conj(v)).key_element)
        assert keys_with_rule <= all_keys
        # every trajectory reached by a minimal simple conjugator is kept:
        # the survivors cover the dropped atoms' minimal trajectories
        for atom in st.atoms:
            v = mu(x, simple_element(st, atom))
            if v.clen <= 1 and v.power == 0:  # v simple: a candidate minimal element
                is_minimal = True
                for other in st.atoms:
                    w = mu(x, simple_element(st, other))
                    if w != v and w.divides(v):
                        is_minimal = False
                if is_minimal:
                    assert full_trajectory(x.conj(v)).key_element in keys_with_rule


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

"""Cycling operations, orbits, representatives and trajectories."""

import random

import pytest

from garside.braid import braid_structure, parse_word, random_simple
from garside.core import delta_power, identity_element, normalize, simple_element
from garside.cycling import (
    NotRecurrentError,
    cmn_star_representative,
    cstar_representative,
    cyc,
    cyc_pq,
    cyc_q,
    dec,
    in_recurrence_set,
    in_recurrence_set_pq,
    recurrent_representative,
    trajectory,
)
from garside.summit import summit_bounds

from conftest import random_element


def test_cyc_q_examples():
    st = braid_structure(3)
    x = parse_word("2 1 1", 3)
    y, c = cyc_q(x, 1)
    assert y == delta_power(st, 1)
    assert c == parse_word("2 1", 3)
    assert x.conj(c) == y
    # q at or below inf acts as tau^q
    z = delta_power(st, 1) * x
    for q in (-2, 0, 1):
        yq, cq = cyc_q(z, q)
        assert yq == z.tau_pow(q)
        assert cq == delta_power(st, q)
    # q at or above sup does nothing
    for q in (x.sup, x.sup + 3):
        yq, cq = cyc_q(x, q)
        assert yq == x and cq == x


def test_cyc_q_matches_definition_and_rotation(rng):
    # suffix times prefix must agree with conjugation by x /\ D^q, and the
    # interior case with the normalised rotated word; the long B_10/B_20
    # forms let the slide at the junction run across several factors
    for count, sizes, max_len in ((250, [3, 4, 5], 4), (30, [10, 20], 10)):
        for _ in range(count):
            n = rng.choice(sizes)
            st = braid_structure(n)
            x = random_element(rng, n, max_len=max_len)
            for q in range(x.inf - 1, x.sup + 2):
                y, c = cyc_q(x, q)
                assert c == x.meet_delta(q)
                assert y == x.conj(c)
                if x.inf < q < x.sup:
                    k = q - x.inf
                    rotated = normalize(
                        st,
                        x.power,
                        [st.tau_pow(f, x.power) for f in x.factors[k:]] + list(x.factors[:k]),
                    )
                    assert y == rotated


def test_cyc_q_monotone_bounds_and_tau_commutes(rng):
    for _ in range(200):
        x = random_element(rng, rng.choice([3, 4]))
        for q in range(x.inf - 1, x.sup + 2):
            y, _ = cyc_q(x, q)
            assert x.inf <= y.inf and y.sup <= x.sup
            assert cyc_q(x.tau_pow(1), q)[0] == cyc_q(x, q)[0].tau_pow(1)


def test_cyc_dec_examples():
    st = braid_structure(3)
    x = parse_word("2 1 1", 3)
    assert cyc(x) == delta_power(st, 1)
    assert dec(x) == delta_power(st, 1)
    assert cyc(delta_power(st, 4)) == delta_power(st, 4)
    assert dec(delta_power(st, -2)) == delta_power(st, -2)


def test_cyc_dec_formulas(rng):
    # classical cycling moves the first factor to the back (tau-shifted);
    # decycling moves the last to the front
    for _ in range(150):
        x = random_element(rng, rng.choice([3, 4]), min_len=1)
        if x.clen == 0:
            continue
        st = x.struct
        p, fs = x.power, x.factors
        expected_cyc = normalize(st, p, list(fs[1:]) + [st.tau_pow(fs[0], -p)])
        assert cyc(x) == expected_cyc
        expected_dec = normalize(st, p, [st.tau_pow(fs[-1], p)] + list(fs[:-1]))
        assert dec(x) == expected_dec


def test_cyc_pq_examples_and_power_identity(rng):
    st = braid_structure(3)
    e1 = simple_element(st, st.atoms[0])
    y, c = cyc_pq(e1, 2, 1)
    assert c == e1 and y == e1
    for _ in range(120):
        x = random_element(rng, rng.choice([3, 4]), max_len=3)
        for p in (1, 2, 3):
            for q in range((x ** p).inf - 1, (x ** p).sup + 2):
                y, c = cyc_pq(x, p, q)
                assert c == (x ** p).meet_delta(q)
                assert cyc_q(x ** p, q)[0] == y ** p
        for q in range(x.inf - 1, x.sup + 2):
            assert cyc_pq(x, 1, q) == cyc_q(x, q)


def test_recurrent_representative():
    st = braid_structure(3)
    x = parse_word("1 1", 3)
    rec = recurrent_representative(x, 1)
    assert rec.entry_index == 0 and rec.orbit_length == 1
    assert in_recurrence_set(x, 1)

    x = parse_word("2 1 1", 3)
    rec = recurrent_representative(x, 1)
    assert rec.recurrent_element == delta_power(st, 1)
    assert x.conj(rec.witness) == rec.recurrent_element

    # q outside (inf, sup) is recurrent immediately
    y = random_element(random.Random(1), 4, min_len=1)
    assert in_recurrence_set(y, y.inf)
    assert in_recurrence_set(y, y.sup)
    assert in_recurrence_set(y, y.inf - 3)
    assert in_recurrence_set(y, y.sup + 3)


def test_orbit_record_chain(rng):
    for _ in range(60):
        x = random_element(rng, rng.choice([3, 4]))
        q = rng.randint(x.inf, x.sup)
        rec = recurrent_representative(x, q)
        for i, c in enumerate(rec.conjugators[:-1]):
            assert rec.elements[i].conj(c) == rec.elements[i + 1]
        last = rec.elements[-1].conj(rec.conjugators[-1])
        assert last == rec.elements[rec.entry_index]


def test_not_in_recurrence_set_between_inf_and_summit_inf(rng):
    # elements on closed order-q orbits never have inf < q <= summit inf
    # nor summit sup <= q < sup
    checked = 0
    while checked < 60:
        x = random_element(rng, rng.choice([3, 4]), min_len=1)
        lo, hi = summit_bounds(x)
        for q in range(x.inf + 1, lo + 1):
            assert not in_recurrence_set(x, q), (x, q)
            checked += 1
        for q in range(hi, x.sup):
            assert not in_recurrence_set(x, q), (x, q)
            checked += 1
        checked += 1


def test_summit_reach_bound(rng):
    # if inf x < q <= summit inf, then ||D||-1 cyclings of order q reach inf >= q;
    # dually for sup
    found = 0
    while found < 40:
        n = rng.choice([3, 4, 5])
        x = random_element(rng, n, min_len=1)
        st = x.struct
        lo, hi = summit_bounds(x)
        if x.inf < lo:
            q = rng.randint(x.inf + 1, lo)
            y = x
            for _ in range(st.delta_norm - 1):
                y = cyc_q(y, q)[0]
            assert y.inf >= q, (x, q, y)
            found += 1
        if x.sup > hi:
            q = rng.randint(hi, x.sup - 1)
            y = x
            for _ in range(st.delta_norm - 1):
                y = cyc_q(y, q)[0]
            assert y.sup <= q, (x, q, y)
            found += 1


def test_cstar_representative():
    st = braid_structure(3)
    w = cstar_representative(delta_power(st, 7))
    assert w.element == delta_power(st, 7) and w.witness.is_identity

    w = cstar_representative(parse_word("2 1 1", 3))
    assert w.element == delta_power(st, 1)
    assert w.verify()

    x = parse_word("1 1", 3)
    w = cstar_representative(x)
    assert w.element == x


def test_cstar_representative_is_everywhere_recurrent(rng):
    for _ in range(50):
        x = random_element(rng, rng.choice([3, 4, 5]))
        w = cstar_representative(x)
        assert w.verify()
        # C_{1,q} = C_q: the double-order sweep at p = 1 is the same sweep
        assert cmn_star_representative(x, 1, 1) == w
        y = w.element
        for q in range(y.inf, y.sup + 1):
            assert in_recurrence_set(y, q)
        # summit bounds are conjugacy invariants reached by the sweep
        w2 = cstar_representative(x.conj(random_element(rng, x.struct.n, max_len=2)))
        assert (w2.element.inf, w2.element.sup) == (y.inf, y.sup)


def test_trajectory_examples():
    st = braid_structure(3)
    t = trajectory(delta_power(st, 1))
    assert len(t) == 1 and t.key_element == delta_power(st, 1)

    x = parse_word("1 1", 3)
    t = trajectory(x)
    assert {m.key() for m in t.members} >= {x.key(), parse_word("2 2", 3).key()}
    assert len({(m.inf, m.sup) for m in t.members}) == 1
    for m in t.members:
        assert t.seed.conj(t.witness(m)) == m
    assert t.key_element == min(t.members, key=lambda m: m.key())


def test_trajectory_closed_under_tau_and_cycling(rng):
    for _ in range(25):
        x = cstar_representative(random_element(rng, rng.choice([3, 4]))).element
        t = trajectory(x)
        members = set(t.members)
        for m in t.members:
            assert m.tau_pow(1) in members
            for q in range(m.inf + 1, m.sup):
                assert cyc_q(m, q)[0] in members


def test_trajectory_rejects_non_recurrent():
    # an element strictly below its summit inf cannot seed a trajectory
    x = parse_word("2 1 1", 3)  # summit bounds (1, 1), inf x = 0
    with pytest.raises(NotRecurrentError):
        trajectory(x)


def test_cmn_star_representative(rng):
    st = braid_structure(3)
    x = parse_word("2 1 1", 3)
    w = cmn_star_representative(x, 1, 1)
    assert w.verify() and w.element == delta_power(st, 1)

    for _ in range(12):
        y = random_element(rng, rng.choice([3, 4]), max_len=2)
        w = cmn_star_representative(y, 1, 2)
        assert w.verify()
        for p in (1, 2):
            zp = w.element ** p
            for q in range(zp.inf, zp.sup + 1):
                assert in_recurrence_set_pq(w.element, p, q)
        # idempotent
        again = cmn_star_representative(w.element, 1, 2)
        assert again.element == w.element
        assert again.witness.is_identity


def test_cmn_star_on_rigid_returns_input(rng):
    from garside.rigid import is_rigid

    found = 0
    while found < 8:
        x = random_element(rng, rng.choice([3, 4]), min_len=1, min_power=0, max_power=1)
        if not is_rigid(x):
            continue
        found += 1
        w = cmn_star_representative(x, -2, 3)
        assert w.element == x and w.witness.is_identity

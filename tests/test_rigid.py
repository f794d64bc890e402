"""Rigidity, stable exponents, rigid powers and the rigid summit set."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from garside.braid import braid_structure, parse_word, random_simple
from garside.core import delta_power, identity_element, normalize, simple_element
from garside.cycling import closed_orbit, cyc_pq, cyc_q
from garside.rigid import c_star_star_rigid, is_rigid, rigid_power, stable_exponents
from garside.summit import c_star, summit_bounds

from conftest import random_element, random_rigid_element
from oracles import cstar_summit_bounds, is_rigid_by_squaring, nontrivial_simples, rigid_power_by_walking


def random_rigid(rng, max_n=4, max_len=3):
    while True:
        n = rng.choice(range(3, max_n + 1))
        x = random_element(rng, n, max_len=max_len, min_len=1, min_power=0, max_power=1)
        if is_rigid(x):
            return x


def test_is_rigid_examples():
    st = braid_structure(3)
    assert is_rigid(parse_word("1", 3))
    assert not is_rigid(parse_word("1 2", 3))
    for k in (-2, 0, 1, 5):
        assert not is_rigid(delta_power(st, k))


@hs.composite
def rigidity_cases(draw):
    """
    Normal forms of B_2..B_8 with power -4..4 and 0..4 simples, half of
    them words of one repeated simple, which are rigid more often.
    """
    n = draw(hs.integers(2, 8))
    rng = draw(hs.randoms(use_true_random=False))
    k = draw(hs.integers(0, 4))
    if draw(hs.booleans()):
        word = [random_simple(rng, n)] * k
    else:
        word = [random_simple(rng, n) for _ in range(k)]
    return normalize(braid_structure(n), draw(hs.integers(-4, 4)), word)


@settings(max_examples=400, deadline=None)
@given(rigidity_cases())
@example(identity_element(braid_structure(3)))
@example(delta_power(braid_structure(5), -2))
@example(delta_power(braid_structure(2), 3))
@example(parse_word("1", 3))
@example(parse_word("-1", 4))
def test_is_rigid_matches_squaring(x):
    # one slide of the pair (tau^p(x_l), x_1) against the definition
    assert is_rigid(x) == is_rigid_by_squaring(x)


def test_rigid_elements_are_recurrent_at_every_double_order(rng):
    # the theorem behind the recurrence walk's rigid stop: every rigid x
    # lies on a closed orbit of the (p, q) cycling, for every q the stop
    # covers.  The orbit is the cycling's own, not the walk's, which maps a
    # rigid element to itself
    for _ in range(40):
        x = random_rigid_element(rng, rng.choice([3, 4, 5, 6, 7, 8]), max_len=4)
        for p in (-1, 1, 2, 3):
            xp = x ** p
            for q in range(min(x.inf, xp.inf) - 1, max(x.sup, xp.sup) + 2):
                assert closed_orbit(x, lambda y: cyc_pq(y, p, q)).entry_index == 0, (x, p, q)


def test_rigid_iff_normal_form_survives_one_cycle(rng):
    # x rigid <=> appending tau^{-p}(x_1) to the factors stays left-weighted
    for _ in range(150):
        x = random_element(rng, rng.choice([3, 4]), min_len=1)
        if x.clen == 0:
            continue
        st = x.struct
        extended = list(x.factors) + [st.tau_pow(x.factors[0], -x.power)]
        weighted = all(
            st.meet(st.right_complement(a), b) == st.identity
            for a, b in zip(extended, extended[1:])
        )
        ok = weighted and extended[0] != st.delta and extended[-1] != st.identity
        assert is_rigid(x) == ok, x


def test_powers_of_rigid_are_rigid(rng):
    for _ in range(12):
        x = random_rigid(rng)
        for k in (2, 3, 4):
            assert is_rigid(x ** k), (x, k)


def test_rigid_fixed_shape_under_cycling(rng):
    # cycling a rigid element preserves (inf, sup) and rigidity
    for _ in range(12):
        x = random_rigid(rng)
        for q in range(x.inf - 1, x.sup + 2):
            y = cyc_q(x, q)[0]
            assert (y.inf, y.sup) == (x.inf, x.sup)
            assert is_rigid(y)


def test_rigid_from_rigid_power_with_matching_bounds(rng):
    # if x^m is rigid with inf x^m = m inf x and sup x^m = m sup x, x is rigid
    for _ in range(60):
        x = random_element(rng, rng.choice([3, 4]), min_len=1)
        if x.clen == 0:
            continue
        for m in (2, 3):
            xm = x ** m
            if is_rigid(xm) and xm.inf == m * x.inf and xm.sup == m * x.sup:
                assert is_rigid(x), (x, m)


def test_stable_exponents_examples():
    st = braid_structure(3)
    assert stable_exponents(delta_power(st, 1)) == (1, 1)
    n1, n2 = stable_exponents(parse_word("1", 3))
    assert 0 < n1 <= st.delta_norm and 0 < n2 <= st.delta_norm
    # manual check against the defining maxima for sigma_1 in B_3
    ratios_inf = [Fraction(summit_bounds(parse_word("1", 3) ** n)[0], n) for n in (1, 2, 3)]
    ratios_sup = [Fraction(summit_bounds(parse_word("1", 3) ** n)[1], n) for n in (1, 2, 3)]
    assert n1 == max(ratios_inf).denominator
    assert n2 == min(ratios_sup).denominator


def test_stable_exponents_bounds(rng):
    for _ in range(10):
        x = random_element(rng, rng.choice([3, 4]), max_len=2)
        nd = x.struct.delta_norm
        n1, n2 = stable_exponents(x)
        assert 0 < n1 <= nd and 0 < n2 <= nd
    # the defining maxima, from the refined-summit bounds of every power
    for _ in range(20):
        x = random_element(rng, rng.choice([3, 4, 5]), max_len=2)
        nd = x.struct.delta_norm
        bounds = [cstar_summit_bounds(x ** n) for n in range(1, nd + 1)]
        n1 = max(Fraction(lo, n) for n, (lo, _) in enumerate(bounds, 1)).denominator
        n2 = min(Fraction(hi, n) for n, (_, hi) in enumerate(bounds, 1)).denominator
        assert stable_exponents(x) == (n1, n2), x


def test_rigid_power_on_rigid_inputs(rng):
    for _ in range(8):
        x = random_rigid(rng)
        report = rigid_power(x)
        assert report.is_rigid
        assert 0 < report.power < x.struct.delta_norm ** 2
        assert (x ** report.power).conj(report.witness) == report.rigid_conjugate
        assert is_rigid(report.rigid_conjugate)


def test_rigid_power_of_delta_powers():
    st = braid_structure(3)
    for k in (0, 1, 2):
        report = rigid_power(delta_power(st, k))
        assert not report.is_rigid
        assert report.power is None and report.witness is None


def test_rigid_power_random(rng):
    # verified against independently re-testing rigidity on the report
    for _ in range(8):
        x = random_element(rng, rng.choice([3, 4]), max_len=2)
        report = rigid_power(x)
        if report.is_rigid:
            assert 0 < report.power < x.struct.delta_norm ** 2
            assert (x ** report.power).conj(report.witness) == report.rigid_conjugate
            assert is_rigid(report.rigid_conjugate)


def test_c_star_star_rigid_example():
    st = braid_structure(3)
    css = c_star_star_rigid(parse_word("1", 3))
    assert frozenset(css.members) == {parse_word("1", 3), parse_word("2", 3)}
    assert css.kind == "star_star"
    assert css.verify_witnesses()


def test_c_star_star_rigid_members_all_rigid(rng):
    for _ in range(10):
        x = random_rigid(rng)
        css = c_star_star_rigid(x)
        assert len(css) >= 1
        assert all(is_rigid(m) for m in css.members)
        assert frozenset(css.members) <= frozenset(c_star(x).members)
        assert css.verify_witnesses()


def test_c_star_star_rigid_against_exhaustive(rng):
    # the rigid conjugates found by direct search over the summit box
    for _ in range(6):
        x = random_rigid(rng, max_n=3, max_len=2)
        st = x.struct
        seen = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for tab in nontrivial_simples(st):
                z = y.conj(simple_element(st, tab))
                if (z.inf, z.sup) == (x.inf, x.sup) and z not in seen:
                    seen.add(z)
                    queue.append(z)
        rigid_conjugates = {z for z in seen if is_rigid(z)}
        assert frozenset(c_star_star_rigid(x).members) == rigid_conjugates


def test_c_star_star_rigid_drops_the_members_that_are_not_rigid():
    # at canonical length 1, C*(x) of a rigid x can hold members that are
    # not rigid: here two of its four, which the rigid summit set drops
    x = parse_word("3 4 2 3 1", 5)
    assert is_rigid(x) and x.clen == 1
    assert len(c_star(x)) == 4
    css = c_star_star_rigid(x)
    assert css.members == (x, parse_word("2 3 4 1 2", 5))
    assert css.trajectories is None
    assert css.verify_witnesses()


def test_c_star_star_rigid_rejects_non_rigid():
    with pytest.raises(ValueError):
        c_star_star_rigid(parse_word("1 2", 3))


@settings(max_examples=200, deadline=None)
@given(hs.integers(0, 2**32 - 1), hs.integers(3, 7), hs.integers(1, 3))
def test_rigid_power_matches_the_walk_at_every_length(seed, n, max_len):
    # rigid_power walks only from a representative of canonical length 1;
    # the oracle walks from every representative that is not rigid.  A
    # seeded generator, since a simple of B_7 takes many draws
    x = random_element(random.Random(seed), n, max_len=max_len, min_len=1, min_power=-1, max_power=1)
    report = rigid_power(x)
    assert report == rigid_power_by_walking(x), x
    if report.is_rigid:
        assert (x ** report.power).conj(report.witness) == report.rigid_conjugate
        assert is_rigid_by_squaring(report.rigid_conjugate)

"""Rigidity, stable exponents, rigid powers and the rigid summit set."""

from fractions import Fraction

import pytest

from garside.braid import braid_structure, parse_word
from garside.core import delta_power, simple_element
from garside.cycling import cyc_q
from garside.rigid import c_star_star_rigid, is_rigid, rigid_power, stable_exponents
from garside.summit import c_star, summit_bounds

from conftest import random_element
from oracles import cstar_summit_bounds, nontrivial_simples


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


def test_rigid_iff_normal_form_survives_one_cycle(rng):
    # x rigid <=> appending tau^{-p}(x_1) to the factors stays left-weighted
    for _ in range(150):
        x = random_element(rng, rng.choice([3, 4]), min_len=1)
        if x.clen == 0:
            continue
        st = x.struct
        extended = list(x.factors) + [st.tau_pow(x.factors[0], -x.power)]
        weighted = all(
            st.is_identity(st.meet(st.right_complement(a), b))
            for a, b in zip(extended, extended[1:])
        )
        ok = weighted and not st.is_delta(extended[0]) and not st.is_identity(extended[-1])
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


def test_c_star_star_rigid_rejects_non_rigid():
    with pytest.raises(ValueError):
        c_star_star_rigid(parse_word("1 2", 3))

"""Summit sets of all three kinds, conjugacy decisions, budgets."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from garside import cycling, transport
from garside.braid import braid_structure, parse_word, random_simple
from garside.core import delta_power, identity_element, normalize, simple_element
from garside.cycling import cstar_representative, trajectory
from garside.rigid import stable_exponents
from garside.summit import (
    BudgetExceeded,
    c_star,
    decide_conjugacy,
    summit_bounds,
    summit_set,
    super_summit_set,
    ultra_summit_set,
)

from conftest import random_element
from oracles import conjugation_components, cstar_summit_bounds, summit_members_exhaustive


def test_summit_bounds_examples():
    st = braid_structure(3)
    assert summit_bounds(delta_power(st, 5)) == (5, 5)
    assert summit_bounds(parse_word("2 1 1", 3)) == (1, 1)
    assert summit_bounds(parse_word("1 1", 3)) == (0, 2)


def test_summit_examples():
    st = braid_structure(3)
    assert super_summit_set(delta_power(st, 1)).members == (delta_power(st, 1),)
    assert c_star(delta_power(st, -3)).members == (delta_power(st, -3),)

    x = parse_word("1 1", 3)
    expect = {x, parse_word("2 2", 3)}
    for fn in (super_summit_set, ultra_summit_set, c_star):
        assert frozenset(fn(x).members) == expect

    cs = c_star(parse_word("2 1 1", 3))
    assert cs.members == (delta_power(st, 1),)
    assert cs.infs == cs.sups == 1


def test_members_share_bounds_and_witnesses_verify(rng):
    for _ in range(30):
        x = random_element(rng, rng.choice([3, 4]))
        for kind in ("super", "ultra", "star"):
            ss = summit_set(x, kind)
            assert len(ss) >= 1
            assert all((m.inf, m.sup) == (ss.infs, ss.sups) for m in ss.members)
            assert ss.verify_witnesses()
            assert ss.base == x


def test_inclusion_chain(rng):
    for _ in range(30):
        x = random_element(rng, rng.choice([4, 5]), max_len=3)
        star = c_star(x)
        ultra = ultra_summit_set(x)
        sup = super_summit_set(x)
        assert frozenset(star.members) <= frozenset(ultra.members) <= frozenset(sup.members)
        assert len(star) >= 1


def test_star_members_recurrent_everywhere(rng):
    from garside.cycling import in_recurrence_set

    for _ in range(15):
        x = random_element(rng, rng.choice([3, 4]), max_len=3)
        for m in c_star(x).members:
            assert all(in_recurrence_set(m, q) for q in range(m.inf, m.sup + 1))


def test_ultra_members_cycling_recurrent(rng):
    from garside.cycling import closed_orbit, cyc

    ident3 = identity_element(braid_structure(3))
    ident4 = identity_element(braid_structure(4))
    for _ in range(15):
        x = random_element(rng, rng.choice([3, 4]), max_len=3)
        ident = ident3 if x.struct.n == 3 else ident4
        for m in ultra_summit_set(x).members:
            assert closed_orbit(m, lambda w: (cyc(w), ident)).entry_index == 0


def test_conjugacy_invariance(rng):
    for _ in range(25):
        n = rng.choice([3, 4])
        x = random_element(rng, n, max_len=3)
        w = normalize(x.struct, 0, [random_simple(rng, n) for _ in range(rng.randint(1, 3))])
        for kind in ("super", "ultra", "star"):
            assert frozenset(summit_set(x, kind).members) == frozenset(summit_set(x.conj(w), kind).members)


def test_against_exhaustive_oracle(rng):
    for _ in range(12):
        n = rng.choice([3, 4])
        st = braid_structure(n)
        x = random_element(rng, n, max_len=3)
        for kind in ("super", "ultra", "star"):
            assert frozenset(summit_set(x, kind).members) == summit_members_exhaustive(st, x, kind), (x, kind)


def test_exhaustive_mode_agrees(rng):
    # the closure against the exhaustive search on the 10 draws that follow
    # the 12 of test_against_exhaustive_oracle
    for i in range(22):
        n = rng.choice([3, 4])
        x = random_element(rng, n, max_len=3)
        if i < 12:
            continue
        st = braid_structure(n)
        for kind in ("super", "ultra", "star"):
            assert frozenset(summit_set(x, kind).members) == summit_members_exhaustive(st, x, kind), (x, kind)


def test_convexity_of_membership(rng):
    # if y^u and y^v are members (u, v simple) so is y^{u /\ v}
    checked = 0
    while checked < 40:
        n = rng.choice([3, 4])
        st = braid_structure(n)
        x = random_element(rng, n, max_len=3)
        ss = c_star(x)
        if len(ss) < 2:
            continue
        y = ss.members[0]
        members = frozenset(ss.members)
        simples = [random_simple(rng, n) for _ in range(6)]
        for a in simples:
            for b in simples:
                ya = y.conj(simple_element(st, a))
                yb = y.conj(simple_element(st, b))
                if ya in members and yb in members:
                    ym = y.conj(simple_element(st, st.meet(a, b)))
                    assert ym in members
                    checked += 1
        checked += 1


def test_star_trajectory_partition(rng):
    for _ in range(10):
        x = random_element(rng, rng.choice([3, 4]), max_len=3)
        ss = c_star(x)
        assert ss.trajectories is not None
        seen = set()
        for t in ss.trajectories:
            for m in t.members:
                assert m not in seen
                seen.add(m)
        assert seen == set(ss.members)
        # trajectory of any member reproduces its block of the partition
        for t in ss.trajectories:
            assert trajectory(t.key_element).key_element == t.key_element


def test_seed_choice_independence(rng):
    # growing the closure from any member of the first trajectory gives the
    # same refined summit set
    for _ in range(8):
        x = random_element(rng, 3, max_len=3)
        ss = c_star(x)
        for m in ss.members[: 3]:
            assert frozenset(c_star(m).members) == frozenset(ss.members)


def test_super_ultra_have_flat_member_sets(rng):
    x = random_element(rng, 3, max_len=3)
    assert super_summit_set(x).trajectories is None
    assert ultra_summit_set(x).trajectories is None


def test_decide_conjugacy_examples():
    st = braid_structure(3)
    ans = decide_conjugacy(parse_word("1", 3), parse_word("2", 3))
    assert ans.conjugate
    assert ans.witness == delta_power(st, 1)
    assert parse_word("1", 3).conj(ans.witness) == parse_word("2", 3)

    assert not decide_conjugacy(parse_word("1", 3), parse_word("1 1", 3)).conjugate


def test_decide_conjugacy_constructed_pairs(rng):
    for _ in range(40):
        n = rng.choice([3, 4, 5])
        x = random_element(rng, n, max_len=3)
        w = random_element(rng, n, max_len=2)
        y = x.conj(w)
        ans = decide_conjugacy(x, y)
        assert ans.conjugate
        assert x.conj(ans.witness) == y


def test_decide_conjugacy_against_component_oracle():
    # all positive words of letter length <= 3 in B_3, partitioned two ways
    st = braid_structure(3)
    cap = 3
    comp = conjugation_components(st, cap)
    elements = []
    for length in range(cap + 1):
        for bits in range(2 ** length):
            word = [st.atoms[(bits >> i) & 1] for i in range(length)]
            elements.append(normalize(st, 0, word))
    fingerprints = {}
    for z in elements:
        fingerprints[z] = frozenset(c_star(z).members)
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            assert (fingerprints[a] == fingerprints[b]) == (comp[a] == comp[b]), (a, b)


def test_budget_and_size_guards():
    x = parse_word("1 1", 3)
    with pytest.raises(BudgetExceeded):
        c_star(x, max_size=1)
    with pytest.raises(BudgetExceeded):
        ultra_summit_set(x, budget_ms=0.0)
    try:
        super_summit_set(x, max_size=0)
    except BudgetExceeded as e:
        assert e.kind == "super"
        assert e.size > 0


@hs.composite
def summit_bounds_inputs(draw):
    """
    Normal forms of B_3..B_8 with power -3..3 and 0..8 factors, conjugates
    of D-powers, and x^n for n up to the atom count of D, x in B_4..B_7 of
    canonical length at most 2.
    """
    rng = draw(hs.randoms(use_true_random=False))
    shape = draw(hs.sampled_from(["normal form", "delta conjugate", "power"]))
    if shape == "power":
        x = random_element(rng, draw(hs.integers(4, 7)), max_len=2)
        return x ** draw(hs.integers(1, x.struct.delta_norm))
    n = draw(hs.integers(3, 8))
    st = braid_structure(n)
    power = draw(hs.integers(-3, 3))
    if shape == "delta conjugate":
        return delta_power(st, power).conj(random_element(rng, n, max_len=3))
    return normalize(st, power, [random_simple(rng, n) for _ in range(draw(hs.integers(0, 8)))])


@settings(max_examples=300, deadline=None)
@given(summit_bounds_inputs())
def test_summit_bounds_matches_the_refined_representative(x):
    assert summit_bounds(x) == cstar_summit_bounds(x), x


def test_summit_set_kind_validation():
    with pytest.raises(ValueError):
        summit_set(parse_word("1", 3), "mega")


def test_summit_set_rejects_misspelt_keywords():
    x = parse_word("1 1", 3)
    with pytest.raises(TypeError):
        summit_set(x, "star", budgetms=0.0)
    with pytest.raises(TypeError):
        summit_set(x, "star", max_sise=0)
    with pytest.raises(TypeError):
        summit_set(x, "star", None)  # the limits are keyword-only
    for fn in (super_summit_set, ultra_summit_set, c_star):
        with pytest.raises(TypeError):
            fn(x, budgetms=0.0)
        with pytest.raises(TypeError):
            fn(x, max_sise=0)
        with pytest.raises(TypeError):
            fn(x, None)
    with pytest.raises(TypeError):
        decide_conjugacy(x, x, budgetms=0.0)
    with pytest.raises(TypeError):
        decide_conjugacy(x, x, max_sise=0)
    with pytest.raises(TypeError):
        decide_conjugacy(x, x, None)


def count_calls(monkeypatch, original):
    """
    Replace original in every garside module that binds it, as the
    per-layer tracer does, so a caller in any module is seen; returns the
    list the first argument of each call is appended to.
    """
    calls = []

    def counting(first, *rest):
        calls.append(first)
        return original(first, *rest)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "garside" or name.startswith("garside.")):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting)
    return calls


def test_star_closure_builds_each_trajectory_once(rng, monkeypatch):
    calls = count_calls(monkeypatch, cycling._closure_trajectory)
    sizes = []
    for _ in range(12):
        x = random_element(rng, rng.choice([4, 5]), max_len=3)
        calls.clear()
        ss = c_star(x)
        assert len(calls) == len(ss.trajectories), x
        sizes.append(len(ss.trajectories))
    assert max(sizes) > 1


def test_summit_bounds_builds_no_refined_representative(rng, monkeypatch):
    # the bounds need two closed orbits, not a recurrent-at-every-order sweep
    calls = count_calls(monkeypatch, cycling.cstar_representative)
    for _ in range(10):
        x = random_element(rng, rng.choice([4, 5, 6]), max_len=3)
        summit_bounds(x)
        stable_exponents(x)
    assert calls == []


def test_structure_mismatch_rejected():
    with pytest.raises(ValueError):
        decide_conjugacy(parse_word("1", 3), parse_word("1", 4))


def test_decide_conjugacy_stops_at_the_target(rng, monkeypatch):
    # when ry lies in the trajectory of rx, the first one the closure builds,
    # the decision closes that trajectory and runs no seed step, even where
    # C*(x) has more trajectories and so outgrows a size bound the first meets
    closures = count_calls(monkeypatch, cycling._closure_trajectory)
    seed_steps = count_calls(monkeypatch, transport._seed_trajectories)
    checked = 0
    for _ in range(100):
        n = rng.choice([4, 5])
        x = random_element(rng, n, max_len=3)
        y = x.conj(random_element(rng, n, max_len=2))
        rx, ry = cstar_representative(x), cstar_representative(y)
        first = trajectory(rx.element)
        if ry.element not in first.members or len(c_star(x).trajectories) == 1:
            continue
        closures.clear()
        seed_steps.clear()
        ans = decide_conjugacy(x, y)
        assert ans.conjugate and x.conj(ans.witness) == y
        assert len(closures) == 1 and seed_steps == [], (x, y)
        with pytest.raises(BudgetExceeded):
            c_star(x, max_size=len(first))
        ans = decide_conjugacy(x, y, max_size=len(first))
        assert ans.conjugate and x.conj(ans.witness) == y
        checked += 1
    assert checked >= 10


@hs.composite
def conjugacy_pairs(draw):
    """x in B_3..B_8 and y = x^w, or y = x s_i s_j^-1, which keeps the exponent sum."""
    n = draw(hs.integers(3, 8))
    rng = draw(hs.randoms(use_true_random=False))
    x = random_element(rng, n, max_len=3)
    if draw(hs.booleans()):
        return x, x.conj(random_element(rng, n, max_len=2))
    st = braid_structure(n)
    i, j = draw(hs.integers(0, n - 2)), draw(hs.integers(0, n - 2))
    return x, x * simple_element(st, st.atoms[i]) * simple_element(st, st.atoms[j]).inv()


@settings(max_examples=150, deadline=None)
@given(conjugacy_pairs())
def test_decide_conjugacy_matches_the_full_closure(pair):
    # the stopped closure gives the full closure's answer and witness value
    x, y = pair
    full = c_star(x)
    ry = cstar_representative(y)
    ans = decide_conjugacy(x, y)
    assert ans.conjugate == (ry.element in full)
    if ans.conjugate:
        assert ans.witness == full.witness(ry.element) * ry.witness.inv()
        assert x.conj(ans.witness) == y
    else:
        assert ans.witness is None

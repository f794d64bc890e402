"""The permutation lattice of the classical braid structure."""

import collections
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from garside import braid
from garside.braid import (
    BraidStructure,
    WordError,
    braid_structure,
    parse_word,
    perm_to_one_indexed,
    random_simple,
    word_str,
)
from garside.core import GarsideStructure, delta_power, identity_element, normalize, simple_element
from garside.summit import c_star, decide_conjugacy, super_summit_set, ultra_summit_set

import oracles
from conftest import random_element
from oracles import STEP_ORACLES, simple_divides, sweep_join, sweep_meet


def all_simples(n):
    st = braid_structure(n)
    return [st.as_simple(t) for t in itertools.permutations(range(n))]


def brute_meet(st, a, b):
    # greatest common divisor by universal property over the full lattice
    best = st.identity
    for c in all_simples(st.n):
        if simple_divides(st, c, a) and simple_divides(st, c, b) and simple_divides(st, best, c):
            best = c
    return best


def brute_join(st, a, b):
    best = st.delta
    for c in all_simples(st.n):
        if simple_divides(st, a, c) and simple_divides(st, b, c) and simple_divides(st, c, best):
            best = c
    return best


@pytest.mark.parametrize("n", [2, 3, 4])
def test_meet_join_against_universal_property(n):
    st = braid_structure(n)
    for a in all_simples(n):
        for b in all_simples(n):
            assert st.meet(a, b) == brute_meet(st, a, b)
            assert st.join(a, b) == brute_join(st, a, b)


@pytest.mark.parametrize("n", [3, 4])
def test_lattice_laws_exhaustive(n):
    st = braid_structure(n)
    simples = all_simples(n)
    for a in simples:
        for b in simples:
            m, j = st.meet(a, b), st.join(a, b)
            assert m == st.meet(b, a)
            assert j == st.join(b, a)
            assert simple_divides(st, m, a) and simple_divides(st, a, j)
            assert st.meet(a, st.join(a, b)) == a  # absorption
            assert st.join(a, st.meet(a, b)) == a
    rng = random.Random(5)
    for _ in range(300):
        a, b, c = (random_simple(rng, n) for _ in range(3))
        assert st.meet(st.meet(a, b), c) == st.meet(a, st.meet(b, c))
        assert st.join(st.join(a, b), c) == st.join(a, st.join(b, c))


@hs.composite
def lattice_arguments(draw):
    """A structure and two simples, weighted towards the memo's shortcuts."""
    n = draw(hs.integers(2, 40))
    st = braid_structure(n)
    perm = hs.permutations(range(n)).map(tuple).map(st.as_simple)
    special = hs.sampled_from([st.identity, st.delta])
    a = draw(hs.one_of(special, perm))
    shape = draw(hs.sampled_from(["any", "equal", "divisor", "multiple"]))
    if shape == "equal":
        b = a
    elif shape == "divisor":
        b = sweep_meet(a, draw(perm))
    elif shape == "multiple":
        b = sweep_join(a, draw(perm))
    else:
        b = draw(hs.one_of(special, perm))
    if draw(hs.booleans()):
        a, b = b, a
    return st, a, b


@settings(max_examples=400, deadline=None)
@given(lattice_arguments())
def test_meet_join_match_sweep_oracle(args):
    st, a, b = args
    m, j = sweep_meet(a, b), sweep_join(a, b)
    for _ in range(2):  # a miss, then a memo hit
        assert st.meet(a, b) == m
        assert st.join(a, b) == j


def test_meet_join_match_sweep_oracle_exhaustive_b5():
    # every pair of B_5, so every shape of bit row the join closes occurs
    st = BraidStructure(5)  # not the interned structure: caches start empty
    simples = all_simples(5)
    for a in simples:
        for b in simples:
            assert st.meet(a, b) == sweep_meet(a, b)
            assert st.join(a, b) == sweep_join(a, b)


@hs.composite
def step_arguments(draw):
    """A fresh structure of B_2..B_12 and a (factor, argument) pair."""
    n = draw(hs.integers(2, 12))
    st = BraidStructure(n)  # not the interned structure: memos start empty
    perm = hs.permutations(range(n)).map(tuple).map(st.as_simple)
    special = hs.sampled_from([st.identity, st.delta])
    x = draw(hs.one_of(special, perm))
    shape = draw(hs.sampled_from(["any", "equal", "divisor", "multiple", "complement"]))
    if shape == "equal":
        y = x
    elif shape == "divisor":
        y = sweep_meet(x, draw(perm))
    elif shape == "multiple":
        y = sweep_join(x, draw(perm))
    elif shape == "complement":  # x y is simple, so the slide absorbs all of y
        y = sweep_meet(st.right_complement(x), draw(perm))
    else:
        y = draw(hs.one_of(special, perm))
    return st, x, y


@settings(max_examples=400, deadline=None)
@given(step_arguments())
def test_steps_match_the_inline_chains(args):
    st, x, y = args
    for name, oracle in STEP_ORACLES.items():
        expected = oracle(st, x, y)
        assert getattr(GarsideStructure, name)(st, x, y) == expected, name
        for _ in range(2):  # a miss, then a memo hit
            assert getattr(st, name)(x, y) == expected, name
    assert st.slide(x, y)[0] == oracles.b_step(st, x, y)  # the b-chain step


def _assert_step_identities(st, x, y):
    # the pushforward's b-chain takes the first factor of a slide; the
    # v-step is a slide followed by a residual; and the a-step, which keeps
    # its own body, is the first factor of a slide too
    assert oracles.b_step(st, x, y) == st.slide(x, y)[0]
    c, d = st.tau_pow(x, -1), st.tau_pow(y, -1)
    cp, dp = oracles.slide(st, c, d)
    expected = oracles.v_step(st, x, y)
    assert oracles.w_step(st, st.right_complement(cp), dp) == expected
    assert GarsideStructure.v_step(st, x, y) == expected
    assert oracles.a_step(st, x, y) == oracles.slide(st, st.right_complement(x), st.tau_pow(y, 1))[0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_step_identities_exhaustive(n):
    st = BraidStructure(n)  # not the interned structure: memos start empty
    simples = all_simples(n)
    for x in simples:
        for y in simples:
            _assert_step_identities(st, x, y)


def test_step_identities_random():
    rng = random.Random(14)
    for n in (6, 7, 8, 10, 12, 16, 20):
        st = BraidStructure(n)
        for _ in range(300):
            x, y = random_simple(rng, n), random_simple(rng, n)
            _assert_step_identities(st, x, y)
            _assert_step_identities(st, x, sweep_meet(st.right_complement(x), y))


def _drive_kernel(st, pairs):
    for a, b in pairs:
        st.meet(a, b)
        st.join(a, b)
        st.inverse_table(a)
        st.right_complement(a)
        st.tau_pow(a, 1)
        st.norm(a)
        for name in STEP_ORACLES:
            getattr(st, name)(a, b)


def _assert_caches_bounded(st):
    # every table of a structure is a bounded memo, never a hand-rolled dict
    caches = [v for v in vars(st).values() if isinstance(v, dict)]
    assert caches and all(isinstance(c, braid._Memo) for c in caches)
    assert all(len(c) <= braid._CACHE_CAP for c in caches)


def _assert_kernel_matches(st, pairs):
    n = st.n
    for a, b in pairs:
        assert st.meet(a, b) == sweep_meet(a, b)
        assert st.join(a, b) == sweep_join(a, b)
        assert st.mul(a, st.inverse_table(a)) == st.identity
        assert st.mul(a, st.right_complement(a)) == st.delta
        assert st.tau_pow(a, 1) == oracles.tau_pow(a, 1)
        assert st.norm(a) == sum(a[i] > a[j] for i in range(n) for j in range(i + 1, n))
        for name, oracle in STEP_ORACLES.items():
            assert getattr(st, name)(a, b) == oracle(st, a, b), name
        assert st.slide(a, b)[0] == oracles.b_step(st, a, b)


def test_caches_bounded_and_correct_after_clear():
    st = BraidStructure(8)  # not the interned structure: caches start empty
    rng = random.Random(12)
    pairs = [(random_simple(rng, 8), random_simple(rng, 8))
             for _ in range(braid._CACHE_CAP + 700)]
    for k in range(0, len(pairs), 100):
        _drive_kernel(st, pairs[k:k + 100])
        _assert_caches_bounded(st)
    # more distinct calls than the cap went in, so the tables were cleared
    assert len(st._meets) < len(set(pairs))
    _assert_kernel_matches(st, pairs[:400] + pairs[-400:])
    _assert_caches_bounded(st)


def test_step_memos_bounded_after_many_operations(monkeypatch):
    # summit sets on a fresh structure until every step memo has taken more
    # entries than the cap, so each one was cleared at least once
    st = BraidStructure(6)
    steps = [st._a_steps, st._v_steps, st._w_steps, st._slides]
    stored = collections.Counter()
    missing = braid._Memo.__missing__

    def counting_missing(memo, args):
        stored[id(memo)] += 1
        return missing(memo, args)

    monkeypatch.setattr(braid._Memo, "__missing__", counting_missing)
    rng = random.Random(11)
    for _ in range(400):
        if min(stored[id(c)] for c in steps) > braid._CACHE_CAP:
            break
        x = normalize(st, 0, [random_simple(rng, 6) for _ in range(4)])
        ultra_summit_set(x)
        c_star(x)
        _assert_caches_bounded(st)
    assert min(stored[id(c)] for c in steps) > braid._CACHE_CAP
    _assert_caches_bounded(st)


def test_memo_contract(monkeypatch):
    calls = []

    def fn(a, b):
        calls.append((a, b))
        return a + b

    memo = braid._Memo(fn)
    assert memo[1, 2] == 3 and calls == [(1, 2)]  # a miss calls fn once
    assert memo[1, 2] == 3 and calls == [(1, 2)]  # a hit does not call it
    monkeypatch.setattr(braid, "_CACHE_CAP", 3)
    for k in range(2, 4):
        memo[k, 0]
    assert len(memo) == 3
    assert memo[9, 9] == 18  # a miss at the cap clears the table first
    assert dict(memo) == {(9, 9): 18} and calls[-1] == (9, 9)


def test_caches_shared_between_threads():
    # structures are shared freely, so racing memo clears may only cost
    # recomputation: every thread still sees oracle answers
    st = BraidStructure(7)
    rng = random.Random(13)
    pairs = [(random_simple(rng, 7), random_simple(rng, 7))
             for _ in range(braid._CACHE_CAP + 500)]
    errors = []

    def work(offset):
        try:
            chunk = pairs[offset:] + pairs[:offset]
            _drive_kernel(st, chunk)
            _assert_kernel_matches(st, chunk[::5])
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k * 300,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    _assert_caches_bounded(st)


def test_elements_and_answers_pickle():
    # a pickle names the interned structure, so no memo table (whose
    # functions are closures) is shipped and the caches stay shared
    n = 4
    x = parse_word("1 2 1 1", n)
    y = pickle.loads(pickle.dumps(x))
    assert y == x and y.struct is braid_structure(n)
    ss = pickle.loads(pickle.dumps(c_star(x)))
    assert ss.members == c_star(x).members and ss.base.struct is braid_structure(n)
    assert ss.verify_witnesses()
    target = parse_word("2 1 1 1", n)
    ans = pickle.loads(pickle.dumps(decide_conjugacy(x, target)))
    assert ans.conjugate and x.conj(ans.witness) == target
    assert ans.witness.struct is braid_structure(n)
    fresh = pickle.loads(pickle.dumps(BraidStructure(n)))
    assert fresh is braid_structure(n)


def test_meet_examples():
    st = braid_structure(3)
    s1, s2 = st.atoms
    assert st.meet(s1, s2) == st.identity
    assert st.meet(s1, st.mul(s1, s2)) == s1
    assert st.meet(st.mul(s1, s2), st.mul(s2, s1)) == st.identity
    assert st.join(s1, s1) == s1
    assert st.join(s1, s2) == st.delta
    for tab in all_simples(3):
        assert st.join(tab, st.delta) == st.delta


def test_complements():
    for n in (3, 4, 5):
        st = braid_structure(n)
        assert st.right_complement(st.delta) == st.identity
        assert st.right_complement(st.identity) == st.delta
        rng = random.Random(n)
        for _ in range(50):
            a = random_simple(rng, n)
            assert st.mul(a, st.right_complement(a)) == st.delta
    st = braid_structure(3)
    assert st.right_complement(st.atoms[0]) == st.mul(st.atoms[1], st.atoms[0])


def test_tau_table_map():
    # D^{-1} a D computed by group arithmetic equals the table map
    for n in (3, 4, 5):
        st = braid_structure(n)
        rng = random.Random(n)
        for _ in range(40):
            a = random_simple(rng, n)
            via_group = delta_power(st, -1) * simple_element(st, a) * delta_power(st, 1)
            assert via_group == simple_element(st, st.tau_pow(a, 1))
            assert tuple(st.tau_pow(a, 1)) == tuple(n - 1 - a[n - 1 - i] for i in range(n))
    # the table map against the table-free reference, on a miss and on a hit
    # of tau's memo
    for n in range(2, 9):
        st = BraidStructure(n)
        rng = random.Random(n)
        for a in [st.identity, st.delta, *(random_simple(rng, n) for _ in range(10))]:
            for k in range(-3, 4):
                got = st.tau_pow(a, k)
                assert got == oracles.tau_pow(a, k) == st.tau_pow(a, k)


def test_tau_is_lattice_automorphism():
    st = braid_structure(4)
    rng = random.Random(9)
    for _ in range(200):
        a, b = random_simple(rng, 4), random_simple(rng, 4)
        assert st.tau_pow(st.meet(a, b), 1) == st.meet(st.tau_pow(a, 1), st.tau_pow(b, 1))
        assert st.tau_pow(st.join(a, b), 1) == st.join(st.tau_pow(a, 1), st.tau_pow(b, 1))


def test_structure_constants():
    for n in (2, 3, 4, 5, 6):
        st = braid_structure(n)
        assert st.delta_norm == n * (n - 1) // 2
        assert st.norm(st.delta) == st.delta_norm
        assert len(st.atoms) == n - 1
        for a in st.atoms:
            assert st.norm(a) == 1
            assert simple_divides(st, a, st.delta)
        # tau has the declared order on the atoms
        for a in st.atoms:
            assert st.tau_pow(a, st.order_of_tau) == a
        if n > 2:
            assert any(st.tau_pow(a, 1) != a for a in st.atoms)


def test_simple_count_small():
    # the simple elements of B_n are the n! permutations
    assert len(all_simples(3)) == math.factorial(3)


def test_divisibility_is_inversion_containment():
    st = braid_structure(4)
    def inversions(t):
        return {(i, j) for i in range(4) for j in range(i + 1, 4) if t[i] > t[j]}
    for a in all_simples(4):
        for b in all_simples(4):
            assert simple_divides(st, a, b) == (inversions(a) <= inversions(b))
        # the generic meet-based atom test agrees with the braid override
        for k in range(3):
            assert GarsideStructure.atom_divides(st, k, a) == st.atom_divides(k, a)


def test_parse_word_examples():
    st = braid_structure(3)
    assert parse_word("1 2 1", 3) == delta_power(st, 1)
    assert parse_word("", 3) == identity_element(st)
    assert parse_word("2 1 1", 3).factors == (st.mul(st.atoms[1], st.atoms[0]), st.atoms[0])
    assert parse_word("D D^-1", 3) == identity_element(st)
    assert parse_word("1 -1", 3) == identity_element(st)
    assert parse_word("-2", 3) == simple_element(st, st.atoms[1]).inv()
    # every inverse letter up to B_10 is the inverse of its atom's element
    for n in range(2, 11):
        st = braid_structure(n)
        for k in range(1, n):
            assert parse_word(f"-{k}", n) == simple_element(st, st.atoms[k - 1]).inv(), (n, k)


@hs.composite
def signed_words(draw):
    """A strand count in 2..10 and two words of signed and D letters."""
    n = draw(hs.integers(2, 10))
    generator = hs.integers(1, n - 1).flatmap(lambda k: hs.sampled_from([str(k), str(-k)]))
    letter = hs.one_of(hs.sampled_from(["D", "D^-1"]), generator)
    return n, draw(hs.lists(letter, max_size=8)), draw(hs.lists(letter, max_size=8))


def formal_inverse(word):
    """The word reversed, with every letter replaced by its inverse."""
    flip = {"D": "D^-1", "D^-1": "D"}
    return [flip.get(tok) or str(-int(tok)) for tok in reversed(word)]


@settings(max_examples=300, deadline=None)
@given(signed_words())
def test_parse_word_is_a_homomorphism(args):
    # word_str only emits a D power and positive letters, so this is what
    # covers words that mix signed, D and D^-1 letters
    n, u, v = args
    assert parse_word(" ".join(u + v), n) == parse_word(" ".join(u), n) * parse_word(" ".join(v), n)
    assert parse_word(" ".join(u + formal_inverse(u)), n) == identity_element(braid_structure(n))


def test_parse_word_errors():
    for bad in ("3", "-3", "0", "x", "1.5", "D^2"):
        with pytest.raises(WordError):
            parse_word(bad, 3)


def test_word_str_roundtrip(rng):
    for _ in range(120):
        n = rng.choice([3, 4, 5])
        a = random_element(rng, n)
        assert parse_word(word_str(a), n) == a


def test_one_indexed_serialization():
    st = braid_structure(3)
    assert perm_to_one_indexed(st.delta) == [3, 2, 1]


def test_random_simple_contract(rng):
    for _ in range(200):
        t = random_simple(rng, 4)
        assert sorted(t) == list(range(4))
        assert t != braid_structure(4).identity


def test_random_simple_uniform():
    # chi-square flavored check: each of the 5 non-identity simples of B_3
    # lands close to frequency 1/5
    rng = random.Random(123)
    counts = {}
    draws = 10000
    for _ in range(draws):
        t = random_simple(rng, 3)
        counts[t] = counts.get(t, 0) + 1
    assert len(counts) == 5
    for c in counts.values():
        assert abs(c / draws - 0.2) < 0.02


def test_random_simple_deterministic():
    r1, r2 = random.Random(42), random.Random(42)
    a = [random_simple(r1, 5) for _ in range(10)]
    b = [random_simple(r2, 5) for _ in range(10)]
    assert a == b
    assert len(set(a)) > 1


def test_braids_need_two_strands():
    with pytest.raises(ValueError):
        braid_structure(1)


def test_random_simple_needs_two_strands():
    # with fewer than two strands the identity is the only simple, so a
    # search for a non-identity one used to spin forever: run it in a child
    # interpreter that a timeout can kill
    code = (
        "import random\n"
        "from garside.braid import random_simple\n"
        "for n in (1, 0):\n"
        "    try:\n"
        "        random_simple(random.Random(0), n)\n"
        "    except ValueError:\n"
        "        print(n)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(braid.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "0"]


def _assert_handle_types(st, rng, rounds):
    # a handle of another type compares unequal to every handle of the
    # structure, so a stray tuple(...) on a bytes path would pass silently
    # as a wrong answer; every method must return the structure's one type
    h = type(st.identity)
    n = st.n
    assert type(st.delta) is h and all(type(a) is h for a in st.atoms)
    specials = [st.identity, st.delta, *st.atoms[:3]]
    for _ in range(rounds):
        a, b = (rng.choice(specials) if rng.random() < 0.3 else random_simple(rng, n) for _ in range(2))
        assert type(a) is h and type(b) is h
        c = st.meet(st.right_complement(a), b)  # a c is simple
        outs = [
            st.meet(a, b), st.join(a, b), st.mul(a, c), st.left_quotient(c, b),
            st.inverse_table(a), st.right_complement(a), st.tau_pow(a, 1), st.tau_pow(a, 2),
            st.a_step(a, b), st.v_step(a, b), st.w_step(a, b), *st.slide(a, b),
            st.as_simple(tuple(a)), st.as_simple(a),
        ]
        assert all(type(o) is h for o in outs), [type(o) for o in outs]


@pytest.mark.parametrize("n", [*range(2, 13), 300])
def test_every_method_returns_the_structures_handle_type(n):
    st = BraidStructure(n)  # not the interned structure: every table starts empty
    assert type(st.identity) is (bytes if n <= 256 else tuple)
    _assert_handle_types(st, random.Random(n), 200 if n <= 12 else 20)


def test_large_structure_round_trip_is_fast():
    # above 256 strands the tables are tuples: a parse, a word, a product,
    # an inverse and a super summit set in B_300 take well under a second
    start = time.perf_counter()
    st = braid_structure(300)
    x = parse_word("1 2 150 299 2 1 7", 300)
    assert all(type(f) is tuple for f in x.factors)
    assert parse_word(word_str(x), 300) == x
    assert x * x.inv() == identity_element(st)
    sss = super_summit_set(delta_power(st, 1))  # closes over all 299 atoms
    assert sss.members == (delta_power(st, 1),) and sss.verify_witnesses()
    assert time.perf_counter() - start < 1.0

"""Normal-form arithmetic: uniqueness, prefix law, group operations."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from garside.braid import BraidStructure, braid_structure, parse_word, random_simple
from garside.core import (
    CanonicalElement,
    delta_power,
    identity_element,
    normalize,
    simple_element,
)
from garside.transport import _dominates, _pair

from conftest import random_element
import oracles
from oracles import assert_normal_form, mul_by_weighting, normalize_by_weighting


def s3():
    return braid_structure(3)


def test_normalize_delta_word():
    st = s3()
    x = normalize(st, 0, [st.atoms[0], st.atoms[1], st.atoms[0]])
    assert (x.power, x.factors) == (1, ())


def test_normalize_rejects_what_is_not_a_simple():
    st = s3()
    for bad in [(0, 0, 1), (1, 0), (3, 1, 0), [1, 0, 2], (0, 1, 2.0), (0, [1], 2), (0, 1, 2, 2),
                "012", None]:
        with pytest.raises(ValueError):
            st.as_simple(bad)
        with pytest.raises(ValueError):
            normalize(st, 0, [st.atoms[0], bad])
    for a in itertools.permutations(range(3)):
        h = st.as_simple(a)
        assert type(h) is type(st.identity) and tuple(h) == a
        assert st.as_simple(bytes(a)) == h and st.as_simple(h) is h


def test_normalize_empty():
    assert normalize(s3(), 0, []) == identity_element(s3())


def test_normalize_weighted_pair():
    st = s3()
    s1, s2 = st.atoms
    s21 = st.mul(s2, s1)
    x = normalize(st, 0, [s21, s1])
    assert x.factors == (s21, s1)
    assert_normal_form(x)


def test_normalize_idempotent_and_rebracketing(rng):
    for n in (3, 4, 5):
        st = braid_structure(n)
        for _ in range(120):
            word = [random_simple(rng, n) for _ in range(rng.randint(0, 6))]
            p = rng.randint(-2, 2)
            a = normalize(st, p, word)
            assert_normal_form(a)
            assert normalize(st, a.power, list(a.factors)) == a
            # the same word folded in a random bracketing normalizes identically
            parts = [simple_element(st, f) for f in word]
            while len(parts) > 1:
                i = rng.randrange(len(parts) - 1)
                parts[i : i + 2] = [parts[i] * parts[i + 1]]
            b = delta_power(st, p) * (parts[0] if parts else identity_element(st))
            assert a == b


def test_multiply_examples():
    st = s3()
    s1, s2 = st.atoms
    e1 = simple_element(st, s1)
    assert e1 * e1.inv() == identity_element(st)
    assert delta_power(st, 1) * delta_power(st, 1) == delta_power(st, 2)
    assert simple_element(st, st.mul(s2, s1)) * e1 == parse_word("2 1 1", 3)


def test_invert_examples():
    st = s3()
    assert identity_element(st).inv() == identity_element(st)
    assert delta_power(st, 1).inv() == delta_power(st, -1)
    inv = simple_element(st, st.atoms[0]).inv()
    assert inv.power == -1
    assert inv.factors == (st.mul(st.atoms[0], st.atoms[1]),)


def test_invert_roundtrip(rng):
    for _ in range(150):
        a = random_element(rng, rng.choice([3, 4, 5]))
        assert a * a.inv() == identity_element(a.struct)
        assert a.inv() * a == identity_element(a.struct)
        assert a.inv().inv() == a


@hs.composite
def normal_forms(draw):
    """Normal forms of B_2..B_9 with power -4..4 and 0..8 random simples."""
    n = draw(hs.integers(2, 9))
    # a seeded generator, as in divides_cases: shuffles and identity redraws
    # can use up the entropy budget of a hypothesis random
    rng = random.Random(draw(hs.integers(0, 2**32 - 1)))
    word = [random_simple(rng, n) for _ in range(draw(hs.integers(0, 8)))]
    return normalize(braid_structure(n), draw(hs.integers(-4, 4)), word)


@settings(max_examples=300, deadline=None)
@given(normal_forms())
@example(identity_element(braid_structure(4)))
@example(delta_power(braid_structure(5), 3))
@example(delta_power(braid_structure(2), -1))
def test_inverse_needs_no_normalization(x):
    # inv returns the word rc(x_l) tau(rc(x_{l-1})) ... D^{-l-p} as it
    # builds it; normalize of that word is the oracle
    s = x.struct
    q = -(x.power + x.clen)
    word = [s.tau_pow(s.right_complement(f), i + q) for i, f in enumerate(reversed(x.factors))]
    y = x.inv()
    assert y == normalize(s, q, word)
    assert_normal_form(y)
    assert x * y == identity_element(s)


def test_conjugate_examples():
    st = s3()
    e1 = simple_element(st, st.atoms[0])
    assert e1.conj(identity_element(st)) == e1
    assert e1.conj(delta_power(st, 1)) == simple_element(st, st.atoms[1])
    assert delta_power(st, 2).conj(e1) == delta_power(st, 2)


def test_meet_delta_power_prefix_law(rng):
    st = s3()
    x = parse_word("2 1 1", 3)
    assert x.meet_delta(1) == parse_word("2 1", 3)
    assert x.meet_delta(0) == identity_element(st)
    assert x.meet_delta(5) == x
    for _ in range(100):
        a = random_element(rng, rng.choice([3, 4]))
        for q in range(a.inf, a.sup + 1):
            m = a.meet_delta(q)
            assert m.clen == q - a.inf
            assert m.divides(a)
            assert m.divides(delta_power(a.struct, q))


def test_tau_pow(rng):
    st = s3()
    e1 = simple_element(st, st.atoms[0])
    assert e1.tau_pow(1) == simple_element(st, st.atoms[1])
    for _ in range(60):
        n = rng.choice([3, 4, 5])
        a = random_element(rng, n)
        st_n = a.struct
        assert a.tau_pow(0) == a
        assert a.tau_pow(st_n.order_of_tau) == a
        assert a.tau_pow(1) == a.conj(delta_power(st_n, 1))


def test_delta_power_bounds(rng):
    # D^{inf x} divides x divides D^{sup x}
    for _ in range(80):
        a = random_element(rng, rng.choice([3, 4]))
        st = a.struct
        assert delta_power(st, a.inf).divides(a)
        assert a.divides(delta_power(st, a.sup))
        if a.clen:
            assert not delta_power(st, a.inf + 1).divides(a)
            assert not a.divides(delta_power(st, a.sup - 1))


def test_power_consistency(rng):
    for _ in range(40):
        a = random_element(rng, rng.choice([3, 4]), max_len=3)
        acc = identity_element(a.struct)
        for k in range(4):
            assert a ** k == acc
            assert a ** (-k) == acc.inv()
            acc = acc * a


def test_exponent_sum_morphism(rng):
    for _ in range(60):
        a = random_element(rng, 4)
        b = random_element(rng, 4)
        assert (a * b).exponent_sum == a.exponent_sum + b.exponent_sum
        assert a.inv().exponent_sum == -a.exponent_sum


def test_mixed_structure_rejected():
    with pytest.raises(ValueError):
        identity_element(braid_structure(3)) * identity_element(braid_structure(4))


def test_element_equality_key():
    st = s3()
    a = parse_word("1 2", 3)
    b = parse_word("1 2", 3)
    assert a == b and hash(a) == hash(b)
    assert a.key() == b.key()
    assert a != parse_word("2 1", 3)
    # an equal structure that is another object gives equal elements
    c = CanonicalElement(BraidStructure(3), a.power, a.factors)
    assert c.struct is not st and c == a and hash(c) == hash(a)
    # the hash leaves the structure out, equality does not
    assert delta_power(s3(), 1) != delta_power(braid_structure(4), 1)
    assert identity_element(s3()) != identity_element(braid_structure(2))
    assert (a == a.key()) is False and (a == "1 2") is False and a != None  # noqa: E711


@hs.composite
def weighting_cases(draw):
    """
    A fresh structure of B_2..B_12 (B_2, where tau is the identity, drawn
    more often) and two raw words with their D powers, whose letters are
    random simples mixed with D, the identity and atoms.
    """
    n = draw(hs.sampled_from([2, 2, 2, *range(3, 13)]))
    st = BraidStructure(n)  # not the interned structure: the slide memo starts empty
    rng = draw(hs.randoms(use_true_random=False))
    specials = [st.delta, st.delta, st.identity, *st.atoms]

    def word():
        return [
            random_simple(rng, n) if draw(hs.booleans()) else draw(hs.sampled_from(specials))
            for _ in range(draw(hs.integers(0, 7)))
        ]

    return st, draw(hs.integers(-3, 3)), word(), draw(hs.integers(-3, 3)), word()


@settings(max_examples=300, deadline=None)
@given(weighting_cases())
@example((BraidStructure(2), -1, [], 0, [(1, 0), (1, 0), (0, 1)]))
@example((BraidStructure(3), 1, [(2, 1, 0)] * 3, -2, [(1, 0, 2), (0, 2, 1), (2, 0, 1)]))
def test_products_and_normalize_match_the_weighting_oracle(case):
    # the one-pass right multiplication against the pending-set weighting,
    # including D-only operands, identity products and B_2
    st, p, word, r, word2 = case
    x = normalize(st, p, word)
    y = normalize(st, r, word2)
    assert x == normalize_by_weighting(st, p, word)
    assert y == normalize_by_weighting(st, r, word2)
    for a, b in [(x, y), (y, x), (x, x.inv()), (y.inv(), y), (x * y, y.inv()), (x, delta_power(st, r))]:
        ab = a * b
        assert_normal_form(ab)
        assert ab == mul_by_weighting(a, b)
    assert x * x.inv() == identity_element(st) and y.inv() * y == identity_element(st)


def test_element_is_an_immutable_value():
    st = BraidStructure(4)  # not the interned structure
    x = normalize(st, -1, [(1, 0, 3, 2), (2, 1, 0, 3)])
    fields = (x.struct, x.power, x.factors)
    for name in ("struct", "power", "factors"):
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert not hasattr(x, "__dict__")
    assert (x.struct, x.power, x.factors) == fields and x.clen == 2
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert y == x and hash(y) == hash(x)
        assert (y.power, y.factors) == (x.power, x.factors)
    # a deep copy or a pickle names the structure, so it comes back interned
    for y in copies[1:]:
        assert y.struct is braid_structure(4)


@hs.composite
def divides_cases(draw):
    """
    A fresh structure of B_2..B_12 and the ingredients of divisibility
    pairs: D powers -2..2; simples drawn from the identity, the atoms, the
    simples one atom short of D and random simples; and words of 2..5
    random simples, whose normal forms mostly have canonical length >= 2.
    """
    n = draw(hs.sampled_from([2, 2, *range(3, 13)]))
    st = BraidStructure(n)  # not the interned structure: the meet memo starts empty
    # a seeded generator, since random_simple redraws until it leaves the
    # identity, which a shrunk hypothesis random never does
    rng = random.Random(draw(hs.integers(0, 2**32 - 1)))
    near_delta = [st.right_complement(a) for a in st.atoms] + [st.tau_pow(st.right_complement(a), 1) for a in st.atoms]
    specials = [st.identity, *st.atoms, *near_delta]

    def simple():
        return random_simple(rng, n) if draw(hs.booleans()) else draw(hs.sampled_from(specials))

    def power():
        return draw(hs.integers(-2, 2))

    def word():
        return [random_simple(rng, n) for _ in range(draw(hs.integers(2, 5)))]

    return st, [power() for _ in range(3)], [simple() for _ in range(4)], word(), word()


def _divides_pairs(st, powers, simples, word1, word2):
    """
    Pairs (a, b) for the divisibility test, among them many with a dividing
    b: b = a s, a prefix of b, and b = a, each with canonical length <= 1 on
    both sides where they can; and pairs with canonical length >= 2 on
    either side.
    """
    p, r, k = powers
    s, t, c, d = (st.as_simple(f) for f in simples)
    a = simple_element(st, s, p)
    b = simple_element(st, t, r)
    # s times a simple below rc(s), and a prefix of t: still simples
    sc = st.mul(s, st.meet(st.right_complement(s), c))
    prefix = st.meet(t, d)
    long1 = normalize(st, k, word1)
    long2 = normalize(st, r, word2)
    return [
        (a, b),
        (a, simple_element(st, t, p)),
        (b, simple_element(st, s, r)),
        (a, simple_element(st, sc, p)),
        (simple_element(st, prefix, r), b),
        (a, a),
        (delta_power(st, p), simple_element(st, t, p)),
        (delta_power(st, p), delta_power(st, r)),
        (delta_power(st, p), delta_power(st, p)),
        (a, delta_power(st, p)),
        (a, a * simple_element(st, c)),
        (a, a * simple_element(st, c, 1)),
        (long1, long2),
        (a, long2),
        (long1, b),
        (long1, long1 * simple_element(st, c)),
        (long1.meet_delta(long1.inf + 1), long1),
    ]


@settings(max_examples=300, deadline=None)
@given(divides_cases())
@example((BraidStructure(2), [0, 0, 0], [(0, 1), (1, 0), (1, 0), (0, 1)], [(1, 0)] * 2, [(1, 0), (0, 1)]))
@example((BraidStructure(4), [1, 1, -1], [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (3, 2, 1, 0)],
          [(1, 0, 2, 3), (0, 2, 1, 3)], [(2, 1, 0, 3), (0, 1, 3, 2), (1, 0, 2, 3)]))
def test_divides_matches_the_group_oracle(case):
    # divides, and the transport sweep's one-meet rule on (power, simple)
    # pairs, against a /\ b = a by first-factor peeling, an oracle that
    # shares no formula with either
    st, *ingredients = case
    for a, b in _divides_pairs(st, *ingredients):
        expected = oracles.divides(a, b)
        assert a.divides(b) == expected, (a.power, a.factors, b.power, b.factors)
        if a.clen <= 1 and b.clen <= 1:
            assert _dominates(st, _pair(st, a), _pair(st, b)) == expected


def test_divides_answers_both_ways_on_short_pairs(rng):
    # seeded pairs against the oracle, with both answers occurring on short
    # pairs of equal and of different powers, which the sweep's rule answers
    answers = set()
    for _ in range(200):
        n = rng.randint(2, 6)
        st = braid_structure(n)
        p = rng.randint(-2, 2)
        powers = [p, p + rng.choice([-1, 0, 0, 1]), rng.randint(-2, 2)]
        simples = [random_simple(rng, n) for _ in range(4)]
        for a, b in _divides_pairs(st, powers, simples, [], []):
            expected = oracles.divides(a, b)
            assert a.divides(b) == expected
            if a.clen <= 1 and b.clen <= 1:
                assert _dominates(st, _pair(st, a), _pair(st, b)) == expected
                answers.add((a.power == b.power, expected))
    assert answers == {(True, True), (True, False), (False, True), (False, False)}


def test_divides_rejects_mixed_structures():
    st3, st4 = braid_structure(3), braid_structure(4)
    short3, short4 = simple_element(st3, st3.atoms[0]), simple_element(st4, st4.atoms[0])
    long3 = parse_word("1 2 2 1 1", 3)
    long4 = parse_word("1 2 3 3 2 1 1", 4)
    for a, b in [(short3, short4), (short4, short3), (long3, long4), (short3, long4),
                 (identity_element(st3), identity_element(st4)), (delta_power(st3, 1), delta_power(st4, 0))]:
        with pytest.raises(ValueError):
            a.divides(b)
    # equal structures that are different objects are the same structure
    assert simple_element(BraidStructure(3), st3.atoms[0]).divides(parse_word("1 2", 3))

"""The three random-braid families and the strand-range embedding."""

import random

import pytest

from garside.braid import braid_structure, random_simple
from garside.cli.generators import embed, gen_test1, gen_test2, gen_test3
from garside.core import identity_element, normalize
from garside.summit import summit_bounds


def strand_image(x):
    """Underlying permutation of a braid (composing factor tables)."""
    st = x.struct
    table = st.delta if x.power % 2 else st.identity
    for f in x.factors:
        table = st.mul(table, f)
    return table


def test_embed_is_homomorphism():
    rng = random.Random(3)
    for _ in range(40):
        m, n = 3, 5
        st = braid_structure(m)
        a = normalize(st, rng.randint(-2, 2), [random_simple(rng, m) for _ in range(rng.randint(0, 3))])
        b = normalize(st, rng.randint(-2, 2), [random_simple(rng, m) for _ in range(rng.randint(0, 3))])
        off = rng.choice([0, 1, 2])
        assert embed(a, n, off) * embed(b, n, off) == embed(a * b, n, off)
    assert embed(identity_element(braid_structure(3)), 6) == identity_element(braid_structure(6))


def test_embed_fits():
    with pytest.raises(ValueError):
        embed(identity_element(braid_structure(4)), 5, offset=2)


def test_gen_test1_contract():
    rng = random.Random(11)
    for _ in range(6):
        n, l = 5, 3
        x = gen_test1(n, l, rng)
        assert x.struct.n == n
        # strand n is never used: the underlying permutation fixes it and no
        # factor moves it
        for f in x.factors:
            assert f[n - 1] == n - 1
        # positive braid with summit sup exactly l (inherited from B_{n-1})
        assert x.inf >= 0
        lo, hi = summit_bounds(x)
        assert hi == l


def test_gen_test1_deterministic():
    assert gen_test1(5, 3, 7) == gen_test1(5, 3, 7)
    assert gen_test1(5, 3, 7) != gen_test1(5, 3, 8)


def test_gen_test1_validation():
    with pytest.raises(ValueError):
        gen_test1(2, 3, 0)
    with pytest.raises(ValueError):
        gen_test1(5, 0, 0)


def test_gen_test2_contract():
    rng = random.Random(5)
    for _ in range(3):
        n, l = 6, 2
        x = gen_test2(n, l, rng)
        assert x.struct.n == n
        # blocks of n/3 strands are permuted setwise
        m = n // 3
        img = strand_image(x)
        for block in range(3):
            targets = {img[i] // m for i in range(block * m, (block + 1) * m)}
            assert len(targets) == 1
        # positive: built from positive pieces
        assert x.inf >= 0


def test_gen_test2_exponent_sum_additivity():
    # skeleton and cable contributions add up
    seed = 99
    rng = random.Random(seed)
    n, l = 6, 2
    x = gen_test2(n, l, rng)
    # regenerate the pieces with the same stream to compare
    from garside.cli.generators import _random_positive_with_summit_sup

    rng2 = random.Random(seed)
    b3 = braid_structure(3)
    skeleton = _random_positive_with_summit_sup(b3, l, rng2)
    bm = braid_structure(n // 3)
    cables = [normalize(bm, 0, [random_simple(rng2, n // 3) for _ in range(l)]) for _ in range(3)]
    m = n // 3
    skeleton_crossings = skeleton.exponent_sum  # atoms of B_3
    assert x.exponent_sum == sum(c.exponent_sum for c in cables) + skeleton_crossings * m * m


def test_gen_test2_validation():
    with pytest.raises(ValueError):
        gen_test2(7, 2, 0)


def test_gen_test3_contract():
    rng = random.Random(21)
    for _ in range(6):
        n, l = 5, 3
        x = gen_test3(n, l, rng)
        lo, hi = summit_bounds(x)
        assert hi - lo == l
        assert x.clen == l
        assert x.inf >= 0  # p in {0,1} plus carries from normalization


def test_gen_test3_p_distribution():
    # the leading power is (nearly) a fair coin; carries from normalization
    # are rare for short products
    rng = random.Random(4)
    lows = 0
    draws = 200
    for _ in range(draws):
        x = gen_test3(4, 2, rng)
        lows += int(x.inf == 0)
    assert 0.3 < lows / draws < 0.7


def test_gen_test3_deterministic():
    assert gen_test3(5, 4, 123) == gen_test3(5, 4, 123)


def test_gen_test3_validation():
    with pytest.raises(ValueError):
        gen_test3(2, 1, 0)
    with pytest.raises(ValueError):
        gen_test3(5, 0, 0)

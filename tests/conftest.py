import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from garside.braid import braid_structure, random_simple
from garside.core import normalize

from oracles import is_rigid_by_squaring


@pytest.fixture
def rng():
    return random.Random(20260811)


def random_element(rng, n, max_len=4, min_len=0, min_power=-2, max_power=2):
    st = braid_structure(n)
    word = [random_simple(rng, n) for _ in range(rng.randint(min_len, max_len))]
    return normalize(st, rng.randint(min_power, max_power), word)


def random_rigid_element(rng, n, max_len=3, min_power=-2, max_power=2, min_clen=1):
    """
    A rigid element of B_n, n >= 3, of canonical length >= min_clen, drawn
    from random_element until one is.
    """
    while True:
        x = random_element(rng, n, max_len=max_len, min_len=1, min_power=min_power, max_power=max_power)
        if x.clen >= min_clen and is_rigid_by_squaring(x):
            return x

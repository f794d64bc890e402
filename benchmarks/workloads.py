"""
Workload definitions: seeded input generation, serialization, the timed
operation and the correctness check of each operation.

Three workloads, chosen so that they load different layers of the library:

generic-b20   ultra and refined (C*) summit sets of test-3 braids in B_20.
              Sets stay small (about 2l members) and nearly all the time is
              the lattice kernel's meet inside transport pullbacks, at a
              strand count where each meet walks O(n^2) steps.
reducible-b5  ultra and refined summit sets of test-1 braids in B_5, the
              paper's reducible family: the ultra summit set grows past C*
              (it degenerates as l grows).  Sets are larger and meets
              cheap, so normal forms, witness products and closure take a
              far larger share than in generic-b20 (core self time about
              30% of traced time against 9%).
queries       a mixed query stream: decide_conjugacy on conjugate pairs of
              B_10, on hard non-conjugate pairs (same exponent sum and
              summit bounds, different permutation cycle type, so each one
              pays a full C* closure), and rigid_power on test-3 braids of
              B_6 or B_7, which is cycling and normal-form work on long
              powers that never enters transport.  Neither batch workload
              calls decide_conjugacy.  The B_10 braids have l=8: at l=4 about
              one pair in a few hundred has a C* closure of seconds to tens
              of seconds, which decides a whole run's throughput.

Inputs are generated in their own process (the generators warm the
interned structure caches through summit_bounds) and handed to the timed
process as JSON: one-indexed factor tables plus the Delta power.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

# A serialized element: [n, power, [one-indexed image table, ...]].
Serial = list


@dataclasses.dataclass(frozen=True)
class Spec:
    """Sizes of one workload; `tiny` variants drive the self-check."""

    pool: int        # samples (batch) or query rounds generated per seed
    trace_ops: int   # fixed operation prefix of the traced run and of the digest record
    rss_ops: int     # operations before peak_rss_mb is read
    tail_pct: float  # percentile reported as op_ms_tail
    params: dict


SPECS = {
    "generic-b20": Spec(pool=250, trace_ops=60, rss_ops=60, tail_pct=90.0,
                        params={"n": 20, "l": 5}),
    "reducible-b5": Spec(pool=1000, trace_ops=400, rss_ops=400, tail_pct=98.0,
                         params={"n": 5, "l": 3}),
    "queries": Spec(pool=200, trace_ops=150, rss_ops=60, tail_pct=90.0,
                    params={"n": 10, "l": 8, "word": 8, "rigid_n": (6, 7), "rigid_l": 1}),
}

TINY = {
    "generic-b20": {"n": 5, "l": 2},
    "reducible-b5": {"n": 4, "l": 2},
    "queries": {"n": 5, "l": 2, "word": 4, "rigid_n": (4,), "rigid_l": 1},
}
TINY_POOL = 3


# -- serialization -------------------------------------------------------

def dump(x) -> Serial:
    return [x.struct.n, x.power, [[v + 1 for v in f] for f in x.factors]]


def load(g, item: Serial):
    """Rebuild an element through the library's own normal form and check the
    round trip, so a serialization fault cannot pass silently."""
    n, power, factors = item
    x = g.normalize(g.braid_structure(n), power, [tuple(v - 1 for v in f) for f in factors])
    if dump(x) != item:
        raise ValueError("input element is not in left normal form")
    return x


def _perm(item: Serial) -> list[int]:
    """Permutation image of a serialized braid, computed without the library."""
    n, power, factors = item
    perm = list(range(n - 1, -1, -1)) if power % 2 else list(range(n))
    for f in factors:
        perm = [f[v] - 1 for v in perm]
    return perm


def cycle_type(item: Serial) -> list[int]:
    """Cycle type of the permutation image: a conjugacy invariant of B_n."""
    perm = _perm(item)
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        length = 0
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            out.append(length)
    return sorted(out)


# -- generation (runs in its own process, never timed) -----------------

def generate(g, gens, name: str, seed: int, tiny: bool = False) -> dict:
    """Inputs of one workload: `elements` (serialized) and `ops` that index them."""
    spec = SPECS[name]
    params = TINY[name] if tiny else spec.params
    pool = TINY_POOL if tiny else spec.pool
    rng = random.Random(f"{name}:{seed}")
    elements: list[Serial] = []
    ops: list[dict] = []

    def add(x) -> int:
        elements.append(dump(x))
        return len(elements) - 1

    if name in ("generic-b20", "reducible-b5"):
        gen = gens.gen_test3 if name == "generic-b20" else gens.gen_test1
        for _ in range(pool):
            i = add(gen(params["n"], params["l"], rng))
            ops.append({"op": "ultra", "x": i})
            ops.append({"op": "star", "x": i})
    elif name == "queries":
        n = params["n"]
        for _ in range(pool):
            # conjugate by construction: y = x^u for a random signed word u
            x = gens.gen_test3(n, params["l"], rng)
            word = " ".join(str(rng.choice((1, -1)) * rng.randrange(1, n))
                            for _ in range(params["word"]))
            ops.append({"op": "conj", "x": add(x), "y": add(x.conj(g.parse_word(word, n))),
                        "expect": True})
            # the negative pair starts from another braid, so that the two
            # answers of a round do not share the cost of one summit set
            z = None
            while z is None:
                x = gens.gen_test3(n, params["l"], rng)
                z = _hard_negative(g, x, rng)
            ops.append({"op": "conj", "x": add(x), "y": add(z), "expect": False})
            rn = rng.choice(params["rigid_n"])
            ops.append({"op": "rigid", "x": add(gens.gen_test3(rn, params["rigid_l"], rng))})
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {"workload": name, "seed": seed, "tiny": tiny, "elements": elements, "ops": ops}


def _hard_negative(g, x, rng: random.Random, tries: int = 64):
    """x * s_i * s_j^-1 with the summit bounds of x (the exponent sum is equal
    by construction) but another cycle type, so not conjugate to x; None when
    `tries` draws find none."""
    n = x.struct.n
    bounds, ctype = g.summit_bounds(x), cycle_type(dump(x))
    for _ in range(tries):
        i, j = rng.randrange(1, n), rng.randrange(1, n)
        z = x * g.parse_word(f"{i} -{j}", n)
        if cycle_type(dump(z)) != ctype and g.summit_bounds(z) == bounds:
            return z
    return None


# -- the timed operation ------------------------------------------------

def run_op(g, op: dict, xs: list):
    """One operation through the public API; looked up at call time so the
    traced run sees its wrappers."""
    kind = op["op"]
    if kind == "ultra":
        return g.ultra_summit_set(xs[op["x"]])
    if kind == "star":
        return g.c_star(xs[op["x"]])
    if kind == "conj":
        return g.decide_conjugacy(xs[op["x"]], xs[op["y"]])
    if kind == "rigid":
        return g.rigid_power(xs[op["x"]])
    raise ValueError(f"unknown operation {kind!r}")


# -- checks and digests (outside the timed region) -----------------------

def digest(op: dict, out) -> str:
    """Implementation-independent fingerprint of an operation's answer."""
    kind = op["op"]
    if kind in ("ultra", "star"):
        body = (kind, len(out), [dump(m) for m in out.members])
    elif kind == "conj":
        body = (kind, out.conjugate)
    else:
        body = (kind, out.is_rigid, out.power)
    return hashlib.sha256(repr(body).encode()).hexdigest()[:8]


def check(g, op: dict, out, xs: list, items: list) -> str | None:
    """None when the answer is right, else why it is wrong."""
    kind = op["op"]
    x = xs[op["x"]]
    if kind in ("ultra", "star"):
        if out.base != x or not out.members:
            return f"{kind}: empty set or wrong base"
        if any((m.inf, m.sup) != (out.infs, out.sups) for m in out.members):
            return f"{kind}: a member leaves the summit bounds"
        if not out.verify_witnesses():
            return f"{kind}: a witness does not conjugate the base to its member"
        return None
    if kind == "conj":
        y = xs[op["y"]]
        # the expected answer must also hold independently of the library:
        # a negative pair has different permutation cycle types
        if not op["expect"] and cycle_type(items[op["x"]]) == cycle_type(items[op["y"]]):
            return "conj: negative pair has equal cycle types"
        if out.conjugate != op["expect"]:
            return f"conj: answered {out.conjugate}, expected {op['expect']}"
        if out.conjugate and x.conj(out.witness) != y:
            return "conj: witness does not conjugate x to y"
        return None
    if kind == "rigid":
        if out.is_rigid:
            if (x ** out.power).conj(out.witness) != out.rigid_conjugate:
                return "rigid: witness does not conjugate x^N to the rigid conjugate"
            if not g.is_rigid(out.rigid_conjugate):
                return "rigid: reported conjugate is not rigid"
        return None
    return f"unknown operation {kind!r}"


def member_keys(out) -> frozenset:
    return frozenset((m.power, m.factors) for m in out.members)


def check_pair(ultra, op: dict, out) -> str | None:
    """The refined summit set lies inside the ultra summit set of the same
    input; `ultra` is (input index, member_keys) of the last ultra set."""
    if op["op"] == "star" and ultra is not None and ultra[0] == op["x"]:
        if not member_keys(out) <= ultra[1]:
            return "star: C* is not contained in the ultra summit set"
    return None

"""
Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The random-braid criteria
use fixed seeds, so runs are reproducible.  The whole suite stays well
inside the per-criterion runtime budgets on commodity hardware (minutes,
dominated by the deliberate ultra-summit blowup of criterion 7).
"""

import random
import sys
import time

from garside.braid import braid_structure, parse_word, random_simple
from garside.cli.generators import gen_test1, gen_test3
from garside.core import delta_power, normalize, simple_element
from garside.cycling import cyc_q
from garside.rigid import c_star_star_rigid, is_rigid, rigid_power
from garside.summit import (
    BudgetExceeded,
    c_star,
    decide_conjugacy,
    summit_bounds,
    super_summit_set,
    ultra_summit_set,
)
from garside.transport import TransportContext

from oracles import conjugation_components, phi_definitional, pi_definitional


class WitnessAudit:
    """Tallies witnesses re-verified by direct multiplication."""

    def __init__(self) -> None:
        self.verified = 0
        self.failed = 0

    def check(self, base, witness, target) -> None:
        if base.conj(witness) == target:
            self.verified += 1
        else:
            self.failed += 1

    def check_summit(self, ss) -> None:
        for member, w in ss.witnesses.items():
            self.check(ss.base, w, member)


def report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}", file=sys.stderr, flush=True)


def test_criterion_1_conjugacy_invariance():
    t0 = time.monotonic()
    rng = random.Random(101)
    audit = WitnessAudit()
    mismatches = 0
    for _ in range(200):
        n = rng.choice([3, 4, 5])
        st = braid_structure(n)
        x = gen_test3(n, rng.randint(1, 5), rng)
        w = normalize(st, 0, [random_simple(rng, n) for _ in range(rng.randint(1, 3))])
        a = c_star(x)
        b = c_star(x.conj(w))
        if frozenset(a.members) != frozenset(b.members):
            mismatches += 1
        audit.check_summit(a)
        audit.check_summit(b)
    elapsed = time.monotonic() - t0
    assert mismatches == 0 and audit.failed == 0
    assert elapsed < 120.0
    report(1, f"c_star(x) = c_star(x^w) on 200 random pairs in B_3..B_5 "
              f"(0 mismatches, {elapsed:.1f}s)")


def test_criterion_2_oracle_equivalence():
    st = braid_structure(3)
    comp = conjugation_components(st, 4)
    elements = []
    for length in range(5):
        for bits in range(2 ** length):
            word = [st.atoms[(bits >> i) & 1] for i in range(length)]
            elements.append(normalize(st, 0, word))
    elements = list(dict.fromkeys(elements))
    audit = WitnessAudit()
    mismatches = 0
    pairs = 0
    for i, a in enumerate(elements):
        for b in elements[i:]:
            pairs += 1
            ans = decide_conjugacy(a, b)
            if ans.conjugate != (comp[a] == comp[b]):
                mismatches += 1
            if ans.conjugate:
                audit.check(a, ans.witness, b)
    assert mismatches == 0 and audit.failed == 0
    report(2, f"decide_conjugacy matches the conjugation-graph oracle on all "
              f"{pairs} pairs of positive words of length <= 4 in B_3 (0 mismatches)")


def test_criterion_3_inclusion_chain():
    rng = random.Random(303)
    audit = WitnessAudit()
    violations = 0
    empty = 0
    for _ in range(100):
        n = rng.choice([4, 5])
        x = gen_test3(n, rng.randint(1, 4), rng)
        star = c_star(x)
        ultra = ultra_summit_set(x)
        sup = super_summit_set(x)
        if not (frozenset(star.members) <= frozenset(ultra.members) <= frozenset(sup.members)):
            violations += 1
        if len(star) == 0:
            empty += 1
        audit.check_summit(star)
        audit.check_summit(ultra)
        audit.check_summit(sup)
    assert violations == 0 and empty == 0 and audit.failed == 0
    report(3, "members(C*) <= members(C^u) <= members(C^s) on 100 random braids "
              "in B_4/B_5, all C* nonempty (0 violations)")


def test_criterion_4_reach_bound():
    rng = random.Random(404)
    checked_inf = checked_sup = violations = 0
    while checked_inf < 100 or checked_sup < 100:
        n = rng.choice([3, 4, 5])
        st = braid_structure(n)
        x = normalize(st, rng.randint(-2, 2),
                      [random_simple(rng, n) for _ in range(rng.randint(1, 4))])
        if x.clen == 0:
            continue
        lo, hi = summit_bounds(x)
        if checked_inf < 100 and x.inf < lo:
            q = x.inf + 1
            y = x
            for _ in range(st.delta_norm - 1):
                y = cyc_q(y, q)[0]
            if y.inf < q:
                violations += 1
            checked_inf += 1
        if checked_sup < 100 and x.sup > hi:
            q = x.sup - 1
            y = x
            for _ in range(st.delta_norm - 1):
                y = cyc_q(y, q)[0]
            if y.sup > q:
                violations += 1
            checked_sup += 1
    assert violations == 0
    report(4, "||D||-1 cyclings of order inf+1 raise inf past the order "
              "(and dually for sup) on 100+100 random braids, n <= 5 (0 violations)")


def _transport_instances(rng, count, interior_only=False):
    for _ in range(count):
        n = rng.choice([3, 4])
        st = braid_structure(n)
        while True:
            x = normalize(st, rng.randint(-1, 1),
                          [random_simple(rng, n) for _ in range(rng.randint(1, 4))])
            if x.clen:
                break
        if interior_only:
            q = rng.randint(x.inf, x.sup)
        else:
            q = rng.randint(x.inf - 2, x.sup + 2)
        u = simple_element(st, random_simple(rng, n), rng.choice([-1, 0, 1]))
        yield st, x, q, u


def test_criterion_5_transport_identity_suite():
    rng = random.Random(505)
    n_inst = 1000

    # pushforward: square identity, fixes D-powers, monotone, meets
    for st, x, q, u in _transport_instances(rng, n_inst):
        ctx = TransportContext(x, q)
        phi = ctx.push(u)
        assert x.meet_delta(q) * phi == u * x.conj(u).meet_delta(q)
        d = delta_power(st, rng.randint(-2, 2))
        assert ctx.push(d) == d
        su = u.factors[0] if u.factors else st.identity
        v = simple_element(st, st.join(su, random_simple(rng, st.n)), u.power)
        assert ctx.push(u).divides(ctx.push(v))
        from oracles import general_meet
        w = simple_element(st, random_simple(rng, st.n), u.power)
        assert ctx.push(general_meet(u, w)) == general_meet(ctx.push(u), ctx.push(w))

    # pullback: adjoint equivalence both ways, fixes D-powers, round trips
    for st, x, q, u in _transport_instances(rng, n_inst, interior_only=True):
        ctx = TransportContext(x, q)
        d = delta_power(st, rng.randint(-2, 2))
        assert ctx.pull(d) == d
        v = simple_element(st, random_simple(rng, st.n), rng.choice([-1, 0, 1]))
        assert ctx.pull(u).divides(v) == (u.inf <= v.inf and u.divides(ctx.push(v)))
        assert u.divides(ctx.push(ctx.pull(u)))
        phi = ctx.push(v)
        if phi.inf == v.inf:
            assert ctx.pull(phi).divides(v)

    # low/high order dominance
    for st, x, _, u in _transport_instances(rng, n_inst):
        q = x.inf - rng.randint(0, 2)
        t = TransportContext(x, q).push(u).tau_pow(-q)
        assert t.divides(u) and (t == u) == (x.conj(u).inf >= q)
        q = x.sup + rng.randint(0, 2)
        phi = TransportContext(x, q).push(u)
        assert phi.divides(u) and (phi == u) == (x.conj(u).sup <= q)

    # the factor chains behind push and pull equal the definitional
    # formulas exactly, at every order from inf x to sup x
    agree = 0
    while agree < 500:
        n = rng.choice([3, 4])
        st = braid_structure(n)
        x = normalize(st, rng.randint(-1, 1),
                      [random_simple(rng, n) for _ in range(rng.randint(1, 4))])
        u = simple_element(st, random_simple(rng, n), rng.choice([-1, 0, 1]))
        for k in range(x.clen + 1):
            ctx = TransportContext(x, x.inf + k)
            assert ctx.push(u) == phi_definitional(x, ctx.q, u)
            assert ctx.pull(u) == pi_definitional(x, ctx.q, u)
            agree += 1

    report(5, f"transport identities hold on {n_inst} random instances per law "
              f"and the factor-chain calculus matches the definitional formulas "
              f"on {agree} triples (0 violations)")


def test_criterion_6_table1_desk_scale():
    t0 = time.monotonic()
    rng = random.Random(606)
    sizes_u, sizes_s = [], []
    for _ in range(500):
        x = gen_test1(5, 3, rng)
        sizes_u.append(len(ultra_summit_set(x)))
        sizes_s.append(len(c_star(x)))
    mean_u = sum(sizes_u) / len(sizes_u)
    mean_s = sum(sizes_s) / len(sizes_s)
    elapsed = time.monotonic() - t0
    assert 14.0 <= mean_u <= 30.0, mean_u
    assert 8.0 <= mean_s <= 17.0, mean_s
    assert mean_s < mean_u
    assert elapsed < 300.0
    report(6, f"test-1 braids at n=5, l=3 over 500 samples: mean |C^u| = {mean_u:.1f} "
              f"(band 14..30, reference 21.6), mean |C*| = {mean_s:.1f} "
              f"(band 8..17, reference 11.9), {elapsed:.0f}s")


def test_criterion_7_feasibility_contrast():
    rng = random.Random(707)
    samples = [gen_test1(7, 10, rng) for _ in range(50)]
    sizes = []
    for x in samples:
        ss = c_star(x, budget_ms=60000.0)  # must complete for every sample
        sizes.append(len(ss))
    mean_s = sum(sizes) / len(sizes)
    assert 17.0 <= mean_s <= 68.0, mean_s
    blown = None
    completed = 0
    for x in samples:
        try:
            ultra_summit_set(x, budget_ms=60000.0, max_size=10 ** 5)
        except BudgetExceeded as exc:
            blown = exc
            break
        completed += 1
    assert blown is not None
    bound = "10^5 size" if blown.size > 10 ** 5 else "60s time"
    report(7, f"test-1 braids at n=7, l=10: c_star completed on 50/50 samples "
              f"(mean |C*| = {mean_s:.1f}, band 17..68, reference 33.7); "
              f"ultra summit completed {completed} sets, then sample {completed} blew "
              f"the {bound} bound after {blown.elapsed_ms / 1000:.0f}s at "
              f"{blown.size} members")


def test_criterion_8_table3_desk_scale():
    t0 = time.monotonic()
    rng = random.Random(808)
    equal = 0
    sizes_s = []
    for _ in range(50):
        x = gen_test3(20, 10, rng)
        nu = len(ultra_summit_set(x))
        ns = len(c_star(x))
        sizes_s.append(ns)
        equal += int(nu == ns)
    mean_s = sum(sizes_s) / len(sizes_s)
    elapsed = time.monotonic() - t0
    assert equal >= 45, equal  # >= 90% of 50 samples
    assert 20.2 * 0.7 <= mean_s <= 20.2 * 1.3, mean_s
    assert elapsed < 300.0
    report(8, f"test-3 braids at n=20, l=10 over 50 samples: |C^u| = |C*| on "
              f"{equal}/50, mean |C*| = {mean_s:.1f} (within 30% of reference 20.2), "
              f"{elapsed:.0f}s")


def test_criterion_9_rigidity_suite():
    st = braid_structure(3)
    assert is_rigid(parse_word("1", 3))
    assert not is_rigid(parse_word("1 2", 3))
    for k in (-1, 0, 1, 3):
        assert not is_rigid(delta_power(st, k))

    rng = random.Random(909)
    rigid_elements = []
    while len(rigid_elements) < 100:
        n = rng.choice([3, 4, 5])
        x = gen_test3(n, rng.randint(1, 4), rng)
        if is_rigid(x):
            rigid_elements.append(x)
    audit = WitnessAudit()
    violations = 0
    for x in rigid_elements:
        css = c_star_star_rigid(x)
        if not all(is_rigid(m) for m in css.members):
            violations += 1
        audit.check_summit(css)
        rep = rigid_power(x)
        if not rep.is_rigid:
            violations += 1
            continue
        if not (0 < rep.power < x.struct.delta_norm ** 2):
            violations += 1
        audit.check(x ** rep.power, rep.witness, rep.rigid_conjugate)
        if not is_rigid(rep.rigid_conjugate):
            violations += 1
    assert violations == 0 and audit.failed == 0
    report(9, "rigidity examples plus 100 random rigid elements (n <= 5): all "
              "rigid-summit members rigid, every rigid power has exponent below "
              "||D||^2 with a verifying witness (0 violations)")


def test_criterion_10_witness_soundness():
    # every witness emitted by all three summit kinds and by the conjugacy
    # decision on seeded test-1 braids, re-verified by direct multiplication
    rng = random.Random(1010)
    audit = WitnessAudit()
    for _ in range(80):
        x = gen_test1(5, 3, rng)
        for ss in (super_summit_set(x), ultra_summit_set(x), c_star(x)):
            audit.check_summit(ss)
        w = normalize(x.struct, 0, [random_simple(rng, 5) for _ in range(2)])
        y = x.conj(w)
        ans = decide_conjugacy(x, y)
        assert ans.conjugate
        audit.check(x, ans.witness, y)
    assert audit.failed == 0
    assert audit.verified > 5000
    report(10, f"all {audit.verified} witnesses from super, ultra and refined "
               f"summit sets and conjugacy decisions on 80 test-1 braids (n=5, l=3) "
               f"verify by direct multiplication (0 failures)")

"""
Self-check of the benchmark: the checker must reject wrong answers, and
every workload must run clean on tiny inputs whose digests are recorded.

    python3 benchmarks/run.py --selfcheck
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _checker_rejects() -> list[str]:
    """Feed the checker answers that are wrong on purpose; returns the misses."""
    import garside as g

    misses = []
    n = 4
    x = g.parse_word("1 1 2 3 2 1 3", n)
    xs, items = [x], [workloads.dump(x)]

    star = g.c_star(x)
    if workloads.check(g, {"op": "star", "x": 0}, star, xs, items) is not None:
        misses.append("a correct C* set was rejected")
    member = star.members[-1]
    witnesses = dict(star.witnesses)
    witnesses[member] = witnesses[member] * g.parse_word("1", n)
    bad = dataclasses.replace(star, witnesses=witnesses)
    if workloads.check(g, {"op": "star", "x": 0}, bad, xs, items) is None:
        misses.append("a corrupted witness was accepted")
    ultra = g.ultra_summit_set(x)
    smaller = (0, frozenset(list(workloads.member_keys(ultra))[:1]))
    if len(ultra) > 1 and workloads.check_pair(smaller, {"op": "star", "x": 0}, star) is None:
        misses.append("a C* set outside its ultra summit set was accepted")

    y = x.conj(g.parse_word("2 -3 1", n))
    z = x * g.parse_word("1 -3", n)
    xs, items = [x, y, z], [workloads.dump(e) for e in (x, y, z)]
    pos = {"op": "conj", "x": 0, "y": 1, "expect": True}
    neg = {"op": "conj", "x": 0, "y": 2, "expect": False}
    answer = g.decide_conjugacy(x, y)
    if workloads.check(g, pos, answer, xs, items) is not None:
        misses.append("a correct conjugacy answer was rejected")
    if workloads.check(g, pos, g.ConjugacyAnswer(False), xs, items) is None:
        misses.append("a flipped positive answer was accepted")
    if workloads.check(g, pos, g.ConjugacyAnswer(True, answer.witness * answer.witness), xs,
                       items) is None and x.conj(answer.witness * answer.witness) != y:
        misses.append("a wrong conjugacy witness was accepted")
    if workloads.cycle_type(items[0]) != workloads.cycle_type(items[2]):
        if workloads.check(g, neg, g.ConjugacyAnswer(True, answer.witness), xs, items) is None:
            misses.append("a flipped negative answer was accepted")
    else:
        misses.append("the negative example lost its cycle-type difference")

    r = g.parse_word("1 2 -3", n)
    report = g.rigid_power(r)
    xs, items = [r], [workloads.dump(r)]
    if not report.is_rigid:
        misses.append("the rigid example is not rigid")
    else:
        if workloads.check(g, {"op": "rigid", "x": 0}, report, xs, items) is not None:
            misses.append("a correct rigid_power report was rejected")
        wrong = dataclasses.replace(report, witness=report.witness * g.parse_word("1", n))
        if workloads.check(g, {"op": "rigid", "x": 0}, wrong, xs, items) is None:
            misses.append("a corrupted rigid_power witness was accepted")
    return misses


def main(bench, find_faults) -> int:
    misses = _checker_rejects()
    fake = {"faults": [], "digests": ["a", "b", "a", "c"]}
    if list(find_faults(fake, [0, 1], ["a", "b"])) != [3]:
        misses.append("a changed digest was not counted as a failure")
    for workload in sorted(workloads.SPECS):
        for trace in (False, True):
            out = bench(workload, 0, 1.0, trace, tiny=True)
            res, ctx = out["result"], out["context"]
            label = f"{workload} tiny trace={int(trace)}"
            if not ctx["digest_record"]:
                misses.append(f"{label}: no recorded digests")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                misses.append(f"{label}: {res['failed']} failed: {ctx['faults']}")
            print(f"{label}: attempted {res['attempted']}, failed {res['failed']}")
    for miss in misses:
        print(f"SELF-CHECK FAILED: {miss}")
    print("self-check " + ("failed" if misses else "passed"))
    return 1 if misses else 0

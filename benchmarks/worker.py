"""
Child process of the benchmark.  Two modes:

  worker.py gen --workload W --seed S [--tiny]
      generate the workload's inputs and print them as one JSON document.
  worker.py run [--setup-only] [--seconds T] [--limit K] [--rss-after R] [--trace]
      read the inputs from stdin, rebuild the elements, print "ready", then
      run operations until T seconds of operation time or K operations, and
      print one JSON line with per-operation latencies, digests, faults,
      timings of a reference loop taken before each operation and after the
      last, and the peak resident set size after the first R operations.
      With --setup-only it prints only reference timings after "ready".

Both import the library from the `src` directory next to this one, and
nothing else; run.py starts them and is the command to use.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import garside  # noqa: E402
import workloads  # noqa: E402

if not Path(garside.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"garside was imported from {garside.__file__}, not from {ROOT / 'src'}")


SETUP_REFS = 5  # reference timings a set-up-only worker takes once its inputs are ready


def reference(rounds: int = 2000) -> float:
    """Seconds taken by a fixed pure-Python loop of permutation-table work,
    about 2 ms: the interpreter's speed at this moment.  It allocates
    nothing and runs with the collector off, so the state of the heap does
    not change its time."""
    gc.disable()
    t0 = time.perf_counter()
    p = list(range(20))
    q = [(7 * i + 3) % 20 for i in range(20)]
    tmp = [0] * 20
    for _ in range(rounds):
        for j in range(20):
            tmp[j] = q[p[j]]
        p, tmp = tmp, p
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def cmd_gen(args) -> None:
    from garside.cli import generators

    inputs = workloads.generate(garside, generators, args.workload, args.seed, args.tiny)
    json.dump(inputs, sys.stdout, separators=(",", ":"))


def cmd_run(args) -> None:
    inputs = json.load(sys.stdin)
    items = inputs["elements"]
    xs = [workloads.load(garside, item) for item in items]
    ops = inputs["ops"]
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"refs": [reference() for _ in range(SETUP_REFS)]}), flush=True)
        return

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    perf = time.perf_counter
    latencies: list[float] = []
    digests: list[str] = []
    faults: list[list] = []
    op_time = 0.0
    ultra = None
    gc.collect()
    wall0 = perf()
    i = 0
    refs: list[float] = []
    while (args.limit is None or i < args.limit) and (args.seconds is None or op_time < args.seconds):
        op = ops[i % len(ops)]
        refs.append(reference())
        t0 = perf()
        try:
            out = workloads.run_op(garside, op, xs)
        except Exception as exc:  # a raising operation is a failed operation
            dt = perf() - t0
            out = None
            why = f"{type(exc).__name__}: {exc}"
        else:
            dt = perf() - t0
            why = None
        op_time += dt
        latencies.append(dt)
        if out is None:
            digests.append("")
        else:
            digests.append(workloads.digest(op, out))
            if tracer is None:
                why = workloads.check(garside, op, out, xs, items) or workloads.check_pair(ultra, op, out)
                if op["op"] == "ultra":
                    ultra = (op["x"], workloads.member_keys(out))
        if why is not None:
            faults.append([i, why])
        out = None
        i += 1
        if i == args.rss_after:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.rss_after is None or i < args.rss_after:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    refs.append(reference())
    result = {
        "latencies": latencies,
        "refs": refs,
        "digests": digests,
        "faults": faults,
        "op_s": op_time,
        "wall_s": perf() - wall0,
        "rss_kb": rss_kb,
    }
    if tracer is not None:
        result["trace"] = {name: list(v) for name, v in tracer.metrics().items()}
        result["folded"] = tracer.folded()
    print(json.dumps(result, separators=(",", ":")), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    gen = sub.add_parser("gen")
    gen.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--tiny", action="store_true")
    run = sub.add_parser("run")
    run.add_argument("--setup-only", action="store_true")
    run.add_argument("--seconds", type=float)
    run.add_argument("--limit", type=int)
    run.add_argument("--rss-after", type=int)
    run.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    (cmd_gen if args.cmd == "gen" else cmd_run)(args)


if __name__ == "__main__":
    main()

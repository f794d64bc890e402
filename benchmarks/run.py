"""
The benchmark of the garside library.

    python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0|1
    python3 benchmarks/run.py --selfcheck

Each run generates the workload's inputs from the seed in one process, then
starts fresh single-threaded interpreters that only load those inputs: a
few that stop once the inputs are ready (for setup_s), and one that goes on
to run operations, closed loop with one client, for T seconds of operation
time.  Every answer is checked outside the timed region.  Every reported
time is scaled to a fixed interpreter speed, measured by a reference loop
that the workers time next to each operation and after set-up.  The last
line of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1.  The line before it carries the run's context: Python
version, CPU count, commit, seed, operation counts, the percentile behind
op_ms_tail, the failure ratio, the speed factor and the digests.

The traced run executes the workload's fixed operation prefix twice, each
in a fresh process: once plain and once with wrappers around the public
functions of each layer (see tracing.py), so its counts repeat exactly and
trace_overhead is the ratio of the two operation times.

Exits 2 without a result line when the library sources are not next to
this directory.  Workloads and why each one exists: workloads.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_RUNS = 9  # odd: half before the timed run, the timed worker, half after
CHILD_TIMEOUT_S = 170
# seconds that worker.reference() takes at the nominal speed (the fast
# stretches of a 2-vCPU VM with Python 3.11.7); every reported time is
# scaled to that speed
REF_NOMINAL_S = 0.002
REF_WINDOW = 4  # reference samples on each side of an operation


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str], stdin: bytes | None = None) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )


def generate(workload: str, seed: int, tiny: bool = False) -> bytes:
    cmd = ["gen", "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    proc = _spawn(cmd)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"input generation failed with exit code {proc.returncode}")
    return out


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


def worker(inputs: bytes, args: list[str]) -> tuple[float, dict | None]:
    """Start a worker, feed it the inputs; returns (seconds from start to
    inputs ready, its result: for --setup-only only its reference timings)."""
    t0 = time.perf_counter()
    proc = _spawn(["run", *args], stdin=inputs)
    try:
        proc.stdin.write(inputs)
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != b"ready":
            raise BenchError("worker failed while loading its inputs")
        rest = proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return setup_s, (json.loads(rest) if rest.strip() else None)


def speed_factors(refs: list[float]) -> list[float]:
    """Per operation, how much slower than nominal the interpreter ran: the
    median of the reference times within REF_WINDOW samples of it (refs[i]
    is taken before operation i, refs[-1] after the last) over REF_NOMINAL_S."""
    return [statistics.median(refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW]) / REF_NOMINAL_S
            for i in range(len(refs) - 1)]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def find_faults(result: dict, ops: list, recorded: list | None,
                reference: list | None = None) -> dict[int, str]:
    """Failed operations by index: raised, failed a check, or a digest that
    differs from the recorded one, from the same input earlier in the run,
    or from the reference run."""
    bad = {i: why for i, why in result["faults"]}
    first: dict[int, str] = {}
    for i, d in enumerate(result["digests"]):
        k = i % len(ops)
        if recorded is not None and k < len(recorded) and d != recorded[k]:
            bad.setdefault(i, "digest differs from the recorded one")
        if reference is not None and i < len(reference) and d != reference[i]:
            bad.setdefault(i, "digest differs between traced and untraced runs")
        if first.setdefault(k, d) != d:
            bad.setdefault(i, "digest differs from an earlier run of the same input")
    return bad


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "garside").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def recorded_digests(workload: str, seed: int | str) -> list | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def bench(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    spec = workloads.SPECS[workload]
    inputs = generate(workload, seed, tiny)
    ops = json.loads(inputs)["ops"]
    recorded = recorded_digests(workload, "tiny" if tiny else seed)
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": commit(),
        "source_sha": source_digest(),
        "input_sha": hashlib.sha256(inputs).hexdigest()[:16],
        "pool_ops": len(ops),
        "digest_record": recorded is not None,
    }
    if trace:
        limit = ["--limit", str(min(spec.trace_ops, len(ops)))]
        _, plain = worker(inputs, limit)
        _, traced = worker(inputs, limit + ["--trace"])
        bad = find_faults(plain, ops, recorded)
        for i, why in find_faults(traced, ops, recorded, plain["digests"]).items():
            bad.setdefault(i, "traced run: " + why)
        attempted = len(plain["latencies"])
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in traced["trace"].items()}
        metrics["trace_overhead"] = {"value": traced["op_s"] / plain["op_s"], "unit": "ratio"}
        context.update(ops=attempted, folded_spans=traced["folded"])
    else:
        # A shared host alternates between fast and slow stretches, up to
        # 1.6x apart and from seconds to minutes long, so every time is
        # scaled to a fixed interpreter speed: workers time a fixed
        # reference loop (worker.reference) next to what they measure, and
        # a time is divided by the median of the reference times around it
        # over REF_NOMINAL_S.  Set-up samples come from set-up-only workers
        # before and after the timed one, and from the timed one.
        def setup_only() -> list[float]:
            out = []
            for _ in range(SETUP_RUNS // 2):
                setup_s, ready = worker(inputs, ["--setup-only"])
                out.append(setup_s / statistics.median(ready["refs"]) * REF_NOMINAL_S)
            return out

        setups = setup_only()
        # peak RSS is read after the fixed prefix, not at the end, so that it
        # does not grow with the speed-dependent number of operations
        setup_s, result = worker(inputs, ["--seconds", str(seconds), "--rss-after", str(spec.rss_ops)])
        refs = result["refs"]
        setups.append(setup_s / statistics.median(refs[:REF_WINDOW]) * REF_NOMINAL_S)
        setups += setup_only()
        factors = speed_factors(refs)
        lat = [t / f for t, f in zip(result["latencies"], factors)]
        attempted = len(lat)
        bad = find_faults(result, ops, recorded)
        failed = len(bad)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": (attempted - failed) / sum(lat), "unit": "1/s"},
            "op_ms_p50": {"value": 1000.0 * statistics.median(lat), "unit": "ms"},
            "op_ms_tail": {"value": 1000.0 * percentile(lat, spec.tail_pct), "unit": "ms"},
            "peak_rss_mb": {"value": result["rss_kb"] / 1024.0, "unit": "MB"},
        }
        beyond = attempted - math.ceil(spec.tail_pct / 100.0 * attempted)
        context.update(
            ops=attempted,
            tail_percentile=spec.tail_pct,
            tail_samples_beyond=beyond,
            rss_after_ops=min(spec.rss_ops, attempted),
            fail_ratio=failed / attempted,
            op_s=result["op_s"],
            wall_s=result["wall_s"],
            speed_factor=statistics.median(factors),
            setup_runs_s=setups,
            ops_digest=hashlib.sha256("".join(result["digests"]).encode()).hexdigest()[:16],
        )
    context["faults"] = sorted(bad.items())[:5]
    return {
        "context": context,
        "result": {"correct": not bad, "attempted": attempted, "failed": len(bad), "metrics": metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="garside benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check the checker and run every workload on tiny inputs")
    parser.add_argument("--record", action="store_true",
                        help="store in digests.json the digests of this seed's traced prefix "
                             "(with --selfcheck: of every tiny pool)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "garside" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.selfcheck and args.record:
            return max(record(w, "tiny") for w in sorted(workloads.SPECS))
        if args.selfcheck:
            import selfcheck

            return selfcheck.main(bench, find_faults)
        if args.workload is None:
            parser.error("--workload is required")
        if args.record:
            return record(args.workload, args.seed)
        out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"context": out["context"]}, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


def record(workload: str, seed: int | str) -> int:
    """Run the traced prefix (or the whole tiny pool) and store its digests."""
    tiny = seed == "tiny"
    inputs = generate(workload, 0 if tiny else seed, tiny)
    ops = json.loads(inputs)["ops"]
    limit = len(ops) if tiny else min(workloads.SPECS[workload].trace_ops, len(ops))
    _, result = worker(inputs, ["--limit", str(limit)])
    if result["faults"]:
        print(f"error: refusing to record failing operations: {result['faults'][:3]}", file=sys.stderr)
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(workload, {})[str(seed)] = result["digests"]
    # one line per workload and seed keeps the file diffable
    DIGESTS.write_text("{\n" + ",\n".join(
        f" {json.dumps(w)}: {{\n" + ",\n".join(
            f"  {json.dumps(s)}: {json.dumps(d, separators=(',', ':'))}"
            for s, d in sorted(seeds.items())) + "\n }"
        for w, seeds in sorted(table.items())) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

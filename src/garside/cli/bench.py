"""
bench: reproduce the summit-set size comparisons on random braid families.

For each sample the harness generates one braid from the chosen test
family, computes the requested summit sets under a per-sample budget, and
aggregates sizes and wall-clock times per kind.  A sample that blows its
budget only increments the timeout counter; it never contaminates the size
or time aggregates.  Samples are independent, so aggregation is
order-independent (sums and maxima).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import random
import time
from typing import Callable, Iterable, Sequence

from ..core import CanonicalElement
from ..summit import BudgetExceeded, summit_set
from .generators import gen_test1, gen_test2, gen_test3

GENERATORS: dict[int, Callable] = {1: gen_test1, 2: gen_test2, 3: gen_test3}

DEFAULT_SAMPLES = 200
DEFAULT_MAX_SIZE = 10 ** 5

CSV_COLUMNS = (
    "test", "n", "l", "samples", "kind",
    "mean_size", "max_size", "mean_ms", "max_ms", "timeouts",
)


@dataclasses.dataclass(frozen=True)
class BenchRow:
    test: int
    n: int
    l: int
    samples: int
    kind: str
    mean_size: float
    max_size: int
    mean_ms: float
    max_ms: float
    timeouts: int

    def as_csv_row(self) -> list[str]:
        return [
            str(self.test), str(self.n), str(self.l), str(self.samples), self.kind,
            f"{self.mean_size:.2f}", str(self.max_size),
            f"{self.mean_ms:.2f}", f"{self.max_ms:.2f}", str(self.timeouts),
        ]


def run_bench(
    test: int,
    n: int,
    l: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    budget_ms: float | None = None,
    max_size: int | None = DEFAULT_MAX_SIZE,
    kinds: Sequence[str] = ("ultra", "star"),
) -> list[BenchRow]:
    """
    Benchmark one (test, n, l) cell: per-kind mean/max summit-set sizes and
    times over `samples` random braids.
    """
    if test not in GENERATORS:
        raise ValueError("test must be 1, 2 or 3")
    gen = GENERATORS[test]
    rng = random.Random(seed)
    sizes: dict[str, list[int]] = {k: [] for k in kinds}
    times: dict[str, list[float]] = {k: [] for k in kinds}
    timeouts: dict[str, int] = {k: 0 for k in kinds}
    for _ in range(samples):
        x = gen(n, l, rng)
        for kind in kinds:
            try:
                ss, ms = _timed_summit(x, kind, budget_ms, max_size)
            except BudgetExceeded:
                timeouts[kind] += 1
                continue
            sizes[kind].append(len(ss))
            times[kind].append(ms)
    rows = []
    for kind in kinds:
        done = sizes[kind]
        rows.append(
            BenchRow(
                test=test, n=n, l=l, samples=samples, kind=kind,
                mean_size=(sum(done) / len(done)) if done else 0.0,
                max_size=max(done) if done else 0,
                mean_ms=(sum(times[kind]) / len(done)) if done else 0.0,
                max_ms=max(times[kind]) if done else 0.0,
                timeouts=timeouts[kind],
            )
        )
    return rows


def _timed_summit(
    x: CanonicalElement,
    kind: str,
    budget_ms: float | None,
    max_size: int | None,
) -> tuple:
    t0 = time.monotonic()
    ss = summit_set(x, kind, budget_ms=budget_ms, max_size=max_size)
    return ss, (time.monotonic() - t0) * 1000.0


def rows_to_csv(rows: Iterable[BenchRow], header_lines: Sequence[str] = ()) -> str:
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_csv_row())
    return buf.getvalue()

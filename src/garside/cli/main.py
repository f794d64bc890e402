"""
main: argparse frontend.

Commands: nf, cyc, summit, conj, rigid, rigid-power, gen, bench.  Words use
the syntax of parse_word: whitespace-separated nonzero integers (negative
for inverse generators) and "D"/"D^-1" letters.  Exit codes: 0 success,
1 "not conjugate" from conj, 2 input error, 3 budget exceeded.

With --json the output of every command except bench is a single sorted
JSON object and is byte-identical across runs for identical flags and
seed; bench emits CSV whose timing columns naturally vary.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from ..braid import WordError, parse_word, perm_to_one_indexed, word_str
from ..core import CanonicalElement
from ..cycling import cyc, cyc_pq, cyc_q
from ..rigid import c_star_star_rigid, is_rigid, rigid_power
from ..summit import BudgetExceeded, decide_conjugacy, summit_set
from .bench import DEFAULT_MAX_SIZE, DEFAULT_SAMPLES, GENERATORS, rows_to_csv, run_bench
from .generators import GENERATOR_SEED_NOTE

EXIT_OK = 0
EXIT_NOT_CONJUGATE = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3

RNG_NAME = "random.Random (Mersenne Twister)"


def _factors_payload(x: CanonicalElement) -> list[list[int]]:
    return [perm_to_one_indexed(f) for f in x.factors]


def _element_payload(x: CanonicalElement) -> dict:
    return {
        "inf": x.inf,
        "sup": x.sup,
        "len": x.clen,
        "power": x.power,
        "factors": _factors_payload(x),
        "word": word_str(x),
    }


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in human_lines:
            print(line)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GARSIDE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise WordError(f"GARSIDE_SEED must be an integer, got {env!r}") from None
    return 0


def _parse(args, text: str) -> CanonicalElement:
    return parse_word(text, args.n)


def cmd_nf(args) -> int:
    x = _parse(args, args.word)
    _emit(args, _element_payload(x), [
        f"inf {x.inf}  sup {x.sup}  len {x.clen}",
        f"word: {word_str(x) or '(identity)'}",
        f"factors: {_factors_payload(x)}",
    ])
    return EXIT_OK


def cmd_cyc(args) -> int:
    x = _parse(args, args.word)
    if args.double is not None:
        p, q = args.double
        y, c = cyc_pq(x, p, q)
        label = f"cycling of order ({p},{q})"
    elif args.order is not None:
        y, c = cyc_q(x, args.order)
        label = f"cycling of order {args.order}"
    else:
        y = cyc(x)
        c = None
        label = "classical cycling"
    payload = {"result": _element_payload(y)}
    lines = [f"{label}:", f"  result: {word_str(y) or '(identity)'}"]
    if c is not None:
        payload["conjugator"] = _element_payload(c)
        lines.append(f"  conjugator: {word_str(c) or '(identity)'}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_summit(args) -> int:
    x = _parse(args, args.word)
    ss = summit_set(x, args.kind, budget_ms=args.budget_ms, max_size=args.max_size)
    # sorted members plus (infs, sups, kind): byte-stable
    payload = {
        "kind": ss.kind,
        "infs": ss.infs,
        "sups": ss.sups,
        "size": len(ss),
        "members": [{"power": m.power, "factors": _factors_payload(m)} for m in ss.members],
        "words": [word_str(m) for m in ss.members],
    }
    lines = [
        f"{args.kind} summit set: {len(ss)} members, infs {ss.infs}, sups {ss.sups}",
    ]
    lines += [f"  {word_str(m) or '(identity)'}" for m in ss.members]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_conj(args) -> int:
    x = _parse(args, args.word)
    y = _parse(args, args.word2)
    ans = decide_conjugacy(x, y, budget_ms=args.budget_ms, max_size=args.max_size)
    payload = {"conjugate": ans.conjugate}
    if ans.conjugate:
        payload["witness"] = word_str(ans.witness)
        _emit(args, payload, [f"conjugate: true", f"witness: {word_str(ans.witness) or '(identity)'}"])
        return EXIT_OK
    _emit(args, payload, ["conjugate: false"])
    return EXIT_NOT_CONJUGATE


def cmd_rigid(args) -> int:
    x = _parse(args, args.word)
    rigid = is_rigid(x)
    payload = {"rigid": rigid}
    lines = [f"rigid: {'true' if rigid else 'false'}"]
    if rigid and args.conjugates:
        css = c_star_star_rigid(x)
        payload["rigid_conjugates"] = [word_str(m) for m in css.members]
        lines.append(f"rigid conjugates: {len(css)}")
        lines += [f"  {word_str(m)}" for m in css.members]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_rigid_power(args) -> int:
    if args.n > 6:
        raise WordError(
            "rigid-power evaluates summit bounds of ||D|| powers; "
            "that is capped at n <= 6 (use the library API beyond)"
        )
    x = _parse(args, args.word)
    report = rigid_power(x)
    n1, n2 = report.exponents
    payload = {"stable_exponents": [n1, n2], "rigid": report.is_rigid}
    lines = [f"stable exponents: N1={n1} N2={n2}", f"rigid power found: {report.is_rigid}"]
    if report.is_rigid:
        payload["power"] = report.power
        payload["rigid_conjugate"] = _element_payload(report.rigid_conjugate)
        payload["witness"] = word_str(report.witness)
        lines.append(f"power: {report.power}")
        lines.append(f"rigid conjugate: {word_str(report.rigid_conjugate)}")
        lines.append(f"witness: {word_str(report.witness) or '(identity)'}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    x = GENERATORS[args.test](args.n, args.l, seed)
    payload = {
        "test": args.test, "n": args.n, "l": args.l, "seed": seed,
        "generator": RNG_NAME,
        "element": _element_payload(x),
    }
    _emit(args, payload, [
        f"# seed={seed} generator={RNG_NAME}",
        word_str(x) or "(identity)",
    ])
    return EXIT_OK


def cmd_bench(args) -> int:
    seed = _resolve_seed(args)
    rows = run_bench(
        test=args.test, n=args.n, l=args.l,
        samples=args.samples, seed=seed,
        budget_ms=args.budget_ms, max_size=args.max_size,
        kinds=tuple(args.kinds.split(",")),
    )
    sys.stdout.write(rows_to_csv(rows, header_lines=[
        f"seed={seed} generator={RNG_NAME}",
        GENERATOR_SEED_NOTE,
    ]))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="garside", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True, help="strand count")
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (fallback: env GARSIDE_SEED, then 0)")
    common.add_argument("--budget-ms", type=float, default=None, dest="budget_ms",
                        help="wall-clock budget per computation in ms")
    common.add_argument("--max-size", type=int, default=None, dest="max_size",
                        help="abort summit computations beyond this many members")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("nf", parents=[common], help="left normal form of a word")
    p.add_argument("word")
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("cyc", parents=[common], help="cycling operations")
    p.add_argument("--order", type=int, default=None, help="cycling order q")
    p.add_argument("--double", type=int, nargs=2, default=None, metavar=("P", "Q"),
                   help="double-order cycling (p, q)")
    p.add_argument("word")
    p.set_defaults(fn=cmd_cyc)

    p = sub.add_parser("summit", parents=[common], help="summit-set computation")
    p.add_argument("--kind", choices=("super", "ultra", "star"), default="star")
    p.add_argument("word")
    p.set_defaults(fn=cmd_summit)

    p = sub.add_parser("conj", parents=[common], help="decide conjugacy with witness")
    p.add_argument("word")
    p.add_argument("word2")
    p.set_defaults(fn=cmd_conj)

    p = sub.add_parser("rigid", parents=[common], help="rigidity test")
    p.add_argument("--conjugates", action="store_true",
                   help="also list the rigid conjugates (rigid input only)")
    p.add_argument("word")
    p.set_defaults(fn=cmd_rigid)

    p = sub.add_parser("rigid-power", parents=[common],
                       help="stable exponents and rigid-power detection")
    p.add_argument("word")
    p.set_defaults(fn=cmd_rigid_power)

    p = sub.add_parser("gen", parents=[common], help="random braid generators")
    p.add_argument("--test", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--l", type=int, required=True, help="target length parameter")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", parents=[common], help="benchmark harness (CSV)")
    p.add_argument("--test", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--kinds", default="ultra,star",
                   help="comma-separated summit kinds to benchmark")
    p.set_defaults(fn=cmd_bench, max_size=DEFAULT_MAX_SIZE)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (WordError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

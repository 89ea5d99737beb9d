"""Command-line front end.

Subcommands: ``recover`` (polynomial -> partition or rejection),
``check`` (exit code only), ``build`` (partition -> polynomial),
``random`` (seeded instance generation), ``bench`` (delta vs naive
timing).  ``recover`` and ``check`` read one polynomial per stdin line
when the positional argument is omitted and emit one result line each,
in input order.

Exit codes: 0 success / Hilbert, 1 not Hilbert, 2 usage, parse or other
error.  Batch mode reports errors per line and exits with the worst code.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Callable

from .partition import (
    NonPositivePartError,
    NotNonIncreasingError,
    Partition,
    PartitionSyntaxError,
    build_hilbert,
    format_exponent_form,
    format_partition,
    parse_partition,
    random_partition,
    to_exponent_form,
)
from .polynomial import (
    Polynomial,
    PolynomialSyntaxError,
    format_polynomial,
    format_rational,
    parse_polynomial,
)
from .recovery import Outcome, Success, recover_delta, recover_naive


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--engine",
        choices=("delta", "naive"),
        default="delta",
        help="recovery engine (default: delta)",
    )
    common.add_argument(
        "--r-max",
        type=_positive_int,
        default=10,
        metavar="K",
        help="partition-length bound for the naive engine (default: 10)",
    )
    common.add_argument(
        "--ambient",
        type=_positive_int,
        default=None,
        metavar="N",
        help="also report whether the largest part fits within N",
    )
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="seed for the random subcommand",
    )
    common.add_argument(
        "--verbose",
        action="store_true",
        help="include the per-round recovery trace",
    )

    parser = argparse.ArgumentParser(
        prog="hilbert-lambda",
        description="Decide Hilbert-ness of a rational polynomial and recover its partition.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    recover = commands.add_parser(
        "recover",
        parents=[common],
        help="recover the partition from a polynomial (stdin batch when omitted)",
    )
    recover.add_argument("polynomial", nargs="?", default=None, help="polynomial text, e.g. '3*x + 1'")
    recover.set_defaults(handler=_cmd_recover)

    check = commands.add_parser(
        "check",
        parents=[common],
        help="exit 0 iff the polynomial is a Hilbert polynomial (stdin batch when omitted)",
    )
    check.add_argument("polynomial", nargs="?", default=None, help="polynomial text")
    check.set_defaults(handler=_cmd_check)

    build = commands.add_parser(
        "build",
        parents=[common],
        help="build the polynomial a partition generates",
    )
    build.add_argument("partition", help="partition text, e.g. '(2^3,1)' or '[2,2,2,1]'")
    build.set_defaults(handler=_cmd_build)

    rand = commands.add_parser(
        "random",
        parents=[common],
        help="emit a uniformly random partition and its polynomial",
    )
    rand.add_argument("max_part", type=_positive_int, help="largest allowed part")
    rand.add_argument("max_len", type=_positive_int, help="largest allowed number of parts")
    rand.set_defaults(handler=_cmd_random)

    bench = commands.add_parser(
        "bench",
        parents=[common],
        help="time both engines on the staircase partition (degree+1, degree, ..., 1)",
    )
    bench.add_argument("degree", type=_positive_int, help="degree of the benchmark polynomial")
    bench.add_argument("reps", type=_positive_int, nargs="?", default=5, help="timed repetitions (default: 5)")
    bench.set_defaults(handler=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except Exception as exc:  # exit 1 means "not Hilbert", which a crash must not claim
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))


def _run_engine(p: Polynomial, args: argparse.Namespace) -> Outcome:
    if args.engine == "naive":
        return recover_naive(p, args.r_max)
    return recover_delta(p, want_trace=args.verbose)


def _print_syntax_error(text: str, exc: PolynomialSyntaxError) -> None:
    print(f"error: {exc}", file=sys.stderr)
    print(f"  {text}", file=sys.stderr)
    print("  " + " " * exc.position + "^", file=sys.stderr)


# ceiling on the expanded part count before lambda_flat is suppressed;
# recovered multiplicities can reach 10^80+ even for small inputs
FLAT_PARTS_LIMIT = 100_000


def _recover_payload(text: str, outcome: Outcome, ambient: int | None) -> dict:
    if isinstance(outcome, Success):
        pairs = outcome.form.pairs
        total_parts = sum(mult for _, mult in pairs)
        warnings = list(outcome.warnings)
        if total_parts <= FLAT_PARTS_LIMIT:
            flat: list[int] | None = list(outcome.flat().parts)
        else:
            flat = None
            warnings.append(
                f"partition has {total_parts} parts; lambda_flat suppressed, see lambda_exp"
            )
        payload: dict = {
            "input": text,
            "hilbert": True,
            "lambda_flat": flat,
            "lambda_exp": [[value, mult] for value, mult in pairs],
            "reason": None,
        }
        if warnings:
            payload["warnings"] = warnings
        if ambient is not None:
            largest = pairs[0][0] if pairs else 0
            payload["ambient"] = {"n": ambient, "ok": largest <= ambient}
    else:
        payload = {
            "input": text,
            "hilbert": False,
            "lambda_flat": [],
            "lambda_exp": [],
            "reason": outcome.reason.describe(),
        }
    if outcome.trace is not None:
        payload["trace"] = [{"m": step.m, "r": step.r, "s": step.s, "e": step.e} for step in outcome.trace]
    return payload


def _recover_text_line(outcome: Outcome, ambient: int | None) -> str:
    if isinstance(outcome, Success):
        line = f"λ = {format_exponent_form(outcome.form)}"
        if ambient is not None:
            largest = outcome.form.pairs[0][0] if outcome.form.pairs else 0
            verdict = "ok" if largest <= ambient else "exceeded"
            line += f"  [ambient n={ambient}: {verdict}]"
        return line
    return f"not a Hilbert polynomial: {outcome.reason.describe()}"


def _print_side_channel(outcome: Outcome, args: argparse.Namespace) -> None:
    # warnings and the verbose trace go to stderr so stdout stays parseable
    if args.format != "text":
        return
    if isinstance(outcome, Success):
        for warning in outcome.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    if args.verbose and outcome.trace is not None:
        for step in outcome.trace:
            residual = ",".join(format_rational(value) for value in step.residual)
            print(f"trace: m={step.m} r={step.r} s={step.s} e={step.e} residual=({residual})", file=sys.stderr)


def _batch(args: argparse.Namespace, render: Callable[[str, Outcome], str]) -> int:
    worst = 0
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        try:
            outcome = _run_engine(parse_polynomial(line), args)
            print(render(line, outcome))
        except Exception as exc:  # a parse error or a crash costs this line only
            if args.format == "json":
                print(json.dumps({"input": line, "error": str(exc)}))
            else:
                print(f"error: {exc}")
            worst = max(worst, 2)
            continue
        if not isinstance(outcome, Success):
            worst = max(worst, 1)
    return worst


def _cmd_recover(args: argparse.Namespace) -> int:
    if args.polynomial is None:

        def render(line: str, outcome: Outcome) -> str:
            if args.format == "json":
                return json.dumps(_recover_payload(line, outcome, args.ambient))
            return _recover_text_line(outcome, args.ambient)

        return _batch(args, render)

    try:
        p = parse_polynomial(args.polynomial)
    except PolynomialSyntaxError as exc:
        _print_syntax_error(args.polynomial, exc)
        return 2
    outcome = _run_engine(p, args)
    if args.format == "json":
        print(json.dumps(_recover_payload(args.polynomial, outcome, args.ambient)))
    else:
        print(_recover_text_line(outcome, args.ambient))
        _print_side_channel(outcome, args)
    return 0 if isinstance(outcome, Success) else 1


def _cmd_check(args: argparse.Namespace) -> int:
    if args.polynomial is None:

        def render(line: str, outcome: Outcome) -> str:
            if args.format == "json":
                return json.dumps(_recover_payload(line, outcome, args.ambient))
            return "hilbert" if isinstance(outcome, Success) else "not-hilbert"

        return _batch(args, render)

    try:
        p = parse_polynomial(args.polynomial)
    except PolynomialSyntaxError as exc:
        _print_syntax_error(args.polynomial, exc)
        return 2
    outcome = _run_engine(p, args)
    return 0 if isinstance(outcome, Success) else 1


def _cmd_build(args: argparse.Namespace) -> int:
    try:
        partition = parse_partition(args.partition)
    except (PartitionSyntaxError, NonPositivePartError, NotNonIncreasingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    p = build_hilbert(partition)
    if args.format == "json":
        payload = {
            "input": args.partition,
            "lambda_flat": list(partition.parts),
            "lambda_exp": [[value, mult] for value, mult in to_exponent_form(partition).pairs],
            "polynomial": format_polynomial(p),
            "coeffs": [format_rational(c) for c in p.coeffs],
        }
        print(json.dumps(payload))
    else:
        print(format_polynomial(p))
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    partition = random_partition(args.max_part, args.max_len, rng)
    p = build_hilbert(partition)
    if args.format == "json":
        payload = {
            "lambda_flat": list(partition.parts),
            "lambda_exp": [[value, mult] for value, mult in to_exponent_form(partition).pairs],
            "polynomial": format_polynomial(p),
        }
        print(json.dumps(payload))
    else:
        print(f"λ = {format_partition(partition)}")
        print(f"p = {format_polynomial(p)}")
    return 0


def _time_engine(runner: Callable[[], Outcome], reps: int) -> tuple[float, Outcome]:
    outcome = runner()  # warmup, and the value every timed run must reproduce
    total = 0.0
    for _ in range(reps):
        began = time.perf_counter()
        repeat = runner()
        total += time.perf_counter() - began
        if repeat != outcome:
            raise RuntimeError("engine returned different results across repetitions")
    return total / reps, outcome


def _cmd_bench(args: argparse.Namespace) -> int:
    staircase = Partition(tuple(range(args.degree + 1, 0, -1)))
    p = build_hilbert(staircase)
    r_max = args.degree + 1
    delta_mean, delta_outcome = _time_engine(lambda: recover_delta(p), args.reps)
    naive_mean, naive_outcome = _time_engine(lambda: recover_naive(p, r_max), args.reps)
    if not (
        isinstance(delta_outcome, Success)
        and isinstance(naive_outcome, Success)
        and delta_outcome.form == naive_outcome.form == to_exponent_form(staircase)
    ):
        raise RuntimeError("engines disagree on the benchmark partition")
    ratio = naive_mean / delta_mean if delta_mean > 0 else float("inf")
    if args.format == "json":
        payload = {
            "lambda_flat": list(staircase.parts),
            "polynomial": format_polynomial(p),
            "reps": args.reps,
            "delta_mean_s": delta_mean,
            "naive_mean_s": naive_mean,
            "ratio_naive_over_delta": ratio,
        }
        print(json.dumps(payload))
    else:
        print(f"λ = {format_partition(staircase)}")
        print(f"p = {format_polynomial(p)}")
        print(f"delta: mean {delta_mean:.6f} s over {args.reps} reps")
        print(f"naive: mean {naive_mean:.6f} s over {args.reps} reps (r_max={r_max})")
        print(f"ratio naive/delta = {ratio:.2f}")
    return 0

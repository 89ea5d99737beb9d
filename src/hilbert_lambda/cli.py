"""Command-line front end.

Subcommands: ``recover`` (polynomial -> partition or rejection),
``check`` (verdict only, no options), ``build`` (partition -> polynomial),
``random`` (seeded instance generation).  ``recover`` and ``check`` read
one polynomial per stdin line when the positional argument is omitted and
emit one result line each, in input order; a polynomial argument is
decided as a batch of one.

Exit codes: 0 success / Hilbert, 1 not Hilbert, 2 usage, parse or other
error.  Batch mode reports errors per line and exits with the worst code.
The console script and ``python -m`` take the default SIGPIPE action, so a
reader that closes the pipe early ends them quietly (shell status 141).
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
from typing import Callable

from .partition import build_hilbert, format_exponent_form, parse_partition, random_partition
from .polynomial import PolynomialSyntaxError, digit_limit_text, format_polynomial, format_rational, parse_polynomial
from .recovery import Outcome, Success, recover_delta


def _digits(text: str) -> int | None:
    try:  # decimal digits only, as in partition text: int() also reads "1_0", "+3" and "-1"
        return int(text) if text.isdecimal() else None
    except ValueError:  # past the int-to-str digit limit
        raise argparse.ArgumentTypeError(digit_limit_text(text)) from None


def _positive_int(text: str) -> int:
    value = _digits(text)
    if not value:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _seed(text: str) -> int:
    value = _digits(text)
    if value is None:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


_OPTIONS = {
    "--ambient": {
        "type": _positive_int,
        "default": None,
        "metavar": "N",
        "help": "also report whether the largest part fits within N",
    },
    "--verbose": {"action": "store_true", "help": "include the per-round recovery trace"},
    "--format": {"choices": ("text", "json"), "default": "text", "help": "output format (default: text)"},
    "--seed": {"type": _seed, "default": None, "metavar": "S", "help": "random seed (default: unseeded)"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbert-lambda",
        description="Decide Hilbert-ness of a rational polynomial and recover its partition.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable, options: tuple[str, ...], help_text: str):
        # each subcommand takes only the options it reads; any other is a usage error
        sub = commands.add_parser(name, help=help_text, description=help_text)
        for option in options:
            sub.add_argument(option, **_OPTIONS[option])
        sub.set_defaults(handler=handler)
        return sub

    recover = add(
        "recover",
        _cmd_decide,
        ("--ambient", "--format", "--verbose"),
        "recover the partition from a polynomial (stdin batch when omitted)",
    )
    recover.add_argument("polynomial", nargs="?", default=None, help="polynomial text, e.g. '3*x + 1'")
    check = add(
        "check", _cmd_decide, (), "exit 0 iff the polynomial is a Hilbert polynomial (stdin batch when omitted)"
    )
    check.add_argument("polynomial", nargs="?", default=None, help="polynomial text")
    # check prints a verdict only: the values recover's options set are fixed
    check.set_defaults(format="text", ambient=None, verbose=False)
    build = add("build", _cmd_build, ("--format",), "build the polynomial a partition generates")
    build.add_argument("partition", help="partition text, e.g. '(2^3,1)' or '[2,2,2,1]'")
    rand = add(
        "random", _cmd_random, ("--format", "--seed"), "emit a uniformly random partition and its polynomial"
    )
    rand.add_argument("max_part", type=_positive_int, help="largest allowed part")
    rand.add_argument("max_len", type=_positive_int, help="largest allowed number of parts")
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
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return 2


def _error_text(exc: Exception) -> str:
    # a MemoryError has no text of its own
    return str(exc) or type(exc).__name__


def run() -> None:
    """Entry point of the console script and ``python -m``."""
    if hasattr(signal, "SIGPIPE"):  # a reader that closes stdout early ends the process quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main(sys.argv[1:]))


# ceiling on the expanded part count before lambda_flat is suppressed;
# recovered multiplicities can reach 10^80+ even for small inputs
FLAT_PARTS_LIMIT = 100_000


def _fits_ambient(outcome: Success, ambient: int) -> bool:
    # the first pair holds the largest part; the empty partition fits anywhere
    pairs = outcome.form.pairs
    return not pairs or pairs[0][0] <= ambient


def _put_lambda(payload: dict, answer: Success) -> None:
    """Fill the keys every JSON λ has: ``lambda_flat``, ``lambda_exp`` and,
    if there are any, ``warnings``.  Keys already in ``payload`` keep their
    place.  ``lambda_flat`` is null past FLAT_PARTS_LIMIT parts."""
    pairs = answer.form.pairs
    total_parts = sum(mult for _, mult in pairs)
    warnings = list(answer.warnings)
    if total_parts <= FLAT_PARTS_LIMIT:
        payload["lambda_flat"] = list(answer.flat().parts)
    else:
        payload["lambda_flat"] = None
        warnings.append(f"partition has {total_parts} parts; lambda_flat suppressed, see lambda_exp")
    payload["lambda_exp"] = [[value, mult] for value, mult in pairs]
    if warnings:
        payload["warnings"] = warnings


def _recover_payload(text: str, outcome: Outcome, ambient: int | None) -> dict:
    if isinstance(outcome, Success):
        payload: dict = {"input": text, "hilbert": True, "lambda_flat": None, "lambda_exp": None, "reason": None}
        _put_lambda(payload, outcome)
        if ambient is not None:
            payload["ambient"] = {"n": ambient, "ok": _fits_ambient(outcome, ambient)}
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
            verdict = "ok" if _fits_ambient(outcome, ambient) else "exceeded"
            line += f"  [ambient n={ambient}: {verdict}]"
        return line
    return f"not a Hilbert polynomial: {outcome.reason.describe()}"


def _render(text: str, outcome: Outcome, args: argparse.Namespace, single: bool) -> str | None:
    """The stdout line for one decided polynomial; ``check`` on an argument has none."""
    if args.command == "check":
        return None if single else ("hilbert" if isinstance(outcome, Success) else "not-hilbert")
    if args.format == "json":
        return json.dumps(_recover_payload(text, outcome, args.ambient))
    return _recover_text_line(outcome, args.ambient)


def _print_side_channel(outcome: Outcome, verbose: bool) -> None:
    # warnings and the verbose trace go to stderr so stdout stays parseable
    if isinstance(outcome, Success):
        for warning in outcome.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    if verbose and outcome.trace is not None:
        for step in outcome.trace:
            residual = ",".join(map(str, step.residual))
            print(f"trace: m={step.m} r={step.r} s={step.s} e={step.e} residual=({residual})", file=sys.stderr)


def _print_error(text: str, exc: Exception, args: argparse.Namespace, single: bool) -> None:
    message = _error_text(exc)
    if not single:  # a stdin line's error takes that line's place on stdout
        print(json.dumps({"input": text, "error": message}) if args.format == "json" else f"error: {message}")
        return
    print(f"error: {message}", file=sys.stderr)
    if isinstance(exc, PolynomialSyntaxError):
        print(f"  {text}", file=sys.stderr)
        print("  " + " " * exc.position + "^", file=sys.stderr)


def _cmd_decide(args: argparse.Namespace) -> int:
    """``recover`` and ``check``: a polynomial argument is a batch of one."""
    single = args.polynomial is not None
    texts = [args.polynomial] if single else (line for line in map(str.strip, sys.stdin) if line)
    worst = 0
    for text in texts:
        try:
            outcome = recover_delta(parse_polynomial(text), want_trace=args.verbose)
            shown = _render(text, outcome, args, single)
        except Exception as exc:  # a parse error or a crash costs this polynomial only
            _print_error(text, exc, args, single)
            worst = 2
            continue
        if shown is not None:
            print(shown)
        if args.command == "recover" and args.format == "text":
            _print_side_channel(outcome, args.verbose)
        if not isinstance(outcome, Success):
            worst = max(worst, 1)
    return worst


def _cmd_build(args: argparse.Namespace) -> int:
    form = parse_partition(args.partition)
    p = build_hilbert(form)
    if args.format == "json":
        payload = {"input": args.partition, "lambda_flat": None, "lambda_exp": None}
        payload["polynomial"] = format_polynomial(p)
        payload["coeffs"] = [format_rational(c) for c in p.coeffs]
        _put_lambda(payload, Success(form))
        print(json.dumps(payload))
    else:
        print(format_polynomial(p))
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    form = random_partition(args.max_part, args.max_len, random.Random(args.seed))
    p = build_hilbert(form)
    if args.format == "json":
        payload = {"lambda_flat": None, "lambda_exp": None, "polynomial": format_polynomial(p)}
        _put_lambda(payload, Success(form))
        print(json.dumps(payload))
    else:
        print(f"λ = {format_exponent_form(form)}")
        print(f"p = {format_polynomial(p)}")
    return 0

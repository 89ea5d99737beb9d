"""Command-line front end.

Subcommands: ``recover`` (polynomial -> partition or rejection),
``check`` (verdict only, no options), ``build`` (partition -> polynomial),
``random`` (seeded instance generation).  ``recover`` and ``check`` read
one polynomial per stdin line when the positional argument is omitted and
emit one result line each, in input order; a polynomial argument is
decided as a batch of one.  Both run one decide loop, each with its own
renderer; every subcommand declares its own options.  A JSON object is
written as one line of ready-made tokens in ``json.dumps``'s key order and
separators: fixed keys and literals are constants, strings go through
``json.dumps`` and integers through :func:`~hilbert_lambda.polynomial.int_text`,
so an answer of any size prints.

Exit codes: 0 success / Hilbert, 1 not Hilbert, 2 usage, parse or other
error.  Batch mode reports errors per line and exits with the worst code;
an argument's error goes up to ``main``, which reports every command's on stderr.
The console script and ``python -m`` take the default SIGPIPE action, so a
reader that closes the pipe early ends them quietly (shell status 141).
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
from typing import Callable, Iterable

from .partition import ExponentForm, build_hilbert, format_exponent_form, parse_partition, random_partition
from .polynomial import (
    PolynomialSyntaxError,
    coefficient_texts,
    format_polynomial,
    int_text,
    parse_polynomial,
    read_int,
)
from .recovery import Outcome, Success, recover_delta


def _digits(text: str) -> int | None:
    # decimal digits only, as in partition text: int() also reads "1_0", "+3" and "-1"
    return read_int(text, argparse.ArgumentTypeError) if text.isdecimal() else None


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbert-lambda",
        description="Decide Hilbert-ness of a rational polynomial and recover its partition.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable[[argparse.Namespace], int], help_text: str) -> argparse.ArgumentParser:
        # each subcommand takes only the options it reads; any other is a usage error
        sub = commands.add_parser(name, help=help_text, description=help_text)
        sub.set_defaults(handler=handler)
        return sub

    formats = {"choices": ("text", "json"), "default": "text", "help": "output format (default: text)"}
    recover = add("recover", _cmd_recover, "recover the partition from a polynomial (stdin batch when omitted)")
    recover.add_argument(
        "--ambient", type=_positive_int, metavar="N", help="also report whether the largest part fits within N"
    )
    recover.add_argument("--format", **formats)
    recover.add_argument("--verbose", action="store_true", help="include the per-round recovery trace")
    leading_minus = "; one that starts with '-' goes after '--'"
    recover.add_argument("polynomial", nargs="?", help="polynomial text, e.g. '3*x + 1'" + leading_minus)
    check = add("check", _cmd_check, "exit 0 iff the polynomial is a Hilbert polynomial (stdin batch when omitted)")
    check.add_argument("polynomial", nargs="?", help="polynomial text" + leading_minus)
    build = add("build", _cmd_build, "build the polynomial a partition generates")
    build.add_argument("--format", **formats)
    build.add_argument("partition", help="partition text, e.g. '(2^3,1)' or '[2,2,2,1]'")
    rand = add("random", _cmd_random, "emit a uniformly random partition and its polynomial")
    rand.add_argument("--format", **formats)
    rand.add_argument("--seed", type=_seed, metavar="S", help="random seed (default: unseeded)")
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
        if isinstance(exc, PolynomialSyntaxError):  # only a polynomial argument raises one this far
            print(f"  {args.polynomial}\n  {' ' * exc.position}^", file=sys.stderr)
        return 2


def _error_text(exc: Exception) -> str:
    return str(exc) or type(exc).__name__  # a MemoryError has no text of its own


def run() -> None:
    """Entry point of the console script and ``python -m``."""
    if hasattr(signal, "SIGPIPE"):  # a reader that closes stdout early ends the process quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main(sys.argv[1:]))


# ceiling on the expanded part count before lambda_flat is suppressed;
# recovered multiplicities can reach 10^80+ even for small inputs
FLAT_PARTS_LIMIT = 100_000
# json.dumps(text) for a str, without json.dumps's checks of its keywords
_json_string = json.encoder.encode_basestring_ascii


def _array(items: Iterable[str]) -> str:
    """A JSON array of encoded items."""
    return f"[{', '.join(items)}]"


def _lambda_keys(form: ExponentForm, warnings: tuple[str, ...] = ()) -> tuple[str, str]:
    """The keys every JSON λ has, ``lambda_flat`` and ``lambda_exp``, and the
    ``warnings`` key after its comma, or "" when there are none.
    ``lambda_flat`` is null past FLAT_PARTS_LIMIT parts, and a warning says so."""
    total_parts = sum(mult for _, mult in form.pairs)  # not len(form), which overflows past sys.maxsize
    expand = total_parts <= FLAT_PARTS_LIMIT
    flat, runs = [], []
    for value, mult in form.pairs:
        text = int_text(value)
        runs.append(f"[{text}, {int_text(mult)}]")
        if expand:
            flat += [text] * mult
    if not expand:
        warnings += (f"partition has {int_text(total_parts)} parts; lambda_flat suppressed, see lambda_exp",)
    warnings_json = f', "warnings": {_array(map(_json_string, warnings))}' if warnings else ""
    return f'"lambda_flat": {_array(flat) if expand else "null"}, "lambda_exp": {_array(runs)}', warnings_json


def _decide(
    polynomial: str | None, render: Callable[[str, Outcome], None], *, want_trace: bool = False, as_json: bool = False
) -> int:
    """Decide ``polynomial``, or each non-blank stdin line when it is None, and
    hand each outcome to ``render``; returns the worst exit code.  An argument
    is a batch of one whose error goes up to ``main``.  ``parse_polynomial``
    and ``recover_delta`` are looked up as module globals, which tests and
    the benchmark's tracer replace."""
    single = polynomial is not None
    texts = [polynomial] if single else (line for line in map(str.strip, sys.stdin) if line)
    worst = 0
    for text in texts:
        try:
            outcome = recover_delta(parse_polynomial(text), want_trace=want_trace)
            render(text, outcome)
        except Exception as exc:  # a stdin line's error takes that line's place on stdout
            if single:
                raise
            message = _error_text(exc)
            line = f'{{"input": {_json_string(text)}, "error": {_json_string(message)}}}'
            print(line if as_json else f"error: {message}")
            worst = 2
            continue
        if not isinstance(outcome, Success):
            worst = max(worst, 1)
    return worst


def _cmd_recover(args: argparse.Namespace) -> int:
    ambient = args.ambient

    def fits(answer: Success) -> bool:
        # the first pair holds the largest part; the empty partition fits anywhere
        pairs = answer.form.pairs
        return not pairs or pairs[0][0] <= ambient

    def as_json(text: str, outcome: Outcome) -> None:
        # a step's first four fields, m, r, s and e: the residual is for text mode
        trace = "" if outcome.trace is None else ', "trace": ' + _array(
            f'{{"m": {int_text(m)}, "r": {int_text(r)}, "s": {int_text(s)}, "e": {int_text(e)}}}'
            for m, r, s, e, _ in outcome.trace
        )
        if isinstance(outcome, Success):
            lam, warnings = _lambda_keys(outcome.form, outcome.warnings)
            fit = ""
            if ambient is not None:
                ok = "true" if fits(outcome) else "false"
                fit = f', "ambient": {{"n": {int_text(ambient)}, "ok": {ok}}}'
            print(f'{{"input": {_json_string(text)}, "hilbert": true, {lam}, "reason": null{warnings}{fit}{trace}}}')
        else:
            reason = _json_string(outcome.reason.describe())
            print(
                f'{{"input": {_json_string(text)}, "hilbert": false, "lambda_flat": [], "lambda_exp": [],'
                f' "reason": {reason}{trace}}}'
            )

    def as_text(text: str, outcome: Outcome) -> None:
        # stdout has the one result line; warnings and the trace go to stderr
        if isinstance(outcome, Success):
            fit = ""
            if ambient is not None:
                fit = f"  [ambient n={int_text(ambient)}: {'ok' if fits(outcome) else 'exceeded'}]"
            print(f"λ = {format_exponent_form(outcome.form)}{fit}")
            for warning in outcome.warnings:
                print(f"warning: {warning}", file=sys.stderr)
        else:
            print(f"not a Hilbert polynomial: {outcome.reason.describe()}")
        for step in outcome.trace or ():
            m, r, s, e = map(int_text, step[:4])
            residual = ",".join(map(int_text, step.residual))
            print(f"trace: m={m} r={r} s={s} e={e} residual=({residual})", file=sys.stderr)

    json_mode = args.format == "json"
    return _decide(args.polynomial, as_json if json_mode else as_text, want_trace=args.verbose, as_json=json_mode)


def _cmd_check(args: argparse.Namespace) -> int:
    def verdict(text: str, outcome: Outcome) -> None:
        # an argument's verdict is its exit code alone
        if args.polynomial is None:
            print("hilbert" if isinstance(outcome, Success) else "not-hilbert")

    return _decide(args.polynomial, verdict)


def _cmd_build(args: argparse.Namespace) -> int:
    form = parse_partition(args.partition)
    p = build_hilbert(form)
    if args.format == "json":
        lam, warnings = _lambda_keys(form)
        polynomial, coeffs = _json_string(format_polynomial(p)), _array(map(_json_string, coefficient_texts(p)))
        head = f'{{"input": {_json_string(args.partition)}, {lam}'
        print(f'{head}, "polynomial": {polynomial}, "coeffs": {coeffs}{warnings}}}')
    else:
        print(format_polynomial(p))
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    form = random_partition(args.max_part, args.max_len, random.Random(args.seed))
    p = build_hilbert(form)
    if args.format == "json":
        lam, warnings = _lambda_keys(form)
        print(f'{{{lam}, "polynomial": {_json_string(format_polynomial(p))}{warnings}}}')
    else:
        print(f"λ = {format_exponent_form(form)}")
        print(f"p = {format_polynomial(p)}")
    return 0

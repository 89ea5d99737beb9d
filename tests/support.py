"""Shared test fixtures: partition enumeration, a provably non-Hilbert
polynomial corpus, reference engines and parser, the recover JSON schema,
reference JSON lines, an in-process CLI runner and the contract of the
package's records.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import pickle
import sys
from fractions import Fraction
from typing import Iterator

import pytest

from hilbert_lambda import (
    ExponentForm,
    NegativeLeadingMultiplicity,
    NonIntegerValued,
    NonPositivePartError,
    NotHilbert,
    NotNonIncreasingError,
    Outcome,
    Partition,
    Polynomial,
    Success,
    TraceStep,
    build_hilbert,
    non_incr_seqs,
    random_partition,
    reduce,
    sample_points,
    subtract_block,
)
from hilbert_lambda.cli import main
from hilbert_lambda.polynomial import DenominatorZeroError, PolynomialSyntaxError


# CPython 3.11 (and 3.10.7) limits int <-> decimal text to 4 300 digits by default
needs_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="no int-to-str digit limit in this interpreter",
)


def past_digit_limit(digits: int) -> str:
    """The message for a number of ``digits`` digits past the interpreter's limit."""
    return f"{digits}-digit number is past Python's {sys.get_int_max_str_digits()}-digit limit"


@contextlib.contextmanager
def digit_limit(digits: int):
    """Set the interpreter's int-to-str digit limit to ``digits`` (0: none)
    inside the block only; a no-op where the interpreter has no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def assert_record_contract(record, fields: dict, text: str, other=None) -> None:
    """``record`` is an immutable value shown as ``text``: built again from
    ``fields`` by keyword it equals ``record`` and hashes alike, ``other``, if
    given, is of its type with a field changed and compares and hashes
    differently, no field can be assigned and none added, and its copies and
    pickles at every protocol equal it."""
    kind = type(record)
    same = kind(**fields)
    assert (record == same, record != same, hash(record) == hash(same)) == (True, False, True)
    if other is not None:
        assert type(other) is kind and (record == other, record != other) == (False, True)
        assert hash(record) != hash(other)
    assert repr(record) == text
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == same and repr(record) == text
    pickles = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.copy(record), copy.deepcopy(record), *pickles):
        assert type(twin) is kind and twin == record and hash(twin) == hash(record) and repr(twin) == text


def all_partitions(max_part: int, max_len: int) -> Iterator[ExponentForm]:
    """Every partition with largest part <= max_part and length <= max_len."""
    for length in range(1, max_len + 1):
        for seq in non_incr_seqs(length, max_part):
            yield Partition(seq)


def flat_scan_offender(parts: tuple[int, ...]) -> ValueError | None:
    """Reference for ``Partition(parts)``'s check, one part at a time: the
    error for the first part below 1 or above the part before it, or None."""
    for index, part in enumerate(parts):
        if part < 1:
            return NonPositivePartError(f"part {part} at index {index} is not positive")
        if index and part > parts[index - 1]:
            return NotNonIncreasingError(index)
    return None


def falling_binom_coeffs(d: int) -> list[Fraction]:
    """Coefficients (ascending) of x(x-1)...(x-d+1)/d!, integer-valued on Z."""
    coeffs = [Fraction(1)]
    for j in range(d):
        longer = [Fraction(0)] * (len(coeffs) + 1)
        for power, c in enumerate(coeffs):
            longer[power] += c * (-j)
            longer[power + 1] += c
        coeffs = longer
    factorial = math.factorial(d)
    return [c / factorial for c in coeffs]


def window_recover(p: Polynomial) -> Outcome:
    """Reference for ``recover_delta(p, want_trace=True)`` on a nonzero p:
    the sample-window engine, O(n^3) in ``Fraction`` operations.

    Each round differences the residual window p(0..n) with ``reduce`` to
    expose the next block and removes it with ``subtract_block``; its trace
    reports each residual as ``differences_at_zero`` of its window.
    """
    n = p.degree()
    window = sample_points(p, n)
    if any(value.denominator != 1 for value in window):
        return NotHilbert(NonIntegerValued(), trace=())
    blocks, trace, start = [], [], 1
    while any(window):
        m, r = reduce(window)
        r = int(r)
        if r < 0:
            return NotHilbert(NegativeLeadingMultiplicity(at_degree=m, value=r), trace=tuple(trace))
        end = start + r - 1
        window = subtract_block(window, n, m + 1, start, end)
        blocks.append((m + 1, r))
        trace.append(TraceStep(m=m, r=r, s=start, e=end, residual=differences_at_zero(window)))
        start = end + 1
    return Success(ExponentForm(tuple(blocks)), trace=tuple(trace))


def differences_at_zero(window) -> tuple[int, ...]:
    """Δ^k f(0) for k = 0..n of an integer window f(0..n): the coefficients
    of f in the basis C(x, k)."""
    row, firsts = [int(value) for value in window], []
    while row:
        firsts.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return tuple(firsts)


def cursor_parse(text: str) -> Polynomial:
    """Reference for ``parse_polynomial``: the single-pass cursor parser it
    replaced, reading one character at a time.

    One change from that parser: digits are tested with ``str.isdecimal``
    instead of ``str.isdigit``, so a digit that ``int()`` rejects (``²``)
    is a syntax error here too rather than a bare ``ValueError``.
    """
    return _CursorParser(text).parse()


class _CursorParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> Polynomial:
        powers: dict[int, Fraction] = {}
        self._skip_ws()
        if self._at_end():
            raise PolynomialSyntaxError("expected a term", self.pos)
        sign = 1
        if self._peek() in "+-":
            sign = -1 if self._peek() == "-" else 1
            self.pos += 1
        self._term(powers, sign)
        while True:
            self._skip_ws()
            if self._at_end():
                break
            ch = self._peek()
            if ch == "+":
                sign = 1
            elif ch == "-":
                sign = -1
            else:
                raise PolynomialSyntaxError(f"expected '+' or '-', found {ch!r}", self.pos)
            self.pos += 1
            self._term(powers, sign)
        coeffs = [Fraction(0)] * (max(powers) + 1 if powers else 0)
        for power, value in powers.items():
            coeffs[power] = value
        return Polynomial(coeffs)

    def _term(self, powers: dict[int, Fraction], sign: int) -> None:
        self._skip_ws()
        if self._at_end():
            raise PolynomialSyntaxError("expected a term", self.pos)
        ch = self._peek()
        if ch.isdecimal() or ch == "-":
            coeff = self._coefficient()
            power = 0
            self._skip_ws()
            if not self._at_end() and self._peek() == "*":
                self.pos += 1
                power = self._variable()  # '*' must be followed by the variable
            elif not self._at_end() and self._peek() == "x":
                power = self._variable()
        elif ch == "x":
            coeff = Fraction(1)
            power = self._variable()
        else:
            raise PolynomialSyntaxError(f"expected a term, found {ch!r}", self.pos)
        coeff /= self._divisor_opt()
        powers[power] = powers.get(power, Fraction(0)) + sign * coeff

    def _coefficient(self) -> Fraction:
        negative = False
        if self._peek() == "-":
            negative = True
            self.pos += 1
            self._skip_ws()
        value = Fraction(self._uint())
        if negative:
            value = -value
        self._skip_ws()
        if not self._at_end() and self._peek() == "/":
            self.pos += 1
            value /= self._denominator()
        return value

    def _variable(self) -> int:
        self._skip_ws()
        if self._at_end() or self._peek() != "x":
            raise PolynomialSyntaxError("expected 'x'", self.pos)
        self.pos += 1
        self._skip_ws()
        if not self._at_end() and self._peek() == "^":
            self.pos += 1
            return self._uint()
        return 1

    def _divisor_opt(self) -> Fraction:
        self._skip_ws()
        if not self._at_end() and self._peek() == "/":
            self.pos += 1
            return Fraction(self._denominator())
        return Fraction(1)

    def _denominator(self) -> int:
        self._skip_ws()
        position = self.pos
        value = self._uint()
        if value == 0:
            raise DenominatorZeroError("denominator is zero", position)
        return value

    def _uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while not self._at_end() and self._peek().isdecimal():
            self.pos += 1
        if start == self.pos:
            raise PolynomialSyntaxError("expected digits", start)
        return int(self.text[start : self.pos])

    def _skip_ws(self) -> None:
        while not self._at_end() and self.text[self.pos].isspace():
            self.pos += 1

    def _at_end(self) -> bool:
        return self.pos >= len(self.text)

    def _peek(self) -> str:
        return self.text[self.pos]


def falling_factorial_binomial(d: int, x: int) -> int:
    """Reference for ``binomial_seq_value``: the falling factorial
    x(x-1)...(x-d+1) divided by d!, the body that ``math.comb`` replaced,
    with its remainder checked."""
    quotient, remainder = divmod(math.prod(range(x - d + 1, x + 1)), math.factorial(d))
    assert remainder == 0, (d, x)
    return quotient


def newton_horner_reference(a: list[int]) -> Polynomial:
    """Reference for ``from_newton``: the Horner it replaced, which rebuilds
    its list from two shifted copies every round and ends with one
    ``Fraction`` per coefficient."""
    acc: list[int] = []
    scale = 1
    for k in range(len(a) - 1, -1, -1):
        acc = [high - k * low for high, low in zip([0] + acc, acc + [0])]
        acc[0] += a[k] * scale
        scale *= k or 1
    return Polynomial(Fraction(c, scale) for c in acc)


def two_chain_peel(a: list[int], v: int, start: int, end: int) -> list[int]:
    """Reference for ``peel_block``: the walk that multiplies out both chains,
    C(v - start + 1, k) and C(v - end, k) for k = 1..v, for every block.
    Subtracts the block from ``a`` in place and returns the lower chain."""
    upper = lower = 1
    top, bottom = v - start + 1, v - end
    chain = []
    for k in range(v):
        upper = upper * (top - k) // (k + 1)
        lower = lower * (bottom - k) // (k + 1)
        chain.append(lower)
        a[v - 1 - k] -= upper - lower
    return chain


def fraction_format(p: Polynomial) -> str:
    """Reference for ``format_polynomial``: the loop it replaced, which
    writes each ``Fraction`` coefficient with ``str``."""
    coeffs, out = p.coeffs, ""
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        if not out:
            out = "-" if c < 0 else ""
        else:
            out += " - " if c < 0 else " + "
        magnitude = abs(c)
        x = "x" if power == 1 else f"x^{power}"
        out += str(magnitude) if power == 0 else x if magnitude == 1 else f"{magnitude}*{x}"
    return out or "0"


def fraction_horner(p: Polynomial, x: Fraction) -> Fraction:
    """Reference for ``Polynomial.evaluate``: Horner's rule on the
    ``Fraction`` coefficients."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def negative_lead_poly(rng) -> Polynomial:
    """Integer-valued polynomial with negative leading coefficient.

    Integer combinations of the falling-factorial basis are integer-valued,
    and a negative leading coefficient rules out being generated by any
    partition, whose polynomials always lead with a positive coefficient.
    """
    d = rng.randint(0, 4)
    total = [Fraction(0)] * (d + 1)
    for i in range(d + 1):
        c = -rng.randint(1, 5) if i == d else rng.randint(-5, 5)
        for power, b in enumerate(falling_binom_coeffs(i)):
            total[power] += c * b
    return Polynomial(total)


def shifted_hilbert_poly(rng) -> Polynomial:
    """Partition polynomial minus a too-large constant.

    Subtracting more than the number of 1-parts leaves the higher blocks
    intact but drives the final constant residual negative, so the result
    is integer-valued yet not generated by any partition.
    """
    lam = random_partition(5, 5, rng)
    ones = dict(lam.pairs).get(1, 0)
    shift = ones + rng.randint(1, 5)
    coeffs = list(build_hilbert(lam).coeffs) or [Fraction(0)]
    coeffs[0] -= shift
    return Polynomial(coeffs)


def rejection_corpus(count: int, rng) -> list[Polynomial]:
    """``count`` distinct integer-valued non-Hilbert polynomials, degree <= 4."""
    seen: set[tuple[Fraction, ...]] = set()
    corpus: list[Polynomial] = []
    while len(corpus) < count:
        maker = negative_lead_poly if len(corpus) % 2 == 0 else shifted_hilbert_poly
        p = maker(rng)
        if p.coeffs in seen:
            continue
        seen.add(p.coeffs)
        corpus.append(p)
    return corpus


RECOVER_SCHEMA = {
    "type": "object",
    "required": ["input", "hilbert", "lambda_flat", "lambda_exp", "reason"],
    "additionalProperties": False,
    "properties": {
        "input": {"type": "string"},
        "hilbert": {"type": "boolean"},
        # null when the expanded part count exceeds the CLI's flat-parts limit
        "lambda_flat": {
            "type": ["array", "null"],
            "items": {"type": "integer", "minimum": 1},
        },
        "lambda_exp": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer", "minimum": 1},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "reason": {"type": ["string", "null"]},
        "trace": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["m", "r", "s", "e"],
                "additionalProperties": False,
                "properties": {
                    "m": {"type": "integer", "minimum": 0},
                    "r": {"type": "integer"},
                    "s": {"type": "integer", "minimum": 1},
                    "e": {"type": "integer", "minimum": 0},
                },
            },
        },
        "warnings": {"type": "array", "items": {"type": "string"}},
        "ambient": {
            "type": "object",
            "required": ["n", "ok"],
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "ok": {"type": "boolean"},
            },
        },
    },
}


# References for the CLI's JSON lines: the dicts that json.dumps rendered
# before the lines were built from tokens; only under a raised digit limit
# do they render numbers past it.


def lambda_keys_reference(form: ExponentForm, warnings: tuple[str, ...] = ()) -> tuple[dict, dict]:
    total_parts = sum(mult for _, mult in form.pairs)
    flat = form.parts if total_parts <= 100_000 else None
    if flat is None:
        warnings += (f"partition has {total_parts} parts; lambda_flat suppressed, see lambda_exp",)
    lam = {"lambda_flat": flat, "lambda_exp": [[value, mult] for value, mult in form.pairs]}
    return lam, {"warnings": list(warnings)} if warnings else {}


def recover_json_reference(text: str, outcome: Outcome, ambient: int | None = None) -> str:
    """``recover --format json``'s line for ``outcome``, decided from ``text``."""
    trace = {} if outcome.trace is None else {"trace": [dict(zip("mrse", step)) for step in outcome.trace]}
    if isinstance(outcome, Success):
        lam, warnings = lambda_keys_reference(outcome.form, outcome.warnings)
        pairs = outcome.form.pairs
        fit = {} if ambient is None else {"ambient": {"n": ambient, "ok": not pairs or pairs[0][0] <= ambient}}
        payload = {"input": text, "hilbert": True, **lam, "reason": None, **warnings, **fit, **trace}
    else:
        reason = outcome.reason.describe()
        payload = {"input": text, "hilbert": False, "lambda_flat": [], "lambda_exp": [], "reason": reason, **trace}
    return json.dumps(payload)


def error_json_reference(text: str, message: str) -> str:
    """A batch line's error line in JSON."""
    return json.dumps({"input": text, "error": message})


def build_json_reference(text: str, form: ExponentForm, p: Polynomial) -> str:
    """``build --format json``'s line for the partition ``form`` read from ``text``, whose polynomial is ``p``."""
    lam, warnings = lambda_keys_reference(form)
    coeffs = [str(c) for c in p.coeffs]
    return json.dumps({"input": text, **lam, "polynomial": fraction_format(p), "coeffs": coeffs, **warnings})


def random_json_reference(form: ExponentForm, p: Polynomial) -> str:
    """``random --format json``'s line for the drawn ``form``, whose polynomial is ``p``."""
    lam, warnings = lambda_keys_reference(form)
    return json.dumps({**lam, "polynomial": fraction_format(p), **warnings})


def run_cli(monkeypatch, capsys, argv: list[str], stdin_text: str | None = None):
    """Run the CLI in process; returns (exit code, stdout, stderr)."""
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err

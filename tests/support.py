"""Shared test fixtures: partition enumeration, a provably non-Hilbert
polynomial corpus, the recover JSON schema, and an in-process CLI runner.
"""

from __future__ import annotations

import io
import math
import sys
from fractions import Fraction
from typing import Iterator

from hilbert_lambda import (
    ExponentForm,
    NegativeLeadingMultiplicity,
    NonIntegerValued,
    NotHilbert,
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


def all_partitions(max_part: int, max_len: int) -> Iterator[Partition]:
    """Every partition with largest part <= max_part and length <= max_len."""
    for length in range(1, max_len + 1):
        for seq in non_incr_seqs(length, max_part):
            yield Partition(seq)


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
    expose the next block and removes it with ``subtract_block``.
    """
    n = p.degree()
    window = sample_points(p, n)
    if any(value.denominator != 1 for value in window):
        return NotHilbert(NonIntegerValued())
    blocks, trace, start = [], [], 1
    while any(window):
        m, r = reduce(window)
        r = int(r)
        if r < 0:
            return NotHilbert(NegativeLeadingMultiplicity(at_degree=m, value=r), trace=tuple(trace))
        end = start + r - 1
        window = subtract_block(window, n, m + 1, start, end)
        blocks.append((m + 1, r))
        trace.append(TraceStep(m=m, r=r, s=start, e=end, residual=window.window()))
        start = end + 1
    return Success(ExponentForm(tuple(blocks)), trace=tuple(trace))


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
    ones = sum(1 for part in lam.parts if part == 1)
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


def run_cli(monkeypatch, capsys, argv: list[str], stdin_text: str | None = None):
    """Run the CLI in process; returns (exit code, stdout, stderr)."""
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err

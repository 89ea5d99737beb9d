"""Integer partitions, their run-length form, and the polynomials they generate.

A partition (a1 >= a2 >= ... >= ar >= 1) generates the polynomial

    h(x) = sum over i of C(x + a_i - i, a_i - 1)

with the binomials read as polynomials in x.  Exactly the polynomials of
this shape are Hilbert polynomials, and the generating partition is
unique; the recovery engines in :mod:`hilbert_lambda.recovery` invert the
construction.  Both directions share integer coefficients in the basis
C(x, k) (:func:`hilbert_lambda.calculus.block_newton`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .calculus import binomial_seq_value, block_newton
from .polynomial import Polynomial, from_newton


class NonPositivePartError(ValueError):
    """A partition entry was less than 1."""


class NotNonIncreasingError(ValueError):
    """Partition entries increased; ``index`` is the first offender."""

    def __init__(self, index: int):
        super().__init__(f"parts must be non-increasing (offending index {index})")
        self.index = index


class PartitionSyntaxError(ValueError):
    """Malformed partition text."""


@dataclass(frozen=True)
class Partition:
    """Non-increasing tuple of positive integers; may be empty."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        previous = None
        for index, part in enumerate(self.parts):
            if part < 1:
                raise NonPositivePartError(f"part {part} at index {index} is not positive")
            if previous is not None and part > previous:
                raise NotNonIncreasingError(index)
            previous = part

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __str__(self) -> str:
        return format_partition(self)


@dataclass(frozen=True)
class ExponentForm:
    """Run-length form ((value, multiplicity), ...) with values strictly decreasing."""

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        previous = None
        for value, multiplicity in self.pairs:
            if value < 1:
                raise NonPositivePartError(f"value {value} is not positive")
            if multiplicity < 1:
                raise ValueError(f"multiplicity {multiplicity} is not positive")
            if previous is not None and value >= previous:
                raise ValueError("values must be strictly decreasing")
            previous = value


def validate_partition(raw: Iterable[int]) -> Partition:
    """Check the non-increasing, >= 1 invariants and wrap ``raw`` up."""
    return Partition(tuple(raw))


def to_exponent_form(partition: Partition) -> ExponentForm:
    """Run-length encode equal parts."""
    pairs: list[tuple[int, int]] = []
    for part in partition.parts:
        if pairs and pairs[-1][0] == part:
            pairs[-1] = (part, pairs[-1][1] + 1)
        else:
            pairs.append((part, 1))
    return ExponentForm(tuple(pairs))


def from_exponent_form(form: ExponentForm) -> Partition:
    """Expand run-length pairs back into a flat partition."""
    parts: list[int] = []
    for value, multiplicity in form.pairs:
        parts.extend([value] * multiplicity)
    return Partition(tuple(parts))


def build_hilbert(partition: Partition) -> Polynomial:
    """Expand sum over i of C(x + a_i - i, a_i - 1) into coefficient form.

    The i-th part a_i (1-based) contributes a term of degree a_i - 1, so
    a non-empty partition yields degree a_1 - 1; the empty partition
    yields the zero polynomial.  Each run of equal parts adds its block in
    the basis C(x, k) in O(value) integer operations, whatever its size.
    """
    pairs = to_exponent_form(partition).pairs
    a = [0] * (pairs[0][0] if pairs else 0)
    start = 1
    for value, multiplicity in pairs:
        end = start + multiplicity - 1
        for j, b in enumerate(block_newton(value, start, end)):
            a[j] += b
        start = end + 1
    return from_newton(a)


def hilbert_value_at(partition: Partition, x: int) -> int:
    """Value at integer ``x`` of the polynomial the partition generates.

    Computed via falling factorials without ever expanding coefficients;
    the result is an integer for every integer ``x``, including negatives.
    """
    return sum(
        binomial_seq_value(part - 1, x + part - position)
        for position, part in enumerate(partition.parts, start=1)
    )


def non_incr_seqs(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield every non-increasing length-m sequence over {1..n} exactly once.

    Descending lexicographic order: (n,...,n) first, (1,...,1) last.
    C(n+m-1, m) sequences in total.  Lazy, so callers can short-circuit;
    the full set explodes quickly.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _descending_seqs(m, n)


def _descending_seqs(m: int, n: int) -> Iterator[tuple[int, ...]]:
    if m == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _descending_seqs(m - 1, first):
            yield (first,) + rest


def count_non_incr_seqs(m: int, n: int) -> int:
    """Closed-form size of non_incr_seqs(m, n)."""
    return math.comb(n + m - 1, m)


def random_partition(max_part: int, max_len: int, rng: random.Random) -> Partition:
    """Uniform draw over every non-empty partition with largest part
    <= max_part and length <= max_len.

    Uniform over the enumerated finite set (one index per sequence), not
    over any weighted partition measure.  Deterministic for a seeded rng.
    """
    if max_part < 1 or max_len < 1:
        raise ValueError("max_part and max_len must be >= 1")
    counts = [count_non_incr_seqs(m, max_part) for m in range(1, max_len + 1)]
    index = rng.randrange(sum(counts))
    for m, block in enumerate(counts, start=1):
        if index < block:
            return Partition(_unrank_seq(m, max_part, index))
        index -= block
    raise AssertionError("unreachable")


def _unrank_seq(m: int, n: int, index: int) -> tuple[int, ...]:
    # index-th element (0-based) of non_incr_seqs(m, n), descending lex order
    seq: list[int] = []
    while m > 0:
        for first in range(n, 0, -1):
            below = math.comb(first + m - 2, m - 1)
            if index < below:
                seq.append(first)
                n = first
                m -= 1
                break
            index -= below
        else:
            raise ValueError("index out of range")
    return tuple(seq)


def format_partition(partition: Partition) -> str:
    """Canonical exponent text, e.g. "(6^2,5,4,1^3)"; the empty partition is "()"."""
    return format_exponent_form(to_exponent_form(partition))


def format_exponent_form(form: ExponentForm) -> str:
    """Canonical text straight from run-length pairs."""
    pieces = []
    for value, multiplicity in form.pairs:
        pieces.append(f"{value}^{multiplicity}" if multiplicity > 1 else str(value))
    return "(" + ",".join(pieces) + ")"


def parse_partition(text: str) -> Partition:
    """Parse exponent form "(6^2,5,4,1^3)" or flat form "[6,6,5,4,1,1,1]".

    Whitespace is ignored.  Validity (positive, non-increasing) is checked
    after expansion, so "(1,2)" fails with the usual partition errors.
    """
    compact = "".join(text.split())
    if compact.startswith("(") and compact.endswith(")"):
        body = compact[1:-1]
        exponent = True
    elif compact.startswith("[") and compact.endswith("]"):
        body = compact[1:-1]
        exponent = False
    else:
        raise PartitionSyntaxError("expected '(...)' or '[...]' partition text")
    if not body:
        return Partition()
    parts: list[int] = []
    for item in body.split(","):
        if exponent and "^" in item:
            value_text, _, mult_text = item.partition("^")
            value = _parse_int(value_text)
            multiplicity = _parse_int(mult_text)
            if multiplicity < 1:
                raise PartitionSyntaxError(f"multiplicity {multiplicity} must be >= 1")
            parts.extend([value] * multiplicity)
        else:
            parts.append(_parse_int(item))
    return validate_partition(parts)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise PartitionSyntaxError(f"expected an integer, found {text!r}") from None

"""Exact discrete-derivative machinery and the binomial-basis blocks.

The engines hold a polynomial as its integer coefficients a_k = Δ^k p(0)
in the basis C(x, k); :func:`peel_block` subtracts one block of equal
parts from them in place, in O(v) integer operations, and returns the
binomial chain that the block below reuses, by Pascal's rule, when its
value is one less.  A block of one part is a single binomial term whose
coefficients are that chain alone, so it walks only that chain, and by
subtractions alone when the block above hands its chain down.
:class:`Sequence`, :func:`delta` and :func:`reduce` difference a finite
window of samples f(0), ..., f(k-1) directly: the reference route to the
same degrees and leading coefficients, kept for tests and demos.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Union

Rational = Union[int, Fraction]


class LengthTooShortError(ValueError):
    """Raised when an operation needs a longer window."""


class Sequence:
    """Immutable, non-empty window (f(0), ..., f(k-1)) of exact rationals.

    Values are stored as ``Fraction``; equality and hashing compare the
    values.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Rational]):
        self.values = tuple(Fraction(v) for v in values)
        if not self.values:
            raise ValueError("a sequence needs at least one value")

    def window(self) -> tuple[Fraction, ...]:
        """The values, as a tuple."""
        return self.values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> Fraction:
        if not 0 <= index < len(self.values):
            raise IndexError(index)
        return self.values[index]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Sequence({list(self.values)!r})"


def delta(f: Sequence) -> Sequence:
    """Forward difference: value i of the result is f(i+1) - f(i)."""
    if len(f) < 2:
        raise LengthTooShortError("need a window of at least 2 values")
    w = f.values
    return Sequence(w[i + 1] - w[i] for i in range(len(w) - 1))


def reduce(f: Sequence) -> tuple[int, Fraction]:
    """Difference ``f`` until the window becomes constant.

    Returns ``(m, c)`` with ``m`` the number of difference passes applied
    and ``c`` the constant the window settles at.  Runs the differencing
    in place on a scratch copy, shrinking the live prefix each pass; the
    input sequence is never modified.

    The all-zero window is rejected: it would report ``(0, 0)``, and the
    sample-window recovery treats ``c`` as a multiplicity that must never be zero.
    """
    scratch = list(f.window())
    if all(v == 0 for v in scratch):
        raise ValueError("reduce on an all-zero window")
    end = len(scratch) - 1
    passes = 0
    while not _constant_prefix(scratch, end):
        for i in range(end):
            scratch[i] = scratch[i + 1] - scratch[i]
        passes += 1
        end -= 1
    return passes, scratch[0]


def _constant_prefix(values: list[Fraction], end: int) -> bool:
    return all(values[i] == values[0] for i in range(1, end + 1))


def binomial_seq_value(d: int, x: int) -> int:
    """Value at integer ``x`` of the degree-d polynomial x(x-1)...(x-d+1)/d!.

    This is the polynomial extension of the binomial coefficient C(x, d):
    unlike the combinatorial convention it does not vanish for negative
    ``x`` (e.g. the d=1 value at -1 is -1), and the recovery arithmetic
    depends on those negative-argument values.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    product = 1
    for j in range(d):
        product *= x - j
    # d consecutive integers are always divisible by d!; checked anyway.
    quotient, remainder = divmod(product, math.factorial(d))
    if remainder:
        raise ArithmeticError("falling factorial not divisible by d!")
    return quotient


def peel_block(a: list[int], v: int, start: int, end: int, below: list[int] | None = None) -> list[int]:
    """Subtract from ``a`` the coefficients of C(x, 0..v-1) in the block sum
    over i in [start, end] of C(x + v - i, v - 1), in place, and return the
    lower chain C(v - end, 1..v).

    The sum telescopes (Pascal) to C(x + top, v) - C(x + bottom, v) with
    top = v - start + 1 and bottom = v - end, and Vandermonde,
    C(x + c, v) = sum over k of C(c, k) C(x, v - k), expands both: one walk
    of the two chains C(top, 1..v) and C(bottom, 1..v), O(v) integer
    operations for any span.  An empty span (end == start - 1) subtracts
    nothing.

    ``below`` is the chain that the call for the block just above returned,
    and may be passed only when that block has value v + 1 and ends at
    start - 1.  Its chain is then C(top + 1, 1..v + 1), and Pascal's rule
    C(top, k + 1) = C(top + 1, k + 1) - C(top, k) gives the upper chain by
    subtractions, so only the lower chain is multiplied out.

    A block of one part (end == start) is the single term
    C(x + v - start, v - 1), whose coefficients are its lower chain:
    a[v - 1 - k] -= C(bottom, k) for k = 0..v-1, as top == bottom + 1.
    Without ``below`` only that chain is multiplied out.  With it, Pascal's
    rule steps twice, C(bottom, k + 1) = C(top, k + 1) - C(bottom, k), and
    the peel takes subtractions only.
    """
    chain = []
    upper = lower = 1
    top, bottom = v - start + 1, v - end
    if end == start:
        if below is None:
            for k in range(v):
                a[v - 1 - k] -= lower
                lower = lower * (bottom - k) // (k + 1)
                chain.append(lower)
        else:
            for k in range(v):
                a[v - 1 - k] -= lower
                upper = below[k] - upper
                lower = upper - lower
                chain.append(lower)
        return chain
    for k in range(v):
        # exact: C(c, k) * (c - k) == (k + 1) * C(c, k + 1), for any integer c
        upper = upper * (top - k) // (k + 1) if below is None else below[k] - upper
        lower = lower * (bottom - k) // (k + 1)
        chain.append(lower)
        a[v - 1 - k] -= upper - lower
    return chain


def is_integer_sequence(f: Sequence) -> bool:
    """True iff every value in the window is an integer."""
    return all(v.denominator == 1 for v in f.window())

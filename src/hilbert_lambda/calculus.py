"""Discrete-derivative machinery over exact rational sequences.

A :class:`Sequence` is a finite window (f(0), ..., f(k-1)) of exact
rationals.  The forward difference operator maps it to the window of
adjacent differences, one entry shorter; repeatedly differencing the
samples of a polynomial reaches a constant window whose value pins down
the leading coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Union

Rational = Union[int, Fraction]


class LengthTooShortError(ValueError):
    """Raised when an operation needs a longer effective window."""


class Sequence:
    """Immutable window of exact rational values.

    Entries beyond ``effective_length`` are carried along but ignored by
    every operation, so a short window can share storage with a longer
    one.  Equality and hashing look at the effective window only.
    """

    __slots__ = ("values", "effective_length")

    def __init__(self, values: Iterable[Rational], effective_length: int | None = None):
        vals = tuple(Fraction(v) for v in values)
        if not vals:
            raise ValueError("a sequence needs at least one value")
        if effective_length is None:
            effective_length = len(vals)
        if not 1 <= effective_length <= len(vals):
            raise ValueError(
                f"effective_length must be in 1..{len(vals)}, got {effective_length}"
            )
        self.values = vals
        self.effective_length = effective_length

    def window(self) -> tuple[Fraction, ...]:
        """The effective values, as a tuple."""
        return self.values[: self.effective_length]

    def __len__(self) -> int:
        return self.effective_length

    def __getitem__(self, index: int) -> Fraction:
        if not 0 <= index < self.effective_length:
            raise IndexError(index)
        return self.values[index]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.window())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.window() == other.window()

    def __hash__(self) -> int:
        return hash(self.window())

    def __repr__(self) -> str:
        return f"Sequence({list(self.window())!r})"


def delta(f: Sequence) -> Sequence:
    """Forward difference: value i of the result is f(i+1) - f(i)."""
    if f.effective_length < 2:
        raise LengthTooShortError("need an effective window of at least 2 values")
    w = f.window()
    return Sequence(w[i + 1] - w[i] for i in range(len(w) - 1))


def is_constant(f: Sequence) -> bool:
    """True iff every value in the effective window equals the first.

    A size-1 window counts as constant.
    """
    w = f.window()
    return all(v == w[0] for v in w[1:])


def reduce(f: Sequence) -> tuple[int, Fraction]:
    """Difference ``f`` until the window becomes constant.

    Returns ``(m, c)`` with ``m`` the number of difference passes applied
    and ``c`` the constant the window settles at.  Runs the differencing
    in place on a scratch copy, shrinking the live prefix each pass; the
    input sequence is never modified.

    The all-zero window is rejected: it would report ``(0, 0)``, and the
    recovery loop treats ``c`` as a multiplicity that must never be zero.
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


def block_newton(v: int, start: int, end: int) -> list[int]:
    """Coefficients of C(x, 0..v-1) in the block sum over i in [start, end]
    of C(x + v - i, v - 1).  It telescopes (Pascal) to C(x + v - start + 1, v)
    - C(x + v - end, v), and Vandermonde, C(x + c, v) = sum over j of
    C(c, v - j) C(x, j), expands both: O(v) integer operations for any span.
    """
    upper, lower = _binomials(v - start + 1, v), _binomials(v - end, v)
    return [upper[v - j] - lower[v - j] for j in range(v)]


def _binomials(c: int, v: int) -> list[int]:
    # C(c, 0..v) for any integer c; exact, as b * (c - k) = (k + 1) * C(c, k + 1)
    out = [1]
    for k in range(v):
        out.append(out[-1] * (c - k) // (k + 1))
    return out


def is_integer_sequence(f: Sequence) -> bool:
    """True iff every value in the effective window is an integer."""
    return all(v.denominator == 1 for v in f.window())

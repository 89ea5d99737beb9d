"""Exact discrete-derivative machinery and the binomial-basis blocks.

The engines hold a polynomial as its integer coefficients a_k = Δ^k p(0)
in the basis C(x, k); :func:`peel_block` subtracts one block of equal
parts from them in place, in O(v) integer operations.  Each call is handed
what the call for the block above returned, and reuses that binomial chain,
by Pascal's rule, when its value is one less.  A block of one part is a
single binomial term whose coefficients are that chain alone, so it walks
only that chain, and by subtractions alone when the chain above is reused.
The loops step a chain by one lopsided product per term.  Once its largest
product, about v times the bits of its argument c, has more bits than
``_gmp.CROSSOVER``, as in the blocks of the astronomical answers, the chain
is built whole instead, on every platform: on the limbs of the system's GMP
library where it loads (:mod:`hilbert_lambda._gmp`), read back as exact
``int``s, and by Python elsewhere.  Only a chain built whole squares, for
C(c, 2) = (c*c - c) / 2 and 24 C(c, 4) = (c*c - 3c + 1)**2 - 1.
:func:`block_value` is that block's value at one integer x, for evaluation.
:class:`Sequence` and :func:`delta` difference a finite window of samples
f(0), ..., f(k-1) directly, and :func:`reduce` repeats :func:`delta` until
the window is constant: the reference route to the same degrees and
leading coefficients, kept for tests and demos.
"""

from __future__ import annotations

__all__ = [
    "LengthTooShortError",
    "Sequence",
    "binomial_seq_value",
    "delta",
    "is_integer_sequence",
    "reduce",
]

import math
import operator
from fractions import Fraction
from typing import Iterable, Union

from . import _gmp

Rational = Union[int, Fraction]

# the largest chain argument c built whole, as GMP's calls cost more than they
# save on the many short steps of a chain of small c and large v; since chain
# arguments are never positive past v, peel_block tells a block of small
# numbers by this one comparison, which it makes for every block
_GMP_FLOOR = -(1 << 1024)


class LengthTooShortError(ValueError):
    """Raised when an operation needs a longer window."""


class Sequence(tuple):
    """Immutable, non-empty window (f(0), ..., f(k-1)) of exact rationals:
    a tuple of ``Fraction`` values, equal to any tuple of the same values."""

    __slots__ = ()

    def __new__(cls, values: Iterable[Rational]) -> Sequence:
        self = super().__new__(cls, map(Fraction, values))
        if not self:
            raise ValueError("a sequence needs at least one value")
        return self

    def window(self) -> tuple[Fraction, ...]:
        """The values, as a plain tuple."""
        return tuple(self)

    def __repr__(self) -> str:
        return f"Sequence({list(self)!r})"


def delta(f: Sequence) -> Sequence:
    """Forward difference: value i of the result is f(i+1) - f(i)."""
    if len(f) < 2:
        raise LengthTooShortError("need a window of at least 2 values")
    return Sequence(f[i + 1] - f[i] for i in range(len(f) - 1))


def reduce(f: Sequence) -> tuple[int, Fraction]:
    """Apply :func:`delta` until the window becomes constant.

    Returns ``(m, c)`` with ``m`` the number of difference passes applied
    and ``c`` the constant the window settles at; the input sequence is
    never modified.

    The all-zero window is rejected: it would report ``(0, 0)``, and the
    sample-window recovery treats ``c`` as a multiplicity that must never be zero.
    """
    if not any(f):
        raise ValueError("reduce on an all-zero window")
    passes = 0
    while len(set(f)) > 1:
        f, passes = delta(f), passes + 1
    return passes, f[0]


def binomial_seq_value(d: int, x: int) -> int:
    """Value at integer ``x`` of the degree-d polynomial x(x-1)...(x-d+1)/d!.

    This is the polynomial extension of the binomial coefficient C(x, d):
    unlike the combinatorial convention it does not vanish for negative
    ``x`` (e.g. the d=1 value at -1 is -1), and the recovery arithmetic
    depends on those negative-argument values.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    # reflection: x(x-1)...(x-d+1) = (-1)^d (d-x-1)(d-x-2)...(-x) for negative x
    return math.comb(x, d) if x >= 0 else (-1) ** d * math.comb(d - x - 1, d)


def block_value(v: int, start: int, end: int, x: int) -> int:
    """Value at integer ``x`` of the block that :func:`peel_block` subtracts, the
    sum over i in [start, end] of C(x + v - i, v - 1): telescoped, two binomial
    values whatever the span; an empty span (end == start - 1) gives 0."""
    return binomial_seq_value(v, x + v - start + 1) - binomial_seq_value(v, x + v - end)


def peel_block(a: list[int], v: int, start: int, end: int, above: tuple | None = None) -> tuple[int, list[int]]:
    """Subtract from ``a`` the coefficients of C(x, 0..v-1) in the block sum
    over i in [start, end] of C(x + v - i, v - 1), in place, and return
    ``(v, chain)`` with the lower chain C(v - end, 1..v).

    The sum telescopes (Pascal) to C(x + top, v) - C(x + bottom, v) with
    top = v - start + 1 and bottom = v - end, and Vandermonde,
    C(x + c, v) = sum over k of C(c, k) C(x, v - k), expands both: one walk
    of the two chains C(top, 1..v) and C(bottom, 1..v), O(v) integer
    operations for any span.  An empty span (end == start - 1) subtracts
    nothing.

    ``above`` is what the peel of the block just above, the one ending at
    start - 1, returned, or None.  When that block has value v + 1 its
    chain is C(top + 1, 1..v + 1), and Pascal's rule
    C(top, k + 1) = C(top + 1, k + 1) - C(top, k) gives the upper chain by
    subtractions, so only the lower chain is multiplied out; any other
    ``above`` is ignored.

    A block of one part (end == start) is the single term
    C(x + v - start, v - 1), whose coefficients are its lower chain:
    a[v - 1 - k] -= C(bottom, k) for k = 0..v-1, as top == bottom + 1.
    Without a chain from above only that chain is multiplied out.  With
    one, Pascal's rule steps twice, C(bottom, k + 1) = C(top, k + 1) -
    C(bottom, k), and the peel takes subtractions only.

    The loops step a chain multiplied out by
    C(c, k + 1) = C(c, k) (c - k) / (k + 1).  A block of value 2 or more
    whose lower chain multiplies out, with bottom at most ``_GMP_FLOOR``
    and v * bits(bottom) past the GMP crossover, has its chains built
    whole by :func:`_chain` instead (:func:`_peel_whole`), on every
    platform, whether or not the library loads.
    """
    below = above[1] if above is not None and above[0] == v + 1 else None
    top, bottom = v - start + 1, v - end
    if bottom <= _GMP_FLOOR and v * bottom.bit_length() > _gmp.CROSSOVER and v > 1 and (below is None or end != start):
        return _peel_whole(a, v, top, bottom, below, end == start)
    chain, upper, lower = [bottom], top, bottom  # step k = 0: C(c, 1) = c
    a[v - 1] -= top - bottom
    # exact: C(c, k) * (c - k) == (k + 1) * C(c, k + 1), for any integer c
    if end == start:
        for k in range(1, v):
            a[v - 1 - k] -= lower
            if below is not None:
                upper = below[k] - upper
                lower = upper - lower
            else:
                lower = lower * (bottom - k) // (k + 1)
            chain.append(lower)
        return v, chain
    for k in range(1, v):
        upper = upper * (top - k) // (k + 1) if below is None else below[k] - upper
        lower = lower * (bottom - k) // (k + 1)
        chain.append(lower)
        a[v - 1 - k] -= upper - lower
    return v, chain


def _chain(c: int, v: int) -> list[int]:
    """C(c, 1..v), built whole.  Where c is at most ``_GMP_FLOOR`` and
    v * bits(c) passes the crossover, these are GMP's magnitudes
    |C(c, k)| = C(-c + k - 1, k), each with its sign (-1)**k, if the library
    gives them; otherwise Python steps as :func:`peel_block`'s loops do, but
    squares at k = 1 and 3, as a square shares its Karatsuba halves:
    C(c, 2) = (c*c - c) >> 1 and, with u = C(c, 2) - c,
    C(c, 4) = (u*u + u) // 6 = ((c*c - 3c + 1)**2 - 1) // 24."""
    if c <= _GMP_FLOOR and v * c.bit_length() > _gmp.CROSSOVER:
        magnitudes = _gmp.chain(-c, v)
        if magnitudes is not None:
            return [-m if k & 1 else m for k, m in enumerate(magnitudes, 1)]
    chain = [c]
    for k in range(1, v):
        if k == 1:
            chain.append((c * c - c) >> 1)
        elif k == 3:
            chain.append(((u := chain[1] - c) * u + u) // 6)
        else:
            chain.append(chain[-1] * (c - k) // (k + 1))
    return chain


def _peel_whole(a: list[int], v: int, top: int, bottom: int, below: list | None, one_part: bool) -> tuple:
    """:func:`peel_block` for a block whose lower chain multiplies out past
    the crossover: each chain it multiplies out is built whole by
    :func:`_chain`, and the Pascal steps from ``below`` stay subtractions."""
    chain = _chain(bottom, v)
    if one_part:  # the single term's coefficients C(bottom, 0..v-1)
        terms = [1, *chain[:-1]]
    elif below is None:
        terms = map(operator.sub, _chain(top, v), chain)
    else:
        upper = [top]
        for k in range(1, v):
            upper.append(below[k] - upper[-1])
        terms = map(operator.sub, upper, chain)
    for k, term in enumerate(terms):
        a[v - 1 - k] -= term
    return v, chain


def is_integer_sequence(f: Sequence) -> bool:
    """True iff every value in the window is an integer."""
    return all(v.denominator == 1 for v in f)

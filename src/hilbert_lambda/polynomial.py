"""Exact-rational univariate polynomials: parsing, evaluation, sampling, formatting.

Accepted text grammar (whitespace insignificant, leading sign allowed on
the first term):

    poly   := term (("+"|"-") term)*
    term   := (coeff ("*"? var)? | var) ("/" uint)?
    var    := "x" ("^" uint)?
    coeff  := int ("/" uint)?
    int    := "-"? uint
    uint   := decimal digits, as int() reads them (Unicode digits included)

The trailing "/ uint" divides the whole term, so "x/2" and "x^2/3" are
accepted alongside "1/2*x" and "3/2x^2".  Duplicate powers are summed.
Parsing takes one match of a compiled pattern per term and sums them per
power as integer fractions; one lcm of their denominators gives the
integer form of :class:`Polynomial`, and only its ``coeffs`` view builds
:class:`Fraction` values.  No floating point is involved anywhere.
:func:`int_text` writes an int of any size in decimal, whatever CPython's
int-to-str digit limit; the package's renderers all write through it.
"""

from __future__ import annotations

__all__ = [
    "DenominatorZeroError",
    "Polynomial",
    "PolynomialSyntaxError",
    "format_polynomial",
    "parse_polynomial",
    "sample_points",
]

import decimal
import math
import re
import sys
from fractions import Fraction
from typing import Iterable

from .calculus import Rational, Sequence


class PolynomialSyntaxError(ValueError):
    """Malformed polynomial text; ``position`` is the 0-based column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at column {position}")
        self.message = message
        self.position = position


class DenominatorZeroError(PolynomialSyntaxError):
    """A rational literal or term divisor has denominator 0."""


class Polynomial:
    """Dense polynomial, lowest power first, in canonical integer form:
    ``scale`` is the lcm of the coefficient denominators and ``numerators``
    holds ``scale * c_i``, with no trailing zeros and
    ``gcd(scale, *numerators) == 1``; the zero polynomial is ``(1, ())``.
    ``Polynomial(rationals)`` and :meth:`from_integers` both reduce to it.
    """

    __slots__ = ("scale", "numerators")

    def __new__(cls, coeffs: Iterable[Rational] = ()) -> Polynomial:
        cs = [Fraction(c) for c in coeffs]
        scale = math.lcm(*(c.denominator for c in cs))
        return cls.from_integers(scale, [c.numerator * (scale // c.denominator) for c in cs])

    @classmethod
    def from_integers(cls, scale: int, numerators: Iterable[int]) -> Polynomial:
        """The polynomial with coefficients ``numerators[i] / scale``, scale > 0."""
        ns = list(numerators)
        while ns and not ns[-1]:
            ns.pop()
        g = math.gcd(scale, *ns)
        p = object.__new__(cls)
        p.scale, p.numerators = scale // g, tuple([n // g for n in ns] if g > 1 else ns)
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as :class:`Fraction` values, built on each read."""
        return tuple(Fraction(n, self.scale) for n in self.numerators)

    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial.

        None rather than -1 so that a forgotten zero-polynomial check
        fails loudly instead of silently feeding a loop bound.
        """
        return len(self.numerators) - 1 if self.numerators else None

    def evaluate(self, x: Rational) -> Fraction:
        """Exact value at ``x``, by Horner's rule on the integers."""
        u, v = Fraction(x).as_integer_ratio()
        acc, power = 0, 1
        for n in reversed(self.numerators):
            acc, power = acc * u + n * power, power * v
        # acc = sum of n_i u^i v^(d-i) and power = v^(d+1), at degree d
        return Fraction(acc * v, self.scale * power)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.scale == other.scale and self.numerators == other.numerators

    def __hash__(self) -> int:
        return hash((self.scale, self.numerators))

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __reduce__(self) -> tuple:  # pickles and copies rebuild through the reduction
        return Polynomial.from_integers, (self.scale, self.numerators)

    def __reduce_ex__(self, protocol: int) -> tuple:
        # protocols 0 and 1 write an int as decimal text, which CPython refuses
        # past its digit limit: they write the integer form in hex, which has none
        if protocol < 2:
            return _from_hex, (hex(self.scale), tuple(map(hex, self.numerators)))
        return self.__reduce__()

    def __repr__(self) -> str:
        return f"Polynomial({coefficient_texts(self)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


def _from_hex(scale: str, numerators: tuple[str, ...]) -> Polynomial:
    """The polynomial whose integer form is written in hex."""
    return Polynomial.from_integers(int(scale, 16), [int(n, 16) for n in numerators])


def sample_points(p: Polynomial, n: int) -> Sequence:
    """Sample p at 0, 1, ..., n into a Sequence of length n + 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return Sequence(p.evaluate(x) for x in range(n + 1))


def newton_coeffs(p: Polynomial) -> list[int] | None:
    """``[a_0, ..., a_n]`` (``[]`` for zero), ``a_k = Δ^k p(0)`` the coefficient
    of C(x, k) in p, or None when p is not integer-valued.  With ``L = p.scale``,
    synthetic division of ``L*p`` by x, x - 1, ..., x - n + 1 leaves remainders
    b_k with ``L*p = sum over k of b_k x(x-1)...(x-k+1)``, so ``L*a_k = k! b_k``,
    all in integers; p is integer-valued exactly when ``L`` divides every
    ``L*a_k`` (Pólya 1915), so that test and the division by ``L`` live here."""
    scale, c = p.scale, list(p.numerators)
    n = len(c) - 1
    factorial = 1
    for k in range(1, n + 1):
        # c[k..n] is the quotient so far, lowest power first (by x it is just
        # c[1..n]); dividing it by x - k in place leaves b_k in c[k]
        s = c[n]
        for i in range(n - 1, k - 1, -1):
            s = c[i] = c[i] + k * s
        factorial *= k
        c[k] *= factorial
    return None if any(value % scale for value in c) else [value // scale for value in c]


def from_newton(a: list[int]) -> Polynomial:
    """The polynomial sum over k of a_k C(x, k), in monomials, by Horner over
    the integers: q_n = a_n and q_k = a_k * n!/k! + (x - k) q_{k+1} give
    q_0 = n! * p, the integer form (n!, q_0); ``acc`` is multiplied in place."""
    acc: list[int] = []
    scale = 1  # n!/k! inside the loop, n! after it
    for k in range(len(a) - 1, -1, -1):
        acc.append(0)
        for i in range(len(acc) - 1, 0, -1):
            acc[i] = acc[i - 1] - k * acc[i]
        acc[0] = a[k] * scale - k * acc[0]
        scale *= k or 1
    return Polynomial.from_integers(scale, acc)


def digit_limit_text(digits: str) -> str:
    """Why ``int`` refused decimal digits (after an optional "-"): the int-to-str digit limit."""
    return f"{len(digits.lstrip('-'))}-digit number is past Python's {sys.get_int_max_str_digits()}-digit limit"


# the most bits of an int whose decimal text has at most 640 digits, the
# smallest int-to-str digit limit that CPython lets anything set
_STR_BITS = 2126
# the most bits of an int that _decimal_digits hands to Decimal() whole
_DECIMAL_BITS = 128


def int_text(n: int) -> str:
    """``str(n)`` for an int of any size: ``str`` itself up to _STR_BITS bits,
    which no digit limit refuses, and past them a divide-and-conquer
    conversion in :mod:`decimal`, whose text has no limit."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    return "-" + _decimal_digits(-n) if n < 0 else _decimal_digits(n)


def _decimal_digits(n: int) -> str:
    """Decimal text of a positive int, as CPython 3.12's ``_pylong`` writes
    it: n of at most w bits is hi * 2**w2 + lo at w2 = w // 2, both halves
    are converted the same way and joined in exact ``Decimal`` arithmetic,
    and each power 2**w2 is made once."""
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        # from the halves' powers, or one doubling: about 10 % faster than
        # Decimal(2) ** w on x^14's and x^16's answers
        result = powers.get(w)
        if result is None:
            if w <= _DECIMAL_BITS:
                result = decimal.Decimal(1 << w)
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:  # the smaller half first, so that the larger may be one doubling of it
                result = power(w >> 1) * power(w - (w >> 1))
            powers[w] = result
        return result

    def convert(n: int, w: int) -> decimal.Decimal:
        if w <= _DECIMAL_BITS:
            return decimal.Decimal(n)
        w2 = w >> 1
        hi = n >> w2
        lo = n - (hi << w2)
        return convert(lo, w2) + convert(hi, w - w2) * power(w2)

    with decimal.localcontext() as context:
        context.prec, context.Emax, context.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
        context.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


def coefficient_texts(p: Polynomial) -> list[str]:
    """Each coefficient as exact text, "n" or "n/d" in lowest terms, lowest power first."""
    texts, scale = [], p.scale
    for n in p.numerators:
        g = math.gcd(n, scale)
        texts.append(int_text(n // g) if g == scale else f"{int_text(n // g)}/{int_text(scale // g)}")
    return texts


def format_polynomial(p: Polynomial) -> str:
    """Canonical text: descending powers, exact rationals, "0" for zero.

    Inverse of :func:`parse_polynomial`: parsing the output reproduces the
    polynomial coefficient-for-coefficient.
    """
    texts, out = coefficient_texts(p), ""
    for power in range(len(texts) - 1, -1, -1):
        text = texts[power]
        if text == "0":
            continue
        negative = text[0] == "-"
        if not out:
            out = "-" if negative else ""
        else:
            out += " - " if negative else " + "
        magnitude = text.lstrip("-")
        if power == 0:
            out += magnitude
        elif magnitude == "1":
            out += _power_text(power)
        else:
            out += f"{magnitude}*{_power_text(power)}"
    return out or "0"


def _power_text(power: int) -> str:
    return "x" if power == 1 else f"x^{power}"


# One match per term.  Every token is its own optional group that takes
# the whitespace after it, so a token whose successor is missing still
# matches and the error is read off the groups, at the column where the
# missing token should start.  ``term`` starts at the term's first token.
_TERM = re.compile(
    r"\s*(?:(?P<sign>[+-])\s*)?"
    r"(?P<term>(?P<neg>-\s*)?"
    r"(?:(?P<int>\d+)\s*(?:/\s*(?P<den>\d*)\s*)?)?"
    r"(?P<star>\*\s*)?"
    r"(?:(?P<x>x)\s*(?:\^\s*(?P<exp>\d*)\s*)?)?"
    r"(?:/\s*(?P<div>\d*)\s*)?)"
)


def parse_polynomial(text: str) -> Polynomial:
    """Parse polynomial text into canonical coefficient form.

    Raises :class:`PolynomialSyntaxError` (with the offending column) on
    malformed input and :class:`DenominatorZeroError` on a zero
    denominator.
    """
    powers: dict[int, tuple[int, int]] = {}  # power -> (numerator, denominator)
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        sign, neg, digits, den, star, x, exp, div = m.group(
            "sign", "neg", "int", "den", "star", "x", "exp", "div"
        )
        if pos and sign is None:  # every term but the first needs its sign
            raise PolynomialSyntaxError(f"expected '+' or '-', found {text[pos]!r}", pos)
        if not (neg or digits or x and not star):  # a term starts with '-', a digit or 'x'
            at = m.start("term")
            if at == len(text):
                raise PolynomialSyntaxError("expected a term", at)
            raise PolynomialSyntaxError(f"expected a term, found {text[at]!r}", at)
        if neg and not digits:
            raise PolynomialSyntaxError("expected digits", m.end("neg"))
        numerator = _uint(m, "int") if digits else 1
        if (sign == "-") != (neg is not None):  # one minus sign, not two
            numerator = -numerator
        denominator = 1 if den is None else _denominator(m, "den")
        if star and not x:
            raise PolynomialSyntaxError("expected 'x'", m.end("star"))
        power = 0 if x is None else 1 if exp is None else _uint(m, "exp")
        if power >= sys.maxsize:  # the coefficient list has max(powers) + 1 entries
            raise PolynomialSyntaxError(f"exponent is too large (must be below {sys.maxsize})", m.start("exp"))
        if div is not None:
            denominator *= _denominator(m, "div")
        total, common = powers.get(power, (0, 1))
        powers[power] = (total * denominator + numerator * common, common * denominator)
        pos = m.end()
        if pos == len(text):
            break
    scale = math.lcm(*(common for _, common in powers.values()))
    numerators = [0] * (max(powers) + 1)
    for power, (total, common) in powers.items():
        numerators[power] = total * (scale // common)
    return Polynomial.from_integers(scale, numerators)


def _uint(m: re.Match, group: str) -> int:
    if not m[group]:
        raise PolynomialSyntaxError("expected digits", m.start(group))
    try:
        return int(m[group])
    except ValueError:
        raise PolynomialSyntaxError(digit_limit_text(m[group]), m.start(group)) from None


def _denominator(m: re.Match, group: str) -> int:
    value = _uint(m, group)
    if value == 0:
        raise DenominatorZeroError("denominator is zero", m.start(group))
    return value

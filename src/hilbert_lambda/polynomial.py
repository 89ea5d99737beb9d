"""Exact-rational univariate polynomials: parsing, evaluation, sampling, formatting.

Accepted text grammar (whitespace insignificant, leading sign allowed on
the first term):

    poly   := term (("+"|"-") term)*
    term   := (coeff ("*"? var)? | var) ("/" uint)?
    var    := "x" ("^" uint)?
    coeff  := int ("/" uint)?
    int    := "-"? uint
    uint   := [0-9]+

The trailing "/ uint" divides the whole term, so "x/2" and "x^2/3" are
accepted alongside "1/2*x" and "3/2x^2".  Duplicate powers are summed.
All literals are read exactly; no floating point is involved anywhere.
"""

from __future__ import annotations

import math
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
    """Dense coefficient vector, lowest power first, no trailing zeros.

    The zero polynomial is the empty coefficient tuple.  Construction
    normalizes: coefficients are coerced to :class:`Fraction` and trailing
    zeros are stripped, so every instance is canonical.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial.

        None rather than -1 so that a forgotten zero-polynomial check
        fails loudly instead of silently feeding a loop bound.
        """
        return len(self.coeffs) - 1 if self.coeffs else None

    def evaluate(self, x: Rational) -> Fraction:
        """Exact value at ``x``, by Horner's rule."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


def sample_points(p: Polynomial, n: int) -> Sequence:
    """Sample p at 0, 1, ..., n into a Sequence of length n + 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return Sequence(p.evaluate(x) for x in range(n + 1))


def newton_coeffs(p: Polynomial) -> tuple[int, list[int]]:
    """``(L, [L*a_0, ..., L*a_n])``: ``L`` the lcm of p's denominators and
    ``a_k = Δ^k p(0)`` the coefficient of C(x, k) in p.  ``L*p`` is sampled
    at 0..n by Horner and differenced in place, all in integers.  p is
    integer-valued exactly when ``L`` divides every entry (Pólya 1915)."""
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    table = [0] * len(p.coeffs)
    for coeff in reversed(p.coeffs):
        c = coeff.numerator * (scale // coeff.denominator)
        table = [value * x + c for x, value in enumerate(table)]
    for k in range(1, len(table)):
        for i in range(len(table) - 1, k - 1, -1):
            table[i] -= table[i - 1]
    return scale, table


def from_newton(a: list[int]) -> Polynomial:
    """The polynomial sum over k of a_k C(x, k), in monomials, by Horner over
    the integers: q_n = a_n and q_k = a_k * n!/k! + (x - k) q_{k+1} give
    q_0 = n! * p, so the only division is by n! at the end."""
    acc: list[int] = []
    scale = 1  # n!/k! inside the loop, n! after it
    for k in range(len(a) - 1, -1, -1):
        acc = [high - k * low for high, low in zip([0] + acc, acc + [0])]
        acc[0] += a[k] * scale
        scale *= k or 1
    return Polynomial(Fraction(c, scale) for c in acc)


def format_rational(q: Fraction) -> str:
    """Canonical text for an exact rational: "a/b", with "/b" omitted when b is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_polynomial(p: Polynomial) -> str:
    """Canonical text: descending powers, exact rationals, "0" for zero.

    Inverse of :func:`parse_polynomial`: parsing the output reproduces the
    polynomial coefficient-for-coefficient.
    """
    if not p.coeffs:
        return "0"
    rendered: list[tuple[bool, str]] = []
    for power in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[power]
        if c == 0:
            continue
        magnitude = abs(c)
        if power == 0:
            body = format_rational(magnitude)
        elif magnitude == 1:
            body = _power_text(power)
        else:
            body = f"{format_rational(magnitude)}*{_power_text(power)}"
        rendered.append((c < 0, body))
    negative, body = rendered[0]
    out = ("-" if negative else "") + body
    for negative, body in rendered[1:]:
        out += (" - " if negative else " + ") + body
    return out


def _power_text(power: int) -> str:
    return "x" if power == 1 else f"x^{power}"


def parse_polynomial(text: str) -> Polynomial:
    """Parse polynomial text into canonical coefficient form.

    Raises :class:`PolynomialSyntaxError` (with the offending column) on
    malformed input and :class:`DenominatorZeroError` on a zero
    denominator.
    """
    return _Parser(text).parse()


class _Parser:
    """Single-pass cursor parser for the grammar in the module docstring."""

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
        if ch.isdigit() or ch == "-":
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
        while not self._at_end() and self._peek().isdigit():
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

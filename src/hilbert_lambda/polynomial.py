"""Exact-rational univariate polynomials: parsing, evaluation, sampling, formatting.

Accepted text grammar (a leading sign is allowed on the first term;
whitespace may stand between tokens, but it splits a number, so "1 2" is
an error at column 2, as "x 2" is):

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
Where an int meets text and CPython's int-to-str digit limit matters, it is
here, cut at 2 126 bits, the one size that no limit refuses: :func:`int_text`
writes decimal of any size for every renderer, :func:`int_literal` writes
each ``repr``'s ints (hex past the cut) and :func:`read_int` reads digits
or names the limit.
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
from typing import Callable, Iterable, NoReturn

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
    ``Polynomial(rationals)`` and :meth:`from_integers` both reduce to it,
    and ``repr`` writes it as ``Polynomial.from_integers(scale, (n0, ...))``.
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
        ns = ", ".join(map(int_literal, self.numerators)) + "," * (len(self.numerators) == 1)
        return f"Polynomial.from_integers({int_literal(self.scale)}, ({ns}))"

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
    ``L*a_k`` (Pólya 1915), so that test and the division by ``L`` live here.
    The divisions by x - k, x - k - 1 and x - k - 2 run as one descending
    pass, each trailing the one before by an index, while more than three
    remain; the last one to three run alone."""
    scale, c = p.scale, list(p.numerators)
    n = len(c) - 1
    factorial, k = 1, 1
    while k + 3 <= n:
        # c[k..n] is the quotient so far, lowest power first (by x it is just
        # c[1..n]); s, t and u step the divisions by x - k, x - k - 1 and
        # x - k - 2, and u is final two indices above s, where it is stored
        top = c[n]
        s = c[n - 1] + k * top
        t = s + (k + 1) * top
        s = c[n - 2] + k * s
        u = top
        for i in range(n - 3, k - 1, -1):
            s, t, u = c[i] + k * s, s + (k + 1) * t, t + (k + 2) * u
            c[i + 2] = u
        # the remainders b_k, b_{k+1} and b_{k+2}, times their factorials
        factorial *= k
        c[k] = s * factorial
        factorial *= k + 1
        c[k + 1] = t * factorial
        factorial *= k + 2
        c[k + 2] *= factorial
        k += 3
    for k in range(k, n + 1):
        s = c[n]
        for i in range(n - 1, k - 1, -1):
            s = c[i] = c[i] + k * s
        factorial *= k
        c[k] *= factorial
    a = []
    for value in c:
        a_k, remainder = divmod(value, scale)
        if remainder:
            return None
        a.append(a_k)
    return a


# from_newton packs its Horner into one integer from this degree on: below
# it the packing's fixed cost loses to the list
_PACKED_DEGREE = 12


def from_newton(a: list[int]) -> Polynomial:
    """The polynomial sum over k of a_k C(x, k), in monomials, by Horner over
    the integers: q_n = a_n and q_k = a_k * n!/k! + (x - k) q_{k+1} give
    q_0 = n! * p, the integer form (n!, q_0).  At mid degrees
    :func:`_packed_horner` runs it; elsewhere ``acc`` is a list multiplied
    in place."""
    n = len(a) - 1
    if n >= _PACKED_DEGREE:
        # a function of its own: its locals in this frame cost each small call about 0.1 µs
        p = _packed_horner(a, n)
        if p is not None:
            return p
    acc: list[int] = []
    scale = 1  # n!/k! inside the loop, n! after it
    for k in range(n, -1, -1):
        prev = 0  # acc[i - 1] before this step
        for i, v in enumerate(acc):
            acc[i] = prev - k * v
            prev = v
        acc.append(prev)
        acc[0] += a[k] * scale
        scale *= k or 1
    return Polynomial.from_integers(scale, acc)


def _packed_horner(a: list[int], n: int) -> Polynomial | None:
    """:func:`from_newton` at degree n with q_k one integer, its coefficients
    in signed w-bit slots (Kronecker substitution x = 2**w), so that a step
    is three integer operations; None where w is too wide for it to win.
    q_0 = sum of a_k n!/k! x(x-1)...(x-k+1), and the absolute values of the
    coefficients of x(x-1)...(x-k+1) sum to k!, so no coefficient of q_0
    reaches n! * sum |a_k|: w is one bit more, in whole bytes.  The slots are
    read once, after 2**(w-1) is added to each."""
    scale = math.factorial(n)
    size = ((scale * sum(map(abs, a))).bit_length() + 8) // 8  # bytes per slot
    # past this width the digit work loses to the list: the break-even is near
    # 16n bits up to degree 24 and near 4n + 320 from there to degree 120
    if size * 8 > min(16 * n, 4 * n + 320):
        return None
    w, q, s = size * 8, 0, 1  # s = n!/k!
    for k in range(n, -1, -1):
        q = (q << w) - k * q + a[k] * s
        s *= k or 1
    half = 1 << (w - 1)
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * (n + 1), "little")  # half in every slot
    data = (q + bias).to_bytes(size * (n + 1), "little")
    slots = [int.from_bytes(data[i : i + size], "little") - half for i in range(0, len(data), size)]
    return Polynomial.from_integers(scale, slots)


# the most bits of an int whose decimal text has at most 640 digits, the
# smallest int-to-str digit limit that CPython lets anything set: the one
# size cut-off where an int meets text
_STR_BITS = 2126


def int_text(n: int) -> str:
    """``str(n)`` for an int of any size: ``str`` itself up to _STR_BITS bits,
    which no digit limit refuses, and past them a divide-and-conquer
    conversion in :mod:`decimal`, whose text has no limit."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    return "-" + _decimal_digits(-n) if n < 0 else _decimal_digits(n)


def int_literal(n: int) -> str:
    """A literal of ``n`` that ``eval`` reads back under any digit limit:
    ``str(n)`` up to _STR_BITS bits, and past them ``hex(n)``, which has no limit."""
    return str(n) if n.bit_length() <= _STR_BITS else hex(n)


def read_int(digits: str, error: Callable[[str], Exception]) -> int:
    """``int(digits)``, or ``error(message)`` raised where int() refuses the digits for the digit limit."""
    try:
        return int(digits)
    except ValueError:  # the caller has checked the digits, "-"? and then decimal digits
        limit = sys.get_int_max_str_digits()
        raise error(f"{len(digits.lstrip('-'))}-digit number is past Python's {limit}-digit limit") from None


def _decimal_digits(n: int) -> str:
    """Decimal text of a positive int, as CPython 3.12's ``_pylong`` writes
    it: n of at most w bits is hi * 2**w2 + lo at w2 = w // 2, split the same
    way down to halves of at most _STR_BITS bits, which ``Decimal()`` reads
    whole, and joined in exact ``Decimal`` arithmetic; each power 2**w2 is
    made once, from the powers of its two halves."""
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        if w not in powers:
            powers[w] = decimal.Decimal(1 << w) if w <= _STR_BITS else power(w >> 1) * power(w - (w >> 1))
        return powers[w]

    def convert(n: int, w: int) -> decimal.Decimal:
        if w <= _STR_BITS:
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
    match, pos, end = _TERM.match, 0, len(text)
    try:
        while True:
            m = match(text, pos)
            sign, _, neg, digits, den, star, x, exp, div = m.groups()
            if sign is None and pos:  # every term but the first needs its sign
                raise PolynomialSyntaxError(f"expected '+' or '-', found {text[pos]!r}", pos)
            if digits:  # the coefficient: digits, a bare 'x' or no term at all
                numerator = int(digits)
                if (sign == "-") != (neg is not None):  # one minus sign, not two
                    numerator = -numerator
            elif neg:
                raise PolynomialSyntaxError("expected digits", m.end("neg"))
            elif x and not star:
                numerator = -1 if sign == "-" else 1
            else:
                at = m.start("term")
                raise PolynomialSyntaxError(f"expected a term, found {text[at]!r}" if at < end else "expected a term", at)
            denominator = 1 if den is None else den and int(den) or _no_number(m, "den")
            if star and not x:
                raise PolynomialSyntaxError("expected 'x'", m.end("star"))
            power = int(exp) if exp else 0 if x is None else 1 if exp is None else _no_number(m, "exp")
            if power >= sys.maxsize:  # the coefficient list has max(powers) + 1 entries
                raise PolynomialSyntaxError(f"exponent is too large (must be below {sys.maxsize})", m.start("exp"))
            if div is not None:
                denominator *= div and int(div) or _no_number(m, "div")
            if power in powers:  # a repeated power: sum the two fractions
                total, common = powers[power]
                numerator, denominator = total * denominator + numerator * common, common * denominator
            powers[power] = numerator, denominator
            pos = m.end()
            if pos == end:
                break
    except PolynomialSyntaxError:
        raise
    except ValueError:  # from int(), on digits past the int-to-str digit limit
        _past_the_limit(m)
        raise  # reached only if another thread has raised the digit limit since
    scale = math.lcm(*[common for _, common in powers.values()])
    top = max(powers)
    try:
        numerators = [0] * (top + 1)
    except MemoryError:
        message = "exponent is too large: its coefficient list does not fit in memory"
        raise PolynomialSyntaxError(message, _exponent_column(text, top)) from None
    for power, (total, common) in powers.items():
        numerators[power] = total * (scale // common)
    return Polynomial.from_integers(scale, numerators)


def _no_number(m: re.Match, group: str) -> NoReturn:
    if m[group]:
        raise DenominatorZeroError("denominator is zero", m.start(group))
    raise PolynomialSyntaxError("expected digits", m.start(group))


def _exponent_column(text: str, power: int) -> int:
    """The column of the first exponent ``power`` in ``text``, which parses."""
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        if m["exp"] and int(m["exp"]) == power:
            return m.start("exp")
        pos = m.end()


def _past_the_limit(m: re.Match) -> None:
    """Raise the error, at its column, for the term's first digit group, in parse order, that int() refuses."""
    for group in ("int", "den", "exp", "div"):
        read_int(m[group] or "0", lambda message: PolynomialSyntaxError(message, m.start(group)))

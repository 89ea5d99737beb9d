from __future__ import annotations

import copy
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbert_lambda.polynomial import (
    DenominatorZeroError,
    Polynomial,
    PolynomialSyntaxError,
    coefficient_texts,
    format_polynomial,
    from_newton,
    int_literal,
    int_text,
    newton_coeffs,
    parse_polynomial,
    sample_points,
)
from hilbert_lambda import ExponentForm, build_hilbert
from hilbert_lambda.calculus import delta, is_integer_sequence
from support import (
    cursor_parse,
    digit_limit,
    fraction_format,
    fraction_horner,
    needs_digit_limit,
    newton_horner_reference,
    past_digit_limit,
)

BIG = "1" * 5000  # past the default int-to-str digit limit

coefficients = st.lists(
    st.fractions(min_value=-100, max_value=100, max_denominator=30),
    max_size=8,
)


def test_constructor_strips_trailing_zeros():
    assert Polynomial([1, 0, 0]).coeffs == (Fraction(1),)
    assert Polynomial([0, 0]).coeffs == ()


def test_degree_of_zero_polynomial_is_none():
    assert Polynomial([]).degree() is None
    assert Polynomial([0]).degree() is None
    assert Polynomial([7]).degree() == 0
    assert Polynomial([0, 0, Fraction(1, 2)]).degree() == 2


def test_equality_and_hash_on_canonical_form():
    assert Polynomial([1, 2]) == Polynomial([Fraction(1), Fraction(2), 0])
    assert hash(Polynomial([1, 2])) == hash(Polynomial([1, 2, 0]))
    assert Polynomial([1]) != Polynomial([2])
    assert not Polynomial([0])
    assert Polynomial([0, 1])
    assert repr(Polynomial([1, Fraction(1, 2)])) == "Polynomial.from_integers(2, (2, 1))"
    # a non-Polynomial is left to the other operand's __eq__
    assert Polynomial([1]).__eq__(1) is NotImplemented


def test_pickles_and_copies_keep_the_canonical_form():
    # every protocol, and copies, rebuild through from_integers; numbers past
    # the int-to-str digit limit too, as protocols 0 and 1 write them in hex
    small = [Polynomial([]), Polynomial([5]), Polynomial([Fraction(1, 2), 3])]
    # 3**2000 has 955 digits: past the least digit limit, 640, and within the default
    small.append(Polynomial([Fraction(1, 3**2000)]))
    huge = build_hilbert(ExponentForm(((2, 10**5000),)))
    assert max(map(abs, huge.numerators)).bit_length() > 16_000
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for p in small + [huge]:
            q = pickle.loads(pickle.dumps(p, protocol))
            assert type(q) is Polynomial and q == p, protocol
    for p in small + [huge]:
        for q in (copy.copy(p), copy.deepcopy(p)):
            assert type(q) is Polynomial and q == p
        # repr writes numbers of any size, and eval reads them back under any digit limit
        with digit_limit(640):
            assert eval(repr(p), {"Polynomial": Polynomial}) == p
    r = 10**5000  # the sum over i <= r of x + 2 - i; repr writes each number past _STR_BITS bits in hex
    assert repr(huge) == f"Polynomial.from_integers(1, ({hex(2 * r - r * (r + 1) // 2)}, {hex(r)}))"


def _coefficient_lists(seed: int, count: int) -> list[list[tuple[int, int]]]:
    """Seeded (numerator, denominator) pairs, unreduced: zeros, trailing
    zeros, negatives and common factors all occur."""
    rng = random.Random(seed)
    lists = []
    for _ in range(count):
        pairs = []
        for _ in range(rng.randint(0, 9)):
            factor = rng.randint(1, 6)
            numerator = 0 if rng.random() < 0.25 else rng.randint(-40, 40)
            pairs.append((numerator * factor, rng.randint(1, 12) * factor))
        pairs += [(0, rng.randint(1, 5))] * rng.choice([0, 0, 1, 3])
        lists.append(pairs)
    return lists


def _seeded_ints(seed: int) -> list[int]:
    """Zero, the largest ints of 2 126 and 2 127 bits, 2**4252 (whose low half
    is 0) and, for each bit length round int_text's cutoff, round the first
    split into halves of 2 126 and 2 127 bits and past 1 Mbit, a seeded int of
    exactly that length, all of each sign."""
    rng = random.Random(seed)
    ints = [0, 2**2126 - 1, -(2**2126 - 1), 2**2127 - 1, -(2**2127 - 1), 2**4252, -(2**4252)]
    for bits in (1, 64, 128, 129, 1000, 2125, 2126, 2127, 2200, 4252, 4253, 4254, 14_000, 100_001, 2**20 + 1):
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        ints += [n, -n]
    return ints


def test_int_text_agrees_with_str():
    # int_text calls str only where even the least limit CPython allows, 640
    # digits, cannot refuse it: up to 2 126 bits, as 2 127 bits can give 641 digits
    assert (len(str(2**2126 - 1)), len(str(2**2127 - 1))) == (640, 641)
    # int by int, smallest first, so that a wrong text fails before the large ints are converted
    for n in sorted({abs(n) for n in _seeded_ints(20261020)}):
        with digit_limit(0):
            digits = str(n)
        for value in (n, -n):
            expected = "-" * (value < 0) + digits
            assert int_text(value) == expected, value.bit_length()
            with digit_limit(640):
                assert int_text(value) == expected, value.bit_length()
                # int_literal, every repr's rule, writes that text up to 2 126 bits and hex past them
                assert int_literal(value) == (expected if n.bit_length() <= 2126 else hex(value))


def test_coefficient_texts_and_format_agree_with_fractions():
    for pairs in _coefficient_lists(17, 300):
        p = Polynomial(Fraction(n, d) for n, d in pairs)
        assert coefficient_texts(p) == [str(c) for c in p.coeffs]
        assert format_polynomial(p) == fraction_format(p)
    huge = build_hilbert(ExponentForm(((3, 10**2200), (1, 1))))
    texts, text = coefficient_texts(huge), format_polynomial(huge)
    with digit_limit(0):
        assert texts == [str(c) for c in huge.coeffs] and text == fraction_format(huge)
        assert parse_polynomial(text) == huge


def test_integer_form_is_canonical():
    for pairs in _coefficient_lists(7, 500):
        coeffs = [Fraction(n, d) for n, d in pairs]
        p = Polynomial(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        assert p.coeffs == tuple(coeffs)
        assert p.scale == math.lcm(*(c.denominator for c in p.coeffs)) > 0
        assert math.gcd(p.scale, *p.numerators) == 1
        assert not p.numerators or p.numerators[-1] != 0
        assert p.degree() == (len(coeffs) - 1 if coeffs else None)
        # the same polynomial from unreduced integers, then scaled by a common factor
        scale = math.prod(d for _, d in pairs)
        numerators = [n * (scale // d) for n, d in pairs]
        for factor in (1, 6, 2**70 - 1):
            q = Polynomial.from_integers(scale * factor, [n * factor for n in numerators])
            assert (q.scale, q.numerators) == (p.scale, p.numerators)
            assert q == p and hash(q) == hash(p)
    assert (Polynomial().scale, Polynomial().numerators) == (1, ())
    assert Polynomial.from_integers(12, [0, 0]) == Polynomial()


def test_coeffs_is_a_read_only_view():
    p = Polynomial.from_integers(4, [2, -6, 8])
    assert p.coeffs == (Fraction(1, 2), Fraction(-3, 2), Fraction(2))
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_evaluate_matches_fraction_horner():
    rng = random.Random(11)
    points = [Fraction(x) for x in range(-5, 6)]
    points += [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(20)]
    for pairs in _coefficient_lists(13, 200):
        p = Polynomial(Fraction(n, d) for n, d in pairs)
        for x in points:
            assert p.evaluate(x) == fraction_horner(p, x), (p, x)
    assert Polynomial().evaluate(Fraction(1, 3)) == 0
    assert type(Polynomial([2]).evaluate(5)) is Fraction


def test_from_newton_matches_list_rebuild_horner():
    rng = random.Random(29)
    for i in range(300):
        length = 121 if i < 3 else rng.randint(0, 40)  # the longest reach degree 120
        a = [rng.randint(-10**6, 10**6) if rng.random() < 0.8 else 0 for _ in range(length)]
        if i % 4 == 0 and a:
            a[-1] = 0  # a zero top coefficient lowers the degree
        p = from_newton(a)
        expected = newton_horner_reference(a)
        assert (p.scale, p.numerators) == (expected.scale, expected.numerators), a
        assert p.coeffs == expected.coeffs


def test_evaluate_worked_value():
    p = Polynomial([1, Fraction(3, 2), Fraction(1, 2)])
    assert p.evaluate(2) == 6


def test_evaluate_accepts_rational_points():
    p = Polynomial([0, 0, 1])
    assert p.evaluate(Fraction(1, 2)) == Fraction(1, 4)


@given(coefficients, st.fractions(min_value=-10, max_value=10, max_denominator=10))
def test_evaluate_matches_term_by_term_sum(coeffs, x):
    p = Polynomial(coeffs)
    expected = sum((c * x**power for power, c in enumerate(p.coeffs)), Fraction(0))
    assert p.evaluate(x) == expected


def test_sample_points_prefix():
    p = Polynomial([1, Fraction(3, 2), Fraction(1, 2)])
    assert sample_points(p, 2).window() == (1, 3, 6)
    assert len(sample_points(p, 5)) == 6


def test_sample_points_rejects_negative_count():
    with pytest.raises(ValueError):
        sample_points(Polynomial([1]), -1)


def _newton_test_polynomials() -> list[Polynomial]:
    rng = random.Random(61)
    polys = []
    for i in range(300):
        family = i % 3
        d = 120 if i < 3 else 60 if i < 6 else rng.randint(0, 24)  # each family reaches 120
        if family == 2:  # rational coefficients, mostly not integer-valued
            coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(d)]
            polys.append(Polynomial(coeffs + [Fraction(rng.randint(1, 99), rng.randint(1, 30))]))
            continue
        a = [rng.randint(-10**6, 10**6) for _ in range(d)] + [rng.randint(1, 10**6)]
        if family == 1:  # negative lead
            a[-1] = -a[-1]
        polys.append(from_newton(a))
    return polys


def test_newton_coeffs_are_differences_of_samples():
    assert newton_coeffs(Polynomial()) == []
    for p in _newton_test_polynomials():
        table = newton_coeffs(p)
        n = p.degree()
        window = sample_points(p, n)
        # Pólya: the coefficients are integers exactly when p is integer-valued
        assert (table is not None) == is_integer_sequence(window), p
        if table is None:
            continue
        expected = [window[0]]
        for _ in range(n):
            window = delta(window)
            expected.append(window[0])
        assert all(type(value) is int for value in table), p
        assert table == expected, p


@pytest.mark.parametrize(
    "coeffs, text",
    [
        ([], "0"),
        ([1], "1"),
        ([-1], "-1"),
        ([0, 1], "x"),
        ([0, Fraction(-1, 2)], "-1/2*x"),
        ([2, 0, -1], "-x^2 + 2"),
        ([1, Fraction(3, 2), Fraction(1, 2)], "1/2*x^2 + 3/2*x + 1"),
        ([1, 3], "3*x + 1"),
        ([-2, 1], "x - 2"),
        ([0, -1, 0, Fraction(-3, 2)], "-3/2*x^3 - x"),
        ([Fraction(-5, 3)], "-5/3"),
    ],
)
def test_format_polynomial(coeffs, text):
    assert format_polynomial(Polynomial(coeffs)) == text
    assert str(Polynomial(coeffs)) == text


@pytest.mark.parametrize(
    "text, coeffs",
    [
        ("0", []),
        ("3*x + 1", [1, 3]),
        ("3/2*x^2", [0, 0, Fraction(3, 2)]),
        ("3/2x^2", [0, 0, Fraction(3, 2)]),
        ("  3/2  x^2  ", [0, 0, Fraction(3, 2)]),
        ("x/2", [0, Fraction(1, 2)]),
        ("x^2/3", [0, 0, Fraction(1, 3)]),
        ("1/2*x", [0, Fraction(1, 2)]),
        ("-x + 1", [1, -1]),
        ("- 3", [-3]),
        ("x + x", [0, 2]),
        ("2 - 3", [-1]),
        ("x^2/2 + x/2 - 1", [-1, Fraction(1, 2), Fraction(1, 2)]),
        ("x^3 - x", [0, -1, 0, 1]),
        ("5/10", [Fraction(1, 2)]),
        ("x/2 + x/3", [0, Fraction(5, 6)]),
    ],
)
def test_parse_polynomial(text, coeffs):
    assert parse_polynomial(text) == Polynomial(coeffs)


def test_parse_equivalent_spellings():
    assert parse_polynomial("3/2*x^2") == parse_polynomial("3/2x^2")
    assert parse_polynomial("x/2") == parse_polynomial("1/2*x")


@pytest.mark.parametrize(
    "text, position",
    [
        ("", 0),
        ("   ", 3),
        ("x +", 3),
        ("y", 0),
        ("*x", 0),
        ("3*", 2),
        ("3*y", 2),
        ("x^", 2),
        ("x^-2", 2),
        ("x 2", 2),
        ("3x 4", 3),
        ("/x", 0),
        ("3/", 2),
        ("3 * y", 4),
        ("x^ ", 3),
        ("2 - -x", 5),
        ("x^²", 2),  # a digit that int() rejects is no digit
        ("3²", 1),
        ("1 2", 2),
        ("1/*7", 2),
    ],
)
def test_parse_errors_carry_position(text, position):
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(text)
    assert info.value.position == position
    assert f"at column {position}" in str(info.value)


@needs_digit_limit
@pytest.mark.parametrize(
    "text, position",
    [
        ("x^" + BIG, 2),
        ("3*x + " + BIG, 6),
        ("-" + BIG, 1),
        ("1/" + BIG, 2),
        ("x/" + BIG, 2),
        # the first of two such numbers, in reading order
        (BIG + "/" + BIG, 0),
        ("x^" + BIG + "/" + BIG, 2),
    ],
)
def test_numbers_past_the_digit_limit_carry_position(text, position):
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(text)
    assert (info.value.message, info.value.position) == (past_digit_limit(5000), position)


@needs_digit_limit
@pytest.mark.parametrize(
    "text, message, position", [("x " + BIG, "expected '+' or '-', found '1'", 2), ("3*/" + BIG, "expected 'x'", 2)]
)
def test_an_error_before_a_number_past_the_digit_limit_wins(text, message, position):
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(text)
    assert (info.value.message, info.value.position) == (message, position)


@pytest.mark.parametrize("text", ["1/0", "x/0", "1/2*x/0", "3/0*x", "x/ 0"])
def test_zero_denominator_is_its_own_error(text):
    with pytest.raises(DenominatorZeroError) as info:
        parse_polynomial(text)
    assert info.value.position == text.index("0")


@given(coefficients)
def test_format_parse_round_trip(coeffs):
    p = Polynomial(coeffs)
    assert parse_polynomial(format_polynomial(p)) == p


_DIGITS = "0123456789"
# the grammar's alphabet, plus a letter, a non-ASCII decimal digit, a digit
# that is not decimal and a non-ASCII space
_CHARS = _DIGITS + "x^*/+-" + " \t" + "y٣²\u00a0"


def _random_text(rng: random.Random) -> str:
    """A free string over ``_CHARS`` or a string shaped like the grammar,
    with random gaps and now and then a stray character."""
    if rng.random() < 0.4:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 12)))

    def digits() -> str:
        return "".join(rng.choice(_DIGITS + "٣") for _ in range(rng.randint(1, 3)))

    pieces: list[str] = []
    for index in range(rng.randint(1, 4)):
        if index or rng.random() < 0.3:
            pieces.append(rng.choice("+-"))
        if rng.random() < 0.15:
            pieces.append("-")
        if rng.random() < 0.7:
            pieces.append(digits())
            if rng.random() < 0.3:
                pieces += ["/", digits()]
        if rng.random() < 0.3:
            pieces.append("*")
        if rng.random() < 0.6:
            pieces.append("x")
            if rng.random() < 0.5:
                pieces += ["^", digits()]
        if rng.random() < 0.2:
            pieces += ["/", digits()]
    if pieces and rng.random() < 0.3:
        del pieces[rng.randrange(len(pieces))]
    if rng.random() < 0.3:
        pieces.insert(rng.randint(0, len(pieces)), rng.choice(_CHARS))
    return "".join(piece + rng.choice(["", "", " ", "\t", "  "]) for piece in pieces)


def _parsed(parse, text: str):
    try:
        return parse(text)
    except PolynomialSyntaxError as error:
        return type(error), error.message, error.position


def test_parser_agrees_with_cursor_reference(partitions_923, rejection_200):
    texts = [format_polynomial(build_hilbert(lam)) for lam in partitions_923]
    texts += [format_polynomial(p) for p in rejection_200]
    texts += [f"x^{n}" for n in range(8, 15)] + [f"9*x^{n}" for n in range(5, 12)]
    rng = random.Random(20261018)
    while len(texts) < 21_000:
        text = _random_text(rng)
        # numbers of at most 3 digits: both parsers allocate a coefficient
        # list as long as the largest exponent
        if not re.search(r"\d{4}", text):
            texts.append(text)
    outcomes = {"value": 0, "error": 0}
    for text in texts:
        expected = _parsed(cursor_parse, text)
        assert _parsed(parse_polynomial, text) == expected, text
        outcomes["value" if isinstance(expected, Polynomial) else "error"] += 1
    assert min(outcomes.values()) > 3_000  # both paths are well exercised

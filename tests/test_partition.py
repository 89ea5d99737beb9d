from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbert_lambda.partition import (
    ExponentForm,
    NonPositivePartError,
    NotNonIncreasingError,
    Partition,
    PartitionSyntaxError,
    _unrank_seq,
    build_hilbert,
    count_non_incr_seqs,
    format_partition,
    from_exponent_form,
    hilbert_value_at,
    non_incr_seqs,
    parse_partition,
    random_partition,
    to_exponent_form,
    validate_partition,
)
from hilbert_lambda.polynomial import Polynomial, format_polynomial
from support import falling_binom_coeffs

partitions = st.lists(st.integers(min_value=1, max_value=8), max_size=8).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True)))
)


def test_partition_accepts_valid_parts():
    assert Partition((3, 3, 1)).parts == (3, 3, 1)
    assert Partition(()).parts == ()
    assert len(Partition((2, 1))) == 2
    assert list(Partition((2, 1))) == [2, 1]
    assert not Partition(())
    assert Partition((1,))


def test_partition_rejects_nonpositive_parts():
    with pytest.raises(NonPositivePartError):
        Partition((0,))
    with pytest.raises(NonPositivePartError):
        Partition((3, -1))


def test_partition_rejects_increasing_parts():
    with pytest.raises(NotNonIncreasingError) as info:
        Partition((1, 2))
    assert info.value.index == 1
    with pytest.raises(NotNonIncreasingError) as info:
        Partition((5, 3, 4, 4))
    assert info.value.index == 2


def test_validate_partition_wraps_any_iterable():
    assert validate_partition([2, 1]).parts == (2, 1)


def test_exponent_form_round_trip_examples():
    lam = Partition((6, 6, 5, 4, 1, 1, 1))
    form = to_exponent_form(lam)
    assert form.pairs == ((6, 2), (5, 1), (4, 1), (1, 3))
    assert from_exponent_form(form) == lam
    assert to_exponent_form(Partition(())).pairs == ()


def test_exponent_form_validation():
    with pytest.raises(ValueError):
        ExponentForm(((2, 1), (2, 1)))  # not strictly decreasing
    with pytest.raises(ValueError):
        ExponentForm(((2, 0),))
    with pytest.raises(NonPositivePartError):
        ExponentForm(((0, 1),))


@given(partitions)
def test_exponent_form_round_trip(lam):
    assert from_exponent_form(to_exponent_form(lam)) == lam


def test_format_partition():
    assert format_partition(Partition((6, 6, 5, 4, 1, 1, 1))) == "(6^2,5,4,1^3)"
    assert format_partition(Partition((3,))) == "(3)"
    assert format_partition(Partition(())) == "()"
    assert str(Partition((2, 2, 2, 1))) == "(2^3,1)"


@pytest.mark.parametrize(
    "text, parts",
    [
        ("(6^2,5,4,1^3)", (6, 6, 5, 4, 1, 1, 1)),
        ("[6,6,5,4,1,1,1]", (6, 6, 5, 4, 1, 1, 1)),
        ("(2^3,1)", (2, 2, 2, 1)),
        ("( 6^2 , 5 )", (6, 6, 5)),
        ("[2, 1]", (2, 1)),
        ("()", ()),
        ("[]", ()),
        ("(7)", (7,)),
    ],
)
def test_parse_partition(text, parts):
    assert parse_partition(text) == Partition(parts)


@given(partitions)
def test_parse_format_round_trip(lam):
    assert parse_partition(format_partition(lam)) == lam


def test_parse_partition_rejects_bad_text():
    with pytest.raises(PartitionSyntaxError):
        parse_partition("2,1")
    with pytest.raises(PartitionSyntaxError):
        parse_partition("(2^0)")
    with pytest.raises(PartitionSyntaxError):
        parse_partition("(a)")
    with pytest.raises(PartitionSyntaxError):
        parse_partition("[2,1")
    with pytest.raises(PartitionSyntaxError):
        parse_partition("(2,)")


def test_parse_partition_rejects_invalid_partitions():
    with pytest.raises(NotNonIncreasingError):
        parse_partition("(1,2)")
    with pytest.raises(NonPositivePartError):
        parse_partition("[0]")


def test_build_hilbert_known_polynomials():
    cases = {
        (1,): "1",
        (2, 1): "x + 2",
        (3,): "1/2*x^2 + 3/2*x + 1",
        (2, 2, 2, 1): "3*x + 1",
    }
    for parts, text in cases.items():
        assert format_polynomial(build_hilbert(Partition(parts))) == text
    assert build_hilbert(Partition(())).coeffs == ()


def test_build_hilbert_degree_and_leading_sign():
    rng = random.Random(11)
    for _ in range(100):
        lam = random_partition(7, 7, rng)
        p = build_hilbert(lam)
        assert p.degree() == lam.parts[0] - 1
        assert p.coeffs[-1] > 0


def _term_by_term(lam: Partition) -> list[Fraction]:
    # C(x + s, d) from the coefficients c_k of C(x, d): c_k (x + s)^k expanded
    # by the binomial theorem, one term per part
    total: list[Fraction] = []
    for position, part in enumerate(lam.parts, start=1):
        d, shift = part - 1, part - position
        total.extend([Fraction(0)] * (d + 1 - len(total)))
        for k, c in enumerate(falling_binom_coeffs(d)):
            for i in range(k + 1):
                total[i] += c * math.comb(k, i) * shift ** (k - i)
    return total


def test_build_hilbert_matches_term_by_term_expansion():
    rng = random.Random(40)
    cases = [Partition(tuple(range(61, 0, -1)))]  # staircase of degree 60
    for _ in range(25):
        pool = rng.sample(range(1, 41), rng.randint(1, 6))  # repeats give runs of equal parts
        parts = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
        cases.append(Partition(tuple(sorted(parts, reverse=True))))
    for lam in cases:
        assert build_hilbert(lam) == Polynomial(_term_by_term(lam)), lam


def test_hilbert_value_at_known_points():
    assert hilbert_value_at(Partition((3,)), 2) == 6
    assert hilbert_value_at(Partition((2, 1)), 0) == 2
    assert hilbert_value_at(Partition(()), 5) == 0


@given(partitions, st.integers(min_value=-10, max_value=10))
def test_hilbert_value_matches_coefficient_expansion(lam, x):
    assert build_hilbert(lam).evaluate(x) == Fraction(hilbert_value_at(lam, x))


def brute_non_incr(m: int, n: int) -> list[tuple[int, ...]]:
    return [
        seq
        for seq in itertools.product(range(n, 0, -1), repeat=m)
        if all(seq[i] >= seq[i + 1] for i in range(m - 1))
    ]


def test_non_incr_seqs_small_case():
    assert list(non_incr_seqs(2, 2)) == [(2, 2), (2, 1), (1, 1)]


def test_non_incr_seqs_matches_brute_force():
    for m in range(1, 5):
        for n in range(1, 5):
            seqs = list(non_incr_seqs(m, n))
            assert set(seqs) == set(brute_non_incr(m, n))
            assert len(seqs) == len(set(seqs))
            assert seqs == sorted(seqs, reverse=True)  # descending lex
            assert len(seqs) == count_non_incr_seqs(m, n)


def test_non_incr_seqs_validates_arguments():
    with pytest.raises(ValueError):
        non_incr_seqs(0, 3)
    with pytest.raises(ValueError):
        non_incr_seqs(3, 0)


def test_count_non_incr_seqs_closed_form():
    assert count_non_incr_seqs(2, 2) == 3
    assert count_non_incr_seqs(4, 1) == 1
    assert sum(count_non_incr_seqs(m, 6) for m in range(1, 7)) == 923
    assert sum(count_non_incr_seqs(m, 5) for m in range(1, 6)) == 251
    assert sum(count_non_incr_seqs(m, 4) for m in range(1, 5)) == 69


def test_unrank_agrees_with_enumeration_order():
    for m, n in [(1, 4), (2, 3), (3, 3), (4, 2)]:
        expected = list(non_incr_seqs(m, n))
        ranked = [_unrank_seq(m, n, i) for i in range(count_non_incr_seqs(m, n))]
        assert ranked == expected


def test_unrank_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        _unrank_seq(2, 2, 3)


def test_random_partition_is_seed_deterministic():
    draws_a = [random_partition(6, 6, random.Random(42)) for _ in range(1)]
    draws_b = [random_partition(6, 6, random.Random(42)) for _ in range(1)]
    assert draws_a == draws_b
    rng_a, rng_b = random.Random(9), random.Random(9)
    for _ in range(50):
        assert random_partition(5, 4, rng_a) == random_partition(5, 4, rng_b)


def test_random_partition_respects_bounds():
    rng = random.Random(3)
    for _ in range(500):
        lam = random_partition(4, 3, rng)
        assert lam.parts
        assert lam.parts[0] <= 4
        assert len(lam) <= 3


def test_random_partition_support_single_length():
    rng = random.Random(0)
    seen = {random_partition(2, 1, rng) for _ in range(100)}
    assert seen == {Partition((1,)), Partition((2,))}


def test_random_partition_single_candidate():
    assert random_partition(1, 1, random.Random(1)) == Partition((1,))


def test_random_partition_is_uniform_over_enumerated_set():
    # 5 candidates; each should land near 1/5 of 10000 draws
    rng = random.Random(20260825)
    counts = Counter(random_partition(2, 2, rng) for _ in range(10000))
    assert len(counts) == 5
    for lam, seen in counts.items():
        assert math.isclose(seen / 10000, 0.2, abs_tol=0.02), (lam, seen)


def test_random_partition_validates_arguments():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        random_partition(0, 1, rng)
    with pytest.raises(ValueError):
        random_partition(1, 0, rng)

from __future__ import annotations

import copy
import itertools
import math
import pickle
import random
import time
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
    build_hilbert,
    count_non_incr_seqs,
    format_exponent_form,
    from_exponent_form,
    hilbert_value_at,
    non_incr_seqs,
    parse_partition,
    random_partition,
    to_exponent_form,
)
from hilbert_lambda.polynomial import Polynomial, format_polynomial, parse_polynomial
from hilbert_lambda.recovery import recover_delta
from support import (
    assert_record_contract,
    digit_limit,
    falling_binom_coeffs,
    flat_scan_offender,
    needs_digit_limit,
    past_digit_limit,
)

partitions = st.lists(st.integers(min_value=1, max_value=8), max_size=8).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True)))
)


def test_partition_accepts_valid_parts():
    # the flat constructor builds the one record, holding the runs of the parts
    assert type(Partition((3, 3, 1))) is ExponentForm
    assert Partition((3, 3, 1)) == ExponentForm(((3, 2), (1, 1)))
    assert Partition((3, 3, 1)).parts == (3, 3, 1)
    assert Partition(()).parts == ()
    assert (len(Partition((3, 3, 1))), len(Partition())) == (3, 0)
    assert not Partition(())
    assert Partition((1,))


def test_partition_record_expands_only_through_parts():
    lam = Partition((2, 2, 1))
    with pytest.raises(TypeError):  # not iterable: read pairs or parts
        iter(lam)
    with pytest.raises(AttributeError):
        lam.parts = (1,)
    assert lam.parts == (2, 2, 1)


def test_partition_rejects_nonpositive_parts():
    with pytest.raises(NonPositivePartError):
        Partition((0,))
    with pytest.raises(NonPositivePartError):
        Partition((3, -1))
    # the offender's index counts parts, inside a run and after one
    with pytest.raises(NonPositivePartError, match="part 0 at index 3 "):
        Partition((3, 3, 3, 0))
    with pytest.raises(NonPositivePartError, match="part 0 at index 0 "):
        Partition((0, 0))


def test_partition_rejects_increasing_parts():
    with pytest.raises(NotNonIncreasingError) as info:
        Partition((1, 2))
    assert info.value.index == 1
    with pytest.raises(NotNonIncreasingError) as info:
        Partition((5, 3, 4, 4))
    assert info.value.index == 2
    with pytest.raises(NotNonIncreasingError) as info:
        Partition((2, 2, 3))
    assert info.value.index == 2


def test_partition_names_the_first_offender_as_a_flat_scan_does():
    # mostly non-increasing sequences, with a few parts overwritten by zeros,
    # negatives and larger values, so offenders fall inside runs and after them
    rng = random.Random(20261019)
    for _ in range(3000):
        parts = sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 10))), reverse=True)
        for _ in range(rng.randint(0, 2) if parts else 0):
            parts[rng.randrange(len(parts))] = rng.randint(-2, 8)
        parts = tuple(parts)
        expected = flat_scan_offender(parts)
        if expected is None:
            assert Partition(parts).parts == parts
            continue
        with pytest.raises(ValueError) as info:
            Partition(parts)
        assert type(info.value) is type(expected), parts
        assert str(info.value) == str(expected), parts
        assert getattr(info.value, "index", None) == getattr(expected, "index", None), parts


def test_partition_records_are_false_only_when_empty():
    assert (bool(Partition()), bool(Partition((2, 1)))) == (False, True)
    assert (bool(ExponentForm()), bool(ExponentForm(((2, 1),)))) == (False, True)


@pytest.mark.parametrize(
    "record, fields, text, other",
    [
        (Partition((3, 1)), {"pairs": ((3, 1), (1, 1))}, "ExponentForm(pairs=((3, 1), (1, 1)))", Partition((3,))),
        (
            ExponentForm(((3, 10**30), (1, 2))),
            {"pairs": ((3, 10**30), (1, 2))},
            f"ExponentForm(pairs=((3, {10**30}), (1, 2)))",
            ExponentForm(((3, 10**30), (1, 1))),
        ),
        (
            ExponentForm(((2, 3), (1, 1))),
            {"pairs": ((2, 3), (1, 1))},
            "ExponentForm(pairs=((2, 3), (1, 1)))",
            ExponentForm(((2, 3),)),
        ),
        (ExponentForm(), {"pairs": ()}, "ExponentForm(pairs=())", ExponentForm(((1, 1),))),
    ],
)
def test_partition_records(record, fields, text, other):
    assert_record_contract(record, fields, text, other)


def test_partition_records_compare_by_type():
    # a record built from parts is the record of its runs; neither is a tuple
    assert Partition() == ExponentForm() and Partition((2, 2, 1)) == ExponentForm(((2, 2), (1, 1)))
    assert ExponentForm() != () and Partition((1,)) != (1,) and ExponentForm(((1, 1),)) != ((1, 1),)
    assert len({Partition(), ExponentForm(), ()}) == 2
    # copies and pickles are rebuilt from the runs through the validating constructor
    assert Partition((2, 1)).__reduce__() == (ExponentForm, (((2, 1), (1, 1)),))
    assert ExponentForm(((2, 1),)).__reduce__() == (ExponentForm, (((2, 1),),))


def test_astronomical_record_reprs_pickles_and_copies_from_its_runs():
    # x^5's answer has 6 runs and about 7e56 parts; x^10's has multiplicities
    # past CPython's 4 300-digit limit, which repr writes in hex
    for text in ("x^5", "x^10"):
        form = recover_delta(parse_polynomial(text)).form
        twins = {
            "repr": lambda: eval(repr(form), {"ExponentForm": ExponentForm}),
            "copy": lambda: copy.copy(form),
            "deepcopy": lambda: copy.deepcopy(form),
        }
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            twins[f"pickle {protocol}"] = lambda protocol=protocol: pickle.loads(pickle.dumps(form, protocol))
        for name, make in twins.items():
            began = time.perf_counter()
            twin = make()
            assert time.perf_counter() - began < 1, (text, name)
            assert (type(twin), twin == form, hash(twin) == hash(form)) == (ExponentForm, True, True), (text, name)
        assert form and ("0x" in repr(form)) == (text == "x^10")
        with pytest.raises(OverflowError):
            len(form)
    assert str(recover_delta(parse_polynomial("x^5")).form).startswith("(6^120,5^6780,4^23513960,3^")
    assert repr(ExponentForm(((2, 10**5000),))) == f"ExponentForm(pairs=((2, {hex(10**5000)}),))"


def test_reprs_read_back_under_any_digit_limit():
    # x^9's answer has 674-digit multiplicities and x^10's 6 410-digit ones;
    # repr writes each number past 2 126 bits in hex, whatever the limit
    names = {"ExponentForm": ExponentForm, "Polynomial": Polynomial}
    for text in ("x^9", "x^10"):
        form = recover_delta(parse_polynomial(text)).form
        for record in (form, build_hilbert(form)):
            with digit_limit(640):
                shown = repr(record)
                assert eval(shown, names) == record, text
            with digit_limit(0):
                assert repr(record) == shown, text
            assert repr(record) == shown and eval(shown, names) == record, text


def test_exponent_form_round_trip_examples():
    lam = Partition((6, 6, 5, 4, 1, 1, 1))
    form = to_exponent_form(lam)
    assert form.pairs == ((6, 2), (5, 1), (4, 1), (1, 3))
    assert from_exponent_form(form) == lam
    assert to_exponent_form(Partition(())).pairs == ()
    # runs given as lists are held as tuples, as runs grouped from parts are
    listed = ExponentForm([[6, 2], [5, 1], [4, 1], [1, 3]])
    assert (listed, hash(listed), from_exponent_form(listed)) == (form, hash(form), lam)


def test_exponent_form_keeps_runs_that_can_be_read_once():
    pairs = ((3, 2), (1, 1))
    assert ExponentForm((value, multiplicity) for value, multiplicity in pairs).pairs == pairs
    assert ExponentForm(iter(pairs)).pairs == pairs


def test_exponent_form_validation():
    with pytest.raises(ValueError, match="strictly decreasing"):
        ExponentForm(((2, 1), (2, 1)))  # equal runs, not increasing ones
    with pytest.raises(ValueError):
        ExponentForm(((2, 0),))
    with pytest.raises(NonPositivePartError):
        ExponentForm(((0, 1),))
    with pytest.raises(NotNonIncreasingError) as info:
        ExponentForm(((2, 5), (1, 1), (3, 1)))
    assert info.value.index == 6
    # parts and multiplicities are integers: a float, Fraction or string fails, True is held as 1
    for pairs in (((3, 1.5),), ((2.5, 1),), ((Fraction(2), 1),), ((2, "1"),)):
        with pytest.raises(TypeError):
            ExponentForm(pairs)
    with pytest.raises(TypeError):
        Partition((2.0, 1))
    held = ExponentForm(((2, True), (True, 1))).pairs
    assert held == ((2, 1), (1, 1)) and {type(number) for run in held for number in run} == {int}


@given(partitions)
def test_exponent_form_round_trip(lam):
    assert from_exponent_form(to_exponent_form(lam)) == lam


def test_format_partition():
    # str is the canonical exponent text, read from the runs
    assert str(Partition((6, 6, 5, 4, 1, 1, 1))) == "(6^2,5,4,1^3)"
    assert str(Partition((3,))) == "(3)"
    assert str(Partition(())) == "()"
    assert str(ExponentForm(((3, 10**30), (1, 2)))) == f"(3^{10**30},1^2)"
    assert format_exponent_form(Partition((2, 2, 2, 1))) == "(2^3,1)"


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
        ("(2,2^3,1)", (2, 2, 2, 2, 1)),  # equal neighbours merge into ((2, 4), (1, 1))
        ("[2,2,2,2,1]", (2, 2, 2, 2, 1)),
    ],
)
def test_parse_partition(text, parts):
    assert parse_partition(text) == to_exponent_form(Partition(parts))


def test_parse_partition_keeps_runs_unexpanded():
    assert parse_partition("(3^1000000000000,2,1^5)").pairs == ((3, 10**12), (2, 1), (1, 5))


@given(partitions)
def test_parse_format_round_trip(lam):
    assert parse_partition(str(lam)) == to_exponent_form(lam)


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
    # numbers are what -?\d+ matches, as in polynomial text, not all that int() reads
    for text in ("(1_0)", "(+3)", "(2^+1)"):
        with pytest.raises(PartitionSyntaxError):
            parse_partition(text)


@needs_digit_limit
@pytest.mark.parametrize("text", ["(1^{})", "({})", "[-{}]", "(2,1^{})"])
def test_parse_partition_numbers_past_the_digit_limit(text):
    with pytest.raises(PartitionSyntaxError) as info:
        parse_partition(text.format("1" * 5000))
    assert str(info.value) == past_digit_limit(5000)


def test_parse_partition_rejects_invalid_partitions():
    with pytest.raises(NotNonIncreasingError):
        parse_partition("(1,2)")
    with pytest.raises(NonPositivePartError):
        parse_partition("[0]")
    with pytest.raises(NonPositivePartError):
        parse_partition("[-3]")
    # the offender's index counts parts, not runs
    with pytest.raises(NotNonIncreasingError) as info:
        parse_partition("(2^3,3)")
    assert info.value.index == 3


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


def test_build_hilbert_accepts_exponent_form(partitions_923):
    points = range(-3, 8)
    for lam in partitions_923:
        form = to_exponent_form(lam)
        assert form.pairs == tuple((value, len(list(run))) for value, run in itertools.groupby(lam.parts)), lam
        assert build_hilbert(form) == build_hilbert(lam), lam
        assert [hilbert_value_at(form, x) for x in points] == [hilbert_value_at(lam, x) for x in points], lam
    assert build_hilbert(ExponentForm()) == Polynomial()


def test_build_hilbert_degree_and_leading_sign():
    rng = random.Random(11)
    for _ in range(100):
        lam = random_partition(7, 7, rng)
        p = build_hilbert(lam)
        assert p.degree() == lam.pairs[0][0] - 1
        assert p.coeffs[-1] > 0


def _term_by_term(lam: ExponentForm) -> list[Fraction]:
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
    assert hilbert_value_at(ExponentForm(((2, 1), (1, 1))), 0) == 2
    assert hilbert_value_at(ExponentForm(), 5) == 0
    # past sys.maxsize parts, so only the runs can be evaluated
    form = ExponentForm(((3, 10**30), (1, 2)))
    p = build_hilbert(form)
    for x in range(-3, 8):
        assert hilbert_value_at(form, x) == p.evaluate(x), x


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


class _IndexRng:
    """Stands in for random.Random: checks the one randrange bound and
    returns a chosen index."""

    def __init__(self, total: int, index: int):
        self.total, self.index = total, index

    def randrange(self, stop: int) -> int:
        assert stop == self.total
        return self.index


def test_random_partition_unranks_every_index_in_enumeration_order():
    # index i is the i-th partition with lengths ascending, each length in
    # non_incr_seqs order; the rng is asked for exactly the set's size
    for max_part in range(1, 7):
        for max_len in range(1, 7):
            expected = [
                to_exponent_form(Partition(seq))
                for m in range(1, max_len + 1)
                for seq in non_incr_seqs(m, max_part)
            ]
            drawn = [
                random_partition(max_part, max_len, _IndexRng(len(expected), index))
                for index in range(len(expected))
            ]
            assert drawn == expected, (max_part, max_len)


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
        assert lam.pairs
        assert lam.pairs[0][0] <= 4
        assert sum(mult for _, mult in lam.pairs) <= 3


def test_random_partition_support_single_length():
    rng = random.Random(0)
    seen = {random_partition(2, 1, rng) for _ in range(100)}
    assert seen == {ExponentForm(((1, 1),)), ExponentForm(((2, 1),))}


def test_random_partition_single_candidate():
    assert random_partition(1, 1, random.Random(1)) == ExponentForm(((1, 1),))


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

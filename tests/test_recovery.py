from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbert_lambda.calculus import Sequence, binomial_seq_value
from hilbert_lambda.partition import (
    ExponentForm,
    Partition,
    build_hilbert,
    hilbert_value_at,
    random_partition,
    to_exponent_form,
)
from hilbert_lambda.polynomial import Polynomial, format_polynomial, parse_polynomial
from hilbert_lambda.recovery import (
    NegativeLeadingMultiplicity,
    NonIntegerValued,
    NotHilbert,
    SearchExhausted,
    Success,
    TraceStep,
    recover_delta,
    recover_naive,
    subtract_block,
)
from support import (
    assert_record_contract,
    negative_lead_poly,
    shifted_hilbert_poly,
    window_recover,
)

partitions = st.lists(st.integers(min_value=1, max_value=8), max_size=8).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True)))
)


def success_of(*parts: int) -> Success:
    return Success(Partition(parts))


FORM = ExponentForm(((2, 3), (1, 1)))
STEP = TraceStep(2, 2, 1, 2, (-1, -3, -5))
STEP_FIELDS = {"m": 2, "r": 2, "s": 1, "e": 2, "residual": STEP.residual}
STEP_TEXT = "TraceStep(m=2, r=2, s=1, e=2, residual=(-1, -3, -5))"
FORM_TEXT = "ExponentForm(pairs=((2, 3), (1, 1)))"


@pytest.mark.parametrize(
    "record, fields, text, other",
    [
        (NonIntegerValued(), {}, "NonIntegerValued()", None),
        (
            NegativeLeadingMultiplicity(1, -2),
            {"at_degree": 1, "value": -2},
            "NegativeLeadingMultiplicity(at_degree=1, value=-2)",
            NegativeLeadingMultiplicity(1, -3),
        ),
        (SearchExhausted(3), {"r_max": 3}, "SearchExhausted(r_max=3)", SearchExhausted(4)),
        (STEP, STEP_FIELDS, STEP_TEXT, TraceStep(2, 2, 1, 3, STEP.residual)),
        (
            Success(FORM),
            {"form": FORM, "warnings": (), "trace": None},
            f"Success(form={FORM_TEXT}, warnings=(), trace=None)",
            Success(FORM, ("w",)),
        ),
        (
            Success(FORM, ("w",), (STEP,)),
            {"form": FORM, "warnings": ("w",), "trace": (STEP,)},
            f"Success(form={FORM_TEXT}, warnings=('w',), trace=({STEP_TEXT},))",
            Success(FORM, ("w",)),
        ),
        (
            NotHilbert(SearchExhausted(3)),
            {"reason": SearchExhausted(3), "trace": None},
            "NotHilbert(reason=SearchExhausted(r_max=3), trace=None)",
            NotHilbert(SearchExhausted(4)),
        ),
        (
            NotHilbert(NonIntegerValued(), (STEP,)),
            {"reason": NonIntegerValued(), "trace": (STEP,)},
            f"NotHilbert(reason=NonIntegerValued(), trace=({STEP_TEXT},))",
            NotHilbert(NonIntegerValued()),
        ),
    ],
)
def test_outcome_records(record, fields, text, other):
    assert_record_contract(record, fields, text, other)


def test_outcome_records_are_tuples_unequal_across_types():
    assert recover_delta(Polynomial([1, 3])) == Success(FORM)
    # each record is the tuple of its fields...
    form, warnings, trace = Success(FORM)
    assert (form, warnings, trace) == (FORM, (), None) == Success(FORM)
    assert SearchExhausted(3) == (3,) and NotHilbert(SearchExhausted(3))[0].r_max == 3
    assert not NonIntegerValued()
    # ...so two reasons, or two outcomes, of different types differ only
    # while no two of those types share an arity
    reasons = [NonIntegerValued(), NegativeLeadingMultiplicity(0, 0), SearchExhausted(0)]
    outcomes = [Success(ExponentForm()), NotHilbert(NonIntegerValued())]
    for records in (reasons, outcomes):
        for a, b in itertools.combinations(records, 2):
            assert a != b and len(a) != len(b)


def test_subtract_block_removes_leading_block():
    # window of 3*x + 1 minus three copies of the degree-1 binomial leaves (1,1)
    window = Sequence([1, 4])
    assert subtract_block(window, 1, 2, 1, 3).window() == (1, 1)


def test_subtract_block_handles_later_positions():
    # positions 4..4 of a 1-part contribute the constant 1
    window = Sequence([1, 1])
    assert subtract_block(window, 1, 1, 4, 4).window() == (0, 0)


def test_subtract_block_empty_span_is_identity():
    window = Sequence([2, 3])
    assert subtract_block(window, 1, 2, 3, 2).window() == (2, 3)


def test_subtract_block_matches_term_by_term_sum():
    # the telescoped form must agree with the literal sum, negative
    # binomial arguments included
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(0, 5)
        window = Sequence([rng.randint(-50, 50) for _ in range(n + 1)])
        v = rng.randint(1, 6)
        start = rng.randint(1, 12)
        end = start - 1 + rng.randint(0, 12)
        got = subtract_block(window, n, v, start, end).window()
        expected = tuple(
            value - sum(binomial_seq_value(v - 1, x + v - i) for i in range(start, end + 1))
            for x, value in enumerate(window)
        )
        assert got == expected


def test_recover_delta_survives_large_intermediate_multiplicities():
    # 9*x^5 decides to a partition with ~5e87 parts: the first round alone
    # extracts 9 * 5! = 1080 copies of 6, and every later round sees
    # positions past the previous block.  The run-length result must come
    # back instantly without ever materializing the flat tuple.
    p = Polynomial([0, 0, 0, 0, 0, 9])
    outcome = recover_delta(p)
    assert isinstance(outcome, Success)
    values = tuple(v for v, _ in outcome.form.pairs)
    multiplicities = tuple(m for _, m in outcome.form.pairs)
    assert values == (6, 5, 4, 3, 2, 1)
    assert multiplicities[0] == 9 * 120
    assert all(m > 0 for m in multiplicities)
    assert sum(multiplicities) > 10**80


def test_recover_delta_large_success_matches_window():
    # independent check of a huge recovery: evaluate each recovered run
    # through its telescoped closed form and compare against p on the
    # sample window
    p = Polynomial([3, 0, 0, 2])
    outcome = recover_delta(p)
    assert isinstance(outcome, Success)
    assert outcome.form.pairs == ((4, 12), (3, 42), (2, 1159), (1, 709559))
    for x in range(p.degree() + 1):
        assert hilbert_value_at(outcome.form, x) == p.evaluate(x)


@pytest.mark.parametrize("text", [f"x^{n}" for n in range(8, 17)] + [f"9*x^{n}" for n in range(5, 12)])
def test_build_inverts_recover_at_astronomical_scale(text):
    # up to ~5e87 parts (9*x^5) and 2.83 Mbit multiplicities (x^16): the
    # record holds these answers as runs, and build reads the runs
    p = parse_polynomial(text)
    outcome = recover_delta(p)
    assert isinstance(outcome, Success)
    assert build_hilbert(outcome.form) == p


@pytest.mark.parametrize("c, k", [(1, k) for k in range(8, 14)] + [(9, k) for k in range(5, 12)])
def test_astronomical_answers_evaluate_to_the_input(c, k):
    # build and recover share peel_block, so a fault in it could cancel out
    # in a round trip; hilbert_value_at evaluates the runs without it
    outcome = recover_delta(parse_polynomial(f"{c}*x^{k}"))
    assert isinstance(outcome, Success)
    points = range(-2, k + 2)
    assert [hilbert_value_at(outcome.form, x) for x in points] == [c * x**k for x in points]


def test_x14_answer_is_pinned():
    # the telescoped check above takes over a second for x^14, so its answer
    # is pinned instead: 15 blocks, values 15 down to 1, and the last
    # multiplicity's size and residue mod the prime 2**61 - 1
    outcome = recover_delta(parse_polynomial("x^14"))
    assert isinstance(outcome, Success)
    assert [v for v, _ in outcome.form.pairs] == list(range(15, 0, -1))
    last = outcome.form.pairs[-1][1]
    assert (last.bit_length(), last % (2**61 - 1)) == (579065, 315206720885538779)


def nabla(p: Polynomial) -> Polynomial:
    """p(x) - p(x - 1), each (x - 1)^k expanded exactly by the binomial theorem."""
    coeffs = list(p.coeffs)
    for k, c in enumerate(p.coeffs):
        for i in range(k + 1):
            coeffs[i] -= c * math.comb(k, i) * (-1) ** (k - i)
    return Polynomial(coeffs)


def assert_metamorphic_relations(p: Polynomial) -> None:
    """For a Hilbert p: λ(∇p) is λ(p) with its 1s dropped and every other
    part lowered by one, and λ(p + c) is λ(p) with c more 1s.  Neither
    evaluates the answer, so both hold at astronomical scale."""
    pairs = recover_delta(p).form.pairs
    above = [(value, mult) for value, mult in pairs if value > 1]
    ones = sum(mult for value, mult in pairs if value == 1)
    assert recover_delta(nabla(p)).form == ExponentForm((value - 1, mult) for value, mult in above)
    constant, *rest = p.coeffs
    for c in (0, 1, 7):
        shifted = recover_delta(Polynomial((constant + c, *rest)))
        assert shifted.form == ExponentForm(above + ([(1, ones + c)] if ones + c else [])), c


def test_metamorphic_relations_on_the_corpus(partitions_923):
    for lam in partitions_923:
        assert_metamorphic_relations(build_hilbert(lam))


@pytest.mark.parametrize("text", [f"x^{n}" for n in range(8, 17)] + [f"9*x^{n}" for n in range(5, 12)])
def test_metamorphic_relations_at_astronomical_scale(text):
    assert_metamorphic_relations(parse_polynomial(text))


def test_subtract_block_validates_arguments():
    window = Sequence([1, 4])
    with pytest.raises(ValueError):
        subtract_block(window, 2, 2, 1, 1)  # window length != n + 1
    with pytest.raises(ValueError):
        subtract_block(window, 1, 2, 0, 1)
    with pytest.raises(ValueError):
        subtract_block(window, 1, 2, 3, 1)


@pytest.mark.parametrize(
    "text, parts",
    [
        ("1", (1,)),
        ("x + 2", (2, 1)),
        ("3*x + 1", (2, 2, 2, 1)),
        ("1/2*x^2 + 3/2*x + 1", (3,)),
    ],
)
def test_recover_delta_known_partitions(text, parts):
    outcome = recover_delta(parse_polynomial(text))
    assert outcome == success_of(*parts)


def test_recover_delta_trace():
    outcome = recover_delta(parse_polynomial("3*x + 1"), want_trace=True)
    assert isinstance(outcome, Success)
    assert outcome.form == Partition((2, 2, 2, 1))
    steps = [(step.m, step.r, step.s, step.e) for step in outcome.trace]
    assert steps == [(1, 3, 1, 3), (0, 1, 4, 4)]
    # a_0, a_1 of 1 + 3*C(x, 1) after each peel: the 2^3 block takes 3*C(x, 1), the 1 block the 1
    assert outcome.trace[0].residual == (1, 0)
    assert outcome.trace[1].residual == (0, 0)
    # the zero polynomial and a non-integer-valued one return before any round
    for text in ("0", "x/2"):
        assert recover_delta(parse_polynomial(text), want_trace=True).trace == ()


def test_recover_delta_without_trace_flag_has_no_trace():
    for text in ("3*x + 1", "0", "x/2"):
        assert recover_delta(parse_polynomial(text)).trace is None


def test_recover_delta_zero_polynomial():
    outcome = recover_delta(Polynomial([]))
    assert isinstance(outcome, Success)
    assert outcome.form == ExponentForm(()) == Partition(())
    assert outcome.warnings


@pytest.mark.parametrize(
    "text, reason",
    [
        ("x", NegativeLeadingMultiplicity(at_degree=0, value=-1)),
        ("2*x", NegativeLeadingMultiplicity(at_degree=0, value=-1)),
        ("x^2", NegativeLeadingMultiplicity(at_degree=1, value=-2)),
        ("x/2", NonIntegerValued()),
        ("-1", NegativeLeadingMultiplicity(at_degree=0, value=-1)),
        ("x^2/2 + x/2 - 1", NegativeLeadingMultiplicity(at_degree=1, value=-1)),
    ],
)
def test_recover_delta_rejections(text, reason):
    outcome = recover_delta(parse_polynomial(text))
    assert outcome == NotHilbert(reason)


def test_reason_descriptions():
    assert (
        NegativeLeadingMultiplicity(1, -2).describe()
        == "negative leading multiplicity (-2 at degree 1 residual)"
    )
    assert NonIntegerValued().describe() == "sample window contains non-integer values"
    assert SearchExhausted(4).describe() == "search exhausted with no match up to size 4"


@given(partitions)
def test_recover_delta_round_trip(lam):
    outcome = recover_delta(build_hilbert(lam), want_trace=True)
    assert isinstance(outcome, Success)
    assert outcome.form == to_exponent_form(lam)
    block_degrees = [step.m for step in outcome.trace or ()]
    assert block_degrees == sorted(block_degrees, reverse=True)
    assert len(set(block_degrees)) == len(block_degrees)


def _equivalence_inputs() -> list[Polynomial]:
    rng = random.Random(20261018)
    inputs = []
    for _ in range(150):
        inputs.append(build_hilbert(random_partition(12, 8, rng)))
        inputs.append(shifted_hilbert_poly(rng))
        inputs.append(negative_lead_poly(rng))
        # mostly not integer-valued; the integer-valued ones are rejected
        # or accepted on structure
        degree = rng.randint(0, 6)
        inputs.append(
            Polynomial(
                [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 6, 24])) for _ in range(degree)]
                + [Fraction(rng.randint(1, 9), rng.choice([1, 2, 6, 120]))]
            )
        )
    inputs += [parse_polynomial(f"x^{d}") for d in range(8, 12)]
    inputs += [parse_polynomial(f"9*x^{d}") for d in range(5, 9)]
    return inputs


def test_recover_delta_matches_window_engine_with_trace():
    # the Newton-basis core against the sample-window engine it replaced,
    # trace residuals included, which the window engine reads off as Δ^k p(0)
    for p in _equivalence_inputs():
        assert recover_delta(p, want_trace=True) == window_recover(p), format_polynomial(p)


def test_recover_delta_staircase_needs_every_round():
    # one block per degree exercises the maximum number of extraction rounds
    lam = Partition((5, 4, 3, 2, 1))
    assert recover_delta(build_hilbert(lam)) == Success(to_exponent_form(lam))


def test_recover_naive_known_partition():
    outcome = recover_naive(parse_polynomial("3*x + 1"), 10)
    assert outcome == success_of(2, 2, 2, 1)


def test_recover_naive_pins_single_part():
    assert recover_naive(parse_polynomial("1"), 1) == success_of(1)


def test_recover_naive_respects_length_bound():
    p = parse_polynomial("3*x + 1")  # needs 4 parts
    assert recover_naive(p, 3) == NotHilbert(SearchExhausted(3))
    assert recover_naive(p, 4) == success_of(2, 2, 2, 1)


def test_recover_naive_validates_r_max():
    with pytest.raises(ValueError):
        recover_naive(parse_polynomial("1"), 0)


def test_recover_naive_non_integer_window():
    assert recover_naive(parse_polynomial("x/2"), 4) == NotHilbert(NonIntegerValued())


def test_recover_naive_zero_polynomial():
    outcome = recover_naive(Polynomial([]), 4)
    assert isinstance(outcome, Success)
    assert outcome.form == ExponentForm(())


def test_engines_agree_on_small_partitions():
    for parts in [(1,), (2,), (2, 1), (3, 2, 2), (3, 3, 3)]:
        lam = Partition(parts)
        p = build_hilbert(lam)
        assert recover_delta(p) == Success(to_exponent_form(lam))
        assert recover_naive(p, 3) == Success(to_exponent_form(lam))


def test_engines_reject_constructed_non_hilbert_polynomials():
    rng = random.Random(77)
    for _ in range(20):
        for maker in (negative_lead_poly, shifted_hilbert_poly):
            p = maker(rng)
            delta_outcome = recover_delta(p)
            naive_outcome = recover_naive(p, 4)
            assert isinstance(delta_outcome, NotHilbert)
            assert isinstance(delta_outcome.reason, NegativeLeadingMultiplicity)
            assert naive_outcome == NotHilbert(SearchExhausted(4))


def test_rejected_polynomials_are_integer_valued():
    # the rejection families must fail on structure, not on integrality
    rng = random.Random(78)
    for _ in range(20):
        for maker in (negative_lead_poly, shifted_hilbert_poly):
            p = maker(rng)
            degree = p.degree()
            assert degree is not None
            assert all(p.evaluate(x).denominator == 1 for x in range(degree + 1))


def test_success_carries_exact_fraction_free_parts():
    outcome = recover_delta(parse_polynomial("x + 2"))
    assert all(isinstance(part, int) for part in outcome.form.parts)
    assert all(
        isinstance(value, int) and isinstance(mult, int)
        for value, mult in outcome.form.pairs
    )

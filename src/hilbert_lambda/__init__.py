"""Decide whether a rational polynomial is a Hilbert polynomial and
recover the unique integer partition that generates it.

The partition (a1 >= ... >= ar >= 1) generates

    h(x) = sum over i of C(x + a_i - i, a_i - 1),

binomials read as polynomials in x.  ``recover_delta`` inverts the map
on the integer coefficients a_k = Δ^k p(0) of p in the basis C(x, k):
p is integer-valued exactly when every a_k is an integer, and each round
peels the block of equal parts read off the top nonzero a_k.
``build_hilbert`` peels the same blocks off zeros and negates the sum.
``recover_naive`` inverts the map by bounded enumeration and serves as a
cross-check oracle.
"""

from __future__ import annotations

from .calculus import (
    LengthTooShortError,
    Sequence,
    binomial_seq_value,
    delta,
    is_integer_sequence,
    reduce,
)
from .partition import (
    ExponentForm,
    NonPositivePartError,
    NotNonIncreasingError,
    Partition,
    PartitionSyntaxError,
    build_hilbert,
    count_non_incr_seqs,
    format_exponent_form,
    format_partition,
    from_exponent_form,
    hilbert_value_at,
    non_incr_seqs,
    parse_partition,
    random_partition,
    to_exponent_form,
)
from .polynomial import (
    DenominatorZeroError,
    Polynomial,
    PolynomialSyntaxError,
    format_polynomial,
    format_rational,
    parse_polynomial,
    sample_points,
)
from .recovery import (
    NegativeLeadingMultiplicity,
    NonIntegerValued,
    NotHilbert,
    Outcome,
    Reason,
    SearchExhausted,
    Success,
    TraceStep,
    recover_delta,
    recover_naive,
    subtract_block,
)

__version__ = "0.1.0"

__all__ = [
    "DenominatorZeroError",
    "ExponentForm",
    "LengthTooShortError",
    "NegativeLeadingMultiplicity",
    "NonIntegerValued",
    "NonPositivePartError",
    "NotHilbert",
    "NotNonIncreasingError",
    "Outcome",
    "Partition",
    "PartitionSyntaxError",
    "Polynomial",
    "PolynomialSyntaxError",
    "Reason",
    "SearchExhausted",
    "Sequence",
    "Success",
    "TraceStep",
    "binomial_seq_value",
    "build_hilbert",
    "count_non_incr_seqs",
    "delta",
    "format_exponent_form",
    "format_partition",
    "format_polynomial",
    "format_rational",
    "from_exponent_form",
    "hilbert_value_at",
    "is_integer_sequence",
    "non_incr_seqs",
    "parse_partition",
    "parse_polynomial",
    "random_partition",
    "recover_delta",
    "recover_naive",
    "reduce",
    "sample_points",
    "subtract_block",
    "to_exponent_form",
]

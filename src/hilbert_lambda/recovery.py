"""Two engines that recover the generating partition from a polynomial.

``recover_delta`` holds the residual as its integer coefficients
a_k = Δ^k p(0) in the basis C(x, k): each round's block of equal parts,
degree m and multiplicity r, is the top nonzero a_m and is subtracted in
O(m) integer operations, so a decision costs O(n^2) of them; the loop
ends when every a_k is zero.  ``recover_naive`` searches candidate
partitions in descending lexicographic order and compares values on
enough sample points to pin the polynomial down.  Both return
``Success`` with the partition or ``NotHilbert`` with a structured reason.

Success carries the partition in run-length form.  Innocent-looking
inputs decide to polynomials of partitions with astronomically many
parts (already 2*x^3 + 3 goes that way), so the flat tuple is never
built inside the engines; ``Success.flat()`` materializes it on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .calculus import Sequence, binomial_seq_value, block_newton, is_integer_sequence
from .calculus import reduce  # noqa: F401  kept as recovery.reduce, which perfbench/worker.py traces
from .partition import (
    ExponentForm,
    Partition,
    from_exponent_form,
    hilbert_value_at,
    non_incr_seqs,
    to_exponent_form,
)
from .polynomial import Polynomial, from_newton, newton_coeffs, sample_points


@dataclass(frozen=True)
class NonIntegerValued:
    """The polynomial takes a non-integer value on the sample window."""

    def describe(self) -> str:
        return "sample window contains non-integer values"


@dataclass(frozen=True)
class NegativeLeadingMultiplicity:
    """The residual's top binomial-basis coefficient, its next block's part count, is negative."""

    at_degree: int
    value: int

    def describe(self) -> str:
        return f"negative leading multiplicity ({self.value} at degree {self.at_degree} residual)"


@dataclass(frozen=True)
class SearchExhausted:
    """No candidate of length <= r_max matched the sample window."""

    r_max: int

    def describe(self) -> str:
        return f"search exhausted with no match up to size {self.r_max}"


Reason = NonIntegerValued | NegativeLeadingMultiplicity | SearchExhausted


@dataclass(frozen=True)
class TraceStep:
    """One subtraction round: degree m, multiplicity r, index span [s, e]."""

    m: int
    r: int
    s: int
    e: int
    residual: tuple[Fraction, ...]


@dataclass(frozen=True)
class Success:
    """Recovered partition in run-length form, largest value first."""

    form: ExponentForm
    warnings: tuple[str, ...] = ()
    trace: tuple[TraceStep, ...] | None = None

    def flat(self) -> Partition:
        """Expand to the flat partition.  Size equals the number of parts,
        which recovered forms do not bound; fine at desk scale."""
        return from_exponent_form(self.form)


@dataclass(frozen=True)
class NotHilbert:
    reason: Reason
    trace: tuple[TraceStep, ...] | None = None


Outcome = Success | NotHilbert


def subtract_block(p: Sequence, n: int, part_value: int, start: int, end: int) -> Sequence:
    """Subtract sum over i in [start, end] of C(x + part_value - i, part_value - 1)
    from the window values of ``p`` at x = 0..n.

    An empty span (end == start - 1) subtracts nothing.  The window must
    cover exactly x = 0..n.

    The sum telescopes through the Pascal identity (a polynomial identity,
    so it survives negative arguments) to two binomial values per point,
    so the cost does not depend on the span width, which can be astronomical.
    """
    if len(p) != n + 1:
        raise ValueError(f"window has {len(p)} values, expected {n + 1}")
    if start < 1:
        raise ValueError("start must be >= 1")
    if end < start - 1:
        raise ValueError("end must be >= start - 1")
    v = part_value
    values = []
    for x, value in enumerate(p):
        block = binomial_seq_value(v, x + v - start + 1) - binomial_seq_value(v, x + v - end)
        values.append(value - block)
    return Sequence(values)


def recover_delta(p: Polynomial, *, want_trace: bool = False) -> Outcome:
    """Decide Hilbertness of ``p`` and recover its partition by peeling blocks.

    Runs on the Newton-basis core: the residual is held as its integer
    coefficients a_k of C(x, k), which exist exactly when p is
    integer-valued, so the up-front check is exact.  Each round's block is
    the top nonzero a_m; removing it costs O(m) integer operations, the
    decision O(n^2).  Trace residuals p(0..n) are rebuilt only on request.
    """
    n = p.degree()
    if n is None:
        return Success(ExponentForm(), warnings=("zero polynomial: empty partition by convention",))
    scale, a = newton_coeffs(p)
    if any(value % scale for value in a):
        return NotHilbert(NonIntegerValued())
    a = [value // scale for value in a]
    blocks: list[tuple[int, int]] = []
    trace: list[TraceStep] = []
    start, m = 1, n
    # block degrees strictly decrease, so at most n + 1 subtraction
    # rounds plus one final zero check
    for _ in range(n + 2):
        while m >= 0 and a[m] == 0:
            m -= 1
        if m < 0:
            return Success(ExponentForm(tuple(blocks)), trace=tuple(trace) if want_trace else None)
        r = a[m]
        if r < 0:
            return NotHilbert(
                NegativeLeadingMultiplicity(at_degree=m, value=r),
                trace=tuple(trace) if want_trace else None,
            )
        end = start + r - 1
        for j, b in enumerate(block_newton(m + 1, start, end)):
            a[j] -= b
        blocks.append((m + 1, r))
        if want_trace:
            trace.append(TraceStep(m=m, r=r, s=start, e=end, residual=sample_points(from_newton(a), n).window()))
        start = end + 1
    raise RuntimeError("block extraction failed to terminate within degree + 2 rounds")


def compare_candidate(candidate: Partition, p_data: Sequence) -> bool:
    """True when the candidate's polynomial matches every window value."""
    for x, value in enumerate(p_data):
        if hilbert_value_at(candidate, x) != value:
            return False
    return True


def recover_naive(p: Polynomial, r_max: int) -> Outcome:
    """Decide Hilbertness of ``p`` by enumerating candidate partitions.

    A non-empty match must have first part n + 1 (n = deg p), so the
    first part is pinned and only tails of lengths 0..r_max - 1 over
    {1..n+1} are enumerated.  Two degree-<=n polynomials agreeing on
    n + 1 points are equal, so the first window match is the partition.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    degree = p.degree()
    if degree is None:
        return Success(ExponentForm(), warnings=("zero polynomial: empty partition by convention",))
    n = degree
    window = sample_points(p, n)
    if not is_integer_sequence(window):
        return NotHilbert(NonIntegerValued())
    first = n + 1
    candidate = Partition((first,))
    if compare_candidate(candidate, window):
        return Success(to_exponent_form(candidate))
    for tail_length in range(1, r_max):
        for tail in non_incr_seqs(tail_length, first):
            candidate = Partition((first,) + tail)
            if compare_candidate(candidate, window):
                return Success(to_exponent_form(candidate))
    return NotHilbert(SearchExhausted(r_max))

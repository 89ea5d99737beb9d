"""Two engines that recover the generating partition from a polynomial.

``recover_delta`` holds the residual as its integer coefficients
a_k = Δ^k p(0) in the basis C(x, k): each round's block of equal parts,
degree m and multiplicity r, is the top nonzero a_m and is peeled off in
place (:func:`hilbert_lambda.calculus.peel_block`) in O(m) integer
operations, so a decision costs O(n^2) of them; one pass from a_n down
to a_0 reads each a_k once and leaves them all zero.  Each peel is handed
the previous one's result and reuses that binomial chain where it can, so
it multiplies out one chain, not two; a block of one part multiplies out
at most its own lower chain.
A requested trace records each round's block and a snapshot of the
a_0..a_n its peel leaves.
``recover_naive`` searches candidate partitions in descending
lexicographic order and compares values on enough sample points to pin
the polynomial down.  Both return ``Success`` with the partition or
``NotHilbert`` with a structured reason.

Success carries the partition as its runs, an :class:`ExponentForm`.
Innocent-looking inputs decide to polynomials of partitions with
astronomically many parts (already 2*x^3 + 3 goes that way), so nothing
here expands them; only the record's ``parts`` does.
"""

from __future__ import annotations

__all__ = [
    "NegativeLeadingMultiplicity",
    "NonIntegerValued",
    "NotHilbert",
    "Outcome",
    "Reason",
    "SearchExhausted",
    "Success",
    "TraceStep",
    "recover_delta",
    "recover_naive",
    "subtract_block",
]

from itertools import chain
from typing import NamedTuple

from .calculus import Sequence, binomial_seq_value, block_value, is_integer_sequence, peel_block
from .calculus import reduce  # noqa: F401  kept as recovery.reduce, which perfbench/worker.py traces
from .partition import ExponentForm, Partition, non_incr_seqs
from .partition import from_exponent_form  # noqa: F401  kept as recovery.from_exponent_form, which perfbench/worker.py traces
from .polynomial import Polynomial, int_text, newton_coeffs, sample_points


class NonIntegerValued(NamedTuple):
    """The polynomial takes a non-integer value at some integer."""

    def describe(self) -> str:
        return "sample window contains non-integer values"


class NegativeLeadingMultiplicity(NamedTuple):
    """The residual's top binomial-basis coefficient, its next block's part count, is negative."""

    at_degree: int
    value: int

    def describe(self) -> str:
        return f"negative leading multiplicity ({int_text(self.value)} at degree {self.at_degree} residual)"


class SearchExhausted(NamedTuple):
    """No candidate of length <= r_max matched the sample window."""

    r_max: int

    def describe(self) -> str:
        return f"search exhausted with no match up to size {self.r_max}"


Reason = NonIntegerValued | NegativeLeadingMultiplicity | SearchExhausted


class TraceStep(NamedTuple):
    """One subtraction round: degree m, multiplicity r, index span [s, e],
    and the residual's coefficients a_0..a_n in the basis C(x, k) after the peel."""

    m: int
    r: int
    s: int
    e: int
    residual: tuple[int, ...]


class Success(NamedTuple):
    """Recovered partition in run-length form, largest value first."""

    form: ExponentForm
    warnings: tuple[str, ...] = ()
    trace: tuple[TraceStep, ...] | None = None


class NotHilbert(NamedTuple):
    reason: Reason
    trace: tuple[TraceStep, ...] | None = None


Outcome = Success | NotHilbert


def subtract_block(p: Sequence, n: int, part_value: int, start: int, end: int) -> Sequence:
    """Subtract sum over i in [start, end] of C(x + part_value - i, part_value - 1)
    from the window values of ``p`` at x = 0..n.

    An empty span (end == start - 1) subtracts nothing.  The window must
    cover exactly x = 0..n.  Each point takes the block's telescoped value
    (:func:`hilbert_lambda.calculus.block_value`), two binomial values, so
    the cost does not depend on the span width, which can be astronomical.
    """
    if len(p) != n + 1:
        raise ValueError(f"window has {len(p)} values, expected {n + 1}")
    if start < 1:
        raise ValueError("start must be >= 1")
    if end < start - 1:
        raise ValueError("end must be >= start - 1")
    return Sequence(value - block_value(part_value, start, end, x) for x, value in enumerate(p))


def recover_delta(p: Polynomial, *, want_trace: bool = False) -> Outcome:
    """Decide Hilbertness of ``p`` and recover its partition by peeling blocks.

    The residual is held as its integer coefficients a_k of C(x, k), which
    :func:`newton_coeffs` hands over, or None when p is not integer-valued;
    p's scale stays inside polynomial.py.  Each round's block is the top
    nonzero a_m; removing it costs O(m) integer operations, the decision
    O(n^2).  With ``want_trace`` every outcome carries a trace, empty when no
    round ran; a step's residual is the a_k as its peel left them.
    """
    trace: tuple[TraceStep, ...] | None = () if want_trace else None
    a = newton_coeffs(p)
    if a is None:
        return NotHilbert(NonIntegerValued(), trace)
    if not a:
        return Success(ExponentForm(), ("zero polynomial: empty partition by convention",), trace)
    blocks: list[tuple[int, int]] = []
    start, above = 1, None
    # a block of value m + 1 writes only a_0..a_m and zeroes a_m: each a_m is final when read
    for m in range(len(a) - 1, -1, -1):
        r = a[m]
        if r == 0:
            continue
        if r < 0:
            return NotHilbert(NegativeLeadingMultiplicity(at_degree=m, value=r), trace)
        end = start + r - 1
        above = peel_block(a, m + 1, start, end, above)
        blocks.append((m + 1, r))
        if want_trace:
            trace += (TraceStep(m=m, r=r, s=start, e=end, residual=tuple(a)),)
        start = end + 1
    return Success(ExponentForm(tuple(blocks)), trace=trace)


def recover_naive(p: Polynomial, r_max: int) -> Outcome:
    """Decide Hilbertness of ``p`` by enumerating candidate partitions.

    A non-empty match must have first part n + 1 (n = deg p), so the
    first part is pinned and only tails of lengths 0..r_max - 1 over
    {1..n+1} are enumerated.  Two degree-<=n polynomials agreeing on
    n + 1 points are equal, so the first window match is the partition.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    n = p.degree()
    if n is None:
        return Success(ExponentForm(), warnings=("zero polynomial: empty partition by convention",))
    window = sample_points(p, n)
    if not is_integer_sequence(window):
        return NotHilbert(NonIntegerValued())
    first = n + 1
    tails = chain([()], *(non_incr_seqs(length, first) for length in range(1, r_max)))
    for tail in tails:
        candidate = (first,) + tail  # part i adds C(x + a - i, a - 1); only the match becomes a record
        terms = [(a - 1, a - i) for i, a in enumerate(candidate, 1)]
        if all(sum(binomial_seq_value(d, x + shift) for d, shift in terms) == value for x, value in enumerate(window)):
            return Success(Partition(candidate))
    return NotHilbert(SearchExhausted(r_max))

"""Integer partitions, their run-length form, and the polynomials they generate.

A partition (a1 >= a2 >= ... >= ar >= 1) generates the polynomial

    h(x) = sum over i of C(x + a_i - i, a_i - 1)

with the binomials read as polynomials in x.  Exactly the polynomials of
this shape are Hilbert polynomials, and the generating partition is
unique; the recovery engines in :mod:`hilbert_lambda.recovery` invert the
construction.  Both directions share integer coefficients in the basis
C(x, k) and the in-place block peel
(:func:`hilbert_lambda.calculus.peel_block`), each peel handed the one
above it so that it can reuse that binomial chain.

A partition is held in one record, :class:`ExponentForm`: its runs
((value, multiplicity), ...).  Multiplicities can be astronomically
large, so only ``parts`` expands them; build, evaluation, text, ``repr``,
equality, pickles and copies read the runs, in one step per run.
:func:`Partition` groups flat parts into a record, and partition text is
parsed, and a random partition drawn, straight into runs.  Every record,
unpickled and copied ones too, passes its runs through one check, the
:class:`ExponentForm` constructor's, which names an offender by its flat
index.
"""

from __future__ import annotations

__all__ = [
    "ExponentForm",
    "NonPositivePartError",
    "NotNonIncreasingError",
    "Partition",
    "PartitionSyntaxError",
    "build_hilbert",
    "count_non_incr_seqs",
    "format_exponent_form",
    "from_exponent_form",
    "hilbert_value_at",
    "non_incr_seqs",
    "parse_partition",
    "random_partition",
    "to_exponent_form",
]

import itertools
import math
import operator
import random
import re
import sys
from typing import Iterator

from .calculus import block_value, peel_block
from .polynomial import Polynomial, from_newton, int_literal, int_text, read_int


class NonPositivePartError(ValueError):
    """A partition entry was less than 1."""


class NotNonIncreasingError(ValueError):
    """Partition entries increased; ``index`` is the first offender."""

    def __init__(self, index: int):
        super().__init__(f"parts must be non-increasing (offending index {index})")
        self.index = index


class PartitionSyntaxError(ValueError):
    """Malformed partition text."""


class ExponentForm:
    """A partition as its runs ((value, multiplicity), ...), values strictly decreasing; may be empty.

    Compared and hashed by its runs, and false only when empty.  ``repr``,
    pickles and copies read the runs too, and unpickling or copying passes
    them through the check again.  ``repr`` writes a number past 2 126 bits in
    hex (``int_literal``), which ``eval`` reads under any int-to-str digit limit,
    and pickle protocols 0 and 1 write the runs in hex.  ``parts`` is the one
    expansion; ``len()`` is the part count and raises ``OverflowError`` past
    ``sys.maxsize`` parts.  A record is not iterable: read ``pairs`` or ``parts``.
    """

    __slots__ = ("_pairs",)
    pairs = property(operator.attrgetter("_pairs"))

    def __init__(self, pairs: tuple[tuple[int, int], ...] = ()) -> None:
        # the package's one check of runs; pairs is read once, so any iterable will do
        runs, previous, index = [], None, 0  # index: the flat index of the run's first part
        for value, multiplicity in pairs:
            value, multiplicity = operator.index(value), operator.index(multiplicity)  # ints only, True as 1
            if value < 1:
                raise NonPositivePartError(f"part {value} at index {index} is not positive")
            if multiplicity < 1:
                raise ValueError(f"multiplicity {multiplicity} is not positive")
            if previous is not None and value > previous:
                raise NotNonIncreasingError(index)
            if value == previous:
                raise ValueError("values must be strictly decreasing")
            runs.append((value, multiplicity))  # tuples, whatever sequences came in
            previous, index = value, index + multiplicity
        self._pairs = tuple(runs)

    @property
    def parts(self) -> tuple[int, ...]:
        parts: list[int] = []
        for value, multiplicity in self._pairs:
            parts += [value] * multiplicity
        return tuple(parts)

    def __len__(self) -> int:
        return sum(multiplicity for _, multiplicity in self._pairs)

    def __eq__(self, other: object) -> bool:
        return self._pairs == other._pairs if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)  # not len(), which can overflow

    def __repr__(self) -> str:
        runs = [f"({int_literal(value)}, {int_literal(multiplicity)})" for value, multiplicity in self._pairs]
        return f"ExponentForm(pairs=({', '.join(runs)}{',' * (len(runs) == 1)}))"

    def __reduce__(self) -> tuple:
        return ExponentForm, (self._pairs,)  # unpickling checks the runs, at every protocol

    def __reduce_ex__(self, protocol: int) -> tuple:
        # protocols 0 and 1 write an int as decimal text, which CPython refuses
        # past its digit limit: they write the runs in hex, which has none
        if protocol < 2:
            return _from_hex, (tuple((hex(value), hex(multiplicity)) for value, multiplicity in self._pairs),)
        return self.__reduce__()

    def __str__(self) -> str:
        return format_exponent_form(self)


def _from_hex(pairs: tuple[tuple[str, str], ...]) -> ExponentForm:
    """The record of runs written in hex, checked as every record is."""
    return ExponentForm((int(value, 16), int(multiplicity, 16)) for value, multiplicity in pairs)


def Partition(parts: tuple[int, ...] = ()) -> ExponentForm:
    """The record of the non-increasing flat ``parts``, grouped into runs
    once; the check names an offender by its index in ``parts``."""
    return ExponentForm((value, len(list(run))) for value, run in itertools.groupby(parts))


def to_exponent_form(partition: ExponentForm) -> ExponentForm:
    """The record itself, which holds its runs already; ``from_exponent_form`` is the same."""
    return partition


from_exponent_form = to_exponent_form


def build_hilbert(partition: ExponentForm) -> Polynomial:
    """Expand sum over i of C(x + a_i - i, a_i - 1) into coefficient form.

    The i-th part a_i (1-based) contributes a term of degree a_i - 1, so a
    non-empty partition yields degree a_1 - 1 and the empty one zero.  Each
    run of equal parts is peeled off zeros in the basis C(x, k) in O(value)
    integer operations, whatever its size, and the sum is negated once at
    the end.  Each peel is handed the one above it and reuses that binomial
    chain where it can.  A run of one part is a single binomial term and
    walks one chain only: a partition into distinct consecutive parts, such
    as a staircase, builds by subtractions alone after its first part.
    """
    pairs = partition._pairs
    a = [0] * (pairs[0][0] if pairs else 0)
    start, above = 1, None
    for value, multiplicity in pairs:
        above = peel_block(a, value, start, start + multiplicity - 1, above)
        start += multiplicity
    return from_newton([-b for b in a])


def hilbert_value_at(partition: ExponentForm, x: int) -> int:
    """Value at integer ``x`` of the polynomial the partition generates.

    Sums :func:`hilbert_lambda.calculus.block_value` over the runs, read as
    :func:`build_hilbert` reads them: one step per run, whatever its size.
    The result is an integer for every integer ``x``, including negatives.
    """
    total, start = 0, 1
    for value, multiplicity in partition._pairs:
        total += block_value(value, start, start + multiplicity - 1, x)
        start += multiplicity
    return total


def non_incr_seqs(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield every non-increasing length-m sequence over {1..n} exactly once.

    Descending lexicographic order: (n,...,n) first, (1,...,1) last.
    C(n+m-1, m) sequences in total.  Lazy, so callers can short-circuit;
    the full set explodes quickly.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return itertools.combinations_with_replacement(range(n, 0, -1), m)


def count_non_incr_seqs(m: int, n: int) -> int:
    """Closed-form size of non_incr_seqs(m, n)."""
    return math.comb(n + m - 1, m)


def random_partition(max_part: int, max_len: int, rng: random.Random) -> ExponentForm:
    """Uniform draw over every non-empty partition with largest part
    <= max_part and length <= max_len, in run-length form.

    Lengths ascend, each in :func:`non_incr_seqs` order; the one
    ``rng.randrange`` index is unranked run by run with O(max_part *
    log max_len) closed-form counts.  Deterministic for a seeded rng.
    """
    if max_part < 1 or max_len < 1:
        raise ValueError("max_part and max_len must be >= 1")
    if max_part >= sys.maxsize:  # as parse_partition's parts: build_hilbert sizes a list by the largest part
        raise ValueError(f"max_part {max_part} is too large (must be below {sys.maxsize})")
    # padded to length max_len with max_part + 1 for each missing part, the
    # partitions are the non-increasing sequences over {1..max_part + 1}: in
    # descending lex order more padding comes first, and index 0 is the empty one
    index = rng.randrange(count_non_incr_seqs(max_len, max_part + 1) - 1) + 1
    m, pairs = max_len, []
    for value in range(max_part + 1, 0, -1):
        # the count_non_incr_seqs(k, value) length-m sequences over {1..value}
        # that open with at least m - k copies of value come first; bisect for
        # the least k whose count passes index (range() stops at sys.maxsize)
        lo, k = 0, m
        while lo < k:
            mid = (lo + k) // 2
            lo, k = (lo, mid) if count_non_incr_seqs(mid, value) > index else (mid + 1, k)
        index -= count_non_incr_seqs(k - 1, value) if k else 0
        if k < m and value <= max_part:
            pairs.append((value, m - k))
        m = k
    return ExponentForm(tuple(pairs))


def format_exponent_form(form: ExponentForm) -> str:
    """Canonical exponent text, e.g. "(6^2,5,4,1^3)", read from the runs; the empty partition is "()"."""
    pieces = []
    for value, multiplicity in form.pairs:
        pieces.append(f"{int_text(value)}^{int_text(multiplicity)}" if multiplicity > 1 else int_text(value))
    return "(" + ",".join(pieces) + ")"


def parse_partition(text: str) -> ExponentForm:
    """Parse exponent form "(6^2,5,4,1^3)" or flat form "[6,6,5,4,1,1,1]".

    Whitespace is ignored.  Equal neighbours merge into one run, so
    "(2,2^3,1)" gives ((2, 4), (1, 1)), and no run is ever expanded.  A
    number is decimal digits after an optional "-" (``-?\\d+``), so "1_0" and
    "+3" are syntax errors.  Validity is the :class:`ExponentForm`'s own
    check, so "(1,2)" fails with :class:`NotNonIncreasingError` and "[0]"
    with :class:`NonPositivePartError`.
    """
    compact = "".join(text.split())
    if compact[:1] + compact[-1:] not in ("()", "[]"):  # a lone "(" reads "(("
        raise PartitionSyntaxError("expected '(...)' or '[...]' partition text")
    exponent, body = compact[0] == "(", compact[1:-1]
    runs: list[tuple[int, int]] = []
    for item in body.split(",") if body else ():
        value_text, caret, mult_text = item.partition("^") if exponent else (item, "", "")
        value = _parse_int(value_text)
        if value >= sys.maxsize:  # build_hilbert's coefficient list has max(values) entries
            raise PartitionSyntaxError(f"part {value} is too large (must be below {sys.maxsize})")
        multiplicity = _parse_int(mult_text) if caret else 1
        if multiplicity < 1:
            raise PartitionSyntaxError(f"multiplicity {multiplicity} must be >= 1")
        if runs and runs[-1][0] == value:
            multiplicity += runs.pop()[1]
        runs.append((value, multiplicity))
    return ExponentForm(tuple(runs))


def _parse_int(text: str) -> int:
    if not _INT.fullmatch(text):  # int() also reads "1_0" and "+3"
        raise PartitionSyntaxError(f"expected an integer, found {text!r}")
    return read_int(text, PartitionSyntaxError)


_INT = re.compile(r"-?\d+")

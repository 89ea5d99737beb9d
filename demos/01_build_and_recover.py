"""
Build a Hilbert polynomial from a partition and get the partition back
=======================================================================

Every integer partition generates one Hilbert polynomial, and no two
partitions generate the same one.  This script builds a few polynomials
and runs the recovery in the other direction, then evaluates an answer
far too large to list part by part straight from its runs.
"""

from __future__ import annotations

from hilbert_lambda import (
    Partition,
    Success,
    build_hilbert,
    format_partition,
    format_polynomial,
    hilbert_value_at,
    parse_polynomial,
    recover_delta,
)

# a handful of partitions, from the trivial to a repeated-part example
partitions = [
    Partition((1,)),
    Partition((2, 1)),
    Partition((3,)),
    Partition((2, 2, 2, 1)),
    Partition((6, 5, 4, 3, 2, 1)),
]

for lam in partitions:
    p = build_hilbert(lam)
    outcome = recover_delta(p)
    assert isinstance(outcome, Success)
    recovered = outcome.flat()
    print(f"{format_partition(lam):>16}  ->  p(x) = {format_polynomial(p)}")
    print(f"{'':>16}  <-  recovered {format_partition(recovered)}")
    assert recovered == lam

# the degree of p is always (largest part - 1), and the leading
# coefficient is (number of copies of the largest part) / degree!
lam = Partition((4, 4, 4, 2))
p = build_hilbert(lam)
print()
print(f"p for {format_partition(lam)} has degree {p.degree()} = 4 - 1")
print(f"leading coefficient {p.coeffs[-1]} = 3 / 3!")

# 9*x^5 comes back as six runs with about 5e87 parts in all; hilbert_value_at
# evaluates the run-length answer one run at a time
p = parse_polynomial("9*x^5")
outcome = recover_delta(p)
assert isinstance(outcome, Success)
parts = sum(multiplicity for _, multiplicity in outcome.form.pairs)
print()
print(f"9*x^5 <- {len(outcome.form.pairs)} runs, {parts:.2e} parts")
for x in (-2, 0, 1, 3, 10):
    value = hilbert_value_at(outcome.form, x)
    assert value == p.evaluate(x)
    print(f"  runs evaluated at x = {x:>2}: {value:>7} = p({x})")

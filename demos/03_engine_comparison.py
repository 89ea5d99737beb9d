"""
Two recovery engines: enumeration versus difference calculus
============================================================

The naive engine walks every candidate partition up to a size bound and
compares sample windows.  The delta engine writes the polynomial in the
binomial basis of the discrete derivative and peels one block per
distinct part value off its coefficients.
Both return the same partition; only one of them scales.
"""

from __future__ import annotations

import time

from hilbert_lambda import (
    Partition,
    Success,
    build_hilbert,
    recover_delta,
    recover_naive,
)


def mean_runtime(runner, reps: int = 5) -> float:
    runner()  # warm up
    began = time.perf_counter()
    for _ in range(reps):
        runner()
    return (time.perf_counter() - began) / reps


print(f"{'partition':>22}  {'delta':>10}  {'naive':>10}  ratio")
for degree in range(1, 6):
    # staircase partitions make the naive search space grow quickly
    lam = Partition(tuple(range(degree + 1, 0, -1)))
    p = build_hilbert(lam)
    r_max = len(lam)

    delta_outcome = recover_delta(p)
    naive_outcome = recover_naive(p, r_max)
    assert isinstance(delta_outcome, Success)
    assert delta_outcome == naive_outcome

    delta_s = mean_runtime(lambda: recover_delta(p))
    naive_s = mean_runtime(lambda: recover_naive(p, r_max))
    print(
        f"{str(lam):>22}  {delta_s * 1e3:>8.3f}ms  {naive_s * 1e3:>8.3f}ms"
        f"  {naive_s / delta_s:>5.1f}x"
    )

print()
print("the delta engine also never needs a size bound: the naive engine")
print("must be told how many parts to try before giving up")

"""Probes: fixed work that shows how fast this host runs Python right now.

On a shared host the same code can run up to twice as fast in one second
as in the next, depending on what other tenants are doing, and a
30-second run can stay slow throughout.  The ratio of an operation's time
to a probe's time measured during and around it stays put far better
(see README.md), so the benchmark reports every time scaled to a host on
which the probe takes its reference time.  A probe mirrors the work a
workload spends its time in: Fraction arithmetic with factorial-sized
denominators, products of integers tens of thousands of bits long, and
the small operations of one line of a batch.  A probe never calls the
package, so a change to the package cannot move it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from time import perf_counter as clock

_FACTORIAL_40 = math.factorial(40)
_FACTORIAL_34 = math.factorial(34)
_BIG = 3**20000  # 31 700 bits
_TEXT = "3/2*x^2 - 1/2*x + 17"


def _fraction_table() -> None:
    # a difference table over Fractions, as in sampling and ``reduce``
    values = [Fraction(_FACTORIAL_40 + 7 * i * i, _FACTORIAL_34 + i) for i in range(12)]
    while len(values) > 1:
        values = [b - a for a, b in zip(values, values[1:])]


def _big_products(count: int) -> None:
    # products of big integers, as in the binomials of ``subtract_block``
    product = _BIG
    for _ in range(count):
        product = (product * (_BIG + 12345)) >> 31700


def _small_ops() -> None:
    # scanning text, small Fractions and JSON, as in one line of a batch
    for _ in range(4):
        digits = sum(1 for ch in _TEXT if ch.isdigit())
        coeffs = [Fraction(3, 2), Fraction(-1, 2), Fraction(17)]
        values = []
        for x in range(4):
            acc = Fraction(0)
            for c in coeffs:
                acc = acc * x + c
            values.append(acc)
        json.dumps({"input": _TEXT, "lambda": [3, 3, 1], "digits": digits})


def mixed_probe() -> None:
    """All three kinds of work; contention slows it about as much as it
    slows the corpus and high-degree workloads."""
    _fraction_table()
    _big_products(1)
    _small_ops()


def bigint_probe() -> None:
    """Big-integer products alone, for the astronomical workload."""
    _big_products(2)


# probe -> about its fastest time on the reference host (Intel Xeon at
# 2.1 GHz, Python 3.11.7); the reference only sets the scale
PROBES = {
    "mixed": (mixed_probe, 0.75e-3),
    "bigint": (bigint_probe, 0.7e-3),
}


def time_probe(kind: str) -> float:
    work = PROBES[kind][0]
    began = clock()
    work()
    return clock() - began


def scale(kind: str, probe_times: list[float]) -> float:
    """Factor that takes a time measured among these probes to the reference host."""
    return PROBES[kind][1] * len(probe_times) / sum(probe_times)


def scaled_ops(kind: str, ops: list, probes: list) -> list[tuple[float, float]]:
    """(time, scale factor) of each operation ``(start, end)``.

    ``probes`` are the ``(start, end)`` of the probes run during the pass,
    one before the first operation and one after the last.  Probes that
    interrupted an operation are taken out of its time; its factor comes
    from those probes and the last one before and first one after it.
    """
    out = []
    j = 0  # probes[j] is the last probe that started before the operation
    for began, ended in ops:
        while probes[j + 1][0] < began:
            j += 1
        k = j + 1
        inside = []
        while probes[k][1] <= ended:
            inside.append(probes[k][1] - probes[k][0])
            k += 1
        around = [probes[j][1] - probes[j][0], *inside, probes[k][1] - probes[k][0]]
        out.append((ended - began - sum(inside), scale(kind, around)))
    return out

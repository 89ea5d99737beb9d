"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest -v`` (verdict lines land in the PASSES/FAILURES
sections) or ``pytest -s`` to see them inline.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

from jsonschema import Draft202012Validator

from hilbert_lambda.calculus import (
    Sequence,
    binomial_seq_value,
    delta,
    is_integer_sequence,
    reduce,
)
from hilbert_lambda.partition import (
    Partition,
    build_hilbert,
    random_partition,
    to_exponent_form,
)
from hilbert_lambda.polynomial import Polynomial, format_polynomial, parse_polynomial, sample_points
from hilbert_lambda.recovery import (
    NegativeLeadingMultiplicity,
    NonIntegerValued,
    NotHilbert,
    SearchExhausted,
    Success,
    recover_delta,
    recover_naive,
)
from support import (
    RECOVER_SCHEMA,
    falling_binom_coeffs,
    negative_lead_poly,
    run_cli,
    shifted_hilbert_poly,
)

validator = Draft202012Validator(RECOVER_SCHEMA)


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def _random_fraction(rng: random.Random, span: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def _nonzero_fraction(rng: random.Random, span: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, span), rng.randint(1, max_den))


def test_criterion_1_difference_window_exact_and_fast():
    target = Sequence([18, 2, 8, 2, 11])
    best = math.inf
    result = None
    for _ in range(20):
        began = time.perf_counter()
        result = delta(target).window()
        best = min(best, time.perf_counter() - began)
    ok = result == (-16, 6, -6, 9) and best < 0.001
    _verdict(1, "difference of (18,2,8,2,11) is (-16,6,-6,9)", ok, f"best {best * 1e6:.1f} us")


def test_criterion_2_quadratic_binomial_prefix():
    values = [binomial_seq_value(2, x) for x in range(6)]
    ok = values == [0, 0, 1, 3, 6, 10] and all(type(v) is int for v in values)
    _verdict(2, "degree-2 binomial values at 0..5 are (0,0,1,3,6,10)", ok)


def test_criterion_3_round_trip_all_923(partitions_923):
    began = time.perf_counter()
    mismatches = [
        lam
        for lam in partitions_923
        if recover_delta(build_hilbert(lam)) != Success(to_exponent_form(lam))
    ]
    elapsed = time.perf_counter() - began
    ok = len(partitions_923) == 923 and not mismatches and elapsed < 5.0
    _verdict(
        3,
        "build/recover round trip over all 923 partitions (parts <= 6, length <= 6)",
        ok,
        f"{elapsed:.2f} s, {len(mismatches)} mismatches",
    )


def test_criterion_4_engine_agreement(partitions_69, rejection_200):
    disagreements = []
    for lam in partitions_69:
        p = build_hilbert(lam)
        expected = Success(to_exponent_form(lam))
        if recover_naive(p, 4) != expected or recover_delta(p) != expected:
            disagreements.append(lam)
    bad_rejections = []
    for p in rejection_200:
        delta_outcome = recover_delta(p)
        naive_outcome = recover_naive(p, 4)
        delta_ok = isinstance(delta_outcome, NotHilbert) and isinstance(
            delta_outcome.reason, NegativeLeadingMultiplicity
        )
        naive_ok = naive_outcome == NotHilbert(SearchExhausted(4))
        if not (delta_ok and naive_ok):
            bad_rejections.append(p)
    ok = (
        len(partitions_69) == 69
        and len(rejection_200) == 200
        and not disagreements
        and not bad_rejections
    )
    _verdict(
        4,
        "naive and delta engines agree on 69 partitions and reject 200 non-examples",
        ok,
        f"{len(disagreements)} disagreements, {len(bad_rejections)} bad rejections",
    )


def _suite_linearity(cases: int) -> int:
    rng = random.Random(101)
    failures = 0
    for _ in range(cases):
        k = rng.randint(2, 10)
        f = [_random_fraction(rng, 30) for _ in range(k)]
        g = [_random_fraction(rng, 30) for _ in range(k)]
        a, b = _random_fraction(rng), _random_fraction(rng)
        combined = delta(Sequence([a * u + b * v for u, v in zip(f, g)]))
        expected = tuple(
            a * du + b * dv for du, dv in zip(delta(Sequence(f)), delta(Sequence(g)))
        )
        failures += combined.window() != expected
    return failures


def _suite_degree_laws(cases: int) -> int:
    rng = random.Random(102)
    failures = 0
    for _ in range(cases):
        d = rng.randint(0, 7)
        coeffs = [_random_fraction(rng) for _ in range(d)] + [_nonzero_fraction(rng)]
        p = Polynomial(coeffs)
        window = sample_points(p, d + 1 + rng.randint(0, 2))
        scaled_lead = coeffs[-1] * math.factorial(d)
        if reduce(window) != (d, scaled_lead):
            failures += 1
        # differencing once drops the degree by exactly one
        if d >= 1 and reduce(delta(window)) != (d - 1, scaled_lead):
            failures += 1
    return failures


def _suite_pascal(cases: int) -> int:
    failures = 0
    for d in range(1, 11):
        for x in range(-20, 21):
            failures += (
                binomial_seq_value(d, x + 1) - binomial_seq_value(d, x)
                != binomial_seq_value(d - 1, x)
            )
    rng = random.Random(103)
    for _ in range(cases):
        d, x = rng.randint(1, 10), rng.randint(-20, 20)
        failures += (
            binomial_seq_value(d, x + 1) - binomial_seq_value(d, x)
            != binomial_seq_value(d - 1, x)
        )
    return failures


def _suite_window_vs_dense(cases: int) -> int:
    rng = random.Random(104)
    failures = 0
    for _ in range(cases):
        d = rng.randint(0, 6)
        if rng.random() < 0.5:
            # integer combination of falling-factorial binomials: integer-valued
            total = [Fraction(0)] * (d + 1)
            for i in range(d + 1):
                c = rng.choice([-1, 1]) * rng.randint(1, 9) if i == d else rng.randint(-9, 9)
                for power, b in enumerate(falling_binom_coeffs(i)):
                    total[power] += c * b
            p = Polynomial(total)
        else:
            p = Polynomial([_random_fraction(rng, 9, 4) for _ in range(d)] + [_nonzero_fraction(rng, 9, 4)])
        window_integral = is_integer_sequence(sample_points(p, d))
        dense_integral = all(p.evaluate(x).denominator == 1 for x in range(-50, 51))
        failures += window_integral != dense_integral
    return failures


def _suite_integer_remainder(cases: int) -> int:
    # every reduce inside a recovery must report an integer multiplicity;
    # a violation surfaces as a RuntimeError out of recover_delta
    rng = random.Random(105)
    failures = 0
    for _ in range(cases):
        kind = rng.randrange(3)
        try:
            if kind == 0:
                lam = random_partition(6, 6, rng)
                failures += recover_delta(build_hilbert(lam)) != Success(lam)
            elif kind == 1:
                maker = negative_lead_poly if rng.random() < 0.5 else shifted_hilbert_poly
                outcome = recover_delta(maker(rng))
                failures += not (
                    isinstance(outcome, NotHilbert)
                    and isinstance(outcome.reason, NegativeLeadingMultiplicity)
                )
            else:
                d = rng.randint(0, 5)
                p = Polynomial([_random_fraction(rng, 9, 4) for _ in range(d)] + [_nonzero_fraction(rng, 9, 4)])
                failures += not isinstance(recover_delta(p), (Success, NotHilbert))
        except RuntimeError:
            failures += 1
    return failures


def test_criterion_5_property_suites():
    cases = 1000
    results = {
        "linearity": _suite_linearity(cases),
        "degree-laws": _suite_degree_laws(cases),
        "pascal": _suite_pascal(cases),
        "window-vs-dense": _suite_window_vs_dense(cases),
        "integer-remainder": _suite_integer_remainder(cases),
    }
    ok = all(v == 0 for v in results.values())
    detail = ", ".join(f"{name}: {fails} failed of {cases}" for name, fails in results.items())
    _verdict(5, "five property suites of 1000 randomized cases", ok, detail)


def test_criterion_6_rejection_corpus():
    expected = {
        "x": NegativeLeadingMultiplicity(0, -1),
        "2*x": NegativeLeadingMultiplicity(0, -1),
        "x^2": NegativeLeadingMultiplicity(1, -2),
        "x/2": NonIntegerValued(),
        "-1": NegativeLeadingMultiplicity(0, -1),
        "x^2/2 + x/2 - 1": NegativeLeadingMultiplicity(1, -1),
    }
    failures = []
    for text, reason in expected.items():
        outcome = recover_delta(parse_polynomial(text))
        if outcome != NotHilbert(reason):
            failures.append(text)
    ok = not failures
    _verdict(6, "six hand-traced rejections carry the exact reasons", ok, f"failures: {failures or 'none'}")


def _mean_runtime(runner, reps: int) -> float:
    runner()  # warmup
    began = time.perf_counter()
    for _ in range(reps):
        runner()
    return (time.perf_counter() - began) / reps


def test_criterion_7_benchmark_direction():
    began = time.perf_counter()
    staircase = Partition((6, 5, 4, 3, 2, 1))
    p = build_hilbert(staircase)
    reps = 5
    delta_mean = _mean_runtime(lambda: recover_delta(p), reps)
    naive_mean = _mean_runtime(lambda: recover_naive(p, 6), reps)
    expected = Success(to_exponent_form(staircase))
    agree = recover_delta(p) == expected and recover_naive(p, 6) == expected
    total = time.perf_counter() - began
    ok = agree and delta_mean <= naive_mean and total < 60.0
    ratio = naive_mean / delta_mean if delta_mean > 0 else math.inf
    _verdict(
        7,
        "delta engine is no slower than naive on (6,5,4,3,2,1)",
        ok,
        f"delta {delta_mean * 1e3:.3f} ms, naive {naive_mean * 1e3:.3f} ms, ratio {ratio:.1f}",
    )


def test_criterion_8_cli_conformance(monkeypatch, capsys, partitions_923, rejection_200):
    corpus: list[tuple[str, bool]] = []
    for lam in partitions_923:
        corpus.append((format_polynomial(build_hilbert(lam)), True))
    for p in rejection_200:
        corpus.append((format_polynomial(p), False))
    for text in ["x", "2*x", "x^2", "x/2", "-1", "x^2/2 + x/2 - 1"]:
        corpus.append((text, False))

    stdin_text = "\n".join(text for text, _ in corpus) + "\n"
    code, out, _ = run_cli(monkeypatch, capsys, ["recover", "--format", "json"], stdin_text=stdin_text)
    lines = out.splitlines()
    problems = []
    if code != 1:
        problems.append(f"batch exit {code} != 1")
    if len(lines) != len(corpus):
        problems.append(f"{len(lines)} output lines for {len(corpus)} inputs")
    else:
        for (text, hilbert), line in zip(corpus, lines):
            doc = json.loads(line)
            validator.validate(doc)
            if doc["input"] != text or doc["hilbert"] != hilbert:
                problems.append(f"mismatch on {text!r}")
                break
            expanded = [value for value, mult in doc["lambda_exp"] for _ in range(mult)]
            if expanded != doc["lambda_flat"]:
                problems.append(f"inconsistent partition forms on {text!r}")
                break

    # exit-code table on single invocations
    table = [
        (["recover", "3*x + 1"], 0),
        (["recover", "x"], 1),
        (["recover", "x +"], 2),
        (["check", "1"], 0),
        (["check", "x/2"], 1),
        (["check", "x +"], 2),
        (["build", "(2,1)"], 0),
        (["build", "(1,2)"], 2),
    ]
    for argv, expected_code in table:
        got, _, _ = run_cli(monkeypatch, capsys, argv)
        if got != expected_code:
            problems.append(f"{' '.join(argv)} exited {got}, expected {expected_code}")

    ok = not problems
    _verdict(
        8,
        "CLI batch JSON conforms to the schema in input order; exit-code table holds",
        ok,
        f"{len(corpus)} batch lines; problems: {problems or 'none'}",
    )

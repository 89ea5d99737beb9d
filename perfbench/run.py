"""Benchmark for hilbert_lambda: deciding Hilbert polynomials and building them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus-batch --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): corpus-batch,
high-degree, astronomical.  The inputs come from ``oracle.py`` and the
seed; the package is run from ``src/`` in a fresh interpreter
(``worker.py``); every distinct answer is then checked by ``oracle.py``.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Result and
trace files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter as clock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from calibrate import scale, time_probe  # noqa: E402

ROOT = HERE.parent
OUT = HERE / "out"
SETUP_LAUNCHES = 15
# the probe that mirrors the arithmetic each workload spends its time in
PROBE = {"corpus-batch": "mixed", "high-degree": "mixed", "astronomical": "bigint"}
WORKER_TIMEOUT_S = 170


def package_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import the package and its CLI,
    each launch scaled by the probes run just before and after it."""
    command = [sys.executable, "-c", "import hilbert_lambda, hilbert_lambda.cli"]
    env = package_env()
    subprocess.run(command, env=env, cwd=ROOT, check=True)  # may still write bytecode caches
    times = []
    before = time_probe("mixed")
    for _ in range(SETUP_LAUNCHES):
        began = clock()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        took = clock() - began
        after = time_probe("mixed")
        times.append(took * scale("mixed", [before, after]))
        before = after
    return statistics.median(times)


def worker_spec(workload: str, inputs: dict) -> dict:
    spec = {"workload": workload, "probe": PROBE[workload], "build": [item["form"] for item in inputs["build"]]}
    if workload != "high-degree":
        spec["decide"] = [item["text"] for item in inputs["decide"]]
    return spec


def run_worker(workload: str, inputs: dict, seconds: float, trace: bool) -> dict:
    """Run the workload in a fresh interpreter; returns its result (and spans)."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / workload
    spec_path, result_path = f"{stem}.inputs.json", f"{stem}.result.json"
    with open(spec_path, "w") as handle:
        json.dump(worker_spec(workload, inputs), handle)
    command = [sys.executable, str(HERE / "worker.py"), spec_path, result_path, str(seconds), str(int(trace))]
    subprocess.run(command, env=package_env(), cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    with open(result_path) as handle:
        result = json.load(handle)
    if trace:
        with open(f"{stem}.trace.json") as handle:
            result["trace"] = json.load(handle)["passes"]
    return result


# --- checking ---------------------------------------------------------------


def _decode_poly(coeffs: list[str]) -> list[Fraction]:
    out = []
    for text in coeffs:
        num, den = text.split("/")
        out.append(Fraction(int(num, 16), int(den, 16)))
    return out


def _decode_form(pairs) -> tuple:
    return tuple((v, int(r, 16) if isinstance(r, str) else r) for v, r in pairs)


def check(workload: str, inputs: dict, result: dict) -> list[str]:
    """Every way the answers in ``result`` are wrong; empty when all are right."""
    problems = []
    for index, (item, answers) in enumerate(zip(inputs["build"], result["build_answers"])):
        for answer in answers:
            if _decode_poly(answer) != item["coeffs"]:
                problems.append(f"build {index} {oracle.summary(item['form'])}: wrong polynomial")
    for index, (item, answers) in enumerate(zip(inputs["decide"], result["decide_answers"])):
        for answer in answers:
            problem = (
                check_cli_line(item, answer) if workload == "corpus-batch" else check_outcome(item, answer)
            )
            if problem:
                problems.append(f"decide {index} {item.get('text', '')[:60]!r}: {problem}")
    if workload == "corpus-batch" and result["exit_codes"] not in ([], [1]):
        problems.append(f"batch exit codes {result['exit_codes']}, expected 1")
    return problems


def check_outcome(item: dict, answer: list) -> str | None:
    verdict, body = answer
    if verdict != "ok":
        return f"rejected a Hilbert polynomial ({body})"
    form = _decode_form(body)
    if "form" in item and form != tuple(item["form"]):
        return f"answer {oracle.summary(form)} is not the generating partition {oracle.summary(item['form'])}"
    return oracle.check_form(item["coeffs"], form)


def check_cli_line(item: dict, line: str) -> str | None:
    try:
        payload = json.loads(line)
    except ValueError:
        return f"output is not JSON: {line[:80]!r}"
    if payload.get("input") != item["text"]:
        return f"output echoes {payload.get('input')!r}"
    hilbert = item["kind"] == "hilbert"
    if payload.get("hilbert") is not hilbert:
        return f"verdict hilbert={payload.get('hilbert')}, expected {hilbert}"
    if not hilbert:
        if payload.get("lambda_flat") != [] or payload.get("lambda_exp") != []:
            return "a rejection carries a partition"
        if not isinstance(payload.get("reason"), str) or not payload["reason"]:
            return "a rejection has no reason"
        return oracle.check_rejection(item)
    if payload.get("reason") is not None:
        return "an acceptance carries a reason"
    form = tuple(tuple(pair) for pair in payload.get("lambda_exp", []))
    if payload.get("lambda_flat") != oracle.flat(form):
        return "lambda_flat is not the expansion of lambda_exp"
    return check_outcome(item, ["ok", form])


# --- metrics ----------------------------------------------------------------


def typical(passes: list, phase: str) -> list[float]:
    """Each operation's median scaled time over the passes."""
    return [statistics.median(times) for times in zip(*(p[phase] for p in passes))]


def summarise_e2e(result: dict, setup_s: float) -> dict:
    passes = [p for p in result["passes"] if not p["traced"]]
    decide, build = typical(passes, "decide"), typical(passes, "build")
    return {
        "setup_s": (setup_s, "s"),
        "decide_per_s": (len(decide) / sum(decide), "1/s"),
        "decide_p50_ms": (statistics.median(decide) * 1e3, "ms"),
        "decide_p99_ms": (statistics.quantiles(decide, n=100, method="inclusive")[98] * 1e3, "ms"),
        "build_per_s": (len(build) / sum(build), "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


# span name -> per-layer time metric; a layer's time is its spans' self time
LAYER_TIMES = {
    "polynomial.parse": "polynomial.parse_ms",
    "polynomial.sample": "polynomial.sample_ms",
    "calculus.integrality": "calculus.integrality_ms",
    "calculus.reduce": "calculus.reduce_ms",
    "recovery.decide": "recovery.decide_ms",
    "recovery.subtract": "recovery.subtract_ms",
    "partition.build": "partition.build_ms",
    "partition.flat": "partition.flat_ms",
    "cli.main": "cli.self_ms",
    "cli.line": "cli.self_ms",
}
# span name -> (count metric, what each span adds: 1 per span or its recorded count)
LAYER_COUNTS = {
    "polynomial.sample": (("polynomial.sample_points", "count"),),
    "calculus.reduce": (("calculus.reduce_calls", "one"), ("calculus.diff_passes", "count")),
    "recovery.subtract": (("recovery.rounds", "one"),),
    "calculus.integrality": (("recovery.early_rejects", "count"),),
    "partition.flat": (("partition.flat_parts", "count"),),
    "cli.main": (("cli.out_bytes", "count"),),
}


def probe_time_inside(spans: list, probes: list) -> list[float]:
    """Per span, the probe time that interrupted it directly (not a child span)."""
    inside = [0.0] * len(spans)
    stack: list[int] = []
    next_span = 0
    for began, ended in probes:
        while next_span < len(spans) and spans[next_span][1] <= began:
            while stack and spans[stack[-1]][2] <= spans[next_span][1]:
                stack.pop()
            stack.append(next_span)
            next_span += 1
        while stack and spans[stack[-1]][2] < ended:
            stack.pop()
        if stack:
            inside[stack[-1]] += ended - began
    return inside


def layer_figures(spans: list, probes: list, factors: dict) -> dict:
    """{input: {metric: value}} of one traced pass: scaled self times in ms, and counts."""
    child_time = probe_time_inside(spans, probes)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    figures: dict = {}
    for (name, start, end, _, key, count), inner in zip(spans, child_time):
        row = figures.setdefault(key, {})
        metric = LAYER_TIMES[name]
        row[metric] = row.get(metric, 0.0) + (end - start - inner) * factors[key] * 1e3
        for metric, how in LAYER_COUNTS.get(name, ()):
            row[metric] = row.get(metric, 0) + (1 if how == "one" else count)
        if name == "recovery.decide":
            row["recovery.max_mult_bits"] = count
    return figures


def pass_factors(p: dict) -> dict:
    """Scale factor per input key of one pass; "" (no input) gets the median."""
    factors = {}
    for phase, prefix in (("build", "b"), ("decide", "d")):
        for index, factor in enumerate(p[phase + "_factors"]):
            factors[f"{prefix}{index}"] = factor
    factors[""] = statistics.median(factors.values())
    return factors


def summarise_layers(result: dict, units: dict) -> dict:
    """Per-layer metrics per pass: each input's (low) median over the traced passes, summed."""
    traced = [p for p in result["passes"] if p["traced"]]
    per_pass = [layer_figures(spans, p["probes"], pass_factors(p)) for spans, p in zip(result["trace"], traced)]
    out = {}
    for name in units:
        values = [statistics.median_low(f.get(key, {}).get(name, 0) for f in per_pass) for key in per_pass[0]]
        out[name] = max(values, default=0) if name == "recovery.max_mult_bits" else sum(values)
    totals = {}
    for is_traced in (False, True):
        passes = [p for p in result["passes"] if p["traced"] is is_traced]
        totals[is_traced] = sum(typical(passes, "decide")) + sum(typical(passes, "build"))
    out["trace.overhead_ms"] = (totals[True] - totals[False]) * 1e3
    return {name: (value, units[name]) for name, value in out.items()}


def benchmark_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def measure(workload: str, seed: int, seconds: float, trace: bool, subset=None):
    """One benchmark run: the JSON record to print, the wrong answers found,
    and the tracebacks of operations that failed.

    ``subset`` trims the generated inputs, for the self-test.
    """
    inputs = oracle.generate(workload, seed)
    if subset:
        inputs = subset(inputs)
    setup_s = None if trace else measure_setup()
    result = run_worker(workload, inputs, seconds, trace)
    problems = check(workload, inputs, result)
    units = benchmark_metrics()
    if trace:
        metrics = summarise_layers(result, units["per_layer"])
    else:
        metrics = summarise_e2e(result, setup_s)
    record = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return record, problems, result["errors"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=oracle.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hilbert_lambda" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'hilbert_lambda'}", file=sys.stderr)
        return 2
    record, problems, errors = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in problems[:20]:
        print(f"wrong answer: {problem}", file=sys.stderr)
    for error in errors:
        print(f"failed operation:\n{error}", file=sys.stderr)
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs each workload once, untraced and traced, on a few of its inputs, and
fails unless every answer is judged correct and the metric names printed
are exactly those in BENCHMARK.json.  Then it alters answers the package
gave, and fails unless the checker rejects each altered copy: a changed
multiplicity, a Hilbert verdict turned into a rejection and back, and a
changed build coefficient.
"""

from __future__ import annotations

import copy
import json
import sys

import oracle
import run

SEED = 1


def _corpus_subset(inputs: dict) -> dict:
    decide = []
    for kind in ("hilbert", "negative-lead", "negative-residual", "non-integer"):
        decide += [item for item in inputs["decide"] if item["kind"] == kind][:6]
    return {"build": inputs["build"][:12], "decide": decide}


def _aligned_subset(*indices):
    # high-degree decides the polynomials it builds, so both lists stay aligned
    return lambda inputs: {key: [inputs[key][i] for i in indices] for key in ("build", "decide")}


SUBSETS = {
    "corpus-batch": _corpus_subset,
    "high-degree": _aligned_subset(0, 5),  # staircase 20 and the smallest seeded shape
    "astronomical": lambda inputs: {"build": inputs["build"][:1], "decide": inputs["decide"][:2]},
}


def _json_line(line: str, **changes) -> str:
    payload = json.loads(line)
    payload.update(changes)
    return json.dumps(payload)


def alterations(workload: str, inputs: dict, result: dict):
    """Yield (description, altered result) pairs the checker must reject."""
    answers = result["decide_answers"]
    kinds = [item["kind"] for item in inputs["decide"]]
    accepted = kinds.index("hilbert")
    build = copy.deepcopy(result)
    coeffs = build["build_answers"][0][0]
    num, den = coeffs[-1].split("/")
    coeffs[-1] = f"{int(num, 16) + 1:x}/{den}"
    yield "a build coefficient plus one", build
    if workload == "corpus-batch":
        payload = json.loads(answers[accepted][0])
        value, mult = payload["lambda_exp"][-1]
        form = payload["lambda_exp"][:-1] + [[value, mult + 1]]
        wrong = copy.deepcopy(result)
        wrong["decide_answers"][accepted] = [
            _json_line(answers[accepted][0], lambda_exp=form, lambda_flat=oracle.flat(form))
        ]
        yield "one more part in an accepted partition", wrong
        flipped = copy.deepcopy(result)
        flipped["decide_answers"][accepted] = [
            _json_line(answers[accepted][0], hilbert=False, lambda_exp=[], lambda_flat=[], reason="altered")
        ]
        yield "a Hilbert polynomial rejected", flipped
        rejected = kinds.index("negative-residual")
        flipped = copy.deepcopy(result)
        flipped["decide_answers"][rejected] = [
            _json_line(answers[rejected][0], hilbert=True, lambda_exp=[[1, 1]], lambda_flat=[1], reason=None)
        ]
        yield "a non-Hilbert polynomial accepted", flipped
    else:
        wrong = copy.deepcopy(result)
        verdict, pairs = wrong["decide_answers"][accepted][0]
        pairs[-1][1] = f"{int(pairs[-1][1], 16) + 1:x}"
        yield "the last multiplicity plus one", wrong
        flipped = copy.deepcopy(result)
        flipped["decide_answers"][accepted] = [["no", "altered"]]
        yield "a Hilbert polynomial rejected", flipped


def main() -> int:
    expected = run.benchmark_metrics()
    failures = []
    for workload in oracle.WORKLOADS:
        subset = SUBSETS[workload]
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            record, problems, errors = run.measure(workload, SEED, 0, trace, subset)
            names = set(record["metrics"])
            if not record["correct"] or problems or errors or record["failed"]:
                failures.append(f"{workload} trace={int(trace)}: {problems[:3]} {errors[:1]}")
            if names != set(expected[kind]):
                failures.append(f"{workload} trace={int(trace)}: metrics {sorted(names ^ set(expected[kind]))} differ")
            print(f"ran {workload} trace={int(trace)}: {record['attempted']} operations, {len(names)} metrics")
        inputs = subset(oracle.generate(workload, SEED))
        result = run.run_worker(workload, inputs, 0, False)
        if run.check(workload, inputs, result):
            failures.append(f"{workload}: unaltered answers judged wrong")
        for description, altered in alterations(workload, inputs, result):
            caught = run.check(workload, inputs, altered)
            print(f"{'caught' if caught else 'MISSED'} {workload}: {description}")
            if not caught:
                failures.append(f"{workload}: checker missed {description}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

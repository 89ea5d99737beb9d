"""Runs one workload in a fresh interpreter and records what it measured.

Usage: python3 worker.py INPUTS RESULT SECONDS TRACE

INPUTS is the JSON file ``run.py`` writes: the workload name, the
partitions to build (run-length pairs) and, where the workload decides
text, the lines to decide.  The worker makes one warm-up pass, then
closed-loop passes over the whole input set until SECONDS have gone by.
With TRACE 1 every other pass is traced: the package's public names that
it looks up at call time are wrapped, and each call becomes a span.
Spans stay in memory and are written next to RESULT when the run ends.

Each pass has a build phase (``build_hilbert`` on every partition) and a
decide phase: ``cli.main(["recover", "--format", "json"])`` on the lines
for corpus-batch, ``recover_delta`` on the built polynomials for
high-degree, and ``parse_polynomial`` then ``recover_delta`` for
astronomical.  Every build and decision is timed on its own.  A timer
interrupts the pass every PROBE_EVERY_S to time a probe, fixed work that
does not touch the package (see ``calibrate.py``); after the pass, the
probes are taken out of the operations they interrupted, and each
operation's time is scaled by the probes during and around it.  Answers are serialised
outside the timed phases; an answer is kept unless an equal one already
is, so every distinct answer reaches the checker.
"""

from __future__ import annotations

import io
import json
from array import array
import resource
import signal
import sys
import traceback
from time import perf_counter as clock

from calibrate import PROBES, scaled_ops

import hilbert_lambda.cli as cli
import hilbert_lambda.recovery as recovery
from hilbert_lambda import NotHilbert, Partition, Success, build_hilbert, parse_polynomial, recover_delta

PROBE_EVERY_S = 0.02


class Tracer:
    """Spans ``[name, start, end, parent, input, count]`` of one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.input = ""  # the input the next span belongs to: b<i>, d<i> or "" for none
        self.saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.input, 0])
        self.stack.append(index)
        return index

    def close(self, index: int, count: int = 0) -> None:
        span = self.spans[index]
        span[2] = clock()
        span[5] = count
        self.stack.pop()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, count(args, result) if count and result is not None else 0)

        return traced

    def install(self) -> None:
        """Wrap the names the package resolves through module globals."""
        for module, attr, name, count in (
            (recovery, "sample_points", "polynomial.sample", lambda a, r: a[1] + 1),
            (recovery, "is_integer_sequence", "calculus.integrality", lambda a, r: 0 if r else 1),
            (recovery, "reduce", "calculus.reduce", lambda a, r: r[0]),
            (recovery, "subtract_block", "recovery.subtract", None),
            (recovery, "from_exponent_form", "partition.flat", lambda a, r: len(r.parts)),
            (cli, "parse_polynomial", "polynomial.parse", None),
            (cli, "recover_delta", "recovery.decide", _max_mult_bits),
        ):
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        for module, attr, original in self.saved:
            setattr(module, attr, original)
        self.saved.clear()


def _max_mult_bits(args, outcome) -> int:
    if isinstance(outcome, Success) and outcome.form.pairs:
        return max(mult.bit_length() for _, mult in outcome.form.pairs)
    return 0


class Probe:
    """Times the probe at the start and end of a pass and every PROBE_EVERY_S
    in between, from a timer signal, whatever the pass is doing then."""

    def __init__(self, kind: str):
        self.kind = kind
        self.work = PROBES[kind][0]
        self.spans: list[tuple[float, float]] = []

    def sample(self, *_) -> None:
        began = clock()
        self.work()
        self.spans.append((began, clock()))

    def __enter__(self) -> Probe:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


class LineFeeder:
    """Stands in for stdin and timestamps each line as the batch loop reads it.

    Line i's time runs from its own read to the read that follows it, so it
    covers parse, decide, render and print.
    """

    def __init__(self, lines: list[str], tracer: Tracer | None):
        self.lines = lines
        self.spans: list[tuple[float, float]] = []
        self.tracer = tracer
        self.began = None
        self.open_span = -1

    def __iter__(self):
        return self

    def __next__(self) -> str:
        now = clock()
        if self.tracer and self.open_span >= 0:
            self.tracer.close(self.open_span)
            self.open_span = -1
        if self.began is not None:
            self.spans.append((self.began, now))
        index = len(self.spans)
        if index == len(self.lines):
            raise StopIteration
        if self.tracer:
            self.tracer.input = f"d{index}"
            self.open_span = self.tracer.open("cli.line")
        self.began = clock()
        return self.lines[index]


def _encode_int(n: int) -> str:
    # hex, because decimal text of the largest answers exceeds CPython's
    # int-to-str digit limit
    return format(n, "x")


def _encode_poly(p) -> list[str]:
    return [f"{_encode_int(c.numerator)}/{_encode_int(c.denominator)}" for c in p.coeffs]


def _encode_outcome(outcome) -> list:
    if isinstance(outcome, Success):
        return ["ok", [[value, _encode_int(mult)] for value, mult in outcome.form.pairs]]
    if isinstance(outcome, NotHilbert):
        return ["no", outcome.reason.describe()]
    raise TypeError(f"unexpected outcome {outcome!r}")


class Runner:
    def __init__(self, spec: dict):
        self.workload = spec["workload"]
        self.probe = spec["probe"]
        self.partitions = [Partition(tuple(v for v, r in form for _ in range(r))) for form in spec["build"]]
        self.lines = [text + "\n" for text in spec.get("decide", [])]
        n_decide = len(self.lines) if self.workload != "high-degree" else len(self.partitions)
        self.build_answers: list[list] = [[] for _ in self.partitions]
        self.decide_answers: list[list] = [[] for _ in range(n_decide)]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.exit_codes: set[int] = set()

    def _fail(self, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(traceback.format_exc())

    def _keep(self, store: list[list], index: int, answer) -> None:
        if answer not in store[index]:
            store[index].append(answer)

    def one_pass(self, tracer: Tracer | None) -> dict:
        build = build_hilbert
        if tracer:
            tracer.install()
            build = tracer.wrap("partition.build", build_hilbert)
        try:
            with Probe(self.probe) as probe:
                polys, builds = self._each(self.partitions, tracer, "b", build)
                decide = getattr(self, "_decide_" + self.workload.replace("-", "_"))
                outcomes, decisions = decide(polys, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        self.attempted += len(self.partitions) + len(self.decide_answers)
        if isinstance(outcomes, str):
            outcomes = outcomes.splitlines()
            outcomes += [None] * (len(self.lines) - len(outcomes))
        else:
            outcomes = [None if o is None else _encode_outcome(o) for o in outcomes]
        for index, poly in enumerate(polys):
            if poly is not None:
                self._keep(self.build_answers, index, _encode_poly(poly))
        for index, answer in enumerate(outcomes):
            if answer is not None:
                self._keep(self.decide_answers, index, answer)
        record = {"traced": tracer is not None}
        for phase, ops in (("build", builds), ("decide", decisions)):
            scaled = scaled_ops(self.probe, ops, probe.spans)
            # compact, so that the run's bookkeeping hardly moves its peak RSS
            record[phase] = array("d", (t * f for t, f in scaled))
            if tracer:
                record[phase + "_factors"] = [f for _, f in scaled]
        if tracer:
            record["probes"] = probe.spans
        return record

    def _each(self, jobs, tracer: Tracer | None, prefix: str, step) -> tuple[list, list]:
        """Run ``step`` on each job: (results, (start, end) of each call).

        A failed call gives None."""
        results, spans = [], []
        for index, job in enumerate(jobs):
            if tracer:
                tracer.input = f"{prefix}{index}"
            began = clock()
            try:
                result = step(job)
            except Exception:
                result = None
                self._fail()
            spans.append((began, clock()))
            results.append(result)
        return results, spans

    def _decide_corpus_batch(self, polys, tracer: Tracer | None) -> tuple[str, list]:
        feeder = LineFeeder(self.lines, tracer)
        out = io.StringIO()
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = feeder, out
        if tracer:
            tracer.input = ""
        root = tracer.open("cli.main") if tracer else -1
        try:
            self.exit_codes.add(cli.main(["recover", "--format", "json"]))
        except Exception:
            self._fail(len(self.lines) - out.getvalue().count("\n"))
        finally:
            sys.stdin, sys.stdout = saved
            if tracer:
                if feeder.open_span >= 0:
                    tracer.close(feeder.open_span)
                tracer.input = ""
                tracer.close(root, len(out.getvalue().encode()))
        return out.getvalue(), feeder.spans

    def _decide_high_degree(self, polys, tracer: Tracer | None) -> tuple[list, list]:
        decide = tracer.wrap("recovery.decide", recover_delta, _max_mult_bits) if tracer else recover_delta
        return self._each(polys, tracer, "d", decide)

    def _decide_astronomical(self, polys, tracer: Tracer | None) -> tuple[list, list]:
        parse = tracer.wrap("polynomial.parse", parse_polynomial) if tracer else parse_polynomial
        decide = tracer.wrap("recovery.decide", recover_delta, _max_mult_bits) if tracer else recover_delta
        texts = [line.strip() for line in self.lines]
        return self._each(texts, tracer, "d", lambda text: decide(parse(text)))


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    inputs_path, result_path, seconds, trace = argv[0], argv[1], float(argv[2]), argv[3] == "1"
    with open(inputs_path) as handle:
        runner = Runner(json.load(handle))
    runner.one_pass(None)  # warm-up: its answers are checked, its times are not used
    passes, traces = [], []
    started = clock()
    while not passes or clock() - started < seconds or (trace and len(passes) < 2):
        tracer = Tracer() if trace and len(passes) % 2 else None
        passes.append(runner.one_pass(tracer))
        if tracer:
            traces.append(tracer.spans)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for record in passes:
        record["build"], record["decide"] = list(record["build"]), list(record["decide"])
    result = {
        "passes": passes,
        "build_answers": runner.build_answers,
        "decide_answers": runner.decide_answers,
        "exit_codes": sorted(runner.exit_codes),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "peak_rss_kb": peak_rss_kb,
    }
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    if trace:
        with open(result_path.replace(".result.json", ".trace.json"), "w") as handle:
            json.dump({"passes": traces}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

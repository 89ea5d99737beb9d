"""Mutation gate: every listed fault in ``src/`` must make its tests fail.

Run from the repository root (pytest does not collect this file)::

    python tests/mutants.py

Each mutant replaces one snippet of one source file; the snippet must occur
exactly once, so a mutant cannot silently stop applying when the code moves.
The mutant is written into a fresh temporary copy of ``src/``, and the test
files listed with it run against that copy (``PYTHONPATH`` puts it first)
under a timeout; a timeout counts as killed.  The unmutated copy must pass
every listed test file first, and must be the package those tests import.

Equivalent mutants change the code without changing what it computes, so no
test can kill them.  They are listed apart, with the reason: their snippets
are checked to apply exactly once, and their tests are not run.

Exit status 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str  # under src/hilbert_lambda/
    old: str
    new: str
    tests: tuple[str, ...]  # test files, relative to the repository root


PARTITION_TESTS = ("tests/test_partition.py",)
RECOVERY_TESTS = ("tests/test_recovery.py",)
CLI_TESTS = ("tests/test_cli.py",)

# the body of peel_block's loop for a block of one part
ONE_PART_LOOP = (
    "            a[v - 1 - k] -= lower\n"
    "            if below is not None:\n"
    "                upper = below[k] - upper\n"
    "                lower = upper - lower\n"
    "            elif k > 3 or k == 2:\n"
    "                lower = lower * (bottom - k) // (k + 1)\n"
    "            else:\n"
    "                lower = (bottom * bottom - bottom) >> 1 if k == 1 else ((u := chain[1] - bottom) * u + u) // 6\n"
)

MUTANTS = [
    # random_partition's run-length unranking
    Mutant(
        "random: total counts sequences over {1..max_part}, without padding",
        "partition.py",
        "count_non_incr_seqs(max_len, max_part + 1)",
        "count_non_incr_seqs(max_len, max_part)",
        PARTITION_TESTS,
    ),
    Mutant(
        "random: no padding step, so every draw has length max_len",
        "partition.py",
        "range(max_part + 1, 0, -1)",
        "range(max_part, 0, -1)",
        PARTITION_TESTS,
    ),
    Mutant(
        # the padding step's subtraction is the one that skips shorter lengths
        "random: subtracts the count through k, not through k - 1",
        "partition.py",
        "index -= count_non_incr_seqs(k - 1, value)",
        "index -= count_non_incr_seqs(k, value)",
        PARTITION_TESTS,
    ),
    Mutant(
        "random: bisects to the least count >= index (bisect_left), not > index",
        "partition.py",
        "count_non_incr_seqs(mid, value) > index",
        "count_non_incr_seqs(mid, value) >= index",
        PARTITION_TESTS,
    ),
    Mutant(
        "random: index 0, the empty partition, is not skipped",
        "partition.py",
        "rng.randrange(count_non_incr_seqs(max_len, max_part + 1) - 1) + 1",
        "rng.randrange(count_non_incr_seqs(max_len, max_part + 1) - 1)",
        PARTITION_TESTS,
    ),
    Mutant(
        "random: the padding is emitted as a run",
        "partition.py",
        "if k < m and value <= max_part:",
        "if k < m:",
        PARTITION_TESTS,
    ),
    # the one partition record, which reads its runs for everything but parts
    Mutant(
        "ExponentForm: equality without its type check",
        "partition.py",
        "return self._pairs == other._pairs if type(other) is type(self) else NotImplemented",
        "return self._pairs == other._pairs",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: hash of a constant",
        "partition.py",
        "return hash(self._pairs)",
        "return 0",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: copies and pickles are rebuilt empty",
        "partition.py",
        "return ExponentForm, (self._pairs,)",
        "return ExponentForm, ()",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: copies and pickles are rebuilt through the flat-parts constructor",
        "partition.py",
        "return ExponentForm, (self._pairs,)",
        "return Partition, (self.parts,)",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: repr shows the expanded parts",
        "partition.py",
        'return f"ExponentForm(pairs={self._pairs!r})"',
        'return f"ExponentForm(parts={self.parts!r})"',
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: len counts runs, not parts",
        "partition.py",
        "return sum(multiplicity for _, multiplicity in self._pairs)",
        "return len(self._pairs)",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: len sums the values, not the multiplicities",
        "partition.py",
        "sum(multiplicity for _, multiplicity in self._pairs)",
        "sum(value for value, _ in self._pairs)",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: no truth value of its own, so bool() takes len() and overflows",
        "partition.py",
        "    def __bool__(self) -> bool:\n        return bool(self._pairs)  # not len(), which can overflow\n\n",
        "",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: iterable over its expanded parts",
        "partition.py",
        "    def __str__(self) -> str:\n",
        "    def __iter__(self):\n        return iter(self.parts)\n\n    def __str__(self) -> str:\n",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: parts can be assigned",
        "partition.py",
        "        return tuple(parts)\n",
        "        return tuple(parts)\n\n    @parts.setter\n    def parts(self, parts):\n        self._pairs = parts\n",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: parts expands each run to one part",
        "partition.py",
        "parts += [value] * multiplicity",
        "parts += [value]",
        PARTITION_TESTS,
    ),
    # Partition groups flat parts into runs and passes them to the one check
    Mutant(
        "Partition: each run is one part longer",
        "partition.py",
        "(value, len(list(run)))",
        "(value, len(list(run)) + 1)",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: pairs can be assigned",
        "partition.py",
        'pairs = property(operator.attrgetter("_pairs"))',
        'pairs = property(operator.attrgetter("_pairs"), lambda self, value: setattr(self, "_pairs", value))',
        PARTITION_TESTS,
    ),
    # the one check of runs, which both constructors use
    Mutant(
        "ExponentForm: holds each run as a list",
        "partition.py",
        "runs.append((value, multiplicity))  # tuples",
        "runs.append([value, multiplicity])  # tuples",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: a float, Fraction or string part or multiplicity passes",
        "partition.py",
        "value, multiplicity = operator.index(value), operator.index(multiplicity)",
        "value, multiplicity = value, multiplicity",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: a part below 1 passes",
        "partition.py",
        "            if value < 1:\n",
        "            if False:\n",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: a run of the previous value is reported as an increase",
        "partition.py",
        "value > previous",
        "value >= previous",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: the flat index counts runs, not parts",
        "partition.py",
        "index + multiplicity",
        "index + 1",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: two runs of one value pass",
        "partition.py",
        "            if value == previous:\n",
        "            if False:\n",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: a multiplicity of 0 passes",
        "partition.py",
        "if multiplicity < 1:\n                raise ValueError",
        "if multiplicity < 0:\n                raise ValueError",
        PARTITION_TESTS,
    ),
    # the CLI's decimal-integer grammar
    Mutant(
        "_digits: int() reads any text, so '1_0' and '+3' pass",
        "cli.py",
        "return int(text) if text.isdecimal() else None",
        "return int(text)",
        CLI_TESTS,
    ),
    Mutant(
        "_error_text: an answer past the digit limit keeps CPython's advice to raise it",
        "cli.py",
        'if type(exc) is ValueError and "int_max_str_digits" in str(exc):',
        "if False:",
        CLI_TESTS,
    ),
    # the JSON λ and the stderr side channel
    Mutant(
        "_lambda_keys: a partition of exactly FLAT_PARTS_LIMIT parts loses lambda_flat",
        "cli.py",
        "total_parts <= FLAT_PARTS_LIMIT",
        "total_parts < FLAT_PARTS_LIMIT",
        CLI_TESTS,
    ),
    Mutant(
        "_lambda_keys: lambda_flat holds the runs, not the parts",
        "cli.py",
        "flat = form.parts if",
        "flat = form.pairs if",
        CLI_TESTS,
    ),
    Mutant(
        "recover --format json: warnings also go to stderr",
        "cli.py",
        "        print(json.dumps(payload))\n",
        "        print(json.dumps(payload))\n"
        "        for warning in outcome.warnings if isinstance(outcome, Success) else ():\n"
        "            print(f\"warning: {warning}\", file=sys.stderr)\n",
        CLI_TESTS,
    ),
    # an argument's error goes up to main, a stdin line's takes that line's place
    Mutant(
        "main: a polynomial syntax error shows its text but no caret",
        "cli.py",
        """print(f"  {args.polynomial}\\n  {' ' * exc.position}^", file=sys.stderr)""",
        """print(f"  {args.polynomial}", file=sys.stderr)""",
        CLI_TESTS,
    ),
    Mutant(
        "_decide: an argument's error is printed as a batch line on stdout",
        "cli.py",
        "            if single:\n                raise\n",
        "",
        CLI_TESTS,
    ),
    Mutant(
        "_decide: a stdin line's error is raised, ending the batch",
        "cli.py",
        "            if single:\n",
        "            if True:\n",
        CLI_TESTS,
    ),
    # what each subcommand prints, and how the entry point ends
    Mutant(
        "run: SIGPIPE is ignored, so a writer whose reader goes early does not end quietly",
        "cli.py",
        "signal.SIG_DFL",
        "signal.SIG_IGN",
        CLI_TESTS,
    ),
    Mutant(
        "recover --verbose: the text trace's residual has a space after each comma",
        "cli.py",
        '",".join(map(str, step.residual))',
        '", ".join(map(str, step.residual))',
        CLI_TESTS,
    ),
    Mutant(
        "check: an argument prints its verdict too",
        "cli.py",
        "if args.polynomial is None:",
        "if True:",
        CLI_TESTS,
    ),
    Mutant(
        "recover --ambient: a largest part equal to N does not fit",
        "cli.py",
        "pairs[0][0] <= ambient",
        "pairs[0][0] < ambient",
        CLI_TESTS,
    ),
    # the shared binomial chain, which peel_block alone decides to reuse
    Mutant(
        "peel_block: reuses the chain of a block two values above",
        "calculus.py",
        "above[0] == v + 1",
        "above[0] == v + 2",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: reuses the chain of any block of a greater value",
        "calculus.py",
        "above[0] == v + 1",
        "above[0] >= v + 1",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: Pascal's rule reads the shared chain one place on",
        "calculus.py",
        "else below[k] - upper",
        "else below[k + 1] - upper",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: Pascal's rule subtracts the wrong way round",
        "calculus.py",
        "else below[k] - upper",
        "else upper - below[k]",
        ("tests/test_calculus.py",),
    ),
    # peel_block's one-part blocks
    Mutant(
        "peel_block: the empty span takes the one-part path",
        "calculus.py",
        "if end == start:",
        "if end <= start:",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: one part's first Pascal step reads the shared chain one place on",
        "calculus.py",
        "upper = below[k] - upper",
        "upper = below[k + 1] - upper",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: the second Pascal step subtracts the wrong way round",
        "calculus.py",
        "lower = upper - lower",
        "lower = lower - upper",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: one part subtracts after its own chain advances",
        "calculus.py",
        ONE_PART_LOOP,
        "            if below is not None:\n"
        "                a[v - 1 - k] -= lower\n"
        "                upper = below[k] - upper\n"
        "                lower = upper - lower\n"
        "            elif k > 3 or k == 2:\n"
        "                lower = lower * (bottom - k) // (k + 1)\n"
        "                a[v - 1 - k] -= lower\n"
        "            else:\n"
        "                lower = (bottom * bottom - bottom) >> 1 if k == 1 else ((u := chain[1] - bottom) * u + u) // 6\n"
        "                a[v - 1 - k] -= lower\n",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: one part subtracts after the shared chain advances",
        "calculus.py",
        ONE_PART_LOOP,
        "            if below is not None:\n"
        "                upper = below[k] - upper\n"
        "                lower = upper - lower\n"
        "                a[v - 1 - k] -= lower\n"
        "            else:\n"
        "                a[v - 1 - k] -= lower\n"
        "                if k > 3 or k == 2:\n"
        "                    lower = lower * (bottom - k) // (k + 1)\n"
        "                else:\n"
        "                    lower = (bottom * bottom - bottom) >> 1 if k == 1 else ((u := chain[1] - bottom) * u + u) // 6\n",
        ("tests/test_calculus.py",),
    ),
    # the steps peel_block takes apart: C(c, 1) = c before its loops, and the
    # squares for C(c, 2) and C(c, 4) in each chain it multiplies out
    Mutant(
        "peel_block: the first step, C(c, 1) = c, subtracts nothing",
        "calculus.py",
        "    a[v - 1] -= top - bottom\n",
        "",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: the lower chain's C(b, 2) square shifts by 2",
        "calculus.py",
        "lower = (bottom * bottom - bottom) >> 1\n",
        "lower = (bottom * bottom - bottom) >> 2\n",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: the lower chain's C(b, 4) square subtracts u",
        "calculus.py",
        "lower = ((u := chain[1] - bottom) * u + u) // 6",
        "lower = ((u := chain[1] - bottom) * u - u) // 6",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: the upper chain's C(t, 2) square shifts by 2",
        "calculus.py",
        "(top * top - top) >> 1",
        "(top * top - top) >> 2",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: the upper chain's C(t, 4) square subtracts u",
        "calculus.py",
        "((u := pair - top) * u + u) // 6",
        "((u := pair - top) * u - u) // 6",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: one part's C(b, 2) square shifts by 2",
        "calculus.py",
        "(bottom * bottom - bottom) >> 1 if k == 1",
        "(bottom * bottom - bottom) >> 2 if k == 1",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: one part's C(b, 4) square takes u from C(b, 3)",
        "calculus.py",
        "else ((u := chain[1] - bottom) * u + u) // 6",
        "else ((u := chain[2] - bottom) * u + u) // 6",
        ("tests/test_calculus.py",),
    ),
    # numbers past the int-to-str digit limit
    Mutant(
        "_uint: a polynomial literal past the digit limit loses its column",
        "polynomial.py",
        "raise PolynomialSyntaxError(digit_limit_text(m[group]), m.start(group)) from None",
        "raise",
        ("tests/test_polynomial.py",),
    ),
    # powers and parts that no list can be sized by
    Mutant(
        "parse_polynomial: the exponent sys.maxsize passes",
        "polynomial.py",
        "if power >= sys.maxsize:",
        "if power > sys.maxsize:",
        CLI_TESTS,
    ),
    Mutant(
        "parse_partition: the part sys.maxsize passes",
        "partition.py",
        "if value >= sys.maxsize:",
        "if value > sys.maxsize:",
        CLI_TESTS,
    ),
    # the decider and its trace
    Mutant(
        "recover_delta: the trace snapshots the residual before the peel",
        "recovery.py",
        "        above = peel_block(a, m + 1, start, end, above)\n"
        "        blocks.append((m + 1, r))\n"
        "        if want_trace:\n"
        "            trace += (TraceStep(m=m, r=r, s=start, e=end, residual=tuple(a)),)\n",
        "        if want_trace:\n"
        "            trace += (TraceStep(m=m, r=r, s=start, e=end, residual=tuple(a)),)\n"
        "        above = peel_block(a, m + 1, start, end, above)\n"
        "        blocks.append((m + 1, r))\n",
        RECOVERY_TESTS,
    ),
    # the guards on each a_m
    Mutant(
        "recover_delta: a zero a_m is peeled as a block of no parts",
        "recovery.py",
        "        if r == 0:\n            continue\n",
        "",
        RECOVERY_TESTS,
    ),
    Mutant(
        "recover_delta: a negative a_m is peeled as a block",
        "recovery.py",
        "        if r < 0:\n",
        "        if False:\n",
        RECOVERY_TESTS,
    ),
    Mutant(
        "recover_delta: no Pólya integrality check, so x/2 decides as the empty partition",
        "recovery.py",
        "any(value % scale for value in a)",
        "False",
        RECOVERY_TESTS,
    ),
    Mutant(
        "recover_delta: each block starts at the previous block's last part",
        "recovery.py",
        "start = end + 1",
        "start = end",
        RECOVERY_TESTS,
    ),
    Mutant(
        "recover_delta: the pass stops above a_0, so no block of 1s is peeled",
        "recovery.py",
        "range(n, -1, -1)",
        "range(n, 0, -1)",
        RECOVERY_TESTS,
    ),
    Mutant(
        "recover_delta: an early return drops the requested trace",
        "recovery.py",
        "return NotHilbert(NonIntegerValued(), trace)",
        "return NotHilbert(NonIntegerValued())",
        RECOVERY_TESTS,
    ),
    # the reference engine's candidate sum
    Mutant(
        "recover_naive: each candidate term reads C(x + a - i + 1, a - 1)",
        "recovery.py",
        "(a - 1, a - i)",
        "(a - 1, a - i + 1)",
        RECOVERY_TESTS,
    ),
    # the reference window
    Mutant(
        "Sequence: an empty window is accepted",
        "calculus.py",
        "        if not self:\n            raise ValueError",
        "        if False:\n            raise ValueError",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "reduce: counts no passes",
        "calculus.py",
        "f, passes = delta(f), passes + 1",
        "f, passes = delta(f), passes",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "reduce: rejects any window with a zero, not only the all-zero one",
        "calculus.py",
        "if not any(f):",
        "if not all(f):",
        ("tests/test_calculus.py",),
    ),
    # evaluation on runs: block_value and hilbert_value_at
    Mutant(
        "block_value: the lower binomial reads one place high",
        "calculus.py",
        "binomial_seq_value(v, x + v - end)",
        "binomial_seq_value(v, x + v - end + 1)",
        PARTITION_TESTS,
    ),
    Mutant(
        "hilbert_value_at: each run starts one part after the last run's start",
        "partition.py",
        "        total += block_value(value, start, start + multiplicity - 1, x)\n        start += multiplicity\n",
        "        total += block_value(value, start, start + multiplicity - 1, x)\n        start += 1\n",
        PARTITION_TESTS,
    ),
    # binomial_seq_value: math.comb, and its reflection for negative x
    Mutant(
        "binomial_seq_value: the reflection's sign is (-1)^(d + 1)",
        "calculus.py",
        "(-1) ** d * math.comb",
        "(-1) ** (d + 1) * math.comb",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "binomial_seq_value: the reflection reads C(d - x, d)",
        "calculus.py",
        "math.comb(d - x - 1, d)",
        "math.comb(d - x, d)",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        # at x = 0 and d = 0 the reflection asks math.comb for C(-1, 0)
        "binomial_seq_value: x = 0 takes the reflection",
        "calculus.py",
        "if x >= 0 else",
        "if x > 0 else",
        ("tests/test_calculus.py",),
    ),
    # format_polynomial's one-pass render
    Mutant(
        "format_polynomial: a negative first term loses its minus",
        "polynomial.py",
        'out = "-"',
        'out = ""',
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "format_polynomial: the separators' signs are swapped",
        "polynomial.py",
        '" - " if c < 0 else " + "',
        '" + " if c < 0 else " - "',
        ("tests/test_polynomial.py",),
    ),
    # the integer form of Polynomial
    Mutant(
        "from_integers: trailing zero numerators are kept",
        "polynomial.py",
        "            ns.pop()",
        "            break",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "from_newton: the top coefficient skips its Horner step",
        "polynomial.py",
        "range(len(acc) - 1, 0, -1)",
        "range(len(acc) - 2, 0, -1)",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "evaluate: drops the final factor v of x = u/v",
        "polynomial.py",
        "return Fraction(acc * v, self.scale * power)",
        "return Fraction(acc, self.scale * power)",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "newton_coeffs: each synthetic division stops one coefficient early",
        "polynomial.py",
        "range(n - 1, k - 1, -1)",
        "range(n - 1, k, -1)",
        ("tests/test_polynomial.py",),
    ),
    # Polynomial's repr and equality
    Mutant(
        "Polynomial.__repr__: shows each coefficient's repr, Fraction(1, 2), not 1/2",
        "polynomial.py",
        "[str(c) for c in self.coeffs]",
        "[repr(c) for c in self.coeffs]",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "Polynomial.__eq__: a non-Polynomial compares False instead of deferring",
        "polynomial.py",
        "return NotImplemented",
        "return False",
        ("tests/test_polynomial.py",),
    ),
    # parse_polynomial's signs and divisors
    Mutant(
        "parse_polynomial: two minus signs negate, one does not",
        "polynomial.py",
        '(sign == "-") != (neg is not None)',
        '(sign == "-") == (neg is not None)',
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "parse_polynomial: a trailing divisor replaces the coefficient's denominator",
        "polynomial.py",
        'denominator *= _denominator(m, "div")',
        'denominator = _denominator(m, "div")',
        ("tests/test_polynomial.py",),
    ),
    # each public name in one module's __all__, gathered by the package
    Mutant(
        "recovery.__all__: recover_naive is not exported",
        "recovery.py",
        '    "recover_naive",\n',
        "",
        ("tests/test_package.py",),
    ),
    # names that only the benchmark's tracer looks up in recovery
    Mutant(
        "recovery: reduce is not imported",
        "recovery.py",
        "from .calculus import reduce  # noqa",
        "# noqa",
        ("tests/test_package.py",),
    ),
    Mutant(
        "recovery: from_exponent_form is not imported",
        "recovery.py",
        "from .partition import from_exponent_form  # noqa",
        "# noqa",
        ("tests/test_package.py",),
    ),
    Mutant(
        "recovery.__all__: lists reduce, which calculus defines and exports",
        "recovery.py",
        '    "subtract_block",\n]',
        '    "subtract_block",\n    "reduce",\n]',
        ("tests/test_package.py",),
    ),
]

EQUIVALENT = [
    (
        Mutant(
            "random: midpoint written lo + (k - lo) // 2",
            "partition.py",
            "mid = (lo + k) // 2",
            "mid = lo + (k - lo) // 2",
            (),
        ),
        "Python integers do not overflow, so both give the same midpoint",
    ),
    (
        Mutant(
            "evaluate: power starts at v",
            "polynomial.py",
            "acc, power = 0, 1",
            "acc, power = 0, v",
            (),
        ),
        "acc and power both gain a factor v, which the Fraction cancels",
    ),
]


def _apply(src: Path, mutant: Mutant) -> str | None:
    """Write the mutant into ``src``; returns why it cannot apply, if it cannot."""
    path = src / "hilbert_lambda" / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        return f"snippet occurs {found} times in {mutant.file}, not once"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return None


def _env(src: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def _fresh_copy(scratch: Path) -> Path:
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _pytest(src: Path, tests: tuple[str, ...]) -> tuple[bool, float]:
    """Run ``tests`` against ``src``; returns (passed, seconds)."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        result = subprocess.run(
            command, cwd=ROOT, env=_env(src), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return result.returncode == 0, time.perf_counter() - start


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch_dir:
        scratch = Path(scratch_dir)
        src = _fresh_copy(scratch)
        imported = subprocess.run(
            [sys.executable, "-c", "import hilbert_lambda; print(hilbert_lambda.__file__)"],
            env=_env(src),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        if not Path(imported).is_relative_to(src):
            print(f"error: the tests would import {imported}, not the copy under {src}")
            return 1
        baseline = tuple(sorted({test for mutant in MUTANTS for test in mutant.tests}))
        passed, seconds = _pytest(src, baseline)
        print(f"{'ok' if passed else 'FAILED':9} baseline: {' '.join(baseline)} ({seconds:.1f} s)")
        if not passed:
            return 1
        for mutant, reason in EQUIVALENT:
            problem = _apply(_fresh_copy(scratch), mutant)
            failures += problem is not None
            print(f"{'STALE' if problem else 'skipped':9} {mutant.name}: {problem or 'equivalent, ' + reason}")
        for mutant in MUTANTS:
            src = _fresh_copy(scratch)
            problem = _apply(src, mutant)
            if problem:
                failures += 1
                print(f"{'STALE':9} {mutant.name}: {problem}")
                continue
            passed, seconds = _pytest(src, mutant.tests)
            failures += passed
            verdict = "SURVIVED" if passed else "killed" if seconds < TIMEOUT_S else "timeout"
            print(f"{verdict:9} {mutant.name} ({seconds:.1f} s)")
    print(f"{len(MUTANTS)} mutants, {len(EQUIVALENT)} equivalent, {failures} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

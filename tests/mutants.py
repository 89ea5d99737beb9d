"""Mutation gate: every listed fault in ``src/`` must make its tests fail.

Run from the repository root (pytest does not collect this file)::

    python tests/mutants.py

Each mutant replaces one snippet of one source file; the snippet must occur
exactly once, so a mutant cannot silently stop applying when the code moves.
The mutant is written into a fresh temporary copy of ``src/``, and the test
files listed with it run against that copy (``PYTHONPATH`` puts it first)
under a timeout; a timeout counts as killed, and the summary line counts
the mutants that only the timeout killed.  The unmutated copy must pass
every listed test file first, and must be the package those tests import.
Two mutants run at once where two CPUs are free, each worker in its own
copy of ``src/``; the verdicts print in the order of the list.

Equivalent mutants change the code without changing what it computes, so no
test can kill them.  They are listed apart, with the reason: their snippets
are checked to apply exactly once, and their tests are not run.

Exit status 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
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
    "            else:\n"
    "                lower = lower * (bottom - k) // (k + 1)\n"
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
        """return f"ExponentForm(pairs=({', '.join(runs)}{',' * (len(runs) == 1)}))\"""",
        'return f"ExponentForm(parts={self.parts!r})"',
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: repr writes one run without its trailing comma",
        "partition.py",
        "{',' * (len(runs) == 1)}",
        "",
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: repr writes a number past the digit limit in decimal",
        "partition.py",
        'f"({int_literal(value)}, {int_literal(multiplicity)})"',
        'f"({int_text(value)}, {int_text(multiplicity)})"',
        PARTITION_TESTS,
    ),
    Mutant(
        "ExponentForm: pickle protocol 1 writes the runs as decimal text",
        "partition.py",
        "if protocol < 2:",
        "if protocol < 1:",
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
        "read_int(text, argparse.ArgumentTypeError) if text.isdecimal() else None",
        "read_int(text, argparse.ArgumentTypeError)",
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
        "_lambda_keys: lambda_flat holds one part per run",
        "cli.py",
        "flat += [text] * mult",
        "flat += [text]",
        CLI_TESTS,
    ),
    Mutant(
        "_lambda_keys: the suppression warning counts the runs, not the parts",
        "cli.py",
        "partition has {int_text(total_parts)} parts",
        "partition has {int_text(len(form.pairs))} parts",
        CLI_TESTS,
    ),
    Mutant(
        "recover --format json: warnings also go to stderr",
        "cli.py",
        """{lam}, "reason": null{warnings}{fit}{trace}}}')\n""",
        """{lam}, "reason": null{warnings}{fit}{trace}}}')\n"""
        "            for warning in outcome.warnings:\n"
        "                print(f\"warning: {warning}\", file=sys.stderr)\n",
        CLI_TESTS,
    ),
    # JSON lines built from tokens, in json.dumps's separators and literals
    Mutant(
        "_array: items are separated by a bare comma",
        "cli.py",
        "{', '.join(items)}",
        "{','.join(items)}",
        CLI_TESTS,
    ),
    Mutant(
        "recover --format json: a rejection's trace follows its reason without a separator",
        "cli.py",
        """trace = "" if outcome.trace is None else ', "trace": ' + _array(""",
        """trace = "" if outcome.trace is None else ' "trace": ' + _array(""",
        CLI_TESTS,
    ),
    Mutant(
        "recover --ambient --format json: the fit's literals are swapped",
        "cli.py",
        'ok = "true" if fits(outcome) else "false"',
        'ok = "false" if fits(outcome) else "true"',
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
        '",".join(map(int_text, step.residual))',
        '", ".join(map(int_text, step.residual))',
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
        "            else:\n"
        "                lower = lower * (bottom - k) // (k + 1)\n"
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
        "                lower = lower * (bottom - k) // (k + 1)\n",
        ("tests/test_calculus.py",),
    ),
    # the steps peel_block takes apart, C(c, 1) = c before its loops, and
    # the lopsided step C(c, k + 1) = C(c, k) (c - k) / (k + 1) in each loop
    Mutant(
        "peel_block: the first step, C(c, 1) = c, subtracts nothing",
        "calculus.py",
        "    a[v - 1] -= top - bottom\n",
        "",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: the lower chain's lopsided step divides by k + 2",
        "calculus.py",
        "\n        lower = lower * (bottom - k) // (k + 1)\n",
        "\n        lower = lower * (bottom - k) // (k + 2)\n",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: the upper chain's lopsided step divides by k + 2",
        "calculus.py",
        "upper = upper * (top - k) // (k + 1)",
        "upper = upper * (top - k) // (k + 2)",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: one part's lopsided step divides by k + 2",
        "calculus.py",
        "\n                lower = lower * (bottom - k) // (k + 1)\n",
        "\n                lower = lower * (bottom - k) // (k + 2)\n",
        ("tests/test_calculus.py",),
    ),
    # the whole-chain route: which blocks take it, on size alone, which
    # chains GMP builds, the signs and squares of _chain, and _gmp.chain's
    # steps on the limbs
    Mutant(
        "peel_block: the first comparison of the GMP gate is reversed",
        "calculus.py",
        "if bottom <= _GMP_FLOOR and",
        "if bottom >= _GMP_FLOOR and",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: a chain argument of exactly _GMP_FLOOR stays with Python",
        "calculus.py",
        "if bottom <= _GMP_FLOOR and",
        "if bottom < _GMP_FLOOR and",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: the GMP gate drops the factor v, comparing bits(bottom) with the crossover",
        "calculus.py",
        "and v * bottom.bit_length() > _gmp.CROSSOVER",
        "and bottom.bit_length() > _gmp.CROSSOVER",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: a largest product of exactly the crossover is built whole",
        "calculus.py",
        "and v * bottom.bit_length() > _gmp.CROSSOVER",
        "and v * bottom.bit_length() >= _gmp.CROSSOVER",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: the whole-chain route is taken only where the library loads",
        "calculus.py",
        "and (below is None or end != start):",
        "and (below is None or end != start) and _gmp.load():",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "peel_block: a block of value 1, which multiplies nothing, is built whole and asks GMP",
        "calculus.py",
        "_gmp.CROSSOVER and v > 1 and",
        "_gmp.CROSSOVER and",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_chain: a largest product of exactly the crossover goes to GMP",
        "calculus.py",
        "and v * c.bit_length() > _gmp.CROSSOVER",
        "and v * c.bit_length() >= _gmp.CROSSOVER",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_chain: a chain just above the floor goes to GMP",
        "calculus.py",
        "if c <= _GMP_FLOOR and",
        "if c >= _GMP_FLOOR and",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_peel_whole: one part subtracts C(b, 1..v), not C(b, 0..v-1)",
        "calculus.py",
        "terms = [1, *chain[:-1]]",
        "terms = chain",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_peel_whole: Pascal's rule reads the shared chain one place on",
        "calculus.py",
        "upper.append(below[k] - upper[-1])",
        "upper.append(below[k + 1] - upper[-1])",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_chain: the sign parity of GMP's magnitudes is flipped",
        "calculus.py",
        "return [-m if k & 1 else m for k, m in enumerate(magnitudes, 1)]",
        "return [m if k & 1 else -m for k, m in enumerate(magnitudes, 1)]",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_chain: the C(c, 2) square shifts by 2",
        "calculus.py",
        "chain.append((c * c - c) >> 1)",
        "chain.append((c * c - c) >> 2)",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_chain: the C(c, 4) square subtracts u",
        "calculus.py",
        "chain.append(((u := chain[1] - c) * u + u) // 6)",
        "chain.append(((u := chain[1] - c) * u - u) // 6)",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.load: never returns the library",
        "_gmp.py",
        "    return mpn_mul, mpn_sqr, mpn_add, mpn_divexact_1, ctypes.c_ubyte.from_buffer\n",
        "    return None\n",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.load: the limb guard is negated, refusing 64-bit little-endian limbs and taking any other",
        "_gmp.py",
        'if limb_bits != 64 or sys.byteorder != "little":',
        'if not (limb_bits != 64 or sys.byteorder != "little"):',
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.load: a library without a function raises instead of being refused",
        "_gmp.py",
        "except (ImportError, OSError, ValueError, AttributeError):",
        "except (ImportError, OSError, ValueError):",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.chain: the operands are written big-endian",
        "_gmp.py",
        'return n.to_bytes(8 * count, "little"), count',
        'return n.to_bytes(8 * count, "big"), count',
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.chain: each magnitude is read big-endian",
        "_gmp.py",
        'int.from_bytes(out, "little")',
        'int.from_bytes(out, "big")',
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.chain: an operand's limb count is rounded down",
        "_gmp.py",
        "count = (n.bit_length() + 63) >> 6",
        "count = (n.bit_length() + 62) >> 6",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.chain: a lopsided step divides by k + 2, not k + 1",
        "_gmp.py",
        "6 if k == 3 else k + 1)",
        "6 if k == 3 else k + 2)",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.chain: the C(-d, 4) square divides by k + 1 = 4, not 6",
        "_gmp.py",
        "6 if k == 3 else k + 1)",
        "k + 1)",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.chain: the squares leave out their addend u",
        "_gmp.py",
        "            mpn_add(product, product, 2 * n, x, n)",
        "            pass",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.chain: the C(-d, 4) square takes u from M_3, not M_2",
        "_gmp.py",
        "magnitudes[1] + d",
        "magnitudes[-1] + d",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.chain: the trim of a top limb left empty is dropped",
        "_gmp.py",
        "operand, n = product, (magnitudes[-1].bit_length() + 63) >> 6",
        "operand, n = product, len(out) >> 3",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.chain: a step is fed its operand with the step before's stale limb count",
        "_gmp.py",
        "operand, n = product, (magnitudes[-1].bit_length() + 63) >> 6",
        "operand = product",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.chain: chains whose last product passes the cap go to GMP, and those under it stay",
        "_gmp.py",
        "v * (d + v).bit_length() > MAX_PRODUCT_BITS",
        "v * (d + v).bit_length() < MAX_PRODUCT_BITS",
        ("tests/test_calculus.py",),
    ),
    Mutant(
        "_gmp.chain: the cap reads the size of d, not of d + v",
        "_gmp.py",
        "v * (d + v).bit_length() > MAX_PRODUCT_BITS",
        "v * d.bit_length() > MAX_PRODUCT_BITS",
        ("tests/test_calculus.py",),
    ),
    # numbers past the int-to-str digit limit
    Mutant(
        "parse_polynomial: a polynomial literal past the digit limit loses its column",
        "polynomial.py",
        "        _past_the_limit(m)\n",
        "",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "_past_the_limit: a number past the digit limit is reported at its term's start",
        "polynomial.py",
        "PolynomialSyntaxError(message, m.start(group))",
        'PolynomialSyntaxError(message, m.start("term"))',
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "_past_the_limit: the groups are searched from the last, not in reading order",
        "polynomial.py",
        '("int", "den", "exp", "div")',
        '("div", "exp", "den", "int")',
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "_past_the_limit: lifts the caller's digit limit to read the group",
        "polynomial.py",
        'read_int(m[group] or "0",',
        'sys.set_int_max_str_digits(0) or read_int(m[group] or "0",',
        ("tests/test_package.py",),
    ),
    Mutant(
        "read_int: the digit count counts the '-'",
        "polynomial.py",
        "len(digits.lstrip('-'))",
        "len(digits)",
        PARTITION_TESTS,
    ),
    Mutant(
        "_parse_int: a partition number is read by bare int()",
        "partition.py",
        "return read_int(text, PartitionSyntaxError)",
        "return int(text)",
        PARTITION_TESTS,
    ),
    Mutant(
        "_parse_int: a partition number may start with '+'",
        "partition.py",
        'text.removeprefix("-").isdecimal()',
        'text.lstrip("+-").isdecimal()',
        PARTITION_TESTS,
    ),
    Mutant(
        "_digits: a CLI number is read by bare int()",
        "cli.py",
        "read_int(text, argparse.ArgumentTypeError)",
        "int(text)",
        CLI_TESTS,
    ),
    # int_literal, the one rule for the ints of every repr
    Mutant(
        "int_literal: an int of exactly 2 126 bits is written in hex",
        "polynomial.py",
        "n.bit_length() <= _STR_BITS else hex(n)",
        "n.bit_length() < _STR_BITS else hex(n)",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "int_literal: no hex fallback, str only",
        "polynomial.py",
        "return str(n) if n.bit_length() <= _STR_BITS else hex(n)",
        "return str(n)",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "ExponentForm.__repr__: back on repr",
        "partition.py",
        'f"({int_literal(value)}, {int_literal(multiplicity)})"',
        'f"({value!r}, {multiplicity!r})"',
        PARTITION_TESTS,
    ),
    Mutant(
        "parse_polynomial: a syntax error is taken for int() refusing a number in its term",
        "polynomial.py",
        "    except PolynomialSyntaxError:\n        raise\n",
        "",
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
        "recover_delta: the zero polynomial's branch is dropped, so it loses its warning",
        "recovery.py",
        "    if not a:\n"
        '        return Success(ExponentForm(), ("zero polynomial: empty partition by convention",), trace)\n',
        "",
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
        "range(len(a) - 1, -1, -1)",
        "range(len(a) - 1, 0, -1)",
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
        '" - " if negative else " + "',
        '" + " if negative else " - "',
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
        "from_newton: the inner Horner step multiplies by k + 1, not k",
        "polynomial.py",
        "acc[i] = acc[i - 1] - k * acc[i]",
        "acc[i] = acc[i - 1] - (k + 1) * acc[i]",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "from_newton: the constant term's Horner step adds k * acc[0]",
        "polynomial.py",
        "- k * acc[0]",
        "+ k * acc[0]",
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
    # newton_coeffs' Pólya test, the one place that reads the scale L
    Mutant(
        "newton_coeffs: no Pólya integrality check, so x/2 decides as the empty partition",
        "polynomial.py",
        "any(value % scale for value in c)",
        "False",
        RECOVERY_TESTS,
    ),
    Mutant(
        "newton_coeffs: the zero polynomial gives None, not []",
        "polynomial.py",
        "None if any(value % scale for value in c)",
        "None if not c or any(value % scale for value in c)",
        ("tests/test_polynomial.py",),
    ),
    # Polynomial's repr, equality and pickles
    Mutant(
        "Polynomial.__repr__: shows each coefficient's repr, Fraction(1, 2), not the integer form",
        "polynomial.py",
        'return f"Polynomial.from_integers({int_literal(self.scale)}, ({ns}))"',
        'return f"Polynomial({list(self.coeffs)!r})"',
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "Polynomial.__repr__: writes the numerators with str, which the digit limit can refuse",
        "polynomial.py",
        '", ".join(map(int_literal, self.numerators))',
        '", ".join(map(str, self.numerators))',
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "Polynomial.__repr__: writes one numerator without its trailing comma",
        "polynomial.py",
        ' + "," * (len(self.numerators) == 1)',
        "",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "Polynomial.__reduce_ex__: pickle protocol 1 writes the integer form as decimal text",
        "polynomial.py",
        "if protocol < 2:",
        "if protocol < 1:",
        ("tests/test_polynomial.py",),
    ),
    # int_text, the one int-to-decimal route of every renderer
    Mutant(
        "int_text: the decimal route drops the sign",
        "polynomial.py",
        'return "-" + _decimal_digits(-n) if n < 0',
        "return _decimal_digits(-n) if n < 0",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "_decimal_digits: the low half keeps one bit of the high half",
        "polynomial.py",
        "lo = n - (hi << w2)",
        "lo = n - (hi << w2 + 1)",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "_decimal_digits: power multiplies the smaller half by itself",
        "polynomial.py",
        "power(w >> 1) * power(w - (w >> 1))",
        "power(w >> 1) * power(w >> 1)",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "int_text: str takes 2 127 bits, which can be 641 digits",
        "polynomial.py",
        "_STR_BITS = 2126",
        "_STR_BITS = 2127",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "int_text: str takes up to 4 200 digits, past the least digit limit CPython allows",
        "polynomial.py",
        "_STR_BITS = 2126",
        "_STR_BITS = 13_950",
        CLI_TESTS,
    ),
    Mutant(
        "coefficient_texts: a coefficient is not reduced to lowest terms",
        "polynomial.py",
        "g = math.gcd(n, scale)",
        "g = 1 if n else scale",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "Polynomial.__eq__: a non-Polynomial compares False instead of deferring",
        "polynomial.py",
        "return NotImplemented",
        "return False",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "Polynomial.__reduce__: drops the top numerator",
        "polynomial.py",
        "from_integers, (self.scale, self.numerators)",
        "from_integers, (self.scale, self.numerators[:-1])",
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
        "denominator *= div and int(div)",
        "denominator = div and int(div)",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "parse_polynomial: the first term also needs a sign",
        "polynomial.py",
        "if sign is None and pos:",
        "if sign is None:",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "parse_polynomial: a missing last term reads past the end of the text",
        "polynomial.py",
        'if at < end else "expected a term"',
        'if True else "expected a term"',
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "parse_polynomial: the denominator is read after the '*' check",
        "polynomial.py",
        '            denominator = 1 if den is None else den and int(den) or _no_number(m, "den")\n'
        "            if star and not x:\n"
        "                raise PolynomialSyntaxError(\"expected 'x'\", m.end(\"star\"))\n",
        "            if star and not x:\n"
        "                raise PolynomialSyntaxError(\"expected 'x'\", m.end(\"star\"))\n"
        '            denominator = 1 if den is None else den and int(den) or _no_number(m, "den")\n',
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "parse_polynomial: a repeated power overwrites the term before it",
        "polynomial.py",
        "if power in powers:",
        "if False:",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "parse_polynomial: a bare 'x' ignores its term's minus sign",
        "polynomial.py",
        'numerator = -1 if sign == "-" else 1',
        "numerator = 1",
        ("tests/test_polynomial.py",),
    ),
    Mutant(
        "_no_number: an empty denominator reads as zero, and a zero one as no digits",
        "polynomial.py",
        "    if m[group]:\n        raise DenominatorZeroError",
        "    if not m[group]:\n        raise DenominatorZeroError",
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


def _workers() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def _verdict(mutant: Mutant, slots: queue.SimpleQueue) -> tuple[str, str]:
    """Run one mutant in a free worker's copy of ``src/``; returns its
    verdict (STALE, SURVIVED, killed or timeout) and its line."""
    scratch = slots.get()
    try:
        src = _fresh_copy(scratch)
        problem = _apply(src, mutant)
        if problem:
            return "STALE", f"{'STALE':9} {mutant.name}: {problem}"
        passed, seconds = _pytest(src, mutant.tests)
    finally:
        slots.put(scratch)
    verdict = "SURVIVED" if passed else "killed" if seconds < TIMEOUT_S else "timeout"
    return verdict, f"{verdict:9} {mutant.name} ({seconds:.1f} s)"


def main() -> int:
    failures = timeouts = 0
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
        workers = _workers()
        slots = queue.SimpleQueue()
        for worker in range(workers):
            slots.put(scratch / f"worker-{worker}")
        with ThreadPoolExecutor(workers) as pool:
            for verdict, line in pool.map(lambda mutant: _verdict(mutant, slots), MUTANTS):
                failures += verdict in ("STALE", "SURVIVED")
                timeouts += verdict == "timeout"
                print(line, flush=True)
    print(f"{len(MUTANTS)} mutants, {len(EQUIVALENT)} equivalent, {failures} failing, {timeouts} killed only by the timeout")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

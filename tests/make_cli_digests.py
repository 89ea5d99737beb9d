"""Byte-identity digests of the CLI's output, and the script that rewrites them.

Each variant runs one ``cli.main`` argv in process, with a fixed stdin, and
keeps its exit code and the sha256 of its stdout and stderr.
``tests/test_cli.py::test_cli_output_matches_committed_digests`` compares
them with ``tests/cli_digests.json``.  A change that means to move the CLI's
output rewrites that file from the repository root::

    PYTHONPATH=src python tests/make_cli_digests.py

and says which variants moved, and why.  The texts come from a fixed
``random.Random`` seed and from arithmetic here, not from the package or the
benchmark, so only a change in what the CLI prints can move a digest.  No
input has a number past 640 digits, the smallest digit limit CPython lets
anything set, and no output depends on the limit or on GMP.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from hilbert_lambda import cli

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"

# texts that each pick one branch of the parser or the decide loop; the
# powers of x have answers whose text passes 4 300 digits
FIXED_TEXTS = (
    "0", "1", "-1", "x", "-x", "x/2", "3*x + 1", "x^2", "-2*x+5", "-1/2", "1/2*x^2 + 3/2*x + 1",
    "x^8", "x^10", "9*x^5", "x^3 - x^3 + 4", "2x", "x^2/3", "  7  ", "١ + x",
    "x +", "1/0", "x/0", "x^", "2**x", "y", "x 2", "(x)", "1//2", "--x", "* x", "x^2^3", "3 -",
)


def _hilbert_coeffs(parts: list[int]) -> list[Fraction]:
    """Monomial coefficients, lowest power first, of the sum over i of
    C(x + a_i - i, a_i - 1), each binomial multiplied out factor by factor."""
    total = [Fraction(0)] * parts[0]
    for i, a in enumerate(parts, 1):
        poly = [Fraction(1)]
        for j in range(a - 1):  # times (x + a - i - j) / (j + 1)
            shift = a - i - j
            poly = [(low * shift + high) / (j + 1) for low, high in zip(poly + [0], [0] + poly)]
        total = [t + c for t, c in zip(total, poly + [0] * (len(total) - len(poly)))]
    return total


def _text(coeffs: list[Fraction], rng: random.Random) -> str:
    """Polynomial text, highest power first, in one of the grammar's spellings per term."""
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c:
            magnitude = abs(c)
            number = str(magnitude.numerator) + (f"/{magnitude.denominator}" if magnitude.denominator > 1 else "")
            x = "" if power == 0 else "x" if power == 1 else f"x^{power}"
            if not x:
                body = number
            elif magnitude == 1:
                body = x
            elif magnitude.denominator > 1 and rng.random() < 0.3:
                body = f"{magnitude.numerator}*{x}/{magnitude.denominator}"
            else:
                body = f"{number}{rng.choice(('*', ' * ', ''))}{x}"
            terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        text += f" {sign} {body}" if rng.random() < 0.8 else f"{sign}{body}"
    return text


def decide_texts() -> list[str]:
    """The stdin lines of the ``recover`` and ``check`` variants, blank lines included."""
    rng = random.Random(20261022)
    texts = list(FIXED_TEXTS)
    for i in range(270):
        length = rng.randint(1, 7)
        parts = sorted((rng.randint(1, 8) for _ in range(length)), reverse=True)
        coeffs = _hilbert_coeffs(parts)
        if i % 3 == 1:  # one coefficient moved by a small rational: mostly not Hilbert
            k = rng.randrange(len(coeffs))
            coeffs[k] += Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
        elif i % 9 == 5:  # a random rational polynomial
            coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        texts.append(_text(coeffs, rng))
        if i % 40 == 0:
            texts.append("   ")
    texts.append(_text(_hilbert_coeffs(list(range(21, 0, -1))), rng))  # a degree-20 staircase
    return texts


def degree_texts() -> list[str]:
    """The stdin lines of the variants that cross each residue mod 3 of the
    degree and the mid and high degrees: every degree 3..14, staircases of
    degrees 35, 50 and 80, and one- to three-valued shapes of degrees 24..99
    (a largest part, then 2 parts just below 3/4 of it and 3 just below 1/2),
    some with one coefficient moved so that they are not Hilbert."""
    rng = random.Random(20261023)
    shapes = []
    for degree in range(3, 15):
        length = rng.randint(1, 6)
        shapes.append([degree + 1] + sorted((rng.randint(1, degree + 1) for _ in range(length - 1)), reverse=True))
    shapes += [list(range(degree + 1, 0, -1)) for degree in (35, 50, 80)]
    for low, high, distinct in ((25, 30, 3), (38, 44, 2), (51, 57, 1), (65, 71, 3), (78, 84, 2), (95, 100, 1)):
        largest = rng.randint(low, high)
        values = [largest] + [largest * quarters // 4 - rng.randint(0, 3) for quarters in (3, 2)]
        shapes.append([v for v, mult in zip(values[:distinct], (1, 2, 3)) for _ in range(mult)])
    texts = []
    for i, parts in enumerate(shapes):
        coeffs = _hilbert_coeffs(parts)
        texts.append(_text(coeffs, rng))
        if i % 4 == 2:  # the same shape with one coefficient moved
            k = rng.randrange(len(coeffs))
            coeffs[k] += Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
            texts.append(_text(coeffs, rng))
    return texts


def _shapes() -> dict[str, str]:
    """Partition texts whose degrees lie on both sides of every size cut
    in ``build_hilbert``, and one with a 10^400 multiplicity."""
    def staircase(top: int) -> str:
        return "(" + ",".join(map(str, range(top, 0, -1))) + ")"

    return {
        "(5,3^2,1)": "(5,3^2,1)",
        "(12^2,7,1)": "(12^2,7,1)",
        "(13,9^3,2)": "(13,9^3,2)",
        "(14^3,2)": "(14^3,2)",
        "staircase 21": staircase(21),
        "(41^3,40^2,39)": "(41^3,40^2,39)",
        "(60^7,30^4,2)": "(60^7,30^4,2)",
        "staircase 98": staircase(98),
        "(98^5)": "(98^5)",
        "staircase 121": staircase(121),
        "(121^4,60^2)": "(121^4,60^2)",
        "(3^10^400,2,1)": f"(3^{10**400},2,1)",
    }


def variants() -> dict[str, tuple[list[str], str]]:
    """Each variant's label, argv and stdin."""
    stdin = "\n".join(decide_texts()) + "\n"
    runs: dict[str, tuple[list[str], str]] = {}
    for options in ([], ["--verbose"], ["--ambient", "5"]):
        for form in ("text", "json"):
            argv = ["recover", "--format", form, *options]
            runs[" ".join(argv) + " < texts"] = argv, stdin
    runs["check < texts"] = ["check"], stdin
    stdin = "\n".join(degree_texts()) + "\n"
    for argv in (["recover", "--format", "json"], ["recover", "--verbose"], ["check"]):
        runs[" ".join(argv) + " < degree texts"] = argv, stdin
    for label, partition in _shapes().items():
        for form in ("text", "json"):
            runs[f"build --format {form} {label}"] = ["build", "--format", form, partition], ""
    for max_part, max_len, seed in ((6, 6, 1), (13, 4, 2), (14, 9, 3), (50, 30, 4), (98, 40, 5), (121, 3, 6)):
        for form in ("text", "json"):
            argv = ["random", "--format", form, "--seed", str(seed), str(max_part), str(max_len)]
            runs[" ".join(argv)] = argv, ""
    return runs


def outputs(argv: list[str], stdin: str) -> dict:
    """The exit code of ``cli.main(argv)`` with ``stdin``, and the sha256 of what it wrote."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def digests() -> dict[str, dict]:
    return {label: outputs(argv, stdin) for label, (argv, stdin) in variants().items()}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {DIGESTS}")

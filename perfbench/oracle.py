"""Independent input generator and answer checker for the benchmark.

Nothing here imports ``hilbert_lambda``: every input is built and every
answer is judged with arithmetic written separately from the package.

A partition is handled in run-length form ``((value, multiplicity), ...)``.
Parts ``start..end`` of equal value ``v`` contribute

    sum over i of C(x + v - i, v - 1) = C(x + v - start + 1, v) - C(x + v - end, v)

(Pascal's rule telescoped; binomials are read as polynomials, so the
identity holds for negative arguments too).  Evaluation uses that sum
directly; coefficient expansion goes through the Newton basis
``C(x + c, v) = sum_k C(c, v - k) C(x, k)`` and Stirling numbers of the
first kind, which is a different route from the package's product
expansion.

Run ``python3 perfbench/oracle.py WORKLOAD SEED`` to print an input set.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

WORKLOADS = ("corpus-batch", "high-degree", "astronomical")

CORPUS_MAX_PART = 6
CORPUS_MAX_LEN = 6
REJECTIONS_PER_KIND = 100
NON_INTEGER_COUNT = 200
STAIRCASE_DEGREES = (20, 35, 50, 65, 80)
# seeded few-distinct-values partitions: (centre of the largest part, number
# of distinct values); the seed moves each value by a few units only, so the
# set's cost hardly depends on it
SEEDED_SHAPES = ((27, 3), (41, 2), (54, 1), (68, 3), (81, 2), (98, 1))
ASTRONOMICAL_INPUTS = tuple(f"x^{k}" for k in range(8, 15)) + tuple(f"9*x^{k}" for k in range(5, 12))
# members of the same families whose partitions are still small enough to
# expand flat; each form is confirmed against its polynomial when generated
ASTRONOMICAL_BUILDS = (
    ("9*x", ((2, 9), (1, 27))),
    ("x^3", ((4, 6), (3, 3), (2, 8), (1, 50))),
    ("9*x^2", ((3, 18), (2, 126), (1, 9336))),
)


# --- arithmetic -------------------------------------------------------------


def gbinom(a: int, k: int) -> int:
    """C(a, k) read as a polynomial in a, at any integer a (k >= 0)."""
    if a >= 0:
        return math.comb(a, k)
    # reflection: C(a, k) = (-1)^k C(k - a - 1, k)
    value = math.comb(k - a - 1, k)
    return -value if k % 2 else value


def blocks(form):
    """Yield (value, start, end) for each run, parts numbered from 1."""
    start = 1
    for value, mult in form:
        end = start + mult - 1
        yield value, start, end
        start = end + 1


def form_value(form, x: int) -> int:
    """Value at integer x of the polynomial the partition generates."""
    return sum(gbinom(x + v - s + 1, v) - gbinom(x + v - e, v) for v, s, e in blocks(form))


def form_coeffs(form) -> list[Fraction]:
    """Monomial coefficients, lowest power first, of the partition's polynomial."""
    if not form:
        return []
    n = form[0][0] - 1
    newton = [0] * (n + 1)
    for v, s, e in blocks(form):
        # the C(x, v) terms of the two binomials cancel
        for k in range(v):
            newton[k] += gbinom(v - s + 1, v - k) - gbinom(v - e, v - k)
    return newton_to_coeffs(newton)


def newton_to_coeffs(newton: list[int]) -> list[Fraction]:
    """Monomial coefficients of sum_k newton[k] * C(x, k)."""
    n = len(newton) - 1
    # stirling[j] = s(k, j), signed Stirling numbers of the first kind
    stirling = [1]
    scaled = [0] * (n + 1)  # n! times each coefficient
    top = math.factorial(n)
    for k in range(n + 1):
        weight = newton[k] * (top // math.factorial(k))
        for j, s in enumerate(stirling):
            scaled[j] += weight * s
        stirling = [(stirling[j - 1] if j else 0) - (k * stirling[j] if j < len(stirling) else 0)
                    for j in range(len(stirling) + 1)]
    coeffs = [Fraction(c, top) for c in scaled]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def evaluate(coeffs, x: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def render(coeffs) -> str:
    """Polynomial text in the package's input grammar, highest power first."""
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[power])
        if c == 0:
            continue
        mag = abs(c)
        num = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        var = "" if power == 0 else ("x" if power == 1 else f"x^{power}")
        body = num if not var else (var if mag == 1 else f"{num}*{var}")
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def run_length(parts) -> tuple:
    out: list[list[int]] = []
    for part in parts:
        if out and out[-1][0] == part:
            out[-1][1] += 1
        else:
            out.append([part, 1])
    return tuple((v, r) for v, r in out)


def flat(form) -> list[int]:
    return [v for v, r in form for _ in range(r)]


# --- input generation -------------------------------------------------------


def partitions(max_part: int, max_len: int):
    """Every non-empty partition with parts <= max_part and length <= max_len."""

    def grow(prefix, largest):
        if prefix:
            yield tuple(prefix)
        if len(prefix) == max_len:
            return
        for part in range(largest, 0, -1):
            yield from grow(prefix + [part], part)

    return list(grow([], max_part))


def _newton_poly(rng: random.Random, degree: int, lead: int) -> list[int]:
    return [rng.randint(-5, 5) for _ in range(degree)] + [lead]


def generate(workload: str, seed: int) -> dict:
    """The workload's input set for ``seed``.

    Returns {"build": [...], "decide": [...]}: each build item carries a
    run-length partition, each decide item its text (corpus-batch and
    astronomical) and the facts the checker judges the answer by.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus-batch":
        return _corpus(rng)
    if workload == "high-degree":
        return _high_degree(rng)
    if workload == "astronomical":
        return _astronomical()
    raise ValueError(f"unknown workload {workload!r}")


def _corpus(rng: random.Random) -> dict:
    corpus = partitions(CORPUS_MAX_PART, CORPUS_MAX_LEN)
    build = [{"form": run_length(p), "coeffs": form_coeffs(run_length(p))} for p in corpus]
    decide = [{"kind": "hilbert", "form": b["form"], "coeffs": b["coeffs"]} for b in build]
    for _ in range(REJECTIONS_PER_KIND):
        newton = _newton_poly(rng, rng.randint(0, 5), -rng.randint(1, 5))
        decide.append({"kind": "negative-lead", "coeffs": newton_to_coeffs(newton)})
    for _ in range(REJECTIONS_PER_KIND):
        form = run_length(rng.choice(corpus))
        ones = dict(form).get(1, 0)
        shift = ones + rng.randint(1, 5)
        upper = tuple((v, r) for v, r in form if v > 1)
        coeffs = form_coeffs(form)
        coeffs[0] -= shift
        decide.append({"kind": "negative-residual", "coeffs": coeffs, "upper": upper})
    non_integer = 0
    while non_integer < NON_INTEGER_COUNT:
        newton = _newton_poly(rng, rng.randint(0, 5), rng.choice((-1, 1)) * rng.randint(1, 5))
        coeffs = newton_to_coeffs(newton)
        power = rng.randint(0, len(coeffs))
        coeffs += [Fraction(0)] * (power + 1 - len(coeffs))
        coeffs[power] += Fraction(rng.randint(1, 9), rng.randint(2, 7))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if coeffs and non_integer_point(coeffs) is not None:
            decide.append({"kind": "non-integer", "coeffs": coeffs})
            non_integer += 1
    rng.shuffle(decide)
    for item in decide:
        item["text"] = render(item["coeffs"])
    return {"build": build, "decide": decide}


def _high_degree(rng: random.Random) -> dict:
    shapes = [tuple(range(d + 1, 0, -1)) for d in STAIRCASE_DEGREES]
    for centre, distinct in SEEDED_SHAPES:
        largest = centre + rng.randint(-3, 3)
        # further values just below 3/4 and 1/2 of the largest, 2 and 3 parts each
        values = [largest] + [largest * quarters // 4 - rng.randint(0, 3) for quarters in (3, 2)]
        parts = [v for v, mult in zip(values[:distinct], (1, 2, 3)) for _ in range(mult)]
        shapes.append(tuple(parts))
    build = [{"form": run_length(s), "coeffs": form_coeffs(run_length(s))} for s in shapes]
    decide = [{"kind": "hilbert", "form": b["form"], "coeffs": b["coeffs"]} for b in build]
    return {"build": build, "decide": decide}


def _astronomical() -> dict:
    build = []
    for text, form in ASTRONOMICAL_BUILDS:
        coeffs = parse_monomial(text)
        if form_coeffs(form) != coeffs:
            raise AssertionError(f"reference form for {text} does not generate it")
        build.append({"form": form, "coeffs": coeffs})
    decide = [{"kind": "hilbert", "text": text, "coeffs": parse_monomial(text)} for text in ASTRONOMICAL_INPUTS]
    return {"build": build, "decide": decide}


def parse_monomial(text: str) -> list[Fraction]:
    """Coefficients of "c*x^k", "x^k" or "c*x"."""
    coeff, _, var = text.rpartition("*") if "*" in text else ("1", "", text)
    power = int(var.partition("^")[2] or 1)
    return [Fraction(0)] * power + [Fraction(int(coeff))]


# --- checking ---------------------------------------------------------------


def non_integer_point(coeffs) -> int | None:
    """First x in 0..deg where the polynomial is not an integer, if any."""
    for x in range(len(coeffs)):
        if evaluate(coeffs, x).denominator != 1:
            return x
    return None


def check_form(coeffs, form) -> str | None:
    """Why ``form`` is not the partition of ``coeffs``, or None if it is.

    Both polynomials have degree deg p once the largest part is deg p + 1,
    so agreement on x = 0..deg p makes them equal, and the generating
    partition of a polynomial is unique.
    """
    previous = None
    for v, r in form:
        if v < 1 or r < 1 or (previous is not None and v >= previous):
            return f"malformed run-length form {summary(form)}"
        previous = v
    n = len(coeffs) - 1
    if not form or form[0][0] != n + 1:
        return f"largest part of {summary(form)} does not match degree {n}"
    for x in range(n + 1):
        if form_value(form, x) != evaluate(coeffs, x):
            return f"{summary(form)} differs from the input at x = {x}"
    return None


def check_rejection(item) -> str | None:
    """Why ``item`` is not certainly non-Hilbert, or None if it is.

    negative-lead: partition polynomials lead with a positive coefficient.
    negative-residual: the input agrees with the polynomial of its
    construction's parts >= 2 up to a negative constant, and those parts
    are forced by the non-constant coefficients, so the count of 1-parts
    would have to be negative.
    non-integer: partition polynomials are integer-valued.
    """
    coeffs = item["coeffs"]
    kind = item["kind"]
    if kind == "negative-lead":
        return None if coeffs and coeffs[-1] < 0 else "leading coefficient is not negative"
    if kind == "negative-residual":
        upper = form_coeffs(item["upper"])
        residual = [a - b for a, b in zip(coeffs + [0] * len(upper), upper + [0] * len(coeffs))]
        if any(residual[1:]) or residual[0] >= 0:
            return "residual after the parts >= 2 is not a negative constant"
        return None
    if kind == "non-integer":
        return None if non_integer_point(coeffs) is not None else "no non-integer value in the window"
    return f"unknown rejection kind {kind!r}"


def summary(form) -> str:
    pieces = [f"{v}^{r.bit_length()}bits" if r.bit_length() > 64 else f"{v}^{r}" for v, r in form]
    return "(" + ",".join(pieces) + ")"


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in WORKLOADS:
        print(f"usage: oracle.py {{{'|'.join(WORKLOADS)}}} SEED", file=sys.stderr)
        return 2
    inputs = generate(argv[0], int(argv[1]))
    for item in inputs["build"]:
        print("build", item["form"])
    for item in inputs["decide"]:
        print("decide", item["kind"], item.get("text") or render(item["coeffs"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbert_lambda import _gmp, calculus
from hilbert_lambda.calculus import (
    _GMP_FLOOR,
    LengthTooShortError,
    Sequence,
    _chain,
    binomial_seq_value,
    delta,
    is_integer_sequence,
    peel_block,
    reduce,
)
from hilbert_lambda.partition import ExponentForm, build_hilbert
from hilbert_lambda.polynomial import Polynomial, from_newton, parse_polynomial, sample_points
from hilbert_lambda.recovery import Success, recover_delta
from support import falling_factorial_binomial, two_chain_peel

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def test_sequence_coerces_to_fractions():
    s = Sequence([1, 2, Fraction(1, 2)])
    assert s.window() == (Fraction(1), Fraction(2), Fraction(1, 2))
    assert all(isinstance(v, Fraction) for v in s)


def test_sequence_is_a_tuple_of_fractions():
    s = Sequence([1, Fraction(1, 2), 3])
    assert s == (1, Fraction(1, 2), 3) and hash(s) == hash((Fraction(1), Fraction(1, 2), Fraction(3)))
    assert s == Sequence([Fraction(2, 2), Fraction(1, 2), 3]) and s != Sequence([1, 2, 3])
    assert (s[-1], s[1:], len(s)) == (3, (Fraction(1, 2), 3), 3)
    assert type(s.window()) is tuple and s.window() == tuple(s)
    assert repr(s) == "Sequence([Fraction(1, 1), Fraction(1, 2), Fraction(3, 1)])"


def test_sequence_requires_at_least_one_value():
    for empty in ([], (), iter([])):
        with pytest.raises(ValueError):
            Sequence(empty)


def test_delta_adjacent_differences():
    s = Sequence([18, 2, 8, 2, 11])
    assert delta(s).window() == (-16, 6, -6, 9)


def test_delta_needs_two_effective_values():
    with pytest.raises(LengthTooShortError):
        delta(Sequence([7]))


def test_delta_shortens_by_one():
    s = Sequence(range(10))
    assert len(delta(s)) == 9


def test_delta_of_cubic_samples_gives_quadratic_samples():
    cubic = Sequence([binomial_seq_value(3, x) for x in range(6)])
    assert cubic.window() == (0, 0, 0, 1, 4, 10)
    assert delta(cubic).window() == (0, 0, 1, 3, 6)


@given(
    st.lists(st.tuples(rationals, rationals), min_size=2, max_size=10),
    rationals,
    rationals,
)
def test_delta_is_linear(pairs, a, b):
    f = Sequence(u for u, _ in pairs)
    g = Sequence(v for _, v in pairs)
    combined = Sequence(a * u + b * v for u, v in pairs)
    expected = tuple(a * u + b * v for u, v in zip(delta(f), delta(g)))
    assert delta(combined).window() == expected


def test_reduce_constant_window():
    assert reduce(Sequence([5, 5, 5])) == (0, 5)
    assert reduce(Sequence([7])) == (0, 7)


def test_reduce_linear_windows():
    assert reduce(Sequence([2, 3])) == (1, 1)
    assert reduce(Sequence([1, 4])) == (1, 3)


def test_reduce_quadratic_window():
    assert reduce(Sequence([0, 1, 4])) == (2, 2)


def test_reduce_rejects_all_zero_window():
    with pytest.raises(ValueError):
        reduce(Sequence([0, 0, 0]))


def test_reduce_does_not_mutate_input():
    s = Sequence([0, 1, 4, 9])
    reduce(s)
    assert s.window() == (0, 1, 4, 9)


def test_reduce_finds_exact_degree_and_scaled_leading_coefficient():
    # differencing a degree-d polynomial d times leaves the constant d! * lead
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randint(0, 8)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        p = Polynomial(coeffs + [lead])
        window = sample_points(p, d + rng.randint(0, 3))
        assert reduce(window) == (d, lead * math.factorial(d))


def test_binomial_prefix_values():
    assert [binomial_seq_value(2, x) for x in range(6)] == [0, 0, 1, 3, 6, 10]


def test_binomial_negative_arguments_do_not_vanish():
    # polynomial reading, not the combinatorial zero-for-negatives one
    assert binomial_seq_value(1, -1) == -1
    assert binomial_seq_value(3, -2) == -4
    assert binomial_seq_value(0, -7) == 1


def test_binomial_rejects_negative_degree():
    with pytest.raises(ValueError):
        binomial_seq_value(-1, 0)


def test_binomial_matches_comb_on_nonnegative_arguments():
    # against the falling-factorial quotient, as the body is math.comb itself:
    # both signs of x, and x = 0, where comb and its reflection meet
    for d in range(25):
        for x in [*range(-40, 41), 10**40, -(10**40)]:
            assert binomial_seq_value(d, x) == falling_factorial_binomial(d, x), (d, x)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=-20, max_value=20))
def test_binomial_difference_drops_degree_by_one(d, x):
    assert binomial_seq_value(d, x + 1) - binomial_seq_value(d, x) == binomial_seq_value(d - 1, x)


def test_is_integer_sequence():
    assert is_integer_sequence(Sequence([1, -2, 0]))
    assert not is_integer_sequence(Sequence([1, Fraction(1, 2)]))


def _newton_of_values(values: list[int]) -> list[int]:
    # Δ^k f(0) for k = 0..len - 1, by differencing the integer samples
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def test_peel_block_subtracts_the_term_by_term_block():
    rng = random.Random(17)
    cases = [(1, 1, 1), (1, 3, 9), (4, 3, 2), (1, 5, 4)]  # v = 1 and empty spans
    for _ in range(60):
        v, start = rng.randint(1, 25), rng.randint(1, 40)
        cases.append((v, start, start + rng.randint(-1, 30)))
    for v, start, end in cases:
        block = [
            sum(binomial_seq_value(v - 1, x + v - i) for i in range(start, end + 1))
            for x in range(v)
        ]
        before = [rng.randint(-1000, 1000) for _ in range(v)]
        after = list(before)
        peel_block(after, v, start, end)
        assert [b - a for a, b in zip(after, before)] == _newton_of_values(block), (v, start, end)


def test_peel_block_spans_astronomically_many_parts():
    # too many terms to sum, so check against the telescoped pair instead
    for v, start in ((1, 1), (6, 3), (30, 1)):
        end = start + 10**50
        pair = [
            binomial_seq_value(v, x + v - start + 1) - binomial_seq_value(v, x + v - end) for x in range(v)
        ]
        a = [0] * v
        peel_block(a, v, start, end)
        assert [-value for value in a] == _newton_of_values(pair)
        assert a[-1] == -(10**50 + 1)  # the top coefficient counts the parts


def _block_sequences(rng: random.Random) -> list[list[tuple[int, int]]]:
    # runs (value, multiplicity) with strictly decreasing values: adjacent
    # values, gaps of 2 and more, v = 1, empty spans (multiplicity 0) and
    # 10**50-part spans, alone and next to each other
    sequences = [
        [(1, 1)],
        [(1, 10**50)],
        [(2, 0), (1, 3)],
        [(3, 10**50), (2, 10**50), (1, 0)],
        [(5, 2), (3, 1)],
    ]
    for _ in range(150):
        value, runs = rng.randint(2, 14), []
        while value >= 1:
            runs.append((value, rng.choice([0, 1, 2, 3, rng.randint(4, 10**6), 10**50])))
            value -= rng.choice([1, 1, 1, 2, 3])
        sequences.append(runs)
    return sequences


def test_peel_block_shared_chain_matches_the_two_chain_walk():
    rng = random.Random(10)
    for runs in _block_sequences(rng):
        a = [rng.randint(-1000, 1000) for _ in range(runs[0][0])]
        reference = list(a)
        start, above = 1, None
        for v, multiplicity in runs:
            end = start + multiplicity - 1
            above = peel_block(a, v, start, end, above)
            assert above == (v, two_chain_peel(reference, v, start, end)), runs
            assert a == reference, runs
            assert above[1] == [binomial_seq_value(k, v - end) for k in range(1, v + 1)], runs
            start = end + 1


def test_peel_block_single_parts_match_the_two_chain_walk():
    # long runs of one-part blocks, with the chain handed down (adjacent
    # values) and without it (gaps), from starts up to 10**30, where v - start
    # is hugely negative; an empty span in between must subtract nothing
    rng = random.Random(12)
    for first in (1, 2, 50, 10**6, 10**30 - 7, 10**30):
        for steps in ([1], [2, 3], [1, 1, 1, 2]):
            value, runs = rng.randint(30, 60), []
            while value >= 1:
                runs.append((value, 0 if rng.random() < 0.1 else 1))
                value -= rng.choice(steps)
            a = [rng.randint(-(10**6), 10**6) for _ in range(runs[0][0])]
            reference = list(a)
            start, above = first, None
            for v, multiplicity in runs:
                end = start + multiplicity - 1
                before = list(a)
                above = peel_block(a, v, start, end, above)
                assert above == (v, two_chain_peel(reference, v, start, end)), (first, runs)
                assert a == reference, (first, runs)
                assert above[1] == [binomial_seq_value(k, v - end) for k in range(1, v + 1)], (first, runs)
                # one part is the single term C(x + v - start, v - 1)
                term = [binomial_seq_value(k, v - start) for k in range(v)] if multiplicity else [0] * v
                assert [before[v - 1 - k] - a[v - 1 - k] for k in range(v)] == term, (first, runs)
                start = end + 1


def test_peel_block_chains_at_karatsuba_sizes():
    # starts and spans of 10**700 and 10**5000 (2 300 and 16 600 bits) take
    # the chains past CPython's Karatsuba cutoffs (about 2 100 bits for a
    # product and 4 200 for a square), in the loops or, past the GMP
    # crossover, built whole, where C(c, 2) and C(c, 4) are squarings; v =
    # 1..8 covers chains that stop before either square.
    # Gaps and first blocks multiply out both chains, adjacent values hand
    # the chain down, and one-part blocks walk one chain, with or without it
    rng = random.Random(14)
    big = (10**700, 10**5000)
    seen = set()
    for _ in range(60):
        value, runs = rng.randint(1, 8), []
        while value >= 1:
            runs.append((value, rng.choice([0, 1, 1, 2, rng.choice(big) + rng.randrange(10**6)])))
            value -= rng.choice([1, 1, 2, 3])
        a = [rng.randint(-(10**6), 10**6) for _ in range(runs[0][0])]
        reference = list(a)
        start, above = rng.choice(big) - rng.randrange(10**6), None
        for v, multiplicity in runs:
            end = start + multiplicity - 1
            seen.add((end == start, above is not None and above[0] == v + 1, v >= 4))
            above = peel_block(a, v, start, end, above)
            assert above == (v, two_chain_peel(reference, v, start, end)), runs
            assert a == reference, runs
            assert above[1] == [binomial_seq_value(k, v - end) for k in range(1, v + 1)], runs
            start = end + 1
    assert seen == set(itertools.product((False, True), repeat=3))  # (one part, chain reused, v >= 4)


def test_peel_block_ignores_a_chain_not_one_value_up():
    # peel_block alone decides whether to reuse the chain above: a real peel
    # two values up, and results of other values whose chains would corrupt
    # the walk if read, must leave every span kind equal to the two-chain walk
    rng = random.Random(13)
    for _ in range(150):
        v, start = rng.randint(1, 30), rng.randint(1, 60)
        up = rng.randint(1, start)  # the block two values up spans [up, start - 1]
        two_up = peel_block([0] * (v + 2), v + 2, up, start - 1)
        garbage = [rng.randint(-(10**9), 10**9) for _ in range(v + 3)]
        aboves = [two_up, (v + 2, garbage), (v + 3, garbage), (v, garbage), (v - 1, garbage)]
        for end in (start - 1, start, start + rng.randint(1, 10**6), start + 10**40):
            for above in aboves:
                a = [rng.randint(-1000, 1000) for _ in range(v)]
                reference = list(a)
                assert peel_block(a, v, start, end, above) == (v, two_chain_peel(reference, v, start, end))
                assert a == reference, (v, start, end, above[0])


def test_staircases_round_trip():
    # every block of a staircase is one part, and each hands its chain down
    for d in range(1, 121):
        form = ExponentForm(tuple((v, 1) for v in range(d, 0, -1)))
        assert recover_delta(build_hilbert(form)) == Success(form), d


def test_build_and_recover_share_chains_only_between_adjacent_values():
    # both callers hand every peel on to the next; across a gap of 2 the
    # chain must not be reused
    rng = random.Random(11)
    for runs in _block_sequences(rng):
        form = ExponentForm(tuple((v, r) for v, r in runs if r))
        if not form.pairs:
            continue
        a, start = [0] * form.pairs[0][0], 1
        for v, multiplicity in form.pairs:
            two_chain_peel(a, v, start, start + multiplicity - 1)
            start += multiplicity
        p = from_newton([-b for b in a])
        assert build_hilbert(form) == p, runs
        assert recover_delta(p) == Success(form), runs


# binomial chains through the system's GMP: _gmp.chain, and the blocks
# peel_block sends to it


def _libgmp_opens() -> bool:
    # opened here, not through _gmp.load, so a loader that gives up where the
    # library opens fails test_gmp_loads_where_the_system_library_opens
    try:
        import ctypes

        ctypes.CDLL(_gmp.SONAME)
    except (ImportError, OSError):
        return False
    return True


needs_gmp = pytest.mark.skipif(not _libgmp_opens(), reason=f"{_gmp.SONAME} does not load here")


def _of_bits(rng: random.Random, bits: int) -> int:
    # a random positive integer of exactly this many bits, bits >= 1
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1)


def _limb_count(n: int) -> int:
    return (n.bit_length() + 63) // 64


# d = 2**43 and 2**3371 make the product of step k = 2, M_2 (d + 2) =
# d (d + 1) (d + 2) / 2, just reach 2**128 and 2**10112 and fill its buffer,
# so the exact division by 3 empties the top limb
EMPTYING = (1 << 43, 1 << 3371)


@needs_gmp
def test_gmp_loads_where_the_system_library_opens():
    assert _gmp.load() is not None
    assert _gmp.load() is _gmp.load()  # opened once


@needs_gmp
def test_gmp_chain_matches_python_chain():
    # |C(-d, k)| for d at the limb edges, at sizes around the crossover, with
    # a step that empties its top limb, and with products past 1 Mbit
    rng = random.Random(29)
    crossover = _gmp.CROSSOVER
    sizes = (crossover // 9, crossover // 2, crossover // 2 + 1, crossover, 120_000)
    # against math.comb, as _chain itself asks GMP for chains past the crossover
    for d in (1, 2, 2**64 - 1, 2**64, *EMPTYING, *(_of_bits(rng, bits) for bits in sizes)):
        expected = [math.comb(d + k - 1, k) for k in range(1, 10)]
        for v in range(1, 10):
            assert _gmp.chain(d, v) == expected[:v], (d.bit_length(), v)
    assert expected[-1].bit_length() > 1_000_000
    for d in EMPTYING:
        m2, m3 = math.comb(d + 1, 2), math.comb(d + 2, 3)
        assert _limb_count(m2 * (d + 2)) == _limb_count(m2) + _limb_count(d + 2) == _limb_count(m3) + 1


@needs_gmp
def test_gmp_chain_hands_each_step_the_limbs_of_the_last(monkeypatch):
    # a lopsided step multiplies M_k's limbs, trimmed of any top limb that the
    # product or the exact division left empty, by those of d + k
    library = _gmp.load()
    mpn_mul, operands = library[0], []

    def spy_mul(product, operand, n, factor, m):
        operands.append((n, m))
        mpn_mul(product, operand, n, factor, m)

    monkeypatch.setattr(_gmp, "load", lambda: (spy_mul, *library[1:]))
    for d in (*EMPTYING, 3**5000):
        operands.clear()
        magnitudes = _gmp.chain(d, 9)
        steps = [k for k in range(1, 9) if k not in (1, 3)]
        assert operands == [(_limb_count(magnitudes[k - 1]), _limb_count(d + k)) for k in steps], d.bit_length()


def test_gmp_chain_is_none_without_the_library(monkeypatch):
    # and _chain steps past the crossover in Python instead
    monkeypatch.setattr(_gmp, "load", lambda: None)
    assert _gmp.chain(3**9000, 5) is None
    assert _chain(-(3**9000), 5) == [binomial_seq_value(k, -(3**9000)) for k in range(1, 6)]


class _ReachedTheLibrary(Exception):
    pass


def _reached(*args):
    raise _ReachedTheLibrary(args)


def test_gmp_leaves_products_past_the_cap_to_python(monkeypatch):
    # GMP aborts the process where an allocation fails, so a chain whose last
    # product could pass the cap must never reach the library, here a stand-in
    # whose functions (the four mpn calls and the view of a buffer) all raise.
    # That product M_(v-1) (d + v - 1) is below (d + v)**v, of v * bits(d + v)
    # bits at most, which the cap is checked against.  _chain, which asks GMP
    # here for chains of more than 200 bits, then steps in Python
    monkeypatch.setattr(_gmp, "load", lambda: (_reached,) * 5)
    monkeypatch.setattr(_gmp, "MAX_PRODUCT_BITS", 1000)
    monkeypatch.setattr(_gmp, "CROSSOVER", 0)
    monkeypatch.setattr(calculus, "_GMP_FLOOR", -(1 << 200))
    for d, v in ((1 << 249, 5), ((1 << 250) - 2, 4)):  # 5 * 250 and 4 * 251 bits
        assert _gmp.chain(d, v) is None, (d, v)
        assert _chain(-d, v) == [binomial_seq_value(k, -d) for k in range(1, v + 1)]
    for d, v in (((1 << 250) - 5, 4), (3**200, 3)):  # 4 * 250 and 3 * 317 bits
        with pytest.raises(_ReachedTheLibrary):
            _gmp.chain(d, v)


@needs_gmp
@pytest.mark.parametrize("byteorder, limb_bits", [("big", 64), ("little", 32)])
def test_gmp_is_refused_unless_its_limbs_are_little_endian_64_bit(byteorder, limb_bits, monkeypatch):
    # chain reads and writes limbs as 8 little-endian bytes each, so any other
    # limb is refused: Python multiplies instead
    import ctypes

    in_dll = ctypes.c_int.in_dll

    def limb_size(library, name):
        return ctypes.c_int(limb_bits) if name == "__gmp_bits_per_limb" else in_dll(library, name)

    monkeypatch.setattr(sys, "byteorder", byteorder)
    monkeypatch.setattr(ctypes.c_int, "in_dll", limb_size)
    assert _gmp.load.__wrapped__() is None
    monkeypatch.undo()
    assert _gmp.load.__wrapped__() is not None  # the stand-ins alone refused it


@needs_gmp
def test_gmp_is_refused_without_its_exact_division(monkeypatch):
    # mpn_divexact_1 is not in GMP's documented interface, so a build may
    # lack it: the library is then refused and Python multiplies
    import ctypes

    class WithoutDivexact(ctypes.CDLL):
        def __getattr__(self, name):
            if name == "__gmpn_divexact_1":
                raise AttributeError(name)
            return super().__getattr__(name)

    monkeypatch.setattr(ctypes, "CDLL", WithoutDivexact)
    assert _gmp.load.__wrapped__() is None
    monkeypatch.undo()
    assert _gmp.load.__wrapped__() is not None


@pytest.fixture
def gmp_calls(monkeypatch):
    """What is asked of _gmp: "load" for each look for the library, and
    ``(bits(d), v)`` for each chain it is handed."""
    calls = []
    load, chain = _gmp.load, _gmp.chain

    def spy_load():
        calls.append("load")
        return load()

    def spy_chain(d: int, v: int) -> list[int] | None:
        calls.append((d.bit_length(), v))
        return chain(d, v)

    monkeypatch.setattr(_gmp, "load", spy_load)
    monkeypatch.setattr(_gmp, "chain", spy_chain)
    return calls


def test_peel_block_sends_only_products_past_the_crossover_to_gmp(gmp_calls):
    # a block goes to GMP only where a chain multiplies out, which a block of
    # value 1 never does, nor one part with the chain from above, and only
    # once its lower chain's argument c = v - end is at most _GMP_FLOOR and
    # its largest product, v * bits(c), passes the crossover; an upper chain
    # multiplied out goes by the same rule.  It peels the same either way.
    # A chain is handed to _gmp.chain, which looks for the library, whether
    # or not the library loads
    # Spans: one part, many parts, a first block (whose upper chain's argument
    # v is small), and an upper argument 200 bits shorter than the lower
    rng = random.Random(30)
    crossover, floor = _gmp.CROSSOVER, -_GMP_FLOOR

    def passes(c: int, v: int) -> bool:
        return c <= -floor and v * c.bit_length() > crossover

    blocks = []
    for v in range(1, 10):
        # v * bits at the crossover and just past it, and c at the floor and just above it
        for bits in (crossover // v, crossover // v + 1, crossover + 300):
            blocks.append((v, _of_bits(rng, bits)))
        # and a lower argument whose upper one, 200 bits shorter, is just above the floor
        blocks += [(v, floor), (v, floor - 1), (v, _of_bits(rng, 1224))]
    blocks.append((40, _of_bits(rng, 300)))  # v * bits past the crossover, but small numbers: the loops
    assert any(v * magnitude.bit_length() == crossover for v, magnitude in blocks)
    assert any(v * magnitude.bit_length() == crossover + 1 for v, magnitude in blocks)
    for v, magnitude in blocks:
        end = v + magnitude
        upper = _of_bits(rng, magnitude.bit_length() - 200) if magnitude.bit_length() > 200 else magnitude
        for start in (end, end - rng.randrange(1, 10**6), 1, v + 1 + upper):
            for with_above in (False, True):
                if with_above and start == 1:
                    continue
                above = None
                if with_above:
                    above = peel_block([0] * (v + 1), v + 1, start - rng.randint(1, 9), start - 1)
                a = [rng.randint(-(10**6), 10**6) for _ in range(v)]
                reference = list(a)
                gmp_calls.clear()
                assert peel_block(a, v, start, end, above) == (v, two_chain_peel(reference, v, start, end))
                assert a == reference, (v, magnitude.bit_length(), start == end, with_above)
                top, bottom = v - start + 1, v - end
                multiplies = v > 1 and not (start == end and with_above) and passes(bottom, v)
                chains = []
                if multiplies:
                    chains.append((-bottom).bit_length())
                    if start != end and not with_above and passes(top, v):
                        chains.append((-top).bit_length())
                assert ("load" in gmp_calls) == multiplies, (v, magnitude.bit_length(), start == end, with_above)
                assert [call for call in gmp_calls if call != "load"] == [(bits, v) for bits in chains]
    # _chain asks GMP by the same rule, and not at the crossover itself
    for v in (2, 4, 5):
        for extra in (0, 1):
            magnitude = _of_bits(rng, crossover // v + extra)
            gmp_calls.clear()
            assert _chain(-magnitude, v) == [binomial_seq_value(k, -magnitude) for k in range(1, v + 1)]
            assert [call for call in gmp_calls if call != "load"] == [(magnitude.bit_length(), v)] * extra, v


@pytest.mark.parametrize("library", ["as it loads", "forced off"])
def test_peel_block_routes_by_size_whether_or_not_the_library_loads(library, monkeypatch):
    # a block of value v >= 2 whose lower chain multiplies out is built whole
    # once v * bits(bottom) passes the crossover, and stays in the loops at
    # the crossover itself, for one part and for many, with or without GMP
    if library == "forced off":
        monkeypatch.setattr(_gmp, "load", lambda: None)
    whole, peel_whole = [], calculus._peel_whole

    def spy(a, v, *args):
        whole.append(v)
        return peel_whole(a, v, *args)

    monkeypatch.setattr(calculus, "_peel_whole", spy)
    rng = random.Random(31)
    for v in (2, 4, 5):
        bits = _gmp.CROSSOVER // v
        assert v * bits == _gmp.CROSSOVER and -_GMP_FLOOR < 1 << (bits - 1)
        for extra in (0, 1):
            end = v + _of_bits(rng, bits + extra)  # bottom = v - end
            for start in (end, end - rng.randrange(1, 10**6)):
                a = [rng.randint(-(10**6), 10**6) for _ in range(v)]
                reference = list(a)
                whole.clear()
                assert peel_block(a, v, start, end) == (v, two_chain_peel(reference, v, start, end))
                assert a == reference, (v, extra, start == end)
                assert whole == [v] * extra, (v, extra, start == end)


@pytest.mark.parametrize("text", [f"x^{n}" for n in range(8, 17)] + [f"9*x^{n}" for n in range(5, 12)])
def test_gmp_route_changes_no_answer(text, monkeypatch):
    # with the loader forced to find nothing, the chains past the crossover
    # are built whole by Python; with the crossover raised past every block,
    # every block takes the loops
    p = parse_polynomial(text)
    outcome = recover_delta(p)
    assert isinstance(outcome, Success)
    built = build_hilbert(outcome.form)
    monkeypatch.setattr(_gmp, "load", lambda: None)
    assert recover_delta(p) == outcome
    assert build_hilbert(outcome.form) == built
    monkeypatch.undo()
    monkeypatch.setattr(_gmp, "CROSSOVER", 1 << 62)
    assert recover_delta(p) == outcome
    assert build_hilbert(outcome.form) == built


M = 10**4000  # 13 288 bits: v * bits(bottom) passes the crossover for every value below


@pytest.mark.parametrize(
    "pairs", [((20, M), (10, 1)), ((20, M), (10, M)), ((40, M), (30, M), (5, 1)), ((60, M), (30, M))]
)
def test_whole_route_takes_gapped_partitions(pairs, monkeypatch):
    # natural answers have no gap between their values, so each of their
    # whole blocks has many parts and a chain from above; these forms send
    # every block, one part or many, to the whole route with no chain from
    # above, in the build and again in the decide.  The answer and the build
    # are the same with the library forced off, which takes the same route,
    # and with the crossover raised past every block, which takes the loops
    form = ExponentForm(pairs)
    whole, peel_whole = [], calculus._peel_whole

    def spy(a, v, top, bottom, below, one_part):
        whole.append((v, one_part, below is None))
        return peel_whole(a, v, top, bottom, below, one_part)

    monkeypatch.setattr(calculus, "_peel_whole", spy)
    expected = [(value, multiplicity == 1, True) for value, multiplicity in pairs] * 2
    built = build_hilbert(form)
    assert recover_delta(built) == Success(form)
    assert whole == expected
    for name, value in (("load", lambda: None), ("CROSSOVER", 1 << 62)):
        whole.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_gmp, name, value)
            assert build_hilbert(form) == built
            assert recover_delta(built) == Success(form)
        assert whole == (expected if name == "load" else []), name

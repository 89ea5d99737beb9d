from __future__ import annotations

import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import hilbert_lambda.cli as cli
from hilbert_lambda.partition import (
    ExponentForm,
    build_hilbert,
    format_exponent_form,
    parse_partition,
    random_partition,
)
from hilbert_lambda.polynomial import format_polynomial, parse_polynomial
from hilbert_lambda.recovery import recover_delta
from support import (
    RECOVER_SCHEMA,
    build_json_reference,
    digit_limit,
    error_json_reference,
    fraction_format,
    needs_digit_limit,
    past_digit_limit,
    random_json_reference,
    recover_json_reference,
    run_cli,
)

validator = Draft202012Validator(RECOVER_SCHEMA)


def test_recover_text_success(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["recover", "3*x + 1"])
    assert code == 0
    assert out == "λ = (2^3,1)\n"
    assert err == ""


def test_recover_text_failure(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["recover", "x^2"])
    assert code == 1
    assert out == "not a Hilbert polynomial: negative leading multiplicity (-2 at degree 1 residual)\n"


def test_polynomial_with_a_leading_minus_goes_after_double_dash(monkeypatch, capsys):
    # argparse reads "-x" as an option; after "--" it is the polynomial
    for argv in (["recover", "--", "-2*x+5"], ["check", "--", "-x"]):
        assert run_cli(monkeypatch, capsys, argv)[0] == 1
    code, out, err = run_cli(monkeypatch, capsys, ["recover", "--", "-x"])
    assert (code, err) == (1, "")
    assert out == "not a Hilbert polynomial: negative leading multiplicity (-1 at degree 1 residual)\n"


def test_recover_parse_error_points_at_column(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["recover", "x +"])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == "error: expected a term at column 3"
    assert lines[1] == "  x +"
    assert lines[2] == "     ^"
    assert lines[2].index("^") - 2 == 3
    # a batch of one decides its argument even when blank; only stdin skips blank lines
    code, out, err = run_cli(monkeypatch, capsys, ["recover", ""])
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: expected a term at column 0", "  ", "  ^"]
    # a zero denominator is a syntax error too, with its caret
    code, out, err = run_cli(monkeypatch, capsys, ["recover", "1/0"])
    assert (code, out, err) == (2, "", "error: denominator is zero at column 2\n  1/0\n    ^\n")


def test_recover_json_success(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["recover", "3*x + 1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    validator.validate(doc)
    assert doc == {
        "input": "3*x + 1",
        "hilbert": True,
        "lambda_flat": [2, 2, 2, 1],
        "lambda_exp": [[2, 3], [1, 1]],
        "reason": None,
    }


def test_recover_json_suppresses_flat_form_for_huge_partitions(monkeypatch, capsys):
    # 9*x^5 decides to a partition with ~5e87 parts; the flat array must be
    # withheld rather than materialized
    code, out, _ = run_cli(monkeypatch, capsys, ["recover", "9*x^5", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    validator.validate(doc)
    assert doc["hilbert"] is True
    assert doc["lambda_flat"] is None
    assert [pair[0] for pair in doc["lambda_exp"]] == [6, 5, 4, 3, 2, 1]
    assert doc["lambda_exp"][0][1] == 1080
    assert any("lambda_flat suppressed" in w for w in doc["warnings"])


def test_recover_text_huge_partition_stays_compact(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["recover", "2*x^3 + 3"])
    assert code == 0
    assert out == "λ = (4^12,3^42,2^1159,1^709559)\n"
    # x^9's multiplicities take their chains' squared steps, and its largest
    # two, of 4 474 and 8 946 bits, print through int_text's decimal route
    code, out, err = run_cli(monkeypatch, capsys, ["recover", "x^9"])
    assert (code, err) == (0, "")
    data = out.encode("utf-8")
    assert len(data) == 5425
    assert hashlib.sha256(data).hexdigest() == "09f9e07a45d92da02158f041b94a82f166314ee6e9e858d8bb9c17f6aef1a2a4"


def test_recover_json_failure(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["recover", "x", "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    validator.validate(doc)
    assert doc["hilbert"] is False
    assert doc["lambda_flat"] == []
    assert doc["reason"] == "negative leading multiplicity (-1 at degree 0 residual)"


def test_recover_json_verbose_includes_trace(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["recover", "3*x + 1", "--format", "json", "--verbose"]
    )
    assert code == 0
    doc = json.loads(out)
    validator.validate(doc)
    steps = [{"m": 1, "r": 3, "s": 1, "e": 3}, {"m": 0, "r": 1, "s": 4, "e": 4}]
    assert doc["trace"] == steps
    # every requested trace is there, empty where the decision returns before a round
    code, out, _ = run_cli(
        monkeypatch, capsys, ["recover", "--verbose", "--format", "json"], stdin_text="x^2\nx/2\n0\n3*x+1\n"
    )
    assert code == 1
    docs = [json.loads(line) for line in out.splitlines()]
    for doc in docs:
        validator.validate(doc)
    assert [doc["trace"] for doc in docs] == [[{"m": 2, "r": 2, "s": 1, "e": 2}], [], [], steps]


def test_recover_text_verbose_trace_on_stderr(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["recover", "3*x + 1", "--verbose"])
    assert code == 0
    assert out == "λ = (2^3,1)\n"
    # each round's Newton residual a_0..a_n after its peel, and nothing else
    assert err == "trace: m=1 r=3 s=1 e=3 residual=(1,0)\ntrace: m=0 r=1 s=4 e=4 residual=(0,0)\n"


def test_recover_ambient_text(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["recover", "1/2*x^2 + 3/2*x + 1", "--ambient", "2"])
    assert code == 0
    assert out == "λ = (3)  [ambient n=2: exceeded]\n"
    code, out, _ = run_cli(monkeypatch, capsys, ["recover", "1/2*x^2 + 3/2*x + 1", "--ambient", "3"])
    assert code == 0
    assert out == "λ = (3)  [ambient n=3: ok]\n"


def test_recover_ambient_json(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys,
        ["recover", "1/2*x^2 + 3/2*x + 1", "--ambient", "3", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    validator.validate(doc)
    assert doc["ambient"] == {"n": 3, "ok": True}


def test_recover_zero_polynomial_warns(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["recover", "0"])
    assert code == 0
    assert out == "λ = ()\n"
    assert "zero polynomial" in err


def test_batch_recover_keeps_input_order(monkeypatch, capsys):
    stdin = "3*x + 1\nx^2\n\nx + 2\n"
    code, out, _ = run_cli(monkeypatch, capsys, ["recover"], stdin_text=stdin)
    assert code == 1
    assert out.splitlines() == [
        "λ = (2^3,1)",
        "not a Hilbert polynomial: negative leading multiplicity (-2 at degree 1 residual)",
        "λ = (2,1)",
    ]


def test_batch_recover_json_order_and_inputs(monkeypatch, capsys):
    lines = ["3*x + 1", "x^2", "x + 2"]
    code, out, _ = run_cli(
        monkeypatch, capsys, ["recover", "--format", "json"], stdin_text="\n".join(lines) + "\n"
    )
    assert code == 1
    docs = [json.loads(line) for line in out.splitlines()]
    assert [doc["input"] for doc in docs] == lines
    for doc in docs:
        validator.validate(doc)


def test_batch_recover_text_prints_warnings_and_verbose_trace(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["recover", "--verbose"], stdin_text="0\n3*x+1\n")
    assert code == 0
    assert out.splitlines() == ["λ = ()", "λ = (2^3,1)"]
    assert err.splitlines() == [
        "warning: zero polynomial: empty partition by convention",
        "trace: m=1 r=3 s=1 e=3 residual=(1,0)",
        "trace: m=0 r=1 s=4 e=4 residual=(0,0)",
    ]


def test_batch_exit_code_aggregates_worst(monkeypatch, capsys):
    code, _, _ = run_cli(monkeypatch, capsys, ["recover"], stdin_text="3*x + 1\nx + 2\n")
    assert code == 0
    code, _, _ = run_cli(monkeypatch, capsys, ["recover"], stdin_text="3*x + 1\nx\n")
    assert code == 1
    code, _, _ = run_cli(monkeypatch, capsys, ["recover"], stdin_text="3*x + 1\nx +\nx\n")
    assert code == 2


def test_batch_parse_error_line_text(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["recover"], stdin_text="x +\n1\n")
    assert code == 2
    assert out.splitlines() == [
        "error: expected a term at column 3",
        "λ = (1)",
    ]


def test_batch_parse_error_line_json(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["recover", "--format", "json"], stdin_text="x +\n"
    )
    assert code == 2
    doc = json.loads(out)
    assert doc == {"input": "x +", "error": "expected a term at column 3"}


@needs_digit_limit
def test_batch_keeps_deciding_after_a_crashing_line(monkeypatch, capsys):
    # a constant past the digit limit fails its line; x^10's answer, past it too, prints
    lines = ["3*x+1", "7" * 5000, "x^10", "x"]
    code, out, _ = run_cli(monkeypatch, capsys, ["recover", "--format", "json"], stdin_text="\n".join(lines) + "\n")
    assert code == 2
    with digit_limit(0):
        docs = [json.loads(line) for line in out.splitlines()]
    assert [doc["input"] for doc in docs] == lines
    assert (docs[0]["hilbert"], docs[2]["hilbert"], docs[3]["hilbert"]) == (True, True, False)
    assert docs[1] == {"input": lines[1], "error": f"{past_digit_limit(5000)} at column 0"}
    assert docs[2]["lambda_exp"] == [list(pair) for pair in recover_delta(parse_polynomial("x^10")).form.pairs]


@needs_digit_limit
def test_single_argument_crash_exits_2_without_traceback(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["check", "7" * 5000])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_check_single_is_quiet(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["check", "1"])
    assert (code, out, err) == (0, "", "")
    code, out, _ = run_cli(monkeypatch, capsys, ["check", "x"])
    assert (code, out) == (1, "")
    code, out, _ = run_cli(monkeypatch, capsys, ["check", "1/2*x"])
    assert (code, out) == (1, "")
    # recover would warn about the zero polynomial; check prints nothing at all
    code, out, err = run_cli(monkeypatch, capsys, ["check", "0"])
    assert (code, out, err) == (0, "", "")


def test_check_parse_error(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["check", "x +"])
    assert code == 2
    assert "expected a term" in err
    assert err == "error: expected a term at column 3\n  x +\n     ^\n"


def test_check_batch_prints_verdicts(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["check"], stdin_text="3*x + 1\nx/2\n")
    assert code == 1
    assert out.splitlines() == ["hilbert", "not-hilbert"]
    # an error line takes its place and the later lines are still decided
    code, out, _ = run_cli(monkeypatch, capsys, ["check"], stdin_text="3*x + 1\nx +\nx/2\n")
    assert code == 2
    assert out.splitlines() == ["hilbert", "error: expected a term at column 3", "not-hilbert"]


def test_check_requests_the_trace_only_where_it_is_printed(monkeypatch, capsys):
    # check prints no trace anywhere, so it never asks for one
    requested = []

    def spy(p, *, want_trace=False):
        requested.append(want_trace)
        return recover_delta(p, want_trace=want_trace)

    monkeypatch.setattr(cli, "recover_delta", spy)
    run_cli(monkeypatch, capsys, ["check", "3*x + 1"])
    run_cli(monkeypatch, capsys, ["check"], stdin_text="3*x + 1\nx\n")
    assert requested == [False] * 3


def test_build_text(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["build", "(2,1)"])
    assert (code, out) == (0, "x + 2\n")
    code, out, _ = run_cli(monkeypatch, capsys, ["build", "(2^3,1)"])
    assert (code, out) == (0, "3*x + 1\n")
    code, out, _ = run_cli(monkeypatch, capsys, ["build", "[2,2,2,1]"])
    assert (code, out) == (0, "3*x + 1\n")


def test_build_json_coefficients_are_strings(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["build", "(3)", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "input": "(3)",
        "lambda_flat": [3],
        "lambda_exp": [[3, 1]],
        "polynomial": "1/2*x^2 + 3/2*x + 1",
        "coeffs": ["1", "3/2", "1/2"],
    }


def test_build_rejects_invalid_partition(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["build", "(1,2)"])
    assert code == 2
    assert out == ""
    assert "non-increasing" in err
    code, _, err = run_cli(monkeypatch, capsys, ["build", "nope"])
    assert code == 2
    assert "error:" in err
    # a partition's syntax error has no caret
    assert err == "error: expected '(...)' or '[...]' partition text\n"


def test_build_reads_runs_without_expanding(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["build", "(1^1000000000000)"])
    assert (code, out) == (0, "1000000000000\n")
    # a multiplicity sizes nothing, so sys.maxsize does not bound it
    code, out, _ = run_cli(monkeypatch, capsys, ["build", "(1^99999999999999999999)"])
    assert (code, out) == (0, "99999999999999999999\n")
    code, out, _ = run_cli(monkeypatch, capsys, ["build", "(3^1000000000000,2,1^5)", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_flat"] is None
    assert doc["lambda_exp"] == [[3, 10**12], [2, 1], [1, 5]]
    assert doc["warnings"] == ["partition has 1000000000006 parts; lambda_flat suppressed, see lambda_exp"]
    # sum over i <= R of C(x + 3 - i, 2) is C(x + 3, 3) - C(x + 3 - R, 3)
    assert doc["polynomial"] == "500000000000*x^2 - 499999999997999999999999*x + 166666666665666666666667500000000006"


# (argv, stdin, exit code, line)
KEY_ORDER_ROWS = [
    (
        ["build", "(3^1000000000000,2,1^5)", "--format", "json"],
        None,
        0,
        '{"input": "(3^1000000000000,2,1^5)", "lambda_flat": null,'
        ' "lambda_exp": [[3, 1000000000000], [2, 1], [1, 5]],'
        ' "polynomial": "500000000000*x^2 - 499999999997999999999999*x + 166666666665666666666667500000000006",'
        ' "coeffs": ["166666666665666666666667500000000006", "-499999999997999999999999", "500000000000"],'
        ' "warnings": ["partition has 1000000000006 parts; lambda_flat suppressed, see lambda_exp"]}',
    ),
    (
        ["random", "2", "1000000000000", "--seed", "1", "--format", "json"],
        None,
        0,
        '{"lambda_flat": null, "lambda_exp": [[2, 275052464042], [1, 1148582861]],'
        ' "polynomial": "275052464042*x - 37826928987374124209958",'
        ' "warnings": ["partition has 276201046903 parts; lambda_flat suppressed, see lambda_exp"]}',
    ),
    (
        ["recover", "0", "--format", "json", "--ambient", "1", "--verbose"],
        None,
        0,
        '{"input": "0", "hilbert": true, "lambda_flat": [], "lambda_exp": [], "reason": null,'
        ' "warnings": ["zero polynomial: empty partition by convention"], "ambient": {"n": 1, "ok": true},'
        ' "trace": []}',
    ),
    (
        # a requested trace is there, empty, when the decision ends before a round
        ["recover", "--verbose", "--format", "json"],
        "x/2\n",
        1,
        '{"input": "x/2", "hilbert": false, "lambda_flat": [], "lambda_exp": [],'
        ' "reason": "sample window contains non-integer values", "trace": []}',
    ),
]


# each id is argv<index>-<line>, as pytest names the rows of argv and line alone
@pytest.mark.parametrize(
    "argv, stdin, code, line", KEY_ORDER_ROWS, ids=[f"argv{i}-{row[3]}" for i, row in enumerate(KEY_ORDER_ROWS)]
)
def test_json_lines_keep_their_key_order(monkeypatch, capsys, argv, stdin, code, line):
    # comparing parsed dicts would not see the order; warnings go to stdout only, in the object
    assert run_cli(monkeypatch, capsys, argv, stdin_text=stdin) == (code, line + "\n", "")


# non-ASCII input, both decided and refused, a zero polynomial's warning, a
# suppressed lambda_flat, x^9's multiplicities past int_text's cutoff, and
# error lines of a syntax error and of a number past the digit limit
EXTRA_LINES = ["３*x + １", "x + ٣", "x^2 + ä", "é", "0", "x/2", "9*x^5", "x^9", "x +", "1/0", "7" * 5000]


@pytest.mark.parametrize("options", [[], ["--verbose"], ["--ambient", "3"], ["--verbose", "--ambient", "5"]])
def test_recover_json_lines_are_what_json_dumps_wrote(monkeypatch, capsys, partitions_923, rejection_200, options):
    texts = [format_polynomial(build_hilbert(lam)) for lam in partitions_923]
    texts += [format_polynomial(p) for p in rejection_200] + EXTRA_LINES
    argv = ["recover", "--format", "json", *options]
    code, out, err = run_cli(monkeypatch, capsys, argv, stdin_text="\n".join(texts) + "\n")
    ambient = int(options[-1]) if "--ambient" in options else None
    expected = []
    for text in texts:
        try:
            outcome = recover_delta(parse_polynomial(text), want_trace="--verbose" in options)
        except Exception as exc:
            expected.append(error_json_reference(text, str(exc)))
        else:
            expected.append(recover_json_reference(text, outcome, ambient))
    assert (code, err) == (2, "")
    assert out.splitlines() == expected


@pytest.mark.parametrize(
    "partition",
    ["()", "(3)", "(2^3,1)", "[6,6,5,4,1,1,1]", f"(1^{100_000})", f"(1^{100_001})", "(3^1000000000000,2,1^5)"],
)
def test_build_json_line_is_what_json_dumps_wrote(monkeypatch, capsys, partition):
    form = parse_partition(partition)
    expected = build_json_reference(partition, form, build_hilbert(form))
    assert run_cli(monkeypatch, capsys, ["build", partition, "--format", "json"]) == (0, expected + "\n", "")


@pytest.mark.parametrize("max_part, max_len", [(6, 6), (2, 2), (1, 1), (2, 10**12), (30, 30)])
def test_random_json_line_is_what_json_dumps_wrote(monkeypatch, capsys, max_part, max_len):
    for seed in range(3):
        form = random_partition(max_part, max_len, random.Random(seed))
        expected = random_json_reference(form, build_hilbert(form))
        argv = ["random", str(max_part), str(max_len), "--seed", str(seed), "--format", "json"]
        assert run_cli(monkeypatch, capsys, argv) == (0, expected + "\n", "")


def test_flat_parts_limit_is_inclusive(monkeypatch, capsys):
    limit = cli.FLAT_PARTS_LIMIT
    code, out, _ = run_cli(monkeypatch, capsys, ["build", f"(1^{limit})", "--format", "json"])
    doc = json.loads(out)
    assert (code, doc["lambda_flat"], doc["lambda_exp"]) == (0, [1] * limit, [[1, limit]])
    assert "warnings" not in doc
    code, out, _ = run_cli(monkeypatch, capsys, ["build", f"(1^{limit + 1})", "--format", "json"])
    doc = json.loads(out)
    assert (code, doc["lambda_flat"], doc["lambda_exp"]) == (0, None, [[1, limit + 1]])
    assert doc["warnings"] == [f"partition has {limit + 1} parts; lambda_flat suppressed, see lambda_exp"]


def test_error_without_text_names_its_type(monkeypatch, capsys):
    def out_of_memory(text):
        raise MemoryError()

    monkeypatch.setattr(cli, "parse_partition", out_of_memory)
    monkeypatch.setattr(cli, "parse_polynomial", out_of_memory)
    code, out, err = run_cli(monkeypatch, capsys, ["build", "(1)"])
    assert (code, out, err) == (2, "", "error: MemoryError\n")
    code, out, err = run_cli(monkeypatch, capsys, ["recover", "1"])
    assert (code, out, err) == (2, "", "error: MemoryError\n")
    code, out, _ = run_cli(monkeypatch, capsys, ["recover"], stdin_text="1\n")
    assert (code, out) == (2, "error: MemoryError\n")
    code, out, _ = run_cli(monkeypatch, capsys, ["recover", "--format", "json"], stdin_text="1\n")
    assert (code, json.loads(out)) == (2, {"input": "1", "error": "MemoryError"})


def test_random_is_seed_deterministic(monkeypatch, capsys):
    code, first, _ = run_cli(monkeypatch, capsys, ["random", "6", "6", "--seed", "5"])
    assert code == 0
    code, second, _ = run_cli(monkeypatch, capsys, ["random", "6", "6", "--seed", "5"])
    assert first == second
    lines = first.splitlines()
    assert lines[0].startswith("λ = (")
    assert lines[1].startswith("p = ")


def test_random_single_candidate(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["random", "1", "1", "--seed", "1"])
    assert code == 0
    assert out == "λ = (1)\np = 1\n"


def test_random_json(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["random", "2", "2", "--seed", "7", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"lambda_flat", "lambda_exp", "polynomial"}
    assert doc["lambda_flat"]


def test_random_keeps_its_seeded_draws(monkeypatch, capsys):
    # pinned from the flat sampler that the run-length unranking replaced
    code, out, err = run_cli(monkeypatch, capsys, ["random", "6", "6", "--seed", "5"])
    assert (code, err) == (0, "")
    assert out == "λ = (6,5,4,3,1^2)\np = 1/120*x^5 + 1/6*x^4 + 9/8*x^3 + 17/6*x^2 + 13/15*x + 4\n"
    code, out, err = run_cli(monkeypatch, capsys, ["random", "2", "2", "--seed", "7", "--format", "json"])
    assert (code, err) == (0, "")
    assert out == '{"lambda_flat": [2, 2], "lambda_exp": [[2, 2]], "polynomial": "2*x + 1"}\n'


def test_random_draws_runs_without_expanding(monkeypatch, capsys):
    argv = ["random", "2", "1000000000000", "--seed", "1", "--format", "json"]
    code, out, _ = run_cli(monkeypatch, capsys, argv)
    assert code == 0
    doc = json.loads(out)
    form = ExponentForm(tuple(map(tuple, doc["lambda_exp"])))
    assert doc["lambda_flat"] is None
    parts = sum(mult for _, mult in form.pairs)
    assert 100_000 < parts <= 10**12
    assert doc["warnings"] == [f"partition has {parts} parts; lambda_flat suppressed, see lambda_exp"]
    assert doc["polynomial"] == format_polynomial(build_hilbert(form))


def test_random_max_len_past_sys_maxsize(monkeypatch, capsys):
    # lengths are bisected without range(), whose size stops at sys.maxsize
    code, out, err = run_cli(monkeypatch, capsys, ["random", "2", str(2**63), "--seed", "1"])
    assert (code, err) == (0, "")
    lam_line, p_line = out.splitlines()
    assert lam_line.startswith("λ = (2^") and p_line.startswith("p = ")


def test_seed_zero_is_a_seed(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["random", "6", "6", "--seed", "0"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"λ = {format_exponent_form(random_partition(6, 6, random.Random(0)))}"


@pytest.mark.parametrize("seed", ["1_0", "+3", "-1", "abc", "", "1.0"])
def test_seed_takes_decimal_digits_only(monkeypatch, capsys, seed):
    code, out, err = run_cli(monkeypatch, capsys, ["random", "2", "2", "--seed", seed])
    assert (code, out) == (2, "")
    assert "--seed: must be a non-negative integer" in err


@needs_digit_limit
@pytest.mark.parametrize(
    "argv, where",
    [
        (["random", "2", "2", "--seed", "1" * 5000], "argument --seed: "),
        (["random", "2", "1" * 5000], "argument max_len: "),
        (["build", f"(1^{'1' * 5000})"], "error: "),
        (["recover", f"x^{'1' * 5000}"], "error: "),
    ],
)
def test_numbers_past_the_digit_limit_say_so(monkeypatch, capsys, argv, where):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(monkeypatch, capsys, argv)
    assert (code, out) == (2, "")
    assert where + past_digit_limit(5000) in err
    assert "set_int_max_str_digits" not in err
    assert sys.get_int_max_str_digits() == limit
    if argv[0] == "recover":  # polynomial text gets its column and caret
        assert err.splitlines()[0].endswith("at column 2")
        assert err.splitlines()[2] == "    ^"


def test_rejection_past_the_digit_limit_prints(monkeypatch, capsys):
    # the leading multiplicity is 20! times the coefficient: 4 318 digits
    coefficient = 10**4299 - 1
    with digit_limit(0):
        text, value = f"-{coefficient}*x^20", str(-math.factorial(20) * coefficient)
    code, out, err = run_cli(monkeypatch, capsys, ["recover"], stdin_text=text + "\n")
    reason = f"negative leading multiplicity ({value} at degree 20 residual)"
    assert (code, out, err) == (1, f"not a Hilbert polynomial: {reason}\n", "")


def _reference_output(argv: list[str]) -> tuple[str, str]:
    """(stdout, stderr) of ``recover`` or ``build`` on one argument, written
    with ``str`` and ``json.dumps``; only under a raised digit limit for an
    answer past it."""
    if argv[0] == "build":
        form = parse_partition(argv[1])
        p = build_hilbert(form)
        return (build_json_reference(argv[1], form, p) if "json" in argv else fraction_format(p)) + "\n", ""
    outcome = recover_delta(parse_polynomial(argv[1]), want_trace="--verbose" in argv)
    if "json" in argv:
        return recover_json_reference(argv[1], outcome) + "\n", ""
    runs = ",".join(f"{value}^{mult}" if mult > 1 else str(value) for value, mult in outcome.form.pairs)
    trace = "".join(
        f"trace: m={step.m} r={step.r} s={step.s} e={step.e} residual=({','.join(map(str, step.residual))})\n"
        for step in outcome.trace or ()
    )
    return f"λ = ({runs})\n", trace


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", "x^10"],
        ["recover", "x^10", "--verbose"],
        ["recover", "x^10", "--format", "json"],
        ["build", f"(3^{'9' * 2200})"],
        ["build", f"(3^{'9' * 2200})", "--format", "json"],
    ],
)
def test_answers_past_the_digit_limit_say_so(monkeypatch, capsys, argv):
    # x^10's multiplicities and the cube of a 2200-digit multiplicity are past
    # the default digit limit, and print whole under it
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run_cli(monkeypatch, capsys, argv)
    with digit_limit(0):
        assert (code, out, err) == (0, *_reference_output(argv))
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    assert len(out) > 4300


@pytest.mark.parametrize("argv", [["recover", "x^10"], ["recover", "x^10", "--format", "json"]])
def test_answers_print_whatever_the_digit_limit(argv):
    # the least limit CPython allows, the default and none: the same bytes
    src = Path(cli.__file__).resolve().parents[1]
    runs = []
    for limit in (None, "640", "0"):
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        proc = subprocess.run([sys.executable, "-m", "hilbert_lambda", *argv], env=env, capture_output=True)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    with digit_limit(0):
        out, err = _reference_output(argv)
    assert runs == [(0, out.encode(), err.encode())] * 3


def test_astronomical_answer_validates(monkeypatch, capsys):
    # x^14's largest multiplicity has 174 316 digits
    code, out, err = run_cli(monkeypatch, capsys, ["recover", "--format", "json", "x^14"])
    assert (code, err) == (0, "")
    with digit_limit(0):
        doc = json.loads(out)
        validator.validate(doc)
    assert doc["lambda_exp"] == [list(pair) for pair in recover_delta(parse_polynomial("x^14")).form.pairs]
    assert doc["lambda_flat"] is None and max(mult for _, mult in doc["lambda_exp"]).bit_length() == 579_065


@pytest.mark.parametrize(
    "argv, error",
    [
        (["recover", "x^99999999999999999999"], "exponent is too large"),
        (["recover", f"3*x^{sys.maxsize} + 1"], "exponent is too large"),
        (["build", "(99999999999999999999)"], "part 99999999999999999999 is too large"),
        (["build", f"[{sys.maxsize},1]"], f"part {sys.maxsize} is too large"),
        (["random", "99999999999999999999", "1", "--seed", "1"], "max_part 99999999999999999999 is too large"),
    ],
)
def test_powers_and_parts_from_sys_maxsize_on_say_so(monkeypatch, capsys, argv, error):
    # a list sized by such a number cannot be made, and random would take a step per value to it
    code, out, err = run_cli(monkeypatch, capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {error} (must be below {sys.maxsize})")
    assert "index-sized" not in err
    if argv[0] == "recover":  # polynomial text gets the exponent's column and caret
        column = argv[1].index("^") + 1
        assert err.splitlines()[0].endswith(f") at column {column}")
        assert err.splitlines()[2] == "  " + " " * column + "^"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["recover", "1", "--ambient", "0"],
        ["build"],
        ["build", "(2,1)", "--seed", "3"],
        ["random", "2", "2", "--engine", "naive"],
        ["bench", "1"],
        ["recover", "1", "--engine", "naive"],
        ["check", "1", "--r-max", "4"],
        ["check", "1", "--engine", "delta"],
        ["check", "1", "--verbose"],
        ["check", "1", "--ambient", "1"],
        ["check", "1", "--format", "json"],
        ["random", "abc", "2"],
        ["random", "1_0", "2"],
        ["recover", "1", "--ambient", "+3"],
    ],
)
def test_usage_errors_exit_2(monkeypatch, capsys, argv):
    code, _, err = run_cli(monkeypatch, capsys, argv)
    assert code == 2
    assert "_positive_int" not in err


def test_cli_round_trip_through_text(monkeypatch, capsys, partitions_251):
    # build then recover must reproduce the canonical partition text
    for lam in partitions_251:
        poly_text = format_polynomial(build_hilbert(lam))
        code, out, _ = run_cli(monkeypatch, capsys, ["recover", poly_text])
        assert code == 0
        assert out == f"λ = {lam}\n"


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hilbert_lambda", "recover", "3*x + 1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "λ = (2^3,1)\n"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each costs a cold start milliseconds of imports, and the package needs neither
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, hilbert_lambda.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"


def test_package_import_loads_no_ctypes():
    # ctypes costs a cold start about 2 ms; only a product past the GMP
    # crossover imports it, with the library
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, hilbert_lambda, hilbert_lambda.cli; print('ctypes' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "False\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_entry_point_ends_quietly_when_its_reader_goes(tmp_path):
    # 3000 JSON lines overflow the pipe buffer, so the writer is still
    # writing when the reader closes the pipe
    batch = tmp_path / "batch.txt"
    batch.write_text("3*x + 1\n" * 3000)
    command = [sys.executable, "-m", "hilbert_lambda", "recover", "--format", "json"]
    with batch.open() as stdin, subprocess.Popen(
        command, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    assert json.loads(first)["lambda_exp"] == [[2, 3], [1, 1]]
    assert (proc.returncode, err) == (-signal.SIGPIPE, b"")

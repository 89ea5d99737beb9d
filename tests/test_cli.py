from __future__ import annotations

import json
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator

from hilbert_lambda.partition import build_hilbert, format_partition
from hilbert_lambda.polynomial import format_polynomial
from support import RECOVER_SCHEMA, run_cli

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


def test_recover_parse_error_points_at_column(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["recover", "x +"])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == "error: expected a term at column 3"
    assert lines[1] == "  x +"
    assert lines[2] == "     ^"
    assert lines[2].index("^") - 2 == 3


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
    assert doc["trace"] == [
        {"m": 1, "r": 3, "s": 1, "e": 3},
        {"m": 0, "r": 1, "s": 4, "e": 4},
    ]


def test_recover_text_verbose_trace_on_stderr(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["recover", "3*x + 1", "--verbose"])
    assert code == 0
    assert out == "λ = (2^3,1)\n"
    assert "trace: m=1 r=3 s=1 e=3 residual=(1,1)" in err


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


def test_recover_engine_naive(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["recover", "x^2", "--engine", "naive", "--r-max", "4"]
    )
    assert code == 1
    assert out == "not a Hilbert polynomial: search exhausted with no match up to size 4\n"
    code, out, _ = run_cli(monkeypatch, capsys, ["recover", "3*x + 1", "--engine", "naive"])
    assert code == 0
    assert out == "λ = (2^3,1)\n"


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


# answers and literals over 4 300 digits raise under CPython's int-to-str limit
needs_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="no int-to-str digit limit in this interpreter",
)


@needs_digit_limit
def test_batch_keeps_deciding_after_a_crashing_line(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["recover", "--format", "json"], stdin_text="3*x+1\nx^10\nx\n"
    )
    assert code == 2
    docs = [json.loads(line) for line in out.splitlines()]
    assert [doc["input"] for doc in docs] == ["3*x+1", "x^10", "x"]
    assert (docs[0]["hilbert"], docs[2]["hilbert"]) == (True, False)
    assert set(docs[1]) == {"input", "error"}


@needs_digit_limit
def test_single_argument_crash_exits_2_without_traceback(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["recover", "x^10"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    code, _, err = run_cli(monkeypatch, capsys, ["check", "7" * 5000])
    assert code == 2
    assert err.startswith("error: ")


def test_check_single_is_quiet(monkeypatch, capsys):
    code, out, err = run_cli(monkeypatch, capsys, ["check", "1"])
    assert (code, out, err) == (0, "", "")
    code, out, _ = run_cli(monkeypatch, capsys, ["check", "x"])
    assert (code, out) == (1, "")
    code, out, _ = run_cli(monkeypatch, capsys, ["check", "1/2*x"])
    assert (code, out) == (1, "")


def test_check_parse_error(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["check", "x +"])
    assert code == 2
    assert "expected a term" in err


def test_check_batch_prints_verdicts(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["check"], stdin_text="3*x + 1\nx/2\n")
    assert code == 1
    assert out.splitlines() == ["hilbert", "not-hilbert"]


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


def test_bench_reports_timings_and_agreement(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["bench", "1", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "λ = (2,1)"
    assert lines[1] == "p = x + 2"
    assert lines[2].startswith("delta: mean ")
    assert lines[3].startswith("naive: mean ")
    assert lines[4].startswith("ratio naive/delta = ")


def test_bench_json(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["bench", "2", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_flat"] == [3, 2, 1]
    assert doc["reps"] == 1
    assert doc["delta_mean_s"] > 0
    assert doc["naive_mean_s"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["recover", "1", "--engine", "bogus"],
        ["recover", "1", "--r-max", "0"],
        ["recover", "1", "--ambient", "0"],
        ["bench", "0"],
        ["build"],
    ],
)
def test_usage_errors_exit_2(monkeypatch, capsys, argv):
    code, _, _ = run_cli(monkeypatch, capsys, argv)
    assert code == 2


def test_cli_round_trip_through_text(monkeypatch, capsys, partitions_251):
    # build then recover must reproduce the canonical partition text
    for lam in partitions_251:
        poly_text = format_polynomial(build_hilbert(lam))
        code, out, _ = run_cli(monkeypatch, capsys, ["recover", poly_text])
        assert code == 0
        assert out == f"λ = {format_partition(lam)}\n"


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hilbert_lambda", "recover", "3*x + 1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "λ = (2^3,1)\n"

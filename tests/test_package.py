from __future__ import annotations

import ast
import importlib
import pydoc
import sys
from pathlib import Path

import pytest

import hilbert_lambda

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ("calculus", "partition", "polynomial", "recovery")

PUBLIC = {
    "DenominatorZeroError",
    "ExponentForm",
    "LengthTooShortError",
    "NegativeLeadingMultiplicity",
    "NonIntegerValued",
    "NonPositivePartError",
    "NotHilbert",
    "NotNonIncreasingError",
    "Outcome",
    "Partition",
    "PartitionSyntaxError",
    "Polynomial",
    "PolynomialSyntaxError",
    "Reason",
    "SearchExhausted",
    "Sequence",
    "Success",
    "TraceStep",
    "binomial_seq_value",
    "build_hilbert",
    "count_non_incr_seqs",
    "delta",
    "format_exponent_form",
    "format_polynomial",
    "from_exponent_form",
    "hilbert_value_at",
    "is_integer_sequence",
    "non_incr_seqs",
    "parse_partition",
    "parse_polynomial",
    "random_partition",
    "recover_delta",
    "recover_naive",
    "reduce",
    "sample_points",
    "subtract_block",
    "to_exponent_form",
}


def _defined(module) -> set[str]:
    """The names the module's own top-level statements define: a def, a class or an assignment."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def test_package_lists_each_public_name_once():
    assert len(hilbert_lambda.__all__) == len(PUBLIC) == 37
    assert set(hilbert_lambda.__all__) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from hilbert_lambda import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_module_lists_only_what_it_defines(name):
    module = importlib.import_module(f"hilbert_lambda.{name}")
    assert module.__all__ and set(module.__all__) <= _defined(module)
    for public in module.__all__:
        assert getattr(hilbert_lambda, public) is getattr(module, public)


def test_pydoc_documents_the_engines():
    text = pydoc.render_doc(hilbert_lambda, renderer=pydoc.plaintext)
    assert "recover_delta(" in text
    assert "build_hilbert(" in text


def test_readme_library_example_prints_its_comments(capsys):
    # each print line's "# ..." comment is what it prints; a trailing "(...)" stands for any text
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 4
    for line, comment in zip(printed, comments):
        assert line.startswith(comment[:-5]) if comment.endswith("(...)") else line == comment, (line, comment)


def test_no_module_sets_the_digit_limit():
    # the int-to-str digit limit is the caller's setting: the package writes
    # past it through int_text and reports int()'s own refusal of digits
    sources = sorted(Path(hilbert_lambda.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    for source in sources:
        assert "set_int_max_str_digits" not in source.read_text(encoding="utf-8"), source.name
    # and only polynomial.read_int reads it, to name it when int() refuses digits
    reads = {source.name: source.read_text(encoding="utf-8").count("get_int_max_str_digits") for source in sources}
    assert {name: count for name, count in reads.items() if count} == {"polynomial.py": 1}


def test_benchmark_tracer_wraps_and_restores_package_names(monkeypatch):
    # perfbench/worker.py wraps module attributes by name, so a name it wraps
    # must stay in the package; its modules are imported for this test only
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("worker", "calibrate"):
        monkeypatch.setitem(sys.modules, name, None)  # records the name as absent, for teardown
        del sys.modules[name]
    tracer = importlib.import_module("worker").Tracer()
    try:
        tracer.install()
        wrapped = list(tracer.saved)
        assert wrapped and all(getattr(module, attr) is not original for module, attr, original in wrapped)
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is original for module, attr, original in wrapped)

from __future__ import annotations

import ast
import importlib
import pydoc
from pathlib import Path

import pytest

import hilbert_lambda

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
    "format_partition",
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
    assert len(hilbert_lambda.__all__) == len(PUBLIC) == 38
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

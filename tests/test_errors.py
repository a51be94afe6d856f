"""Every failure the package raises is a named `CackitError` subclass.

A source scan pins the rule for every `raise` in `src/cackit`, and one test
per former raw `ValueError` site pins the class that site raises now.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from cackit import errors
from cackit.cac_engine import cac_model_from_json
from cackit.classifiers import ClassifierSpec, logloss_bounds
from cackit.errors import CackitError, DimensionMismatch, InvalidSpec, SchemaMismatch
from cackit.neural import deepcac_model_from_json, forward_backward, init_head, init_params

ROOT = Path(__file__).resolve().parents[1]
# the only raises outside cackit.errors: lloyd's internal SSE invariant and
# argparse's own error type for --jobs, which argparse turns into exit 2
OUTSIDE_ERRORS = {
    ("cluster_core.py", "lloyd", "AssertionError"),
    ("cli.py", "_jobs", "argparse.ArgumentTypeError"),
}
ERROR_CLASSES = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, CackitError) and cls is not CackitError}


def _raises(path: Path) -> list[tuple[str, str]]:
    """(enclosing function, raised class name) for every `raise X` in a file."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.append((func, ast.unparse(exc)))
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


SOURCES = sorted((ROOT / "src" / "cackit").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_raise_names_an_error_class(path):
    for func, name in _raises(path):
        assert name in ERROR_CLASSES or (path.name, func, name) in OUTSIDE_ERRORS, \
            f"{path.name}:{func} raises {name}, which is not a cackit.errors class"


def test_every_error_class_is_raised():
    raised = {name for path in SOURCES + [ROOT / "tests" / "oracles.py"]
              for _, name in _raises(path)}
    assert ERROR_CLASSES - raised == set()


@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "svm"}, "unknown classifier kind 'svm'"),
    ({"learning_rate": float("nan")}, "learning_rate must be a finite number"),
    ({"epochs": 2.5}, "epochs must be an integer"),
    ({"epochs": 0}, "learning_rate, epochs and k_neighbors must be positive"),
    ({"l2_penalty": -1.0}, "penalties must be non-negative"),
])
def test_classifier_spec_raises_invalid_spec(kwargs, message):
    with pytest.raises(InvalidSpec, match=message):
        ClassifierSpec(**kwargs)


def test_delta_that_zeroes_a_cluster_weight_is_invalid_spec():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(4, 3)), np.array([0, 1, 0, 1])
    assign = np.array([0, 1, 1, 1])  # cluster 0 has one member: n_j - 1 + 0 == 0
    with pytest.raises(InvalidSpec, match="n_j - 1 \\+ delta must stay positive"):
        forward_backward(init_params(3, 4, 2), init_head(2, 2), x, y, assign,
                         np.zeros((2, 2)), 1.0, 1.0, 0.0)


def test_logloss_bounds_beta_width_is_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match=r"beta shape \(3,\) does not match 2 columns"):
        logloss_bounds(np.zeros((2, 2)), np.array([0, 1]), np.zeros(3))


@pytest.mark.parametrize("load, payload, message", [
    (cac_model_from_json, '{"schema": 2, "kind": "cac"}', "cac/2"),
    (cac_model_from_json, '{"schema": 1, "kind": "deepcac"}', "deepcac/1"),
    (deepcac_model_from_json, '{"schema": 1, "kind": "cac"}', "cac/1"),
    (deepcac_model_from_json, "{}", "None/None"),
])
def test_unknown_model_payload_is_schema_mismatch(load, payload, message):
    with pytest.raises(SchemaMismatch, match=f"unsupported model payload: {message}$"):
        load(payload)


@pytest.mark.parametrize("load, payload, message", [
    (cac_model_from_json, '{"schema": 1, "kind": "cac"}', "cac model payload has no field 'centroids'"),
    (cac_model_from_json, '{"schema": 1, "kind": "cac", "centroids": [[0.0]], "classifiers": 5}',
     "cac model payload is malformed: 'int' object is not iterable"),
    (deepcac_model_from_json, '{"schema": 1, "kind": "deepcac"}', "deepcac model payload has no field 'encoder'"),
    (cac_model_from_json, "[1]", "model payload is a JSON list, not an object"),
    (deepcac_model_from_json, "[1]", "model payload is a JSON list, not an object"),
    (cac_model_from_json, "not json", "model payload is not JSON: Expecting value"),
    (deepcac_model_from_json, "not json", "model payload is not JSON: Expecting value"),
])
def test_malformed_model_payload_is_schema_mismatch(load, payload, message):
    with pytest.raises(SchemaMismatch, match=f"^{message}"):
        load(payload)

"""Every error the package raises belongs to one family under SparsedomError."""

import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

import sparsedom
from sparsedom import GridFunction, GridSpec, errors, maximal

SRC = Path(sparsedom.__file__).resolve().parent

# the default= hook of json.dump must raise TypeError for an unknown object
EXEMPT = {("harness.py", "_json_default", "TypeError")}


def _raises(tree):
    """(enclosing function, raised name) for each raise of a new exception."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                name = exc.attr if isinstance(exc, ast.Attribute) else \
                    getattr(exc, "id", ast.dump(exc))
                found.append((func, name, child.lineno))
            visit(child, func)

    visit(tree, None)
    return found


def test_every_raise_is_a_sparsedom_error():
    """Parse every module and resolve each raised class: outside the one
    exemption, each is a SparsedomError, so the CLI exits 2 on it."""
    strays = []
    for path in sorted(SRC.glob("*.py")):
        for func, name, line in _raises(ast.parse(path.read_text())):
            cls = getattr(errors, name, None) or getattr(builtins, name, None)
            family = isinstance(cls, type) and \
                issubclass(cls, errors.SparsedomError)
            if not family and (path.name, func, name) not in EXEMPT:
                strays.append(f"{path.name}:{line} {name}")
    assert not strays


def test_package_exports_the_seven_error_classes():
    exported = {name for name in dir(sparsedom)
                if isinstance(getattr(sparsedom, name), type)
                and issubclass(getattr(sparsedom, name), Exception)}
    assert exported == {"SparsedomError", "ConfigError", "DomainError",
                        "NonpositiveValueError", "ZeroInputError",
                        "InfeasibleCollectionError",
                        "CalibrationFailureError"}


def _inputs():
    spec = GridSpec(1, 3, periodic=True)
    return [GridFunction(spec, np.linspace(0.5, 2.0, spec.ncells))
            for _ in range(2)]


@pytest.mark.parametrize("call", [
    pytest.param(lambda: GridSpec(1, 0), id="grid-levels"),
    pytest.param(lambda: sparsedom.build_sparse_collection(
        _inputs(), (1.0, 1.0), (2.0, 2.0), variant=3), id="variant"),
    pytest.param(lambda: sparsedom.sup_sparse_form(
        _inputs(), (1.0, 1.0), mode="x"), id="mode"),
])
def test_former_value_errors_are_domain_errors(call):
    """Sites that raised a bare ValueError raise DomainError, which is
    still a ValueError for callers that catch that."""
    with pytest.raises(sparsedom.DomainError) as err:
        call()
    assert isinstance(err.value, ValueError)


def test_negative_exponent_average_of_zero_is_nonpositive():
    """cube_averages raises what power_mean raises for the same condition."""
    spec = GridSpec(1, 3)
    for p in (-0.5, -2.0):
        with pytest.raises(sparsedom.NonpositiveValueError):
            maximal.cube_averages(spec, np.zeros(spec.ncells), p)

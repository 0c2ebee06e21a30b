"""The benchmark in perfbench/ drives the library by name; guard those names.

perfbench/spans.py wraps the functions it lists in ``TRACED`` and evaluates
its ``FLOPS`` models on their bound arguments and results.  perfbench/run.py
reads attributes of the akgrowth modules it imports, calls
``build_closed_loop`` and ``compute_projection_data`` positionally, passes
``RunConfig.tolerances()`` to four functions that ignore it, and checks
``projection_via_contour`` against ``projection_matrix``.  A change to
``src/`` that breaks any of these breaks the benchmark without failing any
other test.  The benchmark files are only read here.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import akgrowth as ak
from akgrowth.config import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DEMO = PERFBENCH.parent / "demos" / "config_homogeneous.cfg"


def _traced() -> dict:
    """The literal ``TRACED`` table of perfbench/spans.py, read without running it."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED table")


TRACED = [(module, name) for module, names in _traced().items() for name in names]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    target = getattr(importlib.import_module(f"akgrowth.{module}"), name, None)
    assert callable(target), f"perfbench traces akgrowth.{module}.{name}, which is gone"


def _own_nodes(scope: ast.AST):
    """The nodes of a module or function, not descending into nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _module_attributes() -> list[tuple[str, str]]:
    """(module, attribute) of every ``module.attribute`` a perfbench script
    reads, within the module or function that imports that akgrowth module."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for scope in [tree, *functions]:
            modules = {
                alias.asname or alias.name: alias.name
                for node in _own_nodes(scope)
                if isinstance(node, ast.ImportFrom) and node.module == "akgrowth"
                for alias in node.names
            }
            found |= {
                (modules[node.value.id], node.attr)
                for node in ast.walk(scope)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
            }
    return sorted(found)


MODULE_ATTRIBUTES = _module_attributes()


def test_the_run_script_reads_the_contour_oracle():
    # the scan sees run.py's imports inside its functions
    assert {("closed_loop", "projection_via_contour"),
            ("closed_loop", "projection_matrix")} <= set(MODULE_ATTRIBUTES)


@pytest.mark.parametrize("module, name", MODULE_ATTRIBUTES,
                         ids=[f"{m}.{n}" for m, n in MODULE_ATTRIBUTES])
def test_module_attribute_resolves(module, name):
    assert hasattr(importlib.import_module(f"akgrowth.{module}"), name), (
        f"perfbench reads akgrowth.{module}.{name}, which is gone")


@pytest.fixture()
def run_tolerances():
    """What run.py's contour oracle passes as ``tol``: ``RunConfig.tolerances()``,
    which no threshold reads any more but which the run script still calls."""
    source = (PERFBENCH / "run.py").read_text()
    assert "tol = run.tolerances()" in source
    assert "spectral.eigendecompose(spectral.assemble_generator(params, grid, tol), tol)" in source
    return load_config(DEMO).tolerances()


def test_replace_rebuilds_the_model_of_the_run_script():
    # contour_oracle runs replace(load_config(path), n_points=512).model():
    # the replaced config builds its own model at 512 points, not a copy
    source = (PERFBENCH / "run.py").read_text()
    assert "dataclasses.replace(config.load_config(inp.config), n_points=512)" in source
    assert "grid, params, _ = run.model()" in source
    run = dataclasses.replace(load_config(DEMO), n_points=512)
    grid, params, K0 = run.model()
    assert grid.n_points == 512
    assert params.A.grid == params.eta.grid == K0.grid == grid


def test_contour_oracle_calls_of_the_run_script(window, run_tolerances):
    source = (PERFBENCH / "run.py").read_text()
    assert "closed_loop.projection_via_contour(clo, tolerances=tol)" in source
    assert "closed_loop.projection_matrix(pd)" in source
    contour = ak.closed_loop.projection_via_contour(window.clo, tolerances=run_tolerances)
    assert contour.n_quad > 0
    error = np.abs(contour.matrix - ak.closed_loop.projection_matrix(window.pd)).max()
    assert error < 1e-6  # run.py's ORACLE_ENTRY_TOL


def test_positional_calls_of_the_run_script(window, run_tolerances):
    source = (PERFBENCH / "run.py").read_text()
    assert "closed_loop.build_closed_loop(basis, sol)" in source
    assert "closed_loop.compute_projection_data(basis, sol, tol)" in source
    for function, arity in ((ak.closed_loop.build_closed_loop, 2),
                            (ak.closed_loop.compute_projection_data, 3)):
        inspect.signature(function).bind(*range(arity))
    op = ak.spectral.assemble_generator(window.params, window.grid, run_tolerances)
    np.testing.assert_array_equal(op.entries, window.op.entries)
    basis = ak.spectral.eigendecompose(op, run_tolerances)
    np.testing.assert_array_equal(basis.eigenvalues, window.basis.eigenvalues)
    clo = ak.closed_loop.build_closed_loop(window.basis, window.sol)
    pd = ak.closed_loop.compute_projection_data(window.basis, window.sol, run_tolerances)
    assert clo.grid == window.grid
    assert pd.basis is window.basis


def _load_spans():
    """perfbench/spans.py as a module; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("_perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules; no bytecode is written
    sys.modules[spec.name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


FLOPS = _load_spans().FLOPS

# FLOPS model -> the call the program makes, on the ``window`` fixture
FLOP_CALLS = {
    "spectral.eigendecompose": lambda w: (w.op, load_config(DEMO).tolerances()),
    "closed_loop.build_closed_loop": lambda w: (w.basis, w.sol),
    "closed_loop.simulate": lambda w: (w.clo, w.K0, 10.0, 200),
    "closed_loop.projection_via_contour": lambda w: (w.clo,),
}


def test_every_flop_model_has_a_call():
    assert set(FLOPS) == set(FLOP_CALLS)


@pytest.mark.parametrize("name", FLOP_CALLS)
def test_flop_model_reads_real_arguments(window, name):
    module, function = name.split(".")
    fn = getattr(importlib.import_module(f"akgrowth.{module}"), function)
    args = FLOP_CALLS[name](window)
    # bound the way the tracer binds them: by name, defaults left out
    arguments = inspect.signature(fn).bind(*args).arguments
    flops = FLOPS[name](arguments, fn(*args))
    assert math.isfinite(flops) and flops > 0

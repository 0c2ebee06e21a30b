"""The benchmark in perfbench/ drives the library by name; guard those names.

perfbench/spans.py wraps the functions it lists in ``TRACED``, and
perfbench/run.py calls ``build_closed_loop`` and ``compute_projection_data``
positionally.  A change to ``src/`` that breaks either breaks the benchmark
without failing any other test.  The benchmark files are only read here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import akgrowth as ak

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_positional_calls_of_the_run_script(window):
    source = (PERFBENCH / "run.py").read_text()
    assert "closed_loop.build_closed_loop(basis, sol)" in source
    assert "closed_loop.compute_projection_data(basis, sol, tol)" in source
    for function, arity in ((ak.closed_loop.build_closed_loop, 2),
                            (ak.closed_loop.compute_projection_data, 3)):
        inspect.signature(function).bind(*range(arity))
    clo = ak.closed_loop.build_closed_loop(window.basis, window.sol)
    pd = ak.closed_loop.compute_projection_data(window.basis, window.sol, ak.DEFAULT_TOLERANCES)
    assert clo.grid == window.grid
    assert pd.basis is window.basis

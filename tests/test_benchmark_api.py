"""The benchmark in perfbench/ drives the library by name; guard those names.

perfbench/spans.py wraps the functions it lists in ``TRACED`` and evaluates
its ``FLOPS`` models on their bound arguments and results, and
perfbench/run.py calls ``build_closed_loop`` and ``compute_projection_data``
positionally.  A change to ``src/`` that breaks any of these breaks the
benchmark without failing any other test.  The benchmark files are only read
here.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import sys
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
    "spectral.eigendecompose": lambda w: (w.op, ak.DEFAULT_TOLERANCES),
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

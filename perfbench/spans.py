"""Spans around the public functions of ``akgrowth``, recorded from outside.

The tracer replaces module attributes: every ``akgrowth`` module that bound
a traced function (``hjb.utility`` is also ``verify.utility``) gets a wrapper
that records ``(name, start, end, parent, op, thread)``.  The parent stack is
kept per thread; a span opened on a thread with an empty stack (a worker of
the sweep's own thread pool) takes as parent the innermost open span of the
thread that runs the operation.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# module -> public functions wrapped in a span
TRACED = {
    "cli": ["main", "cmd_solve", "cmd_simulate", "cmd_verify", "cmd_sweep",
            "cmd_perron_audit"],
    "config": ["load_config"],
    "spectral": ["assemble_generator", "eigendecompose"],
    "hjb": ["solve_hjb", "utility", "optimal_control_path", "value_function"],
    "closed_loop": ["build_closed_loop", "compute_projection_data", "simulate",
                    "projection_via_contour"],
    "stability": ["convergence_bound_check"],
    "verify": ["optimality_audit", "payoff", "open_loop_trajectory",
               "hjb_residual", "transversality_check"],
    "serialize": ["write_json", "write_basis_csv", "write_trajectory_csv",
                  "write_deviation_csv"],
    "perron": ["random_irreducible_metzler", "is_irreducible", "perron_data",
               "eigenvalues_admitting_positive_eigenvector"],
}

# Padé order m -> (1-norm threshold theta_m, matrix products pi_m) of the
# scaling-and-squaring exponential (Higham 2005, Table 2.3 and eq. 2.3)
_PADE = [(3, 1.495585217958292e-2, 2), (5, 2.539398330063230e-1, 3),
         (7, 9.504178996162932e-1, 4), (9, 2.097847961257068, 5),
         (13, 5.371920351148152, 6)]


def expm_flops(norm1: float, n: int) -> float:
    """Standard dense count of one scaling-and-squaring exponential."""
    for _, theta, products in _PADE[:-1]:
        if norm1 <= theta:
            squarings = 0
            break
    else:
        _, theta, products = _PADE[-1]
        squarings = max(0, math.ceil(math.log2(norm1 / theta)))
    # products and squarings are n x n matmuls; one LU solve with n right sides
    return (products + squarings) * 2.0 * n**3 + (8.0 / 3.0) * n**3


def _flops_eigendecompose(arguments, result) -> float:
    n = arguments["op"].grid.n_points
    return 9.0 * n**3  # symmetric eigenvalues and eigenvectors


def _flops_build_closed_loop(arguments, result) -> float:
    n = arguments["basis"].grid.n_points
    # rebuild L = V diag(lambda) V^T (2n^3), nonsymmetric eigenvalues (10n^3)
    return 2.0 * n**3 + 10.0 * n**3


def _flops_simulate(arguments, result) -> float:
    clo, n_steps = arguments["clo"], arguments["n_steps"]
    n = clo.grid.n_points
    dt = arguments["t_final"] / n_steps
    norm1 = float(abs(clo.matrix).sum(axis=0).max()) * dt
    return expm_flops(norm1, n) + n_steps * 2.0 * n**2


def _flops_contour(arguments, result) -> float:
    n = arguments["clo"].grid.n_points
    # per node: complex LU (4 * 2n^3/3) and n complex solves (4 * 2n^3)
    return result.n_quad * 4.0 * (2.0 / 3.0 + 2.0) * n**3


# Counts of the dense kernels the program calls today; a change of algorithm
# is a change of model, made in the benchmark, not a gain
FLOPS = {
    "spectral.eigendecompose": _flops_eigendecompose,
    "closed_loop.build_closed_loop": _flops_build_closed_loop,
    "closed_loop.simulate": _flops_simulate,
    "closed_loop.projection_via_contour": _flops_contour,
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    thread: int


class Tracer:
    """Records spans and counts while installed; restores every name on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.flops: dict[str, float] = defaultdict(float)
        self.constructed = 0  # GridFunction instances built
        self.op = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        """Mark the calling thread as the one that runs operation ``op``."""
        self.op = op
        self._op_stack = self._stack()

    def _wrap(self, name: str, fn):
        flops = FLOPS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._op_stack[-1] if self._op_stack else -1
            span_id = next(self._ids)
            op = self.op
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, op,
                                       threading.get_ident()))
            if flops is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                with self._lock:
                    self.flops[name] += flops(arguments, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "akgrowth" or key.startswith("akgrowth.")]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"akgrowth.{module_name}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{module_name}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, value))
                            setattr(module, attr, wrapper)
        grid_function = sys.modules["akgrowth.grid"].GridFunction
        post_init = grid_function.__post_init__

        def counted(instance):
            with self._lock:
                self.constructed += 1
            post_init(instance)

        self._patched.append((grid_function, "__post_init__", post_init))
        grid_function.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.id] = (span.end - span.start) - covered
        return result

    def write_csv(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("id,name,start,end,parent,op,thread\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                handle.write(f"{s.id},{s.name},{s.start!r},{s.end!r},"
                             f"{s.parent},{s.op},{s.thread}\n")

"""Deterministic JSON and CSV writers.

Floats are printed with 17 significant digits everywhere, keys keep their
insertion order, and no timestamps are emitted, so identical inputs produce
byte-identical files.

The CSV writers of float arrays (``basis.csv``, ``trajectory.csv``,
``deviations.csv``) format each row with ``_format_row``: one ``%.17g``
template for the whole row, which prints finite floats as ``format_float``
does at a fraction of the cost of a call per cell.  A row holding a NaN or
an infinity falls back to ``format_float`` per cell, which spells them
``NaN``, ``Infinity`` and ``-Infinity``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterator

import numpy as np

from .closed_loop import Trajectory
from .spectral import SpectralBasis
from .stability import StabilityReport


def format_float(x: float) -> str:
    """17-significant-digit decimal form (round-trips float64 exactly)."""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _emit(obj, level: int, pieces: list[str]) -> None:
    pad = "  " * level
    inner_pad = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            pieces.append(f"{inner_pad}{json.dumps(str(key))}: ")
            _emit(value, level + 1, pieces)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, value in enumerate(seq):
            pieces.append(inner_pad)
            _emit(value, level + 1, pieces)
            pieces.append(",\n" if i < len(seq) - 1 else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        pieces.append("true" if obj else "false")
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """JSON text indented by two spaces per level, with a final newline."""
    pieces: list[str] = []
    _emit(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps_json(obj))


# ------------------------------------------------------------------ CSV
def basis_summary(basis: SpectralBasis) -> dict:
    """JSON-ready spectral summary: eigenvalues and the positive eigenfunction."""
    return {
        "eigenvalues": basis.eigenvalues,
        "b0": basis.b0.values,
    }


def _format_row(template: str, row: np.ndarray) -> str:
    """``template`` with its ``%.17g`` slots filled from the 1-D float ``row``.

    ``template`` holds the row's other text, leading cell included, and one
    ``%.17g`` slot per entry of ``row``.  A finite row is formatted in one
    pass; a row with a NaN or an infinity gets ``format_float`` per cell.
    """
    values = row.tolist()
    if np.isfinite(row).all():
        return template % tuple(values)
    return template.replace("%.17g", "%s") % tuple(format_float(v) for v in values)


def _basis_rows(basis: SpectralBasis) -> Iterator[str]:
    """The file's lines: the header, then one line per node, its theta cell and
    the node's value of every eigenfunction, through ``_format_row``."""
    n = basis.grid.n_points
    yield "theta," + ",".join(f"b{k}" for k in range(n)) + "\n"
    cells = ",%.17g" * n + "\n"
    # one node at a time: listing the whole (n, n) matrix costs megabytes
    for theta, row in zip(basis.grid.nodes.tolist(), basis.vectors):
        yield _format_row(format_float(theta) + cells, row)


def write_basis_csv(path: str | Path, basis: SpectralBasis) -> None:
    """Full basis, one column per eigenfunction, written row by row."""
    with open(path, "w") as handle:
        handle.writelines(_basis_rows(basis))


def _trajectory_rows(traj: Trajectory) -> Iterator[str]:
    """The file's text in pieces that end in a newline, at most a time row each."""
    yield "t,theta,K,K_detrended\n"
    # the node column repeats for every time row: format it once
    tails = [f",{format_float(theta)},%.17g,%.17g\n" for theta in traj.grid.nodes.tolist()]
    # one time row at a time: listing the whole (steps, n) arrays costs megabytes
    for t, state, detrended in zip(traj.times.tolist(), traj.states, traj.detrended):
        t_text = format_float(t)
        # the row's interleaved (K, K_detrended) pairs fill one template
        yield _format_row(t_text + t_text.join(tails),
                          np.column_stack((state, detrended)).ravel())


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """Long-format trajectory, one row per (time, node), written one time row
    at a time, never whole in memory."""
    with open(path, "w") as handle:
        handle.writelines(_trajectory_rows(traj))


def trajectory_summary(traj: Trajectory, basis: SpectralBasis) -> dict:
    """Pairings <K(t), b0> per sample plus the fitted growth exponent."""
    pairings = basis.grid.weight * (traj.states @ basis.b0.values)
    if np.all(pairings > 0):
        fitted = float(np.polyfit(traj.times, np.log(pairings), 1)[0])
    else:
        fitted = float("nan")
    return {
        "times": traj.times,
        "inner_b0": pairings,
        "fitted_growth_rate": fitted,
    }


def stability_summary(report: StabilityReport) -> dict:
    return {
        "M": report.M,
        "rate": report.rate,
        "fitted_rate": report.fitted_rate,
        "bound_satisfied": report.bound_satisfied,
        "max_bound_violation": report.max_bound_violation,
        "admissible": report.admissible,
        "admissibility_condition": report.admissibility_condition,
        "dominance_ok": report.dominance_ok,
        "grid_points": report.grid_points,
        "steady_state": report.steady_state.values,
    }


def deviation_csv(report: StabilityReport) -> str:
    pairs = np.column_stack((report.deviations, report.bounds))
    return "t,deviation,bound\n" + "".join(
        _format_row(format_float(t) + ",%.17g,%.17g\n", pair)
        for t, pair in zip(report.times.tolist(), pairs)
    )


def write_deviation_csv(path: str | Path, report: StabilityReport) -> None:
    Path(path).write_text(deviation_csv(report))


_SWEEP_COLUMNS = (
    "rho", "gamma", "sigma", "lambda0", "lambda1",
    "feasible", "g", "alpha", "M", "rate", "dominant",
)


def _sweep_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_float(value)


def write_sweep_csv(path: str | Path, rows: list[dict]) -> None:
    """One line per sweep row: None is an empty cell, booleans are true/false."""
    lines = [",".join(_SWEEP_COLUMNS)]
    lines += [",".join(_sweep_cell(row[c]) for c in _SWEEP_COLUMNS) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")

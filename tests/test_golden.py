"""The CLI's outputs against the golden set in ``tests/golden``.

``tests/golden/regenerate.py`` wrote the set, and ``manifest.json`` lists
each case's command line, exit code and kept files.  Exit codes, key order,
row counts, booleans, integers, strings and nulls (``failed_check``, failure
indices, verdicts) match exactly.  A float matches when
|new - golden| <= atol + rtol |golden|, with the bounds of its file below.
``basis.csv`` is compared through eigenspace projectors instead, because its
column signs, and its columns inside a cluster of close eigenvalues, are
arbitrary.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from akgrowth.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())

# The largest rounding-level drift recorded so far, when the spectral path
# moved to NumPy's eigh: 1.4e-10 relative (trajectory.csv) and 2e-11
# absolute on eigenvalues.
DRIFT_REL = 1e-9   # 7 times the relative drift
DRIFT_ABS = 1e-10  # 5 times the eigenvalue drift, for values whose exact value is 0
# (rtol, atol) per file
FILE_BOUNDS = {
    "spectral.json": (DRIFT_REL, DRIFT_ABS),
    "hjb.json": (DRIFT_REL, DRIFT_ABS),
    "value.json": (DRIFT_REL, 0.0),
    "trajectory.csv": (DRIFT_REL, DRIFT_ABS),
    "trajectory_summary.json": (DRIFT_REL, DRIFT_ABS),
    "stability.json": (DRIFT_REL, DRIFT_ABS),
    "deviations.csv": (DRIFT_REL, DRIFT_ABS),
    "audit.json": (DRIFT_REL, 0.0),
    "sweep.csv": (DRIFT_REL, DRIFT_ABS),
    "perron.json": (0.0, 0.0),
    # atol on the entries of the eigenspace projectors, see _compare_basis
    "basis.csv": (0.0, DRIFT_ABS),
}
# basis.csv: eigenvalues closer than CLUSTER_GAP share a cluster, and each
# cluster lies at least CLUSTER_SEPARATION from the rest of the spectrum on
# both golden configs.  By Davis-Kahan a perturbation E of the generator moves
# a cluster's projector by at most ||E|| / separation: by at most 4e-11 for
# an E the size of the recorded 2e-11 eigenvalue drift, and DRIFT_ABS is 2.5
# times that.  The LAPACK drivers syevd (either triangle), syevr, syevx and
# syev move the projectors of the golden bases by at most 7.5e-15.
CLUSTER_GAP = 0.1
CLUSTER_SEPARATION = 0.5
# audit.json fields that are rounding-level quantities themselves
FIELD_BOUNDS = {
    # threshold verify.HJB_RESIDUAL_REL = 1e-9; the defect itself is ~1e-16
    "max_hjb_residual": (DRIFT_REL, 1e-13),
    # the distance of two quadratures of one scalar exponential, ~1e-15
    "quadrature_doubling_gap": (0.0, 1e-12),
    # |J_opt - v| / |v|: moves by the drift of J_opt plus that of v
    "rel_gap": (DRIFT_REL, 2 * DRIFT_REL),
}


def _floats_match(new: float, golden: float, bounds: tuple[float, float]) -> bool:
    rtol, atol = bounds
    if math.isnan(golden):
        return math.isnan(new)
    if math.isinf(golden):
        return new == golden
    return abs(new - golden) <= atol + rtol * abs(golden)


def _compare_json(new, golden, bounds, where: str) -> None:
    if isinstance(golden, dict):
        assert isinstance(new, dict) and list(new) == list(golden), where
        for key, value in golden.items():
            _compare_json(new[key], value, FIELD_BOUNDS.get(key, bounds), f"{where}.{key}")
    elif isinstance(golden, list):
        assert isinstance(new, list) and len(new) == len(golden), where
        for i, (a, b) in enumerate(zip(new, golden)):
            _compare_json(a, b, bounds, f"{where}[{i}]")
    elif isinstance(golden, (int, float)) and not isinstance(golden, bool):
        assert isinstance(new, (int, float)) and not isinstance(new, bool), where
        if isinstance(golden, int) and isinstance(new, int):
            assert new == golden, where
        else:
            assert _floats_match(float(new), float(golden), bounds), (where, new, golden)
    else:
        assert type(new) is type(golden) and new == golden, (where, new, golden)


def _compare_csv(new_text: str, golden_text: str, bounds) -> None:
    new_rows = list(csv.reader(new_text.splitlines()))
    golden_rows = list(csv.reader(golden_text.splitlines()))
    assert new_rows[0] == golden_rows[0]
    assert len(new_rows) == len(golden_rows)
    for line, (new, golden) in enumerate(zip(new_rows[1:], golden_rows[1:]), start=1):
        assert len(new) == len(golden), line
        for column, a, b in zip(golden_rows[0], new, golden):
            where = (line, column, a, b)
            if b in ("", "true", "false"):
                assert a == b, where
            else:
                assert _floats_match(float(a), float(b), bounds), where


def _clusters(eigenvalues: list[float]) -> list[list[int]]:
    """Indices of the descending ``eigenvalues``, split where two neighbours
    are at least CLUSTER_GAP apart."""
    clusters = [[0]]
    for k in range(1, len(eigenvalues)):
        if eigenvalues[k - 1] - eigenvalues[k] < CLUSTER_GAP:
            clusters[-1].append(k)
        else:
            assert eigenvalues[k - 1] - eigenvalues[k] >= CLUSTER_SEPARATION, k
            clusters.append([k])
    return clusters


def _compare_basis(new_text: str, golden_text: str, eigenvalues: list[float],
                   bounds) -> None:
    """Header and theta column exactly; the eigenvector columns through the
    projector weight * V_c V_c^T of each eigenvalue cluster c, within atol."""
    new_rows = list(csv.reader(new_text.splitlines()))
    golden_rows = list(csv.reader(golden_text.splitlines()))
    assert new_rows[0] == golden_rows[0]
    assert [row[0] for row in new_rows] == [row[0] for row in golden_rows]
    new = np.array([row[1:] for row in new_rows[1:]], dtype=float)
    golden = np.array([row[1:] for row in golden_rows[1:]], dtype=float)
    assert new.shape == golden.shape == (len(eigenvalues),) * 2
    weight = 2.0 * math.pi / len(eigenvalues)
    for cluster in _clusters(eigenvalues):
        defect = weight * np.abs(new[:, cluster] @ new[:, cluster].T
                                 - golden[:, cluster] @ golden[:, cluster].T).max()
        assert _floats_match(defect, 0.0, bounds), (cluster, defect)


def test_manifest_covers_the_golden_files():
    for case in MANIFEST:
        assert sorted(p.name for p in (GOLDEN / case["name"]).iterdir()) == sorted(case["files"])
        assert all(name in FILE_BOUNDS for name in case["files"])


@pytest.mark.parametrize("case", MANIFEST, ids=[case["name"] for case in MANIFEST])
def test_matches_golden(case, tmp_path):
    config = [] if case["config"] is None else ["--config", str(GOLDEN / case["config"])]
    argv = [case["command"], *config, *case["args"], "--out", str(tmp_path), "--quiet"]
    assert main(argv) == case["exit_code"]
    for name in case["files"]:
        new = (tmp_path / name).read_text()
        golden = (GOLDEN / case["name"] / name).read_text()
        if name == "basis.csv":
            spectral = json.loads((GOLDEN / case["name"] / "spectral.json").read_text())
            _compare_basis(new, golden, spectral["eigenvalues"], FILE_BOUNDS[name])
        elif name.endswith(".csv"):
            _compare_csv(new, golden, FILE_BOUNDS[name])
        else:
            _compare_json(json.loads(new), json.loads(golden), FILE_BOUNDS[name], name)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

import akgrowth as ak
from akgrowth import inner_l2

from conftest import build_pipeline, window_pipeline
from oracles import sample_halfspace_states

TWO_PI = 2.0 * np.pi


def _report(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:>2} [{name}]: {status} ({detail}; {elapsed:.2f}s)")
    assert ok, f"criterion {number} [{name}]: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


@pytest.fixture(scope="module")
def window():
    return window_pipeline(128)


@pytest.fixture(scope="module")
def window_fine():
    return window_pipeline(256)


@pytest.fixture(scope="module")
def window_traj(window):
    return ak.simulate(window.clo, window.K0, 10.0, 200)


@pytest.fixture(scope="module")
def window_fine_traj(window_fine):
    return ak.simulate(window_fine.clo, window_fine.K0, 10.0, 200)


def spectral_homogeneous_checks(n):
    A0, sigma = 1.3, 0.7
    pipe = build_pipeline(
        n, sigma=sigma, rho=0.9, gamma=0.5, q=0.0,
        A_fn=lambda t: np.full_like(t, A0),
        eta_fn=lambda t: np.ones_like(t),
        K0_fn=lambda t: np.ones_like(t),
    )
    basis = pipe.basis
    err_l0 = abs(basis.lambda0 - A0)
    err_l1 = abs(basis.eigenvalues[1] - (A0 - sigma))
    err_l2 = abs(basis.eigenvalues[2] - (A0 - sigma))
    err_b0 = np.abs(basis.b0.values - 1.0 / np.sqrt(TWO_PI)).max()
    ok = err_l0 < 1e-9 and err_l1 < 1e-9 and err_l2 < 1e-9 and err_b0 < 1e-9
    return ok, basis.lambda0, (
        f"|l0-A0|={err_l0:.1e} |l1-(A0-s)|={err_l1:.1e} "
        f"|l2-(A0-s)|={err_l2:.1e} sup|b0-const|={err_b0:.1e}"
    )


def growth_law_error(pipe, traj):
    inner0 = inner_l2(pipe.K0, pipe.basis.b0)
    pairings = pipe.grid.weight * (traj.states @ pipe.basis.b0.values)
    expected = inner0 * np.exp(pipe.sol.g * traj.times)
    return float((np.abs(pairings - expected) / np.abs(expected)).max())


def test_criterion_01_spectral_homogeneous():
    start = time.perf_counter()
    ok, _, detail = spectral_homogeneous_checks(128)
    _report(1, "spectral homogeneous", ok, detail, time.perf_counter() - start, 1.0)


def test_criterion_02_hjb_exactness():
    start = time.perf_counter()
    worst = 0.0
    for gamma, rho in ((0.5, 0.8), (2.0, 0.3)):
        pipe = build_pipeline(
            128, sigma=1.0, rho=rho, gamma=gamma, q=0.5,
            A_fn=lambda t: 1.0 + 0.5 * np.cos(t),
            eta_fn=lambda t: 1.0 + 0.3 * np.sin(2 * t),
            K0_fn=lambda t: np.ones_like(t),
        )
        states = sample_halfspace_states(pipe.basis, 20, seed=int(10 * gamma))
        worst = max(
            worst,
            max(ak.hjb_residual(pipe.sol, s) for s in states),
        )
    ok = worst < 1e-9
    _report(2, "dynamic-programming residual", ok, f"max residual={worst:.2e}",
            time.perf_counter() - start, 1.0)


def test_criterion_03_growth_law(window, window_traj):
    start = time.perf_counter()
    worst = growth_law_error(window, window_traj)
    ok = worst < 1e-8
    _report(3, "pairing growth law", ok, f"max rel err={worst:.2e}",
            time.perf_counter() - start, 5.0)


def test_criterion_04_value_equality(window):
    start = time.perf_counter()
    sol, K0 = window.sol, window.K0
    v = ak.value_function(sol, K0)
    audit = ak.optimality_audit(sol, K0, 0, 0)
    T, tail = audit.horizon, audit.tail_bound
    result = ak.payoff(
        window.params, lambda t: ak.optimal_control_path(sol, K0, t), T,
        nodes_per_unit=64,
    )
    gap = abs(result - v) / abs(v)
    tail_rel = tail / abs(v)
    ok = gap < 1e-6 and tail_rel < 1e-8 * 1.0000001
    _report(4, "payoff equals value", ok, f"rel gap={gap:.2e} tail={tail_rel:.2e}",
            time.perf_counter() - start, 10.0)


def test_criterion_05_dominance(window):
    start = time.perf_counter()
    audit = ak.optimality_audit(window.sol, window.K0, 20, seed=20240515)
    margin = (audit.max_perturbed_J - audit.v) / abs(audit.v)
    ok = audit.all_dominated and margin <= 1e-6
    _report(5, "perturbation dominance", ok,
            f"20 samples, worst margin={margin:.2e}", time.perf_counter() - start, 60.0)


def test_criterion_06_spectrum_of_closed_loop(window):
    start = time.perf_counter()
    basis, sol = window.basis, window.sol
    spectrum = np.linalg.eigvals(window.clo.matrix)
    computed = np.sort(spectrum.real)[::-1]
    expected = np.sort(np.concatenate(([sol.g], basis.eigenvalues[1:])))[::-1]
    err = np.abs(computed - expected).max()
    gaps = np.sort(np.abs(spectrum.real - sol.g))
    lambda0_distance = np.abs(spectrum.real - basis.lambda0).min()
    ok = (
        sol.g > basis.lambda1
        and err < 1e-7
        and np.abs(spectrum.imag).max() < 1e-7
        and gaps[1] > 1e-9
        and lambda0_distance > 0.1
    )
    _report(6, "closed-loop spectrum", ok,
            f"set err={err:.2e} g-gap={gaps[1]:.2e} dist(l0)={lambda0_distance:.2f}",
            time.perf_counter() - start, 2.0)


def test_criterion_07_projection_equivalence(window):
    start = time.perf_counter()
    pd, clo = window.pd, window.clo
    contour = ak.projection_via_contour(clo)
    closed = ak.projection_matrix(pd)
    entry_err = np.abs(contour.matrix - closed).max()
    idem_err = np.abs(contour.matrix @ contour.matrix - contour.matrix).max()
    pairing_err = abs(inner_l2(pd.w, pd.beta) - 1.0)
    ok = entry_err < 1e-6 and idem_err < 1e-10 and pairing_err < 1e-10
    _report(7, "projection equivalence", ok,
            f"entry err={entry_err:.2e} idem={idem_err:.2e} pairing={pairing_err:.2e}",
            time.perf_counter() - start, 2.0)


def test_criterion_08_convergence_bound(window, window_traj):
    start = time.perf_counter()
    report = ak.convergence_bound_check(window_traj, window.pd)
    target = window.basis.lambda1 - window.sol.g
    rate_err = abs(report.fitted_rate - target) / abs(target)
    ok = (
        abs(report.M - 2.0) < 1e-9
        and report.bound_satisfied
        and rate_err < 0.01
    )
    _report(8, "convergence bound", ok,
            f"M={report.M:.12f} bound={report.bound_satisfied} rate err={rate_err:.2e}",
            time.perf_counter() - start, 5.0)


def test_criterion_09_admissibility_promotion(window, window_traj):
    start = time.perf_counter()
    report = ak.convergence_bound_check(window_traj, window.pd)
    mean = window.grid.weight * float(window.K0.values.sum()) / TWO_PI
    direct = 2.0 * ak.sup_norm(window.K0 - mean) <= mean
    ok = direct and report.admissibility_condition and report.admissible
    _report(9, "admissibility promotion", ok,
            f"condition={report.admissibility_condition} positive path={report.admissible}",
            time.perf_counter() - start, 5.0)


def test_criterion_10_perron_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    checked = 0
    ok = True
    detail = ""
    for index in range(100):
        dim = int(rng.integers(3, 13))
        gen = ak.random_irreducible_metzler(dim, rng)
        try:
            assert ak.is_irreducible(gen)
            data = ak.perron_data(gen)
            assert data.right.min() > 1e-12 and data.left.min() > 1e-12
            for side in ("right", "left"):
                admitted = ak.eigenvalues_admitting_positive_eigenvector(gen, side)
                assert len(admitted) == 1
                assert abs(admitted[0] - data.spectral_bound) < 1e-8
            checked += 1
        except (AssertionError, ak.PerronViolationError) as exc:
            ok = False
            detail = f"matrix {index} (dim {dim}): {exc}"
            break
    if ok:
        detail = f"{checked} matrices, bound real+simple, vectors positive, unique"
    _report(10, "dominant-eigenvalue oracle", ok, detail,
            time.perf_counter() - start, 10.0)


def test_criterion_11_grid_refinement(window, window_fine, window_fine_traj):
    start = time.perf_counter()
    ok1, lambda0_coarse_hom, detail1 = spectral_homogeneous_checks(128)
    ok1_fine, lambda0_fine_hom, _ = spectral_homogeneous_checks(256)
    drift_hom = abs(lambda0_coarse_hom - lambda0_fine_hom)
    drift_window = abs(window.basis.lambda0 - window_fine.basis.lambda0)

    states = sample_halfspace_states(window_fine.basis, 20, seed=5)
    residual = max(
        ak.hjb_residual(window_fine.sol, s) for s in states
    )
    growth = growth_law_error(window_fine, window_fine_traj)
    ok = (
        ok1 and ok1_fine
        and drift_hom < 1e-8 and drift_window < 1e-8
        and residual < 1e-9
        and growth < 1e-8
    )
    _report(11, "grid-refinement stability", ok,
            f"l0 drift={max(drift_hom, drift_window):.2e} residual={residual:.2e} "
            f"growth err={growth:.2e}",
            time.perf_counter() - start, 30.0)

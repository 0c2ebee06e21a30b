import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eig as dense_eig
from scipy.linalg import expm

import akgrowth as ak
from akgrowth import (
    ContourEnclosureError,
    GridFunction,
    GridMismatchError,
    SpectrumCollisionError,
    hjb,
    inner_l2,
)
from akgrowth.config import load_config

from conftest import build_pipeline
from oracles import resolvent_apply

TWO_PI = 2.0 * np.pi


def random_state(grid, seed, offset=1.0):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, offset + 0.3 * rng.standard_normal(grid.n_points))


class TestOperator:
    def test_rejects_foreign_basis(self, variable):
        # same grid, separately decomposed: still not the solution's basis
        other = ak.eigendecompose(variable.op)
        with pytest.raises(GridMismatchError):
            ak.build_closed_loop(other, variable.sol)

    def test_w_is_eigenvector(self, variable):
        clo, pd, sol = variable.clo, variable.pd, variable.sol
        out = clo.matrix @ pd.w.values
        assert np.abs(out - sol.g * pd.w.values).max() < 1e-8

    def test_left_eigenvector_pairing(self, variable):
        # <Bx, b0> = g <x, b0> for random states
        clo, basis, sol = variable.clo, variable.basis, variable.sol
        for seed in range(10):
            x = random_state(basis.grid, seed)
            lhs = inner_l2(GridFunction(basis.grid, clo.matrix @ x.values), basis.b0)
            rhs = sol.g * inner_l2(x, basis.b0)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_rank_one_update(self, variable):
        weight = variable.grid.weight
        l_matrix = weight * (variable.basis.vectors * variable.basis.eigenvalues) @ variable.basis.vectors.T
        singular = np.linalg.svd(variable.clo.matrix - l_matrix, compute_uv=False)
        assert singular[1] < 1e-10 * singular[0]

    def test_spectrum_is_g_and_tail(self, window):
        # eigenvalues of B are {g} union {lambda_k, k >= 1}; lambda_0 is gone
        basis, sol = window.basis, window.sol
        spectrum = np.linalg.eigvals(window.clo.matrix)
        assert np.abs(spectrum.imag).max() < 1e-9
        computed = np.sort(spectrum.real)[::-1]
        expected = np.sort(np.concatenate(([sol.g], basis.eigenvalues[1:])))[::-1]
        assert np.abs(computed - expected).max() < 1e-7
        # g simple: nearest other eigenvalue stays away
        gaps = np.sort(np.abs(spectrum.real - sol.g))
        assert gaps[1] > 1e-9
        # lambda0 absent from the spectrum
        assert np.abs(spectrum.real - basis.lambda0).min() > 0.25

    def test_spectrum_variable_case(self, variable):
        basis, sol = variable.basis, variable.sol
        computed = np.sort(np.linalg.eigvals(variable.clo.matrix).real)[::-1]
        expected = np.sort(np.concatenate(([sol.g], basis.eigenvalues[1:])))[::-1]
        assert np.abs(computed - expected).max() < 1e-7

    def test_resolvent_identity(self, variable):
        # (B-mu)^(-1) h = (L-mu)^(-1)(h + h0/(g-mu) * withdrawal), h0 = <h, b0>
        basis, sol, clo = variable.basis, variable.sol, variable.clo
        identity = np.eye(basis.grid.n_points)
        for mu, seed in [(0.9, 0), (-1.7, 1), (2.5, 2)]:
            h = random_state(basis.grid, seed)
            lhs = np.linalg.solve(clo.matrix - mu * identity, h.values)
            h0 = inner_l2(h, basis.b0)
            shifted = h + (h0 / (sol.g - mu)) * sol.withdrawal
            rhs = resolvent_apply(basis, mu, shifted, min_gap=1e-9)
            assert np.abs(lhs - rhs.values).max() < 1e-8


class TestProjectionData:
    def test_rejects_foreign_basis(self, variable):
        other = ak.eigendecompose(variable.op)
        with pytest.raises(GridMismatchError):
            ak.compute_projection_data(other, variable.sol)

    def test_homogeneous_coefficients_vanish(self, window):
        pd, clo, basis = window.pd, window.clo, window.basis
        assert np.abs(clo.withdrawal_coeffs[1:]).max() < 1e-12
        np.testing.assert_allclose(pd.w.values, basis.b0.values, rtol=1e-10)

    def test_pairing_normalized(self, variable):
        assert inner_l2(variable.pd.w, variable.pd.beta) == pytest.approx(1.0, abs=1e-10)

    def test_w_matches_resolvent(self, variable):
        sol, basis, pd = variable.sol, variable.basis, variable.pd
        via_resolvent = resolvent_apply(basis, sol.g, sol.withdrawal, min_gap=1e-9)
        assert np.abs(pd.w.values - via_resolvent.values).max() < 1e-9

    def test_mu0(self, variable):
        assert variable.clo.withdrawal_coeffs[0] == pytest.approx(
            variable.basis.lambda0 - variable.sol.g, abs=1e-12
        )

    def test_collision_detected(self):
        # rho = lambda0 makes g = 0 = lambda1 exactly (homogeneous case)
        pipe = build_pipeline(
            128, sigma=1.0, rho=1.0, gamma=0.5, q=0.0,
            A_fn=lambda t: np.ones_like(t),
            eta_fn=lambda t: np.ones_like(t),
            K0_fn=lambda t: np.ones_like(t),
        )
        assert pipe.pd is None
        with pytest.raises(SpectrumCollisionError):
            ak.compute_projection_data(pipe.basis, pipe.sol)


def _dense_w_defect(params, grid):
    """Solution, projection data and the max-norm relative distance of w
    from np.linalg.solve(L - g, withdrawal) on the assembled generator."""
    op = ak.assemble_generator(params, grid)
    basis = ak.eigendecompose(op)
    sol = ak.solve_hjb(basis, params)
    pd = ak.compute_projection_data(basis, sol)
    dense = np.linalg.solve(op.entries - sol.g * np.eye(grid.n_points), sol.withdrawal.values)
    return sol, pd, float(np.abs(pd.w.values - dense).max() / np.abs(dense).max())


VARIABLE_DEMO = Path(__file__).resolve().parents[1] / "demos" / "config_variable.cfg"


class TestScaleFreeProjection:
    """w = (L - g)^(-1) withdrawal with <w, b0> = 1, whatever alpha0 is."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([16, 32, 64]),
        sigma=st.floats(0.1, 2.0),
        gamma=st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0)),
        q=st.floats(0.0, 1.0),
        a_amplitude=st.floats(0.0, 0.8),
        eta_amplitude=st.floats(0.0, 0.8),
        margin=st.floats(0.01, 3.0),
    )
    def test_w_solves_the_assembled_generator(self, n, sigma, gamma, q, a_amplitude,
                                              eta_amplitude, margin):
        grid = ak.Grid(n)
        A = GridFunction.from_callable(grid, lambda t: 1.0 + a_amplitude * np.cos(t))
        eta = GridFunction.from_callable(grid, lambda t: 1.0 + eta_amplitude * np.cos(2 * t))
        params = ak.ModelParams(sigma=sigma, rho=1.0, gamma=gamma, q=q, A=A, eta=eta)
        basis = ak.eigendecompose(ak.assemble_generator(params, grid))
        # rho does not enter L: place it a margin above the well-posedness bound
        params = dataclasses.replace(
            params, rho=max(0.0, basis.lambda0 * (1.0 - gamma)) + margin
        )
        g = hjb.balanced_growth(params.rho, gamma, basis.lambda0)
        # L - g has condition about |L| / gap, so the dense solve is trusted
        # only away from the spectrum
        assume(np.abs(basis.eigenvalues - g).min() > 1e-2)
        _, pd, defect = _dense_w_defect(params, grid)
        assert defect <= 1e-10
        assert inner_l2(pd.w, pd.beta) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "gamma, rho, alpha0",
        [(0.99, 0.6, 4.6e101), (1.01, 0.6, 5.2e-103), (1.002, 1.51, 1.5e-310)],
        ids=["alpha0-huge", "alpha0-tiny", "alpha0-subnormal"],
    )
    def test_extreme_alpha0_on_the_variable_demo(self, gamma, rho, alpha0):
        # near gamma = 1 alpha0 = alpha^(1/(1-gamma)) spans the float range;
        # at gamma = 1.002 it is subnormal, so 1/alpha0 would overflow
        config = dataclasses.replace(load_config(VARIABLE_DEMO), gamma=gamma, rho=rho)
        grid, params, _ = config.model()
        sol, pd, defect = _dense_w_defect(params, grid)
        assert ak.hjb_summary(sol)["alpha0"] == pytest.approx(alpha0, rel=0.02)
        assert defect <= 1e-10
        assert inner_l2(pd.w, pd.beta) == pytest.approx(1.0, abs=1e-10)


EPS = np.finfo(float).eps


class TestDerivedBounds:
    """The checks of the basis and of w compare with rounding bounds they
    derive; on well-posed rows each defect stays within half its bound.

    Draws whose b0 the positivity margin refuses (a grid too coarse for a
    small sigma) are skipped: that check is not one of these bounds.  The
    examples are the largest defect-to-bound ratios a search of a few
    thousand draws found, each above a tenth: they show that no bound is
    ten times looser than the rounding it covers.
    """

    @settings(max_examples=80, deadline=None)
    @example(n=16, log_sigma=-1.7466153796013855, a_amplitude=0.3193591095809114,
             eta_amplitude=0.14786436020755683, eta_mode=2, q=0.8871875007546963,
             gamma=0.12852200450384094,
             offsets=[-8.518635026574009, -5.748158473852852, -4.042407873256711])
    @example(n=24, log_sigma=-1.156263802258084, a_amplitude=0.2753346576816479,
             eta_amplitude=0.13635752366318282, eta_mode=3, q=0.8664299640963378,
             gamma=0.13326222909517066,
             offsets=[-8.609695103606782, 0.3894382625474595, -4.241242558907554])
    @example(n=16, log_sigma=-1.8240509560736542, a_amplitude=0.3018874629517778,
             eta_amplitude=0.0, eta_mode=1, q=0.0, gamma=0.1096424636897405, offsets=[-1.0])
    @given(
        n=st.sampled_from([16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512]),
        log_sigma=st.floats(np.log10(3e-3), np.log10(4.0)),
        a_amplitude=st.floats(0.0, 0.5),
        eta_amplitude=st.floats(0.0, 0.5),
        eta_mode=st.integers(1, 3),
        q=st.floats(0.0, 2.0),
        gamma=st.one_of(st.floats(0.1, 0.95), st.floats(1.05, 4.0)),
        offsets=st.lists(st.floats(-10.0, np.log10(3.0)), min_size=1, max_size=3),
    )
    def test_defects_within_half_their_bounds(self, n, log_sigma, a_amplitude, eta_amplitude,
                                              eta_mode, q, gamma, offsets):
        grid = ak.Grid(n)
        A = GridFunction(grid, 1.0 + a_amplitude * np.cos(grid.nodes))
        eta = GridFunction(grid, 1.0 + eta_amplitude * np.cos(eta_mode * grid.nodes))
        params = ak.ModelParams(sigma=10.0**log_sigma, rho=1.0, gamma=gamma, q=q, A=A, eta=eta)
        op = ak.assemble_generator(params, grid)
        try:
            bases = [ak.eigendecompose(op), ak.principal_pair(op)]
        except ak.PositivityError:
            assume(False)
        for basis in bases:
            assert abs(inner_l2(basis.b0, basis.b0) - 1.0) <= 0.5 * 4 * n * EPS
        basis, lam = bases[0], bases[0].eigenvalues
        # rho from 1e-10 relative above the well-posedness edge to 3 above
        # it, and last the rho that puts g on lambda1
        edge = max(basis.lambda0 * (1.0 - gamma), 0.0)
        rhos = [edge + 10.0**offset * max(edge, 1.0) for offset in offsets]
        rhos.append(basis.lambda0 - gamma * basis.lambda1)
        g, _, errors, _, withdrawal = hjb.solve_rows(basis, params, [gamma] * len(rhos), rhos)
        solved = [i for i, error in enumerate(errors) if error is None]
        assume(solved)
        g, withdrawal = [g[i] for i in solved], withdrawal[solved]
        w, errors = ak.closed_loop.projection_rows(basis, withdrawal, g)
        for i, row, g_i, w_i, error in zip(solved, withdrawal, g, w, errors):
            collision_bound = 16 * EPS * (np.abs(lam).max() + abs(g_i))
            gap = np.abs(lam[1:] - g_i).min()
            if i == len(rhos) - 1 or gap <= 0.5 * collision_bound:
                # on a constant profile an integer rho can put g on lambda_k too
                assert gap <= 0.5 * collision_bound
                assert isinstance(error, SpectrumCollisionError)
                k = 1 + int(np.abs(lam[1:] - g_i).argmin())
                assert str(error).startswith(f"g={g_i!r} collides with eigenvalue lambda_{k}=")
                continue
            assert gap > 2 * collision_bound
            assert error is None
            u = basis.coefficients(GridFunction(grid, row))
            coeffs = np.concatenate(([1.0], u[1:] / (lam[1:] - g_i)))
            pairing_bound = 4 * n * EPS * np.abs(coeffs).sum()
            assert abs(grid.weight * float(w_i @ basis.b0.values) - 1.0) <= 0.5 * pairing_bound


class TestPerronPairIsRefused:
    """A basis of the Perron pair alone reaches no code that expands in the
    whole eigenbasis: each entry point names what it needs, where it used to
    raise a NumPy shape error or build a wrong closed loop."""

    @pytest.fixture()
    def pair(self, variable):
        basis = ak.principal_pair(variable.op)
        return basis, ak.solve_hjb(basis, variable.params)

    def test_build_closed_loop(self, pair):
        with pytest.raises(GridMismatchError, match="^build_closed_loop needs the full "
                                                    "eigenbasis, got 1 of 128 eigenvectors$"):
            ak.build_closed_loop(*pair)

    def test_projection_rows(self, pair):
        basis, sol = pair
        with pytest.raises(GridMismatchError, match="^projection_rows needs the full"):
            ak.closed_loop.projection_rows(basis, sol.withdrawal.values[None, :], [sol.g])
        with pytest.raises(GridMismatchError, match="^projection_rows needs the full"):
            ak.compute_projection_data(basis, sol)

    def test_simulate(self, variable, pair):
        basis, sol = pair
        clo = dataclasses.replace(variable.clo, basis=basis, sol=sol)
        with pytest.raises(GridMismatchError, match="^simulate needs the full"):
            ak.simulate(clo, variable.K0, 1.0, 10)

    def test_open_loop_trajectory(self, variable, pair):
        basis, sol = pair
        with pytest.raises(GridMismatchError, match="^open_loop_trajectory needs the full"):
            ak.open_loop_trajectory(basis, variable.params, variable.K0,
                                    lambda t: ak.optimal_control_path(sol, variable.K0, t),
                                    np.linspace(0.0, 1.0, 3))


class TestProjectionApply:
    def test_fixed_point(self, variable):
        pd = variable.pd
        out = ak.projection_matrix(pd) @ pd.w.values
        assert np.abs(out - pd.w.values).max() < 1e-10

    def test_idempotent(self, variable):
        P = ak.projection_matrix(variable.pd)
        for seed in range(5):
            x = random_state(variable.grid, seed)
            once = P @ x.values
            twice = P @ once
            assert np.abs(twice - once).max() < 1e-10

    def test_homogeneous_projects_to_mean(self, window):
        out = ak.projection_matrix(window.pd) @ window.K0.values
        mean = window.grid.weight * float(window.K0.values.sum()) / TWO_PI
        np.testing.assert_allclose(out, mean, rtol=1e-10)


class TestContour:
    def test_matches_closed_form(self, variable):
        result = ak.projection_via_contour(variable.clo)
        closed = ak.projection_matrix(variable.pd)
        assert np.abs(result.matrix - closed).max() < 1e-6
        assert result.imag_residue < 1e-8

    def test_trace_is_one(self, window):
        result = ak.projection_via_contour(window.clo)
        assert np.trace(result.matrix) == pytest.approx(1.0, abs=1e-8)

    def test_quadrature_converged(self, window):
        coarse = ak.projection_via_contour(window.clo, n_quad=64)
        fine = ak.projection_via_contour(window.clo, n_quad=128)
        assert np.abs(coarse.matrix - fine.matrix).max() < 1e-8

    def test_enclosure_violation(self, window):
        # a circle large enough to swallow lambda_1 as well
        with pytest.raises(ContourEnclosureError):
            ak.projection_via_contour(window.clo, radius=10.0)

    def test_too_few_nodes(self, window):
        with pytest.raises(ValueError):
            ak.projection_via_contour(window.clo, n_quad=8)


class TestSimulate:
    def test_growth_law(self, variable):
        basis, sol, clo = variable.basis, variable.sol, variable.clo
        traj = ak.simulate(clo, variable.K0, 6.0, 120)
        inner0 = inner_l2(variable.K0, basis.b0)
        for t, state in zip(traj.times, traj.states):
            expected = inner0 * np.exp(sol.g * t)
            pairing = basis.grid.weight * float(state @ basis.b0.values)
            assert abs(pairing - expected) < 1e-8 * abs(expected)

    def test_steady_start_stays_fixed(self, variable):
        pd, clo = variable.pd, variable.clo
        x0 = GridFunction(variable.grid, 2.5 * pd.w.values)
        traj = ak.simulate(clo, x0, 5.0, 50)
        for state in traj.detrended:
            assert np.abs(state - x0.values).max() < 1e-8

    def test_control_consistency(self, variable):
        sol, clo = variable.sol, variable.clo
        traj = ak.simulate(clo, variable.K0, 4.0, 40)
        base = ak.feedback_control(sol, variable.K0)
        for t, state in zip(traj.times, traj.states):
            along = ak.feedback_control(sol, GridFunction(variable.grid, state))
            expected = np.exp(sol.g * t) * base.values
            assert np.abs(along.values - expected).max() < 1e-8 * max(1.0, np.abs(expected).max())

    def test_matches_eigen_propagation(self, variable):
        # simulate() agrees with propagation through the eigensystem of B
        clo = variable.clo
        traj = ak.simulate(clo, variable.K0, 3.0, 12)
        lam, vectors = dense_eig(clo.matrix)
        coeffs = np.linalg.solve(vectors, variable.K0.values.astype(complex))
        for t, state in zip(traj.times, traj.states):
            via_eig = (vectors @ (np.exp(lam * t) * coeffs)).real
            assert np.abs(state - via_eig).max() < 1e-8

    def test_input_validation(self, variable):
        with pytest.raises(ValueError):
            ak.simulate(variable.clo, variable.K0, -1.0, 10)
        with pytest.raises(ValueError):
            ak.simulate(variable.clo, variable.K0, 1.0, 0)
        with pytest.raises(ak.GridMismatchError):
            ak.simulate(variable.clo, GridFunction.constant(ak.Grid(64), 1.0), 1.0, 10)

    @pytest.mark.parametrize("t_final", [float("inf"), float("nan")])
    def test_non_finite_horizon(self, variable, t_final):
        with pytest.raises(ValueError, match="t_final must be finite and > 0"):
            ak.simulate(variable.clo, variable.K0, t_final, 10)

    def test_overflowing_horizon(self, window):
        # r = g = 0.5: e^(0.5 t) leaves float64 past t ~ 1419.6, so the
        # first non-finite sample of linspace(0, 2000, 11) is t = 1600
        with pytest.raises(ValueError, match=r"t_final = 2000\.0 .* from t = 1600\.0 on"):
            ak.simulate(window.clo, window.K0, 2000.0, 10)

    def test_dominance_violated_still_computes(self):
        # outside the window (g < lambda1) everything is computed and flagged
        pipe = build_pipeline(
            64, sigma=1.0, rho=1.2, gamma=2.0, q=0.0,
            A_fn=lambda t: np.ones_like(t),
            eta_fn=lambda t: np.ones_like(t),
            K0_fn=lambda t: 1.0 + 0.2 * np.cos(t),
        )
        assert pipe.sol.g < pipe.basis.lambda1
        traj = ak.simulate(pipe.clo, pipe.K0, 2.0, 20)
        report = ak.convergence_bound_check(traj, pipe.pd)
        assert not report.dominance_ok


class TestClosedFormOracle:
    """The closed-form spectrum and trajectories against the dense B."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([16, 32, 64]),
        sigma=st.floats(0.1, 2.0),
        gamma=st.one_of(st.floats(0.1, 0.95), st.floats(1.05, 4.0)),
        q=st.floats(0.0, 1.0),
        amplitude=st.floats(0.0, 0.8),
        margin=st.floats(0.01, 3.0),
        perturb=st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
        seed=st.integers(0, 2**32 - 1),
    )
    # g < lambda1, gamma > 1 and a perturbed withdrawal (rate r != g) in one case
    @example(n=32, sigma=1.0, gamma=2.0, q=0.0, amplitude=0.5, margin=2.5,
             perturb=0.05, seed=0)
    def test_matches_dense_generator(self, n, sigma, gamma, q, amplitude, margin,
                                     perturb, seed):
        grid = ak.Grid(n)
        A = GridFunction.from_callable(grid, lambda t: 1.0 + amplitude * np.cos(t))
        eta = GridFunction.from_callable(grid, lambda t: 1.0 + 0.2 * np.sin(2 * t))
        params = ak.ModelParams(sigma=sigma, rho=1.0, gamma=gamma, q=q, A=A, eta=eta)
        basis = ak.eigendecompose(ak.assemble_generator(params, grid))
        # rho does not enter L: place it a margin above the well-posedness bound
        rho = max(0.0, basis.lambda0 * (1.0 - gamma)) + margin
        sol = ak.solve_hjb(basis, dataclasses.replace(params, rho=rho))
        sol = dataclasses.replace(sol, withdrawal=sol.withdrawal * (1.0 + perturb))
        clo = ak.build_closed_loop(basis, sol)
        # near a collision of the rate with lambda_k dense eigvals is
        # ill-conditioned, so the oracle itself is not trusted there
        assume(np.abs(basis.eigenvalues[1:] - clo.spectrum[0]).min() > 1e-3)

        eigs = np.sort_complex(np.linalg.eigvals(clo.matrix))
        spectrum = np.sort(clo.spectrum)
        assert np.all(np.abs(eigs - spectrum) <= 1e-9 * np.maximum(1.0, np.abs(spectrum)))

        x0 = random_state(grid, seed)
        traj = ak.simulate(clo, x0, 2.0, 4)
        for t, state in zip(traj.times, traj.states):
            dense = expm(clo.matrix * t) @ x0.values
            assert np.abs(state - dense).max() <= 1e-9 * np.abs(dense).max()

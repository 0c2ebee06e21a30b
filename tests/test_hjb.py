import dataclasses
import math
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import akgrowth as ak
from akgrowth import (
    ConfigError,
    Grid,
    GridFunction,
    HalfSpaceError,
    InfeasibleParametersError,
    inner_l2,
)
from akgrowth import hjb
from akgrowth.config import parse_config
from akgrowth.hjb import balanced_growth, solve_rows

from conftest import build_pipeline

TWO_PI = 2.0 * np.pi
VARIABLE_DEMO = Path(__file__).resolve().parents[1] / "demos" / "config_variable.cfg"

# frozen closed forms for sigma=1, A=1, eta=1, q=0 (independent quadrature oracle):
#   gamma=0.5, rho=1.0  : alpha = (2*pi)^(3/4)
#   gamma=0.5, rho=0.75 : alpha = [2*(2*pi)^(3/2)]^(1/2), v(K0 mean 1) = 2*sqrt(2)*(2*pi)
#   gamma=2.0, rho=0.3  : alpha = [2/1.3*(2*pi)^(3/4)]^2
ALPHA_G05_RHO1 = 3.9685778240728022
ALPHA_WINDOW = 5.612416582136864
V_WINDOW = 17.771531752633464
ALPHA_GAMMA2 = 37.27718330348501
V_GAMMA2 = -14.871444514034522


def homogeneous(rho=1.0, gamma=0.5, n=128):
    return build_pipeline(
        n, sigma=1.0, rho=rho, gamma=gamma, q=0.0,
        A_fn=lambda t: np.ones_like(t),
        eta_fn=lambda t: np.ones_like(t),
        K0_fn=lambda t: 1.0 + 0.4 * np.cos(t),
    )


class TestWellPosedness:
    def test_direct_inequality(self, window):
        params = window.params
        assert ak.wellposed(params.rho, params.gamma, lambda0=1.0)  # 0.75 > 0.5
        assert not ak.wellposed(0.4, params.gamma, lambda0=1.0)

    def test_gamma_above_one_sign_argument(self, gamma2):
        # lambda0*(1-gamma) < 0 < rho, so any positive discount is feasible
        assert ak.wellposed(gamma2.params.rho, gamma2.params.gamma, lambda0=1.0)

    def test_equality_rejected(self):
        grid = Grid(16)
        one = GridFunction.constant(grid, 1.0)
        params = ak.ModelParams(sigma=1.0, rho=0.5, gamma=0.5, q=0.0, A=one, eta=one)
        assert not ak.wellposed(params.rho, params.gamma, lambda0=1.0)

    def test_infeasible_raises(self):
        pipe = homogeneous(rho=1.0)
        bad = dataclasses.replace(pipe.params, rho=0.4)
        with pytest.raises(InfeasibleParametersError):
            ak.solve_hjb(pipe.basis, bad)


class TestGrowthRate:
    def test_direct(self):
        assert balanced_growth(1.2, 2.0, 1.0) == pytest.approx(-0.1, rel=1e-15)

    def test_zero_at_rho_equals_lambda0(self, window):
        assert balanced_growth(1.0, window.params.gamma, 1.0) == 0.0

    def test_outside_dominance_window(self):
        # rho=1.2, gamma=2: decay exponent g - A + sigma = -0.1 < 0, and indeed
        # the point lies outside the window A(1-gamma) < rho < A(1-gamma)+sigma*gamma = 1
        low = 1.0 * (1.0 - 2.0)
        assert not low < 1.2 < low + 1.0 * 2.0
        g = (1.0 - 1.2) / 2.0
        assert g - 1.0 + 1.0 == pytest.approx(-0.1)


class TestAlpha:
    def test_frozen_value_rho1(self):
        pipe = homogeneous(rho=1.0)
        assert pipe.sol.alpha == pytest.approx(ALPHA_G05_RHO1, rel=1e-10)

    def test_frozen_value_window(self, window):
        assert window.sol.alpha == pytest.approx(ALPHA_WINDOW, rel=1e-10)

    def test_frozen_value_gamma2(self, gamma2):
        assert gamma2.sol.alpha == pytest.approx(ALPHA_GAMMA2, rel=1e-10)

    def test_alpha0_consistency(self, variable):
        sol = variable.sol
        expected = sol.alpha ** (1.0 / (1.0 - variable.params.gamma))
        assert ak.hjb_summary(sol)["alpha0"] == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing_in_rho(self):
        alphas = [homogeneous(rho=rho).sol.alpha for rho in (0.7, 0.9, 1.1)]
        assert alphas[0] > alphas[1] > alphas[2]

    def test_value_invariant_under_b0_rescaling(self, window):
        # multiplying b0 by any positive constant leaves v unchanged
        kappa = 3.7
        scaled_vectors = window.basis.vectors.copy()
        scaled_vectors[:, 0] *= kappa
        scaled_basis = dataclasses.replace(window.basis, vectors=scaled_vectors)
        sol_scaled = ak.solve_hjb(scaled_basis, window.params)
        v_ref = ak.value_function(window.sol, window.K0)
        v_scaled = ak.value_function(sol_scaled, window.K0)
        assert v_scaled == pytest.approx(v_ref, rel=1e-10)

    def test_fixed_point_equation(self, variable):
        # rho*alpha/(1-gamma) = lambda0*alpha + gamma/(1-gamma)*alpha^((gamma-1)/gamma)*I
        params, basis, sol = variable.params, variable.basis, variable.sol
        gamma, rho = params.gamma, params.rho
        integrand = (
            params.eta.values ** ((params.q + gamma - 1.0) / gamma)
            * basis.b0.values ** ((gamma - 1.0) / gamma)
        )
        quad = basis.grid.weight * integrand.sum()
        lhs = rho * sol.alpha / (1.0 - gamma)
        rhs = basis.lambda0 * sol.alpha + gamma / (1.0 - gamma) * sol.alpha ** (
            (gamma - 1.0) / gamma
        ) * quad
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestValueFunction:
    def test_frozen_constant_state(self):
        pipe = homogeneous(rho=1.0)
        K0 = GridFunction.constant(pipe.grid, 2.0)
        assert ak.value_function(pipe.sol, K0) == pytest.approx(V_WINDOW, rel=1e-10)

    def test_frozen_window_state(self, window):
        assert ak.value_function(window.sol, window.K0) == pytest.approx(V_WINDOW, rel=1e-10)

    def test_negative_for_gamma_above_one(self, gamma2):
        assert ak.value_function(gamma2.sol, gamma2.K0) == pytest.approx(V_GAMMA2, rel=1e-10)
        assert ak.value_function(gamma2.sol, gamma2.K0) < 0

    def test_homogeneity(self, variable):
        v1 = ak.value_function(variable.sol, variable.K0)
        v2 = ak.value_function(variable.sol, 2.0 * variable.K0)
        assert v2 == pytest.approx(2.0 ** (1.0 - variable.params.gamma) * v1, rel=1e-12)

    def test_half_space_violation(self, window):
        bad = GridFunction.constant(window.grid, -1.0)
        with pytest.raises(HalfSpaceError):
            ak.value_function(window.sol, bad)


class TestFeedback:
    def test_homogeneous_constant_profile(self, window):
        # Phi(K0) is the constant (A - g)/(2*pi) * integral(K0)
        control = ak.feedback_control(window.sol, window.K0)
        integral = window.grid.weight * float(window.K0.values.sum())
        expected = (1.0 - window.sol.g) / TWO_PI * integral
        np.testing.assert_allclose(control.values, expected, rtol=1e-10)

    def test_linearity(self, variable):
        sol = variable.sol
        x = variable.K0
        y = GridFunction.from_callable(variable.grid, lambda t: 0.5 + 0.1 * np.sin(3 * t))
        lhs = ak.feedback_control(sol, x + y).values
        rhs = ak.feedback_control(sol, x).values + ak.feedback_control(sol, y).values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_rank_one_kernel(self, variable):
        # any state orthogonal to b0 maps to the zero control
        sol = variable.sol
        x = GridFunction(variable.grid, variable.basis.vectors[:, 3])
        control = ak.feedback_control(sol, x)
        assert np.abs(control.values).max() < 1e-12


class TestWithdrawal:
    @settings(max_examples=30, deadline=None)
    @given(
        gamma=st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0)),
        q=st.floats(0.0, 2.0),
        a_amplitude=st.floats(0.0, 0.8),
        eta_amplitude=st.floats(0.0, 0.8),
        margin=st.floats(0.01, 3.0),
    )
    def test_is_eta_times_feedback_profile(self, gamma, q, a_amplitude, eta_amplitude,
                                           margin):
        # (alpha b0)^(-1/gamma) eta^((q+gamma-1)/gamma) against eta times
        # (f / (alpha eta b0))^(1/gamma): the two forms of the feedback law
        grid = Grid(32)
        A = GridFunction.from_callable(grid, lambda t: 1.0 + a_amplitude * np.cos(t))
        eta = GridFunction.from_callable(grid, lambda t: 1.0 + eta_amplitude * np.cos(2 * t))
        params = ak.ModelParams(sigma=1.0, rho=1.0, gamma=gamma, q=q, A=A, eta=eta)
        basis = ak.eigendecompose(ak.assemble_generator(params, grid))
        rho = max(0.0, basis.lambda0 * (1.0 - gamma)) + margin
        sol = ak.solve_hjb(basis, dataclasses.replace(params, rho=rho))
        expected = eta.values * sol.feedback_profile.values
        np.testing.assert_allclose(sol.withdrawal.values, expected, rtol=1e-12, atol=0.0)

    def test_solve_rows_blocks_hold_the_passing_rows(self):
        # gamma = 0.25 and eta = 1e-100 make the feedback profile
        # eta^(-4) / (alpha^4 b0^4) overflow at rho = 1e250 while alpha stays
        # finite; rho just above lambda0*(1-gamma) = 0.75 puts alpha near
        # e^179, whose linear-space integral eta^(-3) / margin would
        # overflow, and rho = inf sends alpha to 0
        grid = Grid(16)
        params = ak.ModelParams(
            sigma=1.0, rho=1.0, gamma=0.25, q=0.0,
            A=GridFunction.constant(grid, 1.0), eta=GridFunction.constant(grid, 1e-100),
        )
        basis = ak.eigendecompose(ak.assemble_generator(params, grid))
        bound = basis.lambda0 * 0.75
        rhos = [bound - 0.25, 10.0, bound + 1e-10, 1e250, 1e100, math.inf, 1e200]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the kernel keeps its float errors quiet
            g, alpha, errors, profile, withdrawal = solve_rows(basis, params, [0.25] * len(rhos),
                                                                rhos)
        assert [type(error) for error in errors] == [
            InfeasibleParametersError, type(None), type(None), ConfigError,
            type(None), ConfigError, type(None),
        ]
        assert 1e77 < alpha[2] < 1e78
        assert "eta * P overflows " in str(errors[3]) and "alpha = 0.0 " in str(errors[5])
        assert profile.shape == withdrawal.shape == (4, 16)
        for row, i in enumerate([1, 2, 4, 6]):
            sol = ak.solve_hjb(basis, dataclasses.replace(params, rho=rhos[i]))
            assert np.array_equal(profile[row], sol.feedback_profile.values)
            assert np.array_equal(withdrawal[row], sol.withdrawal.values)
            assert (sol.alpha, sol.g) == (alpha[i], g[i])


def _normal(x):
    """True iff the positive real x lies in the range of normal doubles."""
    return sys.float_info.min <= x <= sys.float_info.max


def _reference_logs(basis, eta, q, gamma, rho):
    """40-digit log I and log alpha on the code's own b0, for mpmath.workdps(40)."""
    mq, mg = mpmath.mpf(q), mpmath.mpf(gamma)
    log_integral = mpmath.log(mpmath.mpf(basis.grid.weight) * mpmath.fsum(
        mpmath.exp(((mq + mg - 1) * mpmath.log(e) + (mg - 1) * mpmath.log(b)) / mg)
        for e, b in zip(eta.values.tolist(), basis.b0.values.tolist())
    ))
    margin = mpmath.mpf(rho) - mpmath.mpf(basis.lambda0) * (1 - mg)
    return log_integral, mg * (mpmath.log(mg) - mpmath.log(margin) + log_integral)


_NEAR_ONE = st.tuples(st.floats(1e-6, 0.05), st.sampled_from([-1.0, 1.0])).map(
    lambda t: 1.0 + t[1] * t[0]
)


class TestLogSpaceProfiles:
    @settings(max_examples=60, deadline=None)
    @given(
        gamma=st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0), _NEAR_ONE),
        q=st.floats(0.0, 400.0),
        a_amplitude=st.floats(0.0, 0.8),
        eta_amplitude=st.floats(0.0, 0.99),
        margin=st.floats(0.01, 3.0),
    )
    @example(gamma=1 - 1e-6, q=0.5, a_amplitude=0.3, eta_amplitude=0.1, margin=0.5)
    @example(gamma=1 + 1e-6, q=0.5, a_amplitude=0.3, eta_amplitude=0.1, margin=0.5)
    def test_profiles_match_mpmath(self, gamma, q, a_amplitude, eta_amplitude, margin):
        # 40-digit references on the code's own b0: log I to 1e-12 of
        # max(1, |log I|), alpha to 1e-12 relative wherever it is a normal
        # double, and the profiles to 1e-12 relative wherever they are
        # normal, and to 1e-12 of the least normal below that; a failed row
        # is one whose reference leaves the float range
        grid = Grid(32)
        A = GridFunction.from_callable(grid, lambda t: 1.0 + a_amplitude * np.cos(t))
        eta = GridFunction.from_callable(grid, lambda t: 1.0 + eta_amplitude * np.cos(2 * t))
        params = ak.ModelParams(sigma=1.0, rho=1.0, gamma=gamma, q=q, A=A, eta=eta)
        basis = ak.eigendecompose(ak.assemble_generator(params, grid))
        rho = max(0.0, basis.lambda0 * (1.0 - gamma)) + margin
        log_eta, log_b0 = np.log(eta.values), np.log(basis.b0.values)
        log_integral = hjb.log_alpha_integral(basis, log_eta, log_b0, q, gamma)
        _, alpha, errors, profile, withdrawal = solve_rows(basis, params, [gamma], [rho])
        with mpmath.workdps(40):
            ref_log_integral, ref_log_alpha = _reference_logs(basis, eta, q, gamma, rho)
            assert abs(log_integral - ref_log_integral) <= 1e-12 * max(1, abs(ref_log_integral))
            ref_alpha = mpmath.exp(ref_log_alpha)
            error = errors[0]
            if isinstance(error, ConfigError) and ": alpha = " in str(error):
                assert ref_alpha > sys.float_info.max * (1 - 1e-12) or ref_alpha < 5e-324
                return
            if _normal(ref_alpha):
                assert abs(alpha[0] - ref_alpha) <= 1e-12 * ref_alpha
            mq, mg = mpmath.mpf(q), mpmath.mpf(gamma)
            m_eta = [mpmath.mpf(x) for x in eta.values]
            ref_profile = [
                mpmath.exp(((mq - 1) * mpmath.log(e) - ref_log_alpha - mpmath.log(b)) / mg)
                for e, b in zip(m_eta, basis.b0.values.tolist())
            ]
            ref_withdrawal = [e * p for e, p in zip(m_eta, ref_profile)]
            if error is not None and "eta * P overflows" in str(error):
                assert max(ref_withdrawal) > sys.float_info.max * (1 - 1e-12)
                return
            if error is not None:
                assert gamma > 1 and "underflows to 0" in str(error)
                assert min(ref_profile) < 5e-324  # below the least subnormal
                return
            for values, references in [(profile[0], ref_profile),
                                       (withdrawal[0], ref_withdrawal)]:
                for value, reference in zip(values.tolist(), references):
                    if _normal(reference):
                        assert abs(value - reference) <= 1e-12 * reference
                    else:
                        assert abs(value - reference) <= 1e-12 * sys.float_info.min
        assert np.array_equal(withdrawal[0], eta.values * profile[0])

    def test_large_alpha_on_the_variable_demo(self):
        # gamma = 0.2, q = 400 and eta.amplitude = 0.99 put alpha near
        # 2.1e119, a normal double whose linear-space integral overflows;
        # alpha0 = alpha^(1/(1-gamma)) amplifies alpha's relative error by
        # its condition number 1/|1-gamma|
        text = VARIABLE_DEMO.read_text()
        for old, new in [("gamma = 0.5", "gamma = 0.2"), ("q = 0.5", "q = 400.0"),
                         ("eta.amplitude = 0.1", "eta.amplitude = 0.99"),
                         ("rho = 0.6", "rho = 1.5")]:
            text = text.replace(old, new)
        grid, params, _ = parse_config(text).model()
        basis = ak.eigendecompose(ak.assemble_generator(params, grid))
        sol = ak.solve_hjb(basis, params)
        alpha0 = ak.hjb_summary(sol)["alpha0"]
        with mpmath.workdps(40):
            _, ref_log_alpha = _reference_logs(basis, params.eta, params.q, 0.2, 1.5)
            ref_alpha = mpmath.exp(ref_log_alpha)
            ref_alpha0 = mpmath.exp(ref_log_alpha / mpmath.mpf(0.8))
        assert 1e119 < sol.alpha < 1e120 and 1e149 < alpha0 < 1e150
        assert abs(sol.alpha - ref_alpha) <= 1e-12 * ref_alpha
        assert abs(alpha0 - ref_alpha0) <= (1e-12 / 0.8 + 1e-15) * ref_alpha0


class TestControlPath:
    def test_time_zero(self, variable):
        path0 = ak.optimal_control_path(variable.sol, variable.K0, np.array([0.0]))
        base = ak.feedback_control(variable.sol, variable.K0)
        np.testing.assert_allclose(path0, base.values[None, :], rtol=1e-15)

    def test_exponential_factorization(self, variable):
        sol = variable.sol
        c_t, c_ts = ak.optimal_control_path(sol, variable.K0, np.array([1.3, 1.3 + 0.9]))
        np.testing.assert_allclose(c_ts, np.exp(sol.g * 0.9) * c_t, rtol=1e-12)

    def test_homogeneous_closed_form(self, window):
        # e^(g t) (A - g)/(2*pi) * integral(K0), constant in theta
        t = 1.7
        path = ak.optimal_control_path(window.sol, window.K0, np.array([t]))
        integral = window.grid.weight * float(window.K0.values.sum())
        expected = math.exp(window.sol.g * t) * (1.0 - window.sol.g) / TWO_PI * integral
        np.testing.assert_allclose(path, expected, rtol=1e-10)

    def test_rows_follow_times(self, variable):
        times = np.array([0.0, 0.5, 2.0])
        rows = ak.optimal_control_path(variable.sol, variable.K0, times)
        assert rows.shape == (3, variable.grid.n_points)
        base = ak.feedback_control(variable.sol, variable.K0).values
        np.testing.assert_allclose(rows, np.exp(variable.sol.g * times)[:, None] * base,
                                   rtol=1e-15)

    def test_rejects_negative_time_and_scalars(self, variable):
        with pytest.raises(ValueError):
            ak.optimal_control_path(variable.sol, variable.K0, np.array([0.0, -1.0]))
        with pytest.raises(ValueError):
            ak.optimal_control_path(variable.sol, variable.K0, 1.0)

    def test_half_space_guard(self, variable):
        outside = GridFunction.constant(variable.grid, -1.0)
        with pytest.raises(HalfSpaceError):
            ak.optimal_control_path(variable.sol, outside, np.array([0.0]))


class TestHamiltonianAndUtility:
    def test_supremum_dominates_random_consumption(self, variable):
        # brute-force check of the sup definition over 100 random z >= 0
        sol, basis = variable.sol, variable.basis
        x = variable.K0
        h = ak.hamiltonian(sol, x)
        marginal = sol.alpha * inner_l2(x, basis.b0) ** (-variable.params.gamma)
        rng = np.random.default_rng(17)
        for _ in range(100):
            z = GridFunction(basis.grid, rng.random(basis.grid.n_points) * rng.uniform(0.1, 3.0))
            candidate = ak.utility(variable.params, z.values) - marginal * inner_l2(
                variable.params.eta * z, basis.b0
            )
            assert candidate <= h + 1e-12 * abs(h)

    def test_first_order_condition(self, variable):
        # f z^(-gamma) - alpha <x,b0>^(-gamma) eta b0 vanishes at z = Phi(x)
        sol, params, basis = variable.sol, variable.params, variable.basis
        x = variable.K0
        z = ak.feedback_control(sol, x)
        f = hjb.consumption_weight(params)
        lhs = f * z.values ** (-params.gamma)
        rhs = (
            sol.alpha
            * inner_l2(x, basis.b0) ** (-params.gamma)
            * params.eta.values
            * basis.b0.values
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_scaling(self, variable):
        sol = variable.sol
        h1 = ak.hamiltonian(sol, variable.K0)
        h2 = ak.hamiltonian(sol, 2.0 * variable.K0)
        assert h2 == pytest.approx(2.0 ** (1.0 - variable.params.gamma) * h1, rel=1e-12)

    def test_utility_sign_and_finiteness(self, variable, gamma2):
        z = ak.feedback_control(variable.sol, variable.K0)
        assert ak.utility(variable.params, z.values) > 0
        z2 = ak.feedback_control(gamma2.sol, gamma2.K0)
        u2 = ak.utility(gamma2.params, z2.values)
        assert np.isfinite(u2) and u2 < 0

    def test_utility_zero_consumption(self, window, gamma2):
        zero = np.zeros(window.grid.n_points)
        assert ak.utility(window.params, zero) == 0.0
        assert ak.utility(gamma2.params, zero) == float("-inf")

    def test_utility_batch_of_rows(self, variable, gamma2):
        # one utility per row; a zero node makes only its own row -inf
        z = ak.feedback_control(gamma2.sol, gamma2.K0).values
        rows = np.stack([z, 2.0 * z, np.where(np.arange(z.size) == 3, 0.0, z)])
        u = ak.utility(gamma2.params, rows)
        assert u.shape == (3,)
        assert u[0] == ak.utility(gamma2.params, z)
        assert u[1] == pytest.approx(2.0 ** -1.0 * u[0], rel=1e-12)
        assert u[2] == float("-inf")
        with pytest.raises(ValueError):
            ak.utility(variable.params, -rows)
        with pytest.raises(ValueError):
            ak.utility(variable.params, rows[:, :-1])

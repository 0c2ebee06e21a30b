import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import akgrowth as ak
from akgrowth import GridFunction
from akgrowth.stability import _log_slope, bound_constant

TWO_PI = 2.0 * np.pi


def explicit_M(pd):
    """M = 1 + sup|w| * integral(beta), as ``convergence_bound_check`` takes it."""
    return float(bound_constant(pd.w.values, pd.beta.values, pd.basis.grid.weight))


class TestBoundConstant:
    def test_homogeneous_M_is_two(self, window):
        assert explicit_M(window.pd) == pytest.approx(2.0, abs=1e-10)

    def test_M_at_least_one(self, variable):
        assert explicit_M(variable.pd) >= 1.0


class TestConvergenceBound:
    def test_steady_initial_condition(self, window):
        pd, clo = window.pd, window.clo
        x0 = GridFunction(window.grid, 3.0 * pd.w.values)
        traj = ak.simulate(clo, x0, 5.0, 100)
        report = ak.convergence_bound_check(traj, pd)
        assert report.deviations.max() < 1e-8
        assert report.bound_satisfied

    def test_single_mode_decay_rate(self, window):
        # K0 = c (1 + 0.3 cos theta): the deviation is a single eigenmode and
        # decays exactly like e^((lambda1 - g) t)
        c = 2.0
        x0 = GridFunction.from_callable(window.grid, lambda t: c * (1 + 0.3 * np.cos(t)))
        traj = ak.simulate(window.clo, x0, 10.0, 200)
        report = ak.convergence_bound_check(traj, window.pd)
        target = window.basis.lambda1 - window.sol.g
        assert report.bound_satisfied
        assert report.fitted_rate == pytest.approx(target, rel=0.01)
        # upper envelope: decay may only be faster than the bound rate
        assert report.fitted_rate <= -report.rate + 0.05 * abs(report.rate)

    def test_bound_holds_window_run(self, window):
        traj = ak.simulate(window.clo, window.K0, 10.0, 200)
        report = ak.convergence_bound_check(traj, window.pd)
        assert report.bound_satisfied
        assert report.max_bound_violation <= 0.0
        assert report.M == pytest.approx(2.0, abs=1e-10)
        assert report.dominance_ok

    def test_bound_holds_variable_run(self, variable):
        traj = ak.simulate(variable.clo, variable.K0, 8.0, 160)
        report = ak.convergence_bound_check(traj, variable.pd)
        assert report.bound_satisfied
        assert report.fitted_rate <= -report.rate + 0.05 * abs(report.rate)
        np.testing.assert_allclose(
            report.steady_state.values,
            ak.inner_l2(variable.K0, variable.pd.beta) * variable.pd.w.values,
        )


class TestAdmissibilityCondition:
    def test_steady_state_trivially_admissible(self, variable_mild):
        pd = variable_mild.pd
        assert pd.w.values.min() > 0
        M = explicit_M(pd)
        x0 = GridFunction(variable_mild.grid, 2.0 * pd.w.values)
        assert ak.admissibility_condition(pd, x0, M)

    def test_negative_w_disqualifies(self, variable):
        # strong variation makes inf w < 0, so the certificate is unavailable
        pd = variable.pd
        assert pd.w.values.min() < 0
        M = explicit_M(pd)
        assert not ak.admissibility_condition(pd, variable.K0, M)

    def test_homogeneous_reduction_to_mean_condition(self, window):
        # with M = 2 the condition reads 2*sup|K0 - mean| <= mean
        pd = window.pd
        M = explicit_M(pd)
        for amplitude, expected in [(0.6, False), (0.4, True)]:
            K0 = GridFunction.from_callable(
                window.grid, lambda t: 1.0 + amplitude * np.cos(t)
            )
            mean = window.grid.weight * float(K0.values.sum()) / TWO_PI
            direct = 2.0 * ak.sup_norm(K0 - mean) <= mean
            assert direct is expected
            assert ak.admissibility_condition(pd, K0, M) is expected

    def test_condition_implies_positivity(self, window):
        # the sufficient condition certifies strict positivity of the whole path
        traj = ak.simulate(window.clo, window.K0, 10.0, 200)
        report = ak.convergence_bound_check(traj, window.pd)
        assert report.admissibility_condition
        assert report.admissible


class TestPositivityAudit:
    def test_negative_node_fails_at_start(self, window):
        values = np.ones(window.grid.n_points)
        values[5] = -0.01
        x0 = GridFunction(window.grid, values)
        traj = ak.simulate(window.clo, x0, 1.0, 5)
        assert not ak.convergence_bound_check(traj, window.pd).admissible

    def test_steady_positive_path(self, variable_mild):
        x0 = GridFunction(variable_mild.grid, 1.5 * variable_mild.pd.w.values)
        assert variable_mild.pd.w.values.min() > 0
        traj = ak.simulate(variable_mild.clo, x0, 5.0, 50)
        assert ak.convergence_bound_check(traj, variable_mild.pd).admissible


class TestDominanceWindow:
    def test_window_equals_wellposed_plus_dominance(self, window):
        # for A = A0 = 1: A0 (1-gamma) < rho < A0 (1-gamma) + sigma gamma
        params, basis = window.params, window.basis
        low = 1.0 - params.gamma
        inside = low < params.rho < low + params.sigma * params.gamma
        posed = ak.wellposed(params.rho, params.gamma, basis.lambda0)
        dominant = window.sol.g > basis.lambda1
        assert inside == (posed and dominant)


class TestLogSlope:
    @settings(max_examples=200)
    @given(log_horizon=st.floats(-5.0, 3.0), rate=st.floats(-3.0, 3.0),
           n_steps=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
    def test_keeps_the_bits_of_the_unscaled_fit(self, log_horizon, rate, n_steps, seed):
        # time scaled by a power of two is exact: the slope equals the
        # unscaled fit wherever that one runs
        times = np.linspace(0.0, 10.0**log_horizon, n_steps + 1)
        noise = np.random.default_rng(seed).uniform(0.5, 2.0, times.size)
        values = np.exp(rate * times / times[-1]) * noise
        expected = float(np.polyfit(times, np.log(values), 1)[0])
        assert _log_slope(times, values) == expected

    def test_tiny_horizon(self):
        # squares of times near 1e-170 underflow in the unscaled fit
        times = np.linspace(0.0, 1e-170, 11)
        assert _log_slope(times, np.exp(1e169 * times)) == pytest.approx(1e169, rel=1e-12)

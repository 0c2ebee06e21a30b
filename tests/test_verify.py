import dataclasses
import math

import numpy as np
import pytest

import akgrowth as ak
from akgrowth import GridFunction, HalfSpaceError, TailDivergenceError, inner_l2


class TestPayoff:
    def test_null_control_zero_payoff(self, window):
        zero = GridFunction.constant(window.grid, 0.0)
        result = ak.payoff(window.params, lambda t: zero, T=5.0, nodes_per_unit=16)
        assert result.value == 0.0

    def test_null_control_gamma2_diverges(self, gamma2):
        zero = GridFunction.constant(gamma2.grid, 0.0)
        result = ak.payoff(gamma2.params, lambda t: zero, T=2.0, nodes_per_unit=16)
        assert result.value == float("-inf")
        assert ak.value_function(gamma2.sol, gamma2.K0) < 0

    def test_optimal_payoff_matches_value(self, window):
        sol, K0 = window.sol, window.K0
        T = ak.default_horizon(sol, K0)
        tail = ak.closed_form_tail(sol, K0, T)
        result = ak.payoff(
            window.params, lambda t: ak.optimal_control_path(sol, K0, t), T,
            nodes_per_unit=64, tail_bound=tail,
        )
        v = ak.value_function(sol, K0)
        assert tail < 1e-8 * abs(v) * 1.0000001
        assert abs(result.value - v) / abs(v) < max(1e-6, tail / abs(v))

    def test_optimal_payoff_matches_value_gamma2(self, gamma2):
        sol, K0 = gamma2.sol, gamma2.K0
        T = ak.default_horizon(sol, K0)
        result = ak.payoff(
            gamma2.params, lambda t: ak.optimal_control_path(sol, K0, t), T,
            nodes_per_unit=64,
        )
        v = ak.value_function(sol, K0)
        assert abs(result.value - v) / abs(v) < 1e-6

    def test_scaling_homogeneity(self, window):
        # J(2c) = 2^(1-gamma) J(c) by homogeneity of the utility
        sol, K0 = window.sol, window.K0
        base = lambda t: ak.optimal_control_path(sol, K0, t)
        doubled = lambda t: 2.0 * ak.optimal_control_path(sol, K0, t)
        J1 = ak.payoff(window.params, base, T=8.0, nodes_per_unit=32).value
        J2 = ak.payoff(window.params, doubled, T=8.0, nodes_per_unit=32).value
        assert J2 == pytest.approx(2 ** 0.5 * J1, rel=1e-12)

    def test_tail_divergence_guard(self, window):
        broken = dataclasses.replace(window.sol, g=1e6)
        with pytest.raises(TailDivergenceError):
            ak.closed_form_tail(broken, window.K0, 10.0)
        with pytest.raises(TailDivergenceError):
            ak.default_horizon(broken, window.K0)

    def test_invalid_horizon(self, window):
        zero = GridFunction.constant(window.grid, 0.0)
        with pytest.raises(ValueError):
            ak.payoff(window.params, lambda t: zero, T=0.0)


class TestOpenLoop:
    def test_reproduces_closed_loop(self, window):
        sol, clo, K0 = window.sol, window.clo, window.K0
        times = np.linspace(0.0, 5.0, 21)
        states = ak.open_loop_trajectory(
            window.basis, window.params, K0,
            lambda t: ak.optimal_control_path(sol, K0, t), times,
        )
        traj = ak.simulate(clo, K0, 5.0, 20)
        worst = max(
            np.abs(a.values - b).max() for a, b in zip(states, traj.states)
        )
        assert worst < 1e-7

    def test_reproduces_closed_loop_variable(self, variable):
        sol, clo, K0 = variable.sol, variable.clo, variable.K0
        times = np.linspace(0.0, 4.0, 17)
        states = ak.open_loop_trajectory(
            variable.basis, variable.params, K0,
            lambda t: ak.optimal_control_path(sol, K0, t), times,
        )
        traj = ak.simulate(clo, K0, 4.0, 16)
        worst = max(
            np.abs(a.values - b).max() for a, b in zip(states, traj.states)
        )
        assert worst < 1e-7

    def test_consumption_monotonicity(self, window):
        # larger consumption everywhere leaves strictly less capital everywhere
        K0 = window.K0
        times = np.linspace(0.0, 3.0, 13)
        c1 = lambda t: ak.optimal_control_path(window.sol, K0, t)
        c2 = lambda t: ak.optimal_control_path(window.sol, K0, t) + 0.05 * math.exp(-t)
        x1 = ak.open_loop_trajectory(window.basis, window.params, K0, c1, times)
        x2 = ak.open_loop_trajectory(window.basis, window.params, K0, c2, times)
        for a, b in zip(x1, x2):
            assert np.all(a.values - b.values >= -1e-10)

    def test_time_grid_validation(self, window):
        with pytest.raises(ValueError):
            ak.open_loop_trajectory(
                window.basis, window.params, window.K0,
                lambda t: window.K0, np.array([0.5, 1.0]),
            )


class TestOptimalityAudit:
    def test_equality_only(self, window):
        audit = ak.optimality_audit(window.sol, window.K0, 0, seed=1)
        assert audit.n_perturbations == 0
        assert audit.rel_gap < 1e-6
        assert audit.all_dominated
        assert audit.max_perturbed_J == float("-inf")

    def test_perturbations_dominated(self, window):
        audit = ak.optimality_audit(window.sol, window.K0, 6, seed=99)
        v = audit.v
        assert audit.all_dominated
        assert audit.max_perturbed_J <= v + 1e-6 * abs(v)
        # perturbations genuinely move the payoff (strict concavity margin)
        assert audit.max_perturbed_J < v
        # discounted value dies along every sampled path, within the
        # admissible-envelope rate rho - lambda0*(1-gamma)
        envelope = ak.perturbed_transversality_envelope(window.sol, audit.horizon)
        assert audit.max_discounted_terminal_rel <= envelope

    def test_deterministic_under_seed(self, window):
        a = ak.optimality_audit(window.sol, window.K0, 3, seed=5)
        b = ak.optimality_audit(window.sol, window.K0, 3, seed=5)
        assert [s.payoff for s in a.samples] == [s.payoff for s in b.samples]

    def test_zero_amplitude_perturbation_is_optimal_control(self, window):
        from akgrowth.verify import _perturbed_control

        control, _ = _perturbed_control(window.sol, window.K0, 0.0, 1, 0.0)
        T = 8.0
        J_flat = ak.payoff(window.params, control, T, nodes_per_unit=32).value
        J_opt = ak.payoff(
            window.params,
            lambda t: ak.optimal_control_path(window.sol, window.K0, t),
            T,
            nodes_per_unit=32,
        ).value
        assert J_flat == J_opt

    def test_gamma2_perturbations(self, gamma2):
        audit = ak.optimality_audit(gamma2.sol, gamma2.K0, 4, seed=7)
        assert audit.all_dominated
        assert audit.rel_gap < 1e-6
        envelope = ak.perturbed_transversality_envelope(gamma2.sol, audit.horizon)
        assert audit.max_discounted_terminal_rel <= envelope

    def test_variable_eta_couples_into_ground_mode(self, variable_mild):
        # with spatially varying eta the perturbations shift <x, b0>, so the
        # discounted terminal value decays at the admissible-envelope rate
        # rho - lambda0*(1-gamma), slower than along the feedback path
        pipe = variable_mild
        audit = ak.optimality_audit(pipe.sol, pipe.K0, 2, seed=11)
        assert audit.all_dominated
        envelope = ak.perturbed_transversality_envelope(pipe.sol, audit.horizon)
        assert 0.0 < audit.max_discounted_terminal_rel <= envelope


class TestHjbResidual:
    def test_small_on_random_states(self, variable):
        states = ak.sample_halfspace_states(variable.basis, 20, seed=21)
        worst = max(ak.hjb_residual(variable.sol, variable.basis, s) for s in states)
        assert worst < 1e-9

    def test_cleanest_on_b0(self, window):
        assert ak.hjb_residual(window.sol, window.basis, window.basis.b0) < 1e-10

    def test_sensitive_to_alpha(self, window):
        # a 1 percent alpha error must light up the residual (guards vacuity)
        broken = dataclasses.replace(window.sol, alpha=window.sol.alpha * 1.01)
        residual = ak.hjb_residual(broken, window.basis, window.K0)
        assert residual > 1e-3

    def test_rejects_foreign_basis(self, window):
        other = ak.eigendecompose(window.op)
        with pytest.raises(ak.GridMismatchError):
            ak.hjb_residual(window.sol, other, window.K0)

    def test_half_space_guard(self, window):
        with pytest.raises(HalfSpaceError):
            ak.hjb_residual(window.sol, window.basis, GridFunction.constant(window.grid, -1.0))


class TestTransversality:
    def test_optimal_path_passes(self, window):
        T = ak.default_horizon(window.sol, window.K0)
        traj = ak.simulate(window.clo, window.K0, T, 200)
        assert ak.transversality_check(window.sol, traj)

    def test_decay_exponent(self, window):
        # log of e^(-rho t) v(K(t)) falls at exactly -(rho - g(1-gamma))
        sol = window.sol
        traj = ak.simulate(window.clo, window.K0, 10.0, 100)
        discounted = np.array(
            [
                math.exp(-window.params.rho * t)
                * ak.value_function(sol, GridFunction(window.grid, state))
                for t, state in zip(traj.times, traj.states)
            ]
        )
        slope = np.polyfit(traj.times, np.log(np.abs(discounted)), 1)[0]
        expected = -(window.params.rho - sol.g * (1.0 - window.params.gamma))
        assert slope == pytest.approx(expected, abs=1e-6)

    def test_exponent_arithmetic_at_zero_growth(self):
        # sigma=1, A=1, gamma=0.5, rho=1: g=0 so the exponent is rho itself
        from conftest import build_pipeline

        pipe = build_pipeline(
            64, sigma=1.0, rho=1.0, gamma=0.5, q=0.0,
            A_fn=lambda t: np.ones_like(t),
            eta_fn=lambda t: np.ones_like(t),
            K0_fn=lambda t: np.ones_like(t),
        )
        assert pipe.sol.g == pytest.approx(0.0, abs=1e-12)
        exponent = pipe.params.rho - pipe.sol.g * (1.0 - pipe.params.gamma)
        assert exponent == pytest.approx(1.0, abs=1e-12)

    def test_short_horizon_fails(self, window):
        traj = ak.simulate(window.clo, window.K0, 1.0, 20)
        assert not ak.transversality_check(window.sol, traj)


class TestHalfSpaceSampling:
    def test_samples_lie_in_half_space(self, variable):
        for state in ak.sample_halfspace_states(variable.basis, 10, seed=3):
            assert inner_l2(state, variable.basis.b0) > 0

import dataclasses
import importlib.util
import json
import math
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import akgrowth as ak
from akgrowth import GridFunction, HalfSpaceError, TailDivergenceError, inner_l2
from akgrowth.config import load_config, parse_config
from akgrowth.verify import (
    _composite_gauss_legendre,
    _feedback_payoff,
    _feedback_utility,
    _perturbation_family,
)

from conftest import (
    audit_draws,
    build_pipeline,
    closed_form_pairing,
    largest_discounted_terminal_value,
    pairing_shift,
    perturbed_control,
)
from oracles import perturbation_payoff, perturbation_payoff_mp, sample_halfspace_states

ROOT = Path(__file__).resolve().parents[1]


def _payoff_oracle(params, control, T, nodes_per_unit):
    """Reference payoff: one control row and one utility per time node."""
    nodes, weights = _composite_gauss_legendre(T, nodes_per_unit)
    gamma = params.gamma
    f = params.eta.values ** params.q
    total = 0.0
    for t, wt in zip(nodes, weights):
        z = control(np.array([t]))[0]
        if gamma > 1 and np.any(z == 0.0):
            return float("-inf")
        u = params.grid.weight * float((z ** (1.0 - gamma) / (1.0 - gamma) * f).sum())
        total += wt * math.exp(-params.rho * t) * u
    return total


def _open_loop_oracle(basis, params, x0, control, times, nodes_per_unit=64):
    """Reference mild solution: one projection and one decay per interval."""
    lam = basis.eigenvalues
    weight = basis.grid.weight
    eta = params.eta.values
    coeffs = basis.coefficients(x0)
    states = [basis.vectors @ coeffs]
    gl_x, gl_w = np.polynomial.legendre.leggauss(
        max(4, math.ceil(nodes_per_unit * float(np.diff(times).max())))
    )
    for t0, t1 in zip(times[:-1], times[1:]):
        dt = t1 - t0
        s_nodes = (t0 + t1) / 2.0 + dt / 2.0 * gl_x
        s_weights = dt / 2.0 * gl_w
        forcing_coeffs = weight * ((eta * control(s_nodes)) @ basis.vectors)
        decay = np.exp(lam[None, :] * (t1 - s_nodes)[:, None])
        coeffs = np.exp(lam * dt) * coeffs - s_weights @ (decay * forcing_coeffs)
        states.append(basis.vectors @ coeffs)
    return np.array(states)


def _p0(sol, x0):
    """The pairing <x0, b0> that the audit's private helpers take."""
    return inner_l2(x0, sol.basis.b0)


def _null_control(grid):
    return lambda t: np.zeros((t.size, grid.n_points))


class TestPayoff:
    def test_null_control_zero_payoff(self, window):
        result = ak.payoff(window.params, _null_control(window.grid), T=5.0, nodes_per_unit=16)
        assert result == 0.0

    def test_null_control_gamma2_diverges(self, gamma2):
        result = ak.payoff(gamma2.params, _null_control(gamma2.grid), T=2.0, nodes_per_unit=16)
        assert result == float("-inf")
        assert ak.value_function(gamma2.sol, gamma2.K0) < 0

    def test_optimal_payoff_matches_value(self, window):
        sol, K0 = window.sol, window.K0
        audit = ak.optimality_audit(sol, K0, 0, 0)
        T, tail = audit.horizon, audit.tail_bound
        result = ak.payoff(
            window.params, lambda t: ak.optimal_control_path(sol, K0, t), T,
            nodes_per_unit=64,
        )
        v = ak.value_function(sol, K0)
        assert tail < 1e-8 * abs(v) * 1.0000001
        assert abs(result - v) / abs(v) < max(1e-6, tail / abs(v))

    def test_optimal_payoff_matches_value_gamma2(self, gamma2):
        sol, K0 = gamma2.sol, gamma2.K0
        T = ak.optimality_audit(sol, K0, 0, 0).horizon
        result = ak.payoff(
            gamma2.params, lambda t: ak.optimal_control_path(sol, K0, t), T,
            nodes_per_unit=64,
        )
        v = ak.value_function(sol, K0)
        assert abs(result - v) / abs(v) < 1e-6

    def test_scaling_homogeneity(self, window):
        # J(2c) = 2^(1-gamma) J(c) by homogeneity of the utility
        sol, K0 = window.sol, window.K0
        base = lambda t: ak.optimal_control_path(sol, K0, t)
        doubled = lambda t: 2.0 * ak.optimal_control_path(sol, K0, t)
        J1 = ak.payoff(window.params, base, T=8.0, nodes_per_unit=32)
        J2 = ak.payoff(window.params, doubled, T=8.0, nodes_per_unit=32)
        assert J2 == pytest.approx(2 ** 0.5 * J1, rel=1e-12)

    def test_tail_and_horizon_need_the_half_space(self, window):
        outside = GridFunction.constant(window.grid, -1.0)
        with pytest.raises(HalfSpaceError):
            ak.optimality_audit(window.sol, outside, 0, 0)

    def test_tail_divergence_guard(self, window):
        broken = dataclasses.replace(window.sol, g=1e6)
        with pytest.raises(TailDivergenceError):
            ak.optimality_audit(broken, window.K0, 0, 0)

    def test_invalid_horizon(self, window):
        with pytest.raises(ValueError):
            ak.payoff(window.params, _null_control(window.grid), T=0.0)


class TestOpenLoop:
    def test_reproduces_closed_loop(self, window):
        sol, clo, K0 = window.sol, window.clo, window.K0
        times = np.linspace(0.0, 5.0, 21)
        states = ak.open_loop_trajectory(
            window.basis, window.params, K0,
            lambda t: ak.optimal_control_path(sol, K0, t), times,
        )
        traj = ak.simulate(clo, K0, 5.0, 20)
        assert states.shape == traj.states.shape
        assert not states.flags.writeable
        assert np.abs(states - traj.states).max() < 1e-7

    def test_reproduces_closed_loop_variable(self, variable):
        sol, clo, K0 = variable.sol, variable.clo, variable.K0
        times = np.linspace(0.0, 4.0, 17)
        states = ak.open_loop_trajectory(
            variable.basis, variable.params, K0,
            lambda t: ak.optimal_control_path(sol, K0, t), times,
        )
        traj = ak.simulate(clo, K0, 4.0, 16)
        assert np.abs(states - traj.states).max() < 1e-7

    def test_consumption_monotonicity(self, window):
        # larger consumption everywhere leaves strictly less capital everywhere
        K0 = window.K0
        times = np.linspace(0.0, 3.0, 13)
        c1 = lambda t: ak.optimal_control_path(window.sol, K0, t)
        c2 = lambda t: ak.optimal_control_path(window.sol, K0, t) + 0.05 * np.exp(-t)[:, None]
        x1 = ak.open_loop_trajectory(window.basis, window.params, K0, c1, times)
        x2 = ak.open_loop_trajectory(window.basis, window.params, K0, c2, times)
        assert np.all(x1 - x2 >= -1e-10)

    def test_time_grid_validation(self, window):
        with pytest.raises(ValueError):
            ak.open_loop_trajectory(
                window.basis, window.params, window.K0,
                lambda t: window.K0, np.array([0.5, 1.0]),
            )

    @pytest.mark.parametrize("times", [[0.5, 1.0], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
    def test_trajectory_time_grid_validation(self, window, times):
        with pytest.raises(ValueError, match="increase strictly from 0"):
            ak.open_loop_trajectory(
                window.basis, window.params, window.K0,
                lambda t: ak.optimal_control_path(window.sol, window.K0, t),
                np.array(times),
            )

    def test_start_time_alone(self, window):
        states = ak.open_loop_trajectory(
            window.basis, window.params, window.K0,
            lambda t: ak.optimal_control_path(window.sol, window.K0, t), np.array([0.0]),
        )
        assert states.shape == (1, window.grid.n_points)
        np.testing.assert_allclose(states[0], window.K0.values, rtol=1e-12)

    def test_pairing_follows_feedback_growth(self, window):
        # along the feedback path <x(t), b0> = <x0, b0> e^(g t) exactly
        sol, K0 = window.sol, window.K0
        times = np.linspace(0.0, 5.0, 21)
        control = perturbed_control(sol, _p0(sol, K0), 0.0, 1, 0.0)
        states = ak.open_loop_trajectory(window.basis, window.params, K0, control, times)
        pairings = window.grid.weight * (states @ window.basis.b0.values)
        expected = inner_l2(K0, window.basis.b0) * np.exp(sol.g * times)
        assert pairings.shape == times.shape
        assert np.abs(pairings - expected).max() < 1e-9 * expected.max()


def _oracle_pipeline(gamma):
    # variable technology and population with q > 0; rho = 1 keeps every
    # gamma in the strategy well posed (lambda0 * (1 - gamma) < 1)
    return build_pipeline(
        32, sigma=1.0, rho=1.0, gamma=gamma, q=0.5,
        A_fn=lambda t: 1.0 + 0.5 * np.cos(t),
        eta_fn=lambda t: 1.0 + 0.3 * np.sin(2 * t),
        K0_fn=lambda t: 1.0 + 0.4 * np.cos(t),
    )


class TestBatchedMatchesOracle:
    """The time-batched payoff and open-loop solve against per-node loops, and
    the audit's closed forms of the perturbation family against both."""

    gammas = st.one_of(st.floats(0.3, 0.9), st.floats(1.2, 3.0))
    perturbations = dict(
        amplitude=st.floats(-0.2, 0.2),
        mode=st.integers(1, 3),
        phase=st.floats(0.0, 2.0 * np.pi),
    )

    @settings(max_examples=30)
    @given(gamma=gammas, T=st.floats(0.5, 6.0), **perturbations)
    def test_payoff(self, gamma, T, amplitude, mode, phase):
        pipe = _oracle_pipeline(gamma)
        p0 = _p0(pipe.sol, pipe.K0)
        control = perturbed_control(pipe.sol, p0, amplitude, mode, phase)
        batched = ak.payoff(pipe.params, control, T)
        reference = _payoff_oracle(pipe.params, control, T, 64)
        assert abs(batched - reference) <= 1e-12 * abs(reference)

    @settings(max_examples=30)
    @given(
        gamma=gammas,
        steps=st.lists(st.floats(0.05, 0.6), min_size=1, max_size=12),
        **perturbations,
    )
    def test_open_loop_on_nonuniform_grid(self, gamma, steps, amplitude, mode, phase):
        pipe = _oracle_pipeline(gamma)
        p0 = _p0(pipe.sol, pipe.K0)
        control = perturbed_control(pipe.sol, p0, amplitude, mode, phase)
        times = np.concatenate([[0.0], np.cumsum(steps)])
        batched = ak.open_loop_trajectory(pipe.basis, pipe.params, pipe.K0, control, times)
        reference = _open_loop_oracle(pipe.basis, pipe.params, pipe.K0, control, times)
        assert batched.shape == reference.shape
        assert np.abs(batched - reference).max() <= 1e-10 * np.abs(reference).max()

    @settings(max_examples=30)
    @given(
        gamma=gammas,
        steps=st.lists(st.floats(0.05, 0.6), min_size=1, max_size=12),
        **perturbations,
    )
    def test_pairing_matches_full_state(self, gamma, steps, amplitude, mode, phase):
        # the closed-form pairing against the numerically integrated state
        pipe = _oracle_pipeline(gamma)
        p0 = _p0(pipe.sol, pipe.K0)
        control = perturbed_control(pipe.sol, p0, amplitude, mode, phase)
        times = np.concatenate([[0.0], np.cumsum(steps)])
        pairings = closed_form_pairing(pipe.sol, p0, amplitude, mode, phase, times)
        states = ak.open_loop_trajectory(pipe.basis, pipe.params, pipe.K0, control, times)
        reference = pipe.grid.weight * (states @ pipe.basis.b0.values)
        assert pairings.shape == reference.shape
        assert np.abs(pairings - reference).max() <= 1e-9 * np.abs(reference).max()

    @settings(max_examples=30)
    @given(gamma=gammas, **perturbations)
    def test_pairing_positive_over_the_audit_horizon(self, gamma, amplitude, mode, phase):
        # every draw is admissible: the pairing stays within the factor
        # e^(|Q1|) of the feedback path's, and |Q1| <= |a| <eta P, b0>
        pipe = _oracle_pipeline(gamma)
        sol, p0 = pipe.sol, _p0(pipe.sol, pipe.K0)
        horizon = ak.optimality_audit(sol, pipe.K0, 0, 0).horizon
        times = np.linspace(0.0, horizon, 4 * math.ceil(horizon) + 1)
        pairings = closed_form_pairing(sol, p0, amplitude, mode, phase, times)
        bound = abs(amplitude) * (pipe.basis.lambda0 - sol.g)
        assert abs(pairing_shift(sol, amplitude, mode, phase)) <= bound
        assert np.all(pairings > 0.0)
        assert np.all(pairings >= math.exp(-bound) * p0 * np.exp(sol.g * times) * (1 - 1e-12))

    @settings(max_examples=30)
    @given(gamma=gammas, **perturbations)
    def test_closed_form_payoff(self, gamma, amplitude, mode, phase):
        # the closed form runs over [0, inf), the quadrature over [0, T]: the
        # integrand is at most |u0| e^|c| (1-|a|)^(-|1-gamma|) e^(-a0 t), so
        # at this T the tail past it is below 1e-13 |J|
        pipe = _oracle_pipeline(gamma)
        p0 = _p0(pipe.sol, pipe.K0)
        a0, u0 = _feedback_utility(pipe.sol, p0)
        closed, _, c = _family(pipe.sol, p0, 1.0)(*_columns([(amplitude, mode, phase)]))
        envelope = abs(u0) * math.exp(abs(c[0])) * (1.0 - abs(amplitude)) ** -abs(1.0 - gamma)
        T = math.log(envelope / (a0 * 1e-13 * abs(closed[0]))) / a0
        control = perturbed_control(pipe.sol, p0, amplitude, mode, phase)
        reference = ak.payoff(pipe.params, control, T)
        assert abs(closed[0] - reference) <= 1e-12 * abs(reference)

    @settings(max_examples=30)
    @given(gamma=gammas, T=st.floats(0.5, 40.0), nodes_per_unit=st.sampled_from([64, 128]))
    def test_feedback_payoff(self, gamma, T, nodes_per_unit):
        # the audit's scalar integrand u0 e^(-a0 t) against the dense payoff of
        # the feedback plan: both sum the same rule, so they differ by rounding
        # only, at most eps per node and summand
        pipe = _oracle_pipeline(gamma)
        a0, u0 = _feedback_utility(pipe.sol, _p0(pipe.sol, pipe.K0))
        scalar = _feedback_payoff(a0, u0, T, nodes_per_unit)
        control = partial(ak.optimal_control_path, pipe.sol, pipe.K0)
        reference = ak.payoff(pipe.params, control, T, nodes_per_unit)
        n_nodes = _composite_gauss_legendre(T, nodes_per_unit)[0].size
        bound = 4 * np.finfo(float).eps * n_nodes
        assert abs(scalar - reference) <= bound * abs(reference)


def _draw_batches(max_size):
    """Batches of (a, m, phase) draws with 0.025 <= |a| <= 0.2."""
    amplitude = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.025, 0.2)).map(
        lambda pair: pair[0] * pair[1]
    )
    draw = st.tuples(amplitude, st.integers(1, 3), st.floats(0.0, 2.0 * np.pi))
    return st.lists(draw, min_size=1, max_size=max_size)


def _family(sol, p0, T):
    """The audit's perturbation family from the pairing p0 on [0, T]."""
    return _perturbation_family(sol, p0, T, *_feedback_utility(sol, p0))


def _columns(draws):
    """The (amplitudes, modes, phases) arrays of a list of draws."""
    return tuple(np.array(column) for column in zip(*draws))


def _verify_audit_config(seed, path, monkeypatch):
    """Write the config the benchmark's verify-audit workload generates at seed."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads._write_config(path, np.random.default_rng(seed))


class TestBatchedFamily:
    """The perturbation family evaluates a batch of draws at once: against
    the per-draw series of the reference, and draw by draw."""

    gammas = st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0))

    @settings(max_examples=40, deadline=None)
    @given(gamma=gammas, T=st.floats(0.5, 40.0), draws=_draw_batches(25))
    def test_batch_matches_reference(self, gamma, T, draws):
        pipe = _oracle_pipeline(gamma)
        p0 = _p0(pipe.sol, pipe.K0)
        evaluate = _family(pipe.sol, p0, T)
        J, terminal, _ = evaluate(*_columns(draws))
        assert J.shape == terminal.shape == (len(draws),)
        for draw, J_batch, terminal_batch in zip(draws, J, terminal):
            J_ref, terminal_ref = perturbation_payoff(pipe.sol, p0, T, *draw)
            assert abs(J_batch - J_ref) <= 1e-13 * abs(J_ref)
            assert abs(terminal_batch - terminal_ref) <= 1e-13 * terminal_ref
            alone = evaluate(*_columns([draw]))[0][0]
            assert abs(J_batch - alone) <= 1e-14 * abs(alone)

    @pytest.mark.parametrize("T", [0.3, 1.0, 36.8, 103.65, 1e4])
    @pytest.mark.parametrize("a0", [1e-3, 0.18, 5.0, 50.0])
    @pytest.mark.parametrize("nodes_per_unit", [64, 128])
    def test_factored_feedback_payoff(self, T, a0, nodes_per_unit):
        # the geometric-series form of the composite rule against its node sum;
        # T = 1e4 takes the 4096-interval cap, except at a0 = 50, where the
        # factored rule takes intervals of 64/a0 and both sums are exact to rounding
        u0 = -1.7
        nodes, weights = _composite_gauss_legendre(T, nodes_per_unit)
        reference = u0 * float(weights @ np.exp(-a0 * nodes))
        factored = _feedback_payoff(a0, u0, T, nodes_per_unit)
        assert abs(factored - reference) <= 4 * np.finfo(float).eps * nodes.size * abs(reference)

    def test_intervals_resolve_a_fast_decay(self):
        # a0 = 1246 on a horizon floored at 1: intervals of at most 64/a0 keep
        # the rule near rounding, where one unit interval is off by 2e-5
        a0, T = 1246.0, 1.0
        exact = -math.expm1(-a0 * T) / a0
        for nodes_per_unit in (64, 128):
            assert abs(_feedback_payoff(a0, 1.0, T, nodes_per_unit) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize(
        "kind, name",
        [("demo", "config_homogeneous"), ("demo", "config_variable"),
         ("golden", "homogeneous"), ("golden", "variable"),
         *(("verify-audit", seed) for seed in range(1, 11))],
    )
    def test_draws_match_mp_twin(self, kind, name, tmp_path, monkeypatch):
        # on the shipped configs and the benchmark's, every draw's payoff is
        # within 1e-13 of its alternating series summed in mpmath
        if kind == "demo":
            run = load_config(ROOT / "demos" / f"{name}.cfg")
        elif kind == "golden":
            run = dataclasses.replace(load_config(ROOT / "tests" / "golden" / f"{name}.cfg"),
                                      n_points=32)
        else:
            run = load_config(_verify_audit_config(name, tmp_path / "verify.cfg", monkeypatch))
        grid, params, K0 = run.model()
        sol = ak.solve_hjb(ak.eigendecompose(ak.assemble_generator(params, grid)), params)
        audit = ak.optimality_audit(sol, K0, run.n_perturbations, run.seed)
        p0 = _p0(sol, K0)
        for s in audit.samples:
            exact = perturbation_payoff_mp(sol, p0, s.amplitude, s.mode, s.phase)
            assert abs(s.payoff - exact) <= 1e-13 * abs(exact)

    @settings(max_examples=20)
    @example(gamma=0.2, eta_amplitude=0.9, rho=40.0)
    @example(gamma=0.2, eta_amplitude=0.9, rho=60.0)
    @example(gamma=0.2, eta_amplitude=0.9, rho=250.0)
    @given(
        gamma=st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0)),
        eta_amplitude=st.floats(0.0, 0.9),
        rho=st.floats(0.5, 300.0),
    )
    def test_audit_matches_mp_twin(self, gamma, eta_amplitude, rho):
        # the variable demo's audit, with strong eta variation and large rho
        # reaching c = (1-gamma) Q1 from about -100 to +120, where the
        # alternating series cancels in floats and its mpmath twin does not
        text = (ROOT / "demos" / "config_variable.cfg").read_text()
        for old, new in [("eta.amplitude = 0.1", f"eta.amplitude = {eta_amplitude!r}"),
                         ("gamma = 0.5", f"gamma = {gamma!r}"), ("rho = 0.6", f"rho = {rho!r}")]:
            text = text.replace(old, new)
        run = parse_config(text)
        grid, params, K0 = run.model()
        pair = ak.principal_pair(ak.assemble_generator(params, grid))
        assume(rho > pair.lambda0 * (1.0 - gamma) + 0.05)
        sol = ak.solve_hjb(pair, params)
        audit = ak.optimality_audit(sol, K0, run.n_perturbations, run.seed)
        p0 = _p0(sol, K0)
        for s in audit.samples:
            exact = perturbation_payoff_mp(sol, p0, s.amplitude, s.mode, s.phase)
            assert abs(s.payoff - exact) <= 1e-12 * abs(exact)


def test_composite_rule_is_capped():
    # near the well-posedness bound the audit horizon grows without limit;
    # past 4096 intervals each one spans more than a unit of time instead
    nodes, weights = _composite_gauss_legendre(1e4, 64)
    assert nodes.size == weights.size == 4096 * 64
    assert 0.0 < nodes.min() and nodes.max() < 1e4
    assert weights.sum() == pytest.approx(1e4, rel=1e-12)


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
        control = perturbed_control(window.sol, _p0(window.sol, window.K0), 0.0, 1, 0.0)
        T = 8.0
        J_flat = ak.payoff(window.params, control, T, nodes_per_unit=32)
        J_opt = ak.payoff(
            window.params,
            lambda t: ak.optimal_control_path(window.sol, window.K0, t),
            T,
            nodes_per_unit=32,
        )
        assert J_flat == J_opt

    @pytest.mark.parametrize("name", ["variable", "gamma2"])
    def test_draw_sequence_matches_reference(self, name, request, monkeypatch):
        # every draw is admissible, so the samples are the first n triples of
        # the seeded stream, and one batched evaluation carries them all in
        # draw order
        pipe = request.getfixturevalue(name)
        family = ak.verify._perturbation_family
        calls = []

        def spy(*args):
            evaluate = family(*args)

            def counted(amplitudes, modes, phases):
                calls.append(list(zip(amplitudes.tolist(), modes.tolist(), phases.tolist())))
                return evaluate(amplitudes, modes, phases)

            return counted

        monkeypatch.setattr(ak.verify, "_perturbation_family", spy)
        audit = ak.optimality_audit(pipe.sol, pipe.K0, 8, seed=3)
        draws = [(s.amplitude, s.mode, s.phase) for s in audit.samples]
        assert draws == audit_draws(8, seed=3)
        assert calls == [draws]

    def test_feedback_utility_once_per_audit(self, variable, monkeypatch):
        # U(c_hat0) feeds the horizon, J_opt and the perturbation family
        calls = []
        feedback_utility = ak.verify._feedback_utility

        def counted(*args):
            calls.append(args)
            return feedback_utility(*args)

        monkeypatch.setattr(ak.verify, "_feedback_utility", counted)
        ak.optimality_audit(variable.sol, variable.K0, 5, seed=3)
        assert len(calls) == 1

    @pytest.mark.parametrize("amplitude, c_size", [(0.1, 1000.0), (math.nan, 1.0)])
    def test_unrepresentable_pairing_exponent_names_the_draw(self, variable, amplitude,
                                                              c_size):
        # c is linear in the feedback profile: scaled so that |c| = 1000,
        # past log(float max) ~ 709.8, e^|c| leaves the float range; a nan c
        # has no series to sum either.  The withdrawal eta * P scales with it
        sol = variable.sol
        c = (1.0 - sol.params.gamma) * pairing_shift(sol, 0.1, 2, 0.5)
        scale = c_size / abs(c)
        scaled = dataclasses.replace(
            sol,
            feedback_profile=GridFunction(sol.basis.grid, sol.feedback_profile.values * scale),
            withdrawal=GridFunction(sol.basis.grid, sol.withdrawal.values * scale),
        )
        evaluate = _family(scaled, _p0(sol, variable.K0), 5.0)
        with pytest.raises(ak.SeriesCancellationError,
                           match=rf"^perturbation 0 \(a = {amplitude}, m = 2, phi = 0\.5\): "
                                 r".* = (-?1000\.0\d*|-?999\.99\d*|nan) needs terms near e\^\|c\|"):
            evaluate(np.array([amplitude]), np.array([2.0]), np.array([0.5]))

    @pytest.mark.parametrize("source", ["fixture", "demo_config"])
    def test_discounted_terminal_value(self, window, source):
        if source == "fixture":
            sol, K0 = window.sol, window.K0
        else:
            run = load_config(ROOT / "demos" / "config_homogeneous.cfg")
            grid, params, K0 = run.model()
            sol = ak.solve_hjb(ak.eigendecompose(ak.assemble_generator(params, grid)), params)
        audit = ak.optimality_audit(sol, K0, 20, seed=2024)
        exact = math.exp(-ak.verify.optimal_payoff_exponent(sol) * audit.horizon)
        # at amplitude 0 the family is the feedback plan, and the value at its
        # closed-form pairing p0 e^(g T) gives the exact discounted terminal value
        p0 = _p0(sol, K0)
        terminal = largest_discounted_terminal_value(sol, p0, audit.horizon, [(0.0, 1, 0.0)])
        assert abs(terminal - exact) <= 1e-12 * exact
        # the audit's figure is the largest value read off the drawn samples'
        # pairings at T; with homogeneous coefficients Q1 is 0 up to rounding,
        # so that is e^(-a0 T)
        draws = [(s.amplitude, s.mode, s.phase) for s in audit.samples]
        closed = largest_discounted_terminal_value(sol, p0, audit.horizon, draws)
        assert abs(audit.max_discounted_terminal_rel - closed) <= 1e-12 * closed
        assert abs(audit.max_discounted_terminal_rel - exact) <= 1e-12 * exact

    def test_work_per_draw_takes_only_the_pairing(self, window, monkeypatch):
        # the audit pairs x0 once; the draws work on that pairing and build no
        # grid function, so neither count grows with n_perturbations
        counts = {}
        post_init = GridFunction.__post_init__

        def counting_post_init(self):
            counts["grid_functions"] += 1
            post_init(self)

        def counting_inner_l2(f, g):
            counts["inner_l2"] += 1
            return inner_l2(f, g)

        def dense(*args, **kwargs):
            raise AssertionError("feedback plan rebuilt from the state")

        monkeypatch.setattr(GridFunction, "__post_init__", counting_post_init)
        for module in (ak.grid, ak.hjb, ak.verify):
            monkeypatch.setattr(module, "inner_l2", counting_inner_l2, raising=False)
        monkeypatch.setattr(ak.hjb, "feedback_control", dense)
        monkeypatch.setattr(ak.verify, "feedback_control", dense, raising=False)
        seen = []
        for n_perturbations in (5, 40):
            counts.update(grid_functions=0, inner_l2=0)
            ak.optimality_audit(window.sol, window.K0, n_perturbations, seed=3)
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0]["inner_l2"] == 1

    def test_peak_memory_is_bounded(self, window):
        # the audit builds no (time node, n) table: its feedback quadrature is
        # one scalar per node and the perturbed plans are closed forms
        tracemalloc.start()
        try:
            ak.optimality_audit(window.sol, window.K0, 20, seed=20240515)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_gamma2_perturbations(self, gamma2):
        audit = ak.optimality_audit(gamma2.sol, gamma2.K0, 4, seed=7)
        assert audit.all_dominated
        assert audit.rel_gap < 1e-6
        envelope = ak.perturbed_transversality_envelope(gamma2.sol, audit.horizon)
        assert audit.max_discounted_terminal_rel <= envelope

    def test_variable_eta_couples_into_ground_mode(self, variable_mild):
        # with spatially varying eta the perturbations shift <x, b0> (Q1 is
        # not 0), and the discounted terminal value stays within the
        # admissible-envelope rate rho - lambda0*(1-gamma)
        pipe = variable_mild
        audit = ak.optimality_audit(pipe.sol, pipe.K0, 2, seed=11)
        assert audit.all_dominated
        envelope = ak.perturbed_transversality_envelope(pipe.sol, audit.horizon)
        assert 0.0 < audit.max_discounted_terminal_rel <= envelope

    @pytest.mark.parametrize("source", ["config_homogeneous", "config_variable", "gamma2"])
    def test_dominance_margin_is_second_order(self, gamma2, source):
        # the feedback law is a strict maximum along the family: J(a) - v
        # shrinks like a^2 and is negative on both sides of a = 0
        if source == "gamma2":
            sol, K0 = gamma2.sol, gamma2.K0
        else:
            grid, params, K0 = load_config(ROOT / "demos" / f"{source}.cfg").model()
            sol = ak.solve_hjb(ak.eigendecompose(ak.assemble_generator(params, grid)), params)
        p0, v = _p0(sol, K0), ak.value_function(sol, K0)
        T = ak.optimality_audit(sol, K0, 0, 0).horizon
        evaluate = _family(sol, p0, T)
        for mode, phase in [(1, 0.0), (2, 1.0), (3, 2.5)]:
            amplitudes = np.array([0.025, 0.05, 0.1, -0.05])
            J = evaluate(amplitudes, np.full(4, mode), np.full(4, phase))[0]
            curvature = (J[:3] - v) / amplitudes[:3] ** 2
            assert max(curvature) < 0.0
            assert min(curvature) / max(curvature) <= 1.2
            assert J[3] < v
            assert J[1] < v

    def test_overconsumption_is_sampled(self):
        # the draws of the variable demo push <x(t), b0> both below (Q1 > 0:
        # more consumption) and above (Q1 < 0) the feedback path
        run = load_config(ROOT / "demos" / "config_variable.cfg")
        grid, params, K0 = run.model()
        sol = ak.solve_hjb(ak.eigendecompose(ak.assemble_generator(params, grid)), params)
        audit = ak.optimality_audit(sol, K0, run.n_perturbations, run.seed)
        shifts = [pairing_shift(sol, s.amplitude, s.mode, s.phase) for s in audit.samples]
        assert len(shifts) == 20
        assert min(shifts) < 0.0 < max(shifts)
        assert audit.all_dominated

    @pytest.mark.parametrize("gamma", [1.5, 3.0, 6.0])
    def test_terminal_value_within_the_gamma_above_one_envelope(self, gamma):
        # for gamma > 1 the envelope is the feedback path's decay times
        # max(2, e^((gamma-1) a_max (lambda0 - g))); along the family the
        # figure is that decay times e^(-c (1 - e^(-T))), |c| within the exponent
        pipe = build_pipeline(
            128, sigma=1.0, rho=0.8, gamma=gamma, q=0.5,
            A_fn=lambda t: 1.0 + 0.5 * np.cos(t),
            eta_fn=lambda t: 1.0 + 0.3 * np.sin(2 * t),
            K0_fn=lambda t: 1.0 + 0.4 * np.cos(t),
        )
        audit = ak.optimality_audit(pipe.sol, pipe.K0, 200, seed=7)
        draws = [(s.amplitude, s.mode, s.phase) for s in audit.samples]
        p0 = _p0(pipe.sol, pipe.K0)
        closed = largest_discounted_terminal_value(pipe.sol, p0, audit.horizon, draws)
        assert abs(audit.max_discounted_terminal_rel - closed) <= 1e-12 * closed
        envelope = ak.perturbed_transversality_envelope(pipe.sol, audit.horizon)
        assert audit.max_discounted_terminal_rel <= envelope
        assert audit.all_dominated


class TestHjbResidual:
    def test_small_on_random_states(self, variable):
        states = sample_halfspace_states(variable.basis, 20, seed=21)
        worst = max(ak.hjb_residual(variable.sol, s) for s in states)
        assert worst < 1e-9

    def test_cleanest_on_b0(self, window):
        assert ak.hjb_residual(window.sol, window.basis.b0) < 1e-10

    def test_sensitive_to_alpha(self, window):
        # a 1 percent alpha error must light up the residual (guards vacuity)
        broken = dataclasses.replace(window.sol, alpha=window.sol.alpha * 1.01)
        residual = ak.hjb_residual(broken, window.K0)
        assert residual > 1e-3

    def test_half_space_guard(self, window):
        with pytest.raises(HalfSpaceError):
            ak.hjb_residual(window.sol, GridFunction.constant(window.grid, -1.0))


class TestHjbResidualSeesOnlyThePairing:
    """v = alpha <x, b0>^(1-gamma)/(1-gamma) makes the residual homogeneous of
    degree 0 in <x, b0>, which is why ``verify`` evaluates it at K0 alone."""

    @pytest.mark.parametrize("name", ["window", "gamma2", "variable"])
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
    @settings(max_examples=30)
    def test_residual_at_any_state_is_the_residual_at_K0(self, request, name, seed, scale):
        pipe = request.getfixturevalue(name)
        x = sample_halfspace_states(pipe.basis, 1, seed)[0]
        x = GridFunction(pipe.grid, scale * x.values)
        residual, at_K0 = ak.hjb_residual(pipe.sol, x), ak.hjb_residual(pipe.sol, pipe.K0)
        assert abs(residual - at_K0) <= 1e-14
        # off the solution the residual is large, and still one number
        broken = dataclasses.replace(pipe.sol, alpha=1.05 * pipe.sol.alpha)
        residual, at_K0 = ak.hjb_residual(broken, x), ak.hjb_residual(broken, pipe.K0)
        assert residual == pytest.approx(at_K0, rel=1e-12)


def _path_pairings(pipe, traj):
    """<K(t), b0> of each row of a simulated path."""
    return pipe.grid.weight * (traj.states @ pipe.basis.b0.values)


class TestTransversality:
    def test_optimal_path_passes(self, window):
        T = ak.optimality_audit(window.sol, window.K0, 0, 0).horizon
        traj = ak.simulate(window.clo, window.K0, T, 200)
        assert ak.transversality_check(window.sol, traj.times, _path_pairings(window, traj))

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
        assert not ak.transversality_check(window.sol, traj.times, _path_pairings(window, traj))

    def test_half_space_guard(self, window):
        traj = ak.simulate(window.clo, window.K0, 1.0, 20)
        with pytest.raises(HalfSpaceError):
            ak.transversality_check(window.sol, traj.times, -_path_pairings(window, traj))

    @pytest.mark.parametrize("name", ["window", "gamma2", "variable"])
    @pytest.mark.parametrize("horizon", ["default", 1.0])
    def test_leading_mode_matches_simulated_path(self, request, name, horizon):
        # verify's closed form <K0, b0> e^(r t), r = spectrum[0], against the
        # pairings of the simulated path
        pipe = request.getfixturevalue(name)
        if horizon == "default":
            horizon = ak.optimality_audit(pipe.sol, pipe.K0, 0, 0).horizon
        traj = ak.simulate(pipe.clo, pipe.K0, horizon, 200)
        simulated = _path_pairings(pipe, traj)
        closed = inner_l2(pipe.K0, pipe.basis.b0) * np.exp(pipe.clo.spectrum[0] * traj.times)
        np.testing.assert_allclose(closed, simulated, rtol=1e-12)
        assert (ak.transversality_check(pipe.sol, traj.times, closed)
                == ak.transversality_check(pipe.sol, traj.times, simulated))



class TestCertificate:
    @pytest.mark.parametrize("name", ["homogeneous", "variable"])
    @pytest.mark.parametrize("perturb_alpha, failed", [(0.0, None), (0.05, "hjb_residual")])
    def test_record_of_the_golden_cases(self, name, perturb_alpha, failed):
        # the golden verify cases without the CLI: the record has audit.json's
        # keys in order, the four checks in order, and the first failing check;
        # test_golden compares the values
        golden = ROOT / "tests" / "golden"
        run = dataclasses.replace(load_config(golden / f"{name}.cfg"), n_points=32)
        grid, params, K0 = run.model()
        sol = ak.solve_hjb(ak.principal_pair(ak.assemble_generator(params, grid)), params)
        if perturb_alpha:  # as verify --debug-perturb-alpha applies it
            sol = dataclasses.replace(sol, alpha=sol.alpha * (1.0 + perturb_alpha))
        record = ak.verify.certificate(sol, K0, run.n_perturbations, run.seed)
        case = f"{name}-verify-alpha" if perturb_alpha else f"{name}-verify"
        committed = json.loads((golden / case / "audit.json").read_text())
        assert list(record) == list(committed)
        assert list(record["checks"]) == [
            "hjb_residual", "value_equality", "dominance", "transversality"]
        assert record["checks"] == committed["checks"]
        assert record["failed_check"] == committed["failed_check"] == failed


class TestHalfSpaceSampling:
    def test_samples_lie_in_half_space(self, variable):
        for state in sample_halfspace_states(variable.basis, 10, seed=3):
            assert inner_l2(state, variable.basis.b0) > 0

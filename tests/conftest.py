"""Shared pipeline fixtures.

Three parameter sets cover the regimes the checks care about:

* ``window``   - homogeneous coefficients inside the convergence window
                 (gamma in (0,1), growth rate dominant), fully closed form.
* ``gamma2``   - homogeneous coefficients with gamma > 1 (negative utility).
* ``variable`` - smoothly varying technology and population profiles with
                 q > 0, exercising every quadrature path.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

import akgrowth as ak

# property tests draw the same examples on every run
settings.register_profile("akgrowth", derandomize=True, deadline=None)
settings.load_profile("akgrowth")


def build_pipeline(n_points, sigma, rho, gamma, q, A_fn, eta_fn, K0_fn):
    grid = ak.Grid(n_points)
    A = ak.GridFunction.from_callable(grid, A_fn)
    eta = ak.GridFunction.from_callable(grid, eta_fn)
    params = ak.ModelParams(sigma=sigma, rho=rho, gamma=gamma, q=q, A=A, eta=eta)
    op = ak.assemble_generator(params, grid)
    basis = ak.eigendecompose(op)
    sol = ak.solve_hjb(basis, params)
    K0 = ak.GridFunction.from_callable(grid, K0_fn)
    clo = ak.build_closed_loop(basis, sol)
    try:
        pd = ak.compute_projection_data(basis, sol)
    except ak.SpectrumCollisionError:
        pd = None  # g sits on an eigenvalue; projection machinery undefined
    return SimpleNamespace(
        grid=grid, params=params, op=op, basis=basis, sol=sol, K0=K0, clo=clo, pd=pd
    )


def audit_draws(n_perturbations, seed):
    """The (amplitude, mode, phase) triples ``optimality_audit`` draws: the
    first n_perturbations of default_rng(seed), every one admissible."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.05, 0.2), int(rng.integers(1, 4)), rng.uniform(0.0, 2.0 * np.pi))
            for _ in range(n_perturbations)]


def pairing_shift(sol, amplitude, mode, phase):
    """Q1 = a <eta P cos(m theta + phase), b0>, P the feedback profile: the
    pairing shift of the perturbed feedback law with that draw."""
    bumped = sol.params.eta.values * sol.feedback_profile.values * np.cos(
        mode * sol.basis.grid.nodes + phase
    )
    return amplitude * ak.inner_l2(ak.GridFunction(sol.basis.grid, bumped), sol.basis.b0)


def perturbed_control(sol, p0, amplitude, mode, phase):
    """The perturbed feedback law P p(t) (1 + a e^(-t) cos(m theta + phase))
    along its closed-form pairing p(t) from p0, as an open-loop control: the
    oracle of the audit's closed forms."""
    bump = amplitude * np.cos(mode * sol.basis.grid.nodes + phase)
    base = sol.feedback_profile.values * p0
    shift = pairing_shift(sol, amplitude, mode, phase)

    def control(t):
        growth = np.exp(sol.g * t + shift * np.expm1(-t))
        return (np.exp(-t)[:, None] * bump + 1.0) * (base * growth[:, None])

    return control


def closed_form_pairing(sol, p0, amplitude, mode, phase, times):
    """<x(t), b0> of the perturbed feedback law, p0 exp(g t - Q1 (1 - e^(-t)))."""
    shift = pairing_shift(sol, amplitude, mode, phase)
    return p0 * np.exp(sol.g * times + shift * np.expm1(-times))


def largest_discounted_terminal_value(sol, p0, T, draws):
    """The largest e^(-rho T) |v(x(T))| / |v(x0)| over the perturbed plans of
    ``draws``, read off the value function at each one's pairing at T."""
    v0 = abs(ak.hjb.value_at_pairing(sol, p0))
    return max(
        math.exp(-sol.params.rho * T)
        * abs(ak.hjb.value_at_pairing(sol, closed_form_pairing(sol, p0, *draw, T))) / v0
        for draw in draws
    )


def window_pipeline(n_points=128):
    return build_pipeline(
        n_points,
        sigma=1.0,
        rho=0.75,
        gamma=0.5,
        q=0.0,
        A_fn=lambda t: np.ones_like(t),
        eta_fn=lambda t: np.ones_like(t),
        K0_fn=lambda t: 1.0 + 0.4 * np.cos(t),
    )


@pytest.fixture(scope="session")
def window():
    return window_pipeline()


@pytest.fixture(scope="session")
def gamma2():
    return build_pipeline(
        128,
        sigma=1.0,
        rho=0.3,
        gamma=2.0,
        q=0.0,
        A_fn=lambda t: np.ones_like(t),
        eta_fn=lambda t: np.ones_like(t),
        K0_fn=lambda t: 1.0 + 0.4 * np.cos(t),
    )


@pytest.fixture(scope="session")
def variable():
    # strong technology variation: steady direction w dips negative, so the
    # a-priori admissibility certificate is unavailable at these parameters
    return build_pipeline(
        128,
        sigma=1.0,
        rho=0.8,
        gamma=0.5,
        q=0.5,
        A_fn=lambda t: 1.0 + 0.5 * np.cos(t),
        eta_fn=lambda t: 1.0 + 0.3 * np.sin(2 * t),
        K0_fn=lambda t: 1.0 + 0.4 * np.cos(t),
    )


@pytest.fixture(scope="session")
def variable_mild():
    # strong diffusion flattens the basis: w stays strictly positive here
    return build_pipeline(
        128,
        sigma=2.0,
        rho=0.6,
        gamma=0.5,
        q=0.5,
        A_fn=lambda t: 1.0 + 0.3 * np.cos(t),
        eta_fn=lambda t: 1.0 + 0.1 * np.sin(2 * t),
        K0_fn=lambda t: 1.0 + 0.4 * np.cos(t),
    )

"""Shared pipeline fixtures.

Three parameter sets cover the regimes the checks care about:

* ``window``   - homogeneous coefficients inside the convergence window
                 (gamma in (0,1), growth rate dominant), fully closed form.
* ``gamma2``   - homogeneous coefficients with gamma > 1 (negative utility).
* ``variable`` - smoothly varying technology and population profiles with
                 q > 0, exercising every quadrature path.
"""

from __future__ import annotations

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

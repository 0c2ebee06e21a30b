"""Explicit solution of the dynamic-programming equation on the half-space.

With a power utility weighted by f = eta^q and a strictly positive leading
eigenfunction b0 of the generator, the value function of the relaxed problem
is the closed form

    v(x) = alpha * <x, b0>^(1-gamma) / (1-gamma),

with alpha determined by a single quadrature integral, and the optimal
consumption is the rank-one linear feedback

    (Phi x)(theta) = (f / (alpha * eta * b0))^(1/gamma)(theta) * <x, b0>.

This module builds those objects and evaluates the associated utility,
Hamiltonian, and control path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import HalfSpaceError, InfeasibleParametersError, UnderflowWarning
from .grid import GridFunction, inner_l2, is_strictly_positive
from .spectral import ModelParams, SpectralBasis

# smallest value positive_power returns; entries below it are floored
UNDERFLOW_FLOOR = 1e-300


def positive_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """Pointwise power of a strictly positive array with an underflow floor.

    Entries that underflow below ``UNDERFLOW_FLOOR`` are clamped up to it and
    reported through an :class:`UnderflowWarning`; clamping is never silent.
    """
    out = np.asarray(values, dtype=float) ** exponent
    tiny = out < UNDERFLOW_FLOOR
    if np.any(tiny):
        warnings.warn(
            f"{int(tiny.sum())} node(s) underflowed below {UNDERFLOW_FLOOR:g} "
            "and were floored",
            UnderflowWarning,
            stacklevel=2,
        )
        out = np.where(tiny, UNDERFLOW_FLOOR, out)
    return out


def wellposed(rho: float, gamma: float, lambda0: float) -> bool:
    """True iff rho > lambda0 * (1 - gamma) (strict)."""
    return rho > lambda0 * (1.0 - gamma)


def check_wellposed(params: ModelParams, lambda0: float) -> bool:
    """``wellposed`` at the rho and gamma of ``params``."""
    return wellposed(params.rho, params.gamma, lambda0)


def balanced_growth(rho: float, gamma: float, lambda0: float) -> float:
    """Balanced growth rate (lambda0 - rho) / gamma."""
    return (lambda0 - rho) / gamma


def growth_rate(params: ModelParams, lambda0: float) -> float:
    """``balanced_growth`` at the rho and gamma of ``params``."""
    return balanced_growth(params.rho, params.gamma, lambda0)


def consumption_weight(params: ModelParams) -> np.ndarray:
    """Utility weight f = eta^q at the nodes."""
    return positive_power(params.eta.values, params.q)


def eta_factor(params: ModelParams, gamma: float) -> np.ndarray:
    """eta^((q+gamma-1)/gamma) = f^(1/gamma) * eta^((gamma-1)/gamma) at the nodes.

    The rho-independent factor of the alpha integrand and of the closed-loop
    withdrawal profile; ``gamma`` is passed apart from ``params`` so that a
    sweep can evaluate it at each swept gamma.
    """
    return positive_power(params.eta.values, (params.q + gamma - 1.0) / gamma)


def alpha_integral(basis: SpectralBasis, factor: np.ndarray, gamma: float) -> float:
    """Quadrature of f^(1/gamma) * (eta * b0)^((gamma-1)/gamma) over the circle,
    from ``factor`` = ``eta_factor(params, gamma)``; it does not depend on rho."""
    integrand = factor * positive_power(basis.b0.values, (gamma - 1.0) / gamma)
    return basis.grid.weight * float(integrand.sum())


def alpha_closed_form(rho: float, gamma: float, lambda0: float, integral: float) -> float:
    """alpha = [gamma / (rho - lambda0*(1-gamma)) * integral]^gamma as a float,
    for a well-posed (rho, gamma) and ``integral`` from ``alpha_integral``."""
    return (gamma / (rho - lambda0 * (1.0 - gamma)) * integral) ** gamma


def alpha0_closed_form(alpha: float, gamma: float) -> float:
    """alpha0 = alpha^(1/(1-gamma)), the scale of the functional beta = alpha0 * b0."""
    return alpha ** (1.0 / (1.0 - gamma))


def compute_alpha(basis: SpectralBasis, params: ModelParams) -> float:
    """Closed-form coefficient of the value function.

    alpha = [gamma / (rho - lambda0*(1-gamma)) * integral]^gamma, where the
    integral is f^(1/gamma) (eta b0)^((gamma-1)/gamma) d(theta).  Requires the
    well-posedness inequality rho > lambda0*(1-gamma).
    """
    lambda0 = basis.lambda0
    if not check_wellposed(params, lambda0):
        raise InfeasibleParametersError(
            f"rho={params.rho} does not exceed lambda0*(1-gamma)="
            f"{lambda0 * (1 - params.gamma)}"
        )
    gamma = params.gamma
    integral = alpha_integral(basis, eta_factor(params, gamma), gamma)
    return alpha_closed_form(params.rho, gamma, lambda0, integral)


def feedback_profile_values(
    f: np.ndarray, alpha, eta: np.ndarray, b0: np.ndarray, gamma: float
) -> np.ndarray:
    """(f / (alpha * eta * b0))^(1/gamma) at the nodes.

    ``alpha`` is a float, or an (m, 1) column of them for an (m, n) block
    of profiles, one row per alpha.
    """
    return positive_power(f / (alpha * eta * b0), 1.0 / gamma)


@dataclass(frozen=True, eq=False)
class HjbSolution:
    """Closed-form solution data for the half-space control problem.

    feedback_profile is (f / (alpha * eta * b0))^(1/gamma); the optimal
    control is feedback_profile * <x, b0>.
    """

    params: ModelParams
    basis: SpectralBasis
    alpha: float
    alpha0: float
    g: float
    feedback_profile: GridFunction
    consumption_weight_f: GridFunction


def solve_hjb(basis: SpectralBasis, params: ModelParams) -> HjbSolution:
    """Construct the explicit solution record for the given spectral data."""
    alpha = compute_alpha(basis, params)
    alpha0 = alpha0_closed_form(alpha, params.gamma)
    g = growth_rate(params, basis.lambda0)
    f = GridFunction(params.grid, consumption_weight(params))
    profile_values = feedback_profile_values(
        f.values, alpha, params.eta.values, basis.b0.values, params.gamma
    )
    profile = GridFunction(basis.grid, profile_values)
    if not is_strictly_positive(profile):
        raise RuntimeError("feedback profile lost strict positivity")
    return HjbSolution(
        params=params,
        basis=basis,
        alpha=alpha,
        alpha0=alpha0,
        g=g,
        feedback_profile=profile,
        consumption_weight_f=f,
    )


def _pairing(sol: HjbSolution, x: GridFunction) -> float:
    inner = inner_l2(x, sol.basis.b0)
    if inner <= 0.0:
        raise HalfSpaceError(f"<x, b0> = {inner!r} is not strictly positive")
    return inner


def value_at_pairing(sol: HjbSolution, pairing: float | np.ndarray) -> float | np.ndarray:
    """alpha * p^(1-gamma) / (1-gamma) for a pairing p = <x, b0> > 0.

    The value function sees the state only through this pairing; ``pairing``
    is a float or an array of them, and the caller guarantees positivity.
    """
    gamma = sol.params.gamma
    return sol.alpha * pairing ** (1.0 - gamma) / (1.0 - gamma)


def value_function(sol: HjbSolution, x0: GridFunction) -> float:
    """v(x0) = alpha * <x0,b0>^(1-gamma) / (1-gamma) on the open half-space."""
    return value_at_pairing(sol, _pairing(sol, x0))


def feedback_control(sol: HjbSolution, x: GridFunction) -> GridFunction:
    """Optimal consumption as a function of the state, linear and rank one."""
    inner = inner_l2(x, sol.basis.b0)
    return GridFunction(sol.basis.grid, sol.feedback_profile.values * inner)


def optimal_control_path(sol: HjbSolution, x0: GridFunction, t: np.ndarray) -> np.ndarray:
    """Optimal consumption rows at the times ``t``, feedback_control(x0) * e^(g t).

    ``t`` is a 1-D array of m times >= 0; row i of the (m, n) result is the
    consumption profile at t[i].
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"t must be a 1-D array of times, got shape {t.shape}")
    if np.any(t < 0):
        raise ValueError(f"t must be >= 0, got min {t.min()!r}")
    _pairing(sol, x0)
    base = feedback_control(sol, x0)
    return np.exp(sol.g * t)[:, None] * base.values


def utility(params: ModelParams, z: np.ndarray) -> np.ndarray:
    """Aggregate utility U(z) = integral of z^(1-gamma)/(1-gamma) * eta^q.

    ``z`` holds consumption profiles in its last axis, (..., n) -> (...):
    a batch of rows gives one utility per row.  For gamma > 1 a zero
    consumption node makes the integrand -inf; such a row gets the
    extended-real value -inf rather than raising.
    """
    gamma = params.gamma
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (params.grid.n_points,):
        raise ValueError(
            f"consumption rows must have {params.grid.n_points} nodes, got shape {z.shape}"
        )
    if np.any(z < 0):
        raise ValueError("consumption must be nonnegative")
    f = consumption_weight(params)
    with np.errstate(divide="ignore"):
        integrand = z ** (1.0 - gamma)
    integrand /= 1.0 - gamma
    integrand *= f
    total = params.grid.weight * integrand.sum(axis=-1)
    if gamma > 1:
        total = np.where(np.any(z == 0.0, axis=-1), -np.inf, total)
    return total


def hamiltonian(sol: HjbSolution, x: GridFunction) -> float:
    """Maximized Hamiltonian evaluated at the value-function gradient.

    Closed form: gamma * <x,b0>^(1-gamma)/(1-gamma) times the quadrature of
    f^(1/gamma) * (alpha * eta * b0)^((gamma-1)/gamma).
    """
    inner = _pairing(sol, x)
    gamma = sol.params.gamma
    integrand = (
        positive_power(sol.consumption_weight_f.values, 1.0 / gamma)
        * positive_power(
            sol.alpha * sol.params.eta.values * sol.basis.b0.values,
            (gamma - 1.0) / gamma,
        )
    )
    quad = sol.basis.grid.weight * float(integrand.sum())
    return gamma * inner ** (1.0 - gamma) / (1.0 - gamma) * quad


def hjb_summary(sol: HjbSolution) -> dict:
    """Summary mapping used for JSON serialization."""
    return {
        "alpha": sol.alpha,
        "alpha0": sol.alpha0,
        "g": sol.g,
        "lambda0": sol.basis.lambda0,
        "wellposed": check_wellposed(sol.params, sol.basis.lambda0),
    }

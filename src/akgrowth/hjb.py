"""Explicit solution of the dynamic-programming equation on the half-space.

With a power utility weighted by f = eta^q and a strictly positive leading
eigenfunction b0 of the generator, the value function of the relaxed problem
is the closed form

    v(x) = alpha * <x, b0>^(1-gamma) / (1-gamma),

with alpha determined by a single quadrature integral, and the optimal
consumption is the rank-one linear feedback

    (Phi x)(theta) = (f / (alpha * eta * b0))^(1/gamma)(theta) * <x, b0>.

It withdraws eta * Phi x of capital, the rank-one term of the closed loop.
This module builds those objects, the feedback law's only home, and
evaluates the associated utility, Hamiltonian, and control path.  alpha and
each profile are exp of a linear combination of logs (of gamma, the discount
margin, the integral as a log-sum-exp, eta, b0 and alpha), so no power can
underflow or overflow on its own: alpha or a profile entry is 0 or inf only
where the true value leaves the float range.  alpha0 = alpha^(1/(1-gamma))
enters no closed form; only ``hjb_summary`` forms it.  ``solve_rows`` solves
many (gamma, rho) rows on one basis together, as a sweep needs for each
sigma; ``solve_hjb`` is its row of one, so each check is written once and a
swept row is bit-identical to the single solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HalfSpaceError, InfeasibleParametersError
from .grid import GridFunction, inner_l2
from .spectral import ModelParams, SpectralBasis


def wellposed(rho: float, gamma: float, lambda0: float) -> bool:
    """True iff rho > lambda0 * (1 - gamma) (strict)."""
    return rho > lambda0 * (1.0 - gamma)


def balanced_growth(rho: float, gamma: float, lambda0: float) -> float:
    """Balanced growth rate (lambda0 - rho) / gamma."""
    return (lambda0 - rho) / gamma


def consumption_weight(params: ModelParams) -> np.ndarray:
    """Utility weight f = eta^q at the nodes; only ``utility`` and the
    audit's integrands read it, where a weight that underflows to 0 stands
    for a term that small."""
    return params.eta.values ** params.q


def log_alpha_integral(
    basis: SpectralBasis, log_eta: np.ndarray, log_b0: np.ndarray, q: float, gamma: float
) -> float:
    """log of the quadrature of f^(1/gamma) * (eta * b0)^((gamma-1)/gamma) over
    the circle, from the logs of eta and b0 at the nodes, as a log-sum-exp
    shifted by its largest exponent, so no term overflows or underflows on
    its own; it does not depend on rho."""
    exponent = ((q + gamma - 1.0) * log_eta + (gamma - 1.0) * log_b0) / gamma
    peak = float(exponent.max())
    return math.log(basis.grid.weight) + peak + math.log(float(np.exp(exponent - peak).sum()))


@dataclass(frozen=True, eq=False)
class HjbSolution:
    """Closed-form solution data for the half-space control problem.

    feedback_profile is (f / (alpha * eta * b0))^(1/gamma), evaluated as
    exp(((q-1) log eta - log alpha - log b0) / gamma); the optimal control is
    feedback_profile * <x, b0>.  withdrawal is eta * feedback_profile by
    definition: the capital withdrawn per unit of <x, b0>, the rank-one term
    of the closed loop.
    """

    params: ModelParams
    basis: SpectralBasis
    alpha: float
    g: float
    feedback_profile: GridFunction
    withdrawal: GridFunction


@np.errstate(all="ignore")
def solve_rows(
    basis: SpectralBasis, params: ModelParams, gammas: list[float], rhos: list[float]
) -> tuple[list[float], list[float], list, np.ndarray | None, np.ndarray | None]:
    """Solve ``params`` on ``basis`` at each row (gammas[i], rhos[i]).

    log alpha = gamma (log gamma - log(rho - lambda0*(1-gamma)) + log I), with
    log I the log of the integral of f^(1/gamma) (eta b0)^((gamma-1)/gamma),
    taken once per distinct gamma.  Returns per row g and alpha as Python
    floats (alpha nan after a failed check) and None or the error of its
    first failing check, in order: rho > lambda0*(1-gamma); alpha a finite
    positive float; a withdrawal eta * P with no entry that overflows and,
    for gamma > 1, a feedback profile P with no entry that underflows to 0.
    Then those two profiles as (m, n) blocks whose rows are the m rows with
    no error, in order; None if no row is well-posed.  A failing row's nan
    or inf is kept quiet.
    """
    lambda0 = basis.lambda0
    g = [balanced_growth(rho, gamma, lambda0) for gamma, rho in zip(gammas, rhos)]
    alpha = [math.nan] * len(rhos)
    errors: list[Exception | None] = [
        None if wellposed(rho, gamma, lambda0)
        else InfeasibleParametersError(rho, lambda0 * (1 - gamma))
        for gamma, rho in zip(gammas, rhos)
    ]
    if None not in errors:
        return g, alpha, errors, None, None
    log_eta, log_b0 = np.log(params.eta.values), np.log(basis.b0.values)
    rows = [i for i, error in enumerate(errors) if error is None]
    logs = {gamma: (math.log(gamma), log_alpha_integral(basis, log_eta, log_b0, params.q, gamma))
            for gamma in dict.fromkeys(gammas[i] for i in rows)}
    gamma_row = np.array([gammas[i] for i in rows])
    log_gamma, log_integral = np.array([logs[gamma] for gamma in gamma_row.tolist()]).T
    margins = np.array([rhos[i] - lambda0 * (1 - gammas[i]) for i in rows])
    log_alpha = gamma_row * (log_gamma - np.log(margins) + log_integral)
    solved, positions = [], []  # the rows whose alpha passes its check
    for position, (i, a) in enumerate(zip(rows, np.exp(log_alpha).tolist())):
        if 0.0 < a < math.inf:
            alpha[i] = a
            solved.append(i)
            positions.append(position)
        else:
            errors[i] = ConfigError(f"rho = {rhos[i]!r} with gamma = {gammas[i]!r}: "
                                    f"alpha = {a!r} is not a finite positive float")
    gamma_col = gamma_row[positions, None]
    log_profile = ((params.q - 1.0) * log_eta - log_alpha[positions, None] - log_b0) / gamma_col
    profile = np.exp(log_profile)
    withdrawal = params.eta.values * profile
    # eta is finite and positive, so an inf in the profile is one in the
    # withdrawal; below gamma = 1 a zero consumption node has utility 0, the
    # limit of the true value, and above it utility -inf where that is finite
    ok = np.isfinite(withdrawal) & ((profile > 0.0) | (gamma_col <= 1.0))
    kept = ok.all(axis=1)
    for row in np.flatnonzero(~kept).tolist():
        i, node = solved[row], int(ok[row].argmin())
        what, why = (
            ("the feedback profile underflows to 0",
             ", and a zero consumption has utility -inf for gamma > 1")
            if profile[row, node] == 0.0 else ("the withdrawal eta * P overflows", "")
        )
        errors[i] = ConfigError(
            f"rho = {rhos[i]!r} with gamma = {gammas[i]!r}: {what} at node {node} (theta = "
            f"{basis.grid.nodes[node]:.6g}); log P spans [{log_profile[row].min():.6g}, "
            f"{log_profile[row].max():.6g}]{why}"
        )
    return g, alpha, errors, profile[kept], withdrawal[kept]


def solve_hjb(basis: SpectralBasis, params: ModelParams) -> HjbSolution:
    """``solve_rows`` of the one row of ``params``, whose error it raises."""
    g, alpha, errors, profile, withdrawal = solve_rows(basis, params, [params.gamma], [params.rho])
    if errors[0] is not None:
        raise errors[0]
    return HjbSolution(
        params=params,
        basis=basis,
        alpha=alpha[0],
        g=g[0],
        feedback_profile=GridFunction(basis.grid, profile[0]),
        withdrawal=GridFunction(basis.grid, withdrawal[0]),
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
    # from alpha itself, not from the feedback profile: with the profile held
    # fixed, rho v - drift - H vanishes for every alpha, as gamma g = lambda0 - rho
    log_eta = np.log(sol.params.eta.values)
    log_b0 = np.log(sol.basis.b0.values)
    integrand = np.exp(
        (sol.params.q * log_eta + (gamma - 1.0) * (math.log(sol.alpha) + log_eta + log_b0))
        / gamma
    )
    quad = sol.basis.grid.weight * float(integrand.sum())
    return gamma * inner ** (1.0 - gamma) / (1.0 - gamma) * quad


def hjb_summary(sol: HjbSolution) -> dict:
    """Summary mapping used for JSON serialization, the one place that forms
    alpha0 = alpha^(1/(1-gamma)); a ConfigError if alpha0 is not a finite
    positive float, as for gamma within about 1e-3 of 1."""
    gamma = sol.params.gamma
    with np.errstate(over="ignore", under="ignore"):
        alpha0 = float(np.float64(sol.alpha) ** (1.0 / (1.0 - gamma)))
    if not 0.0 < alpha0 < math.inf:
        raise ConfigError(f"gamma = {gamma!r} is too close to 1: alpha0 = alpha^(1/(1-gamma)) "
                          f"with alpha = {sol.alpha!r} leaves the float range")
    return {
        "alpha": sol.alpha,
        "alpha0": alpha0,
        "g": sol.g,
        "lambda0": sol.basis.lambda0,
        "wellposed": wellposed(sol.params.rho, sol.params.gamma, sol.basis.lambda0),
    }

"""Quantitative convergence bound and positivity-admissibility audits.

With the spectral gap g - lambda1 > 0, detrended closed-loop paths converge
to the steady state <K0, beta> w at rate g - lambda1, with the explicit
constant M = 1 + sup|w| * integral(beta).  When additionally

    M * sup|K0 - <K0,beta> w| <= |<K0,beta>| * inf w      (and inf w > 0)

the whole path stays strictly positive, which certifies the feedback control
as admissible for the original positivity-constrained problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_loop import ProjectionData, Trajectory
from .grid import GridFunction, inner_l2, sup_norm

# absolute slack of the convergence-bound audit
BOUND_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Outcome of the convergence-bound and admissibility audits."""

    M: float
    rate: float                    # g - lambda1
    steady_state: GridFunction
    bound_satisfied: bool
    fitted_rate: float             # least-squares slope of log deviation
    admissible: bool               # strict positivity of the sampled path
    admissibility_condition: bool  # sufficient a-priori condition
    dominance_ok: bool             # g > lambda1; bound is vacuous otherwise
    max_bound_violation: float
    times: np.ndarray
    deviations: np.ndarray
    bounds: np.ndarray
    grid_points: int


def bound_constant(w: np.ndarray, beta: np.ndarray, weight: float):
    """M = 1 + sup|w| * integral(beta) from node values and the quadrature
    weight; rows of (m, n) arrays give one M per row."""
    return 1.0 + np.abs(w).max(axis=-1) * (weight * beta.sum(axis=-1))


def admissibility_condition(pd: ProjectionData, K0: GridFunction, M: float) -> bool:
    """Sufficient condition for the closed-loop path to stay strictly positive.

    Requires inf w > 0 and M * sup|K0 - <K0,beta> w| <= |<K0,beta>| * inf w.
    Sufficient, not necessary: a path may stay positive even when this fails.
    """
    w_min = float(pd.w.values.min())
    if w_min <= 0.0:
        return False
    pairing = inner_l2(K0, pd.beta)
    deviation = sup_norm(K0 - pairing * pd.w)
    return M * deviation <= abs(pairing) * w_min


def _log_slope(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(values) against increasing ``times``, fitted
    in time scaled by 2^-e, e the binary exponent of the last time, as
    ``np.polyfit`` squares times, which underflow below about 1e-162.  The
    scale is exact, so the slope keeps the bits of the unscaled fit."""
    e = math.frexp(float(times[-1]))[1]
    return math.ldexp(float(np.polyfit(np.ldexp(times, -e), np.log(values), 1)[0]), -e)


def fit_decay_rate(times: np.ndarray, deviations: np.ndarray) -> float:
    """Least-squares slope of log(deviation) against time.

    Samples whose deviation has decayed below 1e-12 times the initial
    deviation are excluded (they are dominated by rounding).  Returns nan
    when fewer than two usable samples remain.
    """
    dev0 = deviations[0]
    if dev0 <= 0.0:
        return float("nan")
    usable = deviations > 1e-12 * dev0
    if int(usable.sum()) < 2:
        return float("nan")
    return _log_slope(times[usable], deviations[usable])


def convergence_bound_check(traj: Trajectory, pd: ProjectionData) -> StabilityReport:
    """Audit the explicit convergence bound at every sampled time.

    Checks sup|detrended(t) - steady| <= M * exp(-(g-lambda1)*t) * sup|K0 -
    steady| with the explicit M, allowing only the absolute slack
    ``BOUND_SLACK``.  Violations are reported, never raised.
    """
    M = float(bound_constant(pd.w.values, pd.beta.values, pd.basis.grid.weight))
    K0 = GridFunction(traj.grid, traj.states[0])
    pairing = inner_l2(K0, pd.beta)
    steady = GridFunction(pd.basis.grid, pairing * pd.w.values)
    deviations = np.abs(traj.detrended - steady.values).max(axis=1)
    rate = pd.g - pd.basis.lambda1
    bounds = M * np.exp(-rate * traj.times) * deviations[0]
    violations = deviations - (bounds + BOUND_SLACK)
    max_violation = float(violations.max())
    return StabilityReport(
        M=M,
        rate=rate,
        steady_state=steady,
        bound_satisfied=bool(max_violation <= 0.0),
        fitted_rate=fit_decay_rate(traj.times, deviations),
        admissible=bool(traj.states.min() > 0.0),
        admissibility_condition=admissibility_condition(pd, K0, M),
        dominance_ok=bool(rate > 0.0),
        max_bound_violation=max_violation,
        times=traj.times,
        deviations=deviations,
        bounds=bounds,
        grid_points=pd.basis.grid.n_points,
    )

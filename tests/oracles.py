"""Test-only oracles: the eigenexpansion actions of the generator, a
generator of half-space states, the per-draw closed form of the
optimality audit's perturbation family, in floats and in mpmath, the
per-row loops of the basis products and the per-cell sweep.csv writer.

The commands never apply the resolvent or the semigroup to a state, and
draw no random state: ``tests/test_spectral.py`` checks the basis against
these actions, ``tests/test_closed_loop.py`` checks the steady profile w
against the resolvent, and the HJB tests evaluate the residual at the
sampled states.  ``tests/test_verify.py`` checks the audit's batched
perturbation family against the one-draw-at-a-time evaluation, and against
its alternating series summed in mpmath with the digits it cancels.
``tests/test_spectral.py`` and ``tests/test_serialize.py`` check the
stacked basis products and the array sweep.csv writer against the loops
they replaced, bit for bit and byte for byte.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from akgrowth.errors import SpectrumCollisionError
from akgrowth.grid import GridFunction
from akgrowth.hjb import consumption_weight
from akgrowth.serialize import format_float
from akgrowth.spectral import SpectralBasis
from akgrowth.verify import _feedback_utility


def resolvent_apply(
    basis: SpectralBasis,
    mu: float,
    x: GridFunction,
    min_gap: float,
) -> GridFunction:
    """Apply (L - mu)^{-1} through the eigenexpansion.

    mu must stay more than ``min_gap`` away from every eigenvalue.
    """
    gap = float(np.abs(basis.eigenvalues - mu).min())
    if gap <= min_gap:
        raise SpectrumCollisionError(
            f"mu={mu!r} is within {gap:g} of the spectrum"
        )
    coeffs = basis.coefficients(x) / (basis.eigenvalues - mu)
    return GridFunction(basis.grid, basis.vectors @ coeffs)


def coefficient_rows_loop(basis: SpectralBasis, rows: np.ndarray) -> np.ndarray:
    """``SpectralBasis.coefficient_rows`` as one matrix-vector product per row."""
    products = np.array([basis.vectors.T @ row for row in rows])
    return basis.grid.weight * products.reshape(len(rows), basis.vectors.shape[1])


def synthesize_rows_loop(basis: SpectralBasis, rows: np.ndarray) -> np.ndarray:
    """``SpectralBasis.synthesize_rows`` as one matrix-vector product per row."""
    products = np.array([basis.vectors @ row for row in rows])
    return products.reshape(len(rows), basis.grid.n_points)


def b0_pairings_loop(basis: SpectralBasis, rows: np.ndarray) -> np.ndarray:
    """``SpectralBasis.b0_pairings`` as one dot product per row."""
    return np.array([basis.grid.weight * float(row @ basis.b0.values) for row in rows])


SWEEP_COLUMNS = ("rho", "gamma", "sigma", "lambda0", "lambda1",
                 "feasible", "g", "alpha", "M", "rate", "dominant")


def sweep_csv_per_cell(rows: list[dict]) -> str:
    """sweep.csv text with one ``format_float`` call per numeric cell: None
    is an empty cell, booleans are true/false."""
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return format_float(value)

    lines = [",".join(SWEEP_COLUMNS)]
    lines += [",".join(cell(row[c]) for c in SWEEP_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def semigroup_apply(basis: SpectralBasis, t: float, x: GridFunction) -> GridFunction:
    """Apply the semigroup e^{tL} through the eigenexpansion, t >= 0."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    coeffs = basis.coefficients(x) * np.exp(basis.eigenvalues * t)
    return GridFunction(basis.grid, basis.vectors @ coeffs)


def sample_halfspace_states(
    basis: SpectralBasis,
    count: int,
    seed: int,
) -> list[GridFunction]:
    """Seeded smooth strictly positive states (hence in the half-space): a
    random scale in [0.5, 2] times 1 plus cosine and sine modes 1 to 4 with
    coefficients uniform in [-0.5/4, 0.5/4]."""
    rng = np.random.default_rng(seed)
    theta = basis.grid.nodes
    modes = [(np.cos(m * theta), np.sin(m * theta)) for m in range(1, 5)]
    states = []
    for _ in range(count):
        values = np.ones_like(theta)
        for cos_m, sin_m in modes:
            a, b = rng.uniform(-1.0, 1.0, size=2) * 0.5 / 4
            values = values + a * cos_m + b * sin_m
        scale = rng.uniform(0.5, 2.0)
        states.append(GridFunction(basis.grid, scale * values))
    return states


def _draw_series(sol, p0: float, amplitude: float, mode: int, phase: float):
    """a0, the pairing exponent c and the weights C(1-gamma, k) a^k M_k of
    one draw (a, m, phase) of the audit's perturbed feedback law from the
    pairing p0, with as many binomial terms as that draw needs."""
    a0, u0 = _feedback_utility(sol, p0)
    exponent = 1.0 - sol.params.gamma
    nodes, weight = sol.basis.grid.nodes, sol.basis.grid.weight
    weighted = consumption_weight(sol.params) * (sol.feedback_profile.values * p0) ** exponent
    shift_weights = weight * sol.params.eta.values * sol.feedback_profile.values * sol.basis.b0.values
    terms = [1.0]  # C(1-gamma, k) a^k
    while len(terms) <= abs(exponent) + 1 or abs(terms[-1]) > 1e-17:
        k = len(terms) - 1
        terms.append(terms[-1] * (exponent - k) / (k + 1) * amplitude)
    cosine = np.cos(mode * nodes + phase)
    powers = np.cumprod(np.broadcast_to(cosine, (len(terms) - 1, cosine.size)), axis=0)
    moments = np.concatenate(([u0], weight * (powers @ weighted) / exponent))
    c = exponent * (amplitude * float(shift_weights @ cosine))
    return a0, c, np.multiply(terms, moments)


def perturbation_payoff(sol, p0: float, T: float, amplitude: float, mode: int, phase: float):
    """Payoff over [0, inf) and discounted terminal value at T relative to
    |v(x0)| of one draw (a, m, phase) of the audit's perturbed feedback law
    from the pairing p0, each series with only the terms that draw needs.

    The binomial series sum_k C(1-gamma, k) a^k M_k e^(-k t) of the utility
    and the series e^(-c) sum_j c^j/j! e^(-j t) of the pairing's factor are
    convolved into d, and J = e^(-c) sum_n d_n / (a0+n).  For c < 0 the
    series alternates, so this float sum holds only for moderate |c|.
    """
    a0, c, weights = _draw_series(sol, p0, amplitude, mode, phase)
    decay = [1.0]  # c^j / j!
    while len(decay) <= abs(c) + 1 or abs(decay[-1]) > 1e-17:
        decay.append(decay[-1] * c / len(decay))
    d = np.convolve(weights, decay)
    J = math.exp(-c) * float(np.dot(d, 1.0 / (a0 + np.arange(d.size))))
    return J, math.exp(-a0 * T + c * math.expm1(-T))


def perturbation_payoff_mp(sol, p0: float, amplitude: float, mode: int, phase: float) -> float:
    """The payoff over [0, inf) of ``perturbation_payoff``, its alternating
    series e^(-c) sum_(k,j) C(1-gamma, k) a^k M_k c^j/j! / (a0+k+j) summed in
    mpmath at 30 + 2|c|/ln 10 digits.

    For c < 0 the terms reach e^|c| times the largest weight over a0, and
    the sum is at least e^(-|c|) times it, so the sum loses at most
    2|c|/ln 10 digits to cancellation; the terms stop once |c|^j/j! falls
    below 10^-digits past j = |c|.  Only the weights are floats.
    """
    a0, c, weights = _draw_series(sol, p0, amplitude, mode, phase)
    with mpmath.workdps(30 + math.ceil(2.0 * abs(c) / math.log(10.0))):
        c_mp = mpmath.mpf(c)
        cutoff = mpmath.mpf(10) ** -mpmath.mp.dps
        decay = [mpmath.mpf(1)]  # c^j / j!
        while len(decay) <= abs(c) + 1 or abs(decay[-1]) > cutoff:
            decay.append(decay[-1] * c_mp / len(decay))
        reciprocals = [1 / (mpmath.mpf(a0) + n) for n in range(len(weights) + len(decay))]
        series = mpmath.fsum(
            mpmath.mpf(w) * mpmath.fdot(decay, reciprocals[k:k + len(decay)])
            for k, w in enumerate(weights)
        )
        return float(mpmath.exp(-c_mp) * series)

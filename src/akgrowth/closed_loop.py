"""Closed-loop generator, spectral projection, and trajectory simulation.

Substituting the optimal feedback into the state equation yields a linear
integro-PDE whose generator is the rank-one perturbation

    B = L - outer(withdrawal, quadrature-weighted b0),

where withdrawal is ``HjbSolution.withdrawal``: ``hjb`` owns the feedback law.
Since <weight*b0, b_k> = delta_k0, B is diag(lambda) with only its first
column changed in the eigenbasis {b_k} of L, so its spectrum and trajectories
are closed forms (Golub, SIAM Review 15, 1973); dense B is only an oracle.
The dominant eigenvalue (when it dominates) is the growth rate g, with
eigenvector w; detrended trajectories converge to the rank-one projection
P x = <x, beta> w with beta = b0, the left eigenvector, and <w, b0> = 1, so
the scale of the value function cancels and is never formed here.  P is
validated here both from its closed-form series and from a resolvent
contour integral.  ``projection_rows`` builds the series and its checks
for many rows at once; ``compute_projection_data`` is its row of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContourEnclosureError, GridMismatchError, SpectrumCollisionError
from .grid import NOT_FINITE, TWO_PI, Grid, GridFunction
from .hjb import HjbSolution
from .spectral import SpectralBasis
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True, eq=False)
class ClosedLoopOperator:
    """B = L - outer(sol.withdrawal, weight * b0) in the eigenbasis of L.

    With u_k = <sol.withdrawal, b_k> (``withdrawal_coeffs``), B maps coefficients
    c_k to lambda_k c_k - u_k c_0.  It is triangular, so ``spectrum`` is
    [lambda_0 - u_0, lambda_1, ..., lambda_{n-1}].
    """

    basis: SpectralBasis
    sol: HjbSolution
    withdrawal_coeffs: np.ndarray
    spectrum: np.ndarray

    @property
    def grid(self) -> Grid:
        return self.basis.grid

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense B, built on first use as an oracle.

        L is rebuilt from the basis (weight * V diag(lambda) V^T), so every
        eigen-identity holds to rounding against the stored spectral data.
        """
        basis = self.basis
        weight = basis.grid.weight
        l_matrix = weight * (basis.vectors * basis.eigenvalues) @ basis.vectors.T
        m = l_matrix - np.outer(self.sol.withdrawal.values, weight * basis.b0.values)
        m.setflags(write=False)
        return m


def build_closed_loop(basis: SpectralBasis, sol: HjbSolution) -> ClosedLoopOperator:
    """Closed-loop generator of the feedback of ``sol``, solved on ``basis``."""
    if sol.basis is not basis:
        raise GridMismatchError("solution was solved on a different basis")
    u = basis.coefficients(sol.withdrawal)
    spectrum = np.concatenate(([basis.lambda0 - u[0]], basis.eigenvalues[1:]))
    for array in (u, spectrum):
        array.setflags(write=False)
    return ClosedLoopOperator(basis, sol, u, spectrum)


@dataclass(frozen=True, eq=False)
class ProjectionData:
    """Steady-state direction w of the closed loop and its functional beta.

    beta is the Perron vector b0 and w is normalised by <w, b0> = 1, so the
    projection P x = <x, b0> w depends only on the withdrawal profile and b0:
    the scale of the value function does not enter the closed loop.
    """

    basis: SpectralBasis
    g: float
    w: GridFunction

    @property
    def beta(self) -> GridFunction:
        return self.basis.b0


@np.errstate(all="ignore")
def projection_rows(
    basis: SpectralBasis,
    withdrawal: np.ndarray,
    g: list[float],
    tolerances: Tolerances,
) -> tuple[np.ndarray, list[Exception | None]]:
    """The series, with u_k = <withdrawal, b_k>,

        w = b0 + sum_{k>=1} u_k / (lambda_k - g) * b_k,

    truncated at the discretization order (exact at this level), for m rows
    whose withdrawal profiles are the (m, n) block ``withdrawal``: the (m, n)
    block of w and per row None or the error of its first failing check, in
    order: g collides with an eigenvalue; r = g fails, that is u_0 misses
    mu0 = lambda0 - g in units of max(1, |mu0|); w is not finite; <w, b0> is
    not 1.  A failing row's nan or inf is kept quiet.
    """
    lam, b0, weight = basis.eigenvalues, basis.b0.values, basis.grid.weight
    g_column = np.array(g)[:, None]
    gaps = np.abs(lam - g_column)
    u = basis.coefficient_rows(withdrawal)
    # r = lambda0 - u_0 is the closed loop's leading eigenvalue, which must be g
    mu0 = basis.lambda0 - g_column[:, 0]
    defect = np.abs(u[:, 0] - mu0) / np.maximum(1.0, np.abs(mu0))
    coeffs = u / (lam - g_column)
    coeffs[:, 0] = 1.0
    w = basis.synthesize_rows(coeffs)
    pairing = [weight * float(w_row @ b0) for w_row in w]
    collides = (gaps.min(axis=1) < tolerances.spectrum_collision).tolist()
    defective = (defect > tolerances.quadrature_consistency).tolist()
    w_finite = np.isfinite(w).all(axis=1).tolist()
    unpaired = (np.abs(np.array(pairing) - 1.0) > tolerances.pairing_normalization).tolist()
    errors: list[Exception | None] = [None] * len(g)
    for i in range(len(g)):  # the first check that a row fails names its error
        if collides[i]:
            k = int(gaps[i].argmin())
            message = f"g={g[i]!r} collides with eigenvalue lambda_{k}={float(lam[k])!r}"
            errors[i] = SpectrumCollisionError(message)
        elif defective[i]:
            errors[i] = RuntimeError(f"mu0 quadrature consistency defect {defect[i]:g}")
        elif not w_finite[i]:
            errors[i] = ValueError(NOT_FINITE)
        elif unpaired[i]:
            errors[i] = RuntimeError(f"<w, beta> = {pairing[i]!r} is not 1 within tolerance")
    return w, errors


def compute_projection_data(
    basis: SpectralBasis,
    sol: HjbSolution,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ProjectionData:
    """``projection_rows`` of the one row of ``sol``, whose error it raises."""
    if sol.basis is not basis:
        raise GridMismatchError("solution was solved on a different basis")
    w, errors = projection_rows(basis, sol.withdrawal.values[None, :], [sol.g], tolerances)
    if errors[0] is not None:
        raise errors[0]
    return ProjectionData(basis=basis, g=sol.g, w=GridFunction(basis.grid, w[0]))


def projection_matrix(pd: ProjectionData) -> np.ndarray:
    """Dense matrix of the closed-form projection, outer(w, weight * beta)."""
    return np.outer(pd.w.values, pd.basis.grid.weight * pd.beta.values)


@dataclass(frozen=True, eq=False)
class ContourProjection:
    """Result of the resolvent contour quadrature for the projection."""

    matrix: np.ndarray
    imag_residue: float
    n_quad: int


def projection_via_contour(
    clo: ClosedLoopOperator,
    radius: float | None = None,
    n_quad: int = 64,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ContourProjection:
    """Spectral projection -1/(2*pi*i) * contour integral of (B - mu)^{-1}.

    The contour is the circle about g of the given radius, discretized by
    the periodic trapezoid rule (spectrally accurate here).  By default the
    radius is half the distance from g to the nearest other eigenvalue of B.
    The circle must enclose g and nothing else.
    """
    if n_quad < 16:
        raise ValueError(f"n_quad must be >= 16, got {n_quad}")
    g = clo.sol.g
    eigs = clo.spectrum
    if radius is None:
        others = eigs[np.abs(eigs - g) > 1e-8 * max(1.0, abs(g))]
        if others.size == 0:
            raise ContourEnclosureError("no other eigenvalue available to set a radius")
        radius = 0.5 * float(np.abs(others - g).min())
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    enclosed = eigs[np.abs(eigs - g) <= radius]
    if enclosed.size != 1 or abs(enclosed[0] - g) > 1e-6 * max(1.0, abs(g)):
        raise ContourEnclosureError(
            f"circle at {g!r} radius {radius!r} encloses {enclosed.size} "
            f"eigenvalue(s); it must enclose exactly g={g!r}"
        )
    n = clo.grid.n_points
    identity = np.eye(n)
    angles = TWO_PI * (np.arange(n_quad) + 0.5) / n_quad
    acc = np.zeros((n, n), dtype=complex)
    for t in angles:
        phase = np.exp(1j * t)
        mu = g + radius * phase
        acc += np.linalg.solve(clo.matrix - mu * identity, identity) * phase
    # P = -(1/2 pi i) * sum_j resolvent(mu_j) * i * radius * phase_j * dt
    acc *= -radius / n_quad
    imag_residue = float(np.abs(acc.imag).max())
    if imag_residue > tolerances.contour_imag:
        raise RuntimeError(f"contour projection imaginary residue {imag_residue:g}")
    return ContourProjection(matrix=acc.real, imag_residue=imag_residue, n_quad=int(n_quad))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Closed-loop path on ``grid`` as read-only arrays: row i of ``states``
    is K(times[i]), of ``detrended`` e^(-g times[i]) K(times[i])."""

    grid: Grid
    times: np.ndarray
    states: np.ndarray
    detrended: np.ndarray


def _exp_quotient(a: float, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(e^(a t) - e^(b t)) / (a - b), or t e^(a t) where a = b, evaluated as
    e^(max(a,b) t) (-expm1(-|a-b| t)) / |a-b| so stiff modes b << 0 neither
    overflow nor cancel."""
    gap = np.abs(a - b)
    ratio = np.where(gap > 0.0, -np.expm1(-gap * t) / np.where(gap > 0.0, gap, 1.0), t)
    return np.exp(np.maximum(a, b) * t) * ratio


def simulate(
    clo: ClosedLoopOperator,
    x0: GridFunction,
    t_final: float,
    n_steps: int,
) -> Trajectory:
    """Closed-loop trajectory at n_steps uniform steps over [0, t_final].

    In the eigenbasis of L the coefficients obey c_0' = r c_0 and
    c_k' = lambda_k c_k - u_k c_0 with r = lambda_0 - u_0, so that

        c_0(t) = c_0 e^(r t),
        c_k(t) = e^(lambda_k t) c_k - u_k c_0 (e^(r t) - e^(lambda_k t)) / (r - lambda_k).

    The path is exact at the sample points; row 0 is x0 itself.  A horizon
    at which the path leaves the float range is a ValueError naming the
    first sample time whose state or detrended state is not finite.
    """
    if x0.grid != clo.grid:
        raise GridMismatchError("initial state lives on a different grid")
    if not (np.isfinite(t_final) and t_final > 0):
        raise ValueError(f"t_final must be finite and > 0, got {t_final}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    basis, u, r = clo.basis, clo.withdrawal_coeffs, clo.spectrum[0]
    lam = basis.eigenvalues
    times = np.linspace(0.0, t_final, n_steps + 1)
    t = times[1:, None]
    c = basis.coefficients(x0)
    # an overflow is reported below, by the time at which it happens
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.exp(lam * t) * c - (u * c[0]) * _exp_quotient(r, lam, t)
        coeffs[:, 0] = c[0] * np.exp(r * times[1:])
        states = np.vstack([x0.values, coeffs @ basis.vectors.T])
        detrended = states * np.exp(-clo.sol.g * times)[:, None]
    # a row of states that is not finite makes its detrended row not finite
    finite = np.isfinite(detrended).all(axis=1)
    if not finite.all():
        first = float(times[int(np.argmin(finite))])
        raise ValueError(
            f"t_final = {t_final!r} is too long: the closed-loop path is not "
            f"finite in float64 from t = {first!r} on"
        )
    for array in (times, states, detrended):
        array.setflags(write=False)
    return Trajectory(grid=clo.grid, times=times, states=states, detrended=detrended)

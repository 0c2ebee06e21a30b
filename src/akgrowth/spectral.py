"""Discretized state-equation generator on the circle and its spectral data.

The generator acts as sigma * d^2/dtheta^2 + A(theta) with periodic boundary
conditions.  It is discretized with the dense Fourier collocation second
derivative matrix, which is symmetric, spectrally accurate for the smooth
coefficients considered here, and small enough (n <= 512) that a full dense
eigendecomposition is cheap.

The eigendecomposition is NumPy's ``eigh``, which runs LAPACK's
divide-and-conquer driver ``syevd`` (Gu and Eisenstat, SIAM J. Matrix Anal.
Appl. 16, 1995) on the BLAS NumPy already loads; at n = 512 it is several
times faster than the MRRR driver ``syevr`` that ``scipy.linalg.eigh`` uses
by default, and importing SciPy would cost more than the solve.  It reads the
upper triangle (``UPLO="U"``): both triangles hold the same matrix and both
results lie within a small multiple of eps * ||L|| of the exact spectrum, but
on the homogeneous profile the upper one leaves lambda_0 half as far from A_0,
and the growth rate and the audit's terminal value amplify that rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, PositivityError, SpectrumCollisionError
from .grid import TWO_PI, Grid, GridFunction, inner_l2, is_strictly_positive
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Scalar parameters and coefficient profiles of the growth model.

    sigma : diffusion coefficient, > 0
    rho   : discount rate, > 0
    gamma : preference curvature, > 0 and != 1
    q     : preference weight exponent, >= 0
    A     : technology profile, strictly positive grid function
    eta   : population density profile, strictly positive grid function
    """

    sigma: float
    rho: float
    gamma: float
    q: float
    A: GridFunction
    eta: GridFunction

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not self.rho > 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if not self.q >= 0:
            raise ValueError(f"q must be >= 0, got {self.q}")
        if not (self.gamma > 0 and self.gamma != 1):
            raise ValueError(f"gamma must be positive and != 1, got {self.gamma}")
        for name in ("sigma", "rho", "gamma", "q"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.A.grid != self.eta.grid:
            raise GridMismatchError("A and eta must live on the same grid")
        if not is_strictly_positive(self.A):
            raise ValueError("A must be strictly positive")
        if not is_strictly_positive(self.eta):
            raise ValueError("eta must be strictly positive")

    @property
    def grid(self) -> Grid:
        return self.A.grid


def fourier_second_derivative(n: int) -> np.ndarray:
    """Fourier collocation second-derivative matrix for period 2*pi, even n.

    Symmetric circulant; differentiates trigonometric interpolants exactly,
    so its action on modes of degree < n/2 matches d^2/dtheta^2 to rounding.
    """
    if n < 8 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 8, got {n}")
    h = TWO_PI / n
    j = np.arange(1, n)
    column = np.empty(n)
    column[0] = -np.pi**2 / (3.0 * h**2) - 1.0 / 6.0
    column[1:] = -0.5 * (-1.0) ** j / np.sin(j * h / 2.0) ** 2
    # entry (i, k) depends on |i - k| only: the symmetric Toeplitz matrix of column
    i = np.arange(n)
    return column[np.abs(i[:, None] - i[None, :])]


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense symmetric matrix representing the generator on a grid."""

    entries: np.ndarray
    grid: Grid

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=float)
        n = self.grid.n_points
        if m.shape != (n, n):
            raise ValueError(f"entries must be {n}x{n}, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def apply(self, f: GridFunction) -> GridFunction:
        if f.grid != self.grid:
            raise GridMismatchError("operand lives on a different grid")
        return GridFunction(self.grid, self.entries @ f.values)


def assemble_generator(
    params: ModelParams,
    grid: Grid,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> OperatorMatrix:
    """Assemble sigma * D2 + diag(A) on the given grid.

    The result is symmetric by construction (``fourier_second_derivative``
    indexes one column by |i - k|), so no tolerance is consulted;
    ``tolerances`` stays in the signature for callers that pass it.
    """
    if params.grid != grid:
        raise GridMismatchError("params profiles do not live on the requested grid")
    entries = params.sigma * fourier_second_derivative(grid.n_points)
    entries[np.diag_indices_from(entries)] += params.A.values
    return OperatorMatrix(entries, grid)


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Full eigendecomposition of the discretized generator.

    ``eigenvalues`` are sorted descending and enumerated with multiplicity.
    Column k of ``vectors`` holds the eigenfunction b_k sampled on the grid,
    orthonormal under the quadrature inner product, with b_0 oriented to be
    strictly positive.
    """

    grid: Grid
    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n_points
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.vectors, dtype=float)
        if lam.shape != (n,) or vec.shape != (n, n):
            raise ValueError("eigenvalues/vectors shapes do not match the grid")
        lam = lam.copy()
        vec = vec.copy()
        lam.setflags(write=False)
        vec.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "vectors", vec)

    @property
    def lambda0(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[1])

    @cached_property
    def b0(self) -> GridFunction:
        return GridFunction(self.grid, self.vectors[:, 0])

    def coefficients(self, f: GridFunction) -> np.ndarray:
        """Quadrature inner products <f, b_k> against the whole basis."""
        if f.grid != self.grid:
            raise GridMismatchError("operand lives on a different grid")
        return self.coefficient_rows(f.values[None, :])[0]

    def coefficient_rows(self, rows: np.ndarray) -> np.ndarray:
        """``coefficients`` of each row of an (m, n) array of node values.

        One matrix-vector product per row: a product over all rows at once
        need not round as each row alone does.
        """
        products = np.array([self.vectors.T @ row for row in rows])
        return self.grid.weight * products.reshape(rows.shape)

    def synthesize(self, coefficients: np.ndarray) -> GridFunction:
        """Reassemble sum_k c_k b_k from coefficients."""
        c = np.asarray(coefficients, dtype=float)
        return GridFunction(self.grid, self.synthesize_rows(c[None, :])[0])

    def synthesize_rows(self, rows: np.ndarray) -> np.ndarray:
        """``synthesize`` of each row of an (m, n) coefficient array, as node
        values, one matrix-vector product per row."""
        return np.array([self.vectors @ row for row in rows]).reshape(rows.shape)


def eigendecompose(
    op: OperatorMatrix,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> SpectralBasis:
    """Full symmetric eigendecomposition of the generator.

    Eigenvalues come out descending.  Eigenvectors are rescaled so that each
    b_k has unit quadrature norm; b_0 is sign-flipped if needed so that it is
    strictly positive, and a PositivityError signals a discretization too
    coarse (or an invalid profile) if it is not.
    """
    # upper triangle: on the homogeneous profile at n = 128, sigma = 1 it puts
    # lambda_0 3.2e-13 from A_0, the lower one 6.4e-13, which the growth rate
    # g (bounded by 1e-12 in the homogeneous CLI test) doubles to 1.3e-12
    lam, vec = np.linalg.eigh(op.entries, UPLO="U")
    lam = lam[::-1]
    vec = vec[:, ::-1]
    # eigh returns Euclidean-orthonormal columns; rescale to quadrature norm 1
    vec = vec * np.sqrt(op.grid.n_points / TWO_PI)
    if vec[:, 0].sum() < 0:
        vec[:, 0] = -vec[:, 0]
    basis = SpectralBasis(op.grid, lam, vec)
    if not is_strictly_positive(basis.b0):
        raise PositivityError(
            "leading eigenfunction is not strictly positive after sign fix"
        )
    norm = inner_l2(basis.b0, basis.b0)
    if abs(norm - 1.0) > tolerances.b0_normalization:
        raise RuntimeError(f"b0 normalization defect {abs(norm - 1.0):g}")
    if not basis.eigenvalues[0] > basis.eigenvalues[1]:
        raise RuntimeError(
            f"leading eigenvalue is not simple: {lam[0]!r} vs {lam[1]!r}"
        )
    return basis


def resolvent_apply(
    basis: SpectralBasis,
    mu: float,
    x: GridFunction,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> GridFunction:
    """Apply (L - mu)^{-1} through the eigenexpansion.

    mu must stay away from every eigenvalue by at least the
    ``spectrum_collision`` tolerance.
    """
    gap = float(np.abs(basis.eigenvalues - mu).min())
    if gap <= tolerances.spectrum_collision:
        raise SpectrumCollisionError(
            f"mu={mu!r} is within {gap:g} of the spectrum"
        )
    coeffs = basis.coefficients(x) / (basis.eigenvalues - mu)
    return basis.synthesize(coeffs)


def semigroup_apply(basis: SpectralBasis, t: float, x: GridFunction) -> GridFunction:
    """Apply the semigroup e^{tL} through the eigenexpansion, t >= 0."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    coeffs = basis.coefficients(x) * np.exp(basis.eigenvalues * t)
    return basis.synthesize(coeffs)

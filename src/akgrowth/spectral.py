"""Discretized state-equation generator on the circle and its spectral data.

The generator acts as sigma * d^2/dtheta^2 + A(theta) with periodic boundary
conditions.  It is discretized with the dense Fourier collocation second
derivative matrix, which is symmetric, spectrally accurate for the smooth
coefficients considered here, and small enough (n <= 512) that a full dense
eigendecomposition is cheap.

Two decompositions share one set of checks.  ``eigendecompose`` computes
every eigenvector: the closed loop, its simulation and the sweep's
projection expand in the whole basis, so ``solve``, ``simulate`` and
``sweep`` take it.  ``principal_pair`` computes only the Perron pair
(lambda0, b0) and the eigenvalues: the value function and the feedback read
the generator only through that pair, so ``verify``, which certifies those
closed forms, takes it and skips the eigenvectors it would never read.

The eigendecomposition is NumPy's ``eigh``, which runs LAPACK's
divide-and-conquer driver ``syevd`` (Gu and Eisenstat, SIAM J. Matrix Anal.
Appl. 16, 1995) on the BLAS NumPy already loads; at n = 512 it is several
times faster than the MRRR driver ``syevr`` that ``scipy.linalg.eigh`` uses
by default, and importing SciPy would cost more than the solve.  It reads the
upper triangle (``UPLO="U"``): both triangles hold the same matrix and both
results lie within a small multiple of eps * ||L|| of the exact spectrum, but
on the homogeneous profile the upper one leaves lambda_0 half as far from A_0,
and the growth rate and the audit's terminal value amplify that rounding.
The Perron pair takes the same driver's eigenvalues alone (``eigvalsh``,
without the eigenvectors and their back-transform) and then b0 by one step
of inverse iteration from the vector of ones (Ipsen, SIAM Review 39, 1997).

When A is even about node 0, as every ``constant`` profile and every
``cosine`` profile of phase 0 is, the generator commutes with the reflection
j -> -j mod n of the nodes and splits into an even block of size n/2 + 1 and
an odd block of size n/2 - 1 (``_reflection_blocks``).  Both decompositions
then solve the two blocks instead of the whole matrix, which halves the
solve and cuts ``syevd``'s 1 + 6n + 2n^2 workspace about fourfold; the
strictly positive b0 pairs positively with the vector of ones, which is
even, so it lies in the even block, where ``principal_pair`` runs its step.
The split is taken only when L[i, k] == L[-i, -k] holds exactly, entry for
entry: a generator even only to rounding would have its eigenvectors forced
into a parity its own matrix does not have.  So the second-derivative column
is mirrored rather than computed twice, and the config samples a cosine at
signed angles that are exact negatives of each other.  Any other generator,
a table that is not even or a cosine of nonzero phase, is solved whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, PositivityError
from .grid import TWO_PI, Grid, GridFunction, inner_l2, is_strictly_positive


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
    half = n // 2
    j = np.arange(1, half + 1)
    column = np.empty(n)
    column[0] = -np.pi**2 / (3.0 * h**2) - 1.0 / 6.0
    column[1:half + 1] = -0.5 * (-1.0) ** j / np.sin(j * h / 2.0) ** 2
    # column[n - j] = column[j] exactly, so the matrix commutes exactly with
    # the reflection j -> -j mod n of the nodes, which ``eigendecompose`` uses
    column[half + 1:] = column[half - 1:0:-1]
    # entry (i, k) depends on |i - k| only: the symmetric Toeplitz matrix of
    # column, whose row i is the n-window at n-1-i of column[n-1:0:-1] + column
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((column[:0:-1], column)), n)
    return windows[::-1].copy()


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


def assemble_generator(params: ModelParams, grid: Grid, tolerances=None) -> OperatorMatrix:
    """Assemble sigma * D2 + diag(A) on the given grid.

    The result is symmetric by construction (``fourier_second_derivative``
    is the symmetric Toeplitz matrix of one column), so no tolerance is
    consulted; ``tolerances`` is ignored and stays for ``perfbench/run.py``,
    which passes it.
    """
    if params.grid != grid:
        raise GridMismatchError("params profiles do not live on the requested grid")
    entries = params.sigma * fourier_second_derivative(grid.n_points)
    entries[np.diag_indices_from(entries)] += params.A.values
    return OperatorMatrix(entries, grid)


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Eigenvalues and the leading eigenvectors of the discretized generator.

    ``eigenvalues`` are all n eigenvalues, sorted descending and enumerated
    with multiplicity.  ``vectors`` is (n, k), 1 <= k <= n: column j holds
    the eigenfunction b_j sampled on the grid, orthonormal under the
    quadrature inner product, with b_0 oriented to be strictly positive.
    ``eigendecompose`` gives every column, ``principal_pair`` only b_0.
    """

    grid: Grid
    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n_points
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.vectors, dtype=float)
        if lam.shape != (n,) or vec.ndim != 2 or not (vec.shape[0] == n >= vec.shape[1] >= 1):
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

    def require_full(self, caller: str) -> None:
        """Raise GridMismatchError unless the basis holds all n eigenvectors:
        ``caller`` expands in the whole basis, which a Perron pair is not."""
        n, k = self.vectors.shape
        if k != n:
            raise GridMismatchError(
                f"{caller} needs the full eigenbasis, got {k} of {n} eigenvectors"
            )

    def coefficients(self, f: GridFunction) -> np.ndarray:
        """Quadrature inner products <f, b_j> against the basis's k vectors."""
        if f.grid != self.grid:
            raise GridMismatchError("operand lives on a different grid")
        return self.coefficient_rows(f.values[None, :])[0]

    def coefficient_rows(self, rows: np.ndarray) -> np.ndarray:
        """``coefficients`` of each row of an (m, n) array of node values,
        an (m, k) array.

        One stacked matrix-vector product over the (m, n, 1) stack of rows:
        NumPy runs one gemv per stacked item, as for a row alone, so each row
        rounds as it would alone, which one GEMM over all rows need not do.
        """
        return self.grid.weight * (self.vectors.T @ rows[:, :, None])[:, :, 0]

    def synthesize_rows(self, rows: np.ndarray) -> np.ndarray:
        """Node values of sum_j c_j b_j for each row c of an (m, k) coefficient
        array, one stacked matrix-vector product as in ``coefficient_rows``."""
        return (self.vectors @ rows[:, :, None])[:, :, 0]

    def b0_pairings(self, rows: np.ndarray) -> np.ndarray:
        """<row, b0> of each row of an (m, n) array, one stacked dot product each."""
        return self.grid.weight * (rows[:, None, :] @ self.b0.values[:, None])[:, 0, 0]


def _checked_basis(grid: Grid, eigenvalues: np.ndarray, vectors: np.ndarray) -> SpectralBasis:
    """The basis of descending ``eigenvalues`` and the leading ``vectors``,
    each of quadrature norm 1, once b_0 passes its checks.

    lambda_0 must be simple.  b_0 is sign-flipped (in place) if needed so
    that it is strictly positive with a margin above its rounding error, and
    a PositivityError signals a discretization too coarse (or an invalid
    profile) if it is not; its norm must be 1 within 4 n eps, its rounding.
    """
    if not eigenvalues[0] > eigenvalues[1]:
        raise RuntimeError(
            "leading eigenvalue is not simple: "
            f"{eigenvalues[0]!r} vs {eigenvalues[1]!r}"
        )
    b0 = vectors[:, 0]
    if b0.sum() < 0:
        b0 *= -1.0
    # b0's rounding error relative to max b0 is up to 16 eps ||L|| / gap, the
    # bound that eigh and inverse iteration both meet: a smaller minimum has
    # a sign set by the eigensolver's noise, not by the generator
    gap = eigenvalues[0] - eigenvalues[1]
    margin = 16 * np.finfo(float).eps * np.abs(eigenvalues).max() / gap
    if not b0.min() > margin * b0.max():
        raise PositivityError(
            "leading eigenfunction is not strictly positive after sign fix: "
            f"b0 min/max = {b0.min() / b0.max():.2g}, not above its rounding margin "
            f"16 eps max|lambda| / (lambda0 - lambda1) = {margin:.2g}"
        )
    basis = SpectralBasis(grid, eigenvalues, vectors)
    norm = inner_l2(basis.b0, basis.b0)
    bound = 4 * grid.n_points * np.finfo(float).eps
    if abs(norm - 1.0) > bound:
        raise RuntimeError(f"b0 normalization defect {abs(norm - 1.0):g} above its "
                           f"rounding bound 4 n eps = {bound:.2g}")
    return basis


def _reflection_blocks(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The even and odd blocks of a symmetric generator that commutes exactly
    with the reflection j -> -j mod n of the nodes, or None if it does not.

    The even block is L in the orthonormal basis e_0, (e_j + e_(n-j)) / sqrt 2
    for 0 < j < n/2, and e_(n/2); the odd block in (e_j - e_(n-j)) / sqrt 2.
    Each entry is gathered from the rows j <= n/2 of L, one sum or difference.
    """
    if not (np.array_equal(entries, entries.T)
            and np.array_equal(entries[0, 1:], entries[0, :0:-1])
            and np.array_equal(entries[1:, 1:], entries[:0:-1, :0:-1])):
        return None
    n = entries.shape[0]
    half = n // 2
    near = entries[:half + 1, :half + 1]
    far = entries[:half + 1, -np.arange(half + 1) % n]  # far[a, b] = L[a, n - b]
    even = near + far
    odd = near[1:half, 1:half] - far[1:half, 1:half]
    # nodes 0 and n/2 are their own mirror images: their rows and columns
    # carry sqrt(2) L, the 2 x 2 block between them L itself
    ends = [0, half]
    even[ends] = math.sqrt(2.0) * near[ends]
    even[:, ends] = math.sqrt(2.0) * near[:, ends]
    even[np.ix_(ends, ends)] = near[np.ix_(ends, ends)]
    return even, odd


def _even_node_values(coordinates: np.ndarray, scale: float) -> np.ndarray:
    """Scale, in place, the rows of (n/2 + 1, ...) even-block ``coordinates``
    to ``scale`` times the values of their vectors at nodes 0 to n/2, which
    nodes n - j repeat."""
    half = coordinates.shape[0] - 1
    coordinates[[0, half]] *= scale
    coordinates[1:half] *= scale / math.sqrt(2.0)
    return coordinates


def _block_eigh(entries: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Descending eigenvalues and ``scale`` times the eigenvectors of a
    generator that commutes exactly with the reflection of the nodes, solved
    as its two blocks (``_reflection_blocks``), each vector unfolded straight
    into its descending column; None for any other generator.  The blocks and
    their vectors are freed on return, before the caller copies the result."""
    blocks = _reflection_blocks(entries)
    if blocks is None:
        return None
    (lam_even, vec_even), (lam_odd, vec_odd) = (np.linalg.eigh(b, UPLO="U") for b in blocks)
    lam = np.concatenate((lam_even, lam_odd))
    order = np.argsort(-lam, kind="stable")
    n = len(lam)
    column = np.empty(n, dtype=int)
    column[order] = np.arange(n)  # the column of each block eigenvalue, descending
    half = n // 2
    even, odd = column[:half + 1], column[half + 1:]
    vectors = np.zeros((n, n))  # an odd vector vanishes at nodes 0 and n/2
    vectors[:half + 1, even] = _even_node_values(vec_even, scale)
    vectors[half + 1:, even] = vec_even[half - 1:0:-1]
    vec_odd *= scale / math.sqrt(2.0)
    vectors[1:half, odd] = vec_odd
    vectors[half + 1:, odd] = -vec_odd[::-1]
    return lam[order], vectors


def eigendecompose(op: OperatorMatrix, tolerances=None) -> SpectralBasis:
    """Full symmetric eigendecomposition of the generator.

    Eigenvalues come out descending.  Eigenvectors are rescaled so that each
    b_k has unit quadrature norm; b_0 passes the checks of ``_checked_basis``.
    A generator that commutes exactly with the reflection of the nodes is
    solved as its two blocks (``_block_eigh``), any other one whole.
    ``tolerances`` is ignored and stays for ``perfbench/run.py``, which passes it.
    """
    # eigh returns Euclidean-orthonormal columns; rescale to quadrature norm 1
    scale = math.sqrt(op.grid.n_points / TWO_PI)
    # upper triangle: on the homogeneous profile at n = 128, sigma = 1 the
    # even block's eigh puts lambda_0 2.0e-13 from A_0 with it and 7.1e-13
    # with the lower one, which the growth rate g (bounded by 1e-12 in the
    # homogeneous CLI test) doubles to 1.4e-12
    pairs = _block_eigh(op.entries, scale)
    if pairs is None:
        lam, vec = np.linalg.eigh(op.entries, UPLO="U")
        pairs = lam[::-1], vec[:, ::-1] * scale
    return _checked_basis(op.grid, *pairs)


def principal_pair(op: OperatorMatrix) -> SpectralBasis:
    """Every eigenvalue of the generator and its Perron vector b0 alone.

    The eigenvalues are ``eigh``'s driver without the eigenvectors, descending.
    b0 is one step of inverse iteration, a solve with L - lambda0 I, from the
    vector of ones: its component along the strictly positive b0 is
    <1, b0> > 0 divided by the rounding error of lambda0, so the step
    amplifies it about gap / (eps ||L||) times over every other component,
    which is as close as ``eigh``'s b0 gets.  It is scaled to unit quadrature
    norm and passes the checks of ``_checked_basis``.  A leading eigenvector
    that is not strictly positive can be orthogonal to the vector of ones:
    a Rayleigh quotient of b0 nearer lambda1 than lambda0 is then a
    PositivityError too.  The basis holds the one vector b0, and the code
    that expands in the whole basis refuses it.  A generator that commutes
    exactly with the reflection of the nodes gives its eigenvalues block by
    block (``_reflection_blocks``), and the step runs in the even block, which
    holds the vector of ones and so every strictly positive eigenvector.
    """
    grid = op.grid
    n = grid.n_points
    blocks = _reflection_blocks(op.entries)
    if blocks is None:
        lam = np.linalg.eigvalsh(op.entries, UPLO="U")[::-1]
        shifted, ones = op.entries.copy(), np.ones(n)
    else:
        lam = np.sort(np.concatenate([np.linalg.eigvalsh(b, UPLO="U") for b in blocks]))[::-1]
        shifted = blocks[0]
        ones = np.full(n // 2 + 1, math.sqrt(2.0))  # the vector of ones in the even block
        ones[[0, -1]] = 1.0
    diagonal = np.diag_indices_from(shifted)
    shifted[diagonal] -= lam[0]
    try:
        b0 = np.linalg.solve(shifted, ones)
    except np.linalg.LinAlgError:
        # an exactly zero pivot, a few generators in a thousand: the shift
        # moves by eps ||L||_1, the size of lambda0's own rounding error
        shifted[diagonal] -= np.finfo(float).eps * float(np.abs(op.entries).sum(axis=0).max())
        b0 = np.linalg.solve(shifted, ones)
    if blocks is not None:
        b0 = _even_node_values(b0, 1.0)
        b0 = np.concatenate((b0, b0[-2:0:-1]))
    b0 /= math.sqrt(grid.weight * float(b0 @ b0))
    basis = _checked_basis(grid, lam, b0[:, None])
    # a strictly positive b0 pairs positively with the vector of ones, so the
    # step cannot miss it; a Rayleigh quotient nearer lambda1 than lambda0
    # means it did, from a leading eigenvector orthogonal to ones
    quotient = grid.weight * float(b0 @ (op.entries @ b0))
    if not quotient > (lam[0] + lam[1]) / 2.0:
        raise PositivityError(
            f"one step from the vector of ones reached the eigenvalue {quotient!r}, "
            f"not lambda0 = {lam[0]!r}: the leading eigenfunction is not strictly positive"
        )
    return basis

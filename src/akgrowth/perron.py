"""Finite-dimensional oracle for dominant-eigenvalue positivity theory.

Generators of positive semigroups are, in finite dimension, exactly the
Metzler matrices (nonnegative off-diagonal entries).  For an irreducible
Metzler matrix the spectral bound is a real simple eigenvalue whose right
and left eigenvectors can be chosen strictly positive, and no other
eigenvalue admits a positive eigenvector.  This module checks all of those
conclusions directly on matrices, including the discretized circle generator
(whose positivity comes from the underlying operator rather than from the
sign pattern of the collocation matrix).

A battery of many matrices is drawn by ``random_metzler_battery`` straight
into stacks, one per dimension, from the same generator stream as that many
``random_irreducible_metzler`` calls, and checked by ``battery_failures``:
one stacked eigensolve serves every check, the left eigenvectors are the
rows of the inverse of the right eigenvector matrix, and the positivity
test runs on all eigenvectors at once.  A matrix whose eigenvector matrix
is too ill-conditioned for that inverse (``CONDITION_LIMIT``) is solved
again through its transpose.  No per-matrix object is built for a matrix
that passes.  The per-matrix functions stay the public API and the oracle:
a matrix the stacked screen flags is checked again by ``audit_failure``,
whose text is the one reported.

The thresholds are the module constants ``REALNESS_TOL``,
``SIMPLICITY_TOL``, ``POSITIVITY_TOL``, ``METZLER_SLACK``,
``UNIQUENESS_TOL`` and ``CONDITION_LIMIT`` (derived from ``REALNESS_TOL``);
like every threshold of the program, none of them is a config key.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import PerronViolationError

# the realness and simplicity thresholds are relative to max(1, largest modulus)
REALNESS_TOL = 1e-9     # imaginary part of a real eigenvalue or eigenvector
SIMPLICITY_TOL = 1e-9   # gap between the spectral bound and the rest of the spectrum
POSITIVITY_TOL = 1e-12  # smallest entry of a positive vector scaled to max 1
METZLER_SLACK = 1e-12   # off-diagonal entries may be this far below 0
# an eigenvalue with a positive eigenvector farther than this from the
# spectral bound breaks uniqueness
UNIQUENESS_TOL = 1e-8
# a row of inv(V) is a left eigenvector only to about eps * cond(V); the
# screen trusts it while that error stays 1000 times below REALNESS_TOL,
# so rounding cannot pass for the imaginary part of a real vector
CONDITION_LIMIT = 1e-3 * REALNESS_TOL / np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Dense square matrix standing in for a positive-semigroup generator."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"entries must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("entries must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_metzler(self) -> bool:
        return bool(_metzler(self.entries[None])[0])


def _metzler(stack: np.ndarray) -> np.ndarray:
    """Per matrix of a (k, m, m) stack: are the off-diagonal entries >= -slack?"""
    off = np.where(np.eye(stack.shape[-1], dtype=bool), 0.0, stack)
    return off.min(axis=(1, 2)) >= -METZLER_SLACK


def _strongly_connected(stack: np.ndarray) -> np.ndarray:
    """Per matrix of a (k, m, m) stack: is its graph strongly connected?"""
    m = stack.shape[-1]
    # 0/1 entries in float64: every sum of the product is an integer <= m,
    # exact, and the product runs in BLAS
    reach = ((stack != 0.0) | np.eye(m, dtype=bool)).astype(float)
    for _ in range(int(np.ceil(np.log2(max(m, 2))))):
        reach = np.minimum(reach @ reach, 1.0)
    return reach.all(axis=(1, 2))


def is_irreducible(gen: GeneratorMatrix) -> bool:
    """Strong connectivity of the directed graph of nonzero off-diagonals.

    Computed by boolean reachability closure (repeated squaring), so the test
    is independent of any eigenvalue computation it is used to certify.
    """
    return bool(_strongly_connected(gen.entries[None])[0])


def _positive_version(vector: np.ndarray) -> np.ndarray | None:
    """Entrywise positive representative of an eigenvector, if one exists.

    The vector is declared positive only when a global phase makes all
    entries real and, after normalizing the largest entry to 1, every entry
    exceeds the positivity tolerance.
    """
    pivot = vector[np.argmax(np.abs(vector))]
    if pivot == 0:
        return None
    rotated = vector * (np.conj(pivot) / abs(pivot))
    if np.abs(rotated.imag).max() > REALNESS_TOL * max(1.0, float(np.abs(rotated).max())):
        return None
    real = rotated.real
    if real.max() <= 0:
        real = -real
    scaled = real / real.max()
    if scaled.min() <= POSITIVITY_TOL:
        return None
    return scaled


@dataclass(frozen=True, eq=False)
class PerronData:
    """Spectral bound with its normalized positive right/left eigenvectors."""

    spectral_bound: float
    right: np.ndarray   # unit max entry
    left: np.ndarray    # normalized so that left @ right = 1
    gap: float          # distance from the bound to the rest of the spectrum


def perron_data(gen: GeneratorMatrix, require_metzler: bool = True) -> PerronData:
    """Spectral bound and strictly positive eigenvector pair.

    Asserts that the spectral bound is real and simple and that both Perron
    vectors are strictly positive; any failure raises PerronViolationError
    (flagging a bug or a non-irreducible input).  ``require_metzler=False``
    admits matrices, such as the spectral collocation generator, whose
    semigroup positivity is known at the operator level even though the
    discretized entries change sign.

    The left vector spans the null space of ``(A - bound I).T``: the last
    row of ``Vh`` in its singular value decomposition.  The stacked screen
    takes its left vectors from the rows of ``inv(V)`` (V the right
    eigenvectors) or, for an ill-conditioned V, from ``eig(A.T)``; this
    oracle uses neither, so it stays independent of both.
    """
    if require_metzler and not gen.is_metzler():
        raise PerronViolationError("matrix is not Metzler")
    eigenvalues, right_vectors = np.linalg.eig(gen.entries)
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    idx = int(np.argmax(eigenvalues.real))
    bound = eigenvalues[idx]
    if abs(bound.imag) > REALNESS_TOL * scale:
        raise PerronViolationError(f"spectral bound {complex(bound)!r} is not real")
    others = np.delete(eigenvalues, idx)
    gap = float(np.abs(others - bound).min()) if others.size else float("inf")
    if gap <= SIMPLICITY_TOL * scale:
        raise PerronViolationError(
            f"spectral bound {float(bound.real)!r} is not simple (gap {gap:g})"
        )
    right = _positive_version(right_vectors[:, idx])
    shifted = gen.entries - float(bound.real) * np.eye(gen.dim)
    left = _positive_version(np.linalg.svd(shifted.T)[2][-1])
    if right is None or left is None:
        raise PerronViolationError(
            "Perron eigenvector has a nonpositive entry; input may be reducible"
        )
    left = left / float(left @ right)
    return PerronData(
        spectral_bound=float(bound.real), right=right, left=left, gap=gap
    )


def eigenvalues_admitting_positive_eigenvector(
    gen: GeneratorMatrix, side: str = "right"
) -> list[float]:
    """Brute-force scan of all eigenpairs for entrywise positive eigenvectors.

    Used to certify uniqueness: for an irreducible Metzler matrix only the
    spectral bound may appear in the returned list.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    matrix = gen.entries if side == "right" else gen.entries.T
    eigenvalues, vectors = np.linalg.eig(matrix)
    admitted = []
    for k in range(eigenvalues.size):
        if _positive_version(vectors[:, k]) is not None:
            admitted.append(float(eigenvalues[k].real))
    return admitted


def audit_failure(gen: GeneratorMatrix) -> str | None:
    """The battery check of one matrix: None, or the text of its first failure.

    Irreducible, then ``perron_data`` (Metzler, real simple bound, positive
    Perron vectors), then the right and left uniqueness scans.
    """
    try:
        if not is_irreducible(gen):
            return "random generator not irreducible"
        bound = perron_data(gen).spectral_bound
        for side in ("right", "left"):
            admitted = eigenvalues_admitting_positive_eigenvector(gen, side)
            if any(abs(v - bound) > UNIQUENESS_TOL for v in admitted):
                return f"non-dominant eigenvalue admits a positive {side} eigenvector"
    except Exception as exc:  # noqa: BLE001 - the battery reports every failure
        return str(exc)
    return None


def _positive_columns(vectors: np.ndarray) -> np.ndarray:
    """``_positive_version(...) is not None`` for every column of a (k, m, m) stack."""
    modulus = np.abs(vectors)
    at = modulus.argmax(axis=1)[:, None, :]
    pivot = np.take_along_axis(vectors, at, axis=1)
    size = np.take_along_axis(modulus, at, axis=1)
    rotated = vectors * (np.conj(pivot) / size)
    # |pivot| is the largest modulus of the rotated column too, up to an ulp
    realness = REALNESS_TOL * np.maximum(1.0, size[:, 0, :])
    # the pivot entry is now |pivot| > 0, so the largest real entry is
    # positive and no sign flip is needed
    scaled_min = rotated.real.min(axis=1) / rotated.real.max(axis=1)
    return (np.abs(rotated.imag).max(axis=1) <= realness) & (
        scaled_min > POSITIVITY_TOL
    )


_SCREEN_CHECKS = (
    "not irreducible",
    "not Metzler",
    "spectral bound is not real",
    "spectral bound is not simple",
    "Perron eigenvector has a nonpositive entry",
    "non-dominant eigenvalue admits a positive right eigenvector",
    "non-dominant eigenvalue admits a positive left eigenvector",
)


def _left_eigen(
    stack: np.ndarray, values: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and left eigenvectors, as columns, of a (k, m, m) stack.

    ``values, right = eig(stack)``.  Row j of ``inv(right)`` is the left
    eigenvector of ``values[j]``.  A matrix whose eigenvector matrix has
    ``cond_F(V) = |V|_F |inv(V)|_F`` above ``CONDITION_LIMIT`` (or a stack
    in which some V is singular) takes ``eig`` of its transpose instead,
    whose eigenvalues then serve its left checks.
    """
    try:
        inverse = np.linalg.inv(right)
    except np.linalg.LinAlgError:
        return np.linalg.eig(stack.transpose(0, 2, 1))
    condition = np.linalg.norm(right, axis=(1, 2)) * np.linalg.norm(inverse, axis=(1, 2))
    left = inverse.transpose(0, 2, 1)
    ill = np.flatnonzero(~(condition <= CONDITION_LIMIT))  # NaN included
    if ill.size == 0:
        return values, left
    values_t, left_t = np.linalg.eig(stack[ill].transpose(0, 2, 1))
    # eig of a transpose can split a defective eigenvalue into a complex pair
    dtype = np.result_type(values, values_t)
    values, left = values.astype(dtype), left.astype(np.result_type(left, left_t))
    values[ill], left[ill] = values_t, left_t
    return values, left


def _screen(stack: np.ndarray) -> dict[int, str]:
    """Offset -> first failed check, for the matrices of a (k, m, m) stack that fail.

    The checks and thresholds are those of ``audit_failure``, in its order.
    One eigensolve of the stack serves the Perron checks and both
    uniqueness scans: the left eigenvectors are the rows of ``inv(V)``, V
    the right eigenvectors.  That inverse is accurate to about
    ``eps * cond(V)``, so a matrix with ``cond_F(V) > CONDITION_LIMIT``
    (about 4.5e3) is solved again through its transpose (``_left_eigen``).
    """
    rows = np.arange(stack.shape[0])
    values, right = np.linalg.eig(stack)
    left_values, left = _left_eigen(stack, values, right)
    idx = values.real.argmax(axis=1)
    bound = values[rows, idx]
    scale = np.maximum(1.0, np.abs(values).max(axis=1))
    distance = np.abs(values - bound[:, None])
    distance[rows, idx] = np.inf
    right_positive = _positive_columns(right)
    left_positive = _positive_columns(left)
    perron_positive = (
        right_positive[rows, idx] & left_positive[rows, left_values.real.argmax(axis=1)]
    )
    bound_real = bound.real[:, None]
    passed = np.array([
        _strongly_connected(stack),
        _metzler(stack),
        np.abs(bound.imag) <= REALNESS_TOL * scale,
        distance.min(axis=1) > SIMPLICITY_TOL * scale,
        perron_positive,
        ~(right_positive & (np.abs(values.real - bound_real) > UNIQUENESS_TOL)).any(axis=1),
        ~(left_positive & (np.abs(left_values.real - bound_real) > UNIQUENESS_TOL)).any(axis=1),
    ])
    first = passed.argmin(axis=0)
    return {
        int(k): f"batch screen: {_SCREEN_CHECKS[first[k]]}"
        for k in np.flatnonzero(~passed.all(axis=0))
    }


def _screen_each(stack: np.ndarray) -> dict[int, str]:
    """``_screen``, falling back to one matrix at a time when a stacked eigensolve fails."""
    try:
        return _screen(stack)
    except np.linalg.LinAlgError as exc:
        if stack.shape[0] == 1:
            return {0: f"batch screen: {exc}"}
    # one matrix that does not converge fails the whole stacked call
    failures = {}
    for k in range(stack.shape[0]):
        single = _screen_each(stack[k:k + 1])
        if single:
            failures[k] = single[0]
    return failures


def battery_failures(
    stacks: Iterable[tuple[np.ndarray, np.ndarray]],
) -> list[tuple[int, int, str]]:
    """(index, dim, failure text) of every battery matrix that fails ``audit_failure``.

    ``stacks`` yields (indices, stack) pairs: the battery indices of the
    matrices of one (k, m, m) stack.  A matrix the stacked screen flags is
    checked again by ``audit_failure``, whose text is the one reported; if
    that check passes, the screen's own reason is kept, so a disagreement
    between the two shows as a failure rather than being dropped.
    """
    failures = []
    for indices, stack in stacks:
        for k, reason in _screen_each(stack).items():
            error = audit_failure(GeneratorMatrix(stack[k]))
            failures.append(
                (int(indices[k]), stack.shape[-1], reason if error is None else error)
            )
    return sorted(failures)


def random_irreducible_metzler(
    dim: int,
    rng: np.random.Generator,
    density: float = 0.5,
) -> GeneratorMatrix:
    """Seeded random irreducible Metzler matrix for oracle batteries.

    A directed cycle is always included, which guarantees strong
    connectivity regardless of the sparsity draw.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    return GeneratorMatrix(_assemble(dim, rng.random((1, 2 * dim * (dim + 1))), density)[0])


# matrices of one dimension whose draws are held before they are assembled
# into a block of its stack: the draws take over twice the space of the
# entries, so holding them all would raise the battery's peak memory
_DRAW_BLOCK = 16


def _assemble(dim: int, draws: np.ndarray, density: float) -> np.ndarray:
    """The (k, dim, dim) stack of irreducible Metzler matrices built from each
    of k rows of 2 dim (dim + 1) uniform draws: an off-diagonal entry is kept
    where its draw is below ``density``, a directed cycle is added, and the
    diagonal is drawn last.  Whole stacks are built with the same operations
    in the same order as one matrix, so the entries are bit-identical.
    """
    k, square = len(draws), dim * dim
    mask = draws[:, :square].reshape(k, dim, dim) < density
    stack = np.where(mask, draws[:, square:2 * square].reshape(k, dim, dim), 0.0)
    rows = np.arange(dim)
    stack[:, rows, (rows + 1) % dim] += draws[:, 2 * square:2 * square + dim] + 0.1
    stack[:, rows, rows] = -draws[:, 2 * square + dim:] * dim
    return stack


def random_metzler_battery(
    count: int, max_dim: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """A seeded battery of ``count`` random irreducible Metzler matrices, by dimension.

    The generator is consumed now, exactly as by ``count`` calls to
    ``random_irreducible_metzler(int(rng.integers(3, max_dim + 1)), rng)``:
    one ``integers`` call per matrix, then the one ``random`` call of 2 dim
    (dim + 1) doubles that the function makes, here into the matrix's row of
    its dimension's draw buffer.  Doubles leave the 32-bit half-word that
    ``integers`` buffers untouched, and both build the matrices with
    ``_assemble``, so the dimensions, the entries and the final generator
    state are those of the calls.  A full buffer is assembled into a block
    of its dimension's stack and reused.

    The returned iterator yields one (indices, stack) pair per dimension:
    the battery indices, increasing, and the (k, dim, dim) stack of their
    matrices, joined from its blocks when it is reached.
    """
    draws: dict[int, np.ndarray] = {}
    blocks: dict[int, list[np.ndarray]] = defaultdict(list)
    members: dict[int, list[int]] = defaultdict(list)
    for index in range(count):
        dim = int(rng.integers(3, max_dim + 1))
        indices = members[dim]
        row = len(indices) % _DRAW_BLOCK
        if not indices:
            draws[dim] = np.empty((_DRAW_BLOCK, 2 * dim * (dim + 1)))
        elif row == 0:
            blocks[dim].append(_assemble(dim, draws[dim], 0.5))
        rng.random(out=draws[dim][row])
        indices.append(index)

    def stacks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for dim in list(members):
            indices = members.pop(dim)
            last = draws.pop(dim)[:(len(indices) - 1) % _DRAW_BLOCK + 1]
            stack = np.concatenate(blocks.pop(dim, []) + [_assemble(dim, last, 0.5)])
            yield np.array(indices), stack

    return stacks()

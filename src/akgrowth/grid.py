"""Uniform periodic grids on the circle and real functions sampled on them.

The circle is parameterized by the angle theta in [0, 2*pi). All quadrature
is the periodic trapezoid rule with constant weight 2*pi/n, which is exact
for trigonometric polynomials of degree below n/2, so inner products of
resolved modes are spectrally accurate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import GridMismatchError

TWO_PI = 2.0 * np.pi
# the text of the ValueError a GridFunction raises on values that are not finite
NOT_FINITE = "values must all be finite"


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n_points angles theta_j = 2*pi*j/n on the circle.

    n_points must be even and at least 8 (required by the Fourier
    differentiation rule).  Equality is structural: two grids are the same
    grid exactly when they have the same number of points.
    """

    n_points: int

    def __post_init__(self) -> None:
        n = self.n_points
        if not isinstance(n, (int, np.integer)):
            raise ValueError(f"n_points must be an integer, got {n!r}")
        if n < 8 or n % 2 != 0:
            raise ValueError(f"n_points must be even and >= 8, got {n}")
        object.__setattr__(self, "n_points", int(n))

    @cached_property
    def nodes(self) -> np.ndarray:
        theta = TWO_PI * np.arange(self.n_points) / self.n_points
        theta.setflags(write=False)
        return theta

    @property
    def weight(self) -> float:
        """Quadrature weight of the periodic trapezoid rule."""
        return TWO_PI / self.n_points


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real-valued function sampled at the nodes of a :class:`Grid`.

    Values are copied and frozen at construction; all arithmetic returns new
    instances, so grid functions are safe to share across threads.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"values must have shape ({self.grid.n_points},), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError(NOT_FINITE)
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.n_points, float(value)))

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        """Sample ``fn`` (vectorized over angles) on the grid nodes."""
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))

    # ---------------------------------------------------------- arithmetic
    def _operand(self, other) -> np.ndarray | float:
        if isinstance(other, GridFunction):
            check_same_grid(self, other)
            return other.values
        if np.isscalar(other):
            return float(other)
        return NotImplemented

    def _binary(self, other, op) -> "GridFunction":
        v = self._operand(other)
        if v is NotImplemented:
            return NotImplemented
        return GridFunction(self.grid, op(self.values, v))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__


def check_same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(
            f"grid mismatch: {f.grid.n_points} vs {g.grid.n_points} points"
        )


def inner_l2(f: GridFunction, g: GridFunction) -> float:
    """L2 inner product on the circle, (2*pi/n) * sum_j f_j g_j."""
    check_same_grid(f, g)
    return f.grid.weight * float(f.values @ g.values)


def sup_norm(f: GridFunction) -> float:
    """Sup norm on the grid, max_j |f_j|."""
    return float(np.abs(f.values).max())


def is_strictly_positive(f: GridFunction) -> bool:
    """True iff f is strictly positive at every node."""
    return bool(f.values.min() > 0.0)

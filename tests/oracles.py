"""Test-only oracles: the eigenexpansion actions of the generator and a
generator of half-space states.

The commands never apply the resolvent or the semigroup to a state, and
draw no random state: ``tests/test_spectral.py`` checks the basis against
these actions, ``tests/test_closed_loop.py`` checks the steady profile w
against the resolvent, and the HJB tests evaluate the residual at the
sampled states.
"""

from __future__ import annotations

import numpy as np

from akgrowth.errors import SpectrumCollisionError
from akgrowth.grid import GridFunction
from akgrowth.spectral import SpectralBasis
from akgrowth.tolerances import DEFAULT_TOLERANCES, Tolerances


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
    return GridFunction(basis.grid, basis.vectors @ coeffs)


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

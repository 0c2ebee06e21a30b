"""Central record of the numerical tolerances of the config-driven commands.

The thresholds that ``solve``, ``simulate``, ``verify`` and ``sweep`` rely on
live in one frozen record, so a single override can retune an entire run
(``tol.<name> = <value>`` in a config file) without touching call sites.
The Perron oracle's thresholds are constants in ``akgrowth.perron``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    b0_normalization: float = 1e-10       # |<b0,b0> - 1|
    spectrum_collision: float = 1e-9      # min distance of a shift from the spectrum
    pairing_normalization: float = 1e-10  # |<w,beta> - 1|
    quadrature_consistency: float = 1e-10 # mu0 cross-check against its quadrature form
    contour_imag: float = 1e-8            # imaginary residue of the contour projection
    bound_slack: float = 1e-9             # absolute slack in the convergence bound audit
    value_equality_rel: float = 1e-6
    tail_rel: float = 1e-8
    dominance_rel: float = 1e-6
    hjb_residual_rel: float = 1e-9
    transversality_tail_rel: float = 1e-6


DEFAULT_TOLERANCES = Tolerances()

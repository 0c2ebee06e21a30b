"""Numerical thresholds of ``simulate`` and ``verify``, in one record.

A single override retunes an entire run (``tol.<name> = <value>`` in a config
file).  The spectral basis and the steady direction w check against rounding
bounds they derive, and ``akgrowth.perron`` and the contour oracle of
``akgrowth.closed_loop`` keep their own constants.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    bound_slack: float = 1e-9             # absolute slack in the convergence bound audit
    value_equality_rel: float = 1e-6
    tail_rel: float = 1e-8
    dominance_rel: float = 1e-6
    hjb_residual_rel: float = 1e-9
    transversality_tail_rel: float = 1e-6


DEFAULT_TOLERANCES = Tolerances()

"""Spatial AK growth control on the circle.

A NumPy library that assembles the diffusion-plus-technology generator
on a periodic grid, computes its spectral data, builds the closed-form value
function and optimal feedback of the discounted consumption problem,
simulates the closed-loop integro-PDE, and numerically certifies
convergence, positivity admissibility, and optimality.  NumPy is its only
runtime dependency.
"""

from .closed_loop import (
    ClosedLoopOperator,
    ContourProjection,
    ProjectionData,
    Trajectory,
    build_closed_loop,
    compute_projection_data,
    projection_matrix,
    projection_via_contour,
    simulate,
)
from .errors import (
    ConfigError,
    ContourEnclosureError,
    GridMismatchError,
    HalfSpaceError,
    InfeasibleParametersError,
    PerronViolationError,
    PositivityError,
    SeriesCancellationError,
    SpectrumCollisionError,
    TailDivergenceError,
)
from .grid import (
    Grid,
    GridFunction,
    inner_l2,
    is_strictly_positive,
    sup_norm,
)
from .hjb import (
    HjbSolution,
    feedback_control,
    hamiltonian,
    hjb_summary,
    optimal_control_path,
    solve_hjb,
    utility,
    value_function,
    wellposed,
)
from .perron import (
    GeneratorMatrix,
    PerronData,
    eigenvalues_admitting_positive_eigenvector,
    is_irreducible,
    perron_data,
    random_irreducible_metzler,
)
from .spectral import (
    ModelParams,
    OperatorMatrix,
    SpectralBasis,
    assemble_generator,
    eigendecompose,
    fourier_second_derivative,
    principal_pair,
)
from .stability import (
    StabilityReport,
    admissibility_condition,
    convergence_bound_check,
)
from .verify import (
    OptimalityAudit,
    hjb_residual,
    open_loop_trajectory,
    optimality_audit,
    payoff,
    perturbed_transversality_envelope,
    transversality_check,
)

__version__ = "0.1.0"

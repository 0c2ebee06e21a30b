"""Exception and warning types shared across the package."""


class GridMismatchError(ValueError):
    """Two grid quantities living on different grids were combined, or a
    solution was paired with a basis other than the one it was solved on."""


class PositivityError(RuntimeError):
    """A quantity that must be strictly positive failed the check."""


class SpectrumCollisionError(ValueError):
    """A shift parameter landed on (or too close to) an eigenvalue."""


class InfeasibleParametersError(ValueError):
    """Discount and preference parameters violate the well-posedness inequality."""


class HalfSpaceError(ValueError):
    """State lies outside the open half-space where the value function is defined."""


class ContourEnclosureError(ValueError):
    """Contour circle does not enclose exactly the dominant eigenvalue."""


class TailDivergenceError(ValueError):
    """Discounted payoff tail does not converge for the given parameters."""


class PerronViolationError(RuntimeError):
    """Dominant-eigenvalue structure guaranteed for irreducible positive generators failed."""


class ConfigError(ValueError):
    """Run configuration is malformed or inconsistent."""


class UnderflowWarning(UserWarning):
    """A pointwise power of a strictly positive profile underflowed and was floored."""

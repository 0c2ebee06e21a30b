"""Exception types shared across the package."""


class GridMismatchError(ValueError):
    """Two grid quantities living on different grids were combined, a
    solution was paired with a basis other than the one it was solved on, or
    a basis holding only the Perron vector reached code that expands in the
    whole eigenbasis."""


class PositivityError(RuntimeError):
    """A quantity that must be strictly positive failed the check."""


class SpectrumCollisionError(ValueError):
    """A shift parameter landed on (or too close to) an eigenvalue."""


class InfeasibleParametersError(ValueError):
    """Discount and preference parameters violate the well-posedness inequality.

    Its args are rho and the bound lambda0*(1-gamma) it does not exceed; the
    message is formatted only when it is read, since a sweep makes one per
    infeasible row and reads only its type.
    """

    def __str__(self) -> str:
        rho, bound = self.args
        return f"rho={rho} does not exceed lambda0*(1-gamma)={bound}"


class HalfSpaceError(ValueError):
    """State lies outside the open half-space where the value function is defined."""


class ContourEnclosureError(ValueError):
    """Contour circle does not enclose exactly the dominant eigenvalue."""


class TailDivergenceError(ValueError):
    """Discounted payoff tail does not converge for the given parameters."""


class SeriesCancellationError(RuntimeError):
    """A closed-form series needs terms beyond the float range."""


class PerronViolationError(RuntimeError):
    """Dominant-eigenvalue structure guaranteed for irreducible positive generators failed."""


class ConfigError(ValueError):
    """Run configuration is malformed or inconsistent."""

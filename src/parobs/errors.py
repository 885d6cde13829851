"""Exception hierarchy shared across the package."""


class ParobsError(Exception):
    """Base class for all package-specific errors."""


# -- eigensystem / basis construction ---------------------------------------

class UnsupportedAnalyticCase(ParobsError):
    """Closed-form eigenpairs are only available for constant reaction
    profiles with pure Neumann/Dirichlet ends."""


class ResolutionTooCoarse(ParobsError):
    """Requested modes are not resolved by the finite-difference grid."""


class InvalidM(ParobsError):
    """Tail index M must satisfy lambda_M > 0."""


class NonPositiveCoefficient(ParobsError):
    """Variable coefficients must be strictly positive on the grid."""


class GridMismatch(ParobsError):
    """Sampled data does not live on the expected grid."""


# -- observer design ---------------------------------------------------------

class DimensionMismatch(ParobsError):
    """Matrix/vector dimensions are inconsistent."""


class NotHurwitz(ParobsError):
    """Matrix has an eigenvalue with nonnegative real part."""


class NearSingular(ParobsError):
    """Lyapunov solve produced a numerically singular factor."""


class KappaOutOfRange(ParobsError):
    """Decay rate kappa must lie in [0, mu)."""


class QInfeasible(ParobsError):
    """Q violates Q >= 2 or the tail-coupling lower bound."""


class PlacementImpossible(ParobsError):
    """Diagonal gain synthesis requires nonzero output coefficients."""


class NoFeasibleQ(ParobsError):
    """No candidate Q yields a valid certificate."""


class InfeasibleAtZero(ParobsError):
    """The small-gain value already exceeds 1 in the h -> 0 limit."""


# -- simulation ---------------------------------------------------------------

class StepRejected(ParobsError):
    """The trapezoidal corrector on the low-rank explicit part (nonlinearity,
    injection) failed to contract: three non-decreasing iterate changes, or
    no convergence within the iteration cap; the time step is too large."""


class InvalidSpec(ParobsError):
    """Malformed schedule or signal specification."""


class ScheduleHorizonMismatch(ParobsError):
    """Sampling schedule does not cover the simulation horizon."""


# -- analysis -----------------------------------------------------------------

class DecayedToFloor(ParobsError):
    """Norm series reached the numerical floor inside the fit window."""


class InfeasibleReport(ParobsError):
    """Bound checking requires a feasible small-gain report (Omega < 1)."""


class TailTooShort(ParobsError):
    """Modal truncation misses too much of the error energy."""


class ReactionOutOfRange(ParobsError):
    """Reaction coefficient outside the admissible design range."""


# -- configuration ------------------------------------------------------------

class ConfigError(ParobsError):
    """Invalid run configuration; message carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")

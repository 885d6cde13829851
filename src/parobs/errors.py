"""Exception hierarchy shared across the package."""


class ParobsError(Exception):
    """Base class for all package-specific errors."""


# -- eigensystem / basis construction ---------------------------------------

class UnsupportedAnalyticCase(ParobsError):
    """Closed-form eigenpairs are only available for constant reaction
    profiles with pure Neumann/Dirichlet ends."""


class ResolutionTooCoarse(ParobsError, ValueError):
    """Requested modes are not resolved by the finite-difference grid. Also a
    ValueError, for callers that catch that."""


class UnverifiedEigenpair(ParobsError):
    """The numeric eigensolver could not verify a mode: its Rayleigh-quotient
    iteration did not settle within its cap, its residual exceeds the bound,
    or Sturm counts do not place it as the k-th eigenvalue."""


class InvalidM(ParobsError, ValueError):
    """Tail index M must satisfy lambda_M > 0. Also a ValueError, for callers
    that catch that."""


class NonPositiveCoefficient(ParobsError):
    """Variable coefficients must be strictly positive on the grid."""


class GridMismatch(ParobsError):
    """Sampled data does not live on the expected grid."""


# -- observer design ---------------------------------------------------------

class DimensionMismatch(ParobsError):
    """Matrix/vector dimensions are inconsistent."""


class NotHurwitz(ParobsError):
    """Matrix has an eigenvalue with nonnegative real part."""


class InvalidCertificate(ParobsError, ValueError):
    """The Lyapunov pair (P, sigma) fails sigma > 0, P >= I or
    P A + A'P <= -2 sigma P. Also a ValueError, for callers that catch that."""


class ApproximantOutsideDomain(ParobsError, ValueError):
    """A channel approximant c_i violates the Robin end conditions, so it is
    not in the operator domain. Also a ValueError, for callers that catch that."""


class InvalidLipschitzBound(ParobsError, ValueError):
    """A design's L2 Lipschitz bound R must be finite and non-negative.
    Also a ValueError, for callers that catch that."""


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
    """A time step of size dt cannot be taken: its Crank-Nicolson matrix or
    the Jacobian of its low-rank coupling is singular (dt sits on a pole of
    the trapezoidal rule), or the chord-Newton corrector did not converge
    within its iteration cap. Linear terms are solved exactly, so only a
    stiff saturated term (dt times its gain >> 1) fails to converge."""


class InvalidSpec(ParobsError, ValueError):
    """Malformed schedule, signal or initial-field specification. Also a
    ValueError, for callers that catch that."""


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

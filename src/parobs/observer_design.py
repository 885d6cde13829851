"""Finite-dimensional observer data and small-gain certificates.

Builds the mode-block matrix A, the injection kernels, the Lyapunov pair
(P, sigma), the tail-coupling constant K, and evaluates the small-gain
value Omega for both observer variants (with inter-sample predictor, and
zero-order-hold innovation) together with the coefficients of the
corresponding input-to-output stability bounds.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import profiles as pf
from .errors import (
    ApproximantOutsideDomain,
    DimensionMismatch,
    InfeasibleAtZero,
    InvalidCertificate,
    InvalidLipschitzBound,
    InvalidM,
    InvalidSpec,
    KappaOutOfRange,
    NearSingular,
    NoFeasibleQ,
    NotHurwitz,
    PlacementImpossible,
    QInfeasible,
    ResolutionTooCoarse,
    UnsupportedAnalyticCase,
)
from .grids import trapezoid_weights
from .sturm_liouville import SLProblem, SpectralBasis, problem_from_spec, project

__all__ = [
    "OutputChannel",
    "channel_from_spec",
    "ObserverDesign",
    "SmallGainReport",
    "BoundCoefficients",
    "CouplingReport",
    "build_A",
    "injection_kernels",
    "coupling_constant_K",
    "lyapunov_certificate",
    "place_gain",
    "make_design",
    "small_gain_predictor",
    "small_gain_zoh",
    "small_gain",
    "max_diameter",
    "select_Q",
    "certificate_defects",
    "design_to_json",
    "design_from_json",
    "certificate_summary",
]


@dataclass(frozen=True)
class OutputChannel:
    """Measured-output kernel k and its domain-compatible approximant c.

    The approximant must satisfy the Robin end conditions (membership in the
    operator domain is what makes the integration-by-parts boundary terms
    vanish); the kernel only needs to be square integrable.
    """

    kernel: object
    approximant: object
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "kernel", pf.as_profile(self.kernel))
        object.__setattr__(self, "approximant", pf.as_profile(self.approximant))

    def boundary_residual(self, problem: SLProblem) -> float:
        """The approximant's relative defect in the Robin end conditions."""
        ends = np.array([0.0, 1.0])
        d0, d1 = self.approximant.derivative().values(ends)
        return problem.boundary_residual(self.approximant.values(ends), float(d0), float(d1))

    def spec(self) -> dict:
        """The channel as an entry of a config's ``design.channels`` list."""
        return {"label": self.label, "kernel": self.kernel.spec(),
                "approximant": self.approximant.spec()}


def channel_from_spec(spec: dict, grid: np.ndarray, index: int) -> OutputChannel:
    """Channel ``index`` of a ``design.channels`` list, as ``OutputChannel.spec``
    writes it: kernel and approximant are profile specs or numbers, sampled
    ones on ``grid``, and an unlabelled channel is called ``y{index + 1}``."""
    return OutputChannel(
        kernel=pf.as_profile(spec["kernel"], grid),
        approximant=pf.as_profile(spec["approximant"], grid),
        label=spec.get("label", f"y{index + 1}"),
    )


def build_A(eigenvalues: Sequence[float], L: np.ndarray, c_coeffs: np.ndarray) -> np.ndarray:
    """A[i, j] = -lambda_i delta_ij + sum_r L[i, r] c_coeffs[r, j]."""
    lam = np.asarray(eigenvalues, dtype=float)
    L = np.atleast_2d(np.asarray(L, dtype=float))
    C = np.atleast_2d(np.asarray(c_coeffs, dtype=float))
    N = lam.size
    if L.shape[0] != N:
        raise DimensionMismatch(f"L has {L.shape[0]} rows, need {N}")
    if C.shape[0] != L.shape[1]:
        raise DimensionMismatch(
            f"c_coeffs covers {C.shape[0]} channels, L has {L.shape[1]}"
        )
    if C.shape[1] < N:
        raise DimensionMismatch(f"c_coeffs covers {C.shape[1]} modes, need {N}")
    return -np.diag(lam) + L @ C[:, :N]


def injection_kernels(L: np.ndarray, basis: SpectralBasis) -> tuple[np.ndarray, np.ndarray]:
    """Grid samples and L2 norms of l_i = sum_n phi_n L[n, i].

    Each l_i is a finite combination of the first N modes, hence lies in the
    operator domain; by orthonormality its norm is the Euclidean norm of the
    corresponding column of L.
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    N = L.shape[0]
    if basis.size < N:
        raise DimensionMismatch(f"basis holds {basis.size} modes, L uses {N}")
    samples = L.T @ basis.functions[:N]
    norms = np.linalg.norm(L, axis=0)
    return samples, norms


@dataclass(frozen=True)
class CouplingReport:
    """Truncated tail-coupling constant with a truncation diagnostic."""

    value: float
    modes_used: int
    last_block_fraction: float  # share of K^2 carried by the last 50 modes


def coupling_constant_K(
    c_coeffs: np.ndarray, N: int, j_max: int | None = None
) -> CouplingReport:
    """K = sqrt(sum_i sum_{j>N} c_coeffs[i, j]^2), truncated at j_max modes."""
    C = np.atleast_2d(np.asarray(c_coeffs, dtype=float))
    stop = C.shape[1] if j_max is None else min(j_max, C.shape[1])
    tail = C[:, N:stop]
    total = float(np.sum(tail**2))
    # a tail that is pure projection roundoff carries no truncation risk
    floor = (1e-13 * max(float(np.max(np.abs(C))), 1.0)) ** 2
    if tail.shape[1] > 50 and total > floor:
        last = float(np.sum(tail[:, -50:] ** 2))
        frac = last / total
    else:
        frac = 0.0
    return CouplingReport(value=math.sqrt(total), modes_used=stop, last_block_fraction=frac)


def lyapunov_certificate(A: np.ndarray, sigma_fraction: float = 0.9) -> tuple[np.ndarray, float]:
    """Certificate pair (P, sigma) with P >= I and P A + A' P <= -2 sigma P.

    sigma is sigma_fraction times the spectral abscissa magnitude; P solves
    the shifted Lyapunov equation (A + sigma I)' P + P (A + sigma I) = -I,
    as one ``numpy.linalg.solve`` of its N^2 unknowns, and is rescaled so
    its smallest eigenvalue is one; a singular equation (a pair of
    eigenvalues of A + sigma I summing to zero, as at sigma_fraction = 1)
    raises NearSingular. The scalar case returns P = [1] exactly, so
    sigma_fraction -> 1 reproduces the worked designs where sigma equals
    |A11|.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not 0.0 < sigma_fraction <= 1.0:
        raise ValueError("sigma_fraction must lie in (0, 1]")
    abscissa = float(np.max(np.linalg.eigvals(A).real))
    if abscissa >= 0.0:
        raise NotHurwitz(f"spectral abscissa {abscissa:.3g} is nonnegative")
    sigma = sigma_fraction * (-abscissa)
    N = A.shape[0]
    if N == 1:
        return np.array([[1.0]]), sigma
    # S' P + P S = -I with S = A + sigma I, in its Kronecker form on the
    # row-major entries of P: (S' (x) I + I (x) S') vec(P) = -vec(I)
    shifted_t = (A + sigma * np.eye(N)).T
    system = np.kron(shifted_t, np.eye(N)) + np.kron(np.eye(N), shifted_t)
    singular = np.linalg.svd(system, compute_uv=False)
    if not singular[-1] > 1e-12 * singular[0]:
        raise NearSingular(
            f"shifted Lyapunov equation is singular (smallest singular value "
            f"{singular[-1] / singular[0]:.3g} of the largest); lower sigma_fraction"
        )
    P0 = np.linalg.solve(system, -np.eye(N).ravel()).reshape(N, N)
    P0 = 0.5 * (P0 + P0.T)
    pmin = float(np.min(np.linalg.eigvalsh(P0)))
    if pmin < 1e-12:
        raise NearSingular(
            f"Lyapunov factor has smallest eigenvalue {pmin:.3g}; lower sigma_fraction"
        )
    return P0 / pmin, sigma


def place_gain(
    eigenvalues: Sequence[float], c_row: Sequence[float], targets: Sequence[float]
) -> np.ndarray:
    """Single-channel diagonal synthesis: choose L so diag(A) hits targets.

    Exact pole placement for N = 1; for larger N only the diagonal is set
    and the caller must re-check that A is Hurwitz.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    c = np.asarray(c_row, dtype=float)
    t = np.asarray(targets, dtype=float)
    if not lam.shape == c.shape == t.shape:
        raise DimensionMismatch("eigenvalues, c_row and targets must share a length")
    scale = float(np.max(np.abs(c))) or 1.0
    if np.any(np.abs(c) < 1e-12 * scale):
        raise PlacementImpossible("a diagonal output coefficient vanishes")
    return ((t + lam) / c).reshape(-1, 1)


_J_MAX = 200  # modes summed into the tail-coupling constant K
_BC_TOL = 1e-6  # largest relative Robin residual an approximant may leave


def _channel_coefficients(problem: SLProblem, basis: SpectralBasis, channels) -> np.ndarray:
    """Check each approximant against the Robin conditions and project it on
    the basis; row i holds <c_i, phi_j> for every basis mode j."""
    if not channels:
        raise InvalidSpec("need at least one output channel")
    for ch in channels:
        res = ch.boundary_residual(problem)
        if res > _BC_TOL:
            raise ApproximantOutsideDomain(
                f"channel {ch.label or '?'}: approximant violates the Robin "
                f"conditions (relative residual {res:.3g})"
            )
    return np.vstack([project(ch.approximant, basis) for ch in channels])


@dataclass(frozen=True)
class ObserverDesign:
    """Everything the small-gain certificates consume.

    The fields down to ``lipschitz_R`` are the inputs; every other field is
    derived by __post_init__, the one place that checks the approximants
    against the Robin conditions, projects them on the basis, computes the
    tail constant K, the channel norms, A and the certificate scalars, and
    checks them: (P, sigma) must certify A, and Q >= 2 must exceed the
    tail-coupling bound (Q = None picks 2, or twice the bound when the bound
    is not below 2), and the L2 Lipschitz bound R must be finite and
    non-negative. ``dataclasses.replace`` re-runs it, so a design whose
    problem, basis, channels, certificate or Q is replaced (for another
    Lyapunov pair, ``replace(design, P=P, sigma=sigma)``) is derived afresh
    or raises a typed ParobsError, never stale. Grid functions (injection
    kernels, channel samples) are derived on demand.
    """

    problem: SLProblem
    basis: SpectralBasis
    channels: tuple[OutputChannel, ...]
    N: int
    L: np.ndarray
    P: np.ndarray
    sigma: float
    Q: float | None
    lipschitz_R: float
    # derived in __post_init__
    c_coeffs: np.ndarray = field(init=False)  # c_coeffs[i, j] = <c_i, phi_j>
    k_tail: CouplingReport = field(init=False)
    norm_c: np.ndarray = field(init=False)
    norm_k: np.ndarray = field(init=False)
    norm_gap: np.ndarray = field(init=False)  # ||k_i - c_i||
    norm_stiff: np.ndarray = field(init=False)  # ||p c_i'' - q c_i||
    A: np.ndarray = field(init=False)
    K: float = field(init=False)
    lam_next: float = field(init=False)
    P_norm: float = field(init=False)
    ltpl_norm: float = field(init=False)
    H_Q: float = field(init=False)
    mu: float = field(init=False)
    g_tilde: float = field(init=False)
    norm_l: np.ndarray = field(init=False)
    cl: np.ndarray = field(init=False)  # cl[i, r] = int c_i l_r

    def __post_init__(self):
        problem, basis, N = self.problem, self.basis, self.N
        lipschitz_R = float(self.lipschitz_R)
        if not 0.0 <= lipschitz_R < math.inf:
            raise InvalidLipschitzBound(
                f"the Lipschitz bound must be finite and non-negative, got R = {lipschitz_R}"
            )
        channels = tuple(self.channels)
        c_coeffs = _channel_coefficients(problem, basis, channels)
        if not 1 <= N < basis.size:
            raise InvalidSpec(f"need 1 <= N < basis.size = {basis.size}, got N = {N}")
        lam_next = float(basis.eigenvalues[N])
        if lam_next <= 0.0:
            raise InvalidM(f"lambda_(N+1) must be positive, got {lam_next}")
        L = np.asarray(self.L, dtype=float).reshape(N, len(channels))
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        sigma = float(self.sigma)
        A = build_A(basis.eigenvalues[:N], L, c_coeffs)
        P_norm = _validate_certificate(A, P, sigma)["p_norm"]

        k_tail = coupling_constant_K(c_coeffs, N, _J_MAX)
        K = k_tail.value
        ltpl = float(np.linalg.norm(L.T @ P @ L, 2))
        bound = 2.0 * ltpl * K**2 / (sigma * lam_next)
        Q = self.Q
        if Q is None:
            Q = 2.0 if bound < 2.0 else 2.0 * bound
        if Q < 2.0:
            raise QInfeasible(f"Q must be at least 2, got {Q}")
        if Q <= bound:
            raise QInfeasible(f"Q = {Q} does not exceed the tail-coupling bound {bound:.6g}")
        root = math.sqrt((2.0 * sigma - lam_next) ** 2 + 16.0 * ltpl * K**2 / Q)
        H = 2.0 * sigma - lam_next - root
        mu = (H + 2.0 * lam_next) / 4.0
        if mu <= 0.0:
            raise QInfeasible(f"Q = {Q} exceeds the tail-coupling bound {bound:.6g} "
                              f"only by roundoff (mu = {mu:.3g})")
        g_tilde = max(4.0 * P_norm / (4.0 * sigma + H), Q / (2.0 * lam_next))
        norm_c, norm_k, norm_gap, norm_stiff = _channel_constants(problem, channels, basis.grid)
        _, norm_l = injection_kernels(L, basis)
        cl = c_coeffs[:, :N] @ L  # exact given the coefficients

        derived = dict(
            channels=channels, L=L, P=P, sigma=sigma, Q=float(Q), lipschitz_R=lipschitz_R,
            c_coeffs=c_coeffs, k_tail=k_tail, norm_c=norm_c, norm_k=norm_k,
            norm_gap=norm_gap, norm_stiff=norm_stiff,
            A=A, K=K, lam_next=lam_next, P_norm=P_norm, ltpl_norm=ltpl,
            H_Q=H, mu=mu, g_tilde=g_tilde, norm_l=norm_l, cl=cl,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return len(self.channels)


def _validate_certificate(A: np.ndarray, P: np.ndarray, sigma: float, tol: float = 1e-9) -> dict:
    """Raise unless (P, sigma) certifies A; return certificate_defects(A, P, sigma)."""
    if not sigma > 0.0:
        raise InvalidCertificate(f"decay rate sigma must be positive, got {sigma}")
    defects = certificate_defects(A, P, sigma)
    if defects["abscissa"] >= 0.0:
        raise NotHurwitz(f"spectral abscissa {defects['abscissa']:.3g} is nonnegative")
    if defects["p_min"] < 1.0 - tol:
        raise InvalidCertificate(
            f"P is not bounded below by the identity: min eig {defects['p_min']}"
        )
    if defects["decay_slack"] > tol * max(1.0, defects["p_norm"]):
        raise InvalidCertificate(
            f"P A + A'P + 2 sigma P has positive part {defects['decay_slack']:.3g}"
        )
    return defects


def certificate_defects(A: np.ndarray, P: np.ndarray, sigma: float) -> dict:
    """Eigenvalue-level re-check of the three certificate inequalities."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    M = P @ A + A.T @ P + 2.0 * sigma * P
    return {
        "abscissa": float(np.max(np.linalg.eigvals(A).real)),
        "p_min": float(np.min(np.linalg.eigvalsh(P))),
        "decay_slack": float(np.max(np.linalg.eigvalsh(0.5 * (M + M.T)))),
        "p_norm": float(np.linalg.norm(P, 2)),
    }


_FD4_EDGE0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0
_FD4_EDGE1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / 12.0


def _second_derivative_fd4(values: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order second derivative on a uniform grid (one-sided ends)."""
    n = values.size
    if n < 6:
        raise ValueError("need at least 6 nodes for the fourth-order stencil")
    out = np.empty(n)
    out[2:-2] = (
        -values[:-4] + 16.0 * values[1:-3] - 30.0 * values[2:-2]
        + 16.0 * values[3:-1] - values[4:]
    ) / 12.0
    out[0] = np.dot(_FD4_EDGE0, values[:6])
    out[1] = np.dot(_FD4_EDGE1, values[:6])
    out[-1] = np.dot(_FD4_EDGE0, values[-6:][::-1])
    out[-2] = np.dot(_FD4_EDGE1, values[-6:][::-1])
    return out / dx**2


def _channel_constants(problem: SLProblem, channels, grid: np.ndarray):
    """Per-channel norms; exact closed forms where the profiles allow it."""
    w = trapezoid_weights(grid)
    qc = problem.constant_q()
    q_vals = pf.as_profile(problem.q).values(grid)
    dx = grid[1] - grid[0]
    m = len(channels)
    norm_c = np.empty(m)
    norm_k = np.empty(m)
    norm_gap = np.empty(m)
    norm_stiff = np.empty(m)
    for i, ch in enumerate(channels):
        k, c = ch.kernel, ch.approximant
        norm_c[i] = pf.norm_l2(c, grid)
        norm_k[i] = pf.norm_l2(k, grid)
        if getattr(k, "closed_form", False) and getattr(c, "closed_form", False):
            norm_gap[i] = (k - c).norm()
        else:
            diff = k.values(grid) - c.values(grid)
            norm_gap[i] = float(np.sqrt(np.dot(w, diff**2)))
        if getattr(c, "closed_form", False):
            if qc is not None:
                norm_stiff[i] = (problem.p * c.derivative(2) - qc * c).norm()
            else:
                stiff = problem.p * c.derivative(2).values(grid) - q_vals * c.values(grid)
                norm_stiff[i] = float(np.sqrt(np.dot(w, stiff**2)))
        else:
            d2 = _second_derivative_fd4(c.values(grid), dx)
            stiff = problem.p * d2 - q_vals * c.values(grid)
            norm_stiff[i] = float(np.sqrt(np.dot(w, stiff**2)))
    return norm_c, norm_k, norm_gap, norm_stiff


def make_design(
    problem: SLProblem,
    basis: SpectralBasis,
    channels: Sequence[OutputChannel],
    L: np.ndarray,
    N: int,
    *,
    Q: float | None = None,
    sigma_fraction: float = 0.9,
    P: np.ndarray | None = None,
    sigma: float | None = None,
    lipschitz_R: float = 0.0,
) -> ObserverDesign:
    """An ObserverDesign whose Lyapunov pair, unless (P, sigma) are both
    given, is synthesized from A with ``lyapunov_certificate``.

    Warns when the tail-coupling constant K is truncated while its last 50
    modes still carry more than 1% of K^2.
    """
    channels = tuple(channels)
    if P is None or sigma is None:
        c_coeffs = _channel_coefficients(problem, basis, channels)
        L = np.asarray(L, dtype=float).reshape(N, len(channels))
        P, sigma = lyapunov_certificate(build_A(basis.eigenvalues[:N], L, c_coeffs), sigma_fraction)
    design = ObserverDesign(
        problem=problem, basis=basis, channels=channels, N=N, L=L, P=P, sigma=sigma, Q=Q,
        lipschitz_R=lipschitz_R,
    )
    k_tail = design.k_tail
    if k_tail.last_block_fraction > 0.01:
        warnings.warn(
            f"tail-coupling constant truncated at {k_tail.modes_used} modes; the "
            f"last 50 carry {100 * k_tail.last_block_fraction:.1f}% of K^2",
            stacklevel=2,
        )
    return design


@dataclass(frozen=True)
class BoundCoefficients:
    """The three coefficients of the IOS estimate: decaying initial-error
    factor, per-channel measurement-noise gains, and modeling-error gain."""

    initial: float
    noise: np.ndarray
    mismatch: float


@dataclass(frozen=True)
class SmallGainReport:
    variant: str
    h: float
    kappa: float
    gamma: float
    omega: float
    feasible: bool
    coefficients: BoundCoefficients
    mu: float
    g_tilde: float


def _gamma(design: ObserverDesign, kappa: float) -> float:
    if not 0.0 <= kappa < design.mu:
        raise KappaOutOfRange(f"kappa must lie in [0, {design.mu:.6g}), got {kappa}")
    return math.sqrt(design.g_tilde / (2.0 * (design.mu - kappa)))


_VARIANTS = ("predictor", "zoh")


def check_variant(variant: str) -> None:
    """Raise InvalidSpec (a ValueError) unless ``variant`` names an observer
    variant."""
    if variant not in _VARIANTS:
        raise InvalidSpec(f"unknown observer variant {variant!r}")


def _slope(design: ObserverDesign, variant: str) -> np.ndarray:
    """Per-channel coefficient of h inside Omega's bracket; every value
    that depends on the variant goes through here, so it checks the name."""
    check_variant(variant)
    slope = design.norm_stiff + design.lipschitz_R * design.norm_c
    if variant == "zoh":
        slope = slope + np.abs(design.cl) @ design.norm_k
    return slope


def _omega_value(design: ObserverDesign, h: float, kappa: float, variant: str) -> tuple[float, float]:
    gamma = _gamma(design, kappa)
    growth = math.exp(kappa * h)
    bracket = float(np.dot(design.norm_l, _slope(design, variant) * h + design.norm_gap))
    return gamma * (design.lipschitz_R + growth * bracket), gamma


def _report(design: ObserverDesign, h: float, kappa: float, variant: str) -> SmallGainReport:
    if h <= 0.0:
        raise ValueError("sampling diameter h must be positive")
    omega, gamma = _omega_value(design, h, kappa, variant)
    feasible = omega < 1.0
    growth = math.exp(kappa * h)
    if feasible:
        inv = 1.0 / (1.0 - omega)
        initial = inv * math.sqrt(max(design.P_norm, design.Q / 2.0))
        if variant == "zoh":
            per = design.norm_l + h * (np.abs(design.cl).T @ design.norm_l)
        else:
            per = design.norm_l
        noise = growth * inv * gamma * per
        mismatch = inv * gamma * (
            1.0 + h * growth * float(np.dot(design.norm_l, design.norm_c))
        )
    else:
        initial = math.inf
        noise = np.full(design.m, math.inf)
        mismatch = math.inf
    return SmallGainReport(
        variant=variant,
        h=h,
        kappa=kappa,
        gamma=gamma,
        omega=omega,
        feasible=feasible,
        coefficients=BoundCoefficients(initial=initial, noise=noise, mismatch=mismatch),
        mu=design.mu,
        g_tilde=design.g_tilde,
    )


def small_gain_predictor(design: ObserverDesign, h: float, kappa: float) -> SmallGainReport:
    """Small-gain value and IOS coefficients for the predictor observer.

    Omega = gamma (R + e^{kappa h} sum_i ||l_i|| ((||p c_i'' - q c_i|| +
    R ||c_i||) h + ||k_i - c_i||)); feasibility means Omega < 1.
    """
    return _report(design, h, kappa, "predictor")


def small_gain_zoh(design: ObserverDesign, h: float, kappa: float) -> SmallGainReport:
    """Small-gain value for the zero-order-hold observer; the h-proportional
    bracket gains the extra nonnegative term sum_r |int c_i l_r| ||k_r||, so
    this value always dominates the predictor one."""
    return _report(design, h, kappa, "zoh")


def small_gain(design: ObserverDesign, h: float, kappa: float, variant: str) -> SmallGainReport:
    """small_gain_predictor or small_gain_zoh, picked by the observer variant;
    any other variant raises ValueError."""
    check_variant(variant)
    if variant == "predictor":
        return small_gain_predictor(design, h, kappa)
    return small_gain_zoh(design, h, kappa)


def _wrightomega(x: float) -> float:
    """Wright omega of a real x, the w with w + ln(w) = x, bit for bit as
    scipy.special.wrightomega: a starting guess on (-inf, -2), [-2, 1) or
    [1, inf), one Fritsch-Shafer-Crowley (FSC) update and a second one when
    the condition-number test asks for it."""
    if x < -50.0:
        return math.exp(x)  # omega = e^x (1 - e^x + ...) rounds to e^x
    if x > 1e20:
        return x  # omega = x - ln(x) + ... rounds to x
    if x < -2.0:
        w = math.exp(x)
    elif x < 1.0:
        w = math.exp(2.0 * (x - 1.0) / 3.0)
    else:
        w = math.log(x)
        w = x - w + w / x
    for _ in range(2):
        r = x - w - math.log(w)
        wp1 = w + 1.0
        t = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
        w *= 1.0 + (r / wp1) * (t - r) / (t - 2.0 * r)
        cond = abs((2.0 * w * w - 8.0 * w - 1.0) * abs(r) ** 4.0)
        if cond < sys.float_info.epsilon * 72.0 * abs(wp1) ** 6.0:
            break
    return w


def max_diameter(design: ObserverDesign, kappa: float, variant: str) -> float:
    """Largest sampling diameter h* with Omega(h*) = 1, in closed form.

    Omega(h) = 1 reads e^{kappa h} (a h + b) = C with C = 1/gamma - R, where
    a h + b = sum_i ||l_i|| (slope_i h + ||k_i - c_i||) is the bracket of
    the variant's Omega. The root is (C - b) / a at kappa = 0,
    ln(C / b) / kappa when a = 0, and otherwise u / kappa - b / a with
    u = W0((C kappa / a) e^{kappa b / a}), taken as the Wright omega of the
    log so it cannot overflow. For kappa b / a > 1 the same root is written
    ln(C kappa / (a u)) / kappa, which avoids cancelling u / kappa - b / a.
    The Wright omega is scipy's real-argument port of Lawrence, Corless &
    Jeffrey, Algorithm 917 (ACM TOMS 38(3), 2012), in plain math.

    Returns math.inf when Omega is h-independent and below one (possible only
    when the h-proportional bracket vanishes and, for kappa > 0, nothing
    multiplies the exponential growth). An unknown variant raises ValueError.
    """
    omega0, gamma = _omega_value(design, 0.0, kappa, variant)
    if omega0 >= 1.0:
        raise InfeasibleAtZero(f"Omega({0:+.0e}) = {omega0:.6g} already >= 1")
    a = float(np.dot(design.norm_l, _slope(design, variant)))
    b = float(np.dot(design.norm_l, design.norm_gap))
    if a == 0.0 and (kappa == 0.0 or b == 0.0):
        return math.inf
    C = 1.0 / gamma - design.lipschitz_R
    if kappa == 0.0:
        return (C - b) / a
    if a == 0.0:
        return math.log(C / b) / kappa
    shift = kappa * b / a
    u = _wrightomega(math.log(C * kappa / a) + shift)
    if shift > 1.0:
        return math.log(C * kappa / (a * u)) / kappa
    return u / kappa - b / a


def select_Q(
    design: ObserverDesign, q_candidates: Sequence[float], h: float, kappa: float, variant: str
) -> tuple[float, float]:
    """Pick the candidate Q minimizing Omega (ties toward smaller Q).

    Returns (Q, Omega). Candidates violating Q >= 2, the tail-coupling bound,
    kappa < mu(Q) or Omega < 1 are skipped; NoFeasibleQ if none survive.
    """
    best: tuple[float, float] | None = None
    for Q in sorted(float(q) for q in q_candidates):
        try:
            trial = replace(design, Q=Q)
            omega, _ = _omega_value(trial, h, kappa, variant)
        except (QInfeasible, KappaOutOfRange):
            continue
        if omega >= 1.0:
            continue
        # ties (to relative roundoff) break toward the smaller, earlier Q
        if best is None or omega < best[1] * (1.0 - 1e-12):
            best = (Q, omega)
    if best is None:
        raise NoFeasibleQ("no candidate Q yields Omega < 1")
    return best


# -- interchange ---------------------------------------------------------------

def design_to_json(design: ObserverDesign) -> dict:
    """JSON document with all scalars and row-major matrices; grid functions
    are carried by profile specs. The basis is recorded by its counts and
    ``basis.method``, the eigensolver that rebuilds it: ``"analytic"`` for a
    closed-form basis (``SpectralBasis.closed_form``), else ``"numeric"``.
    Its ``basis.ref`` is null; ``design_from_json`` still reads the basis CSV
    that older documents name there."""
    d = design
    return {
        "schema_version": 1,
        "N": d.N,
        "m": d.m,
        "L": d.L.tolist(),
        "A": d.A.tolist(),
        "P": d.P.tolist(),
        "sigma": d.sigma,
        "K": d.K,
        "Q": d.Q,
        "lipschitz_R": d.lipschitz_R,
        "lambda_next": d.lam_next,
        "H_Q": d.H_Q,
        "mu": d.mu,
        "g_tilde": d.g_tilde,
        "eigenvalues": d.basis.eigenvalues.tolist(),
        "c_coeffs": d.c_coeffs.tolist(),
        "channel_constants": {
            "norm_l": d.norm_l.tolist(),
            "norm_c": d.norm_c.tolist(),
            "norm_k": d.norm_k.tolist(),
            "norm_k_minus_c": d.norm_gap.tolist(),
            "norm_stiffness": d.norm_stiff.tolist(),
            "cl": d.cl.tolist(),
        },
        "channels": [ch.spec() for ch in d.channels],
        "problem": d.problem.spec(),
        "basis": {
            "modes": d.basis.size,
            "nodes": int(d.basis.grid.size),
            "method": "analytic" if d.basis.closed_form else "numeric",
            "ref": None,
        },
    }


_DESIGN_KEYS = (
    "N", "L", "P", "sigma", "Q", "channels", "problem.p", "problem.q",
    "problem.bc.a0", "problem.bc.b0", "problem.bc.a1", "problem.bc.b1",
)


def _first_missing(doc: dict, paths) -> str | None:
    """The first dotted key path of ``paths`` that ``doc`` lacks; a numeric
    key indexes a list."""
    for path in paths:
        node = doc
        for key in path.split("."):
            try:
                node = node[int(key) if key.isdigit() else key]
            except (KeyError, IndexError, TypeError):
                return path
    return None


def _check_eigenvalues(loaded: np.ndarray, recorded, source: str) -> None:
    """Raise InvalidSpec naming ``source`` unless the eigenvalues of the basis
    it gave match the ones a design JSON records, to 1e-12 relative (both
    are written with 17 significant digits)."""
    try:
        recorded = np.asarray(recorded, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"design JSON: eigenvalues: {exc}") from exc
    if recorded.shape != loaded.shape:
        raise InvalidSpec(f"{source}: {loaded.size} eigenvalues, the design JSON "
                          f"records {recorded.size}")
    off = np.flatnonzero(np.abs(loaded - recorded) > 1e-12 * np.abs(recorded))
    if off.size:
        j = off[0]
        raise InvalidSpec(
            f"{source}: lambda_{j + 1} = {loaded[j]:.17g}, the design JSON records "
            f"{recorded[j]:.17g}; the basis is not the one the design was made with"
        )


def design_from_json(doc: dict, basis: SpectralBasis | None = None) -> ObserverDesign:
    """Rebuild a design from its JSON document.

    The basis is taken from the caller, loaded from the CSV reference
    ``basis.ref`` (``sturm_liouville.basis_from_csv``), or, when the ref is
    null, rebuilt by ``basis.method``: ``analytic_eigensystem`` or
    ``numeric_eigensystem`` on the plant and counts the document records. A
    document without a method (written before it was recorded) rebuilds the
    closed form. A loaded basis is marked ``closed_form``, as the rebuilt one
    is, when it is the closed form of its plant (``_loaded_closed_form``), so
    a design written again from it records the method that rebuilds it.
    Rebuilt bases equal the written ones bit for bit at the same BLAS thread
    count; across thread counts they differ by roundoff.

    Raises ``InvalidSpec`` when the document lacks a required key, naming the
    first one; when a value is not of its type (N and the basis counts
    integers; the method ``"analytic"`` or ``"numeric"``; L and P lists of
    rows of numbers, N x m and N x N; sigma, Q and the Lipschitz bound
    numbers; the plant and channels valid specs), naming its key; or when a
    basis loaded or rebuilt here differs from the one the document records:
    another mode or node count than ``doc["basis"]``, eigenvalues more than
    1e-12 relative from ``doc["eigenvalues"]``, or, with method
    ``"analytic"``, a loaded basis that is not the closed form.
    """
    from .sturm_liouville import analytic_eigensystem, basis_from_csv, numeric_eigensystem

    paths = list(_DESIGN_KEYS)
    if basis is None:
        paths += ["basis.modes", "basis.nodes", "eigenvalues"]
    paths += [f"channels.{i}.{key}" for i in range(len(doc.get("channels", [])))
              for key in ("kernel", "approximant")]
    missing = _first_missing(doc, paths)
    if missing is not None:
        raise InvalidSpec(f"design JSON: missing key '{missing}'")

    def read(key, cast, value):
        return pf.cast_field(f"design JSON: {key}", cast, value)

    problem = problem_from_spec(doc["problem"])
    N = read("N", operator.index, doc["N"])
    L, P = read("L", _matrix, doc["L"]), read("P", _matrix, doc["P"])
    for key, value, shape in (("L", L, (N, len(doc["channels"]))), ("P", P, (N, N))):
        if value.shape != shape:
            raise InvalidSpec(f"design JSON: {key} is {value.shape[0]} x {value.shape[-1]}, "
                              f"need {shape[0]} x {shape[1]}")
    # Q and sigma are required; the Lipschitz bound defaults to 0
    scalars = {key: read(key, pf.as_number, doc.get(key, 0.0))
               for key in ("Q", "sigma", "lipschitz_R")}
    if basis is None:
        ref, method = doc["basis"].get("ref"), doc["basis"].get("method")
        counts = tuple(read(f"basis.{key}", operator.index, doc["basis"][key])
                       for key in ("modes", "nodes"))
        if method not in (None, "analytic", "numeric"):
            raise InvalidSpec(f"design JSON: basis.method: expected 'analytic' or 'numeric', "
                              f"got {method!r}")
        if ref:
            basis = basis_from_csv(ref, problem)
            if (basis.size, basis.grid.size) != counts:
                raise InvalidSpec(
                    f"{ref}: {basis.size} modes on {basis.grid.size} nodes, the design "
                    f"JSON says {counts[0]} on {counts[1]}"
                )
            _check_eigenvalues(basis.eigenvalues, doc["eigenvalues"], ref)
            if method != "numeric":
                basis = replace(basis, closed_form=_loaded_closed_form(basis, ref, method))
        else:
            method = method or "analytic"
            build = analytic_eigensystem if method == "analytic" else numeric_eigensystem
            basis = build(problem, *counts)
            _check_eigenvalues(basis.eigenvalues, doc["eigenvalues"], f"rebuilt {method} basis")
    channels = [read(f"channels.{i}", lambda c: channel_from_spec(c, basis.grid, i), c)
                for i, c in enumerate(doc["channels"])]
    return make_design(problem, basis, channels, L, N, P=P, **scalars)


def _loaded_closed_form(basis: SpectralBasis, ref: str, method: str | None) -> bool:
    """Whether a basis loaded from ``ref`` is the closed form of its plant:
    the plant has one (``analytic_eigensystem`` builds it on these counts)
    and the loaded eigenvalues match it to 1e-12 relative, as a CSV of the
    closed form does and one of the numeric eigensolver, O(h^2) off, does
    not. A document whose method is ``"analytic"`` must name the closed
    form, else InvalidSpec naming ``basis.method``; one without a method
    (older than it) loads either."""
    from .sturm_liouville import analytic_eigensystem

    try:
        closed = analytic_eigensystem(basis.problem, basis.size, basis.grid.size).eigenvalues
    except (UnsupportedAnalyticCase, ResolutionTooCoarse) as exc:
        why = str(exc)
    else:
        off = np.flatnonzero(np.abs(basis.eigenvalues - closed) > 1e-12 * np.abs(closed))
        if not off.size:
            return True
        j = off[0]
        why = f"lambda_{j + 1} = {basis.eigenvalues[j]:.17g}, the closed form has {closed[j]:.17g}"
    if method == "analytic":
        raise InvalidSpec(f"design JSON: basis.method: 'analytic', but {ref} is not the "
                          f"closed-form basis: {why}")
    return False


def _matrix(rows) -> np.ndarray:
    """A list of rows of numbers as a 2-D array; ragged rows raise ValueError."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise TypeError(f"expected a list of rows, got {rows!r}")
    return np.array([[pf.as_number(v) for v in row] for row in rows])


def certificate_summary(design: ObserverDesign, reports: Sequence[SmallGainReport] = ()) -> str:
    """Human-readable certificate block, including the per-channel
    approximation trade-off table."""
    d = design
    lines = [
        "observer design certificate",
        "---------------------------",
        f"modes N = {d.N}, channels m = {d.m}, lambda_(N+1) = {d.lam_next:.12g}",
        f"A spectral abscissa = {certificate_defects(d.A, d.P, d.sigma)['abscissa']:.12g}",
        f"sigma = {d.sigma:.12g}, |P| = {d.P_norm:.12g}, min eig P = "
        f"{float(np.min(np.linalg.eigvalsh(d.P))):.12g}",
        f"K = {d.K:.12g} (truncated at {d.k_tail.modes_used} modes, "
        f"last-block share {d.k_tail.last_block_fraction:.2e})",
        f"Q = {d.Q:.12g}, H(Q) = {d.H_Q:.12g}, mu = {d.mu:.12g}, g~ = {d.g_tilde:.12g}",
        f"Lipschitz bound R = {d.lipschitz_R:.12g}",
        "",
        "channel   ||k||        ||c||        ||k-c||      ||p c''-q c||  ||l||",
    ]
    for i, ch in enumerate(d.channels):
        lines.append(
            f"{ch.label or i:>7}   {d.norm_k[i]:<12.6g} {d.norm_c[i]:<12.6g} "
            f"{d.norm_gap[i]:<12.6g} {d.norm_stiff[i]:<14.6g} {d.norm_l[i]:<.6g}"
        )
    if reports:
        lines.append("")
        lines.append("variant     h            kappa        Omega        feasible")
        for r in reports:
            lines.append(
                f"{r.variant:<9}   {r.h:<12.6g} {r.kappa:<12.6g} {r.omega:<12.6g} {r.feasible}"
            )
    return "\n".join(lines)

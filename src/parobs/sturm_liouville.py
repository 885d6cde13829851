"""Sturm-Liouville operators -p u'' + q(x) u with separated Robin ends.

Provides the spectral machinery the observer designs rest on: closed-form
eigenpairs for the four standard constant-reaction cases, a second-order
finite-difference eigensolver acting as oracle and generalization, the
reduction of variable-coefficient operators to constant-diffusion normal
form, the tail-summability diagnostic, and modal projections.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import profiles as pf
from .errors import (
    GridMismatch,
    InvalidM,
    InvalidSpec,
    NonPositiveCoefficient,
    ResolutionTooCoarse,
    UnsupportedAnalyticCase,
)
from .grids import cumulative_trapezoid, end_derivatives, format_row, trapezoid_weights
from .grids import uniform_grid, write_csv

__all__ = [
    "SLProblem",
    "GeneralSLProblem",
    "SpectralBasis",
    "DiscreteSLOperator",
    "CoordinateMap",
    "H1Report",
    "problem_from_spec",
    "analytic_eigensystem",
    "numeric_eigensystem",
    "check_h1",
    "liouville_transform",
    "project",
    "basis_to_csv",
    "basis_from_csv",
]


@dataclass(frozen=True)
class SLProblem:
    """Constant-diffusion operator B u = -p u'' + q(x) u on [0, 1] with
    Robin ends a0 u(0) + b0 u'(0) = 0, a1 u(1) + b1 u'(1) = 0."""

    p: float
    q: object  # spatial profile; numbers are coerced
    a0: float
    b0: float
    a1: float
    b1: float

    def __post_init__(self):
        object.__setattr__(self, "q", pf.as_profile(self.q))
        if not self.p > 0:
            raise InvalidSpec(f"diffusion constant must be positive, got {self.p}")
        if self.a0**2 + self.b0**2 <= 0 or self.a1**2 + self.b1**2 <= 0:
            raise InvalidSpec("each boundary condition needs a nonzero coefficient pair")

    @property
    def dirichlet_left(self) -> bool:
        return self.b0 == 0.0

    @property
    def dirichlet_right(self) -> bool:
        return self.b1 == 0.0

    def constant_q(self) -> float | None:
        """Reaction value when q is a constant closed-form profile, else None."""
        q = self.q
        if isinstance(q, pf.Profile) and not q.trig and len(q.poly) <= 1:
            return q.poly[0] if q.poly else 0.0
        return None

    def standard_q(self) -> float | None:
        """The constant q when q is constant and each end is pure Neumann
        (a = 0) or Dirichlet (b = 0), the four cases whose eigenpairs have a
        closed form, both of B and of its grid operator B_h; else None."""
        if (self.a0 != 0.0 and self.b0 != 0.0) or (self.a1 != 0.0 and self.b1 != 0.0):
            return None
        return self.constant_q()

    def boundary_residual(self, u: np.ndarray, du0: float, du1: float) -> float:
        scale = max(np.max(np.abs(u)), abs(du0), abs(du1), 1e-300)
        r0 = abs(self.a0 * u[0] + self.b0 * du0) / (abs(self.a0) + abs(self.b0)) / scale
        r1 = abs(self.a1 * u[-1] + self.b1 * du1) / (abs(self.a1) + abs(self.b1)) / scale
        return max(r0, r1)

    def spec(self) -> dict:
        """The plant as a config's ``problem`` section."""
        bc = {"a0": self.a0, "b0": self.b0, "a1": self.a1, "b1": self.b1}
        return {"p": self.p, "q": self.q.spec(), "bc": bc}


def problem_from_spec(spec: dict) -> SLProblem:
    """The plant of a ``problem`` section, as ``SLProblem.spec`` writes it;
    q is any profile spec or number and defaults to 0. A missing p, bc or bc
    entry, a p or bc entry that is not a number, or a q that is not a
    profile raises InvalidSpec naming its key."""
    def entry(node, path, cast=pf.as_number):
        key = path.rpartition(".")[2]
        if not isinstance(node, dict) or key not in node:
            raise InvalidSpec(f"{path}: missing field")
        return pf.cast_field(path, cast, node[key])

    bc = entry(spec, "problem.bc", lambda value: value)
    return SLProblem(
        p=entry(spec, "problem.p"),
        q=pf.cast_field("problem.q", pf.as_profile, spec.get("q", 0.0)),
        **{key: entry(bc, f"problem.bc.{key}") for key in ("a0", "b0", "a1", "b1")},
    )


@dataclass(frozen=True)
class GeneralSLProblem:
    """Variable-coefficient operator -(p(x) u')'/r(x) + q(x) u / r(x)."""

    p: object
    r: object
    q: object
    a0: float
    b0: float
    a1: float
    b1: float

    def __post_init__(self):
        object.__setattr__(self, "p", pf.as_profile(self.p))
        object.__setattr__(self, "r", pf.as_profile(self.r))
        object.__setattr__(self, "q", pf.as_profile(self.q))
        if self.a0**2 + self.b0**2 <= 0 or self.a1**2 + self.b1**2 <= 0:
            raise InvalidSpec("each boundary condition needs a nonzero coefficient pair")


class DiscreteSLOperator:
    """Second-order central-difference matrix of B with ghost-node Robin rows.

    The matrix is self-adjoint with respect to the trapezoid weights, so
    ``<c, B_h u>_h == <B_h c, u>_h`` holds to roundoff; the inter-sample
    predictor relies on this identity.
    """

    def __init__(self, problem: SLProblem, nodes: int):
        self.problem = problem
        self.grid = uniform_grid(nodes)
        self.dx = self.grid[1] - self.grid[0]
        self.weights = trapezoid_weights(self.grid)
        n = self.grid.size
        dx, p = self.dx, problem.p
        qv = pf.as_profile(problem.q).values(self.grid)

        diag = np.full(n, 2.0 * p / dx**2) + qv
        sub = np.full(n - 1, -p / dx**2)
        sup = np.full(n - 1, -p / dx**2)

        if problem.dirichlet_left:
            diag[0] = 0.0
            sup[0] = 0.0
        else:
            diag[0] = 2.0 * p / dx**2 - 2.0 * p * problem.a0 / (problem.b0 * dx) + qv[0]
            sup[0] = -2.0 * p / dx**2
        if problem.dirichlet_right:
            diag[-1] = 0.0
            sub[-1] = 0.0
        else:
            diag[-1] = 2.0 * p / dx**2 + 2.0 * p * problem.a1 / (problem.b1 * dx) + qv[-1]
            sub[-1] = -2.0 * p / dx**2

        self.diag, self.sub, self.sup = diag, sub, sup
        self.i0 = 1 if problem.dirichlet_left else 0
        self.i1 = n - 1 if problem.dirichlet_right else n

    @property
    def free(self) -> slice:
        return slice(self.i0, self.i1)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """B_h u with pinned entries mapped to zero."""
        out = self.diag * u
        out[:-1] += self.sup * u[1:]
        out[1:] += self.sub * u[:-1]
        if self.problem.dirichlet_left:
            out[0] = 0.0
        if self.problem.dirichlet_right:
            out[-1] = 0.0
        return out

    def pin(self, u: np.ndarray) -> np.ndarray:
        if self.problem.dirichlet_left:
            u[0] = 0.0
        if self.problem.dirichlet_right:
            u[-1] = 0.0
        return u

    def free_tridiagonals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sub, diag, sup) restricted to non-pinned nodes."""
        s = self.free
        return self.sub[s.start : s.stop - 1], self.diag[s], self.sup[s.start : s.stop - 1]

    def symmetric_tridiagonals(self) -> tuple[np.ndarray, np.ndarray]:
        """(diag, off) of W^{1/2} B_h W^{-1/2} on the non-pinned nodes, W the
        trapezoid weights there: a symmetric tridiagonal, since B_h is
        self-adjoint in W, with B_h's eigenvalues and eigenvectors W^{1/2} times
        B_h's."""
        _, diag, sup = self.free_tridiagonals()
        w = self.weights[self.free]
        return diag, sup * np.sqrt(w[:-1] / w[1:])

    def exact_eigenpairs(self) -> tuple[np.ndarray, np.ndarray] | None:
        """B_h's eigenvalues, ascending, and its eigenvectors as rows on the
        whole grid, zero at pinned nodes and of unit norm in the trapezoid
        weights, in closed form; None unless ``problem.standard_q()`` holds.

        On M = n - 1 intervals, mode k is cos(theta_k i) from a Neumann left
        end and sin(theta_k i) from a Dirichlet one, with theta_k = k pi / M
        when the two ends are alike and (k + 1/2) pi / M when they differ,
        and lam_k = q + (4 p / dx^2) sin^2(theta_k / 2): the discrete cosine
        and sine bases (Strang, "The discrete cosine transform", SIAM Review
        41, 1999). Each angle is an integer multiple of pi / (2M), reduced
        to one period in integers, so the modes read one table of the 4M
        values of cos or sin over a period.
        """
        q = self.problem.standard_q()
        if q is None:
            return None
        left, right = self.problem.dirichlet_left, self.problem.dirichlet_right
        period = 4 * (self.grid.size - 1)  # 2 pi in units of pi / (2M)
        count = self.i1 - self.i0
        # int32 where the products fit: its % takes a third of int64's time
        index = np.int32 if period * self.grid.size < 2**31 else np.int64
        # theta_k in units of pi / (2M): 2k, shifted by 2 for a Dirichlet
        # pair (k from 1) and by 1 for mixed ends
        theta = 2 * np.arange(count, dtype=index) + (2 if left and right else int(left != right))
        angles = np.multiply.outer(theta, np.arange(self.i0, self.i1, dtype=index)) % period
        wave = (np.sin if left else np.cos)(np.arange(period) * (2.0 * math.pi / period))
        rows = np.zeros((count, self.grid.size))
        rows[:, self.free] = wave[angles]
        rows /= np.sqrt((rows * rows) @ self.weights)[:, None]
        lam = q + (4.0 * self.problem.p / self.dx**2) * np.sin(theta * (math.pi / period)) ** 2
        return lam, rows


@dataclass(frozen=True)
class SpectralBasis:
    """First J eigenpairs sampled on a uniform grid, unit L2 norm,
    eigenvalues strictly ascending."""

    grid: np.ndarray
    eigenvalues: np.ndarray
    functions: np.ndarray  # shape (J, nodes)
    end_derivs: np.ndarray  # shape (J, 2)
    problem: SLProblem | None = None
    mode_profiles: tuple | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.grid)

    def orthonormality_defect(self) -> float:
        g = self.functions * self.weights
        gram = g @ self.functions.T
        return float(np.max(np.abs(gram - np.eye(self.size))))

    def boundary_defect(self) -> float:
        if self.problem is None:
            return math.nan
        worst = 0.0
        for k in range(self.size):
            worst = max(
                worst,
                self.problem.boundary_residual(
                    self.functions[k], self.end_derivs[k, 0], self.end_derivs[k, 1]
                ),
            )
        return worst

    def resample(self, nodes: int, modes: int | None = None) -> "SpectralBasis":
        """Same modes on a different uniform grid, only the first ``modes``
        of them when given; closed forms re-evaluate exactly, numeric modes
        interpolate, one mode at a time, so a mode's samples do not depend
        on ``modes``. A basis already on ``nodes`` points is returned whole."""
        if nodes == self.grid.size:
            return self
        J = slice(modes)
        grid = uniform_grid(nodes)
        if self.mode_profiles is not None:
            funcs = np.array([p.values(grid) for p in self.mode_profiles[J]])
        else:
            funcs = np.array([np.interp(grid, self.grid, f) for f in self.functions[J]])
            w = trapezoid_weights(grid)
            funcs /= np.sqrt(np.sum(w * funcs**2, axis=1))[:, None]
        return SpectralBasis(
            grid=grid,
            eigenvalues=self.eigenvalues[J].copy(),
            functions=funcs,
            end_derivs=self.end_derivs[J].copy(),
            problem=self.problem,
            mode_profiles=None if self.mode_profiles is None else self.mode_profiles[J],
        )


def _standard_modes(problem: SLProblem, qc: float, J: int):
    """Closed-form (eigenvalue, profile) for the four Neumann/Dirichlet
    corner cases."""
    p = problem.p
    left_n, right_n = not problem.dirichlet_left, not problem.dirichlet_right
    modes = []
    for n in range(1, J + 1):
        if left_n and right_n:  # Neumann-Neumann
            k = (n - 1) * math.pi
            prof = pf.constant(1.0) if n == 1 else pf.cosine(math.sqrt(2.0), k)
        elif left_n and not right_n:  # Neumann-Dirichlet
            k = (2 * n - 1) * math.pi / 2.0
            prof = pf.cosine(math.sqrt(2.0), k)
        elif not left_n and right_n:  # Dirichlet-Neumann
            k = (2 * n - 1) * math.pi / 2.0
            prof = pf.sine(math.sqrt(2.0), k)
        else:  # Dirichlet-Dirichlet
            k = n * math.pi
            prof = pf.sine(math.sqrt(2.0), k)
        modes.append((p * k**2 + qc, prof))
    return modes


def analytic_eigensystem(problem: SLProblem, J: int, nodes: int = 1001) -> SpectralBasis:
    """Exact eigenpairs for constant q and pure Neumann/Dirichlet ends.

    The sampled modes and their end derivatives are each one ``cos`` over
    the (J, points) block, with the formulas of ``Profile.values`` and
    ``Profile.derivative``, so they equal the per-mode profiles' values bit
    for bit. Raises UnsupportedAnalyticCase when q is non-constant or an end
    is genuinely Robin; callers fall back to :func:`numeric_eigensystem`.
    """
    if J < 1:
        raise ValueError("need at least one mode")
    qc = problem.standard_q()
    if qc is None:
        raise UnsupportedAnalyticCase(
            "closed-form eigenpairs need constant q and pure Neumann or Dirichlet ends")
    grid = uniform_grid(nodes)
    lams, profiles = zip(*_standard_modes(problem, qc, J))
    # every mode is one term amp cos(k x + phase), the constant one cos(0 x)
    trig = [prof.trig[0] if prof.trig else (1.0, 0.0, 0.0) for prof in profiles]
    amp, k, phase = np.array(trig).T[:, :, None]
    funcs = amp * np.cos(k * grid + phase)
    # d/dx (a cos(k x + phase)) = a k cos(k x + phase + pi/2)
    ders = amp * k * np.cos(k * np.array([0.0, 1.0]) + (phase + math.pi / 2.0))
    return SpectralBasis(
        grid=grid,
        eigenvalues=np.array(lams),
        functions=funcs,
        end_derivs=ders,
        problem=problem,
        mode_profiles=profiles,
    )


def numeric_eigensystem(problem: SLProblem, J: int, nodes: int) -> SpectralBasis:
    """First J eigenpairs of the central-difference discretization.

    Eigenfunctions are orthonormal in the trapezoid inner product and carry
    the deterministic sign convention (first nonzero value or derivative at
    x = 0 is positive). Raises ResolutionTooCoarse when the grid has fewer
    than 8 nodes per mode, or when the estimated discretization error is too
    large to separate adjacent modes.
    """
    if J < 1:
        raise ValueError("need at least one mode")
    if nodes < 8 * J:
        raise ResolutionTooCoarse(f"need nodes >= 8*J = {8 * J}, got {nodes}")
    from scipy.linalg import eigh_tridiagonal

    op = DiscreteSLOperator(problem, nodes)
    diag, e_sym = op.symmetric_tridiagonals()
    w = op.weights[op.free]
    lams, vecs = eigh_tridiagonal(diag, e_sym, select="i", select_range=(0, J - 1))
    funcs = np.zeros((J, nodes))
    funcs[:, op.free] = (vecs / np.sqrt(w)[:, None]).T

    dx = op.dx
    ders = np.zeros((J, 2))
    for k in range(J):
        f = funcs[k]
        d0, d1 = end_derivatives(f, dx)
        scale = np.max(np.abs(f))
        anchor = f[0] if abs(f[0]) > 1e-8 * scale else d0
        if anchor < 0:
            f *= -1.0
            d0, d1 = -d0, -d1
        ders[k] = (d0, d1)

    qmin = float(np.min(pf.as_profile(problem.q).values(op.grid)))
    est_err = (np.maximum(lams - qmin, 0.0) ** 2) * dx**2 / (12.0 * problem.p)
    gaps = np.diff(lams)
    bad = gaps < 10.0 * np.maximum(est_err[:-1], est_err[1:])
    if np.any(bad):
        n_bad = int(np.argmax(bad)) + 1
        raise ResolutionTooCoarse(
            f"modes {n_bad} and {n_bad + 1} are separated by {gaps[n_bad - 1]:.3g} "
            f"but the discretization error estimate is {est_err[n_bad]:.3g}"
        )
    return SpectralBasis(
        grid=op.grid,
        eigenvalues=lams,
        functions=funcs,
        end_derivs=ders,
        problem=problem,
    )


@dataclass(frozen=True)
class H1Report:
    """Summability diagnostic for sum_n lambda_n^{-1} max|phi_n|."""

    sufficient_condition: bool
    terms: np.ndarray
    partial_sum: float
    decay_exponent: float
    convergent: bool
    M: int
    J_tail: int


def check_h1(problem: SLProblem, basis: SpectralBasis, M: int, J_tail: int) -> H1Report:
    """Certificate of the sign-pattern sufficient condition plus a tail-decay
    diagnostic over modes M..M+J_tail (1-based).

    The sufficient condition (b0, a1, b1 >= 0 and a0 <= 0) is checked up to
    the per-end sign normalization of the Robin pairs, which leaves the
    boundary condition unchanged.
    """
    if basis.size < M + J_tail:
        raise ValueError(f"basis has {basis.size} modes, need {M + J_tail}")
    if M < 1 or basis.eigenvalues[M - 1] <= 0.0:
        raise InvalidM(f"lambda_M must be positive, got index M={M}")
    sufficient = (problem.a0 * problem.b0 <= 0.0) and (problem.a1 * problem.b1 >= 0.0)
    idx = np.arange(M, M + J_tail + 1)
    lams = basis.eigenvalues[idx - 1]
    sups = np.max(np.abs(basis.functions[idx - 1]), axis=1)
    terms = sups / lams
    slope, _ = np.polyfit(np.log(idx.astype(float)), np.log(terms), 1)
    convergent = bool(slope <= -1.8)  # "at least like n^-2", with fit slack
    return H1Report(
        sufficient_condition=bool(sufficient),
        terms=terms,
        partial_sum=float(np.sum(terms)),
        decay_exponent=float(slope),
        convergent=convergent,
        M=M,
        J_tail=J_tail,
    )


@dataclass(frozen=True)
class CoordinateMap:
    """Monotone change of variable x -> xi with amplitude factor (r p)^{1/4}."""

    x_nodes: np.ndarray
    xi_nodes: np.ndarray
    amplitude_samples: np.ndarray
    epsilon: float

    def forward(self, x) -> np.ndarray:
        return np.interp(x, self.x_nodes, self.xi_nodes)

    def amplitude(self, x) -> np.ndarray:
        return np.interp(x, self.x_nodes, self.amplitude_samples)


def liouville_transform(
    gproblem: GeneralSLProblem, nodes: int = 1001
) -> tuple[SLProblem, CoordinateMap]:
    """Reduce -(p u')'/r + (q/r) u to constant-diffusion normal form.

    New coordinate xi = sqrt(eps) * int_0^x sqrt(r/p), eps =
    (int_0^1 sqrt(r/p))^{-2}; amplitude factor (r p)^{1/4}. The transformed
    reaction profile and Robin coefficients come out on a uniform xi grid.
    """
    x = uniform_grid(nodes)
    pv = pf.as_profile(gproblem.p).values(x)
    rv = pf.as_profile(gproblem.r).values(x)
    qv = pf.as_profile(gproblem.q).values(x)
    if np.min(pv) <= 0.0 or np.min(rv) <= 0.0:
        raise NonPositiveCoefficient("p and r must be strictly positive on the grid")

    s = np.sqrt(rv / pv)
    integral = cumulative_trapezoid(s, x)
    total = integral[-1]
    eps = total**-2
    xi = integral / total

    mu = (rv * pv) ** 0.25
    dmu = np.gradient(mu, x, edge_order=2)
    inner = pv * dmu / mu**2
    q_normal = qv / rv + (pv / mu**3) * np.gradient(inner, x, edge_order=2)

    xi_grid = uniform_grid(nodes)
    q_uniform = np.interp(xi_grid, xi, q_normal)

    sqrt_eps = 1.0 / total
    a0 = gproblem.a0 - gproblem.b0 * dmu[0] / mu[0]
    b0 = gproblem.b0 * sqrt_eps * s[0]
    a1 = gproblem.a1 - gproblem.b1 * dmu[-1] / mu[-1]
    b1 = gproblem.b1 * sqrt_eps * s[-1]

    normal = SLProblem(
        p=eps, q=pf.SampledProfile(xi_grid, q_uniform), a0=a0, b0=b0, a1=a1, b1=b1
    )
    cmap = CoordinateMap(x_nodes=x, xi_nodes=xi, amplitude_samples=mu, epsilon=eps)
    return normal, cmap


def project(f, basis: SpectralBasis, J: int | None = None) -> np.ndarray:
    """Trapezoid inner products <f, phi_1..J> on the basis grid."""
    J = basis.size if J is None else J
    if J > basis.size:
        raise ValueError(f"basis holds {basis.size} modes, asked for {J}")
    if isinstance(f, np.ndarray) or (
        isinstance(f, (list, tuple)) and f and isinstance(f[0], (int, float))
    ):
        vals = np.asarray(f, dtype=float)
        if vals.shape != basis.grid.shape:
            raise GridMismatch(
                f"samples have {vals.size} points, basis grid has {basis.grid.size}"
            )
    else:
        vals = pf.as_profile(f).values(basis.grid)
    return (basis.functions[:J] * basis.weights) @ vals


# -- CSV interchange ----------------------------------------------------------

def basis_to_csv(basis: SpectralBasis, path) -> None:
    """One row per node, columns x, phi_1..phi_J; eigenvalues and endpoint
    derivatives in the leading comment block. Written by
    ``grids.write_csv``, so ``basis_from_csv`` reads every number back bit
    for bit."""
    header = [
        "# parobs-basis-version: 1",
        "# eigenvalues: " + format_row(basis.eigenvalues),
        "# end_derivatives_left: " + format_row(basis.end_derivs[:, 0]),
        "# end_derivatives_right: " + format_row(basis.end_derivs[:, 1]),
        "x," + ",".join(f"phi_{k + 1}" for k in range(basis.size)),
    ]
    write_csv(path, header, [basis.grid, basis.functions.T])


_BASIS_VECTORS = ("eigenvalues", "end_derivatives_left", "end_derivatives_right")


def basis_from_csv(path, problem: SLProblem | None = None) -> SpectralBasis:
    """The basis a ``basis_to_csv`` file holds. Raises ``InvalidSpec``
    naming the file when a ``#`` vector line or the ``x,phi_*`` header is
    missing, a row is ragged or not numeric, the eigenvalue, end-derivative
    and mode-column counts disagree, or the x column is not the uniform grid
    of its row count within 1e-12 (as in a truncated file)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta: dict[str, str] = {}
    for n, line in enumerate(lines):
        if line.startswith("x,"):
            break
        if line.startswith("#"):
            key, _, payload = line[1:].partition(":")
            meta[key.strip()] = payload
    else:
        raise InvalidSpec(f"{path}: no 'x,phi_*' header line")
    missing = [key for key in _BASIS_VECTORS if key not in meta]
    if missing:
        raise InvalidSpec(f"{path}: no '# {missing[0]}:' line")
    try:
        lams, left, right = (
            np.array([float(v) for v in meta[key].split(",")]) for key in _BASIS_VECTORS
        )
        data = np.loadtxt(lines[n + 1 :], delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InvalidSpec(f"{path}: {exc}") from None
    rows, modes = data.shape[0], data.shape[1] - 1
    if not lams.size == left.size == right.size == modes:
        raise InvalidSpec(
            f"{path}: {lams.size} eigenvalues, {left.size} and {right.size} end "
            f"derivatives, {modes} mode columns"
        )
    if rows < 3 or not np.allclose(data[:, 0], uniform_grid(rows), rtol=0.0, atol=1e-12):
        raise InvalidSpec(f"{path}: the x column is not the uniform grid of its {rows} rows")
    return SpectralBasis(
        grid=data[:, 0],
        eigenvalues=lams,
        functions=data[:, 1:].T,
        end_derivs=np.column_stack([left, right]),
        problem=problem,
    )

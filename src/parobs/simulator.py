"""Co-simulation of plant and sampled-data observers on a uniform grid.

Space is the central-difference operator B_h of ``DiscreteSLOperator``,
self-adjoint in the trapezoid weights, which every discrete inner product
shares. Every run lives in its eigenbasis (``GridModes``), in the plant u,
the observer error e = w - u and the innovation eta: no matrix exponential
of the grid, no tridiagonal solve and no scipy. The eigenbasis is
``DiscreteSLOperator.eigenpairs``: the discrete cosines or sines for
constant q with Neumann or Dirichlet ends, and one ``numpy.linalg.eigh``
otherwise. A run with the zero term is solved exactly
between samples; a run with a non-zero term (``LinearNonlocalTerm`` or
``GainSaturatedTerm``) steps with Crank-Nicolson's trapezoidal rule, which
is elementwise in the modes but for the term's r coefficients
(``_Trapezoid``).

Both record at the same times (``_record_plan``): every sample, the
horizon, and the first step of the run's subdivision at or past each
multiple of the record spacing, one record per step. A record keeps the
plant's and the error's modal coordinates, and ``Trajectory``
maps them to the grid only when its grid values are read. The trajectory
arrays are allocated once, and a run holds them and no full-size copy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import profiles as pf
from .errors import ConfigError, InvalidSpec, StepRejected
from .grids import _row_blocks, trapezoid_weights
from .nonlinear import NonlinearTerm, ZeroTerm
from .observer_design import (ObserverDesign, SmallGainReport, check_variant, injection_kernels,
                              small_gain)
from .schedule import SamplingSchedule
from .signals import Disturbances, NoiseSignal, SpaceTimeSignal, field_signal_from_spec
from .sturm_liouville import DiscreteSLOperator, SLProblem

__all__ = [
    "Scenario",
    "Trajectory",
    "SampleEvent",
    "simulate",
    "DiscreteObserver",
    "GridModes",
    "step_plant",
    "step_observer_predictor",
    "step_observer_zoh",
]

_CORRECTOR_RTOL = 1e-13
_CORRECTOR_MAXITER = 40
_SINGULAR_RTOL = 1e-12  # smallest pivot or singular value of a step's solve, relative


# -- spec-level single-step entry points ---------------------------------------
# Each call builds the grid's modes (``GridModes``: closed forms, or one
# ``eigh`` for a Robin end or a variable q) and the step's factors, which
# cost far more than the step; ``simulate`` builds them once per run.

def step_plant(u, t, dt, problem: SLProblem, nonlinearity: NonlinearTerm | None, v) -> np.ndarray:
    """Single Crank-Nicolson plant step on the grid implied by len(u)."""
    modes = GridModes(DiscreteSLOperator(problem, len(u)))
    return _step_alone(modes, nonlinearity, v, u, t, dt, np.zeros(0))[0]


def step_observer_predictor(w, zeta, t, dt, design: ObserverDesign, nonlinearity, v_tilde):
    """Single (w, zeta) step of the predictor observer: the error step of w
    against u = 0 with the innovation eta = C w - zeta; zeta = C w - eta."""
    discrete = DiscreteObserver(design, "predictor", len(w))
    w = np.asarray(w, dtype=float)
    eta = discrete.c_rows @ w - np.asarray(zeta, dtype=float)
    w, eta = _step_alone(GridModes(discrete.op, discrete), nonlinearity, v_tilde, w, t, dt, eta)
    return w, discrete.c_rows @ w - eta


def step_observer_zoh(w, held, t, dt, design: ObserverDesign, nonlinearity, v_tilde):
    """Single observer step with the held innovation: the error step of w
    against u = 0."""
    discrete = DiscreteObserver(design, "zoh", len(w))
    return _step_alone(GridModes(discrete.op, discrete), nonlinearity, v_tilde, w, t, dt,
                       np.asarray(held, dtype=float))[0]


def _step_alone(modes: GridModes, nonlinearity, v, x, t, dt, eta):
    """One step of the field x alone from t, driven by the input spec v and
    the innovation eta: the error step against u = 0, with the term's value
    at zero as an input. Returns the field and eta at t + dt."""
    step = _Trapezoid(modes, nonlinearity or ZeroTerm())
    step.factor(dt)
    v, grid = field_signal_from_spec(v), modes.op.grid
    drive = modes.project(v.field(t, grid) + v.field(t + dt, grid))
    eta_next = step.eta @ eta
    drive += (eta + eta_next) @ modes.l_hat + 2.0 * step.f_zero
    zero = np.zeros(step.r_hat.shape[0])
    x = step.advance(modes.project(np.asarray(x, dtype=float)), t, zero, zero, drive)
    return x @ modes.rows, eta_next


class DiscreteObserver:
    """The observer of ``design`` in ``variant`` on ``nodes`` grid points:
    the grid operator ``op``, the injection columns ``l_cols`` (n, m),
    built from the design's first N modes resampled on the grid, and the
    rows (m, n) of c_i and k_i times the trapezoid weights. A sample reads
    y = <k, u> + xi with ``k_rows``."""

    def __init__(self, design: ObserverDesign, variant: str, nodes: int):
        check_variant(variant)
        self.variant = variant
        self.op = op = DiscreteSLOperator(design.problem, nodes)
        c = np.vstack([ch.approximant.values(op.grid) for ch in design.channels])
        k = np.vstack([ch.kernel.values(op.grid) for ch in design.channels])
        self.l_cols = injection_kernels(design.L, design.basis.resample(nodes, design.N))[0].T
        self.c_rows, self.k_rows = c * op.weights, k * op.weights


class GridModes:
    """B_h's eigenbasis, ``DiscreteSLOperator.eigenpairs``, and the error
    dynamics in it of the observer ``discrete``, a ``DiscreteObserver`` on
    the grid of ``op``; with no observer there is no output channel (m = 0),
    the modes of a plant step.

    The modes are orthonormal in the trapezoid weights, so a field's modal
    coordinates are U^T W x (``project``) and its norm is their plain norm;
    ``rows`` holds them as rows on the whole grid, zero at pinned nodes, and
    ``lam`` their eigenvalues. In the modes, the observer error e = w - u
    obeys e' = -lam e + l_hat eta + (v~ - v)^ + (f(w) - f(u))^ between
    samples, and the innovation eta obeys eta' = A eta; a sample resets it
    to eta = k_hat e - xi. The hold observer holds eta (A = 0). The
    predictor's eta = C w - zeta has A = c_hat l_hat: its zeta moves at
    -<B_h c_i, w> + <c_i, f(w) + v~>, which is -C B_h w + C (f(w) + v~)
    because B_h is self-adjoint in the trapezoid weights, so the (e, eta)
    generator is block triangular. ``flows`` solves the zero term's dynamics
    in closed form: no time step, no ``expm`` of the grid, no scipy;
    ``_Trapezoid`` steps the others.
    """

    def __init__(self, op: DiscreteSLOperator, discrete: DiscreteObserver | None = None):
        self.lam, self.rows = op.eigenpairs()
        self.op, self.weights = op, op.weights
        if discrete is None:
            self.l_hat = self.k_hat = self.c_hat = np.zeros((0, self.lam.size))
        else:
            self.l_hat = self.project(discrete.l_cols.T)  # (m, modes): one row per channel
            self.k_hat = discrete.k_rows @ self.rows.T  # (m, modes)
            self.c_hat = discrete.c_rows @ self.rows.T  # (m, modes)
        predictor = discrete is not None and discrete.variant == "predictor"
        m = self.l_hat.shape[0]
        self.A = self.c_hat @ self.l_hat.T if predictor else np.zeros((m, m))

    def project(self, fields: np.ndarray) -> np.ndarray:
        """The modal coordinates U^T W x of each row x of ``fields``."""
        return (fields * self.weights) @ self.rows.T

    def flows(self, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """At each offset s (a 1-D array) from a sample: e^{-lam s} (S, modes);
        the injection integral Phi(s) = int_0^s e^{-lam (s - r)} l_hat e^{A r}
        dr (S, m, modes), one row per channel; and e^{A s} (S, m, m). So the
        error s after a sample with state e and innovation eta is
        e^{-lam s} e + eta Phi(s), plus the input mismatch.

        With A = a I (the hold, a = 0, and every one-channel predictor) Phi
        is l_hat times the scalar response (e^{a s} - e^{-lam s}) / (a + lam)
        (``_response``). Otherwise each offset and mode takes the (m + 1)
        block exponential of Van Loan ("Computing integrals involving the
        matrix exponential", IEEE Trans. Autom. Control 23, 1978), batched in
        numpy (``_expm``)."""
        s = np.asarray(s, dtype=float)
        decay = np.exp(-np.multiply.outer(s, self.lam))
        m = self.A.shape[0]
        a = self.A[0, 0] if m else 0.0
        if np.array_equal(self.A, a * np.eye(m)):
            phi = _response(a, self.lam, s, decay)[:, None, :] * self.l_hat
            return decay, phi, np.exp(a * s)[:, None, None] * np.eye(m)
        block = np.zeros((s.size, self.lam.size, m + 1, m + 1))
        block[..., 0, 0] = -np.multiply.outer(s, self.lam)
        block[..., 0, 1:] = np.multiply.outer(s, self.l_hat.T)
        block[..., 1:, 1:] = np.multiply.outer(s, self.A)[:, None]
        flow = _expm(block)
        return decay, flow[..., 0, 1:].transpose(0, 2, 1), flow[:, 0, 1:, 1:]

    def inputs(self, v: SpaceTimeSignal, grid: np.ndarray) -> list:
        """The terms of v as (time signal, modal profile) pairs."""
        return [(ts, self.project(prof.values(grid))) for ts, prof in v.terms]

    def driven(self, terms: list, t0: np.ndarray, s: np.ndarray, decay: np.ndarray) -> np.ndarray:
        """The modes' response at t0 + s to the input ``terms`` applied from
        t0, from rest, one row per (t0, s) pair; ``decay`` is e^{-lam s}. An
        offset o drives o (1 - e^{-lam s}) / lam, and A sin(omega t + phase)
        drives A Im(e^{i (omega t0 + phase)} (e^{i omega s} - e^{-lam s}) /
        (i omega + lam))."""
        out = np.zeros_like(decay)
        steady = None
        for ts, b_hat in terms:
            if ts.offset:
                if steady is None:
                    steady = _response(0.0, self.lam, s, decay)
                out += ts.offset * steady * b_hat
            if ts.amplitude:
                wave = _response(1j * ts.omega, self.lam, s, decay)
                angle = (ts.omega * t0 + ts.phase)[:, None]
                wave = np.cos(angle) * wave.imag + np.sin(angle) * wave.real
                out += ts.amplitude * wave * b_hat
        return out


class _Trapezoid:
    """Trapezoid (Crank-Nicolson) steps in the grid's modes of

        x' = -lam x + (phi(sigma + R x) - phi(sigma)) C + d(t),

    with the term's rows R and columns C (r, modes): the observer error e,
    with sigma the plant's r values R u, so the term is f(u + e) - f(u), or
    a field alone, with sigma = 0 and the term's value at zero, ``f_zero`` =
    phi(0) C, in d. M1 = I + dt/2 B_h is diagonal in the modes, so a step is
    x_new = a + coef P, with ``a`` the known part, elementwise, and P = dt/2
    M1^-1 C. The trapezoidal rule is then the fixed point of the r
    coefficients coef = phi(sigma + R x_new) - phi(sigma), solved by
    chord-Newton with the Jacobian of phi' = 1 inverted once per dt (exact
    for linear terms). ``eta`` is the trapezoid's own step of the
    innovation, eta' = A eta: (I - dt/2 A)^-1 (I + dt/2 A). It reads the
    modes' lam, accurate to relative roundoff, because a step next to the
    pole 1 - dt/2 (R P) = 0 amplifies an error in lam by 1 / that.
    """

    def __init__(self, modes: GridModes, nonlinearity: NonlinearTerm):
        rows, cols = nonlinearity.factors(modes.op.grid.size)
        self.lam, self.A, self.phi = modes.lam, modes.A, nonlinearity.phi
        self.r_hat = rows @ modes.rows.T  # the term reads R x
        self.c_hat = modes.project(cols)
        self.f_zero = self.phi(np.zeros(rows.shape[0])) @ self.c_hat
        self.dt = None

    def factor(self, dt: float) -> None:
        """The factors of a step of dt; a dt whose M1 or coupling is
        singular raises StepRejected and leaves the previous dt's held."""
        h = 0.5 * dt
        m1 = 1.0 + h * self.lam  # M1's diagonal
        if np.any(np.abs(m1) <= _SINGULAR_RTOL * max(1.0, h * np.abs(self.lam).max())):
            raise StepRejected(f"Crank-Nicolson matrix is singular at dt={dt:.6g}")
        gain = h / m1
        p = gain * self.c_hat
        rp = self.r_hat @ p.T
        jinv = _inverse(rp, dt)
        eta = _inverse(h * self.A, dt) @ (np.eye(self.A.shape[0]) + h * self.A)
        self.decay, self.gain, self.p, self.rp, self.jinv, self.eta = (
            (1.0 - h * self.lam) / m1, gain, p, rp, jinv, eta)
        self.dt = dt

    def advance(self, x: np.ndarray, t: float, sigma0: np.ndarray, sigma1: np.ndarray,
                drive: np.ndarray) -> np.ndarray:
        """x at t + dt from x at t, for the current dt, with the plant's r
        values sigma0 and sigma1 at the two ends and drive = d(t) + d(t + dt).

        Chord-Newton starts from the coefficients at t and stops once the
        state change P dcoef falls below _CORRECTOR_RTOL of the state (both
        L2 norms, of the modal coordinates), or rejects the step after
        _CORRECTOR_MAXITER updates. Linear terms stop after the second
        update, which confirms the exact first one.
        """
        phi, r_hat, p = self.phi, self.r_hat, self.p
        coef = phi(sigma0 + r_hat @ x) - phi(sigma0)
        a = self.decay * x
        a += coef @ p
        a += self.gain * drive
        s_a = sigma1 + r_hat @ a
        base = phi(sigma1)
        for _ in range(_CORRECTOR_MAXITER):
            dcoef = self.jinv @ (phi(s_a + self.rp @ coef) - base - coef)
            coef = coef + dcoef
            x_new = a + coef @ p
            change = dcoef @ p
            if change @ change <= _CORRECTOR_RTOL**2 * max(x_new @ x_new, 1.0):
                return x_new
        raise StepRejected(f"corrector failed to converge within {_CORRECTOR_MAXITER} updates "
                           f"at t={t:.6g} (dt={self.dt:.3g}); the explicit part is too stiff")


def _inverse(block: np.ndarray, dt: float) -> np.ndarray:
    """(I - block)^-1, or StepRejected where its smallest singular value is
    below _SINGULAR_RTOL of block's norm (a 1x1 I - block of -1e-15 has
    condition number 1)."""
    jac = np.eye(block.shape[0]) - block
    smallest = np.linalg.svd(jac, compute_uv=False).min(initial=np.inf)
    if smallest <= _SINGULAR_RTOL * max(1.0, np.linalg.norm(block, 2)):
        raise StepRejected(f"coupling Jacobian is singular at dt={dt:.6g}")
    return np.linalg.inv(jac)


def _response(a, lam: np.ndarray, s: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """(e^{a s} - e^{-lam s}) / (a + lam), the response at each offset s (rows)
    of each mode lam (columns) to e^{a r} applied from r = 0, for a real or
    complex a; ``decay`` is e^{-lam s}. It is s e^{a s} phi1(-(a + lam) s)
    where Re(a + lam) >= 0 and s e^{-lam s} phi1((a + lam) s) elsewhere, with
    phi1(z) = expm1(z) / z, so it neither cancels nor overflows."""
    b = a + lam
    falling = b.real >= 0.0
    z = np.multiply.outer(s, np.where(falling, -b, b))
    ratio = np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0)
    return s[:, None] * np.where(falling, np.exp(a * s)[:, None], decay) * ratio


_TAYLOR_DEGREE = 16  # truncation below 1e-18 at norm 1/2


def _expm(x: np.ndarray) -> np.ndarray:
    """exp of each matrix of the stack x (..., k, k): a Taylor polynomial of
    x / 2^j, squared j times, with j for each matrix the fewest halvings
    that bring its 1-norm to 1/2."""
    norm = np.abs(x).sum(axis=-2).max(axis=-1)
    halvings = np.ceil(np.log2(np.maximum(norm, 0.5) / 0.5)).astype(int)
    y = x / np.ldexp(1.0, halvings)[..., None, None]
    eye = np.eye(x.shape[-1])
    out = eye + y / _TAYLOR_DEGREE
    for d in range(_TAYLOR_DEGREE - 1, 0, -1):
        out = eye + (y @ out) / d
    for level in range(halvings.max(initial=0)):
        more = halvings > level
        out[more] = out[more] @ out[more]
    return out


# -- scenario and trajectory ----------------------------------------------------

@dataclass(frozen=True)
class SampleEvent:
    """The j-th sample: its time and the measurement noise xi(t_j) it read."""

    index: int
    t: float
    xi: np.ndarray


@dataclass(frozen=True)
class Scenario:
    """Everything one co-simulation run needs, bound to one grid size, and
    the run's certificate. The run ends at its schedule's horizon.

    ``report`` is derived in ``__post_init__``: the small-gain report of the
    design and variant at the schedule's diameter and ``kappa``, so it
    describes the run that is simulated. ``dataclasses.replace`` re-derives
    it; a kappa outside [0, mu) raises ``KappaOutOfRange`` and an unknown
    variant ``InvalidSpec``. No noise has one form: an empty
    ``disturbances.xi`` becomes m zero ``NoiseSignal``s. A ``dt`` or
    ``snapshot_every`` that is set and not positive, or a noise channel
    count other than 0 or m, raises ``InvalidSpec``.
    """

    design: ObserverDesign
    variant: str  # "predictor" or "zoh"
    schedule: SamplingSchedule
    nodes: int
    u0: object
    w0: object
    nonlinearity: NonlinearTerm = field(default_factory=ZeroTerm)
    disturbances: Disturbances = field(default_factory=Disturbances)
    dt: float | None = None  # None -> min(dx, h/20)
    snapshot_every: float | None = None
    label: str = ""
    kappa: float = 0.0
    report: SmallGainReport = field(init=False)

    def __post_init__(self):
        for name in ("dt", "snapshot_every"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise InvalidSpec(f"{name} must be positive, got {value!r}")
        if not self.disturbances.xi:
            zero = tuple(NoiseSignal(channel=i) for i in range(self.design.m))
            object.__setattr__(self, "disturbances", replace(self.disturbances, xi=zero))
        if len(self.disturbances.xi) != self.design.m:
            raise InvalidSpec("need one noise channel per output channel")
        if self.design.lipschitz_R < self.nonlinearity.lipschitz_R:
            raise ConfigError(
                "design.lipschitz_R",
                f"certificate assumes R = {self.design.lipschitz_R:.6g}, below the "
                f"nonlinearity's Lipschitz bound {self.nonlinearity.lipschitz_R:.6g}",
            )
        report = small_gain(self.design, self.schedule.diameter, self.kappa, self.variant)
        object.__setattr__(self, "report", report)


@dataclass
class Trajectory:
    """A run's records and per-sample events, kept in the grid's modes.

    Each record holds its time, sample flag, ``zeta`` and ``error_l2``, and
    the modal coordinates of the plant, ``modal_u``, and of the observer
    error e = w - u, ``modal_e`` (records, modes), in the modes
    ``mode_rows`` (modes, n), orthonormal in the trapezoid weights; so
    ``error_l2`` is the norm of a row of ``modal_e``. For the predictor
    variant ``zeta`` holds the predictor states; for the zero-order-hold
    variant it holds the held innovation values.

    The grid values ``u``, ``w`` = u + e and ``error_sup`` (the largest |e|
    on the grid) are mapped from the modal records on first read, a
    ``grids._row_blocks`` block of records at a time, and then kept,
    read-only; a run that reads none of them holds no (records, n) array.
    The error is always the modal error mapped to the grid
    (``error_fields``), never w - u, so it keeps the digits that fall below
    the plant's roundoff. ``from_fields`` builds a trajectory from grid
    fields.
    """

    times: np.ndarray
    zeta: np.ndarray
    sample_flag: np.ndarray
    events: list[SampleEvent]
    grid: np.ndarray
    error_l2: np.ndarray
    metadata: dict
    modal_u: np.ndarray
    modal_e: np.ndarray
    mode_rows: np.ndarray
    _mapped: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_fields(cls, times, u, w, zeta, sample_flag, events, grid, metadata) -> Trajectory:
        """The trajectory of the grid fields u and w (records, n) in the
        grid's scaled unit vectors W^{-1/2} as modes: the modal coordinates
        are W^{1/2} u and W^{1/2} (w - u). ``u`` and ``w`` read back as
        given; the error, ``error_l2`` and ``error_sup`` are read from the
        modal error, so they match w - u to roundoff."""
        grid = np.asarray(grid, dtype=float)
        root = np.sqrt(trapezoid_weights(grid))
        u, w = (np.array(f, dtype=float, ndmin=2) for f in (u, w))
        modal_e = (w - u) * root
        traj = cls(times=np.asarray(times, dtype=float), zeta=np.asarray(zeta, dtype=float),
                   sample_flag=np.asarray(sample_flag, dtype=bool), events=list(events), grid=grid,
                   error_l2=_row_norms(modal_e), metadata=dict(metadata), modal_u=u * root,
                   modal_e=modal_e, mode_rows=np.diag(1.0 / root))
        traj._mapped.update(u=_read_only(u), w=_read_only(w))
        return traj

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.grid)

    @property
    def u(self) -> np.ndarray:
        """The plant on the grid, one row per record."""
        if "u" not in self._mapped:
            self._mapped["u"] = _read_only(self._on_grid(self.modal_u))
        return self._mapped["u"]

    @property
    def w(self) -> np.ndarray:
        """The observer on the grid, u + e, one row per record."""
        if "w" not in self._mapped:
            u = self.u
            w = np.empty_like(u)
            for block, e in self._error_blocks():
                np.add(u[block], e, out=w[block])
            self._mapped["w"] = _read_only(w)
        return self._mapped["w"]

    @property
    def error_sup(self) -> np.ndarray:
        """The largest |e| on the grid of each record."""
        if "error_sup" not in self._mapped:
            sup = [np.abs(e, out=e).max(axis=1) for _, e in self._error_blocks()]
            self._mapped["error_sup"] = _read_only(np.concatenate(sup))
        return self._mapped["error_sup"]

    def error_fields(self) -> np.ndarray:
        """The observer error e on the grid, one row per record: the modal
        error mapped to the grid, not w - u."""
        return self._on_grid(self.modal_e)

    def _on_grid(self, coords: np.ndarray) -> np.ndarray:
        """The modal records ``coords`` mapped to the grid, a new array."""
        out = np.empty((self.times.size, self.grid.size))
        for block in _row_blocks(self.times.size):
            np.matmul(coords[block], self.mode_rows, out=out[block])
        return out

    def _error_blocks(self):
        """(block, e on the grid) for each ``grids._row_blocks`` block of
        records, e a new array."""
        for block in _row_blocks(self.times.size):
            yield block, self.modal_e[block] @ self.mode_rows

    def validate(self) -> None:
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        sample_times = {e.t for e in self.events}
        recorded = set(self.times[self.sample_flag].tolist())
        if not sample_times <= recorded:
            raise ValueError("sample events must be a subset of snapshot times")


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The plain L2 norm of each row of x."""
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def simulate(scenario: Scenario) -> Trajectory:
    """Run the co-simulation from t = 0 to the schedule's horizon, sampling
    at the schedule's times up to it; deterministic given the scenario seeds.

    The record plan (``_record_plan``) fixes every record time and sample
    flag first, and the trajectory arrays are allocated once from it. Each
    gap between samples (and the last one, up to the horizon) is cut into
    the fewest equal steps of at most dt_target (default min(dx, h/20)).
    The records are every sample, the horizon, and the first step at or
    past each due time k ``snapshot_every``, k >= 1 (default spacing
    horizon / 512), one per step: no two are more than ``snapshot_every``
    and a step apart, and no record changes where a run steps. A
    scenario whose certificate ``scenario.report`` is infeasible (Omega >= 1)
    still runs, since divergence studies are legitimate, but emits a
    warning; ``analysis.check_run`` then checks no bound.

    Every run lives in the modes of B_h (``GridModes`` of the run's
    ``DiscreteObserver``, on ``DiscreteSLOperator.eigenpairs``: closed forms
    for constant q with Neumann or Dirichlet ends, one ``eigh`` otherwise), in
    the plant u, the observer error e = w - u and the innovation eta, which
    each sample resets from the error and the noise: eta = k_hat e - xi
    (y - <k, u> = xi). Each record keeps u's and e's modal coordinates
    (``Trajectory.modal_u`` and ``modal_e``), and maps nothing to the grid:
    ``error_l2`` is the norm of e's modal coordinates, and zeta is c_hat (u
    + e) - eta for the predictor, c_hat the modes' c rows, and the held eta
    for the hold observer. ``Trajectory`` maps u, w and ``error_sup`` to the
    grid when they are read.

    A run with the zero term is solved exactly, with no time step, from
    sample to sample and at each record; ``metadata["scheme"]`` is
    "exact-modal" and ``metadata["integrator"]`` {"modes": count, "steps":
    0}. A run with a non-zero term steps the plant and the error together
    with the trapezoidal rule (``_Trapezoid``), and its predictor records
    each sample's reset zeta = y - <k - c, w> in the modes (``_stepped``);
    ``metadata["scheme"]`` is "imex-crank-nicolson" and
    ``metadata["integrator"]`` {"steps": count}, a plant step and an error
    step per time step.
    """
    design = scenario.design
    sch = scenario.schedule

    discrete = DiscreteObserver(design, scenario.variant, scenario.nodes)
    grid = discrete.op.grid
    dist = scenario.disturbances

    report = scenario.report
    if not report.feasible:
        warnings.warn(f"small-gain value {report.omega:.4g} >= 1 at diameter {report.h:.4g} and "
                      f"kappa {report.kappa:.4g}; convergence is not certified", stacklevel=2)

    u = _initial_field(scenario.u0, discrete.op)
    w = _initial_field(scenario.w0, discrete.op)

    dx = grid[1] - grid[0]
    dt_target = scenario.dt if scenario.dt is not None else min(dx, sch.diameter / 20.0)
    snap_every = (
        scenario.snapshot_every if scenario.snapshot_every is not None else sch.horizon / 512.0
    )
    # an explicit schedule may declare a horizon before its last sample
    sample_times = sch.times[sch.times <= sch.horizon + 1e-12]
    plan = _record_plan(sample_times, sch.horizon, dt_target, snap_every)
    size = plan.times.size
    # each channel's noise at every sample at once, one row per sample
    xi = np.column_stack([s.value(sample_times, np.arange(sample_times.size)) for s in dist.xi])
    modes = GridModes(discrete.op, discrete)
    traj = Trajectory(
        times=plan.times,
        zeta=np.empty((size, design.m)),
        sample_flag=plan.row_step == 0,
        events=[SampleEvent(j, t, row) for j, (t, row) in enumerate(zip(sample_times.tolist(), xi))],
        grid=grid,
        error_l2=np.empty(size),
        metadata={
            "variant": scenario.variant,
            "nodes": scenario.nodes,
            "dt_target": dt_target,
            "diameter": sch.diameter,
            "horizon": sch.horizon,
            "label": scenario.label,
        },
        modal_u=np.empty((size, modes.lam.size)),
        modal_e=np.empty((size, modes.lam.size)),
        mode_rows=modes.rows,
    )
    if scenario.nonlinearity.factors(grid.size)[0].shape[0]:
        scheme, integrator = "imex-crank-nicolson", _stepped(discrete, modes, scenario.nonlinearity,
                                                             dist, plan, u, w, traj)
    else:
        scheme, integrator = "exact-modal", _closed_form(discrete, modes, dist, plan, u, w, traj)
    traj.error_l2[:] = _row_norms(traj.modal_e)
    traj.metadata.update(scheme=scheme, integrator=integrator)
    traj.validate()
    return traj


def _closed_form(discrete: DiscreteObserver, modes: GridModes, dist: Disturbances, plan: "_Plan",
                 u: np.ndarray, w: np.ndarray, traj: Trajectory) -> dict:
    """Fill ``traj`` with the exact solution in the grid's modes.

    The samples come first, in order: the modal plant and error at each,
    the innovation eta_j = k_hat e_j - xi_j it resets, and the flow over the
    gap to the next one, one ``GridModes.flows`` per distinct gap. The
    records then follow a ``grids._row_blocks`` block at a time, each row the
    flow from its interval's sample over the row's offset, the time of its
    step (one ``flows`` per distinct offset in the block), written to
    ``traj.modal_u``, ``modal_e`` and ``zeta``.
    """
    grid = discrete.op.grid
    plant_inputs, observer_inputs = modes.inputs(dist.v, grid), modes.inputs(dist.v_tilde, grid)

    def driven(t0, s, decay):
        # the plant's and the error's response to the inputs; v~ - v as the
        # difference of two responses, so a matched input cancels exactly
        plant = modes.driven(plant_inputs, t0, s, decay)
        return plant, modes.driven(observer_inputs, t0, s, decay) - plant

    inputs = bool(plant_inputs or observer_inputs)
    sample_times = np.array([event.t for event in traj.events])
    eta_at = -np.array([event.xi for event in traj.events]).reshape(sample_times.size, -1)
    gaps, gap_index = np.unique(plan.gap, return_inverse=True)
    decay, phi, _ = modes.flows(gaps)
    drive = None
    if inputs:
        drive = np.stack(driven(sample_times, gaps[gap_index], decay[gap_index]), axis=1)
    states = np.empty((sample_times.size, 2, modes.lam.size))  # plant and error at each sample
    x, k_hat = modes.project(np.stack([u, w - u])), modes.k_hat
    for j, g in enumerate(gap_index.tolist()):
        states[j] = x
        eta = eta_at[j]  # -xi_j, plus:
        eta += k_hat @ x[1]
        x = decay[g] * x
        x[1] += eta @ phi[g]
        if drive is not None:
            x += drive[j]
    del decay, phi, drive

    for block in _row_blocks(plan.times.size):
        j, s = plan.row_interval[block], plan.row_offset[block]
        offsets, index = np.unique(s, return_inverse=True)
        decay, phi, eta_flow = modes.flows(offsets)
        decay = decay[index]
        if inputs:
            plant_drive, error_drive = driven(sample_times[j], s, decay)
        x_u, x_e = traj.modal_u[block], traj.modal_e[block]
        np.multiply(states[j, 0], decay, out=x_u)
        if inputs:
            x_u += plant_drive
        np.multiply(states[j, 1], decay, out=x_e)
        del decay
        eta = eta_at[j]
        for c in range(eta.shape[1]):
            injected = phi[index, c]
            injected *= eta[:, c, None]
            x_e += injected
            del injected
        if inputs:
            x_e += error_drive
        if discrete.variant == "predictor":
            eta = (eta_flow[index] @ eta[:, :, None])[..., 0]
            traj.zeta[block] = (x_u + x_e) @ modes.c_hat.T - eta
        else:
            traj.zeta[block] = eta
    return {"modes": int(modes.lam.size), "steps": 0}


def _stepped(discrete: DiscreteObserver, modes: GridModes, nl: NonlinearTerm, dist: Disturbances,
             plan: "_Plan", u: np.ndarray, w: np.ndarray, traj: Trajectory) -> dict:
    """Fill ``traj`` by stepping the modal plant u, error e and innovation
    eta through the plan, one time step at a time: the plant first, then
    the error, which reads the plant's r values at both ends of the step.
    Each sample resets eta = k_hat e - xi. Each sample's row, and each
    other row after the step it is planned on, is written to
    ``traj.modal_u``, ``modal_e`` and ``zeta`` when the loop reaches it; a
    predictor's sample row takes the reset zeta = y - <k - c, w>, y = <k,
    u> + xi, read through k_hat and c_hat, so with k = c (k_hat - c_hat = 0
    exactly) it reads y exactly."""
    step, grid, zero = _Trapezoid(modes, nl), discrete.op.grid, np.zeros(modes.lam.size)
    plant_terms, observer_terms = modes.inputs(dist.v, grid), modes.inputs(dist.v_tilde, grid)
    predictor, gap_hat = discrete.variant == "predictor", modes.k_hat - modes.c_hat

    def inputs(t: float) -> tuple[np.ndarray, np.ndarray]:
        """v and v~ - v in the modes at t; a matched input cancels exactly."""
        v = sum((ts.value(t) * b for ts, b in plant_terms), zero)
        return v, sum((ts.value(t) * b for ts, b in observer_terms), zero) - v

    def record(row: int) -> None:
        traj.modal_u[row], traj.modal_e[row] = x_u, x_e
        traj.zeta[row] = modes.c_hat @ (x_u + x_e) - eta if predictor else eta

    x_u, x_e = modes.project(np.stack([u, w - u]))
    plant_sigma, sigma = np.zeros(step.r_hat.shape[0]), step.r_hat @ x_u
    row, row_step = 0, plan.row_step.tolist() + [0]  # a last entry no step count reaches
    for j, event in enumerate(traj.events):
        eta = modes.k_hat @ x_e - event.xi
        record(row)
        traj.zeta[row] = (modes.k_hat @ x_u + event.xi - gap_hat @ (x_u + x_e)
                          if predictor else eta)
        row += 1
        t_j, dt = event.t, plan.dt[j]
        v0 = inputs(t_j)
        for s in range(plan.steps[j]):
            if dt != step.dt:
                step.factor(dt)
            t, v1 = t_j + s * dt, inputs(t_j + (s + 1) * dt)
            x_u = step.advance(x_u, t, plant_sigma, plant_sigma, v0[0] + v1[0] + 2.0 * step.f_zero)
            sigma_next, eta_next = step.r_hat @ x_u, step.eta @ eta
            x_e = step.advance(x_e, t, sigma, sigma_next,
                               v0[1] + v1[1] + (eta + eta_next) @ modes.l_hat)
            sigma, eta, v0 = sigma_next, eta_next, v1
            if s + 1 == row_step[row]:
                record(row)
                row += 1
    return {"steps": 2 * int(plan.steps.sum())}


@dataclass(frozen=True)
class _Plan:
    """A run's steps and records. Sample j's ``gap[j]`` to the next sample or
    the horizon is cut into ``steps[j]`` steps of size ``dt[j]`` (none, and a
    gap of 0, for a horizon within 1e-14 of the last sample). Record row r,
    at ``times[r]``, is the state after step ``row_step[r]`` of interval
    ``row_interval[r]``, ``row_offset[r]`` after its sample: step 0 is the
    sample's row, and the horizon's row is the last interval's last step,
    at its gap."""

    times: np.ndarray
    steps: np.ndarray
    dt: np.ndarray
    gap: np.ndarray
    row_interval: np.ndarray
    row_step: np.ndarray
    row_offset: np.ndarray


def _record_plan(sample_times: np.ndarray, horizon: float, dt_target: float,
                 snap_every: float) -> _Plan:
    """The record plan of a run.

    Each interval takes the fewest steps of at most dt_target (up to
    rounding) that cut it exactly. The records are every sample, the
    horizon, and the first step at or past (within 1e-12) each due time k
    ``snap_every``, k >= 1, one row per step; a due time past an interval's
    last step falls on the next sample. A step is counted from the run's
    start, so an interval's last step is the next interval's sample.
    """
    t0 = np.asarray(sample_times, dtype=float)
    ends = np.append(t0[1:], horizon)
    # as a schedule's samples, a horizon is more than 1e-14 past the last
    live = ends > t0 + 1e-14
    gap = np.where(live, ends - t0, 0.0)
    steps = np.where(live, np.maximum(1.0, np.ceil(gap / dt_target - 1e-9)), 0.0).astype(np.int64)
    dt = gap / np.maximum(steps, 1)
    first = np.cumsum(steps) - steps
    # an interval with a step inside it takes steps longer than dt_target / 2,
    # so at any finer spacing each such step records: due times are laid out
    # 4 a step at most
    spacing = max(snap_every, dt_target / 4.0)
    due = np.arange(1, int(horizon / spacing) + 2) * spacing - 1e-12
    due = due[due <= horizon]
    j = np.searchsorted(t0, due, side="right") - 1
    j -= ~live[j]  # at a horizon within 1e-14 of the last sample: that sample
    s = np.minimum(np.ceil((due - t0[j]) / dt[j]), steps[j]).astype(np.int64)
    # the rows' steps from the run's start: the samples', the horizon's and the due times'
    at = np.sort(np.concatenate([first, [first[-1] + steps[-1]], first[j] + s]))
    at = at[np.diff(at, prepend=-1) > 0]
    row_interval = np.searchsorted(first, at, side="right") - 1
    row_step = at - first[row_interval]
    row_offset = row_step * dt[row_interval]
    times = t0[row_interval] + row_offset
    if live[-1]:
        row_offset[-1], times[-1] = gap[-1], horizon
    return _Plan(times, steps, dt, gap, row_interval, row_step, row_offset)


def _initial_field(profile_like, op: DiscreteSLOperator) -> np.ndarray:
    vals = pf.as_profile(profile_like, op.grid).values(op.grid)
    vals = np.array(vals, dtype=float)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    if op.problem.dirichlet_left and abs(vals[0]) > 1e-8 * scale:
        raise InvalidSpec("initial field violates the Dirichlet condition at x = 0")
    if op.problem.dirichlet_right and abs(vals[-1]) > 1e-8 * scale:
        raise InvalidSpec("initial field violates the Dirichlet condition at x = 1")
    return op.pin(vals)

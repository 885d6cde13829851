"""Co-simulation of plant and sampled-data observers on a uniform grid.

Space is the central-difference operator B_h of ``DiscreteSLOperator``,
self-adjoint in the trapezoid weights, which every discrete inner product
shares. Time is handled in one of two ways.

A run with the zero term is linear and time-invariant between samples, and
``simulate`` solves it exactly in the eigenbasis of B_h (``GridModes``),
from sample to sample: the plant, and the observer error e = w - u, driven
by v~ - v and by the injection of the innovation eta, which obeys
eta' = A eta between samples (A = 0 for the hold observer, A = C L for the
predictor) and is reset from the noise at each sample. No time step, no
matrix exponential of the grid and no scipy.

A run with a non-zero term (``LinearNonlocalTerm`` or ``GainSaturatedTerm``)
steps with IMEX Crank-Nicolson (``IMEXStepper``): diffusion-reaction
implicit, the nonlinear, non-local, input and injection terms explicit
through the trapezoidal rule. One stepper class integrates the plant and
both observers. Every explicit term reads the state through a few inner
products, so a step takes one tridiagonal solve and r + m coupling
equations, solved by chord-Newton with a Jacobian inverted once per dt
(exact for linear terms). The inter-sample predictor integrates the coupled
(w, zeta) system; the rate of zeta uses the discrete operator applied to the
approximant, which makes the discrete integration-by-parts identity exact.
The zero-order-hold variant freezes the innovation between samples instead.

Both record at the same times: every sample, and the first step of the
run's subdivision at or past each due time (``_record_plan``). The
trajectory arrays are allocated once, and a run holds them and no
full-size copy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import profiles as pf
from .errors import ConfigError, InvalidSpec, StepRejected
from .grids import _row_blocks, snapshot_norms, trapezoid_weights
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
_SINGULAR_RTOL = 1e-12  # smallest singular value of the coupling Jacobian, relative


class IMEXStepper:
    """IMEX Crank-Nicolson steps of w_t = -B_h w + f(w) + v + sum_i l_i e_i.

    One class serves the plant and both observers; they differ only in the
    m output channels with injection columns ``l_cols`` (n, m):

    - plant: no channels (m = 0);
    - hold observer: ``zeta`` is the held innovation e, a known forcing that
      the step leaves unchanged;
    - predictor observer (``c_rows`` and ``stiff_rows`` given): e = C w - zeta,
      and zeta is integrated alongside w with rate S w + C (f(w) + v) by the
      same trapezoidal rule. Using <L_h c_i, w> with the discrete operator
      makes (w, zeta) track (u, <c_i, u>) exactly on matched runs.

    Every explicit term is low rank (f(w) = phi(R w) @ cols), so a step is
    w_new = a + P coef: ``a`` takes one solve with M1 = I + dt/2 B_h, by
    LAPACK's tridiagonal LU (scipy's ``dgttrf``/``dgttrs``, imported on the
    first step), and P = dt/2 M1^-1 [cols, l] is kept for the current dt. The
    trapezoidal rule is then the fixed point coef = Phi(coef) of the r + m
    coefficients [phi(R w_new); e], affine in coef except for phi; its
    Jacobian with phi' = 1 is inverted alongside P, once per dt. ``steps``
    counts the steps taken.
    """

    def __init__(
        self,
        op: DiscreteSLOperator,
        nonlinearity: NonlinearTerm,
        v: SpaceTimeSignal,
        l_cols: np.ndarray | None = None,  # (n, m)
        c_rows: np.ndarray | None = None,  # (m, n): weights * c_i
        stiff_rows: np.ndarray | None = None,  # (m, n): weights * (L_h c_i)
    ):
        n = op.grid.size
        self.op, self.phi = op, nonlinearity.phi
        self.v_terms = tuple((ts, prof.values(op.grid)) for ts, prof in v.terms)
        nl_rows, nl_cols = nonlinearity.factors(n)
        l_cols = np.zeros((n, 0)) if l_cols is None else l_cols
        self.r, self.m = nl_rows.shape[0], l_cols.shape[1]
        self.coupled = c_rows is not None
        if not self.coupled:
            c_rows = stiff_rows = np.zeros((0, n))
        self.c_rows = c_rows
        self.c_nl = c_rows @ nl_cols.T  # <c_i, cols_k>
        self.cols = np.vstack([nl_cols, l_cols.T])  # explicit part = coef @ cols
        self.rows = np.vstack([nl_rows, c_rows, stiff_rows])  # s = rows @ w
        self.dt = None
        self.steps = 0

    def _factor(self, dt: float) -> None:
        """Factor M1 = I + dt/2 B_h for ``_solve`` and build what a step of dt
        reuses: M0, P, R P and the coupling Jacobian's inverse."""
        from scipy.linalg.lapack import dgttrf, dgttrs

        self.dt = None  # a factorization that raises leaves none held
        sub, diag, sup = self.op.free_tridiagonals()
        h = 0.5 * dt
        # M1 = I + dt/2 B_h (implicit), M0 = I - dt/2 B_h (explicit)
        *self._lu, info = dgttrf(h * sub, 1.0 + h * diag, h * sup)
        self._gttrs = dgttrs  # bound here so the per-step _solve imports nothing
        if info:
            raise StepRejected(f"Crank-Nicolson matrix is singular at dt={dt:.6g}")
        self._m0 = (-h * sub, 1.0 - h * diag, -h * sup)
        self._p = self._solve(h * self.cols.T[self.op.free])  # (n, r + m)
        self._rp = self.rows @ self._p
        # Jacobian of coef - Phi(coef) with phi' = 1; the held innovation is constant
        r = self.r
        jac = np.eye(r + self.m)
        jac[:r] -= self._rp[:r]
        if self.coupled:
            jac[r:] -= self._rp[r : r + self.m] - h * self._rp[r + self.m :]
            jac[r:, :r] += h * self.c_nl
        # a 1x1 jac of -1e-15 has condition number 1: scale its smallest singular
        # value by the block subtracted from the identity instead
        smallest = np.linalg.svd(jac, compute_uv=False).min(initial=np.inf)
        if smallest <= _SINGULAR_RTOL * max(1.0, np.linalg.norm(np.eye(r + self.m) - jac, 2)):
            raise StepRejected(f"coupling Jacobian is singular at dt={dt:.6g}")
        self._jinv = np.linalg.inv(jac)
        self.dt = dt

    def _solve(self, rhs_free: np.ndarray) -> np.ndarray:
        """M1^-1 on the free nodes, zero at pinned ones, for ``self.dt``."""
        out = np.zeros((self.op.grid.size, *rhs_free.shape[1:]))
        if not rhs_free.size:  # dgttrs corrupts the heap when given no right-hand side
            return out
        out[self.op.free] = self._gttrs(*self._lu, rhs_free)[0]
        return out

    def _input(self, t: float) -> np.ndarray:
        """v(t) on the grid, summed in SpaceTimeSignal.field's order from the
        profiles sampled once at construction."""
        return sum((ts.value(t) * b for ts, b in self.v_terms), np.zeros(self.op.grid.size))

    def _coef(self, s: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        e = s[self.r : self.r + self.m] - zeta if self.coupled else zeta
        return np.concatenate([self.phi(s[: self.r]), e])

    def step(self, w: np.ndarray, t: float, dt: float, zeta: np.ndarray | None = None):
        """Advance (w, zeta) from t to t + dt and return the new pair.

        Chord-Newton on coef = Phi(coef), started from the coefficients at
        t: stop once the state change P dcoef (and the change of zeta) falls
        below _CORRECTOR_RTOL of the state, or reject the step after
        _CORRECTOR_MAXITER updates. Linear terms stop after the second update,
        which confirms the exact first one.
        """
        if dt != self.dt:
            self._factor(dt)
        zeta = np.zeros(self.m) if zeta is None else zeta
        self.steps += 1
        return self._trapezoid(w, zeta, self._input(t), self._input(t + dt), t)

    def _trapezoid(self, w, zeta, v0, v1, t: float):
        """One step of the current dt with the inputs v0 = v(t), v1 = v(t + dt)."""
        r, free, h = self.r, self.op.free, 0.5 * self.dt
        s = self.rows @ w
        coef = self._coef(s, zeta)

        if self.coupled:
            stiff = slice(r + self.m, None)
            zeta_known = zeta + h * (s[stiff] + self.c_nl @ coef[:r] + self.c_rows @ (v0 + v1))

        # M0 w + h * (cols' coef + v0 + v1) on the free nodes, then a = M1^-1 of it
        sub0, diag0, sup0 = self._m0
        wf = w[free]
        rhs = diag0 * wf
        rhs[:-1] += sup0 * wf[1:]
        rhs[1:] += sub0 * wf[:-1]
        explicit = self.cols.T @ coef
        explicit += v0
        explicit += v1
        explicit *= h
        rhs += explicit[free]
        a = self._solve(rhs)
        s_a = self.rows @ a

        zeta_new = zeta
        for _ in range(_CORRECTOR_MAXITER):
            s = s_a + self._rp @ coef
            if self.coupled:
                zeta_new = zeta_known + h * (s[stiff] + self.c_nl @ coef[:r])
            dcoef = self._jinv @ (self._coef(s, zeta_new) - coef)
            coef = coef + dcoef
            w_new = self._p @ coef
            w_new += a
            change = self._p @ dcoef
            diff = np.abs(change, out=change).max()
            if self.coupled:
                dzeta = h * (self._rp[stiff] @ dcoef + self.c_nl @ dcoef[:r])
                zeta_new = zeta_new + dzeta
                diff = max(diff, np.abs(dzeta).max())
            if diff <= _CORRECTOR_RTOL * max(np.abs(w_new).max(), 1.0):
                return w_new, zeta_new
        raise StepRejected(f"corrector failed to converge within {_CORRECTOR_MAXITER} updates "
                           f"at t={t:.6g} (dt={self.dt:.3g}); the explicit part is too stiff")


# -- spec-level single-step entry points ---------------------------------------

def step_plant(u, t, dt, problem: SLProblem, nonlinearity: NonlinearTerm | None, v) -> np.ndarray:
    """Single IMEX plant step on the grid implied by len(u).

    Each call rebuilds the grid operator, the stepper and its factorization,
    which cost far more than the step; a loop of steps builds one stepper,
    ``DiscreteObserver(...).plant(...)``, and calls its ``step``.
    """
    op = DiscreteSLOperator(problem, len(u))
    stepper = IMEXStepper(op, nonlinearity or ZeroTerm(), field_signal_from_spec(v))
    return stepper.step(np.asarray(u, dtype=float), t, dt)[0]


def step_observer_predictor(w, zeta, t, dt, design: ObserverDesign, nonlinearity, v_tilde):
    """Single coupled (w, zeta) step for the predictor observer.

    Each call rebuilds the ``DiscreteObserver``, the stepper and its
    factorization, which cost far more than the step; a loop of steps builds
    one stepper, ``DiscreteObserver(...).observer(...)``, and calls its ``step``.
    """
    return DiscreteObserver(design, "predictor", len(w)).observer(
        nonlinearity or ZeroTerm(), field_signal_from_spec(v_tilde)
    ).step(np.asarray(w, dtype=float), t, dt, np.asarray(zeta, dtype=float))


def step_observer_zoh(w, held, t, dt, design: ObserverDesign, nonlinearity, v_tilde):
    """Single observer step with held innovation.

    Each call rebuilds the ``DiscreteObserver``, the stepper and its
    factorization, which cost far more than the step; a loop of steps builds
    one stepper, ``DiscreteObserver(...).observer(...)``, and calls its ``step``.
    """
    return DiscreteObserver(design, "zoh", len(w)).observer(
        nonlinearity or ZeroTerm(), field_signal_from_spec(v_tilde)
    ).step(np.asarray(w, dtype=float), t, dt, np.asarray(held, dtype=float))[0]


class DiscreteObserver:
    """The observer of ``design`` in ``variant`` on ``nodes`` grid points: the
    injection columns ``l_cols`` (n, m), built from the design's first N
    modes resampled on the grid, and rows (m, n) of c_i, k_i, k_i - c_i and
    -L_h c_i times the trapezoid weights. It builds the plant and observer
    steppers on one ``op``, and owns the sample law: a sample reads
    y = <k, u> + xi with ``k_rows``, and ``reset`` turns y into the
    observer's second state."""

    def __init__(self, design: ObserverDesign, variant: str, nodes: int):
        check_variant(variant)
        self.variant = variant
        self.op = op = DiscreteSLOperator(design.problem, nodes)
        c = np.vstack([ch.approximant.values(op.grid) for ch in design.channels])
        k = np.vstack([ch.kernel.values(op.grid) for ch in design.channels])
        self.l_cols = injection_kernels(design.L, design.basis.resample(nodes, design.N))[0].T
        self.c_rows, self.k_rows, self.gap_rows = c * op.weights, k * op.weights, (k - c) * op.weights
        self.stiff_rows = (-np.vstack([op.apply(ci) for ci in c])) * op.weights

    def plant(self, nonlinearity: NonlinearTerm, v: SpaceTimeSignal) -> IMEXStepper:
        return IMEXStepper(self.op, nonlinearity, v)

    def observer(self, nonlinearity: NonlinearTerm, v: SpaceTimeSignal) -> IMEXStepper:
        if self.variant == "predictor":
            return IMEXStepper(self.op, nonlinearity, v, self.l_cols, self.c_rows, self.stiff_rows)
        return IMEXStepper(self.op, nonlinearity, v, self.l_cols)

    def reset(self, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The observer's second state after sampling y with field w: the
        predictor state y - <k - c, w>, or the held innovation <k, w> - y."""
        if self.variant == "predictor":
            return y - self.gap_rows @ w
        return self.k_rows @ w - y


class GridModes:
    """B_h's eigenbasis, and the observer's error dynamics in it.

    W^{1/2} B_h W^{-1/2} on the free nodes is a symmetric tridiagonal
    (``DiscreteSLOperator.symmetric_tridiagonals``), and one
    ``numpy.linalg.eigh`` of it gives (lam, Q). The modes U = W^{-1/2} Q are
    orthonormal in the trapezoid weights, so a field's modal coordinates are
    U^T W x and its norm is their plain norm. ``rows`` holds the modes as
    rows on the whole grid, zero at pinned nodes.

    In the modes, the observer error e = w - u obeys e' = -lam e + l_hat eta
    + (v~ - v)^ between samples, and the innovation eta obeys eta' = A eta;
    a sample resets it to eta = k_hat e - xi. The hold observer holds eta
    (A = 0). The predictor's eta = C w - zeta has A = c_hat l_hat, because
    the rate of zeta reads -C B_h w (``stiff_rows``), which makes the
    (e, eta) generator block triangular. ``flows`` solves this in closed
    form: no time step, no ``expm`` of the grid, no scipy.
    """

    def __init__(self, discrete: DiscreteObserver):
        op = discrete.op
        diag, off = op.symmetric_tridiagonals()
        sym = np.diag(diag)
        i = np.arange(off.size)
        sym[i, i + 1] = sym[i + 1, i] = off
        self.lam, q = np.linalg.eigh(sym)
        del sym
        self.rows = np.zeros((self.lam.size, op.grid.size))
        self.rows[:, op.free] = q.T
        del q
        self.rows[:, op.free] /= np.sqrt(op.weights[op.free])
        self.weights = op.weights
        self.l_hat = self.project(discrete.l_cols.T)  # (m, modes): one row per channel
        self.k_hat = discrete.k_rows @ self.rows.T  # (m, modes)
        m = self.l_hat.shape[0]
        if discrete.variant == "predictor":
            self.A = (discrete.c_rows @ self.rows.T) @ self.l_hat.T
        else:
            self.A = np.zeros((m, m))

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
    """Snapshots of plant and observer fields plus per-sample events.

    For the predictor variant ``zeta`` holds the predictor states; for the
    zero-order-hold variant it holds the held innovation values.
    """

    times: np.ndarray
    u: np.ndarray
    w: np.ndarray
    zeta: np.ndarray
    sample_flag: np.ndarray
    events: list[SampleEvent]
    grid: np.ndarray
    error_l2: np.ndarray
    error_sup: np.ndarray
    metadata: dict

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.grid)

    def error_fields(self) -> np.ndarray:
        return self.w - self.u

    def validate(self) -> None:
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("snapshot times must be strictly increasing")
        sample_times = {e.t for e in self.events}
        recorded = set(self.times[self.sample_flag].tolist())
        if not sample_times <= recorded:
            raise ValueError("sample events must be a subset of snapshot times")


def simulate(scenario: Scenario) -> Trajectory:
    """Run the co-simulation from t = 0 to the schedule's horizon, sampling
    at the schedule's times up to it; deterministic given the scenario seeds.

    The record plan (``_record_plan``) fixes every record time and sample
    flag first, and the trajectory arrays are allocated once from it. Each
    gap between samples (and the last one, up to the horizon) is cut into
    the fewest equal steps of at most dt_target (default min(dx, h/20)); a
    record falls on the first step at or past each due time, one
    ``snapshot_every`` after the last, and every sample is a record. A
    scenario whose certificate ``scenario.report`` is infeasible (Omega >= 1)
    still runs, since divergence studies are legitimate, but emits a
    warning; ``analysis.check_run`` then checks no bound.

    A run with the zero term is solved exactly in the modes of B_h
    (``GridModes``), with no time step: the plant and the observer error
    e = w - u from sample to sample, the innovation reset from the noise
    alone (y - <k, u> = xi), and each record the closed form at its time.
    ``error_l2`` is the norm of e's modal coordinates and ``error_sup`` the
    largest |e| on the grid, so the error is never the difference of two
    fields; w = u + e, and zeta is C w - eta for the predictor and the held
    eta for the hold observer. ``metadata["scheme"]`` is "exact-modal" and
    ``metadata["integrator"]`` {"modes": count, "steps": 0}.

    A run with a non-zero term steps: the plant through every interval,
    then the observer, whose reset reads the plant's row at each sample,
    each with ``IMEXStepper.step``; the error norms are ``snapshot_norms``
    of w - u a block of rows at a time. ``metadata["scheme"]`` is
    "imex-crank-nicolson" and ``metadata["integrator"]`` {"steps": count}.
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
    traj = Trajectory(
        times=plan.times,
        u=np.empty((size, grid.size)),
        w=np.empty((size, grid.size)),
        zeta=np.empty((size, design.m)),
        sample_flag=plan.flags,
        events=[],
        grid=grid,
        error_l2=np.empty(size),
        error_sup=np.empty(size),
        metadata={
            "variant": scenario.variant,
            "nodes": scenario.nodes,
            "dt_target": dt_target,
            "diameter": sch.diameter,
            "horizon": sch.horizon,
            "label": scenario.label,
        },
    )
    for j, t in enumerate(sample_times.tolist()):
        traj.events.append(SampleEvent(j, t, np.array([s.value(t, j) for s in dist.xi])))
    if scenario.nonlinearity.factors(grid.size)[0].shape[0]:
        scheme, integrator = "imex-crank-nicolson", _stepped(discrete, scenario.nonlinearity, dist,
                                                             plan, u, w, traj)
    else:
        scheme, integrator = "exact-modal", _closed_form(discrete, dist, plan, u, w, traj)
    traj.metadata.update(scheme=scheme, integrator=integrator)
    traj.validate()
    return traj


def _closed_form(discrete: DiscreteObserver, dist: Disturbances, plan: "_Plan", u: np.ndarray,
                 w: np.ndarray, traj: Trajectory) -> dict:
    """Fill ``traj`` with the exact solution in the grid's modes.

    The samples come first, in order: the modal plant and error at each,
    the innovation eta_j = k_hat e_j - xi_j it resets, and the flow over the
    gap to the next one, one ``GridModes.flows`` per distinct gap. The
    records then follow a ``grids._row_blocks`` block at a time, each row the
    flow from its interval's sample (one ``flows`` per distinct offset in
    the block), and go to the grid by one product with the modes per field.
    """
    modes = GridModes(discrete)
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
    # an empty interval takes no step, so it keeps the state
    gaps, gap_index = np.unique(np.where(plan.steps > 0, plan.gap, 0.0), return_inverse=True)
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

    predictor = discrete.variant == "predictor"
    for block in _row_blocks(plan.times.size):
        j, s = plan.row_interval[block], plan.row_offset[block]
        offsets, index = np.unique(s, return_inverse=True)
        decay, phi, eta_flow = modes.flows(offsets)
        decay = decay[index]
        if inputs:
            plant_drive, error_drive = driven(sample_times[j], s, decay)
        u_rows, w_rows = traj.u[block], traj.w[block]
        x = states[j, 0]
        x *= decay
        if inputs:
            x += plant_drive
        np.matmul(x, modes.rows, out=u_rows)
        del x
        x = states[j, 1]
        x *= decay
        del decay
        eta = eta_at[j]
        for c in range(eta.shape[1]):
            injected = phi[index, c]
            injected *= eta[:, c, None]
            x += injected
            del injected
        if inputs:
            x += error_drive
        e_rows = x @ modes.rows
        np.add(u_rows, e_rows, out=w_rows)
        traj.error_l2[block] = np.sqrt(np.einsum("ij,ij->i", x, x))
        traj.error_sup[block] = np.abs(e_rows, out=e_rows).max(axis=1)
        del e_rows, x
        if predictor:
            eta = (eta_flow[index] @ eta[:, :, None])[..., 0]
            traj.zeta[block] = w_rows @ discrete.c_rows.T - eta
        else:
            traj.zeta[block] = eta
    return {"modes": int(modes.lam.size), "steps": 0}


def _stepped(discrete: DiscreteObserver, nl: NonlinearTerm, dist: Disturbances, plan: "_Plan",
             u: np.ndarray, w: np.ndarray, traj: Trajectory) -> dict:
    """Fill ``traj`` by stepping the plant through the whole plan, then the
    observer, whose reset at each sample reads the plant's row there."""
    plant = discrete.plant(nl, dist.v)
    obs = discrete.observer(nl, dist.v_tilde)

    def reset(j: int, x: np.ndarray) -> np.ndarray:
        return discrete.reset(discrete.k_rows @ traj.u[plan.rows[j]] + traj.events[j].xi, x)

    _step_through(plant, plan, traj, u, traj.u)
    _step_through(obs, plan, traj, w, traj.w, traj.zeta, reset)
    for block in _row_blocks(plan.times.size):
        traj.error_l2[block], traj.error_sup[block] = snapshot_norms(
            traj.w[block] - traj.u[block], discrete.op.weights)
    return {"steps": plant.steps + obs.steps}


def _step_through(stepper: IMEXStepper, plan: "_Plan", traj: Trajectory, x: np.ndarray,
                  out_w: np.ndarray, out_zeta: np.ndarray | None = None, reset=None) -> None:
    """One stepper through the plan from the state x at the first sample:
    writes its rows of ``out_w`` (and ``out_zeta``), and at every sample
    sets zeta = ``reset(j, x)`` from the state x there."""
    bounds = np.searchsorted(plan.record_intervals, np.arange(plan.rows.size + 1)).tolist()
    records = list(zip(plan.record_steps.tolist(), plan.record_rows.tolist()))
    zeta = None
    for j, event in enumerate(traj.events):
        if plan.fresh[j]:  # a sample within 1e-14 of the last record only updates its zeta
            out_w[plan.rows[j]] = x
        if reset is not None:
            zeta = out_zeta[plan.rows[j]] = reset(j, x)
        t_j, dt = event.t, plan.dt[j]
        due = iter(records[bounds[j] : bounds[j + 1]])
        step, row = next(due, (None, None))
        for s in range(plan.steps[j]):
            x, zeta = stepper.step(x, t_j + s * dt, dt, zeta)
            if s + 1 == step:
                out_w[row] = x
                if out_zeta is not None:
                    out_zeta[row] = zeta
                step, row = next(due, (None, None))


@dataclass(frozen=True)
class _Plan:
    """A run's records, in row order: ``times`` and sample ``flags``. Per
    sample j: its record row ``rows[j]`` (``fresh[j]`` False when it shares
    the record before it), the ``steps[j]`` steps of size ``dt[j]`` that cut
    the ``gap[j]`` to the next sample or the horizon (no step for a gap of at
    most 1e-14), and the rows' interior records, each the state after step
    ``record_steps[i]`` of interval ``record_intervals[i]`` in row
    ``record_rows[i]``; the horizon's row counts as the last interval's last
    step. ``row_interval`` and ``row_offset`` give each row as a time since a
    sample: 0 for a sample's row (the later sample's, where two share one),
    the step count times dt for a record, and the gap for the horizon."""

    times: np.ndarray
    flags: np.ndarray
    rows: np.ndarray
    fresh: np.ndarray
    steps: np.ndarray
    dt: np.ndarray
    gap: np.ndarray
    record_rows: np.ndarray
    record_intervals: np.ndarray
    record_steps: np.ndarray
    row_interval: np.ndarray
    row_offset: np.ndarray


def _record_plan(sample_times: np.ndarray, horizon: float, dt_target: float,
                 snap_every: float) -> _Plan:
    """The record plan of a run.

    Each interval takes the fewest steps of at most dt_target (up to
    rounding) that cut it exactly, and none when it is at most 1e-14 long.
    Every sample is a record, and so is the horizon after the last one.
    Inside an interval the due time starts one ``snap_every`` after the later
    of the sample and the last due time (the first one at 0), and a record
    falls at the first step at or past it (within 1e-12), one step after the
    last record at least, which moves the due time on by one ``snap_every``.
    A record within 1e-14 of the one before is not added: a sample there
    flags that record instead.
    """
    t0 = np.asarray(sample_times, dtype=float)
    count = t0.size
    gap = np.append(t0[1:], horizon) - t0
    live = gap > 1e-14
    steps = np.where(live, np.maximum(1.0, np.ceil(gap / dt_target - 1e-9)), 0.0).astype(np.int64)
    dt = np.where(live, gap / np.maximum(steps, 1), 0.0)
    # the due time is one running sum across the intervals, so the records
    # are found in order; the rest is numpy over the whole run
    record_steps, ends = [], []
    record, ceil = record_steps.append, math.ceil
    due = 0.0
    for t_j, n, h in zip(t0.tolist(), steps.tolist(), dt.tolist()):
        due = max(due, t_j) + snap_every
        done = 0
        while done < n:
            late = due - 1e-12
            s = max(done + 1, ceil((late - t_j) / h))
            while s > done + 1 and t_j + (s - 1) * h >= late:
                s -= 1
            while s < n and t_j + s * h < late:
                s += 1
            if s >= n:
                break
            record(s)
            done = s
            due += snap_every
        ends.append(len(record_steps))
    taken = np.diff(ends, prepend=0)
    rec_interval = np.repeat(np.arange(count), taken)
    rec_steps = np.array(record_steps, dtype=np.int64)
    # the candidate rows in time order: each sample, then its interval's records
    sample_pos = np.arange(count) + np.cumsum(taken) - taken
    rec_pos = np.arange(rec_steps.size) + rec_interval + 1
    horizon_row = bool(count and live[-1])
    cand = np.empty(count + rec_steps.size + horizon_row)
    cand[sample_pos] = t0
    cand[rec_pos] = t0[rec_interval] + rec_steps * dt[rec_interval]
    if horizon_row:  # the horizon, as the last interval's last step
        cand[-1] = horizon
        rec_interval = np.append(rec_interval, count - 1)
        rec_steps = np.append(rec_steps, steps[-1])
        rec_pos = np.append(rec_pos, cand.size - 1)
    keep = np.ones(cand.size, dtype=bool)
    if not np.all(cand[1:] > cand[:-1] + 1e-14):
        last = cand[0]
        for i in range(1, cand.size):
            if cand[i] > last + 1e-14:
                last = cand[i]
            else:
                keep[i] = False
    row_of = np.cumsum(keep) - 1  # a candidate not kept shares the last kept row
    times = cand[keep]
    rows = row_of[sample_pos]
    flags = np.zeros(times.size, dtype=bool)
    flags[rows] = True
    kept = keep[rec_pos]
    rec_interval, rec_steps, rec_rows = rec_interval[kept], rec_steps[kept], row_of[rec_pos][kept]

    row_interval = np.empty(times.size, dtype=np.int64)
    row_offset = np.empty(times.size)
    row_interval[rec_rows] = rec_interval
    row_offset[rec_rows] = rec_steps * dt[rec_interval]
    if horizon_row and kept[-1]:
        row_offset[-1] = gap[-1]
    later = np.append(rows[1:] != rows[:-1], True)  # the later of two samples that share a row
    row_interval[rows[later]] = np.arange(count)[later]
    row_offset[rows[later]] = 0.0
    return _Plan(times, flags, rows, keep[sample_pos], steps, dt, gap, rec_rows, rec_interval,
                 rec_steps, row_interval, row_offset)


def _initial_field(profile_like, op: DiscreteSLOperator) -> np.ndarray:
    vals = pf.as_profile(profile_like, op.grid).values(op.grid)
    vals = np.array(vals, dtype=float)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    if op.problem.dirichlet_left and abs(vals[0]) > 1e-8 * scale:
        raise InvalidSpec("initial field violates the Dirichlet condition at x = 0")
    if op.problem.dirichlet_right and abs(vals[-1]) > 1e-8 * scale:
        raise InvalidSpec("initial field violates the Dirichlet condition at x = 1")
    return op.pin(vals)

"""Method-of-lines co-simulation of plant and sampled-data observers.

Time integration is IMEX Crank-Nicolson: diffusion-reaction implicit, the
nonlinear, non-local, input and injection terms explicit through a
trapezoidal corrector. One stepper class integrates the plant and both
observers. Every explicit term is low rank in the state, so each step takes
one tridiagonal solve with the factorization of the current dt, and the
corrector iterates on the few inner products those terms read, not on the
full state. Every sampling time lands exactly on a step boundary, and all
discrete inner products share the trapezoid weights of the grid, so the
matched run (same initial state, same inputs, no noise) keeps the observer
error at roundoff level.

The inter-sample predictor integrates the coupled (w, zeta) system; the
rate of zeta uses the discrete operator applied to the approximant, which
makes the discrete integration-by-parts identity exact. The zero-order-hold
variant freezes the innovation between samples instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from . import profiles as pf
from .errors import KappaOutOfRange, QInfeasible, ScheduleHorizonMismatch, StepRejected
from .grids import snapshot_norms, trapezoid_weights
from .nonlinear import NonlinearTerm, ZeroTerm
from .observer_design import ObserverDesign, injection_kernels, small_gain_predictor, small_gain_zoh
from .schedule import SamplingSchedule
from .signals import Disturbances, SpaceTimeSignal
from .sturm_liouville import DiscreteSLOperator, SLProblem

__all__ = [
    "Scenario",
    "Trajectory",
    "SampleEvent",
    "simulate",
    "measure",
    "reset_predictor",
    "step_plant",
    "step_observer_predictor",
    "step_observer_zoh",
    "bc_residual",
]

_CORRECTOR_RTOL = 1e-13
_CORRECTOR_MAXITER = 40


def measure(u: np.ndarray, kernel_rows: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """y_i = xi_i + <k_i, u> with trapezoid quadrature rows."""
    return kernel_rows @ u + xi


def reset_predictor(y: np.ndarray, w: np.ndarray, gap_rows: np.ndarray) -> np.ndarray:
    """zeta_i(t_j) = y_i(t_j) - <k_i - c_i, w(t_j)>."""
    return y - gap_rows @ w


def bc_residual(u: np.ndarray, problem: SLProblem) -> float:
    """Scheme-consistent boundary residual, relative to the state scale.

    Dirichlet ends must be pinned exactly; Robin ends are built into the
    ghost-node stencil, so their scheme residual vanishes by construction.
    """
    scale = max(float(np.max(np.abs(u))), 1e-300)
    res = 0.0
    if problem.dirichlet_left:
        res = max(res, abs(u[0]) / scale)
    if problem.dirichlet_right:
        res = max(res, abs(u[-1]) / scale)
    return res


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
    w_new = a + P coef: ``a`` takes one tridiagonal solve, P = dt/2 M1^-1
    [cols, l] is kept for the current dt, and the trapezoidal corrector
    iterates on the small vector s = [R w; C w; S w] and on zeta.
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
        self.op, self.v, self.phi = op, v, nonlinearity.phi
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

    def _factor(self, dt: float) -> None:
        sub, diag, sup = self.op.free_tridiagonals()
        h = 0.5 * dt
        # M1 = I + dt/2 B_h (implicit), M0 = I - dt/2 B_h (explicit)
        *self._lu, info = dgttrf(h * sub, 1.0 + h * diag, h * sup)
        if info:
            raise np.linalg.LinAlgError("Crank-Nicolson matrix is singular")
        self._m0 = (-h * sub, 1.0 - h * diag, -h * sup)
        self._p = self._solve(h * self.cols.T[self.op.free])  # (n, r + m)
        self._rp = self.rows @ self._p
        self.dt = dt

    def _solve(self, rhs_free: np.ndarray) -> np.ndarray:
        """M1^-1 on the free nodes, zero at pinned ones."""
        out = np.zeros((self.op.grid.size, *rhs_free.shape[1:]))
        if rhs_free.size:  # dgttrs corrupts the heap when given no right-hand side
            out[self.op.free] = dgttrs(*self._lu, rhs_free)[0]
        return out

    def _coef(self, s: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        e = s[self.r : self.r + self.m] - zeta if self.coupled else zeta
        return np.concatenate([self.phi(s[: self.r]), e])

    def step(self, w: np.ndarray, t: float, dt: float, zeta: np.ndarray | None = None):
        """Advance (w, zeta) from t to t + dt and return the new pair.

        The corrector is the fixed-point iteration of the trapezoidal rule,
        started from w: iterate until the state change P dcoef falls below
        _CORRECTOR_RTOL of the state, or reject the step after three
        non-decreasing changes.
        """
        if dt != self.dt:
            self._factor(dt)
        zeta = np.zeros(self.m) if zeta is None else zeta
        r, free, grid = self.r, self.op.free, self.op.grid
        v0, v1 = self.v.field(t, grid), self.v.field(t + dt, grid)
        s = self.rows @ w
        coef = self._coef(s, zeta)

        sub0, diag0, sup0 = self._m0
        wf = w[free]
        rhs = diag0 * wf
        rhs[:-1] += sup0 * wf[1:]
        rhs[1:] += sub0 * wf[:-1]
        rhs += 0.5 * dt * (coef @ self.cols + v0 + v1)[free]
        a = self._solve(rhs)
        s_a = self.rows @ a
        if self.coupled:
            stiff = slice(r + self.m, None)
            zeta_known = zeta + 0.5 * dt * (
                s[stiff] + self.c_nl @ coef[:r] + self.c_rows @ (v0 + v1)
            )

        zeta_new, prev = zeta, None
        prev_diff = math.inf
        grew = 0
        for _ in range(_CORRECTOR_MAXITER):
            w_new = a + self._p @ coef
            if self.coupled:
                zeta_new = zeta_known + 0.5 * dt * (s[stiff] + self.c_nl @ coef[:r])
            if prev is not None:
                diff = float(np.max(np.abs(self._p @ (coef - prev[0]))))
                if self.coupled:
                    diff = max(diff, float(np.max(np.abs(zeta_new - prev[1]))))
                scale = max(float(np.max(np.abs(w_new))), 1.0)
                if diff <= _CORRECTOR_RTOL * scale:
                    return w_new, zeta_new
                if diff >= prev_diff:
                    grew += 1
                    if grew >= 3:
                        raise StepRejected(
                            f"corrector diverging at t={t:.6g} (dt={dt:.3g}); "
                            "the explicit part is too stiff for this step"
                        )
                prev_diff = diff
            prev = (coef, zeta_new)
            s = s_a + self._rp @ coef
            coef = self._coef(s, zeta_new)
        raise StepRejected(f"corrector failed to contract within {_CORRECTOR_MAXITER} iterations")


# -- spec-level single-step entry points ---------------------------------------

def step_plant(u, t, dt, problem: SLProblem, nonlinearity: NonlinearTerm | None, v) -> np.ndarray:
    """Single IMEX plant step on the grid implied by len(u)."""
    op = DiscreteSLOperator(problem, len(u))
    stepper = IMEXStepper(op, nonlinearity or ZeroTerm(), _as_field_signal(v))
    return stepper.step(np.asarray(u, dtype=float), t, dt)[0]


def step_observer_predictor(w, zeta, t, dt, design: ObserverDesign, nonlinearity, v_tilde):
    """Single coupled (w, zeta) step for the predictor observer."""
    pieces = _observer_pieces(design, len(w))
    stepper = IMEXStepper(
        pieces["op"], nonlinearity or ZeroTerm(), _as_field_signal(v_tilde),
        pieces["l_cols"], pieces["c_rows"], pieces["stiff_rows"],
    )
    return stepper.step(np.asarray(w, dtype=float), t, dt, np.asarray(zeta, dtype=float))


def step_observer_zoh(w, held, t, dt, design: ObserverDesign, nonlinearity, v_tilde):
    """Single observer step with held innovation."""
    pieces = _observer_pieces(design, len(w))
    stepper = IMEXStepper(
        pieces["op"], nonlinearity or ZeroTerm(), _as_field_signal(v_tilde), pieces["l_cols"]
    )
    return stepper.step(np.asarray(w, dtype=float), t, dt, np.asarray(held, dtype=float))[0]


def _as_field_signal(v) -> SpaceTimeSignal:
    if v is None:
        return SpaceTimeSignal()
    if isinstance(v, SpaceTimeSignal):
        return v
    from .signals import field_signal_from_spec

    return field_signal_from_spec(v)


def _observer_pieces(design: ObserverDesign, nodes: int) -> dict:
    op = DiscreteSLOperator(design.problem, nodes)
    basis = design.basis.resample(nodes)
    w = op.weights
    l_samples, _ = injection_kernels(design.L, basis)
    c_samples = np.vstack([ch.approximant.values(op.grid) for ch in design.channels])
    k_samples = np.vstack([ch.kernel.values(op.grid) for ch in design.channels])
    return {
        "op": op,
        "l_cols": l_samples.T,
        "c_rows": c_samples * w,
        "k_rows": k_samples * w,
        "gap_rows": (k_samples - c_samples) * w,
        "stiff_rows": (-np.vstack([op.apply(c) for c in c_samples])) * w,
        "c_samples": c_samples,
        "k_samples": k_samples,
    }


# -- scenario and trajectory ----------------------------------------------------

@dataclass(frozen=True)
class SampleEvent:
    index: int
    t: float
    y: np.ndarray
    xi: np.ndarray | None = None
    zeta_before: np.ndarray | None = None
    zeta_after: np.ndarray | None = None
    held: np.ndarray | None = None


@dataclass(frozen=True)
class Scenario:
    """Everything one co-simulation run needs, bound to one grid size."""

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
    horizon: float | None = None  # None -> schedule horizon
    label: str = ""

    def __post_init__(self):
        if self.variant not in ("predictor", "zoh"):
            raise ValueError(f"unknown observer variant {self.variant!r}")
        if len(self.disturbances.xi) not in (0, self.design.m):
            raise ValueError("need one noise channel per output channel")


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
    """Run the co-simulation; deterministic given the scenario seeds.

    Sub-steps subdivide each sampling interval exactly, so every sampling
    time is an integrator step boundary and no interpolation happens at
    predictor resets. Designs whose small-gain value exceeds one still run
    (divergence studies are legitimate) but emit a warning.
    """
    design = scenario.design
    sch = scenario.schedule
    horizon = scenario.horizon if scenario.horizon is not None else sch.horizon
    if horizon > sch.horizon + 1e-12:
        raise ScheduleHorizonMismatch(
            f"schedule covers {sch.horizon:.6g}, simulation wants {horizon:.6g}"
        )

    pieces = _observer_pieces(design, scenario.nodes)
    op: DiscreteSLOperator = pieces["op"]
    grid, weights = op.grid, op.weights
    nl = scenario.nonlinearity
    dist = scenario.disturbances
    xi = dist.xi if dist.xi else tuple(None for _ in range(design.m))

    gain_fn = small_gain_predictor if scenario.variant == "predictor" else small_gain_zoh
    try:
        report = gain_fn(design, sch.diameter, 0.0)
    except (QInfeasible, KappaOutOfRange) as exc:
        warnings.warn(
            f"no small-gain certificate ({exc}); convergence is not certified", stacklevel=2
        )
    else:
        if not report.feasible:
            warnings.warn(
                f"small-gain value {report.omega:.4g} >= 1 at diameter "
                f"{sch.diameter:.4g}; convergence is not certified",
                stacklevel=2,
            )

    u = _initial_field(scenario.u0, op)
    w = _initial_field(scenario.w0, op)

    plant = IMEXStepper(op, nl, dist.v)
    if scenario.variant == "predictor":
        obs = IMEXStepper(
            op, nl, dist.v_tilde, pieces["l_cols"], pieces["c_rows"], pieces["stiff_rows"]
        )
    else:
        obs = IMEXStepper(op, nl, dist.v_tilde, pieces["l_cols"])
    zeta = np.zeros(design.m)  # predictor state, or held innovation

    dx = grid[1] - grid[0]
    dt_target = scenario.dt if scenario.dt is not None else min(dx, sch.diameter / 20.0)
    snap_every = (
        scenario.snapshot_every if scenario.snapshot_every is not None else horizon / 512.0
    )

    times, u_snap, w_snap, z_snap, flags = [], [], [], [], []
    events: list[SampleEvent] = []

    def record(t: float, is_sample: bool):
        if times and t <= times[-1] + 1e-14:
            if is_sample:
                flags[-1] = True
                z_snap[-1] = zeta.copy()
            return
        times.append(t)
        u_snap.append(u.copy())
        w_snap.append(w.copy())
        z_snap.append(zeta.copy())
        flags.append(is_sample)

    sample_times = sch.times[sch.times <= horizon + 1e-12]
    next_snap = 0.0
    for j, t_j in enumerate(sample_times):
        xi_vals = np.array(
            [0.0 if s is None else s.value(t_j, j) for s in xi]
        )
        y = measure(u, pieces["k_rows"], xi_vals)
        if scenario.variant == "predictor":
            before = zeta.copy()
            zeta = reset_predictor(y, w, pieces["gap_rows"])
            events.append(
                SampleEvent(
                    index=j, t=float(t_j), y=y, xi=xi_vals,
                    zeta_before=before, zeta_after=zeta.copy(),
                )
            )
        else:
            zeta = pieces["k_rows"] @ w - y
            events.append(SampleEvent(index=j, t=float(t_j), y=y, xi=xi_vals, held=zeta.copy()))
        record(float(t_j), True)
        next_snap = max(next_snap, float(t_j)) + snap_every

        t_next = sample_times[j + 1] if j + 1 < len(sample_times) else horizon
        gap = float(t_next - t_j)
        if gap <= 1e-14:
            continue
        n_sub = max(1, math.ceil(gap / dt_target - 1e-9))
        dt = gap / n_sub
        for step in range(n_sub):
            t = float(t_j) + step * dt
            u, _ = plant.step(u, t, dt)
            w, zeta = obs.step(w, t, dt, zeta)
            t_new = float(t_j) + (step + 1) * dt
            is_last = step == n_sub - 1
            if is_last and (j + 1 >= len(sample_times)):
                record(horizon, False)
            elif not is_last and t_new >= next_snap - 1e-12:
                record(t_new, False)
                next_snap += snap_every

    times_arr = np.asarray(times)
    u_arr = np.asarray(u_snap)
    w_arr = np.asarray(w_snap)
    err_l2, err_sup = snapshot_norms(w_arr - u_arr, weights)
    traj = Trajectory(
        times=times_arr,
        u=u_arr,
        w=w_arr,
        zeta=np.asarray(z_snap),
        sample_flag=np.asarray(flags, dtype=bool),
        events=events,
        grid=grid,
        error_l2=err_l2,
        error_sup=err_sup,
        metadata={
            "variant": scenario.variant,
            "nodes": scenario.nodes,
            "dt_target": dt_target,
            "scheme": "imex-crank-nicolson",
            "diameter": sch.diameter,
            "horizon": horizon,
            "label": scenario.label,
        },
    )
    traj.validate()
    return traj


def _initial_field(profile_like, op: DiscreteSLOperator) -> np.ndarray:
    vals = pf.as_profile(profile_like, op.grid).values(op.grid)
    vals = np.array(vals, dtype=float)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    if op.problem.dirichlet_left and abs(vals[0]) > 1e-8 * scale:
        raise ValueError("initial field violates the Dirichlet condition at x = 0")
    if op.problem.dirichlet_right and abs(vals[-1]) > 1e-8 * scale:
        raise ValueError("initial field violates the Dirichlet condition at x = 1")
    return op.pin(vals)

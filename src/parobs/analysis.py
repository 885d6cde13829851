"""Trajectory post-processing: decay-rate fits, IOS bound checking, the
Lyapunov-functional oracle, and ``check_run``, which every run (CLI or
worked example) goes through after simulating and which returns the run's
one result record, ``RunResult``. The worked-example runners simulate the
presets of ``parobs.config`` like any other config and return that record;
example 3.2's adds its sup-norm ``boundary_reconstruction``.

The bound checkers evaluate the right-hand sides with exact running-supremum
bookkeeping of the exponentially weighted signal histories, so a trajectory
either satisfies the certified estimate at every snapshot (within a fixed
2% discretization slack) or the violation count says where it fails.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .config import (
    build_design,
    build_scenario,
    example31_config,
    example31_design,
    example32_config,
    example32_design,
    example32_sampling,
)
from .errors import DecayedToFloor, InfeasibleAtZero, InfeasibleReport
from .grids import _row_blocks, cumulative_trapezoid, end_derivatives, snapshot_norms
from .nonlinear import NonlinearTerm, ZeroTerm
from .observer_design import ObserverDesign, SmallGainReport, design_to_json, max_diameter
from .signals import Disturbances
from .simulator import DiscreteObserver, GridModes, Scenario, Trajectory, simulate

__all__ = [
    "DecayFit",
    "fit_decay_rate",
    "default_fit_window",
    "IOSBoundCheck",
    "check_ios_bound",
    "LyapunovTrace",
    "lyapunov_oracle",
    "error_map",
    "divergence_verdict",
    "RunResult",
    "check_run",
    "Reconstruction",
    "boundary_reconstruction",
    "example31_design",
    "run_example_31",
    "example32_design",
    "run_example_32",
    "DIVERGED_FACTOR",
    "CONVERGED_FACTOR",
]

DIVERGED_FACTOR = 10.0
CONVERGED_FACTOR = 0.1
_SLACK = 0.02  # relative slack absorbing discretization error in bound checks
_FLOOR = 1e-13


@dataclass(frozen=True)
class DecayFit:
    rate: float  # kappa-hat: positive when the series decays
    ci_halfwidth: float
    window: tuple[float, float]
    n_points: int


def fit_decay_rate(
    times: np.ndarray, norms: np.ndarray, window: tuple[float, float] | None = None
) -> DecayFit:
    """Least-squares slope of log ||e|| over the window, with a 95% CI.

    Raises DecayedToFloor when the series reaches 1e-13 of its initial value
    inside the window (the log-linear model stops being meaningful there).
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if window is None:
        window = (float(times[0]), float(times[-1]))
    mask = (times >= window[0] - 1e-12) & (times <= window[1] + 1e-12)
    t = times[mask]
    y = norms[mask]
    if t.size < 3:
        raise ValueError("need at least 3 points inside the fit window")
    if np.any(y <= 0.0) or np.any(y <= _FLOOR * max(norms[0], 1e-300)):
        raise DecayedToFloor("norm series reached the numerical floor inside the window")
    logs = np.log(y)
    slope, intercept = np.polyfit(t, logs, 1)
    resid = logs - (slope * t + intercept)
    dof = max(t.size - 2, 1)
    s2 = float(np.dot(resid, resid)) / dof
    denom = float(np.sum((t - np.mean(t)) ** 2))
    stderr = math.sqrt(s2 / denom) if denom > 0 else math.inf
    return DecayFit(
        rate=float(-slope),
        ci_halfwidth=1.96 * stderr,
        window=(float(t[0]), float(t[-1])),
        n_points=int(t.size),
    )


def default_fit_window(traj: Trajectory, h: float) -> tuple[float, float]:
    """Start at 3h to skip the transient; stop before the numerical floor."""
    t0 = 3.0 * h
    norms = traj.error_l2
    floor = 1e-10 * max(norms[0], 1e-300)
    above = np.nonzero(norms > floor)[0]
    t1 = float(traj.times[above[-1]]) if above.size else float(traj.times[-1])
    return (t0, max(t1, t0 + 2.0 * h))


@dataclass(frozen=True)
class IOSBoundCheck:
    """Per-snapshot comparison of ||e[t]|| with the certified estimate."""

    variant: str
    kappa: float
    rhs: np.ndarray
    margins: np.ndarray  # rhs - ||e||
    violations: int
    worst_relative_margin: float  # min (rhs - ||e||)/rhs
    noise_history: np.ndarray  # running sup of |xi_i| exp(-kappa (t-s)), per channel
    mismatch_history: np.ndarray
    slack: float


def check_ios_bound(
    traj: Trajectory,
    report: SmallGainReport,
    disturbances: Disturbances | None = None,
) -> IOSBoundCheck:
    """Evaluate the certified error estimate along the trajectory.

    The noise history of channel i is the running supremum of
    exp(-kappa (t - s)) |xi_i(s)| over the snapshots s <= t, where |xi_i(s)|
    is the channel's signal at the snapshot time and, on sample rows, the
    noise recorded by the sample event; the mismatch history is the same
    supremum of ||v(s) - v~(s)||, whose field is built a block of snapshot
    rows at a time (``grids._row_blocks``).
    Violations are counted beyond the fixed 2% relative slack ``_SLACK``
    plus a tiny absolute floor.
    """
    if not report.feasible:
        raise InfeasibleReport(f"Omega = {report.omega:.6g} is not < 1")
    dist = disturbances or Disturbances()
    kappa = report.kappa
    coeff = report.coefficients
    times = traj.times
    e0 = float(traj.error_l2[0])
    m = traj.zeta.shape[1] if traj.zeta.ndim == 2 else 0

    # columns: |xi_1| .. |xi_m| and ||v - v~||, one row per snapshot
    signals = np.zeros((times.size, m + 1))
    for i, s in enumerate(dist.xi):
        signals[:, i] = np.abs(s.value(times))
    if traj.events:
        rows = np.searchsorted(times, [e.t for e in traj.events])
        np.maximum.at(signals[:, :m], rows, np.abs([e.xi for e in traj.events]))  # in place
    if not (dist.v.is_zero and dist.v_tilde.is_zero):
        for block in _row_blocks(times.size):
            field = dist.mismatch_field(times[block, None], traj.grid)
            signals[block, m] = snapshot_norms(field, traj.weights)[0]
    history = _running_sup(signals, kappa * times[:, None])
    noise_hist, mism_hist = history[:, :m], history[:, m]

    rhs = coeff.initial * np.exp(-kappa * times) * e0
    if m:
        rhs = rhs + noise_hist @ coeff.noise
    rhs = rhs + coeff.mismatch * mism_hist

    atol = 1e-12 * max(e0, 1.0)
    margins = rhs - traj.error_l2
    rel = np.where(rhs > atol, margins / np.maximum(rhs, atol), 0.0)
    violations = int(np.sum(traj.error_l2 > rhs * (1.0 + _SLACK) + atol))
    return IOSBoundCheck(
        variant=report.variant,
        kappa=kappa,
        rhs=rhs,
        margins=margins,
        violations=violations,
        worst_relative_margin=float(np.min(rel)),
        noise_history=noise_hist,
        mismatch_history=mism_hist,
        slack=_SLACK,
    )


def _running_sup(x: np.ndarray, kt: np.ndarray) -> np.ndarray:
    """sup over rows s <= t of exp(-(kt[t] - kt[s])) x[s], down the rows of
    x >= 0, in logarithms: no weight exp(kappa t) is formed, so nothing
    overflows, and zero rows stay exactly zero."""
    with np.errstate(divide="ignore"):
        logs = np.log(x) + kt
    return np.exp(np.maximum.accumulate(logs, axis=0) - kt)


@dataclass(frozen=True)
class LyapunovTrace:
    """Runtime verification data for the decay functional
    V = xi' P xi + (Q/2) sum_{n>N} r_n^2, whose tail is the energy of the
    error beyond its head, ||e - sum_{n<=N} xi_n phi_n||^2."""

    times: np.ndarray
    V: np.ndarray
    modal: np.ndarray  # (snapshots, N): xi, the error's coordinates on the design's head modes
    vbar_norms: np.ndarray
    rhs: np.ndarray  # exp(-2 mu t) V(0) + g~ int exp(-2 mu (t-s)) ||vbar||^2
    violations: int
    worst_relative_margin: float
    e_le_V_ok: bool
    v0_bound_ok: bool
    slack: float


def lyapunov_oracle(
    traj: Trajectory,
    design: ObserverDesign,
    J_tail: int | None = None,
    nonlinearity: NonlinearTerm | None = None,
    disturbances: Disturbances | None = None,
) -> LyapunovTrace:
    """Check the decay functional's integral inequality along a trajectory.

    The effective input is vbar = f(w) - f(u) + (v~ - v) + sum_i l_i d_i,
    read off the recorded trajectory for all snapshots at once: the
    predictor injects d_i = <c_i, u> - zeta_i, the hold observer d_i =
    zeta_i - <c_i, e>, where ``traj.zeta`` holds the innovation
    <k_i, e(t_j)> - xi_i frozen at the last sample. The rows c_i and the
    columns l_i are those of the ``simulator.DiscreteObserver`` of the
    variant in ``traj.metadata``, which raises ValueError for a missing or
    unknown variant. Every inequality is checked within the fixed 2%
    relative slack ``_SLACK``. ``J_tail`` is deprecated and ignored: the
    tail is exact with no tail modes.

    vbar is low rank: coefficients times the term's columns, the injection
    columns and the profiles of v's and v~'s terms. Their small Gram matrix
    in the trapezoid weights is R' R, R the triangular factor of the QR of
    the weighted profiles, so ||vbar|| is the norm of R times each row's
    coefficients, and no vbar field is built. R rather than the Gram matrix
    itself keeps a vbar that cancels between its terms to the accuracy of
    its field's norm (the Gram form squares the cancellation). Everything
    is read from the trajectory's modal records (``Trajectory.modal_u``,
    ``modal_e`` and ``mode_rows``), one whole-array product each, with no
    grid field: xi is e's modal record against G, the grid modes'
    projection on the design's N head modes, so the error is not lost
    where it falls below the plant's roundoff, and the term's and the
    injection's coefficients read the plant's and the error's records
    against the modes' term rows and c rows. The tail is the residual of
    e's head in the trapezoid weights, ||e||^2 - 2 |xi|^2 + xi G'G xi',
    exact by Parseval with ||e|| = ``traj.error_l2`` and clipped at 0 only
    for roundoff. The rhs recurrence is ``_decay_bound``.
    """
    _ignored_tail("J_tail", J_tail)
    nl = nonlinearity or ZeroTerm()
    dist = disturbances or Disturbances()
    discrete = DiscreteObserver(design, traj.metadata.get("variant"), traj.grid.size)
    nl_rows, nl_cols = nl.factors(traj.grid.size)
    lift, signs = [nl_cols, discrete.l_cols.T], []
    for sign, signal in ((-1.0, dist.v), (1.0, dist.v_tilde)):
        for ts, prof in signal.terms:
            lift.append(prof.values(traj.grid)[None])
            signs.append(sign * ts.value(traj.times))
    lift = np.vstack(lift)
    size, r_count, m = traj.times.size, nl_rows.shape[0], discrete.l_cols.shape[1]
    x_u, x_e, rows = traj.modal_u, traj.modal_e, traj.mode_rows
    coef = np.empty((size, lift.shape[0]))  # vbar = coef @ lift, one row per snapshot
    if r_count:
        r_hat = rows @ nl_rows.T
        coef[:, :r_count] = nl.phi((x_u + x_e) @ r_hat) - nl.phi(x_u @ r_hat)
    c_hat = rows @ discrete.c_rows.T
    coef[:, r_count : r_count + m] = (x_u @ c_hat - traj.zeta if discrete.variant == "predictor"
                                      else traj.zeta - x_e @ c_hat)
    coef[:, r_count + m :] = np.array(signs).reshape(-1, size).T
    # W^{1/2} lift' = Q R, so ||vbar|| = |R coef| row by row
    factor = np.linalg.qr((lift * np.sqrt(traj.weights)).T, mode="r")
    vbar_norms = np.linalg.norm(coef @ factor.T, axis=1)

    g_hat = rows @ _oracle_projection(design, traj.grid.size)
    xi = x_e @ g_hat  # the oracle's head coordinates
    e_sq = traj.error_l2**2
    tail = e_sq - 2.0 * np.sum(xi**2, axis=1) + np.einsum("si,ij,sj->s", xi, g_hat.T @ g_hat, xi)
    V = np.einsum("si,ij,sj->s", xi, design.P, xi) + 0.5 * design.Q * np.maximum(tail, 0.0)
    rhs = _decay_bound(traj.times, vbar_norms, float(V[0]), design.mu, design.g_tilde)

    atol = 1e-12 * max(V[0], 1.0)
    violations = int(np.sum(V > rhs * (1.0 + _SLACK) + atol))
    rel = np.where(rhs > atol, (rhs - V) / np.maximum(rhs, atol), 0.0)
    e_le_V_ok = bool(np.all(e_sq <= V * (1.0 + _SLACK) + atol))
    v0_bound_ok = bool(V[0] <= max(design.P_norm, design.Q / 2.0) * e_sq[0] * (1.0 + _SLACK) + atol)
    return LyapunovTrace(
        times=traj.times,
        V=V,
        modal=xi,
        vbar_norms=vbar_norms,
        rhs=rhs,
        violations=violations,
        worst_relative_margin=float(np.min(rel)),
        e_le_V_ok=e_le_V_ok,
        v0_bound_ok=v0_bound_ok,
        slack=_SLACK,
    )


def _oracle_projection(design: ObserverDesign, nodes: int) -> np.ndarray:
    """(n, N): the trapezoid projection on the design's N head modes on
    ``nodes`` points."""
    basis = design.basis.resample(nodes, design.N)
    return (basis.functions[:design.N] * basis.weights).T


def _ignored_tail(name: str, value) -> None:
    """Warn that the deprecated tail length ``name`` was given: the tail is
    exact by Parseval, so the value is ignored."""
    if value is not None:
        warnings.warn(f"{name} is deprecated and ignored: the decay functional's tail is exact",
                      DeprecationWarning, stacklevel=3)


def _decay_bound(times: np.ndarray, norms: np.ndarray, V0: float, mu: float, g: float):
    """rhs(t) = e^{-2 mu t} V0 + g int_0^t e^{-2 mu (t - s)} ||vbar(s)||^2 ds
    at each snapshot, the integral by the trapezoid rule on the snapshot
    times. The exponentials (``math.exp``) and each row's increment are
    taken over all rows at once; only the running integral's multiply-add
    goes row by row."""
    dt = np.diff(times)
    decay = np.fromiter(map(math.exp, (-2.0 * mu * dt).tolist()), float, dt.size)
    fall = np.fromiter(map(math.exp, (-2.0 * mu * times[1:]).tolist()), float, dt.size)
    sq = np.fromiter(map(pow, norms.tolist(), repeat(2.0)), float, norms.size)  # each norm ** 2
    step = 0.5 * dt * (decay * sq[:-1] + sq[1:])
    integral, running = 0.0, []
    for d, a in zip(decay.tolist(), step.tolist()):
        integral = d * integral + a
        running.append(integral)
    rhs = np.empty(times.size)
    rhs[0] = V0
    rhs[1:] = fall * V0 + g * np.array(running)
    return rhs


def error_map(design: ObserverDesign, variant: str, tau: float,
              nodes: int = 201) -> tuple[np.ndarray, np.ndarray]:
    """The exact sample-to-sample map of a linear run's observer error on
    ``nodes`` grid points: with the error e_j = w - u at a sample and the
    noise xi_j it reads, the error a gap tau later is M e_j + noise @ xi_j,
    for the zero term and no input mismatch. Returns M (n, n) and the noise
    columns (n, m), zero at pinned nodes.

    In the grid's modes (``simulator.GridModes``) M = e^{-lam tau} + Phi(tau)
    k_hat and the noise columns are -Phi(tau), read from the same
    ``GridModes.flows`` that ``simulate``'s sample recursion reads, then
    mapped to the grid. The decay rate of a uniform schedule of gap tau is
    -ln rho(M(tau)) / tau.
    """
    discrete = DiscreteObserver(design, variant, nodes)
    modes = GridModes(discrete.op, discrete)
    decay, phi, _ = modes.flows(np.array([float(tau)]))
    modal = np.diag(decay[0]) + phi[0].T @ modes.k_hat
    return modes.rows.T @ modal @ (modes.rows * modes.weights), -(modes.rows.T @ phi[0].T)


def divergence_verdict(traj: Trajectory) -> str:
    """Finite-horizon proxy for the asymptotic claim: 'divergent' when the
    final error exceeds 10x the initial one, 'convergent' below 0.1x."""
    e0 = float(traj.error_l2[0])
    eT = float(traj.error_l2[-1])
    if e0 <= 0.0:
        return "inconclusive"
    if eT > DIVERGED_FACTOR * e0:
        return "divergent"
    if eT < CONVERGED_FACTOR * e0:
        return "convergent"
    return "inconclusive"


# -- the shared check sequence and the worked-example runners --------------------

def _report_to_dict(report: SmallGainReport) -> dict:
    doc = dataclasses.asdict(report)
    doc["coefficients"]["noise"] = list(map(float, np.atleast_1d(report.coefficients.noise)))
    return doc


@dataclass(frozen=True)
class Reconstruction:
    """Example 3.2's original state, read back from the simulated derivative
    variable (Neumann at 0, Dirichlet at 1) by cumulative integration, which
    maps L2 error bounds into sup-norm ones with unit operator norm.
    ``sup_error`` is the sup-norm reconstruction error per snapshot and
    ``sup_fit`` its decay fit; theta is the largest of the three bound
    coefficients, so the error stays below theta (e^{-kappa t} ||e(0)|| +
    sup |xi|); ``bc_defect`` is the worst boundary-condition residual of
    the transformed state."""

    theta: float
    sup_error: np.ndarray
    sup_fit: DecayFit | None
    noise_bound: float | None  # theta * sup |xi|
    noise_bound_ok: bool | None
    bc_defect: float

    def to_dict(self) -> dict:
        doc = {
            "theta": self.theta,
            "final_sup_error": float(self.sup_error[-1]),
            "initial_sup_error": float(self.sup_error[0]),
            "bc_defect": self.bc_defect,
        }
        if self.sup_fit is not None:
            doc["fitted_sup_rate"] = self.sup_fit.rate
            doc["fitted_sup_rate_ci"] = self.sup_fit.ci_halfwidth
        if self.noise_bound is not None:
            doc["noise_bound"] = self.noise_bound
            doc["noise_bound_ok"] = self.noise_bound_ok
        return doc


@dataclass(frozen=True)
class RunResult:
    """One simulated scenario and its checks: the decay fit, the IOS check
    and the Lyapunov oracle, each None where it did not run; the largest
    certified diameter ``h_star`` at the run's kappa and variant (0.0 when
    Omega >= 1 already as h -> 0, inf when Omega does not grow with h); the
    ``divergence_verdict``; and example 3.2's ``reconstruction``, None on
    every other run. The certificate, design, kappa and variant are the
    scenario's own, and ``to_dict`` is the run's report.json."""

    scenario: Scenario
    trajectory: Trajectory
    fit: DecayFit | None
    ios: IOSBoundCheck | None
    lyapunov: LyapunovTrace | None
    h_star: float
    verdict: str
    reconstruction: Reconstruction | None = None

    @property
    def report(self) -> SmallGainReport:
        return self.scenario.report

    @property
    def design(self) -> ObserverDesign:
        return self.scenario.design

    @property
    def kappa(self) -> float:
        return self.scenario.kappa

    @property
    def variant(self) -> str:
        return self.scenario.variant

    @property
    def h(self) -> float:
        """The schedule's diameter, at which ``report`` certifies the run."""
        return self.scenario.schedule.diameter

    @property
    def violated(self) -> bool:
        """True when the certificate is infeasible, or the IOS estimate,
        ||e||^2 <= V or the reconstruction's sup-norm noise bound fails. The
        oracle's integral inequality is reported, not judged: it fails on
        the worked designs."""
        return (
            not self.report.feasible
            or (self.ios is not None and self.ios.violations > 0)
            or (self.lyapunov is not None and not self.lyapunov.e_le_V_ok)
            or (self.reconstruction is not None and self.reconstruction.noise_bound_ok is False)
        )

    def to_dict(self) -> dict:
        traj, ios, ly = self.trajectory, self.ios, self.lyapunov
        doc: dict = {
            "label": self.scenario.label,
            "variant": self.variant,
            "gain": _report_to_dict(self.report),
            "design": design_to_json(self.design),
            "h_star": self.h_star,
            "verdict": self.verdict,
            "final_error_l2": float(traj.error_l2[-1]),
            "initial_error_l2": float(traj.error_l2[0]),
            "snapshots": int(traj.times.size),
            "samples": len(traj.events),
        }
        if ios is not None:
            doc["ios"] = {"violations": ios.violations,
                          "worst_relative_margin": ios.worst_relative_margin}
        if ly is not None:
            doc["lyapunov"] = {"violations": ly.violations, "error_le_V": ly.e_le_V_ok,
                               "v0_bound": ly.v0_bound_ok}
        if self.fit is not None:
            doc["fitted_rate"] = self.fit.rate
            doc["fitted_rate_ci"] = self.fit.ci_halfwidth
        if self.reconstruction is not None:
            doc["reconstruction"] = self.reconstruction.to_dict()
        return doc


def check_run(traj: Trajectory, scenario: Scenario, *, lyapunov: bool = False) -> RunResult:
    """The decay fit, IOS check, Lyapunov oracle, h* and verdict of one
    simulated scenario, as one ``RunResult``.

    Every run is fitted over ``default_fit_window`` at the schedule's
    diameter; the fit is None when the series reaches the numerical floor or
    the window holds fewer than 3 points. Every run whose own certificate,
    ``scenario.report`` (at the schedule's diameter and the scenario's
    kappa), is feasible gets the IOS check, and the oracle when ``lyapunov``
    asks for it; both use the fixed 2% slack.
    """
    decay = None
    try:
        window = default_fit_window(traj, scenario.schedule.diameter)
        decay = fit_decay_rate(traj.times, traj.error_l2, window)
    except (DecayedToFloor, ValueError):
        pass
    report, feasible = scenario.report, scenario.report.feasible
    bound = check_ios_bound(traj, report, scenario.disturbances) if feasible else None
    oracle = None
    if lyapunov and feasible:
        oracle = lyapunov_oracle(traj, scenario.design,
                                 nonlinearity=scenario.nonlinearity,
                                 disturbances=scenario.disturbances)
    try:
        h_star = max_diameter(scenario.design, scenario.kappa, scenario.variant)
    except InfeasibleAtZero:
        h_star = 0.0
    return RunResult(scenario, traj, decay, bound, oracle, h_star, divergence_verdict(traj))


def boundary_reconstruction(run: RunResult) -> Reconstruction:
    """Example 3.2's sup-norm reconstruction of a run of ``example32_config``:
    u_hat - u = int_0^x (w - u~) ds, its sup over x fitted from 3h on, and,
    under a bounded noise, the bound theta (e^{-kappa t} ||e(0)|| + sup |xi|)
    checked at every snapshot with the fixed 2% slack. w - u~ is the modal
    error mapped to the grid (``Trajectory.error_fields``). The fields are
    mapped from the modal records a block of snapshot rows at a time
    (``grids._row_blocks``), with the bits of ``Trajectory.u`` and ``w``,
    and none is kept."""
    traj, coeff = run.trajectory, run.report.coefficients
    dx = traj.grid[1] - traj.grid[0]
    sup_error, defects = np.empty(traj.times.size), []
    for block in _row_blocks(traj.times.size):
        e = traj.modal_e[block] @ traj.mode_rows
        error = cumulative_trapezoid(e, traj.grid)
        sup_error[block] = np.max(np.abs(error), axis=1)
        del error  # before the fields
        f = traj.modal_u[block] @ traj.mode_rows  # the plant's snapshots
        defects.append(_bc_defect(f, dx))
        f += e  # the observer's, w = u + e
        del e
        defects.append(_bc_defect(f, dx))
    bc_defect = float(max(defects))
    theta = max(coeff.initial, float(np.max(coeff.noise)), coeff.mismatch)

    sup_fit = None
    positive = sup_error > 1e-10 * max(sup_error[0], 1e-300)
    if sup_error[0] > 0 and np.count_nonzero(positive) > 3:
        t_hi = float(traj.times[np.nonzero(positive)[0][-1]])
        try:
            sup_fit = fit_decay_rate(traj.times, np.maximum(sup_error, 1e-300), (3.0 * run.h, t_hi))
        except (DecayedToFloor, ValueError):
            pass

    noise_bound = noise_bound_ok = None
    xi0 = run.scenario.disturbances.xi[0]
    if xi0.bound > 0.0:
        noise_bound = theta * xi0.bound
        e0 = float(traj.error_l2[0])
        allowed = theta * (np.exp(-run.kappa * traj.times) * e0 + xi0.bound)
        noise_bound_ok = bool(np.all(sup_error <= allowed * (1.0 + _SLACK) + 1e-12))

    return Reconstruction(theta, sup_error, sup_fit, noise_bound, noise_bound_ok, bc_defect)


def _bc_defect(f: np.ndarray, dx: float) -> float:
    """The worst relative residual over the rows of ``f`` of the transformed
    state's ends: f'(0) = 0 (times dx) and f(1) = 0."""
    d0, _ = end_derivatives(f, dx)
    scale = np.maximum(np.max(np.abs(f), axis=1), 1e-300)
    return float(np.max(np.maximum(np.abs(f[:, -1]), np.abs(d0) * dx) / scale))


def run_example_31(*args, lyapunov: bool = False, lyapunov_tail: int | None = None,
                   **preset) -> RunResult:
    """End-to-end run of ``example31_config(*args, **preset)``, which names
    the parameters and their defaults: the ``check_run`` result of its
    scenario, as ``parobs simulate`` reports it, with the Lyapunov oracle
    when ``lyapunov`` asks for it. ``lyapunov_tail`` is deprecated and
    ignored."""
    _ignored_tail("lyapunov_tail", lyapunov_tail)
    scenario = build_scenario(example31_config(*args, **preset))
    return check_run(simulate(scenario), scenario, lyapunov=lyapunov)


def run_example_32(*args, **preset) -> RunResult:
    """End-to-end run of ``example32_config(*args, **preset)``, which names
    the parameters and their defaults: the ``check_run`` result of its
    scenario with its ``boundary_reconstruction``.

    The design does not depend on the sampling, so it is built once, from
    the preset at a placeholder h and horizon; ``example32_sampling`` then
    fills the h and horizon the arguments leave out.
    """
    bound = inspect.signature(example32_config).bind(*args, **preset)
    bound.apply_defaults()
    kwargs = bound.arguments
    design = build_design(example32_config(**{**kwargs, "h": 1.0, "horizon": 1.0}))
    h, horizon = example32_sampling(design, kwargs["omega"], kwargs["h"], kwargs["horizon"])
    cfg = example32_config(**{**kwargs, "h": h, "horizon": horizon})
    scenario = build_scenario(cfg, design=design)
    run = check_run(simulate(scenario), scenario)
    return dataclasses.replace(run, reconstruction=boundary_reconstruction(run))

"""Trajectory post-processing: decay-rate fits, IOS bound checking, the
Lyapunov-functional oracle, and the two worked end-to-end designs.

The bound checkers evaluate the right-hand sides with exact running-supremum
bookkeeping of the exponentially weighted signal histories, so a trajectory
either satisfies the certified estimate at every snapshot (within a small
discretization slack) or the violation count says where it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import profiles as pf
from .errors import (
    DecayedToFloor,
    InfeasibleReport,
    ReactionOutOfRange,
    TailTooShort,
)
from .grids import end_derivatives, snapshot_norms, trapezoid_weights, uniform_grid
from .nonlinear import NonlinearTerm, ZeroTerm
from .observer_design import (
    ObserverDesign,
    OutputChannel,
    SmallGainReport,
    make_design,
    max_diameter,
    small_gain_predictor,
    small_gain_zoh,
)
from .schedule import make_schedule
from .signals import Disturbances, NoiseSignal, SpaceTimeSignal, TimeSignal, noise_from_spec
from .simulator import Scenario, Trajectory, simulate
from .sturm_liouville import SLProblem, analytic_eigensystem

__all__ = [
    "error_norms",
    "DecayFit",
    "fit_decay_rate",
    "default_fit_window",
    "IOSBoundCheck",
    "check_ios_bound",
    "LyapunovTrace",
    "lyapunov_oracle",
    "divergence_verdict",
    "predictor_compatibility_residual",
    "Example31Report",
    "run_example_31",
    "Example32Report",
    "run_example_32",
    "DIVERGED_FACTOR",
    "CONVERGED_FACTOR",
]

DIVERGED_FACTOR = 10.0
CONVERGED_FACTOR = 0.1
_SLACK = 0.02  # relative slack absorbing discretization error in bound checks
_FLOOR = 1e-13


def error_norms(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid L2 norm and grid sup norm of w - u per snapshot."""
    return snapshot_norms(traj.error_fields(), traj.weights)


@dataclass(frozen=True)
class DecayFit:
    rate: float  # kappa-hat: positive when the series decays
    ci_halfwidth: float
    window: tuple[float, float]
    n_points: int

    @property
    def lower(self) -> float:
        return self.rate - self.ci_halfwidth

    @property
    def upper(self) -> float:
        return self.rate + self.ci_halfwidth


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
    slack: float = _SLACK,
) -> IOSBoundCheck:
    """Evaluate the certified error estimate along the trajectory.

    The noise and mismatch terms carry exp-weighted running suprema over the
    signal histories (evaluated at snapshot and sample instants). Violations
    are counted beyond the relative slack plus a tiny absolute floor.
    """
    if not report.feasible:
        raise InfeasibleReport(f"Omega = {report.omega:.6g} is not < 1")
    dist = disturbances or Disturbances()
    kappa = report.kappa
    coeff = report.coefficients
    times = traj.times
    e0 = float(traj.error_l2[0])
    m = traj.zeta.shape[1] if traj.zeta.ndim == 2 else 0

    # sample-instant noise values, keyed by time
    event_noise = {e.t: np.abs(np.asarray(e.xi)) for e in traj.events if e.xi is not None}

    n = times.size
    noise_hist = np.zeros((n, m))
    mism_hist = np.zeros(n)
    run_noise = np.zeros(m)
    run_mism = 0.0
    grid = traj.grid
    w = traj.weights
    has_mismatch = not (dist.v.is_zero and dist.v_tilde.is_zero)
    for k, t in enumerate(times):
        wt = math.exp(kappa * t)
        if m:
            vals = np.array(
                [
                    abs(s.value(t)) if s.kind != "random" else 0.0
                    for s in (dist.xi if dist.xi else [])
                ]
            ) if dist.xi else np.zeros(m)
            if t in event_noise:
                vals = np.maximum(vals, event_noise[t])
            run_noise = np.maximum(run_noise, vals * wt)
            noise_hist[k] = run_noise / wt
        if has_mismatch:
            diff = dist.mismatch_field(t, grid)
            run_mism = max(run_mism, math.sqrt(max(np.dot(w, diff * diff), 0.0)) * wt)
            mism_hist[k] = run_mism / wt
    rhs = coeff.initial * np.exp(-kappa * times) * e0
    if m:
        rhs = rhs + noise_hist @ coeff.noise
    rhs = rhs + coeff.mismatch * mism_hist

    atol = 1e-12 * max(e0, 1.0)
    margins = rhs - traj.error_l2
    rel = np.where(rhs > atol, margins / np.maximum(rhs, atol), 0.0)
    violations = int(np.sum(traj.error_l2 > rhs * (1.0 + slack) + atol))
    return IOSBoundCheck(
        variant=report.variant,
        kappa=kappa,
        rhs=rhs,
        margins=margins,
        violations=violations,
        worst_relative_margin=float(np.min(rel)),
        noise_history=noise_hist,
        mismatch_history=mism_hist,
        slack=slack,
    )


@dataclass(frozen=True)
class LyapunovTrace:
    """Runtime verification data for the decay functional
    V = xi' P xi + (Q/2) sum_{n>N} r_n^2."""

    times: np.ndarray
    V: np.ndarray
    modal: np.ndarray  # (snapshots, J) modal coordinates of the error
    vbar_norms: np.ndarray
    rhs: np.ndarray  # exp(-2 mu t) V(0) + g~ int exp(-2 mu (t-s)) ||vbar||^2
    violations: int
    worst_relative_margin: float
    parseval_deficit: float
    e_le_V_ok: bool
    v0_bound_ok: bool
    slack: float


def lyapunov_oracle(
    traj: Trajectory,
    design: ObserverDesign,
    J_tail: int = 20,
    nonlinearity: NonlinearTerm | None = None,
    disturbances: Disturbances | None = None,
    slack: float = _SLACK,
) -> LyapunovTrace:
    """Check the decay functional's integral inequality along a trajectory.

    Reconstructs the effective input: for the predictor variant it is
    f(w) - f(u) - sum_i l_i eps_i(t) + (v~ - v) with eps_i = zeta_i -
    <c_i, u>; for the hold variant the injection mismatch is referenced to
    the most recent sample. Raises TailTooShort when the first N + J_tail
    modes miss more than 5% of the error energy.
    """
    nl = nonlinearity or ZeroTerm()
    dist = disturbances or Disturbances()
    N, m = design.N, design.m
    basis = design.basis.resample(traj.grid.size)
    J = min(N + J_tail, basis.size)
    w = traj.weights
    modes = basis.functions[:J] * w  # (J, n) projection rows
    e = traj.error_fields()
    r = e @ modes.T  # (S, J)

    e_sq = traj.error_l2**2
    proj_sq = np.sum(r**2, axis=1)
    scale = np.max(e_sq)
    if scale > 0.0:
        mask = e_sq > 1e-8 * scale
        deficit = float(np.max((e_sq[mask] - proj_sq[mask]) / e_sq[mask])) if mask.any() else 0.0
    else:
        deficit = 0.0
    if deficit > 0.05:
        raise TailTooShort(f"modal truncation misses {100 * deficit:.1f}% of the error energy")

    xi_block = r[:, :N]
    V = np.einsum("si,ij,sj->s", xi_block, design.P, xi_block)
    V = V + 0.5 * design.Q * np.sum(r[:, N:] ** 2, axis=1)

    # effective-input reconstruction
    pieces_c = np.vstack([ch.approximant.values(traj.grid) for ch in design.channels]) * w
    pieces_kc = (
        np.vstack([ch.kernel.values(traj.grid) for ch in design.channels]) * w - pieces_c
    )
    from .observer_design import injection_kernels

    l_cols = injection_kernels(design.L, basis)[0].T  # (n, m)
    S = traj.times.size
    vbar_norms = np.zeros(S)
    has_mismatch = not (dist.v.is_zero and dist.v_tilde.is_zero)
    event_index = {ev.t: ev for ev in traj.events}
    snap_index = {float(t): k for k, t in enumerate(traj.times)}
    eta_state: tuple | None = None
    for k, t in enumerate(traj.times):
        vb = nl.apply(traj.w[k]) - nl.apply(traj.u[k])
        if has_mismatch:
            vb = vb + dist.v_tilde.field(t, traj.grid) - dist.v.field(t, traj.grid)
        if traj.metadata.get("variant") == "predictor":
            eps = traj.zeta[k] - pieces_c @ traj.u[k]
            vb = vb - l_cols @ eps
        else:
            if traj.sample_flag[k] and t in event_index:
                ev = event_index[t]
                e_eta = e[k]
                eps_eta = pieces_c @ e_eta
                gap_eta = pieces_kc @ e_eta
                xi_eta = np.asarray(ev.xi) if ev.xi is not None else np.zeros(m)
                eta_state = (gap_eta + eps_eta - xi_eta,)
            eps_t = pieces_c @ e[k]
            base = eta_state[0] if eta_state is not None else np.zeros(m)
            vb = vb + l_cols @ (base - eps_t)
        vbar_norms[k] = math.sqrt(max(np.dot(w, vb * vb), 0.0))

    mu, g = design.mu, design.g_tilde
    rhs = np.zeros(S)
    rhs[0] = V[0]
    integral = 0.0
    for k in range(1, S):
        dt = traj.times[k] - traj.times[k - 1]
        decay = math.exp(-2.0 * mu * dt)
        integral = decay * integral + 0.5 * dt * (
            decay * vbar_norms[k - 1] ** 2 + vbar_norms[k] ** 2
        )
        rhs[k] = math.exp(-2.0 * mu * traj.times[k]) * V[0] + g * integral

    atol = 1e-12 * max(V[0], 1.0)
    violations = int(np.sum(V > rhs * (1.0 + slack) + atol))
    rel = np.where(rhs > atol, (rhs - V) / np.maximum(rhs, atol), 0.0)
    e_le_V_ok = bool(np.all(e_sq <= V * (1.0 + slack) + atol))
    v0_bound_ok = bool(V[0] <= max(design.P_norm, design.Q / 2.0) * e_sq[0] * (1.0 + slack) + atol)
    return LyapunovTrace(
        times=traj.times,
        V=V,
        modal=r,
        vbar_norms=vbar_norms,
        rhs=rhs,
        violations=violations,
        worst_relative_margin=float(np.min(rel)),
        parseval_deficit=deficit,
        e_le_V_ok=e_le_V_ok,
        v0_bound_ok=v0_bound_ok,
        slack=slack,
    )


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


def predictor_compatibility_residual(traj: Trajectory, design: ObserverDesign) -> float:
    """Worst boundary term c_i(1) u_x(1) - c_i(0) u_x(0) - c_i'(1) u(1) +
    c_i'(0) u(0) along the trajectory; it vanishes (to discretization error)
    because the approximants share the plant's Robin conditions."""
    dx = traj.grid[1] - traj.grid[0]
    ends = np.array([0.0, 1.0])
    worst = 0.0
    for ch in design.channels:
        c_end = ch.approximant.values(ends)
        dc_end = ch.approximant.derivative().values(ends)
        for k in range(traj.times.size):
            for f in (traj.u[k], traj.w[k]):
                d0, d1 = end_derivatives(f, dx)
                psi = c_end[1] * d1 - c_end[0] * d0 - dc_end[1] * f[-1] + dc_end[0] * f[0]
                scale = max(np.max(np.abs(f)), 1e-300)
                worst = max(worst, abs(psi) / scale)
    return worst


# -- worked example runners -----------------------------------------------------

def _noise_signal(noise, channel: int = 0) -> NoiseSignal:
    if noise is None:
        return NoiseSignal(channel=channel)
    if isinstance(noise, NoiseSignal):
        return noise
    if isinstance(noise, (int, float)):
        return NoiseSignal(kind="sinusoid", amplitude=float(noise), omega=2.0, channel=channel)
    return noise_from_spec(noise, channel)


@dataclass
class Example31Report:
    """Heat plant with Neumann ends and the weighted-average output."""

    p: float
    h: float
    omega_fraction: float
    variant: str
    design: ObserverDesign
    report: SmallGainReport
    kappa: float
    trajectory: Trajectory
    fit: DecayFit | None
    ios: IOSBoundCheck | None
    lyapunov: LyapunovTrace | None
    verdict: str
    h_star: float

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "h": self.h,
            "omega_fraction": self.omega_fraction,
            "variant": self.variant,
            "kappa": self.kappa,
            "omega": self.report.omega,
            "feasible": self.report.feasible,
            "gamma": self.report.gamma,
            "mu": self.design.mu,
            "A11": float(self.design.A[0, 0]),
            "K": self.design.K,
            "norm_k_minus_c": float(self.design.norm_gap[0]),
            "norm_l": float(self.design.norm_l[0]),
            "h_star": self.h_star,
            "verdict": self.verdict,
            "final_error_l2": float(self.trajectory.error_l2[-1]),
            "initial_error_l2": float(self.trajectory.error_l2[0]),
        }
        if self.fit is not None:
            out["fitted_rate"] = self.fit.rate
            out["fitted_rate_ci"] = self.fit.ci_halfwidth
        if self.ios is not None:
            out["ios_violations"] = self.ios.violations
            out["ios_worst_relative_margin"] = self.ios.worst_relative_margin
        if self.lyapunov is not None:
            out["lyapunov_violations"] = self.lyapunov.violations
            out["lyapunov_e_le_V"] = self.lyapunov.e_le_V_ok
            out["lyapunov_v0_bound"] = self.lyapunov.v0_bound_ok
        return out


def example31_design(p: float = 1.0, nodes: int = 1001, modes: int = 201) -> ObserverDesign:
    """N = 1 design for the Neumann heat plant with output kernel x:
    c = 1/2, L = -p pi^2, P = [1]."""
    problem = SLProblem(p=p, q=0.0, a0=0.0, b0=1.0, a1=0.0, b1=1.0)
    basis = analytic_eigensystem(problem, modes, nodes)
    channel = OutputChannel(
        kernel=pf.polynomial([0.0, 1.0]), approximant=pf.constant(0.5), label="avg"
    )
    L = np.array([[-p * math.pi**2]])
    return make_design(problem, basis, [channel], L, N=1, Q=2.0, sigma_fraction=1.0)


def run_example_31(
    p: float = 1.0,
    h: float = 0.5,
    omega: float = 0.0,
    variant: str = "predictor",
    noise=None,
    mismatch: float = 0.0,
    *,
    horizon: float | None = None,
    nodes: int = 201,
    dt: float | None = None,
    snapshot_every: float | None = None,
    u0=None,
    w0=None,
    fit_rate: bool = True,
    check_bounds: bool = True,
    lyapunov: bool = False,
    lyapunov_tail: int = 20,
) -> Example31Report:
    """End-to-end run of the Neumann-ends worked design.

    omega in [0, 1) selects kappa = omega * mu. The hold variant's verdict
    compares the final error with the initial one at the default horizon
    10 * 20 / (p pi^2).
    """
    if not 0.0 <= omega < 1.0:
        raise ValueError("omega must lie in [0, 1)")
    design = example31_design(p)
    kappa = omega * design.mu
    gain = small_gain_predictor if variant == "predictor" else small_gain_zoh
    report = gain(design, h, kappa)
    h_star = max_diameter(design, kappa, variant)

    if horizon is None:
        horizon = 10.0 * 20.0 / (p * math.pi**2)
    # whole number of periods: the uniform-sampling claims are about t_j = j h,
    # and a clipped trailing gap can act as an accidental deadbeat step
    horizon = max(1, math.ceil(horizon / h - 1e-9)) * h
    schedule = make_schedule({"kind": "uniform", "h": h, "horizon": horizon})

    grid = uniform_grid(nodes)
    if u0 is None:
        u0 = pf.cosine_series(1.0, [0.5])
    if w0 is None:
        w0 = pf.constant(0.0)
    xi = (_noise_signal(noise),)
    v = SpaceTimeSignal()
    if mismatch:
        v = SpaceTimeSignal(terms=((TimeSignal(offset=float(mismatch)), pf.constant(1.0)),))
    dist = Disturbances(v=v, v_tilde=SpaceTimeSignal(), xi=xi)

    scenario = Scenario(
        design=design,
        variant=variant,
        schedule=schedule,
        nodes=nodes,
        u0=u0,
        w0=w0,
        disturbances=dist,
        dt=dt,
        snapshot_every=snapshot_every,
        label=f"example31-{variant}",
    )
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        traj = simulate(scenario)

    fit = None
    if fit_rate:
        try:
            fit = fit_decay_rate(traj.times, traj.error_l2, default_fit_window(traj, h))
        except DecayedToFloor:
            fit = None
    ios = None
    if check_bounds and report.feasible:
        ios = check_ios_bound(traj, report, dist)
    lyap = None
    if lyapunov and report.feasible:
        lyap = lyapunov_oracle(traj, design, lyapunov_tail, disturbances=dist)
    return Example31Report(
        p=p,
        h=h,
        omega_fraction=omega,
        variant=variant,
        design=design,
        report=report,
        kappa=kappa,
        trajectory=traj,
        fit=fit,
        ios=ios,
        lyapunov=lyap,
        verdict=divergence_verdict(traj),
        h_star=h_star,
    )


@dataclass
class Example32Report:
    """Boundary-measured plant handled through the derivative variable.

    The simulated field is the transformed state (Neumann at 0, Dirichlet
    at 1); the original state and its estimate come back through cumulative
    integration, which maps L2 error bounds into sup-norm ones with unit
    operator norm."""

    p: float
    q: float
    h: float
    omega_fraction: float
    design: ObserverDesign
    report: SmallGainReport
    kappa: float
    trajectory: Trajectory
    theta: float
    sup_error: np.ndarray
    fit: DecayFit | None
    ios: IOSBoundCheck | None
    noise_bound: float | None  # theta * sup |xi|
    noise_bound_ok: bool | None
    bc_defect: float
    h_star: float

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "q": self.q,
            "h": self.h,
            "omega_fraction": self.omega_fraction,
            "kappa": self.kappa,
            "omega": self.report.omega,
            "feasible": self.report.feasible,
            "A11": float(self.design.A[0, 0]),
            "c11": float(self.design.c_coeffs[0, 0]),
            "K": self.design.K,
            "norm_k_minus_c": float(self.design.norm_gap[0]),
            "theta": self.theta,
            "h_star": self.h_star,
            "final_sup_error": float(self.sup_error[-1]),
            "initial_sup_error": float(self.sup_error[0]),
            "bc_defect": self.bc_defect,
        }
        if self.fit is not None:
            out["fitted_sup_rate"] = self.fit.rate
            out["fitted_sup_rate_ci"] = self.fit.ci_halfwidth
        if self.ios is not None:
            out["ios_violations"] = self.ios.violations
        if self.noise_bound is not None:
            out["noise_bound"] = self.noise_bound
            out["noise_bound_ok"] = self.noise_bound_ok
        return out


def example32_design(p: float = 1.0, q: float = 0.0, nodes: int = 1001, modes: int = 201) -> ObserverDesign:
    """N = 1 design for the transformed boundary-output plant:
    c = (4/pi) cos(pi x / 2), L = pi (4q - 7 p pi^2) / (16 sqrt 2)."""
    if not -9.0 * p * math.pi**2 < 4.0 * q < 7.0 * p * math.pi**2:
        raise ReactionOutOfRange(
            f"need -9 p pi^2 < 4q < 7 p pi^2, got q = {q} at p = {p}"
        )
    problem = SLProblem(p=p, q=q, a0=0.0, b0=1.0, a1=1.0, b1=0.0)
    basis = analytic_eigensystem(problem, modes, nodes)
    channel = OutputChannel(
        kernel=pf.constant(1.0),
        approximant=pf.cosine(4.0 / math.pi, math.pi / 2.0),
        label="boundary",
    )
    L = np.array([[math.pi * (4.0 * q - 7.0 * p * math.pi**2) / (16.0 * math.sqrt(2.0))]])
    return make_design(problem, basis, [channel], L, N=1, Q=2.0, sigma_fraction=1.0)


def run_example_32(
    p: float = 1.0,
    q: float = 0.0,
    h: float | None = None,
    omega: float = 0.3,
    noise=None,
    *,
    horizon: float | None = None,
    nodes: int = 201,
    dt: float | None = None,
    snapshot_every: float | None = None,
    u0=None,
    w0=None,
    lyapunov: bool = False,
) -> Example32Report:
    """End-to-end run of the boundary-measurement design.

    h defaults to half the maximal feasible diameter at kappa = omega * mu.
    The report carries the sup-norm reconstruction-error series and the
    composed constant theta = max of the three bound coefficients, which
    dominates the sup-norm error because cumulative integration maps L2
    into sup with unit norm.
    """
    if not 0.0 <= omega < 1.0:
        raise ValueError("omega must lie in [0, 1)")
    design = example32_design(p, q)
    kappa = omega * design.mu
    h_star = max_diameter(design, kappa, "predictor")
    if h is None:
        h = 0.5 * h_star if math.isfinite(h_star) else 0.1
    report = small_gain_predictor(design, h, kappa)

    if horizon is None:
        horizon = max(4.0 / design.mu, 30.0 * h)
    schedule = make_schedule({"kind": "uniform", "h": h, "horizon": horizon})

    if u0 is None:
        u0 = pf.cosine(math.sqrt(2.0), math.pi / 2.0) + 0.5 * pf.cosine(
            math.sqrt(2.0), 3.0 * math.pi / 2.0
        )
    if w0 is None:
        w0 = pf.constant(0.0)
    xi = (_noise_signal(noise),)
    dist = Disturbances(xi=xi)
    scenario = Scenario(
        design=design,
        variant="predictor",
        schedule=schedule,
        nodes=nodes,
        u0=u0,
        w0=w0,
        disturbances=dist,
        dt=dt,
        snapshot_every=snapshot_every,
        label="example32",
    )
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        traj = simulate(scenario)

    # reconstruction error: u_hat - u = int_0^x (w - u~) ds, sup over x
    from scipy.integrate import cumulative_trapezoid

    e = traj.error_fields()
    cum = cumulative_trapezoid(e, traj.grid, axis=1, initial=0.0)
    sup_error = np.max(np.abs(cum), axis=1)

    coeff = report.coefficients
    theta = max(coeff.initial, float(np.max(coeff.noise)), coeff.mismatch)

    fit = None
    positive = sup_error > 1e-10 * max(sup_error[0], 1e-300)
    if sup_error[0] > 0 and np.count_nonzero(positive) > 3:
        t_hi = float(traj.times[np.nonzero(positive)[0][-1]])
        try:
            fit = fit_decay_rate(traj.times, np.maximum(sup_error, 1e-300), (3.0 * h, t_hi))
        except (DecayedToFloor, ValueError):
            fit = None
    ios = check_ios_bound(traj, report, dist) if report.feasible else None

    noise_bound = None
    noise_bound_ok = None
    xi0 = xi[0]
    if xi0.bound > 0.0:
        noise_bound = theta * xi0.bound
        e0 = float(traj.error_l2[0])
        allowed = theta * (np.exp(-kappa * traj.times) * e0 + xi0.bound)
        noise_bound_ok = bool(np.all(sup_error <= allowed * (1.0 + _SLACK) + 1e-12))

    dx = traj.grid[1] - traj.grid[0]
    bc_defect = 0.0
    for k in range(traj.times.size):
        for f in (traj.u[k], traj.w[k]):
            d0, _ = end_derivatives(f, dx)
            scale = max(np.max(np.abs(f)), 1e-300)
            bc_defect = max(bc_defect, abs(f[-1]) / scale, abs(d0) * dx / scale)

    return Example32Report(
        p=p,
        q=q,
        h=h,
        omega_fraction=omega,
        design=design,
        report=report,
        kappa=kappa,
        trajectory=traj,
        theta=theta,
        sup_error=sup_error,
        fit=fit,
        ios=ios,
        noise_bound=noise_bound,
        noise_bound_ok=noise_bound_ok,
        bc_defect=bc_defect,
        h_star=h_star,
    )

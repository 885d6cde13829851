import dataclasses
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from parobs import analysis
from parobs import profiles as pf
from parobs import config as cf
from parobs.analysis import (
    CONVERGED_FACTOR,
    DIVERGED_FACTOR,
    boundary_reconstruction,
    check_ios_bound,
    check_run,
    default_fit_window,
    divergence_verdict,
    fit_decay_rate,
    lyapunov_oracle,
    run_example_31,
    run_example_32,
)
from parobs.errors import (
    ConfigError,
    DecayedToFloor,
    InfeasibleReport,
    ReactionOutOfRange,
)
from parobs.grids import (
    _row_blocks,
    cumulative_trapezoid,
    end_derivatives,
    snapshot_norms,
    uniform_grid,
)
from parobs.nonlinear import GainSaturatedTerm
from parobs.observer_design import (
    OutputChannel,
    design_to_json,
    make_design,
    max_diameter,
    small_gain_predictor,
    small_gain_zoh,
)
from parobs.schedule import make_schedule
from parobs.signals import Disturbances, NoiseSignal, SpaceTimeSignal, TimeSignal
from parobs.simulator import DiscreteObserver, Scenario, Trajectory, simulate
from parobs.sturm_liouville import SLProblem, analytic_eigensystem

NONLINEAR_ZOH = Path(__file__).parents[1] / "benchmarks" / "configs" / "nonlinear_zoh.json"


def quiet_simulate(sc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate(sc)


def synthetic_trajectory(grid, times, e_fields, variant="predictor"):
    e = np.asarray(e_fields)
    return Trajectory.from_fields(
        times=times,
        u=np.zeros_like(e),
        w=e,
        zeta=np.zeros((len(times), 1)),
        sample_flag=np.zeros(len(times), dtype=bool),
        events=[],
        grid=grid,
        metadata={"variant": variant},
    )


class TestErrorNorms:
    def test_zero(self):
        grid = uniform_grid(101)
        traj = synthetic_trajectory(grid, [0.0, 1.0], np.zeros((2, 101)))
        l2, sup = snapshot_norms(traj.error_fields(), traj.weights)
        assert np.all(l2 == 0.0) and np.all(sup == 0.0)

    def test_unit_mode(self):
        grid = uniform_grid(1001)
        phi2 = math.sqrt(2.0) * np.cos(math.pi * grid)
        traj = synthetic_trajectory(grid, [0.0], [phi2])
        l2, _ = snapshot_norms(traj.error_fields(), traj.weights)
        assert l2[0] == pytest.approx(1.0, rel=1e-10)

    def test_linear_profile(self):
        grid = uniform_grid(2001)
        traj = synthetic_trajectory(grid, [0.0], [grid])
        l2, sup = snapshot_norms(traj.error_fields(), traj.weights)
        assert l2[0] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-6)
        assert sup[0] == 1.0


class TestDecayFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 200)
        fit = fit_decay_rate(t, 3.0 * np.exp(-2.0 * t))
        assert fit.rate == pytest.approx(2.0, abs=1e-6)
        assert fit.ci_halfwidth < 1e-6

    def test_window_selection(self):
        t = np.linspace(0.0, 10.0, 400)
        y = np.exp(-t) + 0.5 * np.exp(-6.0 * t)  # transient then clean decay
        fit = fit_decay_rate(t, y, window=(5.0, 10.0))
        assert fit.rate == pytest.approx(1.0, abs=1e-4)

    def test_floor_detection(self):
        t = np.linspace(0.0, 5.0, 100)
        y = np.maximum(np.exp(-20.0 * t), 1e-14)
        with pytest.raises(DecayedToFloor):
            fit_decay_rate(t, y)


class TestIOSCheck:
    def test_requires_feasible_report(self, ex31_design):
        bad = small_gain_zoh(ex31_design, 10.0, 0.0)
        grid = uniform_grid(11)
        traj = synthetic_trajectory(grid, [0.0, 1.0], np.zeros((2, 11)))
        with pytest.raises(InfeasibleReport):
            check_ios_bound(traj, bad)

    def test_zero_scenario_margins(self, ex31_design):
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 2.0})
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=101,
                      u0=pf.constant(0.0), w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        rep = small_gain_predictor(ex31_design, 0.5, 0.0)
        chk = check_ios_bound(traj, rep)
        assert chk.violations == 0
        np.testing.assert_allclose(chk.rhs, 0.0, atol=1e-12)

    def test_noiseless_bound_reduces_to_initial_term(self, ex31_design):
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 4.0})
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=101,
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        kappa = 0.2 * ex31_design.mu
        rep = small_gain_predictor(ex31_design, 0.5, kappa)
        chk = check_ios_bound(traj, rep)
        expected = rep.coefficients.initial * np.exp(-kappa * traj.times) * traj.error_l2[0]
        np.testing.assert_allclose(chk.rhs, expected, rtol=1e-12)
        assert chk.violations == 0


class TestLyapunovOracle:
    def _exact_reset_design(self):
        problem = SLProblem(p=1.0, q=0.0, a0=0, b0=1, a1=0, b1=1)
        basis = analytic_eigensystem(problem, 30, 401)
        ch = OutputChannel(kernel=pf.constant(0.5), approximant=pf.constant(0.5))
        return make_design(problem, basis, [ch], np.array([[-math.pi**2]]), N=1, Q=2.0,
                           sigma_fraction=1.0)

    def test_zero_scenario(self, ex31_design):
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 1.0})
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=101,
                      u0=pf.constant(0.0), w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        trace = lyapunov_oracle(traj, ex31_design)
        np.testing.assert_allclose(trace.V, 0.0, atol=1e-28)
        assert trace.violations == 0

    def test_matched_kernel_run_decays_at_certified_rate(self):
        d = self._exact_reset_design()
        sch = make_schedule({"kind": "uniform", "h": 0.2, "horizon": 3.0})
        sc = Scenario(design=d, variant="predictor", schedule=sch, nodes=201,
                      u0=pf.cosine_series(1.0, [0.5, 0.0, 0.2]), w0=pf.constant(0.0),
                      snapshot_every=0.02)
        traj = quiet_simulate(sc)
        trace = lyapunov_oracle(traj, d)
        assert np.max(trace.vbar_norms) < 1e-10  # matched kernels: no effective input
        assert trace.violations == 0
        assert trace.e_le_V_ok and trace.v0_bound_ok

    def test_initial_tail_mode_value(self):
        d = self._exact_reset_design()
        sch = make_schedule({"kind": "uniform", "h": 0.2, "horizon": 0.4})
        u0 = pf.cosine(math.sqrt(2.0), math.pi)  # first tail mode
        sc = Scenario(design=d, variant="predictor", schedule=sch, nodes=201,
                      u0=u0, w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        trace = lyapunov_oracle(traj, d)
        assert trace.V[0] == pytest.approx(d.Q / 2.0, rel=1e-10)

    def test_tail_past_the_last_design_mode(self):
        # the error is the basis's 30th and last mode, past any tail of
        # N + 20 design modes: the whole of it is the tail
        d = self._exact_reset_design()
        sch = make_schedule({"kind": "uniform", "h": 0.2, "horizon": 0.2})
        u0 = pf.cosine(math.sqrt(2.0), 29 * math.pi)
        sc = Scenario(design=d, variant="predictor", schedule=sch, nodes=401, u0=u0,
                      w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        trace = lyapunov_oracle(traj, d)
        assert trace.V[0] == pytest.approx(d.Q / 2.0 * traj.error_l2[0] ** 2, rel=1e-12, abs=0.0)

    def test_zoh_reconstruction_consistency(self):
        # hold variant: the reconstructed input must make the bound behave
        # like the predictor one for matched kernels (held innovation zero)
        d = self._exact_reset_design()
        sch = make_schedule({"kind": "uniform", "h": 0.2, "horizon": 2.0})
        sc = Scenario(design=d, variant="zoh", schedule=sch, nodes=201,
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0),
                      snapshot_every=0.02)
        traj = quiet_simulate(sc)
        trace = lyapunov_oracle(traj, d)
        # y = <c, u> here, so the held innovation is <c, e(t_j)>, and vbar
        # tracks the sampling-induced mismatch; it must vanish at sample times
        sample_idx = np.nonzero(traj.sample_flag)[0]
        assert np.all(trace.vbar_norms[sample_idx] < 1e-8)


def replayed_oracle(traj, design, nl, dist, slack=0.02):
    """Reference for ``lyapunov_oracle``: one snapshot at a time, with the
    hold observer's innovation rebuilt by replaying the sample events."""
    w = traj.weights
    e = traj.error_fields()
    r, V = _modal_V(traj, design)

    discrete = DiscreteObserver(design, traj.metadata["variant"], traj.grid.size)
    c_rows, l_cols = discrete.c_rows, discrete.l_cols
    events = {ev.t: ev for ev in traj.events}
    held = np.zeros(design.m)
    vbar_norms = np.zeros(traj.times.size)
    for k, t in enumerate(traj.times):
        vb = nl.apply(traj.w[k]) - nl.apply(traj.u[k])
        vb = vb + dist.v_tilde.field(t, traj.grid) - dist.v.field(t, traj.grid)
        if traj.metadata["variant"] == "predictor":
            vb = vb - l_cols @ (traj.zeta[k] - c_rows @ traj.u[k])
        else:
            if traj.sample_flag[k] and t in events:
                xi = np.asarray(events[t].xi) if events[t].xi is not None else 0.0
                held = (discrete.k_rows - c_rows) @ e[k] + c_rows @ e[k] - xi
            vb = vb + l_cols @ (held - c_rows @ e[k])
        vbar_norms[k] = math.sqrt(max(np.dot(w, vb * vb), 0.0))

    rhs = np.zeros_like(V)
    rhs[0], integral = V[0], 0.0
    for k in range(1, V.size):
        dt = traj.times[k] - traj.times[k - 1]
        decay = math.exp(-2.0 * design.mu * dt)
        integral = decay * integral + 0.5 * dt * (decay * vbar_norms[k - 1] ** 2 + vbar_norms[k] ** 2)
        rhs[k] = math.exp(-2.0 * design.mu * traj.times[k]) * V[0] + design.g_tilde * integral
    violations = int(np.sum(V > rhs * (1.0 + slack) + 1e-12 * max(V[0], 1.0)))
    return {"V": V, "modal": r, "vbar_norms": vbar_norms, "violations": violations}


def _hold_run():
    noise = {"kind": "random", "amplitude": 0.01, "seed": 1}
    return cf.example31_config(1.0, 0.1, 0.0, "zoh", noise, mismatch=0.01, horizon=2.0,
                               nodes=101, modes=64)


def _predictor_nonlocal_run():
    cfg = cf.example31_config(1.0, 0.5, 0.0, "predictor", 0.01, mismatch=0.01, horizon=4.0,
                              nodes=101, modes=64)
    cfg["design"]["lipschitz_R"] = 0.4
    cfg["nonlinearity"] = {"kind": "linear_nonlocal", "gain": 0.5, "b": 1.0,
                           "a": {"kind": "cosine", "amplitude": 1.0, "omega": math.pi}}
    return cfg


def _nonlinear_zoh_run():
    cfg = json.loads(NONLINEAR_ZOH.read_text())
    cfg["schedule"]["horizon"] = 4.0
    return cfg


@pytest.mark.parametrize("make_cfg", [_hold_run, _predictor_nonlocal_run, _nonlinear_zoh_run],
                         ids=["example31-hold", "predictor-nonlocal", "nonlinear-zoh"])
def test_oracle_matches_event_replay(make_cfg):
    cfg = make_cfg()
    scenario = cf.build_scenario(cfg, seed=0)
    assert scenario.disturbances.v != scenario.disturbances.v_tilde
    traj = quiet_simulate(scenario)
    trace = lyapunov_oracle(traj, scenario.design, nonlinearity=scenario.nonlinearity,
                            disturbances=scenario.disturbances)
    ref = replayed_oracle(traj, scenario.design, scenario.nonlinearity, scenario.disturbances)
    assert np.max(np.abs(trace.vbar_norms - ref["vbar_norms"])) <= 1e-13 * np.max(ref["vbar_norms"])
    np.testing.assert_array_equal(trace.V, ref["V"])
    np.testing.assert_array_equal(trace.modal, ref["modal"])
    assert trace.violations == ref["violations"]


def _parent_rhs(times, norms, V0, mu, g):
    """The decay bound's recurrence one row at a time, two ``math.exp`` a row."""
    times, norms = times.tolist(), norms.tolist()
    rhs, integral = np.zeros(len(times)), 0.0
    rhs[0] = V0
    for k in range(1, len(times)):
        dt = times[k] - times[k - 1]
        decay = math.exp(-2.0 * mu * dt)
        integral = decay * integral + 0.5 * dt * (decay * norms[k - 1] ** 2 + norms[k] ** 2)
        rhs[k] = math.exp(-2.0 * mu * times[k]) * V0 + g * integral
    return rhs


def _head_tail(traj, design, fields=False):
    """The oracle's head coordinates xi and its tail ||e - sum xi_n phi_n||^2
    in the trapezoid weights: from the modal error record against the grid
    modes' projection on the head, by the oracle's Gram identity, or with
    ``fields`` from the residual of the error fields on the grid."""
    N, w = design.N, traj.weights
    head = design.basis.resample(traj.grid.size, N).functions[:N]
    project = (head * w).T
    if fields:
        e = traj.error_fields()
        xi = e @ project
        return xi, np.square(e - xi @ head) @ w
    g_hat = traj.mode_rows @ project
    xi = traj.modal_e @ g_hat
    gram = np.einsum("si,ij,sj->s", xi, g_hat.T @ g_hat, xi)
    return xi, traj.error_l2**2 - 2.0 * np.sum(xi**2, axis=1) + gram


def _modal_V(traj, design, fields=False):
    """The oracle's head coordinates and V from ``_head_tail``."""
    xi, tail = _head_tail(traj, design, fields)
    V = np.einsum("si,ij,sj->s", xi, design.P, xi)
    return xi, V + 0.5 * design.Q * np.maximum(tail, 0.0)


def _injected(traj, discrete):
    """The injection coefficients d_i of every record, read from the modal
    records against the grid modes' c rows: <c, u> - zeta for the
    predictor, zeta - <c, e> for the hold observer. The predictor's d
    cancels to roundoff of <c, u> late in a run, so it is read from the
    record the oracle reads."""
    c_hat = traj.mode_rows @ discrete.c_rows.T
    if discrete.variant == "predictor":
        return traj.modal_u @ c_hat - traj.zeta
    return traj.zeta - traj.modal_e @ c_hat


def modal_oracle(traj, design, nl, dist):
    """``lyapunov_oracle``'s modal coordinates, V, vbar norms and rhs from
    the whole modal records, with its arithmetic: the modal u and e against
    the grid modes' projection, c rows and term rows; the tail by the Gram
    identity; each row's ||vbar||
    as the norm of its coefficients on the term's columns, the injection
    columns and v's and v~'s profiles times the triangular factor of those
    weighted profiles; and the rhs recurrence row by row."""
    discrete = DiscreteObserver(design, traj.metadata["variant"], traj.grid.size)
    r, V = _modal_V(traj, design)
    x_u, x_e, modes = traj.modal_u, traj.modal_e, traj.mode_rows
    injected = _injected(traj, discrete)
    rows, cols = nl.factors(traj.grid.size)
    terms = [(-1.0, ts, prof) for ts, prof in dist.v.terms]
    terms += [(1.0, ts, prof) for ts, prof in dist.v_tilde.terms]
    lift = np.vstack([cols, discrete.l_cols.T] + [prof.values(traj.grid)[None] for _, _, prof in terms])
    r_hat = modes @ rows.T
    coef = np.hstack([nl.phi((x_u + x_e) @ r_hat) - nl.phi(x_u @ r_hat), injected]
                     + [sign * ts.value(traj.times)[:, None] for sign, ts, _ in terms])
    factor = np.linalg.qr((lift * np.sqrt(traj.weights)).T, mode="r")
    vbar_norms = np.linalg.norm(coef @ factor.T, axis=1)
    rhs = _parent_rhs(traj.times, vbar_norms, float(V[0]), design.mu, design.g_tilde)
    return {"modal": r, "V": V, "vbar_norms": vbar_norms, "rhs": rhs}


def field_oracle(traj, design, nl, dist):
    """V, the vbar norms and rhs by the oracle's earlier formulas: V's tail
    the residual of the error field's head, and the vbar field of every
    snapshot, f(w) - f(u) + (v~ - v) + sum_i l_i d_i, and its trapezoid
    norm."""
    discrete = DiscreteObserver(design, traj.metadata["variant"], traj.grid.size)
    _, V = _modal_V(traj, design, fields=True)
    injected = _injected(traj, discrete)
    rows, cols = nl.factors(traj.grid.size)
    coef = np.hstack([nl.phi(traj.w @ rows.T) - nl.phi(traj.u @ rows.T), injected])
    vbar = coef @ np.vstack([cols, discrete.l_cols.T])
    if not (dist.v.is_zero and dist.v_tilde.is_zero):
        vbar -= dist.mismatch_field(traj.times[:, None], traj.grid)
    vbar_norms = np.sqrt(np.maximum(np.square(vbar) @ traj.weights, 0.0))
    rhs = _parent_rhs(traj.times, vbar_norms, float(V[0]), design.mu, design.g_tilde)
    return {"V": V, "vbar_norms": vbar_norms, "rhs": rhs}


def _saturated_two_channel_predictor(design):
    """Two channels, a tanh term, an input mismatch with a sinusoid, noise."""
    grid = uniform_grid(101)
    nl = GainSaturatedTerm(grid, weights=[pf.cosine_series(0.0, [1.0])],
                           amplitudes=[pf.cosine_series(0.3, [0.2])])
    shape = pf.cosine_series(0.5, [0.3])
    dist = Disturbances(v=SpaceTimeSignal(((TimeSignal(0.1, 0.5, 2.0), shape),)),
                        v_tilde=SpaceTimeSignal(((TimeSignal(0.1, 0.45, 2.0), shape),)),
                        xi=(NoiseSignal("sinusoid", 0.01, omega=2.0), NoiseSignal("constant", -0.02)))
    return Scenario(design=dataclasses.replace(design, lipschitz_R=nl.lipschitz_R), variant="predictor",
                    nodes=101, dt=0.01, snapshot_every=0.037, nonlinearity=nl, disturbances=dist,
                    schedule=make_schedule({"kind": "uniform", "h": 0.1, "horizon": 2.0}),
                    u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0))


@pytest.mark.parametrize("case", ["predictor", "hold-mismatch-noise", "saturated-two-channel"])
def test_oracle_norms_are_the_field_norms_to_roundoff(request, case):
    # ||vbar|| from the profiles' triangular factor against the norm of the
    # vbar field: V, the norms and rhs within 1e-12 relative, row by row
    # (fixed before the first run; the Gram form itself missed it by 2e-8 on
    # hold rows where vbar cancels to 1e-5 of its terms)
    if case == "saturated-two-channel":
        scenario = _saturated_two_channel_predictor(request.getfixturevalue("two_channel_design"))
    else:
        preset = (dict(p=0.1, h=1.0, omega=0.1, horizon=60.0, snapshot_every=0.1)
                  if case == "predictor" else
                  dict(p=1.0, h=0.05, omega=0.1, variant="zoh", noise=0.01, mismatch=0.1, nodes=101,
                       snapshot_every=0.02))
        scenario = cf.build_scenario(cf.example31_config(**preset))
    traj = quiet_simulate(scenario)
    trace = lyapunov_oracle(traj, scenario.design, nonlinearity=scenario.nonlinearity,
                            disturbances=scenario.disturbances)
    ref = field_oracle(traj, scenario.design, scenario.nonlinearity, scenario.disturbances)
    assert np.count_nonzero(ref["vbar_norms"]) > traj.times.size // 2
    for name, expected in ref.items():
        np.testing.assert_allclose(getattr(trace, name), expected, rtol=1e-12, atol=0.0,
                                   err_msg=name)


@pytest.mark.parametrize("preset, rows", [
    (dict(p=0.1, h=1.0, omega=0.1, horizon=60.0, snapshot_every=0.1), 601),
    (dict(p=1.0, h=0.05, omega=0.1, variant="zoh", noise=0.01, mismatch=0.1, nodes=101,
          snapshot_every=0.02), 1219),
    (dict(p=1.0, h=0.4, omega=0.1, horizon=25.6, nodes=101, snapshot_every=0.05), 513),
    (dict(p=1.0, h=0.25, omega=0.1, horizon=0.5, nodes=51, snapshot_every=0.05), 11),
], ids=["predictor", "hold-mismatch-noise", "one-row-past-two-blocks", "under-one-block"])
def test_oracle_has_the_bits_of_whole_modal_arrays(preset, rows):
    scenario = cf.build_scenario(cf.example31_config(**preset))
    traj = quiet_simulate(scenario)
    assert traj.times.size == rows
    trace = lyapunov_oracle(traj, scenario.design, nonlinearity=scenario.nonlinearity,
                            disturbances=scenario.disturbances)
    ref = modal_oracle(traj, scenario.design, scenario.nonlinearity, scenario.disturbances)
    for name, expected in ref.items():
        np.testing.assert_array_equal(getattr(trace, name), expected, err_msg=name)


@pytest.mark.parametrize("make_cfg", [
    lambda: cf.example31_config(p=0.1, h=1.0, omega=0.1, horizon=200.0, snapshot_every=0.1),
    _nonlinear_zoh_run,
], ids=["predictor-long", "nonlinear-zoh"])
def test_tail_is_never_below_zero_and_is_the_field_residual(make_cfg):
    # the tail read back from V is >= 0 on every row and is the residual of
    # the error field's head within 1e-12 ||e||^2 (fixed before the first
    # run), on a closed-form and a numeric basis
    scenario = cf.build_scenario(make_cfg(), seed=0)
    traj = quiet_simulate(scenario)
    design = scenario.design
    trace = lyapunov_oracle(traj, design, nonlinearity=scenario.nonlinearity,
                            disturbances=scenario.disturbances)
    head = np.einsum("si,ij,sj->s", trace.modal, design.P, trace.modal)
    tail = (trace.V - head) / (0.5 * design.Q)
    _, field_tail = _head_tail(traj, design, fields=True)
    assert np.all(tail >= 0.0)
    assert np.all(np.abs(tail - field_tail) <= 1e-12 * traj.error_l2**2)


@pytest.mark.parametrize("make_cfg", [
    lambda: cf.example31_config(p=0.1, h=1.0, omega=0.1, horizon=60.0, snapshot_every=0.1),
    _nonlinear_zoh_run,
], ids=["closed-form", "numeric"])
def test_exact_tail_is_never_below_a_truncated_tail(make_cfg):
    # V with the exact tail against V summed over N + 20 resampled modes,
    # row by row: never below it, within bounds fixed before the first run,
    # roundoff on a closed-form basis and the O(dx^2) non-orthonormality of
    # resampled numeric modes
    scenario = cf.build_scenario(make_cfg(), seed=0)
    traj = quiet_simulate(scenario)
    design = scenario.design
    V = lyapunov_oracle(traj, design, nonlinearity=scenario.nonlinearity,
                        disturbances=scenario.disturbances).V
    J = min(design.N + 20, design.basis.size)
    modes = design.basis.resample(traj.grid.size, J).functions[:J]
    r = traj.modal_e @ (traj.mode_rows @ (modes * traj.weights).T)
    truncated = np.einsum("si,ij,sj->s", r[:, :design.N], design.P, r[:, :design.N])
    truncated += 0.5 * design.Q * np.sum(r[:, design.N:] ** 2, axis=1)
    bound = 1e-14 if design.basis.closed_form else 1e-6
    assert np.all(V >= truncated * (1.0 - bound))


def test_oracle_keeps_the_error_below_the_plants_roundoff():
    # example 3.1's predictor run: from t ~ 69 on the error falls below the
    # plant's roundoff, so w - u is exactly 0 on some rows, and V read from
    # w - u was exactly 0 on 236 of these 1,001 rows (from t = 76.5). Read
    # from the modal error, V > 0 and ||e||^2 <= V within the 2% slack, with
    # no absolute floor, on every row whose error is not 0
    run = run_example_31(p=0.1, h=1.0, omega=0.1, variant="predictor", horizon=100.0,
                         snapshot_every=0.1, lyapunov=True)
    traj, V = run.trajectory, run.lyapunov.V
    e_sq = traj.error_l2**2
    live = e_sq > 0.0
    assert traj.times.size == 1001 and np.count_nonzero(live) > 900
    assert np.any(~np.any(traj.w - traj.u, axis=1) & live)
    assert np.all(V[live] > 0.0)
    assert np.all(e_sq[live] <= V[live] * (1.0 + analysis._SLACK))
    # the error on the grid is the modal error's, not w - u
    assert np.all(np.any(traj.error_fields(), axis=1)[live])


def looped_ios_bound(traj, report, dist, slack=0.02):
    """Reference for ``check_ios_bound``: the running suprema one snapshot
    at a time with explicit weights exp(kappa t), and the sample noise found
    by its time."""
    kappa, coeff = report.kappa, report.coefficients
    times, m = traj.times, traj.zeta.shape[1]
    event_noise = {e.t: np.abs(np.asarray(e.xi)) for e in traj.events}
    noise_hist, mism_hist = np.zeros((times.size, m)), np.zeros(times.size)
    run_noise, run_mism = np.zeros(m), 0.0
    for k, t in enumerate(times):
        wt = math.exp(kappa * t)
        vals = np.array([abs(s.value(t)) for s in dist.xi]) if dist.xi else np.zeros(m)
        if t in event_noise:
            vals = np.maximum(vals, event_noise[t])
        run_noise = np.maximum(run_noise, vals * wt)
        noise_hist[k] = run_noise / wt
        diff = dist.mismatch_field(t, traj.grid)
        run_mism = max(run_mism, math.sqrt(max(np.dot(traj.weights, diff * diff), 0.0)) * wt)
        mism_hist[k] = run_mism / wt
    e0 = float(traj.error_l2[0])
    rhs = coeff.initial * np.exp(-kappa * times) * e0 + noise_hist @ coeff.noise
    rhs = rhs + coeff.mismatch * mism_hist
    violations = int(np.sum(traj.error_l2 > rhs * (1.0 + slack) + 1e-12 * max(e0, 1.0)))
    return {"rhs": rhs, "margins": rhs - traj.error_l2, "noise_history": noise_hist,
            "mismatch_history": mism_hist, "violations": violations}


def _predictor_noise_mismatch_run():
    return cf.example31_config(1.0, 0.3, 0.3, "predictor", 0.01, mismatch=0.02, horizon=4.0,
                               nodes=101, modes=64)


def _hold_constant_noise_run():
    return cf.example31_config(1.0, 0.1, 0.1, "zoh", {"kind": "constant", "amplitude": 0.01},
                               horizon=2.0, nodes=101, modes=64)


def _checked_run(cfg):
    scenario = cf.build_scenario(cfg, seed=0)
    report = cf.gain_report(cfg, scenario.design)
    assert report.feasible
    return quiet_simulate(scenario), report, scenario.disturbances


@pytest.mark.parametrize("make_cfg", [_predictor_noise_mismatch_run, _nonlinear_zoh_run,
                                      _hold_constant_noise_run],
                         ids=["example31-predictor", "nonlinear-zoh", "example31-hold"])
def test_ios_bound_matches_snapshot_loop(make_cfg):
    traj, report, dist = _checked_run(make_cfg())
    chk = check_ios_bound(traj, report, dist)
    ref = looped_ios_bound(traj, report, dist)
    assert np.max(ref["noise_history"]) > 0.0
    for key in ("rhs", "noise_history", "mismatch_history"):
        np.testing.assert_allclose(getattr(chk, key), ref[key], rtol=1e-13, atol=0.0)
    assert np.all(np.abs(chk.margins - ref["margins"]) <= 1e-13 * ref["rhs"])
    assert chk.violations == ref["violations"]


def test_ios_bound_without_noise_or_mismatch_is_the_initial_term_bit_for_bit():
    traj, report, dist = _checked_run(cf.example31_config(1.0, 0.3, 0.3, horizon=2.0, nodes=101,
                                                          modes=64))
    chk = check_ios_bound(traj, report, dist)
    np.testing.assert_array_equal(chk.rhs, looped_ios_bound(traj, report, dist)["rhs"])
    assert not chk.noise_history.any() and not chk.mismatch_history.any()


def test_ios_bound_does_not_overflow_past_kappa_t_710():
    cfg = cf.example31_config(1.0, 0.2, 0.5, "predictor", 0.01, horizon=300.0, nodes=51,
                              modes=64)
    traj, report, dist = _checked_run(cfg)
    assert report.kappa * traj.times[-1] > 710.0
    with pytest.raises(OverflowError):
        looped_ios_bound(traj, report, dist)  # exp(kappa t) leaves the float range
    chk = check_ios_bound(traj, report, dist)
    assert np.all(np.isfinite(chk.rhs)) and np.all(np.isfinite(chk.noise_history))
    assert chk.violations == 0
    assert 0.0 < np.max(chk.noise_history) <= 0.01


def _mismatched_example31_run():
    # 2,001 records on 201 nodes: seven blocks of rows, the last of 465
    scenario = cf.build_scenario(cf.example31_config(p=1.0, h=0.05, omega=0.1, mismatch=0.1,
                                                     nodes=201, horizon=5.0, snapshot_every=0.0025))
    traj = quiet_simulate(scenario)
    assert traj.times.size == 2001
    return traj, scenario


def test_blocked_bound_checks_have_the_bits_of_whole_arrays():
    # check_ios_bound's mismatch field and boundary_reconstruction's fields are
    # taken a block of rows at a time; the whole-array formulas inline
    traj, scenario = _mismatched_example31_run()
    dist, kappa = scenario.disturbances, scenario.report.kappa
    chk = check_ios_bound(traj, scenario.report, dist)
    mismatch = snapshot_norms(dist.mismatch_field(traj.times[:, None], traj.grid), traj.weights)[0]
    expected = analysis._running_sup(mismatch[:, None], kappa * traj.times[:, None])[:, 0]
    assert expected.any()
    np.testing.assert_array_equal(chk.mismatch_history, expected)

    run = run_example_32(nodes=201, noise=0.01, snapshot_every=0.0025)
    traj = run.trajectory
    assert traj.times.size == 601 and run.reconstruction.noise_bound_ok is not None
    sup_error = np.max(np.abs(cumulative_trapezoid(traj.error_fields(), traj.grid)), axis=1)
    np.testing.assert_array_equal(run.reconstruction.sup_error, sup_error)
    f = np.concatenate([traj.u, traj.w])
    dx = traj.grid[1] - traj.grid[0]
    d0, _ = end_derivatives(f, dx)
    scale = np.maximum(np.max(np.abs(f), axis=1), 1e-300)
    assert run.reconstruction.bc_defect == float(np.max(np.maximum(np.abs(f[:, -1]), np.abs(d0) * dx)
                                                        / scale))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check", ["ios_bound", "boundary_reconstruction"])
def test_bound_checks_hold_blocks_of_rows_not_whole_fields(check):
    # the traced peak of a check over what was live before it: four arrays
    # of its largest block of rows and 32 vectors of one value per record
    if check == "ios_bound":
        traj, scenario = _mismatched_example31_run()
        args = (traj, scenario.report, scenario.disturbances)
        fn = check_ios_bound
    else:
        run = run_example_32(nodes=201, noise=0.01, snapshot_every=0.0025)
        traj, args, fn = run.trajectory, (run,), boundary_reconstruction
    count, n = traj.u.shape
    block = max(b.stop - b.start for b in _row_blocks(count))
    assert block < count
    assert _traced_peak(fn, *args) <= 4 * block * n * 8 + 32 * count * 8


def _looped_ends(traj):
    """(f, f'(0), f'(1), sup |f|) of every snapshot field, one at a time."""
    dx = traj.grid[1] - traj.grid[0]
    for k in range(traj.times.size):
        for f in (traj.u[k], traj.w[k]):
            d0, d1 = end_derivatives(f, dx)
            yield f, float(d0), float(d1), max(np.max(np.abs(f)), 1e-300)


@pytest.mark.parametrize("shape", [(41,), (7, 41)])
def test_cumulative_trapezoid_matches_scipy_bit_for_bit(shape):
    from scipy.integrate import cumulative_trapezoid as scipy_cumulative_trapezoid

    rng = np.random.default_rng(3)
    y = rng.standard_normal(shape)
    for x in (uniform_grid(41), np.sort(rng.uniform(0.0, 1.0, 41))):
        reference = scipy_cumulative_trapezoid(y, x, axis=len(shape) - 1, initial=0.0)
        assert np.array_equal(cumulative_trapezoid(y, x), reference)


class TestVerdicts:
    def test_thresholds(self):
        grid = uniform_grid(11)
        e0 = np.ones((1, 11))
        up = synthetic_trajectory(grid, [0.0, 1.0], np.vstack([e0, (DIVERGED_FACTOR + 1) * e0]))
        down = synthetic_trajectory(grid, [0.0, 1.0], np.vstack([e0, 0.5 * CONVERGED_FACTOR * e0]))
        flat = synthetic_trajectory(grid, [0.0, 1.0], np.vstack([e0, e0]))
        assert divergence_verdict(up) == "divergent"
        assert divergence_verdict(down) == "convergent"
        assert divergence_verdict(flat) == "inconclusive"


class TestExample31Runner:
    def test_closed_form_constants(self, ex31_design):
        p = 1.0
        assert ex31_design.A[0, 0] == pytest.approx(-p * math.pi**2 / 2.0, abs=1e-12)
        assert ex31_design.norm_l[0] == pytest.approx(p * math.pi**2, abs=1e-12)
        assert ex31_design.K <= 1e-12
        assert ex31_design.norm_gap[0] == pytest.approx(1.0 / (2 * math.sqrt(3.0)), abs=1e-12)
        assert ex31_design.sigma == pytest.approx(p * math.pi**2 / 2.0, abs=1e-12)
        assert ex31_design.mu == pytest.approx(p * math.pi**2 / 2.0, abs=1e-10)
        assert ex31_design.g_tilde == pytest.approx(2.0 / (p * math.pi**2), abs=1e-12)

    def test_predictor_run_decays_and_bounds_hold(self):
        rep = run_example_31(p=1.0, h=0.5, omega=0.1, variant="predictor",
                             horizon=8.0, nodes=101)
        assert rep.report.feasible
        assert rep.fit is not None and rep.fit.rate >= rep.kappa
        assert rep.ios is not None and rep.ios.violations == 0

    def test_omega_matches_formula(self):
        rep = run_example_31(p=1.0, h=0.3, omega=0.4, variant="zoh", horizon=3.0, nodes=101)
        kappa = 0.4 * math.pi**2 / 2.0
        ref = math.exp(kappa * 0.3) * (0.3 * math.pi**2 + 1.0) / math.sqrt(6.0 * 0.6)
        assert rep.report.omega == pytest.approx(ref, rel=1e-12)

    def test_rejects_bad_omega(self):
        with pytest.raises(ConfigError, match="gain.omega"):
            run_example_31(omega=1.0)


class TestExample32Runner:
    def test_closed_form_constants(self, ex32_design):
        p, q = 1.0, 0.0
        assert ex32_design.A[0, 0] == pytest.approx(-9 * p * math.pi**2 / 8 - q / 2, abs=1e-12)
        assert ex32_design.c_coeffs[0, 0] == pytest.approx(2 * math.sqrt(2) / math.pi, abs=1e-12)
        assert ex32_design.K <= 1e-12
        # honest closed form of || k - c || for k = 1, c = (4/pi) cos(pi x/2)
        assert ex32_design.norm_gap[0] == pytest.approx(
            math.sqrt(math.pi**2 - 8.0) / math.pi, abs=1e-12
        )
        assert ex32_design.norm_stiff[0] == pytest.approx(
            (p * math.pi**2 + 4 * q) / (math.sqrt(2.0) * math.pi), abs=1e-12
        )

    def test_feasible_pair_exists(self, ex32_design):
        # Omega at (kappa, h) -> (0, 0+) is below one, so a feasible pair exists
        rep = small_gain_predictor(ex32_design, 1e-9, 0.0)
        assert rep.omega < 1.0

    def test_reaction_range_guard(self):
        with pytest.raises(ReactionOutOfRange):
            run_example_32(p=1.0, q=20.0)

    def test_has_no_lyapunov_option(self):
        # the boundary-measurement runner has no decay-functional oracle,
        # so asking for one must fail rather than be skipped without a word
        with pytest.raises(TypeError):
            run_example_32(lyapunov=True)

    def test_end_to_end_reconstruction(self):
        rep = run_example_32(p=1.0, q=0.0, omega=0.3, nodes=101)
        rec = rep.reconstruction
        assert rep.report.feasible
        assert rec.sup_error[0] > 0.0
        assert rec.sup_error[-1] < 1e-6 * rec.sup_error[0]
        assert rec.sup_fit is not None and rec.sup_fit.rate >= rep.kappa
        assert rec.bc_defect < 1e-6
        dx = rep.trajectory.grid[1] - rep.trajectory.grid[0]
        looped = max(max(abs(f[-1]) / scale, abs(d0) * dx / scale)
                     for f, d0, _, scale in _looped_ends(rep.trajectory))
        assert rec.bc_defect == looped
        # sup-norm error never exceeds the L2 bound carried through the
        # cumulative-integration map (unit operator norm)
        assert np.all(rec.sup_error <= rep.trajectory.error_l2 * (1.0 + 1e-9) + 1e-15)

    def test_constant_noise_bound(self):
        rep = run_example_32(p=1.0, q=0.0, omega=0.3,
                             noise={"kind": "constant", "amplitude": 0.01}, nodes=101)
        assert rep.reconstruction.noise_bound is not None
        assert rep.reconstruction.noise_bound_ok


    def test_builds_the_design_once(self, monkeypatch):
        calls = []
        build = cf.build_design

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        # the runner and the preset each reach build_design through their own module
        monkeypatch.setattr(cf, "build_design", counted)
        monkeypatch.setattr("parobs.analysis.build_design", counted)
        run_example_32(nodes=51, horizon=1.0)
        assert len(calls) == 1


def test_reconstruction_of_a_scenario_without_noise(ex32_design):
    # a Scenario left with the default Disturbances() has no noise: m zero signals
    sch = make_schedule({"kind": "uniform", "h": 0.05, "horizon": 1.0})
    sc = Scenario(design=ex32_design, variant="predictor", schedule=sch, nodes=51,
                  u0=pf.cosine(math.sqrt(2.0), math.pi / 2.0), w0=pf.constant(0.0))
    assert sc.disturbances.xi == (NoiseSignal(channel=0),)
    run = check_run(quiet_simulate(sc), sc)
    rec = boundary_reconstruction(run)
    assert rec.noise_bound is None and rec.noise_bound_ok is None
    assert rec.sup_error[0] > 0.0


def test_run_records_h_star_and_verdict_beyond_the_worked_designs():
    # two channels, a numeric Robin / variable-q basis, a random schedule, a tanh term
    cfg = json.loads(NONLINEAR_ZOH.read_text())
    cfg["schedule"]["horizon"] = 2.0
    scenario = cf.build_scenario(cfg, seed=0)
    traj = quiet_simulate(scenario)
    run = check_run(traj, scenario)
    assert run.h_star == max_diameter(scenario.design, scenario.kappa, "zoh")
    assert 0.0 < run.h_star < math.inf
    assert run.verdict == divergence_verdict(traj)
    doc = run.to_dict()
    assert (doc["h_star"], doc["verdict"]) == (run.h_star, run.verdict)
    assert doc["design"] == design_to_json(scenario.design)
    assert run.reconstruction is None and "reconstruction" not in doc


def test_failed_reconstruction_bound_is_a_violation():
    rep = run_example_32(p=1.0, q=0.0, omega=0.3,
                         noise={"kind": "constant", "amplitude": 0.01}, nodes=101)
    assert not rep.violated
    failed = dataclasses.replace(rep.reconstruction, noise_bound_ok=False)
    assert dataclasses.replace(rep, reconstruction=failed).violated
    assert rep.to_dict()["reconstruction"] == rep.reconstruction.to_dict()


def test_default_fit_window_skips_transient(ex31_design):
    sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 5.0})
    sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=101,
                  u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0))
    traj = quiet_simulate(sc)
    t0, t1 = default_fit_window(traj, 0.5)
    assert t0 == pytest.approx(1.5)
    assert t1 > t0


@pytest.fixture(scope="module")
def nonlinear_zoh_design():
    return cf.build_design(cf.load_config(NONLINEAR_ZOH))


def _grid_generator(design, variant, nodes):
    """The (free nodes + m) generator of the error e and the observer's second
    state in the Crank-Nicolson stepper's own coordinates, with the reset of
    a sample: for the predictor (e, z = zeta - C u), z' = -C B_h e, reset to
    (C - K) e + xi; for the hold (e, eta), eta' = 0, reset to K e - xi.
    Returns the generator, the reset's e and xi columns."""
    discrete = DiscreteObserver(design, variant, nodes)
    free = discrete.op.free
    sub, diag, sup = discrete.op.free_tridiagonals()
    B = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
    L, C, K = discrete.l_cols[free], discrete.c_rows[:, free], discrete.k_rows[:, free]
    n, m = B.shape[0], L.shape[1]
    if variant == "predictor":
        gen = np.block([[-B + L @ C, -L], [-C @ B, np.zeros((m, m))]])
        return gen, np.vstack([np.eye(n), C - K]), np.vstack([np.zeros((n, m)), np.eye(m)])
    gen = np.block([[-B, L], [np.zeros((m, n + m))]])
    return gen, np.vstack([np.eye(n), K]), np.vstack([np.zeros((n, m)), -np.eye(m)])


@pytest.mark.parametrize("tau", [0.025, 0.3])
@pytest.mark.parametrize("variant", ["predictor", "zoh"])
@pytest.mark.parametrize("name", ["ex31_design", "ex32_design", "two_channel_design",
                                  "nonlinear_zoh_design"])
def test_error_map_is_the_exponential_of_the_generator(request, name, variant, tau):
    # the closed form against scipy's expm of the grid generator times the
    # reset; 1e-10 relative was fixed before the first run from the 2e-13 to
    # 3.5e-11 measured on example 3.1. The two-channel predictor takes the
    # Van Loan block exponentials, the others the scalar response
    from scipy.linalg import expm

    design = request.getfixturevalue(name)
    M, noise = analysis.error_map(design, variant, tau, 101)
    gen, reset, xi_cols = _grid_generator(design, variant, 101)
    flow = expm(gen * tau)
    n = reset.shape[1]
    free = DiscreteObserver(design, variant, 101).op.free
    for got, want in ((M[free][:, free], (flow @ reset)[:n]), (noise[free], (flow @ xi_cols)[:n])):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    pinned = np.ones(101, dtype=bool)
    pinned[free] = False
    assert not M[pinned].any() and not M[:, pinned].any() and not noise[pinned].any()


@pytest.mark.parametrize("variant, tau, rate", [
    ("zoh", 0.025, 5.266813), ("zoh", 0.1, 6.801919), ("zoh", 0.4, 0.066063),
    ("predictor", 0.1, 4.934802), ("predictor", 0.4, 4.934802),
], ids=["hold-0.025", "hold-0.1", "hold-0.4", "predictor-0.1", "predictor-0.4"])
def test_error_map_rates_on_example_31(ex31_design, variant, tau, rate):
    # -ln rho(M(tau)) / tau on 201 nodes: the hold's rate is not monotone in
    # tau, and the predictor's is mu = pi^2 / 2 at every gap
    M, _ = analysis.error_map(ex31_design, variant, tau, 201)
    assert -math.log(np.abs(np.linalg.eigvals(M)).max()) / tau == pytest.approx(rate, abs=5e-7)


@pytest.mark.parametrize("name", ["ex31_design", "ex32_design", "nonlinear_zoh_design"])
def test_zeta_rate_rows_are_minus_c_rows_times_b_h(request, name):
    # the predictor's zeta moves at -<B_h c_i, w>, and that is -C B_h w to
    # roundoff, by the self-adjointness of B_h in the trapezoid weights: the
    # identity that makes the (e, eta) generator block triangular. It holds
    # on the free nodes, where the error lives; each entry is within 16 ulps
    # of the size of the terms summed into it (example 3.2 reads 8.5 at its
    # last free node)
    design = request.getfixturevalue(name)
    discrete = DiscreteObserver(design, "predictor", 201)
    op, c_rows = discrete.op, discrete.c_rows
    B = np.diag(op.diag) + np.diag(op.sub, -1) + np.diag(op.sup, 1)
    c = [ch.approximant.values(op.grid) for ch in design.channels]
    rate = (-np.vstack([op.apply(ci) for ci in c]) * op.weights)[:, op.free]
    defect = np.abs(rate + (c_rows @ B)[:, op.free])
    terms = (np.abs(c_rows) @ np.abs(B))[:, op.free] + np.abs(rate)
    assert np.all(defect <= 16 * np.finfo(float).eps * terms)


def test_tail_lengths_are_deprecated_and_ignored():
    # the oracle reads the design's N head modes whatever tail is given
    preset = dict(h=0.3, horizon=3.0, lyapunov=True)
    plain = run_example_31(**preset)
    with pytest.warns(DeprecationWarning, match="lyapunov_tail is deprecated and ignored"):
        given = run_example_31(**preset, lyapunov_tail=0)
    np.testing.assert_array_equal(given.lyapunov.V, plain.lyapunov.V)
    traj, design = plain.trajectory, plain.design
    assert plain.lyapunov.modal.shape == (traj.times.size, design.N)
    with pytest.warns(DeprecationWarning, match="J_tail is deprecated and ignored"):
        trace = lyapunov_oracle(traj, design, 20)
    np.testing.assert_array_equal(trace.V, lyapunov_oracle(traj, design).V)

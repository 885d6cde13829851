import dataclasses
import decimal
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parobs import profiles as pf
from parobs.errors import (
    ConfigError, GridMismatch, InvalidSpec, KappaOutOfRange, StepRejected,
)
from parobs.config import build_scenario, example31_config, load_config
from parobs.grids import _row_blocks, end_derivatives, snapshot_norms, trapezoid_weights, uniform_grid
from parobs.nonlinear import GainSaturatedTerm, LinearNonlocalTerm, ZeroTerm
from parobs.observer_design import OutputChannel, injection_kernels, make_design, small_gain
from parobs.schedule import make_schedule
from parobs.signals import Disturbances, NoiseSignal, SpaceTimeSignal, TimeSignal
from parobs import simulator
from parobs.simulator import (
    DiscreteObserver,
    GridModes,
    Scenario,
    simulate,
    step_observer_predictor,
    step_observer_zoh,
    step_plant,
)
from parobs.sturm_liouville import DiscreteSLOperator, SLProblem, analytic_eigensystem
from parobs.analysis import check_run, example31_design


def quiet_simulate(scenario):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate(scenario)


NN = SLProblem(p=1.0, q=0.0, a0=0, b0=1, a1=0, b1=1)
BENCHMARKS = Path(__file__).parents[1] / "benchmarks"


class TestMeasure:
    """The sample y = <k, u> + xi, read with DiscreteObserver.k_rows; example
    3.1's kernel is k = x."""

    def test_zero_state(self, ex31_design):
        rows = DiscreteObserver(ex31_design, "predictor", 101).k_rows
        assert (rows @ np.zeros(101) + np.zeros(1))[0] == 0.0

    def test_weighted_average_of_constant(self, ex31_design):
        # trapezoid quadrature of x * 1 is exact for the linear kernel
        rows = DiscreteObserver(ex31_design, "predictor", 101).k_rows
        y = rows @ np.ones(101) + np.zeros(1)
        assert y[0] == pytest.approx(0.5, rel=1e-14)

    def test_noise_shifts_linearly(self, ex31_design):
        rows = DiscreteObserver(ex31_design, "predictor", 101).k_rows
        y0 = rows @ np.ones(101) + np.zeros(1)
        y1 = rows @ np.ones(101) + np.array([0.25])
        assert y1[0] - y0[0] == pytest.approx(0.25, abs=1e-15)


class TestPlantStep:
    def test_heat_mode_decay_rate(self):
        # u0 = phi_2 decays like exp(-lambda_2 t) within discretization error
        nodes, dt, T = 201, 1e-3, 0.2
        grid = uniform_grid(nodes)
        w = trapezoid_weights(grid)
        phi2 = math.sqrt(2.0) * np.cos(math.pi * grid)
        u = phi2.copy()
        steps = int(round(T / dt))
        for k in range(steps):
            u = step_plant(u, k * dt, dt, NN, None, None)
        amp = np.dot(w, u * phi2)
        rate = -math.log(amp) / T
        assert rate == pytest.approx(math.pi**2, rel=1e-4)

    def test_mean_mode_conserved(self):
        u = np.ones(101)
        out = step_plant(u, 0.0, 0.01, NN, None, None)
        np.testing.assert_allclose(out, 1.0, rtol=0, atol=1e-13)

    def test_zero_stays_zero(self):
        out = step_plant(np.zeros(101), 0.0, 0.01, NN, None, None)
        np.testing.assert_array_equal(out, np.zeros(101))

    def test_input_enters_as_its_field(self):
        # the step reads v through its modal profiles; it must be the
        # trapezoidal step with v.field(t) and v.field(t + dt), solved here with
        # dense matrices, to roundoff (1e-12 of the step, fixed before the first run)
        op = DiscreteSLOperator(NN, 101)
        v = SpaceTimeSignal(terms=(
            (TimeSignal(offset=0.3, amplitude=0.2, omega=2.0), pf.cosine_series(0.5, [0.4])),
            (TimeSignal(offset=-0.1), pf.polynomial([0.0, 1.0, -0.5])),
        ))
        B = np.diag(op.diag) + np.diag(op.sub, -1) + np.diag(op.sup, 1)
        u0 = 1.0 + 0.5 * np.cos(math.pi * op.grid)
        for t, dt in ((0.0, 0.01), (0.37, 0.05), (2.5, 0.2)):
            h, eye = 0.5 * dt, np.eye(101)
            want = np.linalg.solve(eye + h * B, (eye - h * B) @ u0
                                   + h * (v.field(t, op.grid) + v.field(t + dt, op.grid)))
            got = step_plant(u0, t, dt, NN, None, v)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("gain", [300.0, -300.0])
    def test_stiff_nonlocal_step_is_exact_trapezoid(self, gain):
        # u' = gain * <1, u> keeps u constant; the trapezoidal factor is (1 + h g) / (1 - h g)
        grid = uniform_grid(101)
        stiff = LinearNonlocalTerm(grid, a=1.0, b=1.0, gain=gain)
        out = step_plant(np.ones(101), 0.0, 0.05, NN, stiff, None)
        np.testing.assert_allclose(out, (1.0 + 0.025 * gain) / (1.0 - 0.025 * gain), rtol=1e-13)

    def test_stiff_saturated_step_solves_trapezoid(self):
        grid = uniform_grid(101)
        op = DiscreteSLOperator(NN, 101)
        B = np.diag(op.diag) + np.diag(op.sub, -1) + np.diag(op.sup, 1)
        nl = GainSaturatedTerm(grid, weights=[1.0], amplitudes=[-300.0])
        u0, h = np.ones(101), 0.025
        u1 = step_plant(u0, 0.0, 0.05, NN, nl, None)
        residual = u1 + h * (B @ u1 - nl.apply(u1)) - (u0 - h * (B @ u0 - nl.apply(u0)))
        np.testing.assert_allclose(residual, 0.0, atol=1e-11)

    def test_singular_coupling_jacobian_rejects_step(self):
        # h * gain = 1 is the pole of the trapezoidal factor; the 1x1 Jacobian
        # is -1e-15, whose condition number is 1
        stiff = LinearNonlocalTerm(uniform_grid(101), a=1.0, b=1.0, gain=40.0)
        with pytest.raises(StepRejected, match="dt=0.05"):
            step_plant(np.ones(101), 0.0, 0.05, NN, stiff, None)

    def test_rejected_dt_leaves_the_previous_factors_held(self):
        # the rejected dt = 0.05 passes M1 before its Jacobian fails; the
        # stepper must still hold dt = 0.01's factors, not a half-built set
        stiff = LinearNonlocalTerm(uniform_grid(101), a=1.0, b=1.0, gain=40.0)
        modes = simulator._Eigenbasis(DiscreteSLOperator(NN, 101))
        stepper, fresh = (simulator._Trapezoid(modes, stiff) for _ in range(2))
        stepper.factor(0.01)
        fresh.factor(0.01)
        with pytest.raises(StepRejected, match="dt=0.05"):
            stepper.factor(0.05)
        assert stepper.dt == 0.01
        x, zero = modes.project(np.ones(101)), np.zeros(1)
        np.testing.assert_array_equal(stepper.advance(x, 0.0, zero, zero, np.zeros_like(x)),
                                      fresh.advance(x, 0.0, zero, zero, np.zeros_like(x)))

    @pytest.mark.parametrize("wrapper", ["plant", "predictor", "zoh"])
    def test_term_with_a_value_at_zero_is_stepped_whole(self, ex31_design, wrapper):
        # phi(0) != 0 makes f(0) = phi(0) C a constant forcing, which a field
        # stepped alone must feel: each wrapper is the dense trapezoidal step
        # of w' = -B w + f(w) + L d with d = C w - zeta, the held d or none,
        # to 1e-12 of the step (fixed before the first run)
        grid = uniform_grid(101)
        shifted = GainSaturatedTerm(grid, weights=[pf.cosine_series(0.0, [1.0])],
                                    amplitudes=[pf.cosine_series(0.3, [0.2])])
        shifted.phi = lambda z: np.tanh(z) + 0.5
        assert np.abs(shifted.apply(np.zeros(101))).max() > 0.1
        discrete = DiscreteObserver(ex31_design, "zoh" if wrapper == "zoh" else "predictor", 101)
        op, dt, h, d = discrete.op, 0.05, 0.025, np.array([0.2])
        B = np.diag(op.diag) + np.diag(op.sub, -1) + np.diag(op.sup, 1)
        w0 = 1.0 + 0.5 * np.cos(math.pi * grid)
        if wrapper == "plant":
            got = step_plant(w0, 0.0, dt, ex31_design.problem, shifted, None)
            injected = np.zeros(101)
        else:
            # d = C w - zeta for the predictor, whose d follows d' = (C L) d
            a = (discrete.c_rows @ discrete.l_cols)[0, 0] if wrapper == "predictor" else 0.0
            injected = discrete.l_cols @ (d + d * (1 + h * a) / (1 - h * a))
            got = (step_observer_zoh(w0, d, 0.0, dt, ex31_design, shifted, None) if wrapper == "zoh"
                   else step_observer_predictor(w0, discrete.c_rows @ w0 - d, 0.0, dt, ex31_design,
                                                shifted, None)[0])
        want = w0
        for _ in range(100):
            nxt = np.linalg.solve(np.eye(101) + h * B, w0 - h * (B @ w0) + h * (
                shifted.apply(w0) + shifted.apply(want) + injected))
            want, moved = nxt, np.abs(nxt - want).max()
            if moved <= 1e-15:
                break
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_step_next_to_the_pole_is_taken(self):
        # a Jacobian of 2.5e-8 is ill conditioned but not singular: the step is
        # the trapezoidal one to ~1e-8
        gain = 39.999999
        stiff = LinearNonlocalTerm(uniform_grid(101), a=1.0, b=1.0, gain=gain)
        out = step_plant(np.ones(101), 0.0, 0.05, NN, stiff, None)
        np.testing.assert_allclose(out, (1.0 + 0.025 * gain) / (1.0 - 0.025 * gain), rtol=1e-6)

    def test_singular_crank_nicolson_matrix_rejects_step(self):
        # 1 + (dt/2) q = 0 with Neumann ends: the constant mode makes M1 singular
        growth = SLProblem(p=1.0, q=-2.0, a0=0, b0=1, a1=0, b1=1)
        with pytest.raises(StepRejected, match="dt=1"):
            step_plant(np.ones(11), 0.0, 1.0, growth, None, None)

    def test_step_rejected_for_stiff_saturated_term(self):
        # a destabilizing tanh with dt * amplitude >> 1: the chord iteration cannot settle
        grid = uniform_grid(101)
        stiff = GainSaturatedTerm(grid, weights=[1.0], amplitudes=[3000.0])
        with pytest.raises(StepRejected):
            step_plant(np.ones(101), 0.0, 0.05, NN, stiff, None)


def _reset_zeta(design, nodes: int, w0, y: float) -> float:
    """The predictor state that a stepped run's first sample records, with
    u = 0 and the noise y, so that the sample reads y."""
    nl = LinearNonlocalTerm(uniform_grid(nodes), a=1.0, b=1.0, gain=0.01)
    sc = Scenario(design=dataclasses.replace(design, lipschitz_R=nl.lipschitz_R), variant="predictor",
                  nodes=nodes, u0=0.0, w0=w0, nonlinearity=nl,
                  schedule=make_schedule({"kind": "explicit", "times": [0.0, 0.1]}),
                  disturbances=Disturbances(xi=(NoiseSignal("constant", y),)))
    traj = quiet_simulate(sc)
    assert traj.metadata["scheme"] == "imex-crank-nicolson"
    assert traj.sample_flag[0] and traj.times[0] == 0.0
    return float(traj.zeta[0, 0])


class TestPredictorPieces:
    def test_reset_matches_weighted_output_difference(self, ex31_design):
        # example 3.1: k - c = x - 1/2
        grid = uniform_grid(101)
        w = trapezoid_weights(grid)
        field = np.cos(math.pi * grid) + 0.3
        expected = 0.7 - np.dot((grid - 0.5) * w, field)
        assert _reset_zeta(ex31_design, 101, field, 0.7) == pytest.approx(expected, rel=1e-14)

    def test_reset_with_matching_kernels_returns_measurement(self, ex31_design):
        channel = OutputChannel(pf.constant(0.5), pf.constant(0.5))  # k = c
        design = dataclasses.replace(ex31_design, channels=(channel,))
        field = np.random.default_rng(0).standard_normal(11)
        assert _reset_zeta(design, 11, field, 1.23) == 1.23

    def test_predictor_rate_reduces_to_input_average(self, ex31_design):
        # constant approximant and zero reaction: zeta follows the mean of v~
        vt = SpaceTimeSignal(terms=((TimeSignal(offset=2.0), pf.constant(1.0)),))
        w0 = np.zeros(101)
        zeta0 = np.zeros(1)
        dt = 0.01
        w1, zeta1 = step_observer_predictor(w0, zeta0, 0.0, dt, ex31_design, None, vt)
        # d zeta / dt = <c, v~> = 0.5 * 2.0 = 1.0
        assert zeta1[0] == pytest.approx(dt * 1.0, rel=1e-12)

    def test_zero_error_fixed_point_single_step(self, ex31_design):
        grid = uniform_grid(101)
        w = trapezoid_weights(grid)
        u = 1.0 + 0.5 * np.cos(math.pi * grid)
        zeta = np.array([np.dot(0.5 * w, u)])
        u_next = step_plant(u, 0.0, 0.01, ex31_design.problem, None, None)
        w_next, zeta_next = step_observer_predictor(u.copy(), zeta, 0.0, 0.01, ex31_design, None, None)
        np.testing.assert_allclose(w_next, u_next, atol=1e-13)
        assert zeta_next[0] == pytest.approx(np.dot(0.5 * w, u_next), abs=1e-13)

    @pytest.mark.parametrize("gain, dt", [(0.4, 0.01), (300.0, 0.05), (-300.0, 0.05)])
    def test_two_channel_step_matches_dense_trapezoid(self, nn_problem, nn_basis, gain, dt):
        # the low-rank corrector gives the trapezoidal step of the full linear
        # (w, zeta) system, solved here with dense matrices, also for dt * gain >> 1
        channels = [
            OutputChannel(kernel=pf.polynomial([0.0, 1.0]), approximant=pf.constant(0.5)),
            OutputChannel(kernel=pf.polynomial([0.0, 0.0, 1.0]), approximant=pf.cosine(1.0, math.pi)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            design = make_design(nn_problem, nn_basis, channels, np.array([[-2.0, 0.0], [0.0, -1.0]]),
                                 N=2, sigma_fraction=0.9)
        nodes, t = 41, 0.3
        grid = uniform_grid(nodes)
        wts = trapezoid_weights(grid)
        a_prof, b_prof = pf.cosine_series(0.5, [0.3]), pf.polynomial([1.0, -0.5])
        nl = LinearNonlocalTerm(grid, a=a_prof, b=b_prof, gain=gain)
        vt = SpaceTimeSignal(terms=((TimeSignal(amplitude=0.3, omega=1.5), pf.cosine_series(0.1, [0.4])),))
        w0 = 1.0 + 0.5 * np.cos(math.pi * grid) + 0.2 * grid**2
        zeta0 = np.array([0.3, -0.2])
        w1, zeta1 = step_observer_predictor(w0, zeta0, t, dt, design, nl, vt)

        op = DiscreteSLOperator(nn_problem, nodes)
        B = np.diag(op.diag) + np.diag(op.sub, -1) + np.diag(op.sup, 1)
        c = np.vstack([ch.approximant.values(grid) for ch in channels])
        C = c * wts
        S = -(B @ c.T).T * wts
        l = injection_kernels(design.L, design.basis.resample(nodes))[0].T
        F = gain * np.outer(a_prof.values(grid), b_prof.values(grid) * wts)
        J = np.block([[-B + F + l @ C, -l], [S + C @ F, np.zeros((2, 2))]])

        def forcing(tt):
            v = vt.field(tt, grid)
            return np.concatenate([v, C @ v])

        x0 = np.concatenate([w0, zeta0])
        eye = np.eye(nodes + 2)
        x1 = np.linalg.solve(eye - 0.5 * dt * J,
                             (eye + 0.5 * dt * J) @ x0 + 0.5 * dt * (forcing(t) + forcing(t + dt)))
        np.testing.assert_allclose(w1, x1[:nodes], rtol=0, atol=1e-12)
        np.testing.assert_allclose(zeta1, x1[nodes:], rtol=0, atol=1e-12)


class TestZohStep:
    def test_zero_innovation_is_open_loop(self, ex31_design):
        grid = uniform_grid(101)
        u = np.cos(math.pi * grid)
        plant_next = step_plant(u, 0.0, 0.01, ex31_design.problem, None, None)
        obs_next = step_observer_zoh(u.copy(), np.zeros(1), 0.0, 0.01, ex31_design, None, None)
        np.testing.assert_allclose(obs_next, plant_next, atol=1e-14)

    def test_innovation_drives_mean_mode(self, ex31_design):
        held = np.array([0.5])
        w0 = np.zeros(101)
        dt = 0.01
        w1 = step_observer_zoh(w0, held, 0.0, dt, ex31_design, None, None)
        # injection l * held = -pi^2 * 0.5 acts uniformly
        np.testing.assert_allclose(w1, -(math.pi**2) * 0.5 * dt, rtol=1e-10)


class TestSimulate:
    def test_zero_scenario(self, ex31_design):
        sch = make_schedule({"kind": "uniform", "h": 0.25, "horizon": 1.0})
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=101,
                      u0=pf.constant(0.0), w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        assert np.all(traj.error_l2 == 0.0)

    @pytest.mark.parametrize("variant", ["predictor", "zoh"])
    def test_zero_error_invariance(self, ex31_design, variant):
        u0 = pf.cosine_series(1.0, [0.5, -0.2])
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 5.0})
        vt = SpaceTimeSignal(terms=((TimeSignal(amplitude=0.3, omega=1.5), pf.cosine_series(0.1, [0.4])),))
        dist = Disturbances(v=vt, v_tilde=vt, xi=(NoiseSignal(),))
        sc = Scenario(design=ex31_design, variant=variant, schedule=sch, nodes=101,
                      u0=u0, w0=u0, disturbances=dist)
        traj = quiet_simulate(sc)
        u_norms = np.sqrt((traj.u**2) @ traj.weights)
        assert np.max(traj.error_l2 / np.maximum(u_norms, 1e-300)) <= 1e-9

    def test_linearity_of_error_dynamics(self, ex31_design):
        # R = 0: scaling the initial error scales ||e|| exactly
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 3.0})
        base = pf.cosine_series(1.0, [0.5])
        norms = {}
        for alpha in (1.0, 3.0):
            w0 = pf.cosine_series(1.0 - alpha * 1.0, [0.5 - alpha * 0.5])
            # u0 - w0 = alpha * (1 + 0.5 cos(pi x)) shifted: construct directly
            u0 = base
            w0 = (1.0 - alpha) * base
            sc = Scenario(design=ex31_design, variant="predictor", schedule=sch,
                          nodes=101, u0=u0, w0=w0)
            norms[alpha] = quiet_simulate(sc).error_l2
        mask = norms[1.0] >= 1e-5 * norms[1.0][0]
        ratio = norms[3.0][mask] / norms[1.0][mask]
        assert np.max(np.abs(ratio - 3.0)) <= 1e-8 * 3.0

    def test_sample_alignment_and_event_subset(self, ex31_design):
        sch = make_schedule({"kind": "random", "h_min": 0.1, "h_max": 0.3, "horizon": 2.0, "seed": 5})
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=101,
                      u0=pf.constant(1.0), w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        traj.validate()
        snap_times = set(traj.times.tolist())
        for ev in traj.events:
            assert ev.t in snap_times
        assert np.all(np.diff(traj.times) > 0)

    def test_predictor_zeta_is_right_continuous_at_samples(self, ex31_design):
        # the sample row records zeta after the reset y - <k - c, w>, y = <k, u> + xi
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 1.0})
        noise = Disturbances(xi=(NoiseSignal("sinusoid", 0.01, omega=2.0, phase=0.3),))
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=101,
                      u0=pf.cosine_series(1.0, [0.4]), w0=pf.constant(0.0), disturbances=noise)
        traj = quiet_simulate(sc)
        discrete = DiscreteObserver(ex31_design, "predictor", 101)
        assert len(traj.events) == 3
        for ev in traj.events:
            k = int(np.searchsorted(traj.times, ev.t))
            assert traj.times[k] == ev.t and traj.sample_flag[k]
            assert ev.xi[0] != 0.0
            y = discrete.k_rows @ traj.u[k] + ev.xi
            reset = y - (discrete.k_rows - discrete.c_rows) @ traj.w[k]
            assert traj.zeta[k, 0] == pytest.approx(reset[0], abs=1e-15)

    def test_divergence_above_uniform_threshold(self):
        # hold-variant observer diverges for uniform periods above 4/(p pi^2)
        design = example31_design(p=1.0)
        h = 0.5
        sch = make_schedule({"kind": "uniform", "h": h, "horizon": 40 * h})
        sc = Scenario(design=design, variant="zoh", schedule=sch, nodes=101,
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        assert traj.error_l2[-1] > 10.0 * traj.error_l2[0]

    def test_run_ends_at_the_schedule_horizon(self, ex31_design):
        # an explicit schedule may declare a horizon before its last sample:
        # the run samples up to that horizon and ends there
        sch = make_schedule({"kind": "explicit", "times": [0.0, 0.5, 1.0, 1.5], "horizon": 1.2})
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=101,
                      u0=pf.constant(1.0), w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        assert traj.times[-1] == traj.metadata["horizon"] == 1.2
        assert [e.t for e in traj.events] == [0.0, 0.5, 1.0]

    def test_dirichlet_initial_field_enforced(self, ex32_design):
        sch = make_schedule({"kind": "uniform", "h": 0.1, "horizon": 0.5})
        sc = Scenario(design=ex32_design, variant="predictor", schedule=sch, nodes=101,
                      u0=pf.constant(1.0), w0=pf.constant(0.0))
        with pytest.raises(ValueError, match="Dirichlet"):
            quiet_simulate(sc)

    def test_bc_residuals_along_dirichlet_run(self, ex32_design):
        sch = make_schedule({"kind": "uniform", "h": 0.05, "horizon": 0.5})
        u0 = pf.cosine(math.sqrt(2.0), math.pi / 2.0)
        sc = Scenario(design=ex32_design, variant="predictor", schedule=sch, nodes=101,
                      u0=u0, w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        # example 3.2 pins x = 1 only: read the pinned entry of every snapshot
        assert ex32_design.problem.dirichlet_right and not ex32_design.problem.dirichlet_left
        for fields in (traj.u, traj.w):
            scale = np.maximum(np.max(np.abs(fields), axis=1), 1e-300)
            assert np.all(np.abs(fields[:, -1]) <= 1e-8 * scale)

    @pytest.mark.parametrize("kind", ["uniform", "random"])
    @pytest.mark.parametrize("mismatch", [0.0, 1.0], ids=["no_input", "constant_input"])
    def test_plant_pinned_at_zero(self, kind, mismatch):
        # Dirichlet at 0, Neumann at 1: lambda_1 = pi^2/4, phi_1 = sqrt(2) sin(pi x/2);
        # k = 1 and c = (4/pi) sin(pi x/2) with L placing A at -pi^2/2; a
        # constant input would move x = 0 if the pin missed it
        problem = SLProblem(p=1.0, q=0.0, a0=1.0, b0=0.0, a1=0.0, b1=1.0)
        basis = analytic_eigensystem(problem, 40, 1001)
        channel = OutputChannel(kernel=pf.constant(1.0), approximant=pf.sine(4.0 / math.pi, math.pi / 2.0))
        L = -math.pi**3 / (8.0 * math.sqrt(2.0))
        design = make_design(problem, basis, [channel], np.array([[L]]), N=1, Q=2.0, sigma_fraction=1.0)
        assert design.A[0, 0] == pytest.approx(-math.pi**2 / 2.0, rel=1e-12)
        schedule = make_schedule({"uniform": {"kind": "uniform", "h": 0.1, "horizon": 1.0},
                                  "random": {"kind": "random", "h_min": 0.05, "h_max": 0.15,
                                             "horizon": 1.0, "seed": 3}}[kind])
        v = SpaceTimeSignal(terms=((TimeSignal(offset=mismatch), pf.constant(1.0)),))
        u0 = pf.sine(1.0, math.pi / 2.0) + 0.3 * pf.sine(1.0, 1.5 * math.pi)
        sc = Scenario(design=design, variant="predictor", schedule=schedule, nodes=101, dt=0.01,
                      u0=u0, w0=u0, disturbances=Disturbances(v=v, v_tilde=v))
        traj = quiet_simulate(sc)
        assert traj.metadata["integrator"] == {"modes": 100, "steps": 0}
        assert traj.error_l2.max() <= 1e-14  # the matched run: roundoff of v~ - v only
        assert np.all(traj.u[:, 0] == 0.0) and np.all(traj.w[:, 0] == 0.0)
        assert np.abs(traj.u[-1]).max() > 0.01

    def test_boundary_compatibility_residual(self, ex31_design):
        # the integration-by-parts boundary term vanishes to O(dx^2)
        sch = make_schedule({"kind": "uniform", "h": 0.25, "horizon": 1.0})
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=201,
                      u0=pf.cosine_series(1.0, [0.5, 0.3]), w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        dx = traj.grid[1] - traj.grid[0]
        assert _compatibility_residual(traj, ex31_design) <= 50.0 * dx**2

    def test_grid_and_step_convergence(self, ex31_design):
        # halving dx and dt moves the final error by under 2%
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 2.0})
        finals = {}
        for nodes, dt in ((101, 0.01), (201, 0.005)):
            sc = Scenario(design=ex31_design, variant="zoh", schedule=sch, nodes=nodes,
                          dt=dt, u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0))
            finals[nodes] = quiet_simulate(sc).error_l2[-1]
        assert abs(finals[201] - finals[101]) <= 0.02 * abs(finals[201])

    def test_infeasible_design_warns_but_runs(self, ex31_design):
        sch = make_schedule({"kind": "uniform", "h": 5.0, "horizon": 10.0})
        sc = Scenario(design=ex31_design, variant="zoh", schedule=sch, nodes=101,
                      u0=pf.constant(1.0), w0=pf.constant(0.0))
        with pytest.warns(UserWarning, match="not certified"):
            simulate(sc)

    @pytest.mark.parametrize(
        "variant, term",
        [
            pytest.param("predictor", LinearNonlocalTerm, id="predictor"),
            pytest.param("zoh", LinearNonlocalTerm, id="zoh"),
            pytest.param("predictor", GainSaturatedTerm, id="predictor-gain_saturated"),
            pytest.param("zoh", GainSaturatedTerm, id="zoh-gain_saturated"),
        ],
    )
    def test_zero_error_invariance_with_nonlinearity(self, ex31_design, variant, term):
        # f enters the plant, the observer field equation and the predictor
        # rate; a dropped term anywhere breaks the matched fixed point
        grid = uniform_grid(101)
        if term is LinearNonlocalTerm:
            nl = LinearNonlocalTerm(grid, a=pf.cosine_series(0.5, [0.3]), b=pf.constant(1.0), gain=0.4)
        else:
            nl = GainSaturatedTerm(grid, weights=[pf.cosine_series(0.0, [1.0])],
                                   amplitudes=[pf.cosine_series(0.3, [0.2])])
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 4.0})
        u0 = pf.cosine_series(1.0, [0.5])
        design = dataclasses.replace(ex31_design, lipschitz_R=nl.lipschitz_R)
        sc = Scenario(design=design, variant=variant, schedule=sch, nodes=101,
                      u0=u0, w0=u0, nonlinearity=nl)
        traj = quiet_simulate(sc)
        u_norms = np.sqrt((traj.u**2) @ traj.weights)
        assert np.max(traj.error_l2 / np.maximum(u_norms, 1e-300)) <= 1e-9

    def test_scenario_rejects_certificate_below_lipschitz_bound(self, ex31_design):
        # the certificate of ex31_design assumes R = 0; a tanh term has R > 0
        grid = uniform_grid(101)
        nl = GainSaturatedTerm(grid, weights=[pf.cosine_series(0.0, [1.0])],
                               amplitudes=[pf.constant(0.2)])
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 1.0})
        with pytest.raises(ConfigError, match="design.lipschitz_R"):
            Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=101,
                     u0=1.0, w0=0.0, nonlinearity=nl)

    def test_replace_recertifies_at_the_new_schedule(self, ex31_design):
        kappa = 0.1 * ex31_design.mu
        sc = Scenario(design=ex31_design, variant="zoh", nodes=101, u0=1.0, w0=0.0, kappa=kappa,
                      schedule=make_schedule({"kind": "random", "h_min": 0.1, "h_max": 0.2,
                                              "horizon": 1.0, "seed": 3}))
        uniform = make_schedule({"kind": "uniform", "h": 0.3, "horizon": 1.0})
        report = dataclasses.replace(sc, schedule=uniform).report
        expected = small_gain(ex31_design, 0.3, kappa, "zoh")
        for f in dataclasses.fields(expected):
            got, want = getattr(report, f.name), getattr(expected, f.name)
            if f.name == "coefficients":
                assert got.initial == want.initial and got.mismatch == want.mismatch
                np.testing.assert_array_equal(got.noise, want.noise)
            else:
                assert got == want, f.name
        assert sc.report.h == 0.2
        with pytest.raises(KappaOutOfRange):
            dataclasses.replace(sc, kappa=ex31_design.mu)

    @pytest.mark.parametrize("override, message", [
        ({"dt": -0.01}, "dt must be positive"),
        ({"dt": 0.0}, "dt must be positive"),
        ({"snapshot_every": 0.0}, "snapshot_every must be positive"),
        ({"snapshot_every": -1.0}, "snapshot_every must be positive"),
        ({"disturbances": Disturbances(xi=(NoiseSignal("constant", 0.01),) * 2)},
         "one noise channel per output channel"),
    ], ids=["dt_negative", "dt_zero", "snapshot_zero", "snapshot_negative",
            "noise_channels"])
    def test_rejects_inputs_simulate_would_misread(self, ex31_design, override, message):
        # unchecked, simulate would take a negative dt as one step per interval
        # and record every step for snapshot_every <= 0
        sch = make_schedule({"kind": "uniform", "h": 0.25, "horizon": 1.0})
        with pytest.raises(InvalidSpec, match=message):
            Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=101,
                     u0=1.0, w0=0.0, **override)

    @pytest.mark.parametrize("saturated", [False, True], ids=["linear_nonlocal", "gain_saturated"])
    def test_nonlinearity_on_another_grid_is_a_grid_mismatch(self, ex31_design, saturated):
        grid = uniform_grid(51)
        nl = (GainSaturatedTerm(grid, weights=[pf.constant(1.0)], amplitudes=[pf.constant(0.2)])
              if saturated else LinearNonlocalTerm(grid, a=pf.constant(1.0), b=pf.constant(1.0), gain=0.2))
        sc = Scenario(design=dataclasses.replace(ex31_design, lipschitz_R=nl.lipschitz_R),
                      variant="zoh", nodes=101, u0=1.0, w0=0.0, nonlinearity=nl,
                      schedule=make_schedule({"kind": "uniform", "h": 0.25, "horizon": 1.0}))
        with pytest.raises(GridMismatch, match="sampled on 51 nodes, not 101"):
            quiet_simulate(sc)
        with pytest.raises(GridMismatch):
            step_observer_zoh(np.ones(101), np.zeros(1), 0.0, 0.01, ex31_design, nl, None)

    def test_ios_bound_with_lipschitz_term(self):
        # design declares the nonlinearity's certified Lipschitz constant and
        # the estimate still covers the simulated error
        problem = SLProblem(p=1.0, q=0.0, a0=0, b0=1, a1=0, b1=1)
        basis = analytic_eigensystem(problem, 60, 1001)
        grid = uniform_grid(201)
        nl = LinearNonlocalTerm(grid, a=pf.cosine_series(0.3, [0.2]), b=pf.constant(1.0), gain=0.3)
        ch = OutputChannel(kernel=pf.polynomial([0.0, 1.0]), approximant=pf.constant(0.5))
        design = make_design(problem, basis, [ch], np.array([[-math.pi**2]]), N=1, Q=2.0,
                             sigma_fraction=1.0, lipschitz_R=nl.lipschitz_R)
        from parobs.observer_design import small_gain_predictor
        from parobs.analysis import check_ios_bound

        rep = small_gain_predictor(design, 0.25, 0.0)
        assert rep.feasible
        sch = make_schedule({"kind": "uniform", "h": 0.25, "horizon": 6.0})
        sc = Scenario(design=design, variant="predictor", schedule=sch, nodes=201,
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0), nonlinearity=nl)
        traj = quiet_simulate(sc)
        chk = check_ios_bound(traj, rep)
        assert chk.violations == 0
        assert traj.error_l2[-1] < 1e-6 * traj.error_l2[0]

    def test_deterministic_given_seed(self, ex31_design):
        spec = {"kind": "random", "h_min": 0.2, "h_max": 0.4, "horizon": 2.0, "seed": 11}
        runs = []
        for _ in range(2):
            sc = Scenario(
                design=ex31_design, variant="predictor", schedule=make_schedule(spec),
                nodes=101, u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0),
                disturbances=Disturbances(
                    xi=(NoiseSignal(kind="random", amplitude=0.01, seed=11),)
                ),
            )
            runs.append(quiet_simulate(sc))
        np.testing.assert_array_equal(runs[0].error_l2, runs[1].error_l2)
        np.testing.assert_array_equal(runs[0].times, runs[1].times)


SINE_INPUT = SpaceTimeSignal(terms=(
    (TimeSignal(offset=0.2, amplitude=0.5, omega=3.0, phase=0.4), pf.cosine_series(0.1, [0.4])),
    (TimeSignal(offset=-0.3), pf.polynomial([1.0, -0.5])),
))
OTHER_INPUT = SpaceTimeSignal(terms=(
    (TimeSignal(amplitude=0.3, omega=1.5), pf.cosine_series(0.1, [0.4])),
))


class TestStepper:
    @pytest.mark.parametrize("design_name", ["ex31_design", "ex32_design"])
    @pytest.mark.parametrize("nonlocal_term", [False, True], ids=["zero", "nonlocal"])
    def test_predictor_matches_plant_on_matched_states(self, request, design_name, nonlocal_term):
        # T_o [u; C u] = [T_p u; C T_p u]: the error coordinates are the scheme's own
        design = request.getfixturevalue(design_name)
        nodes, dt = 101, 0.01
        grid = uniform_grid(nodes)
        nl = (LinearNonlocalTerm(grid, a=pf.cosine_series(0.5, [0.3]), b=1.0, gain=0.8)
              if nonlocal_term else ZeroTerm())
        discrete = DiscreteObserver(design, "predictor", nodes)
        u = discrete.op.pin(np.random.default_rng(3).standard_normal(nodes))
        t_p = step_plant(u, 0.0, dt, design.problem, nl, None)
        w, zeta = step_observer_predictor(u, discrete.c_rows @ u, 0.0, dt, design, nl, None)
        assert np.abs(w - t_p).max() <= 1e-14 * np.abs(u).max()
        assert np.abs(zeta - discrete.c_rows @ t_p).max() <= 1e-14 * np.abs(u).max()


def _compatibility_residual(traj, design) -> float:
    """Worst boundary term c_i(1) u_x(1) - c_i(0) u_x(0) - c_i'(1) u(1) +
    c_i'(0) u(0) over every plant and observer snapshot, relative to its sup
    norm; it vanishes to discretization error because the approximants share
    the plant's Robin conditions."""
    dx = traj.grid[1] - traj.grid[0]
    ends = np.array([0.0, 1.0])
    worst = 0.0
    for ch in design.channels:
        c, dc = ch.approximant.values(ends), ch.approximant.derivative().values(ends)
        for f in (*traj.u, *traj.w):
            d0, d1 = end_derivatives(f, dx)
            psi = c[1] * d1 - c[0] * d0 - dc[1] * f[-1] + dc[0] * f[0]
            worst = max(worst, abs(psi) / max(np.max(np.abs(f)), 1e-300))
    return worst


def _dense_trapezoid_records(scenario):
    """(times, sample flags, u, w, zeta) at every record of the trapezoidal
    rule on the whole (u, w, zeta) system, with dense matrices on the free
    nodes: u' = -B u + f(u) + v and w' = -B w + f(w) + v~ + L d. The
    predictor injects d = C w - zeta, with zeta' = -<B c_i, w> + <c_i, f(w)
    + v~>, and a sample resets zeta = y - <k - c, w>; the hold observer
    injects its held d, reset to <k, w> - y; y = <k, u> + xi. Each step's
    nonlinear part is solved by fixed-point sweeps until they move the state
    by under 1e-15 of it. Each sample is a record, and so is the first step
    at or past each due time, which starts one snapshot spacing after the
    sample and moves on by one spacing per record. The schedule must end at
    its horizon."""
    design, nodes, dist, nl = scenario.design, scenario.nodes, scenario.disturbances, scenario.nonlinearity
    discrete = DiscreteObserver(design, scenario.variant, nodes)
    op, free, wts = discrete.op, discrete.op.free, discrete.op.weights
    sub, diag, sup = op.free_tridiagonals()
    B = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
    n, m = B.shape[0], design.m
    C, K, L = discrete.c_rows[:, free], discrete.k_rows[:, free], discrete.l_cols[free]
    c = np.vstack([ch.approximant.values(op.grid) for ch in design.channels])
    predictor = scenario.variant == "predictor"
    G = np.zeros((2 * n + m, 2 * n + m))  # the linear part on [u, w, zeta or d]
    G[:n, :n] = G[n : 2 * n, n : 2 * n] = -B
    if predictor:
        G[n : 2 * n, n : 2 * n] += L @ C
        G[n : 2 * n, 2 * n :] = -L
        G[2 * n :, n : 2 * n] = (-np.vstack([op.apply(ci) for ci in c]) * wts)[:, free]
    else:
        G[n : 2 * n, 2 * n :] = L

    def full(x):
        out = np.zeros(op.grid.size)
        out[free] = x
        return out

    def explicit(state, t):  # every term but the linear part
        f_u, f_w = nl.apply(full(state[:n]))[free], nl.apply(full(state[n : 2 * n]))[free]
        v, v_tilde = dist.v.field(t, op.grid)[free], dist.v_tilde.field(t, op.grid)[free]
        zeta_rate = C @ (f_w + v_tilde) if predictor else np.zeros(m)
        return np.concatenate([f_u + v, f_w + v_tilde, zeta_rate])

    u = pf.as_profile(scenario.u0, op.grid).values(op.grid)[free]
    w = pf.as_profile(scenario.w0, op.grid).values(op.grid)[free]
    times = scenario.schedule.times
    every = scenario.snapshot_every or scenario.schedule.horizon / 512.0
    records, due = [], 0.0

    def record(t, flag, state):
        u, w = full(state[:n]), full(state[n : 2 * n])
        records.append((t, flag, u, w, state[2 * n :].copy()))

    for j, t_j in enumerate(times):
        xi = np.array([s.value(t_j, j) for s in dist.xi])
        y = K @ u + xi
        z = y - (K - C) @ w if predictor else K @ w - y
        state = np.concatenate([u, w, z])
        record(t_j, True, state)
        due = max(due, t_j) + every
        if j + 1 == len(times):
            break
        n_sub = math.ceil((times[j + 1] - t_j) / scenario.dt - 1e-9)
        dt = (times[j + 1] - t_j) / n_sub
        eye = np.eye(G.shape[0])
        solve = np.linalg.inv(eye - 0.5 * dt * G)
        explicit_part = eye + 0.5 * dt * G
        for s in range(1, n_sub + 1):
            t0, t1 = t_j + (s - 1) * dt, t_j + s * dt
            known = explicit_part @ state + 0.5 * dt * explicit(state, t0)
            new = state
            for _ in range(100):
                nxt = solve @ (known + 0.5 * dt * explicit(new, t1))
                moved = np.abs(nxt - new).max()
                new = nxt
                if moved <= 1e-15 * max(np.abs(new).max(), 1.0):
                    break
            state = new
            if s < n_sub and t1 >= due - 1e-12:
                record(t1, False, state)
                due += every
        u, w = state[:n], state[n : 2 * n]
    return tuple(np.array(column) for column in zip(*records))


def _modal_step_loop_records(scenario):
    """(times, sample flags, u, w, zeta) at every record of a plain step
    loop in the grid's modes with ``simulate``'s stepper,
    ``simulator._Trapezoid``: the plant u, the error e and the innovation
    eta, reset to k_hat e - xi at each sample. The records are found by
    walking every step as ``_walk_records`` does, and each takes its fields
    with the run's own arithmetic (u and e to the grid, w = u + e, zeta =
    C w - eta, or the reset y - <k - c, w> at a predictor's sample, or the
    held eta), so a run must match it bit for bit."""
    discrete = DiscreteObserver(scenario.design, scenario.variant, scenario.nodes)
    modes, grid, dist = GridModes(discrete), discrete.op.grid, scenario.disturbances
    stepper = simulator._Trapezoid(modes, scenario.nonlinearity)
    predictor, zero = scenario.variant == "predictor", np.zeros(modes.lam.size)
    plant_terms, observer_terms = modes.inputs(dist.v, grid), modes.inputs(dist.v_tilde, grid)

    def inputs(t):  # v and v~ - v in the modes
        v = sum((ts.value(t) * b for ts, b in plant_terms), zero)
        return v, sum((ts.value(t) * b for ts, b in observer_terms), zero) - v

    u, w = (discrete.op.pin(pf.as_profile(f, grid).values(grid)) for f in (scenario.u0, scenario.w0))
    x_u, x_e = modes.project(np.stack([u, w - u]))
    sigma, no_sigma = stepper.r_hat @ x_u, np.zeros(stepper.r_hat.shape[0])
    horizon = scenario.schedule.horizon
    times = scenario.schedule.times[scenario.schedule.times <= horizon + 1e-12]
    every = scenario.snapshot_every or horizon / 512.0
    records, due = [], 0.0

    def record(t, xi=None):
        u_row = x_u @ modes.rows
        w_row = u_row + (x_e[None] @ modes.rows)[0]
        if not predictor:
            zeta = eta
        elif xi is None:
            zeta = (w_row[None] @ discrete.c_rows.T)[0] - eta
        else:
            zeta = discrete.k_rows @ u_row + xi - (discrete.k_rows - discrete.c_rows) @ w_row
        records.append((t, xi is not None, u_row, w_row, zeta))

    for j, t_j in enumerate(times.tolist()):
        xi = np.array([s.value(t_j, j) for s in dist.xi])
        eta = modes.k_hat @ x_e - xi
        record(t_j, xi)
        due = max(due, t_j) + every
        gap = (times[j + 1] if j + 1 < times.size else horizon) - t_j
        if gap <= 1e-14:
            continue
        n_sub = max(1, math.ceil(gap / scenario.dt - 1e-9))
        dt = gap / n_sub
        if dt != stepper.dt:
            stepper.factor(dt)
        v0 = inputs(t_j)
        for s in range(n_sub):
            t, v1 = t_j + s * dt, inputs(t_j + (s + 1) * dt)
            x_u = stepper.advance(x_u, t, no_sigma, no_sigma, v0[0] + v1[0] + 2.0 * stepper.f_zero)
            sigma_next, eta_next = stepper.r_hat @ x_u, stepper.eta @ eta
            x_e = stepper.advance(x_e, t, sigma, sigma_next,
                                  v0[1] + v1[1] + (eta + eta_next) @ modes.l_hat)
            sigma, eta, v0 = sigma_next, eta_next, v1
            if s + 1 < n_sub and t_j + (s + 1) * dt >= due - 1e-12:
                record(t_j + (s + 1) * dt)
                due += every
    if horizon - times[-1] > 1e-14:
        record(horizon)
    return tuple(np.array(column) for column in zip(*records))


def _dense_trapezoid_errors(scenario) -> np.ndarray:
    """||w - u|| at every sample, from ``_dense_trapezoid_records``."""
    _, flags, u, w, _ = _dense_trapezoid_records(scenario)
    return np.sqrt(((w - u)[flags] ** 2) @ trapezoid_weights(uniform_grid(scenario.nodes)))


def _order_two_case(request, case: str) -> Scenario:
    """The linear scenarios whose step loop must converge to the closed form."""
    noise = (NoiseSignal(kind="sinusoid", amplitude=0.01, omega=2.0),)
    if case in ("predictor", "zoh"):  # an input mismatch and noise
        return Scenario(design=request.getfixturevalue("ex31_design"), variant=case, nodes=101,
                        dt=0.01, snapshot_every=0.05,
                        schedule=make_schedule({"kind": "uniform", "h": 0.3, "horizon": 2.1}),
                        u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0),
                        disturbances=Disturbances(v=SINE_INPUT, v_tilde=OTHER_INPUT, xi=noise))
    if case == "dirichlet":  # example 3.2 pins x = 1
        return Scenario(design=request.getfixturevalue("ex32_design"), variant="predictor",
                        nodes=101, dt=0.01, snapshot_every=0.05,
                        schedule=make_schedule({"kind": "uniform", "h": 0.1, "horizon": 1.0}),
                        u0=pf.cosine(math.sqrt(2.0), math.pi / 2.0), w0=pf.constant(0.0),
                        disturbances=Disturbances(v_tilde=OTHER_INPUT, xi=noise))
    if case == "two_channel":
        noise = (NoiseSignal("sinusoid", 0.01, omega=2.0), NoiseSignal("constant", -0.02))
        return Scenario(design=request.getfixturevalue("two_channel_design"),
                        variant="predictor", nodes=101, dt=0.01, snapshot_every=0.05,
                        schedule=make_schedule({"kind": "uniform", "h": 0.1, "horizon": 1.0}),
                        u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0),
                        disturbances=Disturbances(xi=noise))
    # two dts: 7 steps of 0.2/7, then 9 steps of 0.25/9
    cfg = example31_config(p=1.0, h=0.25, omega=0.1, horizon=0.9, nodes=101, snapshot_every=0.05,
                           noise={"kind": "sinusoid", "amplitude": 0.01, "omega": 2.0})
    cfg["schedule"] = {"kind": "explicit", "times": [0, 0.2, 0.4, 0.65, 0.9]}
    cfg["time"]["dt"] = 0.03
    return build_scenario(cfg)


PREDICTOR_LONG = dict(p=0.1, h=1.0, omega=0.1, horizon=200.0, snapshot_every=0.1)


class TestClosedForm:
    @pytest.mark.parametrize("case", ["predictor", "zoh", "dirichlet", "two_channel", "two_dt_schedule"])
    def test_step_loop_converges_to_the_closed_form_at_order_two(self, request, case):
        # the closed form is Crank-Nicolson's dt -> 0 limit: halving dt divides
        # the step loop's largest distance from it, over u, w and zeta at every
        # record, by 3.5 or more (order 2; the bound was fixed before the first run)
        base = _order_two_case(request, case)
        distances = []
        for dt in (base.dt, base.dt / 2.0):
            sc = dataclasses.replace(base, dt=dt)
            traj = quiet_simulate(sc)
            assert traj.metadata["integrator"] == {"modes": 101 - sc.design.problem.dirichlet_right,
                                                   "steps": 0}
            times, flags, u, w, zeta = _dense_trapezoid_records(sc)
            assert np.abs(traj.times - times).max() <= 1e-12
            np.testing.assert_array_equal(traj.sample_flag, flags)
            distances.append(max(np.abs(getattr(traj, name) - reference).max()
                                 for name, reference in (("u", u), ("w", w), ("zeta", zeta))))
        assert distances[0] / distances[1] >= 3.5, distances

    @pytest.mark.parametrize("variant", ["predictor", "zoh"])
    def test_matched_run_keeps_the_error_exactly_zero(self, ex31_design, variant):
        # the same initial state and input for plant and observer, and no noise
        u0 = pf.cosine_series(1.0, [0.5, -0.2])
        sc = Scenario(design=ex31_design, variant=variant, nodes=101, u0=u0, w0=u0,
                      schedule=make_schedule({"kind": "uniform", "h": 0.3, "horizon": 2.1}),
                      disturbances=Disturbances(v=SINE_INPUT, v_tilde=SINE_INPUT))
        traj = quiet_simulate(sc)
        assert np.all(traj.error_l2 == 0.0) and np.all(traj.error_sup == 0.0)
        np.testing.assert_array_equal(traj.w, traj.u)
        assert np.abs(traj.u[-1]).max() > 0.1

    def test_sawtooth_initial_error_decays_at_the_certified_rate(self):
        # the Crank-Nicolson damping floor: at the default dt = dx a mode with
        # dt lambda >> 1 shrinks by about 1 per step, and this run read 433 IOS
        # violations and a fitted rate of 1.01 < kappa; exactly, it decays at mu
        sc = build_scenario(example31_config(p=1.0, h=0.1, omega=0.5, variant="predictor"))
        sc = dataclasses.replace(sc, w0=0.05 * (-1.0) ** np.arange(201))
        assert sc.kappa == pytest.approx(0.25 * math.pi**2, rel=1e-12) and sc.nodes == 201
        run = check_run(quiet_simulate(sc), sc)
        assert run.ios.violations == 0
        assert run.fit.rate >= sc.kappa

    def test_error_norms_are_the_modal_norms_of_the_error(self):
        # predictor-long's error decays to 1e-43 by t = 200: no row reads 0, and
        # where w - u keeps its digits its norms are the recorded ones
        sc = build_scenario(example31_config(**PREDICTOR_LONG))
        traj = quiet_simulate(sc)
        assert np.all(traj.error_l2 > 0.0) and np.all(traj.error_sup > 0.0)
        assert traj.error_l2[-1] < 1e-30
        l2, sup = snapshot_norms(traj.w - traj.u, traj.weights)
        kept = traj.error_l2 >= 1e-6 * traj.error_l2[0]
        assert kept.sum() > 100
        np.testing.assert_allclose(traj.error_l2[kept], l2[kept], rtol=1e-8)
        np.testing.assert_allclose(traj.error_sup[kept], sup[kept], rtol=1e-8)
        modes = GridModes(DiscreteObserver(sc.design, sc.variant, sc.nodes))
        e_hat = modes.project(traj.w[:5] - traj.u[:5])
        np.testing.assert_allclose(traj.error_l2[:5], np.linalg.norm(e_hat, axis=1), rtol=1e-12)

    def test_closed_form_holds_its_trajectory_and_few_arrays_more(self):
        # the traced peak of simulate on predictor-long over what was live
        # before it, bounded by what the closed form holds: the trajectory;
        # three n x n arrays (the symmetric tridiagonal, its eigenvectors, the
        # modes on the grid); three rows per sample (the plant and the error at
        # each sample, and the flow tables of the gaps); three temporaries of
        # the largest row block (465 of 2,001 rows); eight vectors of one entry
        # per record (the plan); 1 KB per sample event
        sc = build_scenario(example31_config(**PREDICTOR_LONG))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = quiet_simulate(sc)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        arrays = (traj.times, traj.u, traj.w, traj.zeta, traj.sample_flag, traj.grid, traj.error_l2,
                  traj.error_sup)
        trajectory = sum(a.nbytes if a.base is None else a.base.nbytes for a in arrays)
        n, records, samples = 201, traj.times.size, len(traj.events)
        block = max(b.stop - b.start for b in _row_blocks(records))
        bound = (trajectory + 8 * n * n * 3 + 8 * n * samples * 3 + 8 * n * block * 3
                 + 8 * records * 8 + 1024 * samples)
        assert (records, samples, block) == (2001, 201, 465)
        assert peak <= bound

    def test_reruns_are_bit_identical(self):
        spec = {"kind": "random", "h_min": 0.04, "h_max": 0.1, "horizon": 2.0, "seed": 3}
        cfg = example31_config(p=1.0, h=0.1, omega=0.1, noise={"kind": "random", "amplitude": 0.01})
        cfg["schedule"] = spec
        runs = [quiet_simulate(build_scenario(cfg)) for _ in range(2)]
        for name in ("times", "u", "w", "zeta", "error_l2", "error_sup"):
            np.testing.assert_array_equal(getattr(runs[0], name), getattr(runs[1], name))

    def test_zero_term_run_loads_no_scipy(self):
        code = (
            "import sys\n"
            "from parobs.analysis import run_example_31\n"
            "run = run_example_31(horizon=2.0)\n"
            "assert run.trajectory.metadata['integrator'] == {'modes': 201, 'steps': 0}\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(simulator.__file__).parents[1])  # the directory holding the parobs package
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})

    def test_discrete_observer_checks_the_variant(self, ex31_design):
        with pytest.raises(ValueError, match="unknown observer variant 'Predictor'"):
            DiscreteObserver(ex31_design, "Predictor", 101)


class TestStepped:
    @pytest.mark.parametrize("variant", ["predictor", "zoh"])
    def test_two_channel_saturated_run_matches_step_loop(self, two_channel_design, variant):
        # the stepped run resets in error coordinates, the reference in the fields'
        grid = uniform_grid(101)
        nl = GainSaturatedTerm(grid, weights=[pf.cosine_series(0.0, [1.0])], amplitudes=[pf.constant(0.2)])
        design = dataclasses.replace(two_channel_design, lipschitz_R=nl.lipschitz_R)
        noise = (NoiseSignal("sinusoid", 0.01, omega=2.0), NoiseSignal("constant", -0.02))
        sc = Scenario(design=design, variant=variant, nodes=101, dt=0.01, nonlinearity=nl,
                      schedule=make_schedule({"kind": "uniform", "h": 0.05, "horizon": 1.0}),
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0),
                      disturbances=Disturbances(xi=noise))
        assert design.L.shape == (1, 2) and sc.report.feasible
        traj = quiet_simulate(sc)
        assert traj.metadata["integrator"] == {"steps": 2 * 100}
        reference = _dense_trapezoid_errors(sc)
        assert np.abs(traj.error_l2[traj.sample_flag] - reference).max() <= 1e-12

    @pytest.mark.parametrize("variant", ["predictor", "zoh"])
    def test_nonlocal_run_records_the_step_loop_bit_for_bit(self, ex31_design, variant):
        # records 0.037 apart fall between steps of 0.01; a row left unfilled
        # or shifted by one shows here
        grid = uniform_grid(101)
        nl = LinearNonlocalTerm(grid, a=pf.cosine_series(0.3, [0.2]), b=pf.constant(1.0), gain=0.3)
        dist = Disturbances(v=SINE_INPUT, v_tilde=OTHER_INPUT,
                            xi=(NoiseSignal(kind="sinusoid", amplitude=0.01, omega=2.0),))
        sc = Scenario(design=dataclasses.replace(ex31_design, lipschitz_R=nl.lipschitz_R),
                      variant=variant, nodes=101, dt=0.01, snapshot_every=0.037, nonlinearity=nl,
                      schedule=make_schedule({"kind": "uniform", "h": 0.3, "horizon": 2.1}),
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0), disturbances=dist)
        traj = quiet_simulate(sc)
        assert traj.metadata["integrator"] == {"steps": 2 * 210}
        times, flags, u, w, zeta = _modal_step_loop_records(sc)
        assert traj.times.size == times.size > 7 * 7  # about eight records per interval
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_array_equal(traj.sample_flag, flags)
        for name, reference in (("u", u), ("w", w), ("zeta", zeta)):
            np.testing.assert_array_equal(getattr(traj, name), reference, err_msg=name)

    @pytest.mark.parametrize("shift", [0.0, 0.5], ids=["tanh", "tanh_plus_half"])
    @pytest.mark.parametrize("variant", ["predictor", "zoh"])
    def test_saturated_two_channel_run_is_the_dense_trapezoid(self, two_channel_design, variant,
                                                              shift):
        # the whole run on 31 nodes against the trapezoidal rule on the full
        # (u, w, zeta) system with dense matrices: a tanh term, two channels,
        # an input mismatch with a sinusoid, noise and records between the
        # steps. Every record within 1e-10 of the largest |u| (fixed before
        # the first run). tanh + 1/2 has phi(0) != 0, a constant forcing of
        # the plant and the observer that their difference cancels
        grid = uniform_grid(31)
        nl = GainSaturatedTerm(grid, weights=[pf.cosine_series(0.0, [1.0])],
                               amplitudes=[pf.cosine_series(0.3, [0.2])])
        if shift:
            nl.phi = lambda z: np.tanh(z) + shift
        noise = (NoiseSignal("sinusoid", 0.01, omega=2.0), NoiseSignal("constant", -0.02))
        sc = Scenario(design=dataclasses.replace(two_channel_design, lipschitz_R=nl.lipschitz_R),
                      variant=variant, nodes=31, dt=0.01, snapshot_every=0.037, nonlinearity=nl,
                      schedule=make_schedule({"kind": "uniform", "h": 0.1, "horizon": 1.0}),
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0),
                      disturbances=Disturbances(v=SINE_INPUT, v_tilde=OTHER_INPUT, xi=noise))
        traj = quiet_simulate(sc)
        assert traj.metadata["integrator"] == {"steps": 2 * 100}
        times, flags, u, w, zeta = _dense_trapezoid_records(sc)
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_array_equal(traj.sample_flag, flags)
        assert np.abs(traj.w - traj.u).max() > 0.01
        for name, reference in (("u", u), ("w", w), ("zeta", zeta)):
            assert np.abs(getattr(traj, name) - reference).max() <= 1e-10 * np.abs(u).max(), name

    def test_nonlinear_zoh_warm_up_matches_the_benchmark_reference(self):
        # the benchmark's warm-up run: horizon 4 with the reference's seed
        ref = json.loads((BENCHMARKS / "reference.json").read_text())["nonlinear-zoh-cli"]
        cfg = load_config(BENCHMARKS / "configs" / "nonlinear_zoh.json")
        cfg["schedule"]["horizon"] = 4.0
        traj = quiet_simulate(build_scenario(cfg, seed=ref["seed"]))
        assert traj.metadata["scheme"] == "imex-crank-nicolson"
        assert traj.error_l2[-1] == pytest.approx(ref["final_error_l2"], rel=ref["rtol"], abs=0.0)

    def test_stepped_run_loads_no_scipy(self):
        code = (
            "import sys\n"
            "from parobs.config import build_scenario, example31_config\n"
            "from parobs.simulator import simulate\n"
            "cfg = example31_config(p=1.0, h=0.1, omega=0.1, horizon=1.0)\n"
            "cfg['design']['lipschitz_R'] = 0.2\n"
            "cfg['nonlinearity'] = {'kind': 'gain_saturated', 'weights': [1.0], 'amplitudes': [0.2]}\n"
            "traj = simulate(build_scenario(cfg))\n"
            "assert traj.metadata['scheme'] == 'imex-crank-nicolson'\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(simulator.__file__).parents[1])  # the directory holding the parobs package
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})

    def test_error_norms_are_snapshot_norms_of_the_fields(self, ex31_design):
        # the norms come from e's modes, not from w - u: they equal
        # snapshot_norms of w - u to the roundoff of w = u + e and of the
        # modes' trapezoid orthonormality, 16 ulps of the largest field value
        grid = uniform_grid(101)
        nl = GainSaturatedTerm(grid, weights=[pf.cosine_series(0.0, [1.0])],
                               amplitudes=[pf.constant(0.2)])
        sc = Scenario(design=dataclasses.replace(ex31_design, lipschitz_R=nl.lipschitz_R),
                      variant="zoh", nodes=101, dt=0.01, snapshot_every=0.01, nonlinearity=nl,
                      schedule=make_schedule({"kind": "uniform", "h": 0.25, "horizon": 6.0}),
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0),
                      disturbances=Disturbances(v=SINE_INPUT))
        traj = quiet_simulate(sc)
        assert traj.times.size > 512
        l2, sup = snapshot_norms(traj.w - traj.u, traj.weights)
        ulps = 16 * np.finfo(float).eps * max(np.abs(traj.u).max(), np.abs(traj.w).max())
        assert np.abs(traj.error_l2 - l2).max() <= ulps
        assert np.abs(traj.error_sup - sup).max() <= ulps

    def test_nonzero_terms_step_and_the_zero_term_does_not(self, ex31_design):
        grid = uniform_grid(101)
        nl = GainSaturatedTerm(grid, weights=[pf.cosine_series(0.0, [1.0])], amplitudes=[pf.constant(0.2)])
        uniform = make_schedule({"kind": "uniform", "h": 0.25, "horizon": 1.0})
        random = make_schedule({"kind": "random", "h_min": 0.1, "h_max": 0.3, "horizon": 1.0, "seed": 5})
        stepped = Scenario(design=dataclasses.replace(ex31_design, lipschitz_R=nl.lipschitz_R),
                           variant="zoh", schedule=uniform, nodes=101, dt=0.01, u0=1.0, w0=0.0,
                           nonlinearity=nl)
        closed = Scenario(design=ex31_design, variant="predictor", schedule=random, nodes=101,
                          dt=0.01, u0=1.0, w0=0.0)
        assert quiet_simulate(stepped).metadata["integrator"] == {"steps": 2 * 100}
        assert quiet_simulate(closed).metadata["integrator"] == {"modes": 101, "steps": 0}


class TestGridModes:
    @pytest.mark.parametrize("variant", [None, "predictor", "zoh"], ids=["plant", "predictor", "zoh"])
    @pytest.mark.parametrize(
        "v", [SpaceTimeSignal(), SpaceTimeSignal(terms=((TimeSignal(offset=0.7), pf.constant(1.0)),)),
              SINE_INPUT], ids=["no_input", "constant_input", "sine_input"])
    def test_step_loop_converges_to_the_modal_flow(self, ex31_design, variant, v):
        # one interval of 0.37 from t0 = 0.3, of the plant or of an observer
        # with its own innovation: w = e^{-lam s} w0 + eta0 Phi(s) plus the
        # driven response, and for the predictor zeta = C w - e^{A s} eta0.
        # Halving dt divides the step loop's distance from it by 3.5 or more
        # (order 2; the bound was fixed before the first run)
        nodes, t0, span = 101, 0.3, 0.37
        discrete = DiscreteObserver(ex31_design, variant or "zoh", nodes)
        modes, grid = GridModes(discrete), discrete.op.grid
        w0 = pf.cosine_series(1.0, [0.5, -0.2]).values(grid)
        zeta0 = np.array([0.3]) if variant else None
        decay, phi, eta_flow = modes.flows(np.array([span]))
        x = decay[0] * modes.project(w0)
        x += modes.driven(modes.inputs(v, grid), np.array([t0]), np.array([span]), decay)[0]
        eta0 = np.zeros(1)
        if variant == "zoh":
            eta0 = zeta0
        elif variant == "predictor":
            eta0 = discrete.c_rows @ w0 - zeta0
        x += eta0 @ phi[0]
        w_flow = x @ modes.rows
        zeta_flow = discrete.c_rows @ w_flow - eta_flow[0] @ eta0 if variant == "predictor" else zeta0
        def step(w, zeta, t, dt):
            if variant == "predictor":
                return step_observer_predictor(w, zeta, t, dt, ex31_design, None, v)
            if variant == "zoh":
                return step_observer_zoh(w, zeta, t, dt, ex31_design, None, v), zeta
            return step_plant(w, t, dt, ex31_design.problem, None, v), zeta

        distances = []
        for k in (37, 74):
            w, zeta, dt = w0, zeta0, span / k
            for i in range(k):
                w, zeta = step(w, zeta, t0 + i * dt, dt)
            distances.append(max(np.abs(w - w_flow).max(),
                                 np.abs(zeta - zeta_flow).max() if variant else 0.0))
        assert distances[0] / distances[1] >= 3.5, distances

    @pytest.mark.parametrize("case", ["zoh", "predictor", "two_channel"])
    def test_flows_are_the_block_exponential(self, request, case):
        # mode k's (e, eta) generator [[-lam_k, l_hat_k^T], [0, A]] times s has
        # the exponential [[e^{-lam_k s}, Phi(s)_k^T], [0, e^{A s}]]; each part
        # within 1e-10 of its own scale (fixed before the first run). Phi's
        # scale is that of the integrand, |l_hat_k| min(s, 1/lam_k) max(1,
        # |e^{A s}|): where l_hat_k is roundoff along A's decaying direction,
        # Phi is what is left of a cancellation (3e-28 from terms of 1e-19 on
        # the two-channel predictor at s = 4), which scipy's expm and the flow
        # both miss by a few 1e-6 relative
        from scipy.linalg import expm

        design = request.getfixturevalue("two_channel_design" if case == "two_channel" else "ex31_design")
        modes = GridModes(DiscreteObserver(design, "zoh" if case == "zoh" else "predictor", 51))
        m = modes.A.shape[0]
        assert (case == "two_channel") == (m == 2)
        offsets = np.array([0.0, 1e-3, 0.1, 1.0, 4.0])
        decay, phi, eta_flow = modes.flows(offsets)
        assert (decay.shape, phi.shape, eta_flow.shape) == ((5, 51), (5, m, 51), (5, m, m))
        for i, s in enumerate(offsets):
            for k, lam in enumerate(modes.lam):
                generator = np.zeros((m + 1, m + 1))
                generator[0, 0], generator[0, 1:], generator[1:, 1:] = -lam, modes.l_hat[:, k], modes.A
                ref = expm(s * generator)
                assert abs(decay[i, k] - ref[0, 0]) <= 1e-10 * abs(ref[0, 0]) + 1e-300
                scale = (np.abs(modes.l_hat[:, k]).max() * min(s, 1.0 / max(lam, 1e-300))
                         * max(1.0, np.abs(ref[1:, 1:]).max()))
                assert np.abs(phi[i, :, k] - ref[0, 1:]).max() <= 1e-10 * scale
                assert np.abs(eta_flow[i] - ref[1:, 1:]).max() <= 1e-10 * np.abs(ref[1:, 1:]).max()

    @pytest.mark.parametrize("s", [1e-6, 0.05, 1.0, 5.0])
    def test_block_exponential_matches_scipy(self, s):
        # a stack of (e, eta) generators times s, with lam = (pi k)^2 from 0 to
        # 9,000, so each matrix takes its own number of halvings; each part of
        # the exponential within 1e-10 of its own scale (fixed before the first run)
        from scipy.linalg import expm

        rng = np.random.default_rng(7)
        lam = (math.pi * np.arange(31)) ** 2
        g = rng.standard_normal((2, 2))
        a = -(g @ g.T) - np.eye(2)
        stack = np.zeros((lam.size, 3, 3))
        stack[:, 0, 0], stack[:, 0, 1:], stack[:, 1:, 1:] = -lam, rng.standard_normal((lam.size, 2)), a
        out = simulator._expm(s * stack)
        for x, got in zip(s * stack, out):
            ref = expm(x)
            for part in (np.s_[0, 0], np.s_[0, 1:], np.s_[1:, 1:]):
                assert np.abs(got[part] - ref[part]).max() <= 1e-10 * np.abs(ref[part]).max() + 1e-300

    @pytest.mark.parametrize("a, lam, s", [
        (-2.0, 2.0, 0.7),
        (-2.0, 2.0 + 1e-9, 0.7),
        (0.0, 4e4, 3.0),
        (-60.0, 1.0, 0.5),
        (0.0, 9.87, 0.0),
    ], ids=["a_plus_lam_zero", "a_plus_lam_1e-9", "decay_underflows", "a_plus_lam_negative", "zero_offset"])
    def test_response_keeps_its_digits(self, a, lam, s):
        # (e^{a s} - e^{-lam s}) / (a + lam) against 50 digits; the difference
        # would lose seven of them at a + lam = 1e-9
        s_col, lam_row = np.array([s]), np.array([lam])
        got = simulator._response(a, lam_row, s_col, np.exp(-np.multiply.outer(s_col, lam_row)))[0, 0]
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            da, dl, ds = decimal.Decimal(a), decimal.Decimal(lam), decimal.Decimal(s)
            if da + dl == 0:
                ref = ds * (da * ds).exp()
            else:
                ref = ((da * ds).exp() - (-dl * ds).exp()) / (da + dl)
        assert abs(got - float(ref)) <= 1e-13 * abs(float(ref))


def _check_records_follow_their_samples(design, schedule, every: float, linear: bool) -> None:
    """Simulate a predictor run on ``schedule`` with dt 0.01 and check that
    every record between samples carries its interval's sample row: by the
    modal flow (the zero term), to 1e-12 of the sample row, or bit for bit
    by the steps of the modal step loop (a non-local term)."""
    nodes = 31
    grid = uniform_grid(nodes)
    nl = (ZeroTerm() if linear else
          LinearNonlocalTerm(grid, a=pf.cosine_series(0.3, [0.2]), b=pf.constant(1.0), gain=0.3))
    if not linear:
        design = dataclasses.replace(design, lipschitz_R=nl.lipschitz_R)
    sc = Scenario(design=design, variant="predictor", schedule=schedule, nodes=nodes, dt=0.01,
                  snapshot_every=every, nonlinearity=nl, u0=pf.cosine_series(1.0, [0.5]), w0=0.0)
    traj = quiet_simulate(sc)
    assert ("steps" in traj.metadata["integrator"]) and (traj.metadata["integrator"]["steps"] == 0) == linear
    if not linear:
        times, flags, u, w, zeta = _modal_step_loop_records(sc)
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_array_equal(traj.sample_flag, flags)
        for name, reference in (("u", u), ("w", w), ("zeta", zeta)):
            np.testing.assert_array_equal(getattr(traj, name), reference, err_msg=name)
        return
    modes = GridModes(DiscreteObserver(sc.design, "predictor", nodes))
    samples = np.flatnonzero(traj.sample_flag)
    for r0, r1 in zip(samples, [*samples[1:], traj.times.size]):
        rows = np.arange(r0 + 1, r1)
        decay = modes.flows(traj.times[rows] - traj.times[r0])[0]
        flow = (decay * modes.project(traj.u[r0])) @ modes.rows
        assert np.abs(traj.u[rows] - flow).max(initial=0.0) <= 1e-12 * np.abs(traj.u[r0]).max()


def _walk_records(sample_times, horizon, dt_target, every):
    """Record times and sample flags found by walking every step of every
    interval, with the step count and dt of ``simulate``'s subdivision."""
    times, flags, due = [], [], 0.0
    for t0, t1 in zip(sample_times, [*sample_times[1:], horizon]):
        times.append(t0)
        flags.append(True)
        due = max(due, t0) + every
        if t1 - t0 <= 1e-14:
            continue
        n_sub = max(1, math.ceil((t1 - t0) / dt_target - 1e-9))
        dt = (t1 - t0) / n_sub
        for s in range(1, n_sub):
            if t0 + s * dt >= due - 1e-12:
                times.append(t0 + s * dt)
                flags.append(False)
                due += every
    if horizon - sample_times[-1] > 1e-14:
        times.append(horizon)
        flags.append(False)
    return np.array(times), np.array(flags)


class TestRecordPlan:
    @pytest.mark.parametrize("spec", [
        {"kind": "uniform", "h": 0.3, "horizon": 4.0},
        {"kind": "random", "h_min": 0.05, "h_max": 0.3, "horizon": 3.0, "seed": 5},
        {"kind": "explicit", "times": [0.0, 0.1, 0.35, 0.6, 0.85, 1.0, 1.25], "horizon": 1.1},
    ], ids=["uniform", "random", "explicit_cut_before_its_last_time"])
    @pytest.mark.parametrize("every", [0.037, 0.1, 0.004])
    @pytest.mark.parametrize("linear", [False, True], ids=["stepped", "linear"])
    def test_records_match_a_step_walk(self, ex31_design, spec, every, linear):
        sch = make_schedule(spec)
        sample_times = sch.times[sch.times <= sch.horizon + 1e-12]
        plan = simulator._record_plan(sample_times, sch.horizon, 0.01, every)
        walk_times, walk_flags = _walk_records([float(t) for t in sample_times], sch.horizon, 0.01, every)
        np.testing.assert_array_equal(plan.times, walk_times)
        np.testing.assert_array_equal(plan.flags, walk_flags)
        assert plan.fresh.all() and np.array_equal(plan.times[plan.rows], sample_times)
        for j, (t0, t1) in enumerate(zip(sample_times, [*sample_times[1:], sch.horizon])):
            # the steps cut the interval, and its records fall on them
            assert plan.steps[j] * plan.dt[j] == pytest.approx(t1 - t0, abs=1e-12)
            mine = plan.record_intervals == j
            np.testing.assert_array_equal(plan.times[plan.record_rows[mine]],
                                          t0 + plan.record_steps[mine] * plan.dt[j])
        # every row is a time since its interval's sample
        np.testing.assert_allclose(sample_times[plan.row_interval] + plan.row_offset, plan.times,
                                   rtol=0, atol=1e-12)
        assert plan.times[-1] == sch.horizon
        # and the integrator of each kind of run fills the rows from their samples
        _check_records_follow_their_samples(ex31_design, sch, every, linear)

    def test_a_sample_within_1e14_of_a_record_shares_its_row(self):
        # the horizon is the last sample: one final row, the sample's
        sample_times = np.array([0.0, 0.5, 0.5 + 4e-15, 1.0])
        plan = simulator._record_plan(sample_times, 1.0, 0.1, 0.25)
        times, flags = plan.times, plan.flags
        walk_times, _ = _walk_records(list(sample_times), 1.0, 0.1, 0.25)
        np.testing.assert_array_equal(times, walk_times[walk_times != sample_times[2]])
        assert np.count_nonzero(np.abs(times - 0.5) <= 1e-14) == 1
        assert plan.rows[2] == plan.rows[1] and plan.fresh[1] and not plan.fresh[2]
        assert flags[plan.rows[1]] and flags.sum() == 3
        # the shared row is the later sample's, and the interval between them is empty
        assert (plan.row_interval[plan.rows[1]], plan.row_offset[plan.rows[1]]) == (2, 0.0)
        assert plan.steps[1] == 0 and plan.steps[-1] == 0
        assert (times[-1], flags[-1], np.count_nonzero(times == 1.0)) == (1.0, True, 1)

    def test_a_final_step_onto_a_duplicate_record_keeps_the_sample_row(self, ex31_design):
        # the horizon is one ulp past the last sample, so the last interval
        # takes one step whose record would duplicate the sample's
        horizon = math.nextafter(100.0, math.inf)
        sch = make_schedule({"kind": "explicit", "times": [0.0, 100.0, 101.0], "horizon": horizon})
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=51, dt=1.0,
                      snapshot_every=25.0, u0=pf.cosine_series(1.0, [0.5]), w0=0.0)
        traj = quiet_simulate(sc)
        assert traj.times.tolist() == [0.0, 25.0, 50.0, 75.0, 100.0]
        assert traj.sample_flag.tolist() == [True, False, False, False, True]
        # the extra step is not recorded: the run ending at 100 reads the same
        ends_at_100 = quiet_simulate(dataclasses.replace(
            sc, schedule=make_schedule({"kind": "explicit", "times": [0.0, 100.0]})))
        for name in ("times", "sample_flag", "u", "w", "zeta"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(ends_at_100, name))


def _parent_record_plan(sample_times, horizon, dt_target, snap_every):
    """The record plan found by walking every record of every interval in
    Python, as ``_record_plan`` did before it took its records over whole
    arrays: the reference for its arrays, bit for bit."""
    t0 = np.asarray(sample_times, dtype=float)
    count = t0.size
    gap = np.append(t0[1:], horizon) - t0
    live = gap > 1e-14
    steps = np.where(live, np.maximum(1.0, np.ceil(gap / dt_target - 1e-9)), 0.0).astype(np.int64)
    dt = np.where(live, gap / np.maximum(steps, 1), 0.0)
    record_steps, ends, due = [], [], 0.0
    for t_j, n, h in zip(t0.tolist(), steps.tolist(), dt.tolist()):
        due = max(due, t_j) + snap_every
        done = 0
        while done < n:
            late = due - 1e-12
            s = max(done + 1, math.ceil((late - t_j) / h))
            while s > done + 1 and t_j + (s - 1) * h >= late:
                s -= 1
            while s < n and t_j + s * h < late:
                s += 1
            if s >= n:
                break
            record_steps.append(s)
            done = s
            due += snap_every
        ends.append(len(record_steps))
    taken = np.diff(ends, prepend=0)
    rec_interval = np.repeat(np.arange(count), taken)
    rec_steps = np.array(record_steps, dtype=np.int64)
    sample_pos = np.arange(count) + np.cumsum(taken) - taken
    rec_pos = np.arange(rec_steps.size) + rec_interval + 1
    horizon_row = bool(count and live[-1])
    cand = np.empty(count + rec_steps.size + horizon_row)
    cand[sample_pos] = t0
    cand[rec_pos] = t0[rec_interval] + rec_steps * dt[rec_interval]
    if horizon_row:
        cand[-1] = horizon
        rec_interval = np.append(rec_interval, count - 1)
        rec_steps = np.append(rec_steps, steps[-1])
        rec_pos = np.append(rec_pos, cand.size - 1)
    keep = np.ones(cand.size, dtype=bool)
    last = cand[0]
    for i in range(1, cand.size):
        if cand[i] > last + 1e-14:
            last = cand[i]
        else:
            keep[i] = False
    row_of = np.cumsum(keep) - 1
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
    later = np.append(rows[1:] != rows[:-1], True)
    row_interval[rows[later]] = np.arange(count)[later]
    row_offset[rows[later]] = 0.0
    return simulator._Plan(times, flags, rows, keep[sample_pos], steps, dt, gap, rec_rows,
                           rec_interval, rec_steps, row_interval, row_offset)


def _assert_plans_equal(sample_times, horizon, dt_target, every):
    plan = simulator._record_plan(sample_times, horizon, dt_target, every)
    ref = _parent_record_plan(sample_times, horizon, dt_target, every)
    for name in (f.name for f in dataclasses.fields(simulator._Plan)):
        got, expected = getattr(plan, name), getattr(ref, name)
        assert got.dtype == expected.dtype, name
        np.testing.assert_array_equal(got, expected, err_msg=name)


class TestRecordPlanArrays:
    @pytest.mark.parametrize("spec", [
        {"kind": "uniform", "h": 0.3, "horizon": 4.0},
        {"kind": "random", "h_min": 0.05, "h_max": 0.3, "horizon": 3.0, "seed": 5},
        {"kind": "explicit", "times": [0.0, 0.1, 0.35, 0.6, 0.85, 1.0, 1.25], "horizon": 1.1},
        {"kind": "uniform", "h": 1.0, "horizon": 200.0},
        None,
    ], ids=["uniform", "random", "explicit_cut_before_its_last_time", "predictor_long",
            "two_samples_in_1e14"])
    @pytest.mark.parametrize("every, dt_target", [(0.037, 0.01), (0.1, 0.01), (0.004, 0.01),
                                                  (0.01, 0.01), (0.1, 0.005)])
    def test_plan_is_the_record_walk(self, spec, every, dt_target):
        if spec is None:  # as TestRecordPlan passes it: no schedule takes such samples
            sample_times, horizon = np.array([0.0, 0.5, 0.5 + 4e-15, 1.0]), 1.0
        else:
            sch = make_schedule(spec)
            sample_times, horizon = sch.times[sch.times <= sch.horizon + 1e-12], sch.horizon
        _assert_plans_equal(sample_times, horizon, dt_target, every)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(gaps=st.lists(st.one_of(st.floats(1e-3, 2.0), st.sampled_from([0.1, 0.25, 1.0, 3e-15])),
                         min_size=0, max_size=30),
           tail=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           dt_target=st.one_of(st.floats(1e-3, 0.3), st.sampled_from([0.01, 0.1])),
           ratio=st.one_of(st.floats(0.05, 40.0), st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-12])))
    def test_plan_is_the_record_walk_on_random_schedules(self, gaps, tail, dt_target, ratio):
        # a record spacing at, just above or just below dt_target, or anywhere
        # from 1/20 to 40 times it, over gaps that include empty intervals
        sample_times = np.concatenate([[0.0], np.cumsum(gaps)])
        _assert_plans_equal(sample_times, float(sample_times[-1] + tail), dt_target, ratio * dt_target)


class TestEigenbasis:
    @pytest.mark.parametrize("ends", ["neumann", "neumann_dirichlet", "dirichlet_neumann", "dirichlet"])
    def test_standard_ends_take_no_eigh(self, monkeypatch, ends):
        a0, b0, a1, b1 = {"neumann": (0, 1, 0, 1), "neumann_dirichlet": (0, 1, 1, 0),
                          "dirichlet_neumann": (1, 0, 0, 1), "dirichlet": (1, 0, 1, 0)}[ends]
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        op = DiscreteSLOperator(SLProblem(p=1.0, q=0.7, a0=a0, b0=b0, a1=a1, b1=b1), 51)
        modes = simulator._Eigenbasis(op)
        lam, rows = op.exact_eigenpairs()
        np.testing.assert_array_equal(modes.lam, lam)
        np.testing.assert_array_equal(modes.rows, rows)

    @pytest.mark.parametrize("problem", [
        SLProblem(p=0.5, q=0.3, a0=-1.0, b0=1.0, a1=2.0, b1=1.0),
        SLProblem(p=1.0, q=pf.polynomial([0.5, 1.0]), a0=0.0, b0=1.0, a1=0.0, b1=1.0),
    ], ids=["robin", "variable_q"])
    def test_other_operators_take_eigh_and_their_rayleigh_quotients(self, monkeypatch, problem):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        op = DiscreteSLOperator(problem, 51)
        modes = simulator._Eigenbasis(op)
        assert calls == [(51, 51)]
        # lam is each mode's Rayleigh quotient u' W B_h u, the eigenvalue to roundoff
        quotients = np.array([u @ (op.weights * op.apply(u)) for u in modes.rows])
        np.testing.assert_allclose(modes.lam, quotients, rtol=1e-12, atol=0)
        diag, off = op.symmetric_tridiagonals()
        eigenvalues = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assert np.abs(modes.lam - eigenvalues).max() <= 1e-13 * np.abs(eigenvalues).max()

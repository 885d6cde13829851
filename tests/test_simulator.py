import dataclasses
import decimal
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from parobs import profiles as pf
from parobs.errors import (
    ConfigError, GridMismatch, InvalidSpec, KappaOutOfRange, StepRejected,
)
from parobs.config import build_scenario, example31_config
from parobs.grids import _row_blocks, end_derivatives, snapshot_norms, trapezoid_weights, uniform_grid
from parobs.nonlinear import GainSaturatedTerm, LinearNonlocalTerm, ZeroTerm
from parobs.observer_design import OutputChannel, injection_kernels, make_design, small_gain
from parobs.schedule import make_schedule
from parobs.signals import Disturbances, NoiseSignal, SpaceTimeSignal, TimeSignal
from parobs import simulator
from parobs.simulator import (
    DiscreteObserver,
    GridModes,
    IMEXStepper,
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

    def test_input_sampled_once_equals_field(self):
        # the stepper samples each b_k(x) once; v(t) must stay bitwise v.field(t)
        op = DiscreteSLOperator(NN, 101)
        v = SpaceTimeSignal(terms=(
            (TimeSignal(offset=0.3, amplitude=0.2, omega=2.0), pf.cosine_series(0.5, [0.4])),
            (TimeSignal(offset=-0.1), pf.polynomial([0.0, 1.0, -0.5])),
        ))
        stepper = IMEXStepper(op, ZeroTerm(), v)
        for t in (0.0, 0.37, 2.5):
            assert np.array_equal(stepper._input(t), v.field(t, op.grid))

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

    def test_rejected_dt_leaves_no_factorization_held(self):
        # the rejected dt = 0.05 factors M1 before its Jacobian fails; a step at
        # the earlier dt must not reuse that half-built state
        stiff = LinearNonlocalTerm(uniform_grid(101), a=1.0, b=1.0, gain=40.0)
        stepper, fresh = (IMEXStepper(DiscreteSLOperator(NN, 101), stiff, SpaceTimeSignal())
                          for _ in range(2))
        stepper.step(np.ones(101), 0.0, 0.01)
        with pytest.raises(StepRejected, match="dt=0.05"):
            stepper.step(np.ones(101), 0.0, 0.05)
        np.testing.assert_array_equal(stepper.step(np.ones(101), 0.0, 0.01)[0],
                                      fresh.step(np.ones(101), 0.0, 0.01)[0])

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


class TestPredictorPieces:
    def test_reset_matches_weighted_output_difference(self, ex31_design):
        # example 3.1: k - c = x - 1/2
        grid = uniform_grid(101)
        w = trapezoid_weights(grid)
        field = np.cos(math.pi * grid) + 0.3
        y = np.array([0.7])
        zeta = DiscreteObserver(ex31_design, "predictor", 101).reset(y, field)
        expected = 0.7 - np.dot((grid - 0.5) * w, field)
        assert zeta[0] == pytest.approx(expected, rel=1e-14)

    def test_reset_with_matching_kernels_returns_measurement(self, ex31_design):
        channel = OutputChannel(pf.constant(0.5), pf.constant(0.5))  # k = c
        design = dataclasses.replace(ex31_design, channels=(channel,))
        y = np.array([1.23])
        field = np.random.default_rng(0).standard_normal(11)
        zeta = DiscreteObserver(design, "predictor", 11).reset(y, field)
        assert zeta[0] == 1.23

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
            reset = discrete.reset(discrete.k_rows @ traj.u[k] + ev.xi, traj.w[k])
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
        plant, obs = discrete.plant(nl, SpaceTimeSignal()), discrete.observer(nl, SpaceTimeSignal())
        u = plant.op.pin(np.random.default_rng(3).standard_normal(nodes))
        t_p = plant.step(u, 0.0, dt)[0]
        w, zeta = obs.step(u, 0.0, dt, obs.c_rows @ u)
        assert np.abs(w - t_p).max() <= 1e-14 * np.abs(u).max()
        assert np.abs(zeta - obs.c_rows @ t_p).max() <= 1e-14 * np.abs(u).max()


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


def _step_loop_records(scenario):
    """(times, sample flags, u, w, zeta) at every record of the plain step
    loop over (u, w, zeta), found by walking every step: each sample is a
    record, and so is the first step at or past each due time, which starts
    one snapshot spacing after the sample and moves on by one spacing per
    record. The schedule must end at its horizon."""
    design, nodes = scenario.design, scenario.nodes
    discrete = DiscreteObserver(design, scenario.variant, nodes)
    op, dist = discrete.op, scenario.disturbances
    plant = discrete.plant(scenario.nonlinearity, dist.v)
    obs = discrete.observer(scenario.nonlinearity, dist.v_tilde)
    u = op.pin(pf.as_profile(scenario.u0, op.grid).values(op.grid))
    w = op.pin(pf.as_profile(scenario.w0, op.grid).values(op.grid))
    times = scenario.schedule.times
    every = scenario.snapshot_every or scenario.schedule.horizon / 512.0
    records, due = [], 0.0
    for j, t_j in enumerate(times):
        xi = np.array([s.value(t_j, j) for s in dist.xi]) if dist.xi else np.zeros(design.m)
        zeta = discrete.reset(discrete.k_rows @ u + xi, w)
        records.append((t_j, True, u, w, zeta))
        due = max(due, t_j) + every
        if j + 1 == len(times):
            break
        n_sub = math.ceil((times[j + 1] - t_j) / scenario.dt - 1e-9)
        dt = (times[j + 1] - t_j) / n_sub
        for s in range(1, n_sub + 1):
            u = plant.step(u, t_j + (s - 1) * dt, dt)[0]
            w, zeta = obs.step(w, t_j + (s - 1) * dt, dt, zeta)
            if s < n_sub and t_j + s * dt >= due - 1e-12:
                records.append((t_j + s * dt, False, u, w, zeta))
                due += every
    return tuple(np.array(column) for column in zip(*records))


def _step_loop_errors(scenario) -> np.ndarray:
    """||w - u|| at every sample, from the plain step loop over (u, w, zeta)."""
    _, flags, u, w, _ = _step_loop_records(scenario)
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
            times, flags, u, w, zeta = _step_loop_records(sc)
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
        # the stepped run resets in plant coordinates
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
        reference = _step_loop_errors(sc)
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
        times, flags, u, w, zeta = _step_loop_records(sc)
        assert traj.times.size == times.size > 7 * 7  # about eight records per interval
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_array_equal(traj.sample_flag, flags)
        for name, reference in (("u", u), ("w", w), ("zeta", zeta)):
            np.testing.assert_array_equal(getattr(traj, name), reference, err_msg=name)

    def test_error_norms_are_snapshot_norms_of_the_fields(self, ex31_design):
        # the norms are taken a block of rows at a time: the same bits as
        # snapshot_norms of the whole w - u
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
        np.testing.assert_array_equal(traj.error_l2, l2)
        np.testing.assert_array_equal(traj.error_sup, sup)

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
        distances = []
        for k in (37, 74):
            stepper = discrete.observer(ZeroTerm(), v) if variant else discrete.plant(ZeroTerm(), v)
            w, zeta, dt = w0, zeta0, span / k
            for i in range(k):
                w, zeta = stepper.step(w, t0 + i * dt, dt, zeta)
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
    modal flow (the zero term), or bit for bit by the plant's steps (a
    non-local term)."""
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
    discrete = DiscreteObserver(sc.design, "predictor", nodes)
    samples = np.flatnonzero(traj.sample_flag)
    ends = [*traj.times[samples[1:]], schedule.horizon]
    for r0, r1, t1 in zip(samples, [*samples[1:], traj.times.size], ends):
        t0, rows = traj.times[r0], np.arange(r0 + 1, r1)
        if linear:
            modes = GridModes(discrete)
            decay = modes.flows(traj.times[rows] - t0)[0]
            flow = (decay * modes.project(traj.u[r0])) @ modes.rows
            assert np.abs(traj.u[rows] - flow).max(initial=0.0) <= 1e-12 * np.abs(traj.u[r0]).max()
            continue
        plant = discrete.plant(nl, SpaceTimeSignal())
        n_sub = max(1, math.ceil((t1 - t0) / 0.01 - 1e-9))
        dt, u, due = (t1 - t0) / n_sub, traj.u[r0], iter(rows.tolist())
        row = next(due, None)
        for k in range(1, n_sub + 1):
            u = plant.step(u, t0 + (k - 1) * dt, dt)[0]
            if row is not None and abs(t0 + k * dt - traj.times[row]) <= 1e-12:
                np.testing.assert_array_equal(traj.u[row], u)
                row = next(due, None)
        assert row is None


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

import dataclasses
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
from parobs.grids import end_derivatives, snapshot_norms, trapezoid_weights, uniform_grid
from parobs.nonlinear import GainSaturatedTerm, LinearNonlocalTerm, ZeroTerm
from parobs.observer_design import OutputChannel, injection_kernels, make_design, small_gain
from parobs.schedule import make_schedule
from parobs.signals import Disturbances, NoiseSignal, SpaceTimeSignal, TimeSignal
from parobs import simulator
from parobs.simulator import (
    DiscreteObserver,
    IMEXStepper,
    Scenario,
    simulate,
    step_observer_predictor,
    step_observer_zoh,
    step_plant,
)
from parobs.sturm_liouville import DiscreteSLOperator, SLProblem, analytic_eigensystem
from parobs.analysis import example31_design, run_example_31


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

    def test_singular_crank_nicolson_matrix_rejects_propagated_advance(self):
        # the dense inverse that builds the one-step matrix rejects the same dt
        growth = SLProblem(p=1.0, q=-2.0, a0=0, b0=1, a1=0, b1=1)
        stepper = IMEXStepper(DiscreteSLOperator(growth, 11), ZeroTerm(), SpaceTimeSignal())
        with pytest.raises(StepRejected, match="dt=1"):
            stepper.advance(np.ones(11), 0.0, 1.0, [2])
        assert (stepper.steps, stepper.propagators_built) == (0, 0)

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
        # k = 1 and c = (4/pi) sin(pi x/2) with L placing A at -pi^2/2. A uniform
        # schedule is propagated, a random one stepped; a constant input would
        # move x = 0 if the pin missed it
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
        counts = traj.metadata["integrator"]
        assert (counts["steps"] == 0) == (kind == "uniform")
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


def _stepper(design, nodes, nl, v, variant):
    """The plant (variant None) or an observer stepper of ``design``."""
    if variant is None:
        return DiscreteObserver(design, "zoh", nodes).plant(nl, v)
    return DiscreteObserver(design, variant, nodes).observer(nl, v)


def _advance(stepper, w, t, dt, k, zeta=None, keep=()):
    """``stepper.advance`` by one jump of k steps: the state after it."""
    w_rows, zeta_rows = stepper.advance(w, t, dt, [k], zeta, keep=keep)
    return w_rows[0], zeta_rows[0]


SINE_INPUT = SpaceTimeSignal(terms=(
    (TimeSignal(offset=0.2, amplitude=0.5, omega=3.0, phase=0.4), pf.cosine_series(0.1, [0.4])),
    (TimeSignal(offset=-0.3), pf.polynomial([1.0, -0.5])),
))


class TestAdvance:
    @pytest.mark.parametrize("variant", [None, "predictor", "zoh"], ids=["plant", "predictor", "zoh"])
    @pytest.mark.parametrize("nonlocal_term", [False, True], ids=["zero", "nonlocal"])
    @pytest.mark.parametrize(
        "v", [SpaceTimeSignal(), SpaceTimeSignal(terms=((TimeSignal(offset=0.7), pf.constant(1.0)),)),
              SINE_INPUT], ids=["no_input", "constant_input", "sine_input"])
    def test_advance_equals_steps(self, ex31_design, variant, nonlocal_term, v):
        nodes, dt, t0, k = 101, 0.01, 0.3, 37
        grid = uniform_grid(nodes)
        nl = (LinearNonlocalTerm(grid, a=pf.cosine_series(0.5, [0.3]), b=pf.polynomial([1.0, -0.5]), gain=0.8)
              if nonlocal_term else ZeroTerm())
        w0 = 1.0 + 0.5 * np.cos(math.pi * grid) + 0.2 * grid**2
        zeta0 = np.array([0.3]) if variant else None
        stepper = _stepper(ex31_design, nodes, nl, v, variant)
        w, zeta = w0, zeta0
        for i in range(k):
            w, zeta = stepper.step(w, t0 + i * dt, dt, zeta)
        w_adv, zeta_adv = _advance(_stepper(ex31_design, nodes, nl, v, variant), w0, t0, dt, k, zeta0)
        scale = max(np.abs(w).max(), np.abs(zeta).max(initial=0.0))
        assert np.abs(w_adv - w).max() <= 1e-12 * scale
        assert np.abs(zeta_adv - zeta).max(initial=0.0) <= 1e-12 * scale

    @pytest.mark.parametrize("variant", [None, "predictor", "zoh"], ids=["plant", "predictor", "zoh"])
    def test_jumps_equal_one_call_per_jump(self, ex31_design, variant):
        # T^20 is kept; 7, 3 and 37 take the binary powers
        jumps, t0, dt = [20, 20, 7, 20, 3, 37, 37, 20], 0.3, 0.01
        w0 = 1.0 + 0.5 * np.cos(math.pi * uniform_grid(101))
        zeta0 = np.array([0.3]) if variant else None
        stepper = _stepper(ex31_design, 101, ZeroTerm(), SINE_INPUT, variant)
        w_rows, zeta_rows = stepper.advance(w0, t0, dt, jumps, zeta0, keep=(20,))
        reference = _stepper(ex31_design, 101, ZeroTerm(), SINE_INPUT, variant)
        w, zeta, done = w0, zeta0, 0
        for i, k in enumerate(jumps):
            w, zeta = _advance(reference, w, t0 + done * dt, dt, k, zeta, keep=(20,))
            np.testing.assert_array_equal(w_rows[i], w)
            np.testing.assert_array_equal(zeta_rows[i], zeta)
            done += k
        assert stepper.propagator_products == reference.propagator_products == 4 * 1 + 3 + 2 + 2 * 3
        assert (stepper.steps, stepper.propagators_built) == (reference.steps, reference.propagators_built) == (0, 1)

    @pytest.mark.parametrize("stepwise", [False, True], ids=["propagated", "stepwise"])
    @pytest.mark.parametrize("variant", [None, "predictor", "zoh"], ids=["plant", "predictor", "zoh"])
    def test_block_of_states_matches_each_state_alone(self, ex31_design, variant, stepwise):
        # each column takes the inputs from its own start time, and jump i of
        # column c lands in out row rows[i][c]
        jumps, dt, m = [20, 7, 20], 0.01, 1 if variant else 0
        grid = uniform_grid(101)
        starts = np.array([0.3, 1.1, 2.05])
        w0 = np.array([1.0 + a * np.cos(math.pi * grid) for a in (0.5, -0.2, 0.9)])
        zeta0 = np.array([[0.3], [-0.1], [0.7]])[:, :m]
        stepper = _stepper(ex31_design, 101, ZeroTerm(), SINE_INPUT, variant)
        rows = np.array([[0, 3, 6], [1, 4, 7], [2, 5, 8]])
        out_w, out_zeta = stepper.advance(w0, starts, dt, jumps, zeta0, np.zeros((9, 101)),
                                          np.zeros((9, m)), stepwise, (20,), rows)
        reference = _stepper(ex31_design, 101, ZeroTerm(), SINE_INPUT, variant)
        for c, t0 in enumerate(starts):
            w_ref, zeta_ref = reference.advance(w0[c], t0, dt, jumps, zeta0[c], stepwise=stepwise,
                                                keep=(20,))
            scale = np.abs(w_ref).max()
            assert np.abs(out_w[rows[:, c]] - w_ref).max() <= 1e-13 * scale
            assert np.abs(out_zeta[rows[:, c]] - zeta_ref).max(initial=0.0) <= 1e-13 * scale
        assert stepper.propagator_products == reference.propagator_products == (0 if stepwise else 3 * 5)
        assert stepper.steps == reference.steps == (3 * 47 if stepwise else 0)

    def test_kept_step_count_is_a_power_of_the_kept_spacing(self, ex31_design):
        # T^200 is (T^20)^10, and T^20 the product of the binary powers T^4 T^16,
        # which stay with the two: T .. T^16
        stepper = _stepper(ex31_design, 101, ZeroTerm(), SINE_INPUT, "predictor")
        w0, zeta0 = 1.0 + 0.5 * np.cos(math.pi * uniform_grid(101)), np.array([0.3])
        w_adv, zeta_adv = _advance(stepper, w0, 0.3, 0.002, 200, zeta0, keep=(200, 20))
        assert (len(stepper._powers), sorted(stepper._kept)) == (5, [20, 200])
        assert (stepper.steps, stepper.propagators_built, stepper.propagator_products) == (0, 1, 1)
        w, zeta = w0, zeta0
        for i in range(200):
            w, zeta = stepper.step(w, 0.3 + i * 0.002, 0.002, zeta)
        scale = max(np.abs(w).max(), np.abs(zeta).max())
        assert np.abs(w_adv - w).max() <= 1e-12 * scale
        assert np.abs(zeta_adv - zeta).max() <= 1e-12 * scale

    def test_stepwise_jumps_step_from_the_call_time(self, ex31_design):
        grid = uniform_grid(101)
        w0, zeta0, t0, dt = np.cos(math.pi * grid), np.array([0.2]), 0.3, 0.01
        stepper = _stepper(ex31_design, 101, ZeroTerm(), SINE_INPUT, "predictor")
        w_rows, zeta_rows = stepper.advance(w0, t0, dt, [3, 5], zeta0, stepwise=True)
        assert (stepper.steps, stepper.propagators_built, stepper.propagator_products) == (8, 0, 0)
        reference = _stepper(ex31_design, 101, ZeroTerm(), SINE_INPUT, "predictor")
        w, zeta = w0, zeta0
        for s in range(8):
            w, zeta = reference.step(w, t0 + s * dt, dt, zeta)
            if s == 2:
                np.testing.assert_array_equal(w_rows[0], w)
                np.testing.assert_array_equal(zeta_rows[0], zeta)
        np.testing.assert_array_equal(w_rows[1], w)
        np.testing.assert_array_equal(zeta_rows[1], zeta)

    def test_dirichlet_plant_advance_equals_steps(self, ex32_design):
        nodes, dt, k = 201, 0.002, 45
        u0 = pf.cosine(math.sqrt(2.0), math.pi / 2.0).values(uniform_grid(nodes))
        u0[-1] = 0.0
        stepper = _stepper(ex32_design, nodes, ZeroTerm(), SINE_INPUT, None)
        u = u0
        for i in range(k):
            u = stepper.step(u, i * dt, dt)[0]
        u_adv = _advance(_stepper(ex32_design, nodes, ZeroTerm(), SINE_INPUT, None), u0, 0.0, dt, k)[0]
        assert np.abs(u_adv - u).max() <= 1e-12 * np.abs(u).max()
        assert u_adv[-1] == 0.0

    @pytest.mark.parametrize("design_name", ["ex31_design", "ex32_design"])
    @pytest.mark.parametrize("nonlocal_term", [False, True], ids=["zero", "nonlocal"])
    def test_predictor_matches_plant_on_matched_states(self, request, design_name, nonlocal_term):
        # T_o [u; C u] = [T_p u; C T_p u]: the error coordinates are the scheme's own
        design = request.getfixturevalue(design_name)
        nodes, dt = 101, 0.01
        grid = uniform_grid(nodes)
        nl = (LinearNonlocalTerm(grid, a=pf.cosine_series(0.5, [0.3]), b=1.0, gain=0.8)
              if nonlocal_term else ZeroTerm())
        plant = _stepper(design, nodes, nl, SpaceTimeSignal(), None)
        obs = _stepper(design, nodes, nl, SpaceTimeSignal(), "predictor")
        u = plant.op.pin(np.random.default_rng(3).standard_normal(nodes))
        t_p = _advance(plant, u, 0.0, dt, 1)[0]
        w, zeta = _advance(obs, u, 0.0, dt, 1, obs.c_rows @ u)
        assert np.abs(w - t_p).max() <= 1e-14 * np.abs(u).max()
        assert np.abs(zeta - obs.c_rows @ t_p).max() <= 1e-14 * np.abs(u).max()

    def test_saturated_term_steps(self, ex31_design):
        grid = uniform_grid(101)
        nl = GainSaturatedTerm(grid, weights=[pf.cosine_series(0.0, [1.0])], amplitudes=[pf.constant(0.3)])
        stepper = _stepper(ex31_design, 101, nl, SINE_INPUT, "zoh")
        w, zeta = np.cos(math.pi * grid), np.array([0.2])
        w_adv, _ = _advance(stepper, w, 0.1, 0.01, 12, zeta)
        reference = _stepper(ex31_design, 101, nl, SINE_INPUT, "zoh")
        for i in range(12):
            w, zeta = reference.step(w, 0.1 + i * 0.01, 0.01, zeta)
        np.testing.assert_array_equal(w_adv, w)
        assert (stepper.steps, stepper.propagators_built, stepper.propagator_products) == (12, 0, 0)

    def test_powers_past_the_memory_cap_step(self, ex31_design, monkeypatch):
        monkeypatch.setattr(simulator, "_PROPAGATOR_BYTES", 0)
        stepper = _stepper(ex31_design, 101, ZeroTerm(), SpaceTimeSignal(), "predictor")
        _advance(stepper, np.ones(101), 0.0, 0.01, 5, np.zeros(1))
        assert (stepper.steps, stepper.propagators_built) == (5, 0)

    def test_powers_are_kept_per_dt(self, ex31_design):
        stepper = _stepper(ex31_design, 101, ZeroTerm(), SINE_INPUT, None)
        u = np.ones(101)
        for k in (3, 20, 7):
            _advance(stepper, u, 0.0, 0.01, k)
        assert stepper.propagators_built == 1
        assert stepper.propagator_products == 2 + 2 + 3  # none is kept: each k takes popcount(k)
        _advance(stepper, u, 0.0, 0.02, 1)
        assert stepper.propagators_built == 2

    def test_repeated_k_takes_one_product_with_the_kept_matrix(self, ex31_design):
        stepper = _stepper(ex31_design, 101, ZeroTerm(), SINE_INPUT, "predictor")
        w, zeta = np.cos(math.pi * uniform_grid(101)), np.array([0.2])
        first = _advance(stepper, w, 0.3, 0.01, 37, zeta, keep=(37,))
        for calls in (2, 3):
            again = _advance(stepper, w, 0.3, 0.01, 37, zeta, keep=(37,))
            np.testing.assert_array_equal(again[0], first[0])
            np.testing.assert_array_equal(again[1], first[1])
            assert stepper.propagator_products == calls
        # the T^37 kept for dt = 0.01 is not reused at dt = 0.02
        fresh = _stepper(ex31_design, 101, ZeroTerm(), SINE_INPUT, "predictor")
        np.testing.assert_array_equal(_advance(stepper, w, 0.3, 0.02, 37, zeta, keep=(37,))[0],
                                      _advance(fresh, w, 0.3, 0.02, 37, zeta, keep=(37,))[0])

    def test_kept_matrix_past_the_memory_cap_uses_the_powers(self, ex31_design, monkeypatch):
        # room for the 6 powers of k = 37 = 0b100101, not for a seventh matrix:
        # the T^7 kept next to 3 powers is dropped, and T^37 is not kept
        size = 101 + 1 + 3 * len(SINE_INPUT.terms)
        monkeypatch.setattr(simulator, "_PROPAGATOR_BYTES", 8 * size**2 * 6)
        grid = uniform_grid(101)
        w0, zeta0, k = 1.0 + 0.5 * np.cos(math.pi * grid), np.array([0.3]), 37
        stepper = _stepper(ex31_design, 101, ZeroTerm(), SINE_INPUT, "predictor")
        _advance(stepper, w0, 0.3, 0.01, 7, zeta0, keep=(7,))
        assert list(stepper._kept) == [7]
        w_adv, zeta_adv = _advance(stepper, w0, 0.3, 0.01, k, zeta0)
        assert stepper._kept == {}
        assert (stepper.steps, stepper.propagators_built, stepper.propagator_products) == (0, 1, 1 + 3)
        w, zeta = w0, zeta0
        for i in range(k):
            w, zeta = stepper.step(w, 0.3 + i * 0.01, 0.01, zeta)
        scale = max(np.abs(w).max(), np.abs(zeta).max())
        assert np.abs(w_adv - w).max() <= 1e-12 * scale
        assert np.abs(zeta_adv - zeta).max() <= 1e-12 * scale

    @pytest.mark.parametrize("variant", [None, "predictor", "zoh"], ids=["plant", "predictor", "zoh"])
    def test_switching_factorization_matches_a_fresh_stepper(self, ex31_design, variant):
        # advance builds T from a dense M1^-1 and step solves with the tridiagonal
        # LU: each refactors at the same dt when the other one is held
        w0 = 1.0 + 0.5 * np.cos(math.pi * uniform_grid(101))
        zeta0, t0, dt, k = (np.array([0.3]) if variant else None), 0.3, 0.01, 20

        def fresh():
            return _stepper(ex31_design, 101, ZeroTerm(), SINE_INPUT, variant)

        one_step, jump = fresh().step(w0, t0, dt, zeta0), _advance(fresh(), w0, t0, dt, k, zeta0)
        stepper = fresh()
        results = [_advance(stepper, w0, t0, dt, k, zeta0), stepper.step(w0, t0, dt, zeta0)]
        stepper = fresh()
        results += [stepper.step(w0, t0, dt, zeta0), _advance(stepper, w0, t0, dt, k, zeta0)]
        for (w, zeta), (w_ref, zeta_ref) in zip(results, [jump, one_step, one_step, jump]):
            np.testing.assert_array_equal(w, w_ref)
            np.testing.assert_array_equal(zeta, zeta_ref)

    def test_propagated_run_leaves_scipy_out(self):
        # every interval of example 3.1 is propagated, so no step solves with LAPACK
        code = (
            "import sys\n"
            "from parobs.analysis import run_example_31\n"
            "run = run_example_31(horizon=2.0)\n"
            "assert run.trajectory.metadata['integrator']['steps'] == 0\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(simulator.__file__).parents[1])  # the directory holding the parobs package
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


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


class TestSimulatePropagation:
    @pytest.mark.parametrize("variant", ["predictor", "zoh"])
    @pytest.mark.parametrize("h", [0.25, 0.3])
    def test_error_coordinates_match_step_loop(self, ex31_design, variant, h):
        # at h = 0.3 the gaps of arange(n) * h differ in their last bits; every
        # interval is propagated either way, the first one too
        grid = uniform_grid(101)
        nl = LinearNonlocalTerm(grid, a=pf.cosine_series(0.3, [0.2]), b=pf.constant(1.0), gain=0.3)
        design = dataclasses.replace(ex31_design, lipschitz_R=nl.lipschitz_R)
        v_tilde = SpaceTimeSignal(terms=((TimeSignal(amplitude=0.3, omega=1.5), pf.cosine_series(0.1, [0.4])),))
        dist = Disturbances(v=SINE_INPUT, v_tilde=v_tilde,
                            xi=(NoiseSignal(kind="sinusoid", amplitude=0.01, omega=2.0),))
        sc = Scenario(design=design, variant=variant, nodes=101, dt=0.01, snapshot_every=0.05,
                      schedule=make_schedule({"kind": "uniform", "h": h, "horizon": 4.0}),
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0), nonlinearity=nl,
                      disturbances=dist)
        traj = quiet_simulate(sc)
        counts = traj.metadata["integrator"]
        assert counts["propagators_built"] == 2 and counts["propagator_products"] > 0
        assert counts["steps"] == 0
        reference = _step_loop_errors(sc)
        assert np.abs(traj.error_l2[traj.sample_flag] - reference).max() <= 1e-12

    @pytest.mark.parametrize("variant", ["predictor", "zoh"])
    def test_two_channel_saturated_run_matches_step_loop(self, nn_problem, variant):
        # m = 2: the example 3.1 channel and a weighted average, each kernel
        # offset from its approximant by a small polynomial; the stepped run
        # resets in plant coordinates
        grid = uniform_grid(101)
        nl = GainSaturatedTerm(grid, weights=[pf.cosine_series(0.0, [1.0])], amplitudes=[pf.constant(0.2)])
        average = pf.cosine_series(0.5, [0.0, 0.1 * math.sqrt(2.0)])
        channels = [OutputChannel(kernel=pf.polynomial([0.0, 1.0, 0.05]), approximant=pf.constant(0.5)),
                    OutputChannel(kernel=average + pf.polynomial([0.02, -0.04]), approximant=average)]
        design = make_design(nn_problem, analytic_eigensystem(nn_problem, 60, 1001), channels,
                             np.array([[-0.6 * math.pi**2, -0.4 * math.pi**2]]), N=1, Q=2.0,
                             lipschitz_R=nl.lipschitz_R)
        noise = (NoiseSignal("sinusoid", 0.01, omega=2.0), NoiseSignal("constant", -0.02))
        sc = Scenario(design=design, variant=variant, nodes=101, dt=0.01, nonlinearity=nl,
                      schedule=make_schedule({"kind": "uniform", "h": 0.05, "horizon": 1.0}),
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0),
                      disturbances=Disturbances(xi=noise))
        assert design.L.shape == (1, 2) and sc.report.feasible
        traj = quiet_simulate(sc)
        assert traj.metadata["integrator"]["propagators_built"] == 0
        reference = _step_loop_errors(sc)
        assert np.abs(traj.error_l2[traj.sample_flag] - reference).max() <= 1e-12

    @pytest.mark.parametrize("horizon, counts", [(0.5, (0, 2)), (0.25, (2 * 25, 0))],
                             ids=["two_intervals", "one_interval"])
    def test_first_interval_is_propagated_when_the_next_shares_its_dt(self, ex31_design, horizon, counts):
        noise = NoiseSignal(kind="sinusoid", amplitude=0.01, omega=2.0)
        sc = Scenario(design=ex31_design, variant="predictor", nodes=101, dt=0.01,
                      schedule=make_schedule({"kind": "uniform", "h": 0.25, "horizon": horizon}),
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0),
                      disturbances=Disturbances(xi=(noise,)))
        traj = quiet_simulate(sc)
        integrator = traj.metadata["integrator"]
        assert (integrator["steps"], integrator["propagators_built"]) == counts
        reference = _step_loop_errors(sc)
        assert np.abs(traj.error_l2[traj.sample_flag] - reference).max() <= 1e-12

    @pytest.mark.parametrize("variant", ["predictor", "zoh"])
    def test_every_record_matches_step_loop(self, ex31_design, variant):
        # records 0.037 apart fall between steps of 0.01; every interval is
        # propagated, so a row left unfilled or shifted by one shows here
        v_tilde = SpaceTimeSignal(terms=((TimeSignal(amplitude=0.3, omega=1.5), pf.cosine_series(0.1, [0.4])),))
        dist = Disturbances(v=SINE_INPUT, v_tilde=v_tilde,
                            xi=(NoiseSignal(kind="sinusoid", amplitude=0.01, omega=2.0),))
        sc = Scenario(design=ex31_design, variant=variant, nodes=101, dt=0.01, snapshot_every=0.037,
                      schedule=make_schedule({"kind": "uniform", "h": 0.3, "horizon": 2.1}),
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0), disturbances=dist)
        traj = quiet_simulate(sc)
        assert traj.metadata["integrator"]["steps"] == 0
        times, flags, u, w, zeta = _step_loop_records(sc)
        assert traj.times.size == times.size > 7 * 7  # about eight records per interval
        assert np.abs(traj.times - times).max() <= 1e-12
        np.testing.assert_array_equal(traj.sample_flag, flags)
        for name, reference in (("u", u), ("w", w), ("zeta", zeta)):
            assert np.abs(getattr(traj, name) - reference).max() <= 1e-12, name

    @pytest.mark.parametrize("variant", ["predictor", "zoh"])
    def test_spacing_that_does_not_divide_the_interval_matches_step_loop(self, ex31_design, variant):
        # records 0.07 apart in intervals of 0.25 fall at different steps of
        # each interval: the record pass runs one block per jump pattern
        v_tilde = SpaceTimeSignal(terms=((TimeSignal(amplitude=0.3, omega=1.5), pf.cosine_series(0.1, [0.4])),))
        dist = Disturbances(v=SINE_INPUT, v_tilde=v_tilde,
                            xi=(NoiseSignal(kind="sinusoid", amplitude=0.01, omega=2.0),))
        sc = Scenario(design=ex31_design, variant=variant, nodes=101, dt=0.01, snapshot_every=0.07,
                      schedule=make_schedule({"kind": "uniform", "h": 0.25, "horizon": 3.0}),
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0), disturbances=dist)
        plan = simulator._record_plan(sc.schedule.times, 3.0, 0.01, 0.07, linear=True)[2]
        patterns = {iv.jumps[:-1] for iv in plan if iv.propagate and len(iv.jumps) > 1}
        assert len(patterns) >= 3
        traj = quiet_simulate(sc)
        assert traj.metadata["integrator"]["steps"] == 0
        times, flags, u, w, zeta = _step_loop_records(sc)
        assert np.abs(traj.times - times).max() <= 1e-12
        np.testing.assert_array_equal(traj.sample_flag, flags)
        for name, reference in (("u", u), ("w", w), ("zeta", zeta)):
            assert np.abs(getattr(traj, name) - reference).max() <= 1e-12, name
        assert np.abs(traj.error_l2[traj.sample_flag] - _step_loop_errors(sc)).max() <= 1e-12

    def test_default_spacing_criterion_4_run_keeps_ten_matrices_per_stepper(self, monkeypatch):
        # records every 200/512 time units are 78 or 79 steps of 0.005 apart,
        # so T^200 and T^78 are kept; the binary powers go once both are, and
        # the other jumps, up to 154 steps from a sample to its first record,
        # rebuild T .. T^128; each stepper drops them all after its record pass
        caches = []
        release = simulator.IMEXStepper._release

        def recording_release(self):
            caches.append((len(self._powers), sorted(self._kept)))
            release(self)

        monkeypatch.setattr(simulator.IMEXStepper, "_release", recording_release)
        run = run_example_31(p=0.1, h=1.0, omega=0.1, horizon=200.0, nodes=201)
        assert run.trajectory.metadata["integrator"]["steps"] == 0
        assert caches == [(8, [78, 200])] * 2

    @pytest.mark.parametrize("variant", ["predictor", "zoh"])
    @pytest.mark.parametrize("cap_bits, steps", [(4, 0), (0, 2 * 8 * 32)], ids=["spacing_fits", "nothing_fits"])
    def test_interval_past_the_cap_takes_its_record_jumps(self, ex31_design, monkeypatch, variant,
                                                          cap_bits, steps):
        # 8 intervals of 32 steps, a record every 4: with room for 4 binary powers
        # a jump of 4 steps is a product and one of 32 is not, so each interval
        # takes its record-to-record jumps once, not its step loop and then its
        # records again; with no room every step of the plan is taken once
        v_tilde = SpaceTimeSignal(terms=((TimeSignal(amplitude=0.3, omega=1.5), pf.cosine_series(0.1, [0.4])),))
        dist = Disturbances(v=SINE_INPUT, v_tilde=v_tilde,
                            xi=(NoiseSignal(kind="sinusoid", amplitude=0.01, omega=2.0),))
        sc = Scenario(design=ex31_design, variant=variant, nodes=101, dt=0.01, snapshot_every=0.04,
                      schedule=make_schedule({"kind": "uniform", "h": 0.32, "horizon": 2.56}),
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0), disturbances=dist)
        size = 101 + 1 + 3 * 4  # the observer's (w, zeta, z): v~ - v has four terms
        monkeypatch.setattr(simulator, "_PROPAGATOR_BYTES", 8 * size**2 * cap_bits)
        traj = quiet_simulate(sc)
        assert traj.metadata["integrator"]["steps"] == steps
        times, flags, u, w, zeta = _step_loop_records(sc)
        assert traj.times.size == times.size == 8 * 8 + 1
        np.testing.assert_array_equal(traj.sample_flag, flags)
        for name, reference in (("u", u), ("w", w), ("zeta", zeta)):
            assert np.abs(getattr(traj, name) - reference).max() <= 1e-12, name

    def test_record_pass_builds_each_dt_once(self):
        # two propagated dts: 7 steps of 0.2/7, then 9 steps of 0.25/9; each dt's
        # interior records are filled before the sample pass moves to the next
        cfg = example31_config(p=1.0, h=0.25, omega=0.1, horizon=0.9, nodes=101, snapshot_every=0.05)
        cfg["schedule"] = {"kind": "explicit", "times": [0, 0.2, 0.4, 0.65, 0.9]}
        cfg["time"]["dt"] = 0.03
        sc = build_scenario(cfg)
        traj = quiet_simulate(sc)
        counts = traj.metadata["integrator"]
        assert (counts["steps"], counts["propagators_built"]) == (0, 4)
        times, flags, u, w, zeta = _step_loop_records(sc)
        assert np.abs(traj.times - times).max() <= 1e-12
        np.testing.assert_array_equal(traj.sample_flag, flags)
        for name, reference in (("u", u), ("w", w), ("zeta", zeta)):
            assert np.abs(getattr(traj, name) - reference).max() <= 1e-12, name
        assert np.abs(traj.error_l2[traj.sample_flag] - _step_loop_errors(sc)).max() <= 1e-12

    @pytest.mark.parametrize("run", ["propagated", "stepped_tanh", "record_jumps"])
    def test_error_norms_are_snapshot_norms_of_the_fields(self, ex31_design, monkeypatch, run):
        # the norms are taken a block of rows at a time: the same bits as
        # snapshot_norms of the whole w - u
        if run == "propagated":  # 601 records: two blocks, the second of 345 rows
            sc = build_scenario(example31_config(p=0.1, h=1.0, omega=0.1, horizon=60.0,
                                                 snapshot_every=0.1))
        elif run == "stepped_tanh":
            grid = uniform_grid(101)
            nl = GainSaturatedTerm(grid, weights=[pf.cosine_series(0.0, [1.0])],
                                   amplitudes=[pf.constant(0.2)])
            sc = Scenario(design=dataclasses.replace(ex31_design, lipschitz_R=nl.lipschitz_R),
                          variant="zoh", nodes=101, dt=0.01, snapshot_every=0.01, nonlinearity=nl,
                          schedule=make_schedule({"kind": "uniform", "h": 0.25, "horizon": 6.0}),
                          u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0),
                          disturbances=Disturbances(v=SINE_INPUT))
        else:  # as in test_interval_past_the_cap_takes_its_record_jumps, with room for 4 powers
            sc = Scenario(design=ex31_design, variant="predictor", nodes=101, dt=0.01,
                          snapshot_every=0.01, disturbances=Disturbances(v=SINE_INPUT),
                          schedule=make_schedule({"kind": "uniform", "h": 0.32, "horizon": 6.4}),
                          u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0))
            size = 101 + 1 + 3 * 4
            monkeypatch.setattr(simulator, "_PROPAGATOR_BYTES", 8 * size**2 * 4)
        traj = quiet_simulate(sc)
        counts = traj.metadata["integrator"]
        assert (counts["propagators_built"] > 0) == (run != "stepped_tanh")
        assert traj.times.size > 512
        l2, sup = snapshot_norms(traj.w - traj.u, traj.weights)
        np.testing.assert_array_equal(traj.error_l2, l2)
        np.testing.assert_array_equal(traj.error_sup, sup)

    def test_propagated_run_holds_little_more_than_its_trajectory(self):
        # the traced peak of simulate over what was live before it: the
        # returned trajectory, the kept T, T^20 and T^200, and one power
        # build counted as T .. T^128, T^20 and T^200; one stepper's cache
        # (T .. T^16, T^20 and T^200) and its record-pass blocks fit in that
        sc = build_scenario(example31_config(p=0.1, h=1.0, omega=0.1, horizon=200.0,
                                             snapshot_every=0.1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = quiet_simulate(sc)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert traj.metadata["integrator"] == {"steps": 0, "propagators_built": 2,
                                               "propagator_products": 4000}
        arrays = (traj.times, traj.u, traj.w, traj.zeta, traj.sample_flag, traj.grid, traj.error_l2,
                  traj.error_sup)
        trajectory = sum(a.nbytes if a.base is None else a.base.nbytes for a in arrays)
        matrix, keep = 8 * (201 + 1) ** 2, (200, 20)
        kept = 1 + len(keep)
        build = max(keep).bit_length() + len(keep)
        assert peak <= trajectory + matrix * (kept + build)

    def test_observer_builds_its_matrices_after_the_plant_released_its_own(self, monkeypatch):
        # the plant runs through the whole plan, then the observer: one
        # stepper's matrices are alive at a time, for each of the two dts
        calls = []
        propagator, release = simulator.IMEXStepper._propagator, simulator.IMEXStepper._release

        def recording_propagator(self, dt):
            calls.append(("observer" if self.m else "plant", "build"))
            return propagator(self, dt)

        def recording_release(self):
            calls.append(("observer" if self.m else "plant", "release"))
            release(self)

        monkeypatch.setattr(simulator.IMEXStepper, "_propagator", recording_propagator)
        monkeypatch.setattr(simulator.IMEXStepper, "_release", recording_release)
        cfg = example31_config(p=1.0, h=0.25, omega=0.1, horizon=0.9, nodes=101, snapshot_every=0.05)
        cfg["schedule"] = {"kind": "explicit", "times": [0, 0.2, 0.4, 0.65, 0.9]}
        cfg["time"]["dt"] = 0.03
        quiet_simulate(build_scenario(cfg))
        assert calls == [(stepper, event) for stepper in ("plant", "observer")
                         for event in ("build", "build", "release")]

    def test_default_spacing_criterion_4_run_holds_one_steppers_matrices(self):
        # the traced peak of simulate over what was live before it: the
        # returned trajectory, one stepper's matrices (T .. T^128, T^78 and
        # T^200), the shared dense inverse of M1, the running product of a
        # kept matrix built from three or more powers, and one matrix's room
        # for the plan, the sample events and the record-pass blocks
        sc = build_scenario(example31_config(p=0.1, h=1.0, omega=0.1, horizon=200.0, nodes=201))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = quiet_simulate(sc)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert traj.metadata["integrator"]["steps"] == 0
        arrays = (traj.times, traj.u, traj.w, traj.zeta, traj.sample_flag, traj.grid, traj.error_l2,
                  traj.error_sup)
        trajectory = sum(a.nbytes if a.base is None else a.base.nbytes for a in arrays)
        matrix = 8 * (201 + 1) ** 2
        assert peak <= trajectory + matrix * (8 + 2 + 1 + 1 + 1)

    def test_plant_and_observer_share_one_inverse(self, ex31_design, monkeypatch):
        # one dt: the plant's dense inverse of M1 serves the observer too
        inverses = []
        inv = np.linalg.inv

        def counting_inv(a):
            if a.shape == (101, 101):
                inverses.append(a)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        sc = Scenario(design=ex31_design, variant="predictor", nodes=101, dt=0.01, snapshot_every=0.037,
                      schedule=make_schedule({"kind": "uniform", "h": 0.3, "horizon": 2.1}),
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0),
                      disturbances=Disturbances(v=SINE_INPUT))
        counts = quiet_simulate(sc).metadata["integrator"]
        assert (counts["steps"], counts["propagators_built"], len(inverses)) == (0, 2, 1)

    def test_discrete_observer_checks_the_variant(self, ex31_design):
        with pytest.raises(ValueError, match="unknown observer variant 'Predictor'"):
            DiscreteObserver(ex31_design, "Predictor", 101)

    def test_saturated_and_random_runs_build_no_propagator(self, ex31_design):
        grid = uniform_grid(101)
        nl = GainSaturatedTerm(grid, weights=[pf.cosine_series(0.0, [1.0])], amplitudes=[pf.constant(0.2)])
        uniform = make_schedule({"kind": "uniform", "h": 0.25, "horizon": 1.0})
        random = make_schedule({"kind": "random", "h_min": 0.1, "h_max": 0.3, "horizon": 1.0, "seed": 5})
        runs = [
            Scenario(design=dataclasses.replace(ex31_design, lipschitz_R=nl.lipschitz_R), variant="zoh",
                     schedule=uniform, nodes=101, dt=0.01, u0=1.0, w0=0.0, nonlinearity=nl),
            Scenario(design=ex31_design, variant="predictor", schedule=random, nodes=101, dt=0.01,
                     u0=1.0, w0=0.0),
        ]
        for sc in runs:
            counts = quiet_simulate(sc).metadata["integrator"]
            assert counts["propagators_built"] == counts["propagator_products"] == 0
            assert counts["steps"] >= 2 * 100


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
    def test_records_match_a_step_walk(self, spec, every, linear):
        sch = make_schedule(spec)
        sample_times = sch.times[sch.times <= sch.horizon + 1e-12]
        times, flags, plan = simulator._record_plan(sample_times, sch.horizon, 0.01, every, linear)
        walk_times, walk_flags = _walk_records([float(t) for t in sample_times], sch.horizon, 0.01, every)
        # a linear run may take the previous interval's dt, which moves its
        # step times by the rounding of the sample times
        assert times.size == walk_times.size
        assert np.abs(times - walk_times).max() <= (1e-12 if linear else 0.0)
        np.testing.assert_array_equal(flags, walk_flags)
        assert len(plan) == sample_times.size and all(iv.fresh for iv in plan)
        for iv, t0, t1 in zip(plan, sample_times, [*sample_times[1:], sch.horizon]):
            # the jumps cover the interval and end at its records
            assert sum(iv.jumps) * iv.dt == pytest.approx(t1 - t0, abs=1e-12)
            inner = times[iv.row + 1 : iv.row + len(iv.jumps)]
            np.testing.assert_array_equal(inner, t0 + np.cumsum(iv.jumps[:-1]) * iv.dt)
        assert times[-1] == sch.horizon

    def test_a_sample_within_1e14_of_a_record_shares_its_row(self):
        # the horizon is the last sample: one final row, the sample's
        sample_times = np.array([0.0, 0.5, 0.5 + 4e-15, 1.0])
        times, flags, plan = simulator._record_plan(sample_times, 1.0, 0.1, 0.25, linear=False)
        walk_times, _ = _walk_records(list(sample_times), 1.0, 0.1, 0.25)
        np.testing.assert_array_equal(times, walk_times[walk_times != sample_times[2]])
        assert np.count_nonzero(np.abs(times - 0.5) <= 1e-14) == 1
        assert plan[2].row == plan[1].row and plan[1].fresh and not plan[2].fresh
        assert flags[plan[1].row] and flags.sum() == 3
        assert (times[-1], flags[-1], np.count_nonzero(times == 1.0)) == (1.0, True, 1)
        assert plan[-1].jumps == ()

    def test_a_final_jump_onto_a_duplicate_record_keeps_the_sample_row(self, ex31_design):
        # the horizon is one ulp past the last sample, so the last interval
        # takes one step whose record would duplicate the sample's
        horizon = math.nextafter(100.0, math.inf)
        sch = make_schedule({"kind": "explicit", "times": [0.0, 100.0, 101.0], "horizon": horizon})
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=51, dt=1.0,
                      snapshot_every=25.0, u0=pf.cosine_series(1.0, [0.5]), w0=0.0)
        traj = quiet_simulate(sc)
        assert traj.times.tolist() == [0.0, 25.0, 50.0, 75.0, 100.0]
        assert traj.sample_flag.tolist() == [True, False, False, False, True]
        assert traj.metadata["integrator"]["steps"] == 2 * (100 + 1)
        # the extra step is taken but not recorded: the run ending at 100 reads the same
        ends_at_100 = quiet_simulate(dataclasses.replace(
            sc, schedule=make_schedule({"kind": "explicit", "times": [0.0, 100.0]})))
        for name in ("times", "sample_flag", "u", "w", "zeta"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(ends_at_100, name))

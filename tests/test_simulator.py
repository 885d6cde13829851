import dataclasses
import math
import warnings

import numpy as np
import pytest

from parobs import profiles as pf
from parobs.errors import ScheduleHorizonMismatch, StepRejected
from parobs.grids import trapezoid_weights, uniform_grid
from parobs.nonlinear import GainSaturatedTerm, LinearNonlocalTerm
from parobs.observer_design import OutputChannel, injection_kernels, make_design
from parobs.schedule import make_schedule
from parobs.signals import Disturbances, NoiseSignal, SpaceTimeSignal, TimeSignal
from parobs.simulator import (
    Scenario,
    bc_residual,
    measure,
    reset_predictor,
    simulate,
    step_observer_predictor,
    step_observer_zoh,
    step_plant,
)
from parobs.sturm_liouville import DiscreteSLOperator, SLProblem, analytic_eigensystem
from parobs.analysis import example31_design, predictor_compatibility_residual


def quiet_simulate(scenario):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate(scenario)


NN = SLProblem(p=1.0, q=0.0, a0=0, b0=1, a1=0, b1=1)


class TestMeasure:
    def test_zero_state(self):
        grid = uniform_grid(101)
        rows = np.atleast_2d(grid * trapezoid_weights(grid))
        assert measure(np.zeros(101), rows, np.zeros(1))[0] == 0.0

    def test_weighted_average_of_constant(self):
        # trapezoid quadrature of x * 1 is exact for the linear kernel
        grid = uniform_grid(101)
        rows = np.atleast_2d(grid * trapezoid_weights(grid))
        y = measure(np.ones(101), rows, np.zeros(1))
        assert y[0] == pytest.approx(0.5, rel=1e-14)

    def test_noise_shifts_linearly(self):
        grid = uniform_grid(101)
        rows = np.atleast_2d(grid * trapezoid_weights(grid))
        y0 = measure(np.ones(101), rows, np.zeros(1))
        y1 = measure(np.ones(101), rows, np.array([0.25]))
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

    def test_step_rejected_for_stiff_nonlocal_term(self):
        grid = uniform_grid(101)
        stiff = LinearNonlocalTerm(grid, a=1.0, b=1.0, gain=300.0)
        with pytest.raises(StepRejected):
            step_plant(np.ones(101), 0.0, 0.05, NN, stiff, None)


class TestPredictorPieces:
    def test_reset_matches_weighted_output_difference(self, ex31_design):
        grid = uniform_grid(101)
        w = trapezoid_weights(grid)
        rows_gap = np.atleast_2d((grid - 0.5) * w)
        field = np.cos(math.pi * grid) + 0.3
        y = np.array([0.7])
        zeta = reset_predictor(y, field, rows_gap)
        expected = 0.7 - np.dot((grid - 0.5) * w, field)
        assert zeta[0] == pytest.approx(expected, rel=1e-14)

    def test_reset_with_matching_kernels_returns_measurement(self):
        y = np.array([1.23])
        zeta = reset_predictor(y, np.random.default_rng(0).standard_normal(11), np.zeros((1, 11)))
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

    def test_two_channel_step_matches_dense_trapezoid(self, nn_problem, nn_basis):
        # the low-rank corrector converges to the trapezoidal rule of the full
        # linear (w, zeta) system, solved here with dense matrices
        channels = [
            OutputChannel(kernel=pf.polynomial([0.0, 1.0]), approximant=pf.constant(0.5)),
            OutputChannel(kernel=pf.polynomial([0.0, 0.0, 1.0]), approximant=pf.cosine(1.0, math.pi)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            design = make_design(nn_problem, nn_basis, channels, np.array([[-2.0, 0.0], [0.0, -1.0]]),
                                 N=2, sigma_fraction=0.9)
        nodes, t, dt = 41, 0.3, 0.01
        grid = uniform_grid(nodes)
        wts = trapezoid_weights(grid)
        a_prof, b_prof, gain = pf.cosine_series(0.5, [0.3]), pf.polynomial([1.0, -0.5]), 0.4
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
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 1.0})
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=101,
                      u0=pf.cosine_series(1.0, [0.4]), w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        for ev in traj.events:
            k = int(np.searchsorted(traj.times, ev.t))
            assert traj.zeta[k, 0] == pytest.approx(ev.zeta_after[0], abs=1e-15)

    def test_divergence_above_uniform_threshold(self):
        # hold-variant observer diverges for uniform periods above 4/(p pi^2)
        design = example31_design(p=1.0)
        h = 0.5
        sch = make_schedule({"kind": "uniform", "h": h, "horizon": 40 * h})
        sc = Scenario(design=design, variant="zoh", schedule=sch, nodes=101,
                      u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        assert traj.error_l2[-1] > 10.0 * traj.error_l2[0]

    def test_horizon_longer_than_schedule_rejected(self, ex31_design):
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 2.0})
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=101,
                      u0=pf.constant(1.0), w0=pf.constant(0.0), horizon=3.0)
        with pytest.raises(ScheduleHorizonMismatch):
            quiet_simulate(sc)

    def test_shorter_horizon_allowed(self, ex31_design):
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 2.0})
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=101,
                      u0=pf.constant(1.0), w0=pf.constant(0.0), horizon=1.2)
        traj = quiet_simulate(sc)
        assert traj.times[-1] == pytest.approx(1.2)

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
        for k in range(traj.times.size):
            assert bc_residual(traj.u[k], ex32_design.problem) <= 1e-8
            assert bc_residual(traj.w[k], ex32_design.problem) <= 1e-8

    def test_boundary_compatibility_residual(self, ex31_design):
        # the integration-by-parts boundary term vanishes to O(dx^2)
        sch = make_schedule({"kind": "uniform", "h": 0.25, "horizon": 1.0})
        sc = Scenario(design=ex31_design, variant="predictor", schedule=sch, nodes=201,
                      u0=pf.cosine_series(1.0, [0.5, 0.3]), w0=pf.constant(0.0))
        traj = quiet_simulate(sc)
        dx = traj.grid[1] - traj.grid[0]
        assert predictor_compatibility_residual(traj, ex31_design) <= 50.0 * dx**2

    def test_grid_and_step_convergence(self, ex31_design):
        # halving dx and dt moves the final error by under 2%
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 2.0})
        finals = {}
        for nodes, dt in ((101, 0.01), (201, 0.005)):
            sc = Scenario(design=ex31_design, variant="zoh", schedule=sch, nodes=nodes,
                          dt=dt, u0=pf.cosine_series(1.0, [0.5]), w0=pf.constant(0.0))
            finals[nodes] = quiet_simulate(sc).error_l2[-1]
        assert abs(finals[201] - finals[101]) <= 0.02 * abs(finals[201])

    def test_missing_certificate_warns_but_runs(self, ex31_design):
        # Q = 1 admits no certificate at all; the run still goes ahead
        design = dataclasses.replace(ex31_design, Q=1.0)
        sch = make_schedule({"kind": "uniform", "h": 0.5, "horizon": 1.0})
        sc = Scenario(design=design, variant="predictor", schedule=sch, nodes=101,
                      u0=pf.constant(1.0), w0=pf.constant(0.0))
        with pytest.warns(UserWarning, match="not certified"):
            traj = simulate(sc)
        assert traj.times[-1] == pytest.approx(1.0)

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
        sc = Scenario(design=ex31_design, variant=variant, schedule=sch, nodes=101,
                      u0=u0, w0=u0, nonlinearity=nl)
        traj = quiet_simulate(sc)
        u_norms = np.sqrt((traj.u**2) @ traj.weights)
        assert np.max(traj.error_l2 / np.maximum(u_norms, 1e-300)) <= 1e-9

    def test_ios_bound_with_lipschitz_term(self):
        # design declares the nonlinearity's certified Lipschitz constant and
        # the estimate still covers the simulated error
        problem = SLProblem(p=1.0, q=0.0, a0=0, b0=1, a1=0, b1=1)
        basis = analytic_eigensystem(problem, 60, 1001)
        grid = uniform_grid(201)
        nl = LinearNonlocalTerm(grid, a=pf.cosine_series(0.3, [0.2]), b=pf.constant(1.0), gain=0.3)
        ch = OutputChannel(kernel=pf.polynomial([0.0, 1.0]), approximant=pf.constant(0.5))
        design = make_design(problem, basis, [ch], np.array([[-math.pi**2]]), N=1, Q=2.0,
                             sigma_fraction=1.0, lipschitz_R=nl.lipschitz_R,
                             lipschitz_sup=nl.lipschitz_sup)
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

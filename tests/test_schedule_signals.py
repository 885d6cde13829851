import numpy as np
import pytest

from parobs import profiles as pf
from parobs.errors import InvalidSpec
from parobs.grids import trapezoid_weights, uniform_grid
from parobs.nonlinear import (
    GainSaturatedTerm,
    LinearNonlocalTerm,
    ZeroTerm,
    nonlinearity_from_spec,
)
from parobs.schedule import make_schedule
from parobs.signals import (
    Disturbances,
    NoiseSignal,
    disturbances_from_spec,
    field_signal_from_spec,
    noise_from_spec,
)


class TestSchedules:
    def test_uniform_exact_division(self):
        sch = make_schedule({"kind": "uniform", "h": 0.1, "horizon": 1.0})
        np.testing.assert_allclose(sch.times, np.arange(11) * 0.1, atol=1e-12)
        assert np.max(np.diff(sch.times)) <= sch.diameter * (1 + 1e-12)

    def test_uniform_clips_final_gap(self):
        sch = make_schedule({"kind": "uniform", "h": 0.3, "horizon": 1.0})
        assert sch.times[-1] == pytest.approx(1.0)
        assert np.max(np.diff(sch.times)) <= 0.3 + 1e-12

    def test_random_bounded_and_reproducible(self):
        spec = {"kind": "random", "h_min": 0.05, "h_max": 0.1, "horizon": 2.0, "seed": 42}
        a = make_schedule(spec)
        b = make_schedule(spec)
        np.testing.assert_array_equal(a.times, b.times)
        gaps = np.diff(a.times)
        assert np.all(gaps[:-1] >= 0.05 - 1e-12)
        assert np.all(gaps <= 0.1 + 1e-12)
        assert a.times[-1] == pytest.approx(2.0)
        c = make_schedule({**spec, "seed": 43})
        assert not np.array_equal(a.times, c.times)

    def test_invalid_random_bounds(self):
        with pytest.raises(InvalidSpec):
            make_schedule({"kind": "random", "h_min": 0.2, "h_max": 0.1, "horizon": 1.0})
        with pytest.raises(InvalidSpec):
            make_schedule({"kind": "uniform", "h": 0.1, "horizon": -1.0})

    def test_explicit_defaults_and_declared_diameter(self):
        times = [0.0, 0.1, 0.4, 0.6]
        sch = make_schedule({"kind": "explicit", "times": times})
        assert sch.horizon == 0.6 and sch.diameter == np.max(np.diff(sch.times)) == 0.4 - 0.1
        declared = make_schedule({"kind": "explicit", "times": times, "h": 0.5, "horizon": 0.5})
        assert declared.diameter == 0.5 and declared.horizon == 0.5
        with pytest.raises(InvalidSpec, match="exceeds the declared diameter"):
            make_schedule({"kind": "explicit", "times": times, "h": 0.2})

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "uniform", "h": 0.1}, "'uniform' spec: missing field 'horizon'"),
        ({"kind": "uniform", "h": "abc", "horizon": 1.0}, "'uniform' spec: field 'h'"),
        ({"kind": "random", "h_min": 0.1, "horizon": 1.0}, "'random' spec: missing field 'h_max'"),
        ({"kind": "random", "h_min": 0.1, "h_max": 0.2, "horizon": 1.0, "seed": -1},
         "'random' spec: field 'seed': seed must be non-negative, got -1"),
        ({"kind": "random", "h_min": 0.1, "h_max": 0.2, "horizon": 1.0, "seed": 1.5},
         r"'random' spec: field 'seed': seed must be an integer, got 1\.5"),
        ({"kind": "random", "h_min": 0.1, "h_max": 0.2, "horizon": 1.0, "seed": True},
         "'random' spec: field 'seed': seed must be an integer, got True"),
        ({"kind": "explicit"}, "'explicit' spec: missing field 'times'"),
        # simulate would record the second sample in the first one's row
        ({"kind": "explicit", "times": [0.0, 0.5, 0.500000000000004, 1.0]},
         "sampling times must increase by more than 1e-14"),
        # SamplingSchedule's own checks judge every explicit schedule
        ({"kind": "explicit", "times": [0.1, 0.5]}, "schedules must start at t = 0"),
        ({"kind": "explicit", "times": [0.0, 0.5, 0.3]},
         "sampling times must increase by more than 1e-14"),
        ("uniform", "expected a spec object"),
    ], ids=["missing_horizon", "bad_h", "missing_h_max", "negative_seed", "fractional_seed",
            "bool_seed", "missing_times", "near_duplicate_times", "explicit_late_start",
            "explicit_decreasing", "not_an_object"])
    def test_missing_or_bad_field_is_invalid_spec(self, spec, message):
        with pytest.raises(InvalidSpec, match=message):
            make_schedule(spec)


class TestNoise:
    def test_kinds(self):
        assert NoiseSignal().value(3.0) == 0.0
        assert noise_from_spec({"kind": "constant", "amplitude": 0.2}).value(1.0) == 0.2
        s = noise_from_spec({"kind": "sinusoid", "amplitude": 0.1, "omega": 2.0})
        assert s.value(0.0) == pytest.approx(0.0)
        assert abs(s.value(0.8)) <= 0.1

    def test_random_noise_is_per_sample_and_deterministic(self):
        s = noise_from_spec({"kind": "random", "amplitude": 0.5, "seed": 3}, channel=1)
        vals = [s.value(0.1 * j, j) for j in range(20)]
        again = [s.value(0.1 * j, j) for j in range(20)]
        assert vals == again
        assert all(abs(v) <= 0.5 for v in vals)
        assert len(set(vals)) > 1
        assert s.value(1.0, None) == 0.0  # defined only at sample instants

    @pytest.mark.parametrize("spec", [
        {"kind": "zero"},
        {"kind": "constant", "amplitude": 0.2},
        {"kind": "sinusoid", "amplitude": 0.1, "omega": 2.0, "phase": 0.3},
        {"kind": "random", "amplitude": 0.5, "seed": 3},
    ], ids=["zero", "constant", "sinusoid", "random"])
    def test_all_samples_at_once_equal_each_sample_bit_for_bit(self, spec):
        # simulate reads a channel's noise at every sample time in one call
        s = noise_from_spec(spec, channel=1)
        times = np.cumsum(np.random.default_rng(5).uniform(0.01, 0.3, 500))
        each = np.array([s.value(t, j) for j, t in enumerate(times.tolist())])
        assert s.value(times, np.arange(times.size)).tobytes() == each.tobytes()

    def test_xi_channel_count_enforced(self):
        with pytest.raises(InvalidSpec):
            disturbances_from_spec({"xi": [{"kind": "zero"}]}, m=2)

    @pytest.mark.parametrize("xi", [0.01, "abc"], ids=["scalar", "string"])
    def test_xi_must_be_a_spec_or_a_list(self, xi):
        with pytest.raises(InvalidSpec, match="xi must be a noise spec or a list of them"):
            disturbances_from_spec({"xi": xi}, m=2)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidSpec, match="seed must be non-negative"):
            noise_from_spec({"kind": "random", "amplitude": 0.1, "seed": -1})


class TestFieldSignals:
    def test_separable(self):
        grid = uniform_grid(11)
        sig = field_signal_from_spec(
            {"kind": "separable", "time": {"kind": "constant", "value": 2.0},
             "space": {"kind": "polynomial", "coeffs": [0.0, 1.0]}},
            grid,
        )
        np.testing.assert_allclose(sig.field(5.0, grid), 2.0 * grid)
        assert not sig.is_zero

    def test_zero_and_mismatch(self):
        grid = uniform_grid(11)
        d = Disturbances()
        assert d.v.is_zero and d.v_tilde.is_zero
        np.testing.assert_allclose(d.mismatch_field(1.0, grid), 0.0)


class TestNonlinearities:
    def test_zero_term(self):
        z = ZeroTerm()
        assert z.lipschitz_R == 0.0
        np.testing.assert_array_equal(z.apply(np.ones(5)), np.zeros(5))

    def test_linear_nonlocal_lipschitz_bound(self, rng):
        grid = uniform_grid(201)
        w = trapezoid_weights(grid)
        term = LinearNonlocalTerm(grid, a=pf.cosine_series(0.3, [0.5]), b=pf.constant(1.0), gain=0.8)
        worst = 0.0
        for _ in range(200):
            u = rng.standard_normal(grid.size)
            v = rng.standard_normal(grid.size)
            num = np.sqrt(np.dot(w, (term.apply(u) - term.apply(v)) ** 2))
            den = np.sqrt(np.dot(w, (u - v) ** 2))
            worst = max(worst, num / den)
        assert worst <= term.lipschitz_R * (1.0 + 1e-6)

    def test_gain_saturated_lipschitz_bound(self, rng):
        grid = uniform_grid(201)
        w = trapezoid_weights(grid)
        term = GainSaturatedTerm(
            grid,
            weights=[pf.constant(1.0), pf.cosine_series(0.0, [1.0])],
            amplitudes=[pf.constant(0.4), pf.cosine_series(0.2, [0.1])],
        )
        assert term.lipschitz_R > 0.0
        worst = 0.0
        for _ in range(200):
            u = 3.0 * rng.standard_normal(grid.size)
            v = 3.0 * rng.standard_normal(grid.size)
            num = np.sqrt(np.dot(w, (term.apply(u) - term.apply(v)) ** 2))
            den = np.sqrt(np.dot(w, (u - v) ** 2))
            worst = max(worst, num / den)
        assert worst <= term.lipschitz_R * (1.0 + 1e-6)

    def test_from_spec(self):
        grid = uniform_grid(51)
        assert isinstance(nonlinearity_from_spec(None, grid), ZeroTerm)
        t = nonlinearity_from_spec(
            {"kind": "linear_nonlocal", "a": {"kind": "constant", "value": 1.0},
             "b": {"kind": "constant", "value": 1.0}, "gain": 0.5},
            grid,
        )
        assert t.lipschitz_R == pytest.approx(0.5, rel=1e-12)
        with pytest.raises(InvalidSpec):
            nonlinearity_from_spec({"kind": "nope"}, grid)

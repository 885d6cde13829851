"""Sampling schedules: increasing measurement times with a bounded diameter.

A schedule starts at t0 = 0, covers the horizon, and its largest gap never
exceeds the declared diameter; no gap is 1e-14 or shorter. Random
schedules are seed-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import profiles as pf
from .errors import InvalidSpec

__all__ = ["SamplingSchedule", "make_schedule"]

_EPS = 1e-12
_MIN_GAP = 1e-14


@dataclass(frozen=True)
class SamplingSchedule:
    times: np.ndarray
    diameter: float  # declared sup of the gaps
    horizon: float
    kind: str

    def __post_init__(self):
        t = self.times
        if t[0] != 0.0:
            raise InvalidSpec("schedules must start at t = 0")
        # simulate gives each sample a record row of its own, which needs a
        # time of its own
        if t.size < 2 or np.any(t[1:] <= t[:-1] + _MIN_GAP):
            raise InvalidSpec(f"sampling times must increase by more than {_MIN_GAP:g}")
        gaps = np.diff(t)
        if np.max(gaps) > self.diameter * (1.0 + 1e-9):
            raise InvalidSpec(
                f"gap {np.max(gaps):.6g} exceeds the declared diameter {self.diameter:.6g}"
            )
        if t[-1] < self.horizon - _EPS:
            raise InvalidSpec("schedule does not cover the horizon")


def make_schedule(spec: dict) -> SamplingSchedule:
    """Build a schedule from its config description.

    kinds: uniform {h, horizon}; random {h_min, h_max, horizon, seed};
    explicit {times}. Uniform and random schedules end exactly at the
    horizon (the final gap may be shorter).
    """
    kind = pf.spec_kind(spec)
    if kind == "uniform":
        h, horizon = pf.spec_field(spec, "h"), pf.spec_field(spec, "horizon")
        if h <= 0.0 or horizon <= 0.0:
            raise InvalidSpec("uniform schedules need h > 0 and horizon > 0")
        n = int(np.floor(horizon / h + _EPS))
        times = np.arange(n + 1) * h
        if times[-1] < horizon - _EPS:
            times = np.append(times, horizon)
        else:
            times[-1] = horizon
        return SamplingSchedule(times=times, diameter=h, horizon=horizon, kind="uniform")
    if kind == "random":
        h_min, h_max, horizon = (pf.spec_field(spec, key) for key in ("h_min", "h_max", "horizon"))
        seed = pf.spec_field(spec, "seed", pf.as_seed, 0)
        if not 0.0 < h_min <= h_max:
            raise InvalidSpec("random schedules need 0 < h_min <= h_max")
        if horizon <= 0.0:
            raise InvalidSpec("horizon must be positive")
        rng = np.random.default_rng(seed)
        times = [0.0]
        while times[-1] < horizon - _EPS:
            times.append(times[-1] + rng.uniform(h_min, h_max))
        times[-1] = horizon  # clip the overshooting final gap
        return SamplingSchedule(
            times=np.asarray(times), diameter=h_max, horizon=horizon, kind="random"
        )
    if kind == "explicit":
        times = pf.spec_field(spec, "times", lambda ts: np.asarray([float(t) for t in ts]))
        if times.size < 2:  # np.diff and __post_init__'s t[0] need two times
            raise InvalidSpec("explicit schedules need at least two times")
        horizon = pf.spec_field(spec, "horizon", default=float(times[-1]))
        diameter = pf.spec_field(spec, "h", default=float(np.max(np.diff(times))))
        return SamplingSchedule(times=times, diameter=diameter, horizon=horizon, kind="explicit")
    raise InvalidSpec(f"unknown schedule kind {kind!r}")

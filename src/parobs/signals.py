"""Disturbance and noise signal library.

Distributed inputs are closed-form in time and space (zero, separable
a(t) b(x), or sums of separable terms), so they are evaluable at arbitrary
(t, x) and smooth by construction. Measurement noise is per-channel:
zero, constant, sinusoid, or seeded bounded random values drawn per sample
index, deterministically reproducible from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import profiles as pf
from .errors import InvalidSpec

__all__ = [
    "TimeSignal",
    "SpaceTimeSignal",
    "NoiseSignal",
    "Disturbances",
    "time_signal_from_spec",
    "field_signal_from_spec",
    "noise_from_spec",
    "disturbances_from_spec",
]


@dataclass(frozen=True)
class TimeSignal:
    """value(t) = offset + amplitude * sin(omega t + phase)."""

    offset: float = 0.0
    amplitude: float = 0.0
    omega: float = 0.0
    phase: float = 0.0

    def value(self, t: float) -> float:
        return self.offset + self.amplitude * np.sin(self.omega * t + self.phase)


def time_signal_from_spec(spec) -> TimeSignal:
    if isinstance(spec, TimeSignal):
        return spec
    if isinstance(spec, (int, float)):
        return TimeSignal(offset=float(spec))
    kind = pf.spec_kind(spec, "time")
    if kind == "zero":
        return TimeSignal()
    if kind == "constant":
        return TimeSignal(offset=pf.spec_field(spec, "value"))
    if kind in ("sinusoid", "time"):
        return TimeSignal(
            offset=pf.spec_field(spec, "offset", default=0.0),
            amplitude=pf.spec_field(spec, "amplitude", default=0.0),
            omega=pf.spec_field(spec, "omega", default=1.0),
            phase=pf.spec_field(spec, "phase", default=0.0),
        )
    raise InvalidSpec(f"unknown time-signal kind {kind!r}")


@dataclass(frozen=True)
class SpaceTimeSignal:
    """Sum of separable terms a_k(t) b_k(x); empty sum is the zero input."""

    terms: tuple[tuple[TimeSignal, object], ...] = ()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def field(self, t, grid: np.ndarray) -> np.ndarray:
        """The input on the grid at time t; a column of times gives one row each."""
        out = np.zeros(np.broadcast_shapes(np.shape(t), grid.shape))
        for ts, prof in self.terms:
            out += ts.value(t) * prof.values(grid)
        return out


def field_signal_from_spec(spec, grid: np.ndarray | None = None) -> SpaceTimeSignal:
    if isinstance(spec, SpaceTimeSignal):
        return spec
    if spec is None:
        return SpaceTimeSignal()
    kind = pf.spec_kind(spec)
    if kind == "zero":
        return SpaceTimeSignal()

    def term(t: dict) -> tuple[TimeSignal, object]:
        return (
            pf.spec_field(t, "time", time_signal_from_spec),
            pf.spec_field(t, "space", lambda s: pf.as_profile(s, grid)),
        )

    if kind == "separable":
        return SpaceTimeSignal(terms=(term(spec),))
    if kind == "sum":
        return SpaceTimeSignal(terms=tuple(term(t) for t in pf.spec_field(spec, "terms", list)))
    if kind == "cosine_series":
        # sum_k coeffs[k-1] cos(k pi x), all modulated by one time signal
        # (the profile parser reads "mean" and "coeffs" of this same spec)
        ts = pf.spec_field(spec, "time", time_signal_from_spec, TimeSignal(offset=1.0))
        return SpaceTimeSignal(terms=((ts, pf.profile_from_spec(spec, grid)),))
    raise InvalidSpec(f"unknown field-signal kind {kind!r}")


@dataclass(frozen=True)
class NoiseSignal:
    """Bounded per-channel measurement error with a declared amplitude."""

    kind: str = "zero"
    amplitude: float = 0.0
    omega: float = 1.0
    phase: float = 0.0
    seed: int = 0
    channel: int = 0

    def value(self, t, sample_index: int | np.ndarray | None = None):
        """xi(t) at a time t, or elementwise at an array of times. Random
        noise is one seeded draw per sample index, elementwise at an array
        of them, and reads 0 without one."""
        if self.kind == "random" and sample_index is not None:
            draws = [np.random.default_rng([self.seed, self.channel, int(j)])
                     .uniform(-self.amplitude, self.amplitude) for j in np.ravel(sample_index)]
            return np.array(draws) if np.ndim(sample_index) else float(draws[0])
        if self.kind == "sinusoid":
            out = self.amplitude * np.sin(self.omega * np.asarray(t, dtype=float) + self.phase)
        elif self.kind in ("zero", "constant", "random"):
            out = np.full(np.shape(t), self.amplitude if self.kind == "constant" else 0.0)
        else:
            raise InvalidSpec(f"unknown noise kind {self.kind!r}")
        return out if np.ndim(t) else float(out)

    @property
    def bound(self) -> float:
        return abs(self.amplitude)

    def spec(self) -> dict:
        out = {"kind": self.kind, "amplitude": self.amplitude}
        if self.kind == "sinusoid":
            out.update(omega=self.omega, phase=self.phase)
        if self.kind == "random":
            out.update(seed=self.seed)
        return out


def noise_from_spec(spec, channel: int = 0) -> NoiseSignal:
    if isinstance(spec, NoiseSignal):
        return spec
    if spec is None:
        return NoiseSignal(channel=channel)
    kind = pf.spec_kind(spec, "zero")
    if kind not in ("zero", "constant", "sinusoid", "random"):
        raise InvalidSpec(f"unknown noise kind {kind!r}")
    return NoiseSignal(
        kind=kind,
        amplitude=pf.spec_field(
            spec, "amplitude", default=pf.spec_field(spec, "value", default=0.0)
        ),
        omega=pf.spec_field(spec, "omega", default=1.0),
        phase=pf.spec_field(spec, "phase", default=0.0),
        seed=pf.spec_field(spec, "seed", pf.as_seed, 0),
        channel=channel,
    )


@dataclass(frozen=True)
class Disturbances:
    """Plant input v, the observer's copy of it, and measurement noise."""

    v: SpaceTimeSignal = field(default_factory=SpaceTimeSignal)
    v_tilde: SpaceTimeSignal = field(default_factory=SpaceTimeSignal)
    xi: tuple[NoiseSignal, ...] = ()

    def mismatch_field(self, t, grid: np.ndarray) -> np.ndarray:
        return self.v.field(t, grid) - self.v_tilde.field(t, grid)


def disturbances_from_spec(spec: dict | None, m: int, grid: np.ndarray | None = None) -> Disturbances:
    """The disturbances of a config section; ``xi`` is absent (no noise),
    one noise spec shared by the m channels, or a list of m specs."""
    spec = spec or {}
    xi_spec = spec.get("xi")
    if xi_spec is None or isinstance(xi_spec, dict):
        xi_spec = [xi_spec] * m
    if not isinstance(xi_spec, list):
        raise InvalidSpec(f"xi must be a noise spec or a list of them, got {xi_spec!r}")
    if len(xi_spec) != m:
        raise InvalidSpec(f"need {m} noise channels, got {len(xi_spec)}")
    xi = tuple(noise_from_spec(s, channel=i) for i, s in enumerate(xi_spec))
    return Disturbances(
        v=field_signal_from_spec(spec.get("v"), grid),
        v_tilde=field_signal_from_spec(spec.get("v_tilde"), grid),
        xi=xi,
    )

"""Spatial profiles on [0, 1] with exact L2 pairings where closed forms exist.

A :class:`Profile` is a polynomial plus a sum of cosine terms
``a * cos(omega * x + phase)``.  Sums, differences, scalar multiples and
derivatives stay inside the class, and pairwise inner products
``int_0^1 f g dx`` evaluate in closed form.  Certificate constants built
from such profiles are therefore exact to float roundoff instead of being
limited by quadrature error.  Grid data without a closed form goes through
:class:`SampledProfile` and falls back to trapezoid quadrature.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridMismatch, InvalidSpec

__all__ = [
    "Profile",
    "SampledProfile",
    "constant",
    "polynomial",
    "cosine",
    "sine",
    "cosine_series",
    "as_profile",
    "profile_from_spec",
    "PROFILE_KINDS",
    "inner_l2",
    "norm_l2",
]

_OMEGA_TINY = 1e-14
_REQUIRED = object()


def _cos_moment(n: int, omega: float, phase: float) -> float:
    """Exact ``int_0^1 x**n cos(omega x + phase) dx``."""
    if abs(omega) < _OMEGA_TINY:
        return math.cos(phase) / (n + 1)
    if n == 0:
        return (math.sin(omega + phase) - math.sin(phase)) / omega
    return math.sin(omega + phase) / omega - (n / omega) * _sin_moment(n - 1, omega, phase)


def _sin_moment(n: int, omega: float, phase: float) -> float:
    """Exact ``int_0^1 x**n sin(omega x + phase) dx``."""
    if abs(omega) < _OMEGA_TINY:
        return math.sin(phase) / (n + 1)
    if n == 0:
        return (math.cos(phase) - math.cos(omega + phase)) / omega
    return -math.cos(omega + phase) / omega + (n / omega) * _cos_moment(n - 1, omega, phase)


@dataclass(frozen=True)
class Profile:
    """Closed-form profile: polynomial (ascending coeffs) + cosine terms."""

    poly: tuple[float, ...] = ()
    trig: tuple[tuple[float, float, float], ...] = ()  # (amp, omega, phase)

    closed_form = True

    def values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        if self.poly:
            out += np.polynomial.polynomial.polyval(x, np.asarray(self.poly))
        for amp, omega, phase in self.trig:
            out += amp * np.cos(omega * x + phase)
        return out

    def derivative(self, order: int = 1) -> "Profile":
        poly = np.asarray(self.poly, dtype=float)
        for _ in range(order):
            poly = np.polynomial.polynomial.polyder(poly) if poly.size else poly
        trig = tuple(
            (amp * omega**order, omega, phase + order * math.pi / 2.0)
            for amp, omega, phase in self.trig
        )
        return Profile(tuple(np.atleast_1d(poly).tolist()) if poly.size else (), trig)

    def inner(self, other: "Profile") -> float:
        """Exact ``int_0^1 self * other dx``."""
        total = 0.0
        a, b = self.poly, other.poly
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                total += ai * bj / (i + j + 1)
        for coeffs, terms in ((a, other.trig), (b, self.trig)):
            for n, cn in enumerate(coeffs):
                if cn == 0.0:
                    continue
                for amp, omega, phase in terms:
                    total += cn * amp * _cos_moment(n, omega, phase)
        for amp1, om1, ph1 in self.trig:
            for amp2, om2, ph2 in other.trig:
                # product-to-sum: cos(u)cos(v) = (cos(u-v) + cos(u+v)) / 2
                total += 0.5 * amp1 * amp2 * (
                    _cos_moment(0, om1 - om2, ph1 - ph2)
                    + _cos_moment(0, om1 + om2, ph1 + ph2)
                )
        return total

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self), 0.0))

    def __add__(self, other: "Profile") -> "Profile":
        if not isinstance(other, Profile):
            return NotImplemented
        n = max(len(self.poly), len(other.poly))
        poly = tuple(
            (self.poly[i] if i < len(self.poly) else 0.0)
            + (other.poly[i] if i < len(other.poly) else 0.0)
            for i in range(n)
        )
        return Profile(poly, self.trig + other.trig)

    def __sub__(self, other: "Profile") -> "Profile":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "Profile":
        s = float(scalar)
        return Profile(
            tuple(s * c for c in self.poly),
            tuple((s * amp, omega, phase) for amp, omega, phase in self.trig),
        )

    __mul__ = __rmul__

    def __neg__(self) -> "Profile":
        return (-1.0) * self

    def spec(self) -> dict:
        return {
            "kind": "closed_form",
            "poly": list(self.poly),
            "trig": [list(t) for t in self.trig],
        }


class SampledProfile:
    """Profile given only by samples on a fixed uniform grid."""

    closed_form = False

    def __init__(self, grid: np.ndarray, samples: Sequence[float]):
        self.grid = np.asarray(grid, dtype=float)
        self.samples = np.asarray(samples, dtype=float)
        if self.grid.shape != self.samples.shape:
            raise GridMismatch(
                f"grid has {self.grid.size} nodes, samples have {self.samples.size}"
            )

    def values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape == self.grid.shape and np.allclose(x, self.grid, atol=1e-12):
            return self.samples.copy()
        return np.interp(x, self.grid, self.samples)

    def derivative(self, order: int = 1) -> "SampledProfile":
        vals = self.samples
        for _ in range(order):
            vals = np.gradient(vals, self.grid, edge_order=2)
        return SampledProfile(self.grid, vals)

    def spec(self) -> dict:
        return {"kind": "samples", "values": self.samples.tolist()}


def constant(value: float) -> Profile:
    return Profile((float(value),), ())


def polynomial(coeffs: Sequence[float]) -> Profile:
    """Ascending coefficients: coeffs[k] multiplies x**k."""
    return Profile(tuple(float(c) for c in coeffs), ())


def cosine(amplitude: float, omega: float, phase: float = 0.0) -> Profile:
    return Profile((), ((float(amplitude), float(omega), float(phase)),))


def sine(amplitude: float, omega: float, phase: float = 0.0) -> Profile:
    return cosine(amplitude, omega, phase - math.pi / 2.0)


def cosine_series(mean: float = 0.0, coeffs: Sequence[float] = ()) -> Profile:
    """mean + sum_k coeffs[k-1] * cos(k pi x); Neumann-compatible."""
    trig = tuple(
        (float(a), (k + 1) * math.pi, 0.0) for k, a in enumerate(coeffs) if a != 0.0
    )
    poly = (float(mean),) if mean != 0.0 else ()
    return Profile(poly, trig)


def as_profile(obj, grid: np.ndarray | None = None):
    """Coerce a number, a sample array on ``grid`` or a spec into a profile
    object; anything else, a callable included, raises TypeError."""
    if isinstance(obj, (Profile, SampledProfile)):
        return obj
    if isinstance(obj, (int, float)):
        return constant(obj)
    if isinstance(obj, dict):
        return profile_from_spec(obj, grid)
    if isinstance(obj, np.ndarray) or (
        isinstance(obj, (list, tuple)) and obj and isinstance(obj[0], (int, float))
    ):
        if grid is None:
            raise GridMismatch("sample arrays need an explicit grid")
        return SampledProfile(grid, np.asarray(obj, dtype=float))
    raise TypeError(f"cannot interpret {obj!r} as a spatial profile")


def spec_kind(spec, default=None):
    """``spec["kind"]``, or ``default`` when absent; a spec that is not an
    object raises InvalidSpec."""
    if not isinstance(spec, dict):
        raise InvalidSpec(f"expected a spec object, got {spec!r}")
    return spec.get("kind", default)


def spec_field(spec: dict, key: str, cast=float, default=_REQUIRED):
    """``cast(spec[key])``, or ``default`` when the key is absent; a missing
    required field or a value ``cast`` rejects raises InvalidSpec naming it."""
    kind = spec_kind(spec)
    if key not in spec:
        if default is _REQUIRED:
            raise InvalidSpec(f"{kind!r} spec: missing field {key!r}")
        return default
    return cast_field(f"{kind!r} spec: field {key!r}", cast, spec[key])


def cast_field(name: str, cast, value):
    """``cast(value)``; a TypeError or ValueError it raises (InvalidSpec
    included) becomes InvalidSpec naming ``name``."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"{name}: {exc}") from exc


def as_number(value) -> float:
    """A JSON number as a float; a bool, a string or anything else raises
    TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def as_seed(value) -> int:
    """A random-number seed: a non-negative integer; a bool or a float
    raises TypeError, a negative integer ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"seed must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value}")
    return int(value)


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _trig(terms) -> tuple[tuple[float, float, float], ...]:
    out = tuple(_floats(term) for term in terms)
    if any(len(term) != 3 for term in out):
        raise ValueError("each trig term is [amplitude, omega, phase]")
    return out


def _wave(spec: dict) -> tuple[float, float, float]:
    return (spec_field(spec, "amplitude"), spec_field(spec, "omega"),
            spec_field(spec, "phase", default=0.0))


def _samples(spec: dict, grid: np.ndarray | None):
    if grid is None:
        raise GridMismatch("'samples' profile needs a grid")
    return SampledProfile(grid, spec_field(spec, "values", _floats))


def _sum(spec: dict, grid: np.ndarray | None):
    """The sum of the parts, a number part being a constant: exact when all
    are closed-form, else the sum of their values on the grid."""
    parts = [as_profile(p, grid) for p in spec_field(spec, "parts", list)]
    if not parts:
        raise InvalidSpec("'sum' spec: field 'parts' is empty")
    if not all(p.closed_form for p in parts):
        return SampledProfile(grid, sum(p.values(grid) for p in parts))
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


# kind -> reader of (spec, grid); its keys are the profile kinds a spec may name
_READERS = {
    "constant": lambda spec, grid: constant(spec_field(spec, "value")),
    "polynomial": lambda spec, grid: polynomial(spec_field(spec, "coeffs", _floats)),
    "cosine": lambda spec, grid: cosine(*_wave(spec)),
    "sine": lambda spec, grid: sine(*_wave(spec)),
    "cosine_series": lambda spec, grid: cosine_series(
        spec_field(spec, "mean", default=0.0), spec_field(spec, "coeffs", _floats, ())),
    "closed_form": lambda spec, grid: Profile(
        spec_field(spec, "poly", _floats, ()), spec_field(spec, "trig", _trig, ())),
    "samples": _samples,
    "sum": _sum,
}
PROFILE_KINDS = frozenset(_READERS)


def profile_from_spec(spec: dict, grid: np.ndarray | None = None):
    """Build a profile from its JSON-friendly description; a kind outside
    ``PROFILE_KINDS`` raises InvalidSpec."""
    kind = spec_kind(spec)
    if kind not in _READERS:
        raise InvalidSpec(f"unknown profile kind {kind!r}")
    return _READERS[kind](spec, grid)


def inner_l2(f, g, grid: np.ndarray | None = None) -> float:
    """``int_0^1 f g dx``: exact for two closed-form profiles, else trapezoid."""
    if getattr(f, "closed_form", False) and getattr(g, "closed_form", False):
        return f.inner(g)
    if grid is None:
        raise GridMismatch("quadrature pairing needs a grid")
    return float(np.trapezoid(f.values(grid) * g.values(grid), grid))


def norm_l2(f, grid: np.ndarray | None = None) -> float:
    return math.sqrt(max(inner_l2(f, f, grid), 0.0))

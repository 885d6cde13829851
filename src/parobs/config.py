"""Run configuration: JSON schema validation, overrides, object builders,
and the two worked examples as presets.

Configs are plain JSON with a versioned schema field. Validation walks the
expected structure and reports the dotted path of the offending field, so
`--set` overrides are type-checked before any computation starts.

``example31_config`` and ``example32_config`` return the paper's worked
examples as such configs and are the one place their parameters and
defaults are declared: the runners and the example commands pass their
arguments on. ``build_design`` and ``build_scenario`` turn a preset into
the same objects as any other config, so ``parobs simulate`` runs a dumped
preset exactly as ``parobs example31`` runs its arguments.
"""

from __future__ import annotations

import copy
import json
import math
import os

import numpy as np

from . import profiles as pf
from .errors import ConfigError, InvalidSpec, ReactionOutOfRange, UnsupportedAnalyticCase
from .grids import uniform_grid
from .nonlinear import nonlinearity_from_spec
from .observer_design import (
    ObserverDesign,
    OutputChannel,
    SmallGainReport,
    channel_from_spec,
    design_from_json,
    make_design,
    max_diameter,
    small_gain,
)
from .schedule import SamplingSchedule, make_schedule
from .signals import disturbances_from_spec
from .simulator import Scenario
from .sturm_liouville import (
    SLProblem,
    SpectralBasis,
    analytic_eigensystem,
    numeric_eigensystem,
    problem_from_spec,
)

__all__ = [
    "load_config",
    "apply_overrides",
    "validate_config",
    "build_problem",
    "build_basis",
    "build_design",
    "build_scenario",
    "resolve_kappa",
    "gain_report",
    "example31_config",
    "example31_design",
    "example32_config",
    "example32_design",
    "example32_sampling",
]

SCHEMA_VERSION = 1
_DEFAULT_MODES = 64  # basis.modes when the config leaves it out
_DEFAULT_NODES = 1001  # basis.nodes when the config leaves it out

# every key a config section may hold; spec-valued entries (profiles, the
# nonlinearity, disturbances.v / v_tilde / xi) are checked by their parsers
_SECTION_KEYS = {
    "": {"schema_version", "label", "seed", "problem", "basis", "design", "design_ref", "gain",
         "observer", "schedule", "grid", "time", "initial", "disturbances", "nonlinearity",
         "analysis", "output", "sweep"},
    "problem": {"p", "q", "bc"},
    "problem.bc": {"a0", "b0", "a1", "b1"},
    "basis": {"modes", "nodes", "method"},
    "design": {"N", "L", "Q", "sigma_fraction", "lipschitz_R", "channels"},
    "gain": {"h", "kappa", "omega"},
    "observer": {"variant"},
    "schedule": {"kind", "h", "horizon", "h_min", "h_max", "seed", "times"},
    "grid": {"nodes"},
    "time": {"dt", "snapshot_every"},
    "initial": {"u0", "w0"},
    "disturbances": {"v", "v_tilde", "xi"},
    "analysis": {"lyapunov", "lyapunov_tail"},
    "output": {"fields"},
    "sweep": {"parameter", "values", "simulate"},
}
_CHANNEL_KEYS = {"label", "kernel", "approximant"}


def _finite_json(text: str, where: str):
    """The JSON ``text`` parsed with every number a finite float: NaN,
    Infinity, -Infinity and a literal that overflows one raise a ConfigError
    at ``where``."""
    def finite(literal: str) -> str:
        if not math.isfinite(float(literal)):
            raise ConfigError(where, f"{literal} is not a finite number")
        return literal

    return json.loads(text, parse_float=lambda s: float(finite(s)), parse_int=lambda s: int(finite(s)),
                      parse_constant=finite)


def load_config(path) -> dict:
    """The config at ``path``, with a relative ``design_ref`` resolved
    against the directory of that file."""
    with open(path) as fh:
        try:
            cfg = _finite_json(fh.read(), str(path))
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"not valid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(str(path), "top-level config must be an object")
    if isinstance(cfg.get("design_ref"), str):
        cfg["design_ref"] = os.path.join(os.path.dirname(path), cfg["design_ref"])
    return cfg


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply repeatable ``--set dotted.key=value`` pairs (JSON-parsed values,
    every number finite)."""
    cfg = copy.deepcopy(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key.path=value")
        path, _, raw = item.partition("=")
        try:
            value = _finite_json(raw, path)
        except json.JSONDecodeError:
            value = raw  # bare strings are convenient on the command line
        node = cfg
        keys = path.split(".")
        for key in keys[:-1]:
            nxt = node.get(key)
            if not isinstance(nxt, dict):
                nxt = {}
                node[key] = nxt
            node = nxt
        node[keys[-1]] = value
    return cfg


def _expect(cfg: dict, path: str, types, required: bool = False, default=None):
    node = cfg
    keys = path.split(".")
    for key in keys[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
        if node is None:
            if required:
                raise ConfigError(path, "missing required section")
            return default
    if not isinstance(node, dict) or keys[-1] not in node:
        if required:
            raise ConfigError(path, "missing required field")
        return default
    value = node[keys[-1]]
    # bools are ints in python: a bool passes only where a flag is asked for
    if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
        raise ConfigError(path, f"expected {types}, got {type(value).__name__}")
    return value


def _check_keys(node, path: str, allowed: set) -> None:
    if not isinstance(node, dict):
        raise ConfigError(path, "expected an object")
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_profile(spec, path: str):
    if spec is None or _is_number(spec):
        return
    if not isinstance(spec, dict):
        raise ConfigError(path, "profile must be a number or an object with 'kind'")
    kind = spec.get("kind")
    if kind not in pf.PROFILE_KINDS:
        raise ConfigError(f"{path}.kind", f"unknown profile kind {kind!r}")
    if kind == "sum" and isinstance(spec.get("parts"), list):
        for i, part in enumerate(spec["parts"]):
            _check_profile(part, f"{path}.parts[{i}]")


def validate_config(cfg: dict, *, need_schedule: bool = False) -> None:
    """Structural validation with dotted-path diagnostics: unknown keys, and
    the type of every scalar a builder casts, fail before any computation."""
    for path, allowed in _SECTION_KEYS.items():
        node = cfg
        for key in filter(None, path.split(".")):
            node = node.get(key) if isinstance(node, dict) else None
        if node is not None:
            _check_keys(node, path, allowed)
    version = _expect(cfg, "schema_version", int, required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version}")
    for path in ("seed", "schedule.seed"):
        if _expect(cfg, path, int, default=0) < 0:
            raise ConfigError(path, "seed must be non-negative")
    p = _expect(cfg, "problem.p", (int, float), required=True)
    if p <= 0:
        raise ConfigError("problem.p", "diffusion constant must be positive")
    _check_profile(_expect(cfg, "problem.q", (dict, int, float), default=0.0), "problem.q")
    for a, b in (("a0", "b0"), ("a1", "b1")):
        pair = [_expect(cfg, f"problem.bc.{c}", (int, float), required=True) for c in (a, b)]
        if not any(pair):
            raise ConfigError("problem.bc", f"{a} and {b} must not both be zero")

    modes = _expect(cfg, "basis.modes", int, default=_DEFAULT_MODES)
    if modes < 2:
        raise ConfigError("basis.modes", "need at least 2 modes (N + 1)")
    if _expect(cfg, "basis.nodes", int, default=_DEFAULT_NODES) < 3:
        raise ConfigError("basis.nodes", "need at least 3 grid nodes")
    method = _expect(cfg, "basis.method", str, default="auto")
    if method not in ("auto", "analytic", "numeric"):
        raise ConfigError("basis.method", f"unknown basis method {method!r}")
    design_ref = _expect(cfg, "design_ref", str)
    if "design" not in cfg and design_ref is None:
        raise ConfigError("design", "need a 'design' section or a 'design_ref' path")
    if "design" in cfg:
        N = _expect(cfg, "design.N", int, required=True)
        if N < 1:
            raise ConfigError("design.N", "mode count must be at least 1")
        if N >= modes:
            raise ConfigError("design.N", f"mode count {N} must be below basis.modes = {modes}")
        L = _expect(cfg, "design.L", list, required=True)
        if not L or not all(isinstance(r, list) for r in L):
            raise ConfigError("design.L", "gain matrix must be a list of rows")
        if not all(_is_number(v) for row in L for v in row):
            raise ConfigError("design.L", "every gain entry must be a number")
        channels = _expect(cfg, "design.channels", list, required=True)
        if not channels:
            raise ConfigError("design.channels", "need at least one output channel")
        for i, ch in enumerate(channels):
            _check_keys(ch, f"design.channels[{i}]", _CHANNEL_KEYS)
            _check_profile(ch.get("kernel"), f"design.channels[{i}].kernel")
            _check_profile(ch.get("approximant"), f"design.channels[{i}].approximant")
        if sum(len(row) for row in L) != N * len(channels):
            raise ConfigError("design.L", f"gain matrix needs N x m = {N} x {len(channels)} entries")
        q_val = _expect(cfg, "design.Q", (int, float), default=None)
        if q_val is not None and q_val < 2:
            raise ConfigError("design.Q", "Q must be at least 2")
        fraction = _expect(cfg, "design.sigma_fraction", (int, float), default=None)
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise ConfigError("design.sigma_fraction", "sigma_fraction must lie in (0, 1]")
        if not 0.0 <= _expect(cfg, "design.lipschitz_R", (int, float), default=0.0) < math.inf:
            raise ConfigError("design.lipschitz_R", "Lipschitz bound must be finite and non-negative")

    for path in ("initial.u0", "initial.w0"):
        _check_profile(_expect(cfg, path, (dict, int, float)), path)

    nodes = _expect(cfg, "grid.nodes", int, default=201)
    if nodes < 8:
        raise ConfigError("grid.nodes", "need at least 8 grid nodes")

    if need_schedule or "schedule" in cfg:
        kind = _expect(cfg, "schedule.kind", str, required=need_schedule, default=None)
        if kind is not None and kind not in ("uniform", "random", "explicit"):
            raise ConfigError("schedule.kind", f"unknown schedule kind {kind!r}")
        if kind == "explicit":
            if not all(map(_is_number, _expect(cfg, "schedule.times", list, required=True))):
                raise ConfigError("schedule.times", "every sample time must be a number")
        numbers = {"uniform": ("h", "horizon"), "random": ("h_min", "h_max", "horizon")}
        for key in ("h", "h_min", "h_max", "horizon"):
            _expect(cfg, f"schedule.{key}", (int, float), required=key in numbers.get(kind, ()))
    for key in ("dt", "snapshot_every"):
        if _expect(cfg, f"time.{key}", (int, float), default=1.0) <= 0:
            raise ConfigError(f"time.{key}", f"{key} must be positive")
    if "gain" in cfg:
        if _expect(cfg, "gain.h", (int, float), required=True) <= 0:
            raise ConfigError("gain.h", "need a positive sampling diameter")
        _expect(cfg, "gain.kappa", (int, float))
        has_kappa = isinstance(cfg["gain"], dict) and "kappa" in cfg["gain"]
        has_omega = isinstance(cfg["gain"], dict) and "omega" in cfg["gain"]
        if not (has_kappa or has_omega):
            raise ConfigError("gain", "need 'kappa' or 'omega' (fraction of mu)")
        if has_omega:
            om = _expect(cfg, "gain.omega", (int, float))
            if not 0.0 <= om < 1.0:
                raise ConfigError("gain.omega", "omega must lie in [0, 1)")
    if "observer" in cfg:
        variant = _expect(cfg, "observer.variant", str, default="predictor")
        if variant not in ("predictor", "zoh"):
            raise ConfigError("observer.variant", f"unknown variant {variant!r}")
    _expect(cfg, "analysis.lyapunov", bool)
    _expect(cfg, "analysis.lyapunov_tail", int)
    _expect(cfg, "output.fields", bool)
    if "sweep" in cfg:
        param = _expect(cfg, "sweep.parameter", str, required=True)
        if param not in ("h", "kappa", "Q", "noise_amplitude"):
            raise ConfigError("sweep.parameter", f"unknown sweep parameter {param!r}")
        values = _expect(cfg, "sweep.values", list, required=True)
        if not values:
            raise ConfigError("sweep.values", "need at least one value")
        if not all(map(_is_number, values)):
            raise ConfigError("sweep.values", "every value must be a number")
        simulated = _expect(cfg, "sweep.simulate", bool, default=False)
        kind = _expect(cfg, "schedule.kind", str)
        if param == "h" and simulated and kind != "uniform":
            raise ConfigError("sweep.parameter", f"a simulated sweep over h sets schedule.h, "
                              f"which a {kind} schedule does not read; use a uniform one")


def build_problem(cfg: dict) -> SLProblem:
    """The plant of the config's ``problem`` section."""
    return problem_from_spec(cfg["problem"])


def build_basis(cfg: dict, problem: SLProblem) -> SpectralBasis:
    spec = cfg.get("basis", {})
    modes = int(spec.get("modes", _DEFAULT_MODES))
    nodes = int(spec.get("nodes", _DEFAULT_NODES))
    method = spec.get("method", "auto")
    if method == "analytic":
        return analytic_eigensystem(problem, modes, nodes)
    if method == "numeric":
        return numeric_eigensystem(problem, modes, nodes)
    try:
        return analytic_eigensystem(problem, modes, nodes)
    except UnsupportedAnalyticCase:
        return numeric_eigensystem(problem, modes, nodes)


def build_design(cfg: dict, problem: SLProblem | None = None, basis: SpectralBasis | None = None) -> ObserverDesign:
    if "design_ref" in cfg and "design" not in cfg:
        path = cfg["design_ref"]
        with open(path) as fh:
            doc = _finite_json(fh.read(), str(path))
        ref = doc.get("basis", {}).get("ref")
        if ref:  # a relative basis ref names a file beside design.json
            doc["basis"]["ref"] = os.path.join(os.path.dirname(path), ref)
        return design_from_json(doc)
    problem = problem or build_problem(cfg)
    basis = basis or build_basis(cfg, problem)
    d = cfg["design"]
    channels = [channel_from_spec(ch, basis.grid, i) for i, ch in enumerate(d["channels"])]
    return make_design(
        problem,
        basis,
        channels,
        np.asarray(d["L"], dtype=float),
        int(d["N"]),
        Q=d.get("Q"),
        sigma_fraction=float(d.get("sigma_fraction", 0.9)),
        lipschitz_R=float(d.get("lipschitz_R", 0.0)),
    )


def resolve_kappa(cfg: dict, design: ObserverDesign) -> float:
    gain = cfg.get("gain", {})
    if "kappa" in gain:
        return float(gain["kappa"])
    if "omega" in gain:
        return float(gain["omega"]) * design.mu
    return 0.0


def gain_report(cfg: dict, design: ObserverDesign) -> SmallGainReport:
    """Small-gain report of the configured variant at gain.h and the
    configured kappa: the Omega that ``check-gain``, ``design`` and a sweep
    that does not simulate evaluate. Without a gain.h it is the diameter of
    the config's schedule, built and seeded as ``build_scenario`` builds it,
    so the Omega is the one a simulated run is certified at (its
    ``Scenario.report``)."""
    variant = cfg.get("observer", {}).get("variant", "predictor")
    if "h" in cfg.get("gain", {}):
        h = float(cfg["gain"]["h"])
    else:
        h = _build_schedule(cfg, int(cfg.get("seed", 0))).diameter if "schedule" in cfg else 0.0
    if h <= 0.0:
        raise ConfigError("gain.h", "need a positive sampling diameter")
    return small_gain(design, h, resolve_kappa(cfg, design), variant)


def _seeded(spec, seed: int):
    """Fill missing seeds in schedule/noise specs from the global seed."""
    if isinstance(spec, dict) and spec.get("kind") == "random" and "seed" not in spec:
        spec = dict(spec)
        spec["seed"] = seed
    return spec


def _build_schedule(cfg: dict, seed: int) -> SamplingSchedule:
    return make_schedule(_seeded(dict(cfg["schedule"]), seed))


def build_scenario(cfg: dict, design: ObserverDesign | None = None, seed: int | None = None) -> Scenario:
    validate_config(cfg, need_schedule=True)
    seed = int(cfg.get("seed", 0)) if seed is None else int(seed)
    design = design or build_design(cfg)
    nodes = int(cfg.get("grid", {}).get("nodes", 201))
    grid = uniform_grid(nodes)

    schedule = _build_schedule(cfg, seed)

    dist_spec = dict(cfg.get("disturbances", {}) or {})
    xi = dist_spec.get("xi")
    dist_spec["xi"] = [_seeded(x, seed) for x in xi] if isinstance(xi, list) else _seeded(xi, seed)
    disturbances = disturbances_from_spec(dist_spec, design.m, grid)

    nl = nonlinearity_from_spec(cfg.get("nonlinearity"), grid)
    time_cfg = cfg.get("time", {})
    initial = cfg.get("initial", {})
    u0 = pf.as_profile(initial.get("u0", 0.0), grid)
    w0 = pf.as_profile(initial.get("w0", 0.0), grid)
    return Scenario(
        design=design,
        variant=cfg.get("observer", {}).get("variant", "predictor"),
        schedule=schedule,
        nodes=nodes,
        u0=u0,
        w0=w0,
        nonlinearity=nl,
        disturbances=disturbances,
        dt=time_cfg.get("dt"),
        snapshot_every=time_cfg.get("snapshot_every"),
        label=cfg.get("label", ""),
        kappa=resolve_kappa(cfg, design),
    )


# -- worked-example presets ---------------------------------------------------


def _spec(obj):
    """Numbers and spec dicts as they are; profiles and noise signals as specs."""
    return obj if isinstance(obj, (int, float, dict)) else obj.spec()


def _preset(p, q, bc, L, channel, *, h, omega, variant, horizon, nodes, dt,
            snapshot_every, u0, w0, noise, label, modes, basis_nodes) -> dict:
    """An N = 1, Q = 2, sigma = |A11| design on a uniform schedule."""
    if not 0.0 <= omega < 1.0:
        raise ConfigError("gain.omega", "omega must lie in [0, 1)")
    cfg = {
        "schema_version": SCHEMA_VERSION,
        "problem": SLProblem(p, q, *bc).spec(),
        "basis": {"modes": modes, "nodes": basis_nodes, "method": "analytic"},
        "design": {"N": 1, "L": [[L]], "Q": 2.0, "sigma_fraction": 1.0,
                   "channels": [channel.spec()]},
        "gain": {"h": h, "omega": omega},
        "observer": {"variant": variant},
        "schedule": {"kind": "uniform", "h": h, "horizon": horizon},
        "grid": {"nodes": nodes},
        "initial": {"u0": _spec(u0), "w0": _spec(pf.constant(0.0) if w0 is None else w0)},
        "label": label,
    }
    time_cfg = {k: v for k, v in (("dt", dt), ("snapshot_every", snapshot_every)) if v is not None}
    if time_cfg:
        cfg["time"] = time_cfg
    if isinstance(noise, (int, float)):
        noise = {"kind": "sinusoid", "amplitude": float(noise), "omega": 2.0}
    if noise is not None:
        cfg["disturbances"] = {"xi": _spec(noise)}
    return cfg


def example31_config(p=1.0, h=0.5, omega=0.0, variant="predictor", noise=None, mismatch=0.0,
                     *, horizon=None, nodes=201, dt=None, snapshot_every=None, u0=None,
                     w0=None, modes=201, basis_nodes=1001) -> dict:
    """Example 3.1: the Neumann heat plant with output kernel x, c = 1/2,
    L = -p pi^2, P = [1], kappa = omega * mu.

    The horizon defaults to 10 * 20 / (p pi^2), rounded up to whole periods.
    ``noise`` is a noise spec, a NoiseSignal, or a number (the amplitude of
    a sinusoid with omega = 2); ``mismatch`` is a constant plant input the
    observer does not know.
    """
    # checked before the default horizon divides by p, and before the rounding
    # below divides by h and lifts a horizon <= 0 to one period; the same
    # errors as SLProblem's and example32_config's
    if not p > 0.0:
        raise InvalidSpec(f"diffusion constant must be positive, got {p}")
    if not h > 0.0:
        raise ConfigError("gain.h", "need a positive sampling diameter")
    if horizon is None:
        horizon = 10.0 * 20.0 / (p * math.pi**2)
    elif not horizon > 0.0:
        raise InvalidSpec("uniform schedules need h > 0 and horizon > 0")
    # whole number of periods: the uniform-sampling claims are about t_j = j h,
    # and a clipped trailing gap can act as an accidental deadbeat step
    horizon = max(1, math.ceil(horizon / h - 1e-9)) * h
    channel = OutputChannel(pf.polynomial([0.0, 1.0]), pf.constant(0.5), label="avg")
    cfg = _preset(
        p, 0.0, (0.0, 1.0, 0.0, 1.0), -p * math.pi**2, channel, h=h, omega=omega,
        variant=variant, horizon=horizon, nodes=nodes, dt=dt, snapshot_every=snapshot_every,
        u0=pf.cosine_series(1.0, [0.5]) if u0 is None else u0, w0=w0, noise=noise,
        label=f"example31-{variant}", modes=modes, basis_nodes=basis_nodes,
    )
    if mismatch:
        cfg.setdefault("disturbances", {})["v"] = {
            "kind": "separable",
            "time": {"kind": "constant", "value": float(mismatch)},
            "space": pf.constant(1.0).spec(),
        }
    return cfg


def example31_design(p: float = 1.0, nodes: int = 1001, modes: int = 201) -> ObserverDesign:
    """The design of ``example31_config(p)``: c = 1/2, L = -p pi^2, P = [1]."""
    return build_design(example31_config(p, modes=modes, basis_nodes=nodes))


def example32_config(p=1.0, q=0.0, h=None, omega=0.3, noise=None, *, horizon=None, nodes=201,
                     dt=None, snapshot_every=None, u0=None, w0=None, modes=201,
                     basis_nodes=1001) -> dict:
    """Example 3.2: the boundary-measured plant in the derivative variable
    (Neumann at 0, Dirichlet at 1), c = (4/pi) cos(pi x / 2), L = pi (4q -
    7 p pi^2) / (16 sqrt 2), predictor observer.

    When h or the horizon is not given, the design is built once to find
    them (see ``example32_sampling``).
    """
    if not -9.0 * p * math.pi**2 < 4.0 * q < 7.0 * p * math.pi**2:
        raise ReactionOutOfRange(f"need -9 p pi^2 < 4q < 7 p pi^2, got q = {q} at p = {p}")
    channel = OutputChannel(
        pf.constant(1.0), pf.cosine(4.0 / math.pi, math.pi / 2.0), label="boundary"
    )
    if u0 is None:
        r2 = math.sqrt(2.0)
        u0 = pf.cosine(r2, math.pi / 2.0) + 0.5 * pf.cosine(r2, 3.0 * math.pi / 2.0)
    L = math.pi * (4.0 * q - 7.0 * p * math.pi**2) / (16.0 * math.sqrt(2.0))

    def preset(h, horizon):
        return _preset(
            p, q, (0.0, 1.0, 1.0, 0.0), L, channel, h=h, omega=omega, variant="predictor",
            horizon=horizon, nodes=nodes, dt=dt, snapshot_every=snapshot_every, u0=u0, w0=w0,
            noise=noise, label="example32", modes=modes, basis_nodes=basis_nodes,
        )

    if h is None or horizon is None:  # the design does not depend on the sampling
        h, horizon = example32_sampling(build_design(preset(1.0, 1.0)), omega, h, horizon)
    return preset(h, horizon)


def example32_design(
    p: float = 1.0, q: float = 0.0, nodes: int = 1001, modes: int = 201
) -> ObserverDesign:
    """The design of ``example32_config(p, q)``; h and the horizon only fill
    the schedule, which ``build_design`` does not read."""
    return build_design(example32_config(p, q, 1.0, horizon=1.0, modes=modes, basis_nodes=nodes))


def example32_sampling(design: ObserverDesign, omega: float, h=None, horizon=None):
    """(h, horizon) of example 3.2: h defaults to half of h*, the largest
    predictor diameter at kappa = omega * mu (0.1 when h* is infinite), and
    the horizon to max(4 / mu, 30 h). h* is computed only when h is not
    given; the run records it as ``RunResult.h_star``."""
    if h is None:
        h_star = max_diameter(design, omega * design.mu, "predictor")
        h = 0.5 * h_star if math.isfinite(h_star) else 0.1
    if horizon is None:
        horizon = max(4.0 / design.mu, 30.0 * h)
    return h, horizon

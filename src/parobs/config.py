"""Run configuration: JSON schema validation, overrides, object builders,
and the two worked examples as presets.

Configs are plain JSON with a versioned schema field. ``_SCHEMA`` declares
every key once: its dotted path, type, default and bound. ``validate_config``
walks it, derives the keys each section may hold from its paths, and then
applies the few rules that relate two fields; every failure names the dotted
path of the offending field, so `--set` overrides are checked before any
computation starts. The builders and the command line read every value
through ``_value``, which applies the schema's default.

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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# the python types of each type name of the schema: a bool, an int in python,
# passes only where a boolean is asked for; a profile's kinds are checked by
# _check_profile and a spec is left to its parser
_TYPES = {"an integer": int, "a number": (int, float), "a boolean": bool, "a string": str,
          "a list": list, "a profile": (int, float, dict), "a spec": object}
_REQUIRED = object()  # the default of a key its section must hold
_SCHEDULE_KEYS = {"uniform": ("h", "horizon"), "random": ("h_min", "h_max", "horizon"),
                  "explicit": ("times",)}

# (dotted path, type, default, bound, message when the bound fails): every key
# a config may hold. A default of None leaves the choice to the builder the
# key feeds (a schedule's seed is the config's, dt follows the grid).
_SCHEMA = (
    ("schema_version", "an integer", _REQUIRED, lambda v: v == SCHEMA_VERSION,
     f"must be {SCHEMA_VERSION}"),
    ("label", "a string", "", None, None),
    ("seed", "an integer", 0, lambda v: v >= 0, "seed must be non-negative"),
    ("design_ref", "a string", None, None, None),
    ("problem.p", "a number", _REQUIRED, lambda v: v > 0, "diffusion constant must be positive"),
    ("problem.q", "a profile", 0.0, None, None),
    ("problem.bc.a0", "a number", _REQUIRED, None, None),
    ("problem.bc.b0", "a number", _REQUIRED, None, None),
    ("problem.bc.a1", "a number", _REQUIRED, None, None),
    ("problem.bc.b1", "a number", _REQUIRED, None, None),
    ("basis.modes", "an integer", 64, lambda v: v >= 2, "need at least 2 modes (N + 1)"),
    ("basis.nodes", "an integer", 1001, lambda v: v >= 3, "need at least 3 grid nodes"),
    ("basis.method", "a string", "auto", lambda v: v in ("auto", "analytic", "numeric"),
     "must be auto, analytic or numeric"),
    ("design.N", "an integer", _REQUIRED, lambda v: v >= 1, "mode count must be at least 1"),
    ("design.L", "a list", _REQUIRED,
     lambda v: bool(v) and all(isinstance(row, list) and all(map(_is_number, row)) for row in v),
     "gain matrix must be a non-empty list of rows of numbers"),
    ("design.channels", "a list", _REQUIRED, bool, "need at least one output channel"),
    ("design.Q", "a number", None, lambda v: v >= 2, "Q must be at least 2"),
    ("design.sigma_fraction", "a number", 0.9, lambda v: 0.0 < v <= 1.0,
     "sigma_fraction must lie in (0, 1]"),
    ("design.lipschitz_R", "a number", 0.0, lambda v: 0.0 <= v < math.inf,
     "Lipschitz bound must be finite and non-negative"),
    ("initial.u0", "a profile", 0.0, None, None),
    ("initial.w0", "a profile", 0.0, None, None),
    ("grid.nodes", "an integer", 201, lambda v: v >= 8, "need at least 8 grid nodes"),
    ("schedule.kind", "a string", None, lambda v: v in _SCHEDULE_KEYS,
     "must be uniform, random or explicit"),
    ("schedule.times", "a list", None, lambda v: all(map(_is_number, v)),
     "every sample time must be a number"),
    ("schedule.h", "a number", None, None, None),
    ("schedule.h_min", "a number", None, None, None),
    ("schedule.h_max", "a number", None, None, None),
    ("schedule.horizon", "a number", None, None, None),
    ("schedule.seed", "an integer", None, lambda v: v >= 0, "seed must be non-negative"),
    ("time.dt", "a number", None, lambda v: v > 0, "dt must be positive"),
    ("time.snapshot_every", "a number", None, lambda v: v > 0, "snapshot_every must be positive"),
    ("disturbances.v", "a spec", None, None, None),
    ("disturbances.v_tilde", "a spec", None, None, None),
    ("disturbances.xi", "a spec", None, None, None),
    ("nonlinearity", "a spec", None, None, None),
    ("gain.h", "a number", _REQUIRED, lambda v: v > 0, "need a positive sampling diameter"),
    ("gain.kappa", "a number", None, None, None),
    ("gain.omega", "a number", None, lambda v: 0.0 <= v < 1.0, "omega must lie in [0, 1)"),
    ("observer.variant", "a string", "predictor", lambda v: v in ("predictor", "zoh"),
     "must be predictor or zoh"),
    ("analysis.lyapunov", "a boolean", False, None, None),
    ("analysis.lyapunov_tail", "an integer", 20, lambda v: v >= 0, "must be non-negative"),
    ("output.fields", "a boolean", False, None, None),
    ("sweep.parameter", "a string", _REQUIRED, lambda v: v in ("h", "kappa", "Q", "noise_amplitude"),
     "must be h, kappa, Q or noise_amplitude"),
    ("sweep.values", "a list", _REQUIRED, lambda v: bool(v) and all(map(_is_number, v)),
     "need a non-empty list of numbers"),
    ("sweep.simulate", "a boolean", False, None, None),
)
_DEFAULTS = {path: None if default is _REQUIRED else default for path, _, default, _, _ in _SCHEMA}
_SECTIONS = {path.rpartition(".")[0] for path in _DEFAULTS}  # '' is the config itself


def _value(cfg: dict, path: str):
    """The value at ``path`` of a validated config, or the schema's default
    (None for a required key) when it or its section is absent; a null
    section is an absent one."""
    *sections, key = path.split(".")
    node = cfg
    for section in sections:
        node = node.get(section) or {}
    return node.get(key, _DEFAULTS[path])


class _NonFinite(str):
    """A number literal that is not a finite float, held until its field is named."""


def _non_finite_field(node, path: str = ""):
    """(path, literal) of the first non-finite literal in a parsed document, or None."""
    if isinstance(node, _NonFinite):
        return path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        found = _non_finite_field(child, f"{path}[{key}]" if isinstance(key, int)
                                  else f"{path}.{key}" if path else key)
        if found:
            return found


def _finite_json(text: str, where: str):
    """The JSON ``text`` parsed with every number a finite float: NaN,
    Infinity, -Infinity and a literal that overflows one raise a ConfigError
    at ``where`` that names the literal and the field that holds it."""
    def number(literal: str, parse=float):
        return parse(literal) if math.isfinite(float(literal)) else _NonFinite(literal)

    doc = json.loads(text, parse_float=number, parse_int=lambda s: number(s, int),
                     parse_constant=number)
    if found := _non_finite_field(doc):
        path, literal = found
        raise ConfigError(where, f"{literal} is not a finite number" + (f" at {path}" if path else ""))
    return doc


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
        *sections, key = path.split(".")
        node = cfg
        for section in sections:
            if not isinstance(node.get(section), dict):
                node[section] = {}
            node = node[section]
        node[key] = value
    return cfg


def _flatten(node, path: str, flat: dict) -> dict:
    """``flat`` with the section ``node`` at dotted ``path`` ('' is the
    config) and every section and schema key under it, by dotted path. An
    unknown key or a section that is not an object is a ConfigError."""
    if not isinstance(node, dict):
        raise ConfigError(path, "expected an object")
    flat[path] = node
    for key, child in node.items():
        full = f"{path}.{key}" if path else key
        if full in _SECTIONS and child is not None:
            _flatten(child, full, flat)
        elif full in _DEFAULTS or full in _SECTIONS:
            flat[full] = child
        else:
            raise ConfigError(full, "unknown key")
    return flat


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
    """Structural validation with dotted-path diagnostics, before any
    computation: unknown keys, then the type and bound of every key in
    ``_SCHEMA``, then the rules that relate two fields."""
    flat = _flatten(cfg, "", {})
    # the keys that must be present: a required one wherever its top-level
    # section is given (schema_version and problem always are), the
    # schedule's kind when the command simulates, and the keys that kind reads
    given = {"schema_version", "problem", *cfg}
    required = {path for path, _, default, _, _ in _SCHEMA
                if default is _REQUIRED and path.partition(".")[0] in given}
    kind = flat.get("schedule.kind")
    if need_schedule:
        required.add("schedule.kind")
    if isinstance(kind, str):
        required.update(f"schedule.{key}" for key in _SCHEDULE_KEYS.get(kind, ()))
    for path, type_name, _, bound, message in _SCHEMA:
        if path not in flat:
            if path in required:
                section = flat.get(path.rpartition(".")[0])
                raise ConfigError(path, "missing required " + ("section" if section is None else "field"))
            continue
        value, types = flat[path], _TYPES[type_name]
        if types is not object and (isinstance(value, bool) != (types is bool)
                                    or not isinstance(value, types)):
            raise ConfigError(path, f"expected {type_name}, got {type(value).__name__}")
        if type_name == "a profile":
            _check_profile(value, path)
        if bound is not None and not bound(value):
            raise ConfigError(path, f"{message}, got {value!r}")

    bc = cfg["problem"]["bc"]
    for a, b in (("a0", "b0"), ("a1", "b1")):
        if not (bc[a] or bc[b]):
            raise ConfigError("problem.bc", f"{a} and {b} must not both be zero")
    if "design" not in cfg and "design_ref" not in cfg:
        raise ConfigError("design", "need a 'design' section or a 'design_ref' path")
    if "design" in cfg:
        design, modes = cfg["design"], _value(cfg, "basis.modes")
        N, L, channels = design["N"], design["L"], design["channels"]
        if N >= modes:
            raise ConfigError("design.N", f"mode count {N} must be below basis.modes = {modes}")
        for i, ch in enumerate(channels):
            where = f"design.channels[{i}]"
            if not isinstance(ch, dict):
                raise ConfigError(where, "expected an object")
            for key in ch:
                if key not in ("label", "kernel", "approximant"):
                    raise ConfigError(f"{where}.{key}", "unknown key")
            for name in ("kernel", "approximant"):
                _check_profile(ch.get(name), f"{where}.{name}")
        if sum(len(row) for row in L) != N * len(channels):
            raise ConfigError("design.L", f"gain matrix needs N x m = {N} x {len(channels)} entries")
    if "gain" in cfg and "kappa" not in cfg["gain"] and "omega" not in cfg["gain"]:
        raise ConfigError("gain", "need 'kappa' or 'omega' (fraction of mu)")
    if "sweep" in cfg and cfg["sweep"]["parameter"] == "h" and _value(cfg, "sweep.simulate") \
            and kind != "uniform":
        raise ConfigError("sweep.parameter", f"a simulated sweep over h sets schedule.h, "
                          f"which a {kind} schedule does not read; use a uniform one")


def build_problem(cfg: dict) -> SLProblem:
    """The plant of the config's ``problem`` section."""
    return problem_from_spec(cfg["problem"])


def build_basis(cfg: dict, problem: SLProblem) -> SpectralBasis:
    modes, nodes = int(_value(cfg, "basis.modes")), int(_value(cfg, "basis.nodes"))
    method = _value(cfg, "basis.method")
    if method != "numeric":
        try:
            return analytic_eigensystem(problem, modes, nodes)
        except UnsupportedAnalyticCase:
            if method == "analytic":
                raise
    return numeric_eigensystem(problem, modes, nodes)


def build_design(cfg: dict, problem: SLProblem | None = None, basis: SpectralBasis | None = None) -> ObserverDesign:
    if "design_ref" in cfg and "design" not in cfg:
        path = cfg["design_ref"]
        with open(path) as fh:
            doc = _finite_json(fh.read(), str(path))
        basis = doc.get("basis")
        if isinstance(basis, dict) and basis.get("ref"):  # a relative ref names a file beside design.json
            basis["ref"] = os.path.join(os.path.dirname(path), basis["ref"])
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
        Q=_value(cfg, "design.Q"),
        sigma_fraction=float(_value(cfg, "design.sigma_fraction")),
        lipschitz_R=float(_value(cfg, "design.lipschitz_R")),
    )


def resolve_kappa(cfg: dict, design: ObserverDesign) -> float:
    kappa, omega = _value(cfg, "gain.kappa"), _value(cfg, "gain.omega")
    if kappa is not None:
        return float(kappa)
    if omega is not None:
        return float(omega) * design.mu
    return 0.0


def gain_report(cfg: dict, design: ObserverDesign) -> SmallGainReport:
    """Small-gain report of the configured variant at gain.h and the
    configured kappa: the Omega that ``check-gain``, ``design`` and a sweep
    that does not simulate evaluate. Without a gain.h it is the diameter of
    the config's schedule, built and seeded as ``build_scenario`` builds it,
    so the Omega is the one a simulated run is certified at (its
    ``Scenario.report``)."""
    h = _value(cfg, "gain.h")
    if h is None:
        h = _build_schedule(cfg, int(_value(cfg, "seed"))).diameter if "schedule" in cfg else 0.0
    if h <= 0.0:
        raise ConfigError("gain.h", "need a positive sampling diameter")
    return small_gain(design, float(h), resolve_kappa(cfg, design), _value(cfg, "observer.variant"))


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
    seed = int(_value(cfg, "seed") if seed is None else seed)
    design = design or build_design(cfg)
    nodes = int(_value(cfg, "grid.nodes"))
    grid = uniform_grid(nodes)

    schedule = _build_schedule(cfg, seed)

    xi = _value(cfg, "disturbances.xi")
    dist_spec = {"v": _value(cfg, "disturbances.v"), "v_tilde": _value(cfg, "disturbances.v_tilde"),
                 "xi": [_seeded(x, seed) for x in xi] if isinstance(xi, list) else _seeded(xi, seed)}
    disturbances = disturbances_from_spec(dist_spec, design.m, grid)
    nl = nonlinearity_from_spec(_value(cfg, "nonlinearity"), grid)
    return Scenario(
        design=design,
        variant=_value(cfg, "observer.variant"),
        schedule=schedule,
        nodes=nodes,
        u0=pf.as_profile(_value(cfg, "initial.u0"), grid),
        w0=pf.as_profile(_value(cfg, "initial.w0"), grid),
        nonlinearity=nl,
        disturbances=disturbances,
        dt=_value(cfg, "time.dt"),
        snapshot_every=_value(cfg, "time.snapshot_every"),
        label=_value(cfg, "label"),
        kappa=resolve_kappa(cfg, design),
    )


# -- worked-example presets ---------------------------------------------------


def _spec(obj):
    """Numbers and spec dicts as they are; profiles and noise signals as specs."""
    return obj if isinstance(obj, (int, float, dict)) else obj.spec()


def _preset(p, q, bc, L, channel, *, h, omega, variant, horizon, nodes, dt,
            snapshot_every, u0, w0, noise, label, modes, basis_nodes) -> dict:
    """An N = 1, Q = 2, sigma = |A11| design on a uniform schedule."""
    cfg = {
        "schema_version": SCHEMA_VERSION,
        "problem": SLProblem(p, q, *bc).spec(),
        "basis": {"modes": modes,
                  "nodes": _DEFAULTS["basis.nodes"] if basis_nodes is None else basis_nodes,
                  "method": "analytic"},
        "design": {"N": 1, "L": [[L]], "Q": 2.0, "sigma_fraction": 1.0,
                   "channels": [channel.spec()]},
        "gain": {"h": h, "omega": omega},
        "observer": {"variant": variant},
        "schedule": {"kind": "uniform", "h": h, "horizon": horizon},
        "grid": {"nodes": _DEFAULTS["grid.nodes"] if nodes is None else nodes},
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
    validate_config(cfg)  # an omega outside [0, 1) is named before a design is built
    return cfg


def example31_config(p=1.0, h=0.5, omega=0.0, variant=None, noise=None, mismatch=0.0,
                     *, horizon=None, nodes=None, dt=None, snapshot_every=None, u0=None,
                     w0=None, modes=201, basis_nodes=None) -> dict:
    """Example 3.1: the Neumann heat plant with output kernel x, c = 1/2,
    L = -p pi^2, P = [1], kappa = omega * mu.

    The horizon defaults to 10 * 20 / (p pi^2), rounded up to whole periods.
    ``noise`` is a noise spec, a NoiseSignal, or a number (the amplitude of
    a sinusoid with omega = 2); ``mismatch`` is a constant plant input the
    observer does not know. ``variant``, ``nodes`` and ``basis_nodes`` default to
    the config's.
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
    variant = _DEFAULTS["observer.variant"] if variant is None else variant
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


def example31_design(p: float = 1.0, nodes: int | None = None, modes: int = 201) -> ObserverDesign:
    """The design of ``example31_config(p)``: c = 1/2, L = -p pi^2, P = [1]."""
    return build_design(example31_config(p, modes=modes, basis_nodes=nodes))


def example32_config(p=1.0, q=0.0, h=None, omega=0.3, noise=None, *, horizon=None, nodes=None,
                     dt=None, snapshot_every=None, u0=None, w0=None, modes=201,
                     basis_nodes=None) -> dict:
    """Example 3.2: the boundary-measured plant in the derivative variable
    (Neumann at 0, Dirichlet at 1), c = (4/pi) cos(pi x / 2), L = pi (4q -
    7 p pi^2) / (16 sqrt 2), predictor observer.

    When h or the horizon is not given, the design is built once to find
    them (see ``example32_sampling``). ``nodes`` and ``basis_nodes`` default to
    the config's.
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
    p: float = 1.0, q: float = 0.0, nodes: int | None = None, modes: int = 201
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

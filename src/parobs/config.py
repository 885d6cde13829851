"""Run configuration: JSON schema validation, overrides, object builders.

Configs are plain JSON with a versioned schema field. Validation walks the
expected structure and reports the dotted path of the offending field, so
`--set` overrides are type-checked before any computation starts.
"""

from __future__ import annotations

import copy
import json
import math
from typing import Any

import numpy as np

from . import profiles as pf
from .errors import ConfigError
from .nonlinear import nonlinearity_from_spec
from .observer_design import ObserverDesign, design_from_json, make_design, OutputChannel
from .schedule import make_schedule
from .signals import disturbances_from_spec
from .simulator import Scenario
from .sturm_liouville import (
    SLProblem,
    SpectralBasis,
    analytic_eigensystem,
    numeric_eigensystem,
)
from .errors import UnsupportedAnalyticCase

__all__ = [
    "load_config",
    "apply_overrides",
    "validate_config",
    "build_problem",
    "build_basis",
    "build_design",
    "build_scenario",
    "resolve_kappa",
]

SCHEMA_VERSION = 1

_PROFILE_KINDS = {
    "constant",
    "polynomial",
    "cosine",
    "sine",
    "cosine_series",
    "closed_form",
    "samples",
    "sum",
}


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"not valid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(str(path), "top-level config must be an object")
    return cfg


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply repeatable ``--set dotted.key=value`` pairs (JSON-parsed values)."""
    cfg = copy.deepcopy(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key.path=value")
        path, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
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
    if types is not None and not isinstance(value, types):
        # bools are ints in python; keep them out of numeric fields
        raise ConfigError(path, f"expected {types}, got {type(value).__name__}")
    if types in ((int, float), float) and isinstance(value, bool):
        raise ConfigError(path, "expected a number, got a bool")
    return value


def _check_profile(spec, path: str):
    if spec is None:
        return
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return
    if not isinstance(spec, dict):
        raise ConfigError(path, "profile must be a number or an object with 'kind'")
    kind = spec.get("kind")
    if kind not in _PROFILE_KINDS:
        raise ConfigError(f"{path}.kind", f"unknown profile kind {kind!r}")


def validate_config(cfg: dict, *, need_schedule: bool = False) -> None:
    """Structural validation with dotted-path diagnostics."""
    version = _expect(cfg, "schema_version", int, required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version}")
    p = _expect(cfg, "problem.p", (int, float), required=True)
    if p <= 0:
        raise ConfigError("problem.p", "diffusion constant must be positive")
    _check_profile(_expect(cfg, "problem.q", (dict, int, float), default=0.0), "problem.q")
    for coeff in ("a0", "b0", "a1", "b1"):
        _expect(cfg, f"problem.bc.{coeff}", (int, float), required=True)

    if "design" not in cfg and "design_ref" not in cfg:
        raise ConfigError("design", "need a 'design' section or a 'design_ref' path")
    if "design" in cfg:
        N = _expect(cfg, "design.N", int, required=True)
        if N < 1:
            raise ConfigError("design.N", "mode count must be at least 1")
        L = _expect(cfg, "design.L", list, required=True)
        if not L or not all(isinstance(r, list) for r in L):
            raise ConfigError("design.L", "gain matrix must be a list of rows")
        channels = _expect(cfg, "design.channels", list, required=True)
        if not channels:
            raise ConfigError("design.channels", "need at least one output channel")
        for i, ch in enumerate(channels):
            if not isinstance(ch, dict):
                raise ConfigError(f"design.channels[{i}]", "channel must be an object")
            _check_profile(ch.get("kernel"), f"design.channels[{i}].kernel")
            _check_profile(ch.get("approximant"), f"design.channels[{i}].approximant")
        q_val = _expect(cfg, "design.Q", (int, float), default=None)
        if q_val is not None and q_val < 2:
            raise ConfigError("design.Q", "Q must be at least 2")

    nodes = _expect(cfg, "grid.nodes", int, default=201)
    if nodes < 8:
        raise ConfigError("grid.nodes", "need at least 8 grid nodes")
    modes = _expect(cfg, "basis.modes", int, default=None)
    if modes is not None and modes < 2:
        raise ConfigError("basis.modes", "need at least 2 modes (N + 1)")

    if need_schedule or "schedule" in cfg:
        kind = _expect(cfg, "schedule.kind", str, required=need_schedule, default=None)
        if kind is not None and kind not in ("uniform", "random", "explicit"):
            raise ConfigError("schedule.kind", f"unknown schedule kind {kind!r}")
        if kind == "uniform":
            _expect(cfg, "schedule.h", (int, float), required=True)
            _expect(cfg, "schedule.horizon", (int, float), required=True)
    if "time" in cfg:
        dt = _expect(cfg, "time.dt", (int, float), default=None)
        if dt is not None and dt <= 0:
            raise ConfigError("time.dt", "dt must be positive")
    if "gain" in cfg:
        _expect(cfg, "gain.h", (int, float), required=True)
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
    if "sweep" in cfg:
        param = _expect(cfg, "sweep.parameter", str, required=True)
        if param not in ("h", "kappa", "Q", "noise_amplitude"):
            raise ConfigError("sweep.parameter", f"unknown sweep parameter {param!r}")
        values = _expect(cfg, "sweep.values", list, required=True)
        if not values:
            raise ConfigError("sweep.values", "need at least one value")


def build_problem(cfg: dict) -> SLProblem:
    bc = cfg["problem"]["bc"]
    q_spec = cfg["problem"].get("q", 0.0)
    return SLProblem(
        p=float(cfg["problem"]["p"]),
        q=pf.as_profile(q_spec),
        a0=float(bc["a0"]),
        b0=float(bc["b0"]),
        a1=float(bc["a1"]),
        b1=float(bc["b1"]),
    )


def build_basis(cfg: dict, problem: SLProblem) -> SpectralBasis:
    spec = cfg.get("basis", {})
    modes = int(spec.get("modes", 64))
    nodes = int(spec.get("nodes", 1001))
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
        with open(cfg["design_ref"]) as fh:
            return design_from_json(json.load(fh))
    problem = problem or build_problem(cfg)
    basis = basis or build_basis(cfg, problem)
    d = cfg["design"]
    nodes_grid = basis.grid
    channels = [
        OutputChannel(
            kernel=pf.as_profile(ch["kernel"], nodes_grid),
            approximant=pf.as_profile(ch["approximant"], nodes_grid),
            label=ch.get("label", f"y{i + 1}"),
        )
        for i, ch in enumerate(d["channels"])
    ]
    return make_design(
        problem,
        basis,
        channels,
        np.asarray(d["L"], dtype=float),
        int(d["N"]),
        Q=d.get("Q"),
        sigma_fraction=float(d.get("sigma_fraction", 0.9)),
        lipschitz_R=float(d.get("lipschitz_R", 0.0)),
        lipschitz_sup=float(d.get("lipschitz_sup", 0.0)),
        j_max=int(d.get("j_max", 200)),
    )


def resolve_kappa(cfg: dict, design: ObserverDesign) -> float:
    gain = cfg.get("gain", {})
    if "kappa" in gain:
        return float(gain["kappa"])
    if "omega" in gain:
        return float(gain["omega"]) * design.mu
    return 0.0


def _seeded(spec, seed: int):
    """Fill missing seeds in schedule/noise specs from the global seed."""
    if isinstance(spec, dict) and spec.get("kind") == "random" and "seed" not in spec:
        spec = dict(spec)
        spec["seed"] = seed
    return spec


def build_scenario(cfg: dict, design: ObserverDesign | None = None, seed: int | None = None) -> Scenario:
    validate_config(cfg, need_schedule=True)
    seed = int(cfg.get("seed", 0)) if seed is None else int(seed)
    design = design or build_design(cfg)
    nodes = int(cfg.get("grid", {}).get("nodes", 201))
    from .grids import uniform_grid

    grid = uniform_grid(nodes)

    sched_spec = _seeded(dict(cfg["schedule"]), seed)
    schedule = make_schedule(sched_spec)

    dist_spec = cfg.get("disturbances", {}) or {}
    if isinstance(dist_spec.get("xi"), list):
        dist_spec = dict(dist_spec)
        dist_spec["xi"] = [_seeded(x, seed) for x in dist_spec["xi"]]
    elif isinstance(dist_spec.get("xi"), dict):
        dist_spec = dict(dist_spec)
        dist_spec["xi"] = _seeded(dist_spec["xi"], seed)
    disturbances = disturbances_from_spec(dist_spec, design.m, grid)

    nl = nonlinearity_from_spec(cfg.get("nonlinearity"), grid)
    if design.lipschitz_R < nl.lipschitz_R:
        raise ConfigError(
            "design.lipschitz_R",
            f"certificate assumes R = {design.lipschitz_R:.6g}, below the "
            f"nonlinearity's Lipschitz bound {nl.lipschitz_R:.6g}",
        )
    time_cfg = cfg.get("time", {})
    initial = cfg.get("initial", {})
    u0 = pf.as_profile(initial.get("u0", 0.0), grid)
    w0 = pf.as_profile(initial.get("w0", 0.0), grid)
    horizon = time_cfg.get("horizon")
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
        horizon=float(horizon) if horizon is not None else None,
        label=cfg.get("label", ""),
    )

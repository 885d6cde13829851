"""Command-line entry point: design, check-gain, simulate, sweep, and the
two worked examples.

All commands are configuration-driven (JSON, versioned schema) with
repeatable ``--set key.path=value`` overrides that are type-checked before
any computation. ``example31``/``example32`` pass the preset flags they are
given on to ``example31_config``/``example32_config``, which hold every
default, and run the presets through the same build, simulate and
``check_run`` path. Each of ``simulate``, ``example31`` and ``example32``
holds one ``analysis.RunResult``: its ``to_dict`` is ``report.json``
(example 3.2's adds a ``reconstruction`` section), one writer turns it into
``report.json``, ``trajectory.csv`` and ``margins.csv``, and one
``--strict`` rule judges it. Outputs are deterministic given the config
and seed: floats print with 17 significant digits so reruns are
byte-identical, and every CSV table but the mixed-type ``sweep.csv`` is
written by ``grids.write_csv``.

Each command takes only the flags it reads (``_FLAGS``, and the preset
parameters ``_PRESET_FLAGS``); argparse rejects any other with exit 2.

Exit codes: 0 success, 2 configuration error, 3 under ``--strict`` when a
run is not certified (Omega >= 1) or a checked bound fails.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import replace

from .analysis import RunResult, _report_to_dict, check_run, run_example_31, run_example_32
from .config import (
    _value,
    apply_overrides,
    build_design,
    build_scenario,
    gain_report,
    load_config,
    validate_config,
)
from .errors import ConfigError, ParobsError
from .grids import write_csv
from .observer_design import certificate_summary, design_to_json
from .simulator import Trajectory, simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run(outdir: str, run: RunResult) -> None:
    """report.json, trajectory.csv and margins.csv of one simulated run."""
    os.makedirs(outdir, exist_ok=True)
    _write_json(os.path.join(outdir, "report.json"), run.to_dict())

    traj, ios, lyap = run.trajectory, run.ios, run.lyapunov
    m = traj.zeta.shape[1]
    header = ["t", "err_l2", "err_sup"] + [f"zeta_{i + 1}" for i in range(m)] + ["sample_flag"]
    cols = [traj.times, traj.error_l2, traj.error_sup, traj.zeta, traj.sample_flag]
    write_csv(os.path.join(outdir, "trajectory.csv"), [",".join(header)], cols)

    header = ["t", "err_l2"]
    cols = [traj.times, traj.error_l2]
    if ios is not None:
        header += ["ios_rhs", "ios_margin"]
        cols += [ios.rhs, ios.margins]
    if lyap is not None:
        header += ["lyapunov_V", "lyapunov_rhs"]
        cols += [lyap.V, lyap.rhs]
    write_csv(os.path.join(outdir, "margins.csv"), [",".join(header)], cols)


def _write_fields(outdir: str, traj: Trajectory) -> None:
    os.makedirs(outdir, exist_ok=True)
    for k in range(traj.times.size):
        write_csv(os.path.join(outdir, f"snapshot_{k:05d}.csv"), ["x,u,w"],
                  [traj.grid, traj.u[k], traj.w[k]])


def _exit_code(strict: bool, failed: bool) -> int:
    """Under --strict, exit 3 when the certificate or the run failed."""
    return EXIT_VIOLATION if strict and failed else EXIT_OK


def _config(args, need_schedule=lambda cfg: False) -> dict:
    """The --config file with its --set overrides applied, validated before
    any work; ``need_schedule(cfg)`` says whether the command simulates it."""
    cfg = apply_overrides(load_config(args.config), args.set or [])
    validate_config(cfg, need_schedule=need_schedule(cfg))
    return cfg


def cmd_design(args) -> int:
    cfg = _config(args)
    design = build_design(cfg)
    reports = []
    if "gain" in cfg:
        reports.append(gain_report(cfg, design))
    summary = certificate_summary(design, reports)
    print(summary)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        # design.json records how to rebuild the basis, so no basis.csv is written
        _write_json(os.path.join(args.out, "design.json"), design_to_json(design))
        with open(os.path.join(args.out, "certificate.txt"), "w") as fh:
            fh.write(summary + "\n")
    return EXIT_OK


def cmd_check_gain(args) -> int:
    cfg = _config(args)
    design = build_design(cfg)
    report = gain_report(cfg, design)
    print(f"Omega = {_fmt(report.omega)}")
    print(f"feasible = {str(report.feasible).lower()}")
    print(f"gamma = {_fmt(report.gamma)}  mu = {_fmt(report.mu)}  kappa = {_fmt(report.kappa)}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "gain.json"), _report_to_dict(report))
    return _exit_code(args.strict, not report.feasible)


def cmd_simulate(args) -> int:
    cfg = _config(args, lambda cfg: True)
    design = build_design(cfg)
    scenario = build_scenario(cfg, design=design, seed=args.seed)
    traj = simulate(scenario)
    run = check_run(traj, scenario, lyapunov=_value(cfg, "analysis.lyapunov"))
    print(
        f"simulated {scenario.variant} observer: ||e(0)|| = {_fmt(traj.error_l2[0])}, "
        f"||e(T)|| = {_fmt(traj.error_l2[-1])}"
    )
    if run.ios is not None:
        print(f"ios violations = {run.ios.violations}")
    if args.out:
        _write_run(args.out, run)
        if _value(cfg, "output.fields"):
            _write_fields(os.path.join(args.out, "fields"), traj)
    return _exit_code(args.strict, run.violated)


def _row_config(cfg: dict, param: str, value: float) -> dict:
    """The config of one sweep row over h, kappa or the noise amplitude; it
    copies only the sections a row edits and shares the rest with ``cfg``."""
    cfg = dict(cfg)
    for section in ("gain", "schedule", "disturbances"):
        if section in cfg:
            cfg[section] = copy.deepcopy(cfg[section])
    if param == "h":
        cfg.setdefault("gain", {})["h"] = value
        if "schedule" in cfg:
            cfg["schedule"]["h"] = value
    elif param == "kappa":
        cfg.setdefault("gain", {})["kappa"] = value
        cfg["gain"].pop("omega", None)
    elif param == "noise_amplitude":
        xi = cfg.setdefault("disturbances", {}).setdefault(
            "xi", {"kind": "sinusoid", "amplitude": 0.0, "omega": 2.0}
        )
        for x in xi if isinstance(xi, list) else [xi]:
            x["amplitude"] = value
    return cfg


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    return _fmt(v) if isinstance(v, float) else str(v)


def cmd_sweep(args) -> int:
    """One sweep.csv row per value of h, kappa, Q or the noise amplitude.

    A row that does not simulate takes omega and feasible from
    ``gain_report`` at its gain.h; a simulated row takes them from its
    scenario's certificate, at the schedule's diameter, so a simulated h
    sweep needs a uniform schedule (a ConfigError before any work). A row
    whose design, report or scenario raises a ParobsError (a Q the design
    rejects, a kappa outside [0, mu)) names it in the error column, with
    omega nan and feasible false, and leaves the trajectory columns empty.
    """
    # a sweep section that is not an object is left to validate_config
    cfg = _config(args, lambda cfg: isinstance(cfg.get("sweep"), dict)
                  and _value(cfg, "sweep.simulate"))
    if "sweep" not in cfg:
        raise ConfigError("sweep", "missing sweep section")
    param = _value(cfg, "sweep.parameter")
    values = [float(v) for v in _value(cfg, "sweep.values")]
    do_sim = _value(cfg, "sweep.simulate")
    # only Q changes the design, and replace re-derives its certificate
    base = build_design(cfg)
    traj = None
    rows = []
    for index, value in enumerate(values):
        row_cfg = _row_config(cfg, param, value)
        row = {"index": index, "parameter": param, "value": value}
        try:
            design = replace(base, Q=value) if param == "Q" else base
            scenario = build_scenario(row_cfg, design=design, seed=args.seed) if do_sim else None
            report = gain_report(row_cfg, design) if scenario is None else scenario.report
            row.update(omega=report.omega, feasible=report.feasible)
        except ParobsError as exc:
            scenario = None
            row.update(omega=float("nan"), feasible=False, error=type(exc).__name__)
        if scenario is not None:
            # Q and kappa change only the certificate: one trajectory serves every row
            if traj is None or param in ("h", "noise_amplitude"):
                traj = simulate(scenario)
            run = check_run(traj, scenario)
            row["final_error_l2"] = float(traj.error_l2[-1])
            row["fitted_rate"] = run.fit.rate if run.fit is not None else float("nan")
            if run.ios is not None:
                row["ios_violations"] = run.ios.violations
                row["worst_relative_margin"] = run.ios.worst_relative_margin
        rows.append(row)

    columns = ["index", "parameter", "value", "omega", "feasible"]
    extras = ["final_error_l2", "fitted_rate", "ios_violations", "worst_relative_margin", "error"]
    columns += [c for c in extras if any(c in r for r in rows)]
    lines = [",".join(columns)]
    lines += [",".join(_csv_cell(r.get(c, "")) for c in columns) for r in rows]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "sweep.csv"), "w") as fh:
            fh.write(text)
    return EXIT_OK


def _example_args(args) -> dict:
    """The preset arguments of an example command: the preset flags that
    were given (the others keep the preset's defaults) plus the noise spec."""
    kwargs = {k: v for k, v in vars(args).items() if f"--{k}" in _PRESET_FLAGS}
    if args.noise_amplitude > 0.0:
        kwargs["noise"] = {"kind": args.noise_kind, "amplitude": args.noise_amplitude,
                           "omega": args.noise_omega, "seed": args.seed or 0}
    return kwargs


def cmd_example31(args) -> int:
    rep = run_example_31(lyapunov=args.lyapunov, **_example_args(args))
    print(f"Omega = {_fmt(rep.report.omega)} (feasible = {str(rep.report.feasible).lower()})")
    print(f"max diameter h* = {_fmt(rep.h_star)}")
    if rep.fit is not None:
        print(f"fitted decay rate = {_fmt(rep.fit.rate)} (certified kappa = {_fmt(rep.kappa)})")
    print(f"verdict = {rep.verdict}")
    if args.out:
        _write_run(args.out, rep)
    return _exit_code(args.strict, rep.violated)


def cmd_example32(args) -> int:
    rep = run_example_32(**_example_args(args))
    rec = rep.reconstruction
    print(f"Omega = {_fmt(rep.report.omega)} (feasible = {str(rep.report.feasible).lower()})")
    print(f"max diameter h* = {_fmt(rep.h_star)}, using h = {_fmt(rep.h)}")
    print(f"theta = {_fmt(rec.theta)}")
    if rec.sup_fit is not None:
        print(f"fitted sup-norm decay rate = {_fmt(rec.sup_fit.rate)} (kappa = {_fmt(rep.kappa)})")
    if rec.noise_bound is not None:
        print(
            f"sup error <= theta * sup|xi| = {_fmt(rec.noise_bound)}: "
            f"{'holds' if rec.noise_bound_ok else 'violated'}"
        )
    if args.out:
        _write_run(args.out, rep)
    return _exit_code(args.strict, rep.violated)


def _finite_float(text: str) -> float:
    """The argparse type of the float flags: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


# the flags shared between commands; each command takes only those it reads
_FLAGS = {
    "--config": dict(required=True, help="path to the JSON run configuration"),
    "--set": dict(action="append", metavar="KEY=VALUE",
                  help="override a config field (dotted path, JSON value); repeatable"),
    "--out": dict(default=None, help="output directory"),
    "--seed": dict(type=int, default=None,
                   help="seed of random schedules and noise (default: the config's)"),
    "--strict": dict(action="store_true",
                     help="exit 3 on an infeasible certificate or a failed checked bound"),
    "--noise-kind": dict(default="sinusoid", choices=["constant", "sinusoid", "random"]),
    "--noise-amplitude": dict(type=_finite_float, default=0.0),
    "--noise-omega": dict(type=_finite_float, default=2.0),
    "--lyapunov": dict(action="store_true", help="also run the decay-functional oracle"),
}

# the preset parameters of the example commands: a flag that is not given is
# not passed on, so its default is the preset's own
_PRESET_FLAGS = {
    "--p": dict(type=_finite_float, help="diffusion constant"),
    "--q": dict(type=_finite_float, help="reaction constant"),
    "--h": dict(type=_finite_float, help="sampling diameter"),
    "--omega": dict(type=_finite_float, help="decay fraction kappa/mu in [0,1)"),
    "--variant": dict(choices=["predictor", "zoh"]),
    "--mismatch": dict(type=_finite_float, help="||v - v~|| of a constant input mismatch"),
    "--horizon": dict(type=_finite_float),
    "--nodes": dict(type=int),
    "--dt": dict(type=_finite_float),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parobs",
        description="sampled-data observer design and verification for 1-D parabolic plants",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags, summary in (
        ("design", cmd_design, "--config --set --out",
         "synthesize a design and emit its certificate"),
        ("check-gain", cmd_check_gain, "--config --set --out --strict",
         "evaluate the small-gain value only (no simulation)"),
        ("simulate", cmd_simulate, "--config --set --out --seed --strict",
         "co-simulate plant and observer, check bounds"),
        ("sweep", cmd_sweep, "--config --set --out --seed",
         "evaluate a parameter grid into a long-format CSV"),
        ("example31", cmd_example31, "--out --seed --strict --p --h --omega --variant --mismatch "
         "--horizon --nodes --dt --noise-kind --noise-amplitude --noise-omega --lyapunov",
         "run the Neumann-ends worked design end to end"),
        ("example32", cmd_example32, "--out --seed --strict --p --q --h --omega --horizon --nodes "
         "--dt --noise-kind --noise-amplitude --noise-omega",
         "run the boundary-measurement worked design end to end"),
    ):
        sp = sub.add_parser(name, help=summary)
        for flag in flags.split():
            if flag in _PRESET_FLAGS:
                sp.add_argument(flag, default=argparse.SUPPRESS, **_PRESET_FLAGS[flag])
            else:
                sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(fn=fn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParobsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

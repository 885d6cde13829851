"""The benchmark's workloads: what each runs, how its outputs are checked,
and how much work it did.

Each workload has a timed ``run`` and an untimed ``check``. ``check``
returns an ``Outcome`` whose ``problems`` list is empty when the run is
correct. Nothing here draws random numbers; the seed reaches parobs only
through ``nonlinear-zoh-cli``'s ``--seed``, which seeds its random sampling
schedule and its noise.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import parobs.cli
from parobs import profiles as pf
from parobs.analysis import default_fit_window, example31_design, run_example_31
from parobs.config import (
    apply_overrides,
    build_design,
    build_problem,
    build_scenario,
    load_config,
    resolve_kappa,
    validate_config,
)
from parobs.observer_design import max_diameter
from parobs.schedule import make_schedule
from parobs.sturm_liouville import SLProblem

CONFIGS = Path(__file__).resolve().parent / "configs"
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

STEP_NODES = 201
STEP_DT = 0.005  # the step size both simulating workloads use at 201 nodes
STEP_T = 1.0  # where the step probes start, so time-dependent inputs are non-zero


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    work: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def trajectory_work(traj) -> dict[str, int]:
    """Step pairs, samples and snapshots of one co-simulation. Step pairs
    follow ``simulate``'s rule: every gap between samples (and the last one
    up to the horizon) is cut into ceil(gap / dt_target) equal steps."""
    starts = [e.t for e in traj.events]
    ends = starts[1:] + [traj.metadata["horizon"]]
    dt = traj.metadata["dt_target"]
    pairs = sum(
        max(1, math.ceil((b - a) / dt - 1e-9)) for a, b in zip(starts, ends) if b - a > 1e-14
    )
    return {"step_pairs": pairs, "samples": len(traj.events), "snapshots": int(traj.times.size)}


def output_record(out: Path) -> tuple[dict[str, str], int]:
    """SHA-256 of every file a CLI run wrote, and their total size."""
    digests, size = {}, 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


def cli(argv: list[str]) -> int:
    """``parobs.cli.main`` with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return parobs.cli.main(argv)


@contextlib.contextmanager
def captured_trajectory():
    """Keep the trajectory the CLI's ``simulate`` call returns, so its work
    can be counted from ``Trajectory.metadata``."""
    box = []
    original = parobs.cli.simulate

    def capturing(scenario):
        traj = original(scenario)
        box.append(traj)
        return traj

    parobs.cli.simulate = capturing
    try:
        yield box
    finally:
        parobs.cli.simulate = original


def _step_inputs(design, scenario=None) -> dict:
    """Design, inputs and plant state for the step probes: the scenario's
    nonlinearity, inputs and initial state, or none of them."""
    grid = np.linspace(0.0, 1.0, STEP_NODES)
    if scenario is None:
        nonlinearity = v = v_tilde = None
        u0 = pf.cosine_series(1.0, [0.5])
    else:
        nonlinearity, u0 = scenario.nonlinearity, scenario.u0
        v, v_tilde = scenario.disturbances.v, scenario.disturbances.v_tilde
    return {
        "design": design,
        "nonlinearity": nonlinearity,
        "v": v,
        "v_tilde": v_tilde,
        "u": pf.as_profile(u0, grid).values(grid),
    }


class PredictorLong:
    """Acceptance criterion 4: the predictor observer on the example 3.1
    plant at p = 0.1, sampled every h = 1.0 for 200 time units."""

    name = "predictor-long"
    work_unit = "step_pairs"
    small_horizon = 10.0  # warm-up and smoke size

    def __init__(self, scale: str):
        self.scale = scale

    def setup(self):
        design = example31_design(p=0.1)
        max_diameter(design, 0.1 * design.mu, "predictor")

    def run(self, seed: int, out: Path, warmup: bool = False):
        small = warmup or self.scale == "smoke"
        return run_example_31(
            p=0.1, h=1.0, omega=0.1, variant="predictor",
            horizon=self.small_horizon if small else 200.0,
            nodes=201, snapshot_every=0.1, lyapunov=True, lyapunov_tail=20,
        )

    def check(self, rep, seed: int, out: Path, warmup: bool = False) -> Outcome:
        o = Outcome(work=trajectory_work(rep.trajectory))
        if rep.fit is None or rep.fit.rate - rep.fit.ci_halfwidth < rep.kappa:
            o.problems.append("fitted decay rate minus its CI is below kappa")
        if rep.ios is None or rep.ios.violations:
            o.problems.append("IOS bound violated or not checked")
        if rep.lyapunov is None or not (rep.lyapunov.e_le_V_ok and rep.lyapunov.v0_bound_ok):
            o.problems.append("||e||^2 <= V or the V(0) bound failed")
        return o

    def step_inputs(self) -> dict:
        return _step_inputs(example31_design(p=0.1))


class _ConfigWorkload:
    """A workload that runs the ``parobs`` CLI on a config in ``configs/``;
    ``small_sets`` are the ``--set`` overrides of its warm-up and smoke size."""

    config_name = ""
    small_sets: list[str] = []

    def __init__(self, scale: str):
        self.scale = scale
        self.config = CONFIGS / self.config_name
        self.cfg = load_config(self.config)

    def sets(self, warmup: bool) -> list[str]:
        return self.small_sets if warmup or self.scale == "smoke" else []

    def argv(self, command: str, out: Path, warmup: bool) -> list[str]:
        args = [command, "--config", str(self.config), "--out", str(out)]
        for s in self.sets(warmup):
            args += ["--set", s]
        return args

    def setup(self):
        cfg = load_config(self.config)
        validate_config(cfg, need_schedule="schedule" in cfg)
        build_design(cfg)

    def step_inputs(self) -> dict:
        return _step_inputs(build_design(self.cfg))


class NonlinearZohCli(_ConfigWorkload):
    """``parobs simulate`` on a two-channel numeric design with a saturated
    nonlinearity, a random schedule, random noise and an input mismatch."""

    name = "nonlinear-zoh-cli"
    work_unit = "step_pairs"
    config_name = "nonlinear_zoh.json"
    small_sets = ["schedule.horizon=4"]

    def _seed(self, seed: int, warmup: bool) -> int:
        """The warm-up runs the seed the reference was recorded with."""
        return REFERENCE[self.name]["seed"] if warmup else seed

    def run(self, seed: int, out: Path, warmup: bool = False):
        argv = self.argv("simulate", out, warmup) + ["--seed", str(self._seed(seed, warmup))]
        with captured_trajectory() as box:
            rc = cli(argv)
        return rc, box[0] if box else None

    def check(self, raw, seed: int, out: Path, warmup: bool = False) -> Outcome:
        rc, traj = raw
        o = Outcome()
        if rc != 0 or traj is None:
            o.problems.append(f"parobs simulate exited with {rc}")
            return o
        o.work = trajectory_work(traj)
        o.digests, o.work["output_bytes"] = output_record(out)
        report = json.loads((out / "report.json").read_text())
        if report.get("ios", {}).get("violations") != 0:
            o.problems.append("IOS violations or no IOS check")
        if report.get("lyapunov", {}).get("error_le_V") is not True:
            o.problems.append("||e||^2 <= V failed")
        # recorded, not judged: the decay functional's integral inequality
        # fails on this design, as it does on the worked designs
        o.notes["lyapunov_violations"] = report.get("lyapunov", {}).get("violations")
        spec = dict(apply_overrides(self.cfg, self.sets(warmup))["schedule"])
        schedule = make_schedule(dict(spec, seed=self._seed(seed, warmup)))
        expected = int(np.count_nonzero(schedule.times <= schedule.horizon + 1e-12))
        if report["samples"] != expected:
            o.problems.append(f"{report['samples']} samples, schedule has {expected}")
        if warmup:
            ref = REFERENCE[self.name]
            got = report["final_error_l2"]
            if abs(got - ref["final_error_l2"]) > ref["rtol"] * abs(ref["final_error_l2"]):
                o.problems.append(
                    f"final_error_l2 {got!r} differs from the reference {ref['final_error_l2']!r}"
                )
        return o

    def step_inputs(self) -> dict:
        design = build_design(self.cfg)
        return _step_inputs(design, build_scenario(self.cfg, design=design, seed=0))


class DesignSweep(_ConfigWorkload):
    """``parobs design --out`` then an 80-point ``parobs sweep`` over h,
    without simulation."""

    name = "design-sweep"
    work_unit = "sweep_rows"
    config_name = "design_sweep.json"
    small_sets = [f"sweep.values={json.dumps([float(v) for v in np.linspace(0.005, 0.2, 5)])}"]

    def __init__(self, scale: str):
        super().__init__(scale)
        self._h_star = None

    def run(self, seed: int, out: Path, warmup: bool = False):
        return cli(self.argv("design", out, warmup)), cli(self.argv("sweep", out, warmup))

    def h_star(self) -> float:
        if self._h_star is None:
            design = build_design(self.cfg)
            self._h_star = max_diameter(design, resolve_kappa(self.cfg, design), "zoh")
        return self._h_star

    def check(self, raw, seed: int, out: Path, warmup: bool = False) -> Outcome:
        o = Outcome()
        if raw != (0, 0):
            o.problems.append(f"parobs design / sweep exited with {raw}")
            return o
        o.digests, size = output_record(out)
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        o.work = {"sweep_rows": len(rows), "output_bytes": size}
        want = apply_overrides(self.cfg, self.sets(warmup))["sweep"]["values"]
        h = [float(r["value"]) for r in rows]
        omega = [float(r["omega"]) for r in rows]
        feasible = [r["feasible"] == "true" for r in rows]
        if h != [float(v) for v in want]:
            o.problems.append("sweep rows do not match the configured h values")
            return o
        if any(b <= a for a, b in zip(omega, omega[1:])):
            o.problems.append("Omega does not rise strictly with h")
        flips = sum(a != b for a, b in zip(feasible, feasible[1:]))
        if not feasible[0] or flips != 1:
            o.problems.append(f"feasibility flips {flips} times, expected once from true")
            return o
        cut = feasible.index(False)
        if not h[cut - 1] <= self.h_star() <= h[cut]:
            o.problems.append(
                f"max_diameter {self.h_star()!r} is outside [{h[cut - 1]!r}, {h[cut]!r}]"
            )
        return o


WORKLOADS = {w.name: w for w in (PredictorLong, NonlinearZohCli, DesignSweep)}

# -- layer probes ---------------------------------------------------------------
#
# Every per-layer metric is printed for every workload. Where a workload's
# own calls do not reach a traced function, the traced run makes one probe
# call of it on the nonlinear-zoh-cli plant and design (the example 3.1
# plant for analytic_eigensystem), so the metric is still a measured time.

PROBE_HORIZON = 4.0


def layer_probes(seed: int, out: Path) -> dict:
    """Span name -> a call that reaches it. The calls go through the parobs
    module attributes, which is where the tracer puts its wrappers."""
    from parobs import analysis as an, config as cf, observer_design as od
    from parobs import simulator as sim, sturm_liouville as sl

    cfg = apply_overrides(
        load_config(CONFIGS / "nonlinear_zoh.json"), [f"schedule.horizon={PROBE_HORIZON}"]
    )
    modes, nodes = cfg["basis"]["modes"], cfg["basis"]["nodes"]

    def analytic():
        nn = SLProblem(p=0.1, q=0.0, a0=0.0, b0=1.0, a1=0.0, b1=1.0)
        sl.analytic_eigensystem(nn, 201, 1001)

    def numeric_to_csv():
        basis = sl.numeric_eigensystem(build_problem(cfg), modes, nodes)
        sl.basis_to_csv(basis, out / "basis.csv")

    def design_and_diameter():
        design = cf.build_design(cfg)
        od.max_diameter(design, resolve_kappa(cfg, design), "zoh")

    def scenario():
        cf.build_scenario(cfg, design=cf.build_design(cfg), seed=seed)

    def simulation():
        design = cf.build_design(cfg)
        sc = cf.build_scenario(cfg, design=design, seed=seed)
        traj = sim.simulate(sc)
        h = sc.schedule.diameter
        report = od.small_gain_zoh(design, h, resolve_kappa(cfg, design))
        an.check_ios_bound(traj, report, sc.disturbances)
        an.lyapunov_oracle(traj, design, 20, nonlinearity=sc.nonlinearity, disturbances=sc.disturbances)
        an.fit_decay_rate(traj.times, traj.error_l2, default_fit_window(traj, h))
        return trajectory_work(traj)

    return {
        "sturm_liouville.analytic_eigensystem": analytic,
        "sturm_liouville.numeric_eigensystem": numeric_to_csv,
        "sturm_liouville.basis_to_csv": numeric_to_csv,
        "config.build_design": design_and_diameter,
        "observer_design.make_design": design_and_diameter,
        "observer_design.max_diameter": design_and_diameter,
        "config.build_scenario": scenario,
        "simulator.simulate": simulation,
        "analysis.check_ios_bound": simulation,
        "analysis.lyapunov_oracle": simulation,
        "analysis.fit_decay_rate": simulation,
    }

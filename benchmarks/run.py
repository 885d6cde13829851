"""parobs benchmark: one workload per invocation, one process, one thread.

    python3 benchmarks/run.py --workload predictor-long --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the median
wall time of back-to-back runs after one warm-up run, the set-up time in
fresh interpreters, the peak resident memory of this process and the
throughput. ``--trace 1`` runs the workload once untraced and once with a
span around every call into parobs's public functions, and reports the
per-layer metrics. Every run's outputs are checked; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import os

# one thread for every numerical library, here and in every child process;
# set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 2  # the determinism check compares at least two runs with one seed
SETUP_RUNS = {"full": 7, "smoke": 1}
STEP_CALLS = 30


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time to spend on measured runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="'smoke' runs tiny versions of the workloads (for the self-test)",
    )
    return ap.parse_args(argv)


def reset(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def attempt(wl, seed: int, out: Path, warmup: bool = False, around=contextlib.nullcontext):
    """Run the workload once (inside ``around``) and check it outside the
    timing. Returns (wall seconds, Outcome); a run that raises is a failed
    run, not a crashed benchmark."""
    from workloads import Outcome

    reset(out)
    start = time.perf_counter()
    try:
        with around():
            raw = wl.run(seed, out, warmup=warmup)
        wall = time.perf_counter() - start
        return wall, wl.check(raw, seed, out, warmup=warmup)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, Outcome(problems=[f"{type(exc).__name__}: {exc}"])


def check_determinism(outcomes) -> None:
    """Runs with one seed must write byte-identical files."""
    ok = [o for o in outcomes if not o.problems]
    for o in ok[1:]:
        if o.digests != ok[0].digests:
            o.problems.append("outputs differ from the first run with the same seed")


def setup_times(name: str, scale: str) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS[scale]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, scale],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in sorted(os.environ) if v.endswith("_THREADS")},
        "git_commit": commit,
        "seed": seed,
    }


def timed_run(wl, args, scratch: Path) -> tuple[dict, list, dict]:
    setup = setup_times(wl.name, args.scale)
    outcomes = [attempt(wl, args.seed, scratch / "out", warmup=True)[1]]
    walls, timed = [], []
    start = time.perf_counter()
    while len(walls) < MIN_RUNS or (
        time.perf_counter() - start + statistics.median(walls) <= args.seconds
    ):
        wall, outcome = attempt(wl, args.seed, scratch / "out")
        walls.append(wall)
        timed.append(outcome)
    check_determinism(timed)
    outcomes += timed
    good = [w for w, o in zip(walls, timed) if not o.problems] or walls
    wall_s = statistics.median(good)
    work = next((o.work for o in timed if not o.problems), timed[0].work)
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_units_per_s": work.get(wl.work_unit, 0) / wall_s,
    }
    q1, _, q3 = statistics.quantiles(good, n=4) if len(good) > 1 else (wall_s, wall_s, wall_s)
    detail = {
        "walls": walls,
        "wall_quartiles": [q1, q3],
        "setup_times": setup,
        "work": work,
        f"{wl.work_unit}_per_s": metrics["work_units_per_s"],
    }
    return metrics, outcomes, detail


def step_probes(wl) -> dict[str, float]:
    """Median microseconds of one call of each public step entry point at
    201 nodes, with the workload's plant, design and inputs."""
    import numpy as np
    from parobs.simulator import step_observer_predictor, step_observer_zoh, step_plant
    from workloads import STEP_DT, STEP_T

    x = wl.step_inputs()
    u, design = x["u"], x["design"]
    w, zero = 0.5 * u, np.zeros(design.m)
    calls = {
        "simulator.step_plant_us": lambda: step_plant(
            u, STEP_T, STEP_DT, design.problem, x["nonlinearity"], x["v"]),
        "simulator.step_observer_predictor_us": lambda: step_observer_predictor(
            w, zero, STEP_T, STEP_DT, design, x["nonlinearity"], x["v_tilde"]),
        "simulator.step_observer_zoh_us": lambda: step_observer_zoh(
            w, zero, STEP_T, STEP_DT, design, x["nonlinearity"], x["v_tilde"]),
    }
    out = {}
    for name, call in calls.items():
        times = []
        for _ in range(STEP_CALLS):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        out[name] = statistics.median(times) * 1e6
    return out


def traced_run(wl, args, scratch: Path) -> tuple[dict, list, dict]:
    from tracing import Tracer
    from workloads import layer_probes

    out = scratch / "out"
    outcomes = [attempt(wl, args.seed, out, warmup=True)[1]]
    wall_plain, plain = attempt(wl, args.seed, out)
    tracer = Tracer()

    @contextlib.contextmanager
    def traced():
        with tracer.patched(), tracer.run_as("workload"):
            yield

    wall_traced, outcome = attempt(wl, args.seed, out, around=traced)
    check_determinism([plain, outcome])
    outcomes += [plain, outcome]
    basis_csv = out / "basis.csv"
    basis_bytes = basis_csv.stat().st_size if basis_csv.exists() else None

    # one probe call for each traced function the workload did not reach
    probe_dir = reset(scratch / "probe")
    reached = {s.name for s in tracer.of_run("workload")}
    probe_work = {}
    with tracer.patched(), tracer.run_as("probe"):
        done = set()
        for name, call in layer_probes(args.seed, probe_dir).items():
            if name not in reached and call not in done:
                done.add(call)
                probe_work.update(call() or {})
    if basis_bytes is None:
        basis_bytes = (probe_dir / "basis.csv").stat().st_size

    def per_call(*names: str) -> float:
        return tracer.median_call(names, ("workload", "probe"))

    work = outcome.work if not outcome.problems else plain.work
    simulate_s = per_call("simulator.simulate")
    pairs = work.get("step_pairs") or probe_work["step_pairs"]
    top = tracer.top_level_time("workload")
    metrics = {
        "sturm_liouville.analytic_eigensystem_s": per_call("sturm_liouville.analytic_eigensystem"),
        "sturm_liouville.numeric_eigensystem_s": per_call("sturm_liouville.numeric_eigensystem"),
        "sturm_liouville.basis_to_csv_s": per_call("sturm_liouville.basis_to_csv"),
        "io.basis_csv_bytes": basis_bytes,
        "config.build_design_s": per_call("config.build_design"),
        "observer_design.make_design_s": per_call("observer_design.make_design"),
        "observer_design.small_gain_us": 1e6 * per_call(
            "observer_design.small_gain_zoh", "observer_design.small_gain_predictor"),
        "observer_design.max_diameter_us": 1e6 * per_call("observer_design.max_diameter"),
        "config.build_scenario_s": per_call("config.build_scenario"),
        "simulator.simulate_s": simulate_s,
        "simulator.us_per_step_pair": 1e6 * simulate_s / pairs,
        **step_probes(wl),
        "simulator.step_pairs": work.get("step_pairs", 0),
        "simulator.samples": work.get("samples", 0),
        "simulator.snapshots": work.get("snapshots", 0),
        "analysis.check_ios_bound_s": per_call("analysis.check_ios_bound"),
        "analysis.lyapunov_oracle_s": per_call("analysis.lyapunov_oracle"),
        "analysis.fit_decay_rate_s": per_call("analysis.fit_decay_rate"),
        "cli.unattributed_s": wall_traced - top,
        "cli.output_bytes": work.get("output_bytes", 0),
        "trace.overhead_s": wall_traced - wall_plain,
        "trace.span_coverage": top / wall_traced,
    }
    detail = {
        "wall_untraced_s": wall_plain,
        "wall_traced_s": wall_traced,
        "self_time_s": tracer.self_times("workload"),
        "probed": sorted({s.name for s in tracer.of_run("probe")} - reached),
        "work": work,
        "spans": tracer.to_json(),
    }
    return metrics, outcomes, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "parobs" / "__init__.py").is_file():
        print(f"error: no parobs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.scale)
    results = ROOT / ".bench_out"
    scratch = results / f"scratch-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        metrics, outcomes, detail = run(wl, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(1 for o in outcomes if o.problems)
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    record = {
        "workload": wl.name,
        "scale": args.scale,
        "trace": args.trace,
        "env": environment(args.seed),
        "metrics": metrics,
        "attempted": len(outcomes),
        "failed": failed,
        "problems": [o.problems for o in outcomes],
        "notes": [o.notes for o in outcomes],
        **detail,
    }
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {wl.name} (seed {args.seed}, trace {args.trace}, scale {args.scale})")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:.6g} {units[key]}")
    if not args.trace:
        q1, q3 = detail["wall_quartiles"]
        print(f"  wall_s quartiles {q1:.6g} .. {q3:.6g} s over {len(detail['walls'])} runs")
        print(f"  {wl.work_unit + '_per_s':40s} {metrics['work_units_per_s']:.6g} 1/s")
    else:
        print(f"  self time by span: {json.dumps(detail['self_time_s'], sort_keys=True)}")
        print(f"  probed: {detail['probed']}")
    print(f"  {'failed_ratio':40s} {failed / len(outcomes):.6g} ratio ({failed} of {len(outcomes)} runs failed)")
    for problems in record["problems"]:
        for p in problems:
            print(f"  FAILED: {p}")
    print(f"  work: {json.dumps(detail['work'], sort_keys=True)}")
    print(f"  notes: {json.dumps(record['notes'])}")
    print(f"  env: {json.dumps(record['env'], sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def declared_units(trace: int) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import parobs.analysis
import parobs.cli
from parobs import config as cf
from parobs import profiles as pf
from parobs.analysis import _report_to_dict, check_run, example31_design, example32_design
from parobs.cli import EXIT_CONFIG, main
from parobs.config import (
    apply_overrides,
    build_design,
    build_problem,
    build_scenario,
    validate_config,
)
from parobs.errors import ConfigError, InvalidSpec, TailTooShort
from parobs.grids import uniform_grid
from parobs.observer_design import (
    OutputChannel,
    channel_from_spec,
    make_design,
    max_diameter,
    small_gain_predictor,
    small_gain_zoh,
)
from parobs.simulator import simulate
from parobs.sturm_liouville import (
    SLProblem,
    analytic_eigensystem,
    basis_to_csv,
    numeric_eigensystem,
    problem_from_spec,
)


DESIGN_SWEEP = Path(__file__).parents[1] / "benchmarks" / "configs" / "design_sweep.json"


def example31_config(**extra):
    cfg = {
        "schema_version": 1,
        "problem": {
            "p": 1.0,
            "q": {"kind": "constant", "value": 0.0},
            "bc": {"a0": 0.0, "b0": 1.0, "a1": 0.0, "b1": 1.0},
        },
        "basis": {"modes": 48, "nodes": 1001, "method": "analytic"},
        "design": {
            "N": 1,
            "L": [[-math.pi**2]],
            "Q": 2.0,
            "sigma_fraction": 1.0,
            "channels": [
                {
                    "label": "avg",
                    "kernel": {"kind": "polynomial", "coeffs": [0.0, 1.0]},
                    "approximant": {"kind": "constant", "value": 0.5},
                }
            ],
        },
        "gain": {"h": 0.5, "omega": 0.0},
        "observer": {"variant": "predictor"},
        "schedule": {"kind": "uniform", "h": 0.5, "horizon": 4.0},
        "grid": {"nodes": 101},
        "time": {"snapshot_every": 0.25},
        "initial": {
            "u0": {"kind": "cosine_series", "mean": 1.0, "coeffs": [0.5]},
            "w0": {"kind": "constant", "value": 0.0},
        },
        "seed": 3,
    }
    cfg.update(extra)
    return cfg


def _other_plant_basis(text: str) -> str:
    """In place of a basis.csv of design_sweep.json, the one of its plant
    with q = 0.6 + x instead of 0.5 + x: same mode and node counts."""
    cfg = apply_overrides(json.loads(DESIGN_SWEEP.read_text()),
                          ['problem.q={"kind":"polynomial","coeffs":[0.6,1.0]}'])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "basis.csv")
        basis_to_csv(numeric_eigensystem(build_problem(cfg), 64, 2001), path)
        with open(path) as fh:
            return fh.read()


def _edit_json(text: str, edit) -> str:
    """A JSON document after ``edit`` changed it in place."""
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def written_design(tmp_path_factory):
    """The directory ``parobs design --out`` writes for design_sweep.json."""
    out = tmp_path_factory.mktemp("written") / "design"
    assert main(["design", "--config", str(DESIGN_SWEEP), "--out", str(out)]) == 0
    return out


def printed_omega(capsys, config) -> float:
    """The Omega that ``parobs check-gain`` prints for a config file."""
    capsys.readouterr()
    assert main(["check-gain", "--config", str(config)]) == 0
    return float(capsys.readouterr().out.splitlines()[0].split("=")[1])


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(example31_config()))
    return str(path)


class TestValidation:
    def test_accepts_valid(self):
        validate_config(example31_config(), need_schedule=True)

    def test_missing_field_reports_path(self):
        cfg = example31_config()
        del cfg["problem"]["bc"]["a0"]
        with pytest.raises(ConfigError, match="problem.bc.a0"):
            validate_config(cfg)

    def test_type_errors_report_path(self):
        cfg = example31_config()
        cfg["grid"]["nodes"] = "many"
        with pytest.raises(ConfigError, match="grid.nodes"):
            validate_config(cfg)
        # the type is named in words, not as a tuple of python classes
        with pytest.raises(ConfigError, match="^problem.p: expected a number, got str$"):
            validate_config(apply_overrides(example31_config(), ['problem.p="x"']))

    def test_schema_version_checked(self):
        cfg = example31_config()
        cfg["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            validate_config(cfg)

    def test_overrides_are_typechecked(self):
        cfg = apply_overrides(example31_config(), ["gain.omega=0.5"])
        validate_config(cfg)
        assert cfg["gain"]["omega"] == 0.5
        bad = apply_overrides(example31_config(), ["gain.omega=2.0"])
        with pytest.raises(ConfigError, match="gain.omega"):
            validate_config(bad)

    @pytest.mark.parametrize("path", ["schema_version", "design.N"])
    def test_bool_rejected_in_int_fields(self, tmp_path, capsys, path):
        cfg = apply_overrides(example31_config(), [f"{path}=true"])
        with pytest.raises(ConfigError, match=path):
            validate_config(cfg)
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(cfg))
        assert main(["check-gain", "--config", str(bad)]) == EXIT_CONFIG
        assert path in capsys.readouterr().err

    def test_unknown_profile_kind(self):
        cfg = example31_config()
        cfg["design"]["channels"][0]["kernel"] = {"kind": "mystery"}
        with pytest.raises(ConfigError, match="kernel.kind"):
            validate_config(cfg)

    def test_unknown_nested_profile_kind_exit_code(self, capsys):
        # a part of a sum used to reach the parser and end in a bare ValueError (exit 1)
        override = 'problem.q={"kind":"sum","parts":[{"kind":"mystery"}]}'
        assert main(["check-gain", "--config", str(DESIGN_SWEEP), "--set", override]) == EXIT_CONFIG
        assert "problem.q.parts[0].kind: unknown profile kind 'mystery'" in capsys.readouterr().err


README = Path(__file__).parents[1] / "README.md"


def _readme_config() -> dict:
    text = README.read_text()
    start = text.index("```json", text.index("A minimal configuration")) + len("```json")
    return json.loads(text[start:text.index("```", start)])


SHIPPED_CONFIGS = pytest.mark.parametrize("cfg", [
    *[json.loads(p.read_text()) for p in sorted(DESIGN_SWEEP.parent.glob("*.json"))],
    _readme_config(),
    json.loads(json.dumps(cf.example31_config(variant="zoh", noise=0.01, mismatch=0.01))),
    json.loads(json.dumps(cf.example32_config(q=2.0, h=0.1, horizon=3.0,
                                              noise={"kind": "random", "amplitude": 0.01}))),
], ids=["design_sweep", "nonlinear_zoh", "readme", "example31", "example32"])


def test_readme_config_reference_is_the_schema():
    text = README.read_text()
    lines = text[text.index("| path | type | default | bound |"):].splitlines()[2:]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines[:[line.startswith("|") for line in lines].index(False)]]

    def default(value):
        return "required" if value is cf._REQUIRED else "—" if value is None else f"`{json.dumps(value)}`"

    assert rows == [[f"`{path}`", type_name, default(value), message or "—"]
                    for path, type_name, value, _, message in cf._SCHEMA]


class TestKeysAndScalars:
    @SHIPPED_CONFIGS
    def test_shipped_configs_validate(self, cfg):
        validate_config(cfg, need_schedule="schedule" in cfg)

    @pytest.mark.parametrize("keys, path", [
        (["p"], "problem.p"), (["bc"], "problem.bc"), (["bc", "b1"], "problem.bc.b1"),
    ], ids=["p", "bc", "bc_entry"])
    def test_problem_spec_without_an_entry_is_invalid_spec(self, keys, path):
        # these used to raise a bare KeyError
        spec = json.loads(json.dumps(example31_config()["problem"]))
        node = spec
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        with pytest.raises(InvalidSpec, match=f"^{path}: missing field$"):
            problem_from_spec(spec)

    @SHIPPED_CONFIGS
    def test_problem_and_channel_specs_round_trip(self, cfg):
        problem = build_problem(cfg)
        again = problem_from_spec(json.loads(json.dumps(problem.spec())))
        for name in ("p", "a0", "b0", "a1", "b1"):
            assert getattr(again, name) == getattr(problem, name)
        assert again.q.spec() == problem.q.spec()
        assert problem.q.spec() == pf.as_profile(cfg["problem"]["q"]).spec()
        grid = uniform_grid(cfg["basis"]["nodes"])
        for i, entry in enumerate(cfg["design"]["channels"]):
            channel = channel_from_spec(entry, grid, i)
            again = channel_from_spec(json.loads(json.dumps(channel.spec())), grid, i)
            assert again.label == channel.label == entry.get("label", f"y{i + 1}")
            for name in ("kernel", "approximant"):
                spec = getattr(channel, name).spec()
                assert getattr(again, name).spec() == spec
                assert spec == pf.as_profile(entry[name], grid).spec()

    @pytest.mark.parametrize("override, path", [
        ("design.sigma_fracton=0.5", "design.sigma_fracton"),
        ("design.j_max=abc", "design.j_max"),
        ("problem.bc.c0=1", "problem.bc.c0"),
        ("schedule.step=0.1", "schedule.step"),
        ("analysis.lyapunov_tial=5", "analysis.lyapunov_tial"),
        ("sead=1", "sead"),
    ])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, override, path):
        path_json = tmp_path / "run.json"
        path_json.write_text(json.dumps(example31_config()))
        assert main(["check-gain", "--config", str(path_json), "--set", override]) == EXIT_CONFIG
        assert f"config error: {path}: unknown key" in capsys.readouterr().err

    def test_unknown_channel_key(self):
        cfg = example31_config()
        cfg["design"]["channels"][0]["kernal"] = cfg["design"]["channels"][0].pop("kernel")
        with pytest.raises(ConfigError, match=r"design\.channels\[0\]\.kernal: unknown key"):
            validate_config(cfg)

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match="time: expected an object"):
            validate_config(example31_config(time=0.25))

    def test_unknown_basis_method(self):
        cfg = apply_overrides(example31_config(), ["basis.method=anlytic"])
        with pytest.raises(ConfigError, match="basis.method"):
            validate_config(cfg)

    @pytest.mark.parametrize("override", [
        "basis.nodes=abc", "gain.kappa=abc", "design.lipschitz_R=abc", "design.lipschitz_sup=abc",
        "seed=abc", "schedule.seed=abc", "time.horizon=abc", "time.snapshot_every=abc",
        "analysis.lyapunov_tail=abc", "analysis.lyapunov=1", "output.fields=yes",
        "sweep.simulate=1", "design_ref=3", "seed=-1", "time.horizon=0", "time.snapshot_every=-1",
        'sweep.values=[0.1,"a"]', "design.lipschitz_R=-1", "design.lipschitz_sup=-Infinity",
        "basis.nodes=2", "analysis.lyapunov_tail=-1", "label=3", "label=[1,2]",
    ])
    def test_bad_scalar_fails_before_any_computation(self, tmp_path, capsys, monkeypatch, override):
        def no_simulation(scenario):
            raise AssertionError("simulated a config that should have been rejected")

        monkeypatch.setattr(parobs.cli, "simulate", no_simulation)
        cfg = example31_config(analysis={"lyapunov": True})
        cfg["sweep"] = {"parameter": "h", "values": [0.5], "simulate": False}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--set", override]) == EXIT_CONFIG
        assert f"config error: {override.split('=')[0]}:" in capsys.readouterr().err


class TestBuilders:
    def test_design_matches_library_constants(self):
        d = build_design(example31_config())
        assert d.A[0, 0] == pytest.approx(-math.pi**2 / 2.0, abs=1e-12)
        assert d.norm_gap[0] == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-13)

    def test_scenario_seeding_fills_random_specs(self):
        cfg = example31_config()
        cfg["schedule"] = {"kind": "random", "h_min": 0.2, "h_max": 0.5, "horizon": 4.0}
        cfg["disturbances"] = {"xi": {"kind": "random", "amplitude": 0.01}}
        s1 = build_scenario(cfg, seed=5)
        s2 = build_scenario(cfg, seed=5)
        np.testing.assert_array_equal(s1.schedule.times, s2.schedule.times)
        s3 = build_scenario(cfg, seed=6)
        assert not np.array_equal(s1.schedule.times, s3.schedule.times)


    def test_auto_basis_is_analytic_where_a_closed_form_exists(self):
        cfg = example31_config()
        del cfg["basis"]["method"]
        problem = build_problem(cfg)
        auto = cf.build_basis(cfg, problem)
        analytic = analytic_eigensystem(problem, 48, 1001)
        np.testing.assert_array_equal(auto.eigenvalues, analytic.eigenvalues)
        np.testing.assert_array_equal(auto.functions, analytic.functions)

    def test_auto_basis_falls_back_to_numeric(self):
        cfg = cf.load_config(DESIGN_SWEEP)
        del cfg["basis"]["method"]
        problem = build_problem(cfg)
        numeric = numeric_eigensystem(problem, 64, 2001)
        np.testing.assert_array_equal(cf.build_basis(cfg, problem).eigenvalues, numeric.eigenvalues)


class TestCli:
    def test_check_gain_prints_library_value(self, config_path, capsys):
        assert main(["check-gain", "--config", config_path]) == 0
        out = capsys.readouterr().out
        printed = float(out.splitlines()[0].split("=")[1])
        d = build_design(example31_config())
        assert abs(printed - small_gain_predictor(d, 0.5, 0.0).omega) <= 1e-15

    @pytest.mark.parametrize("argv", [["example31", "--omega", "1.2", "--horizon", "1"],
                                      ["example32", "--omega", "1.2"]], ids=["example31", "example32"])
    def test_example_omega_out_of_range_exit_code(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        assert "config error: gain.omega: omega must lie in [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["example31", "example32"])
    def test_example_zero_h_is_a_config_error(self, command, capsys):
        assert main([command, "--h", "0", "--horizon", "1", "--nodes", "51"]) == EXIT_CONFIG
        assert "config error: gain.h: need a positive sampling diameter" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["example31", "example32"])
    def test_example_negative_horizon_is_invalid(self, command, capsys):
        assert main([command, "--h", "0.5", "--horizon", "-1", "--nodes", "51"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: InvalidSpec: uniform schedules need h > 0 and horizon > 0" in err

    @pytest.mark.parametrize("parts", [[1.0, 1.0], [{"kind": "constant", "value": 1.0},
                                                    {"kind": "samples", "values": [1.0] * 51}]],
                             ids=["number_part", "sampled_part"])
    def test_sum_initial_field_equals_its_total(self, tmp_path, parts):
        # a number part used to be an InvalidSpec (exit 2), a sampled one a bare TypeError (exit 1)
        path = tmp_path / "p31.json"
        path.write_text(json.dumps(cf.example31_config(horizon=1.0, nodes=51)))
        override = "initial.u0=" + json.dumps({"kind": "sum", "parts": parts})
        for name, setting in (("sum", override), ("total", "initial.u0=2.0")):
            assert main(["simulate", "--config", str(path), "--set", setting,
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "sum" / "trajectory.csv").read_bytes() == \
            (tmp_path / "total" / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("horizon", [[], ["--horizon", "1"]], ids=["default_horizon", "given_horizon"])
    def test_example31_zero_p_is_invalid(self, horizon, capsys):
        # the default horizon 10 * 20 / (p pi^2) is not computed before p is checked
        assert main(["example31", "--p", "0", "--nodes", "51", *horizon]) == EXIT_CONFIG
        assert "error: InvalidSpec: diffusion constant must be positive, got 0.0" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        cfg = example31_config()
        del cfg["design"]
        path.write_text(json.dumps(cfg))
        assert main(["check-gain", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "overrides, path",
        [
            (["design.N=64"], "design.N"),  # basis.modes defaults to 64
            (["basis.modes=2", "design.N=2"], "design.N"),
            (["basis.modes=8", "design.N=3"], "design.L"),  # L holds one entry
            (["design.sigma_fraction=1.5"], "design.sigma_fraction"),
            (["design.sigma_fraction=0"], "design.sigma_fraction"),
            (['design.L=[["a"]]'], "design.L"),
            (['schedule={"kind":"explicit","times":[0,"a",1]}'], "schedule.times"),
            (["problem.bc.b0=0"], "problem.bc"),  # a0 is 0 too
            (["problem.p=0"], "problem.p"),
            (["basis.modes=1"], "basis.modes"),
            (["design.N=0"], "design.N"),
            (["design.L=[-9.8]"], "design.L"),
            (["design.channels=[]"], "design.channels"),
            (["design.Q=1.5"], "design.Q"),
            (["grid.nodes=4"], "grid.nodes"),
            (["schedule.kind=weekly"], "schedule.kind"),
            (['gain={"h":0.5}'], "gain"),
            (["observer.variant=hold"], "observer.variant"),
            (['sweep={"parameter":"p","values":[1.0]}'], "sweep.parameter"),
            (['sweep={"parameter":"h","values":[]}'], "sweep.values"),
        ],
        ids=["N_at_default_modes", "N_at_modes", "L_size", "sigma_fraction_above_1", "sigma_fraction_0",
             "L_entry", "schedule_time", "bc_pair", "p_zero", "modes_below_2", "N_zero", "L_not_rows",
             "no_channels", "Q_below_2", "nodes_below_8", "schedule_kind", "gain_without_kappa_or_omega",
             "observer_variant", "sweep_parameter", "sweep_values_empty"],
    )
    def test_design_override_is_a_config_error(self, tmp_path, capsys, overrides, path):
        # the first eight used to reach a builder and die with a bare ValueError
        cfg = example31_config()
        del cfg["basis"]["modes"]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        argv = ["check-gain", "--config", str(config)]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 2
        assert f"config error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ('disturbances.xi={"kind":"random","amplitude":0.01,"seed":"abc"}', "'random' spec: field 'seed'"),
            ('nonlinearity={"kind":"linear_nonlocal","a":1.0}', "'linear_nonlocal' spec: missing field 'b'"),
            ('initial.u0={"kind":"polynomial"}', "'polynomial' spec: missing field 'coeffs'"),
            ('disturbances.v={"kind":"sum","terms":[1.0]}', "expected a spec object, got 1.0"),
            ('disturbances.v={"kind":"separable","time":"abc","space":1.0}',
             "'separable' spec: field 'time': expected a spec object, got 'abc'"),
            ('nonlinearity="tanh"', "expected a spec object, got 'tanh'"),
            ('disturbances.v={"kind":"cosine_series","coeffs":"ab"}', "'cosine_series' spec: field 'coeffs'"),
            ('disturbances.v={"kind":"cosine_series","coeffs":[1.0],"time":"abc"}',
             "'cosine_series' spec: field 'time': expected a spec object, got 'abc'"),
            ('initial.u0={"kind":"closed_form","poly":"ab"}', "'closed_form' spec: field 'poly'"),
            ('initial.u0={"kind":"closed_form","trig":[[1.0,2.0]]}',
             "'closed_form' spec: field 'trig': each trig term is [amplitude, omega, phase]"),
            ('initial.u0={"kind":"sum","parts":[]}', "'sum' spec: field 'parts' is empty"),
            ("disturbances.xi=0.01", "xi must be a noise spec or a list of them, got 0.01"),
            ('disturbances.xi="abc"', "xi must be a noise spec or a list of them, got 'abc'"),
            ('disturbances.xi={"kind":"random","amplitude":0.01,"seed":-1}',
             "'random' spec: field 'seed': seed must be non-negative, got -1"),
            ('disturbances.xi={"kind":"random","amplitude":0.01,"seed":1.5}',
             "'random' spec: field 'seed': seed must be an integer, got 1.5"),
            ('schedule={"kind":"explicit","times":[0,0.5,0.500000000000004,1.0]}',
             "sampling times must increase by more than 1e-14"),
        ],
        ids=["noise_seed", "nonlocal_b", "profile_coeffs", "input_term", "input_time", "nonlinearity",
             "input_series_coeffs", "input_series_time", "closed_form_poly", "closed_form_trig",
             "empty_sum", "xi_scalar", "xi_string", "noise_negative_seed", "noise_fractional_seed",
             "near_duplicate_samples"],
    )
    def test_malformed_spec_field_exit_code(self, tmp_path, capsys, override, message):
        # each of these used to end in a bare ValueError or KeyError (exit 1)
        config = Path(__file__).parents[1] / "benchmarks" / "configs" / "nonlinear_zoh.json"
        argv = ["simulate", "--config", str(config), "--set", override, "--out", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        assert f"InvalidSpec: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, overrides, message",
        [
            ("check-gain", "design_sweep", ["basis.nodes=10"],
             "ResolutionTooCoarse: need nodes >= 8*J = 512, got 10"),
            ("simulate", "example32", ["initial.u0=1.0"],
             "InvalidSpec: initial field violates the Dirichlet condition at x = 1"),
            ("check-gain", "example31", ["problem.q=-20", "design.L=[[-100]]"],
             "InvalidM: lambda_(N+1) must be positive, got -10.13"),
        ],
        ids=["basis_nodes", "dirichlet_u0", "lambda_next"],
    )
    def test_typed_input_error_exit_code(self, tmp_path, capsys, command, config, overrides, message):
        # each of these used to end in a bare ValueError traceback (exit 1); the
        # config errors among those inputs are in test_design_override_is_a_config_error
        path = DESIGN_SWEEP.parent / f"{config}.json"
        presets = {"example31": lambda: cf.example31_config(h=0.3, horizon=3.0),
                   "example32": lambda: cf.example32_config(h=0.1, horizon=1.0)}
        if config in presets:
            path = tmp_path / f"{config}.json"
            path.write_text(json.dumps(presets[config]()))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("basis.csv", lambda text: text[:100_000], "basis.csv: the number of columns changed"),
            ("basis.csv", lambda text: text.replace("\n0,", "\nzero,", 1),  # the first row's x
             "basis.csv: could not convert string"),
            ("basis.csv", lambda text: "".join(line for line in text.splitlines(True)
                                               if not line.startswith("# end_derivatives_right")),
             "basis.csv: no '# end_derivatives_right:' line"),
            ("basis.csv", lambda text: text.replace(",", ",1,", 1),  # one more eigenvalue
             "basis.csv: 65 eigenvalues, 64 and 64 end derivatives, 64 mode columns"),
            ("basis.csv", lambda text: "".join(text.splitlines(True)[:1000]),
             "basis.csv: the x column is not the uniform grid of its 995 rows"),
            ("design.json", lambda text: _edit_json(text, lambda doc: doc.pop("N")),
             "design JSON: missing key 'N'"),
            ("design.json", lambda text: _edit_json(text, lambda doc: doc["basis"].update(modes=63)),
             "basis.csv: 64 modes on 2001 nodes, the design JSON says 63 on 2001"),
            ("basis.csv", _other_plant_basis,
             "basis.csv: lambda_1 = 1.7693653466558037, the design JSON records 1.6693653466571909"),
            ("design.json", lambda text: _edit_json(text, lambda doc: doc["problem"].update(p="abc")),
             "problem.p: expected a number, got 'abc'"),
            ("design.json", lambda text: _edit_json(text, lambda doc: doc.update(sigma="abc")),
             "design JSON: sigma: expected a number, got 'abc'"),
            ("design.json", lambda text: _edit_json(text, lambda doc: doc.update(N="2")),
             "design JSON: N: "),
            ("design.json", lambda text: _edit_json(text, lambda doc: doc.update(L=[["a"]])),
             "design JSON: L: expected a number, got 'a'"),
            ("design.json", lambda text: _edit_json(text, lambda doc: doc["problem"].update(p=-1)),
             "diffusion constant must be positive, got -1.0"),
            ("design.json", lambda text: _edit_json(
                text, lambda doc: doc["channels"][0].update(kernel={"kind": "mystery"})),
             "design JSON: channels.0: unknown profile kind 'mystery'"),
            ("design.json", lambda text: _edit_json(
                text, lambda doc: doc["problem"].update(q={"kind": "mystery"})),
             "problem.q: unknown profile kind 'mystery'"),
            ("design.json", lambda text: _edit_json(text, lambda doc: doc.update(L=[[1.0, 2.0]])),
             "design JSON: L is 1 x 2, need 2 x 2"),
            ("design.json", lambda text: _edit_json(text, lambda doc: doc["basis"].update(modes="64")),
             "design JSON: basis.modes: "),
            ("design.json", lambda text: _edit_json(text, lambda doc: doc.update(basis=5)),
             "design JSON: missing key 'basis.modes'"),
        ],
        ids=["basis_cut_bytes", "basis_not_numeric", "basis_vector_line", "basis_counts",
             "basis_first_1000_lines", "design_key", "design_modes", "basis_other_plant",
             "design_p_type", "design_sigma_type", "design_N_type", "design_L_entry",
             "design_p_negative", "design_kernel_kind", "design_q_kind", "design_L_shape",
             "design_modes_type", "design_basis_not_an_object"],
    )
    def test_corrupt_design_ref_exit_code(self, written_design, tmp_path, capsys, name, edit, message):
        # before basis.csv and design.json were checked, these ended in a bare
        # ValueError or KeyError (exit 1), or loaded a 995-node basis on [0, 0.497]
        design = tmp_path / "design"
        shutil.copytree(written_design, design)
        (design / name).write_text(edit((design / name).read_text()))
        cfg = json.loads(DESIGN_SWEEP.read_text())
        del cfg["design"]
        cfg["design_ref"] = str(design / "design.json")
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(cfg))
        assert main(["check-gain", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "InvalidSpec: " in err and message in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: (doc["basis"].update(modes=1, ref=None),
                          doc.update(eigenvalues=doc["eigenvalues"][:1])),
             "InvalidSpec: need 1 <= N < basis.size = 1, got N = 1"),
            (lambda doc: doc.update(channels=[], L=[[]]), "InvalidSpec: need at least one output channel"),
            (lambda doc: doc["basis"].update(modes=0, ref=None),
             "InvalidSpec: need at least one mode, got J = 0"),
            (lambda doc: doc["basis"].update(nodes=2, ref=None),
             "InvalidSpec: need at least 3 grid nodes, got 2"),
            (lambda doc: doc["basis"].update(nodes=8, ref=None),
             "ResolutionTooCoarse: closed-form mode 201 has wavenumber 400 pi / 2, at or past the "
             "Nyquist limit 7 pi of the grid of 8 nodes"),
        ],
        ids=["N_equals_modes", "no_channels", "no_modes", "two_nodes", "eight_nodes"],
    )
    def test_design_json_counts_are_typed_errors(self, tmp_path, capsys, edit, message):
        # the first four ended in a bare ValueError traceback (exit 1); 201
        # closed-form modes on 8 nodes alias, and loaded with an orthonormality
        # defect of 2.0 to end in a misleading QInfeasible
        cfg = cf.example31_config(h=0.3, horizon=3.0)
        preset = tmp_path / "preset.json"
        preset.write_text(json.dumps(cfg))
        design = tmp_path / "design"
        assert main(["design", "--config", str(preset), "--out", str(design)]) == 0
        (design / "design.json").write_text(
            _edit_json((design / "design.json").read_text(), edit))
        del cfg["design"]
        cfg["design_ref"] = str(design / "design.json")
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["check-gain", "--config", str(path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
    def test_non_finite_number_in_design_json_is_a_config_error(self, written_design, tmp_path,
                                                               capsys, literal):
        # read with a plain json.load, "Q": NaN used to exit 2 with
        # "kappa must lie in [0, nan)", naming neither the file nor the field
        design = tmp_path / "design"
        shutil.copytree(written_design, design)
        doc = json.loads((design / "design.json").read_text())
        doc["Q"] = "@"
        (design / "design.json").write_text(json.dumps(doc).replace('"@"', literal))
        cfg = json.loads(DESIGN_SWEEP.read_text())
        del cfg["design"]
        cfg["design_ref"] = str(design / "design.json")
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(cfg))
        assert main(["check-gain", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {design / 'design.json'}: {literal} is not a finite number" in err
        assert f"{literal} is not a finite number at Q\n" in err

    def test_initial_profile_of_wrong_type_is_a_config_error(self, tmp_path, capsys):
        config = Path(__file__).parents[1] / "benchmarks" / "configs" / "nonlinear_zoh.json"
        argv = ["simulate", "--config", str(config), "--set", 'initial.u0="abc"', "--out", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        assert "config error: initial.u0:" in capsys.readouterr().err

    def test_approximant_outside_domain_exit_code(self, tmp_path, capsys):
        # x has x'(0) = 1, against the Neumann end of the Robin problem
        cfg = json.loads(DESIGN_SWEEP.read_text())
        cfg["design"]["channels"][0]["approximant"] = {"kind": "polynomial", "coeffs": [0.0, 1.0]}
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(cfg))
        assert main(["check-gain", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "ApproximantOutsideDomain" in err and "Robin" in err

    def test_design_ref_reproduces_the_config_design(self, tmp_path, capsys):
        out = tmp_path / "design"
        assert main(["design", "--config", str(DESIGN_SWEEP), "--out", str(out)]) == 0
        cfg = json.loads(DESIGN_SWEEP.read_text())
        direct = build_design(cfg)
        del cfg["design"]
        cfg["design_ref"] = str(out / "design.json")
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(cfg))
        assert printed_omega(capsys, path) == pytest.approx(printed_omega(capsys, DESIGN_SWEEP),
                                                            rel=1e-12, abs=0.0)
        # the basis comes back from basis.csv, written with 17 significant digits
        loaded = build_design(cfg)
        assert np.max(np.abs(loaded.c_coeffs - direct.c_coeffs)) <= 8e-16

    def test_sampled_kernel_round_trips_through_design_json(self, tmp_path, capsys):
        # the kernel x as samples on the basis grid: design.json writes them back as a samples spec
        cfg = example31_config()
        grid = uniform_grid(cfg["basis"]["nodes"])
        cfg["design"]["channels"][0]["kernel"] = {"kind": "samples", "values": grid.tolist()}
        path, out = tmp_path / "sampled.json", tmp_path / "design"
        path.write_text(json.dumps(cfg))
        direct = printed_omega(capsys, path)
        assert main(["design", "--config", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "design.json").read_text())
        assert doc["channels"][0]["kernel"]["kind"] == "samples"
        del cfg["design"]
        cfg["design_ref"] = str(out / "design.json")
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps(cfg))
        assert printed_omega(capsys, ref) == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_design_json_with_a_sup_norm_bound_still_loads(self, written_design, tmp_path, capsys):
        # design.json used to carry "lipschitz_sup", which no certificate read
        design = tmp_path / "design"
        shutil.copytree(written_design, design)
        cfg = json.loads(DESIGN_SWEEP.read_text())
        del cfg["design"]
        cfg["design_ref"] = str(design / "design.json")
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(cfg))
        omega = printed_omega(capsys, path)
        doc = json.loads((design / "design.json").read_text())
        assert "lipschitz_sup" not in doc
        doc["lipschitz_sup"] = 0.25
        (design / "design.json").write_text(json.dumps(doc, indent=2))
        assert printed_omega(capsys, path) == omega

    def test_relocated_design_gives_the_same_omega(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["design", "--config", str(DESIGN_SWEEP), "--out", "ds/design"]) == 0
        doc = json.loads((tmp_path / "ds" / "design" / "design.json").read_text())
        assert doc["basis"]["ref"] == "basis.csv"
        cfg = json.loads(DESIGN_SWEEP.read_text())
        del cfg["design"]
        cfg["design_ref"] = "design/design.json"  # relative to the config file
        (tmp_path / "ds" / "ref.json").write_text(json.dumps(cfg))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert printed_omega(capsys, tmp_path / "ds" / "ref.json") == pytest.approx(
            printed_omega(capsys, DESIGN_SWEEP), rel=1e-12, abs=0.0)
        # --set design_ref stays relative to the working directory
        argv = ["check-gain", "--config", str(tmp_path / "ds" / "ref.json"),
                "--set", "design_ref=../ds/design/design.json"]
        assert main(argv) == 0

    def test_check_gain_writes_the_printed_report(self, config_path, tmp_path, capsys):
        out = tmp_path / "gain"
        assert main(["check-gain", "--config", config_path, "--out", str(out)]) == 0
        printed = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        cfg = cf.load_config(config_path)
        report = cf.gain_report(cfg, build_design(cfg))
        written = json.loads((out / "gain.json").read_text())
        assert written == json.loads(json.dumps(_report_to_dict(report)))
        assert written["omega"] == printed == report.omega

    def test_check_gain_without_gain_section_uses_the_schedule_diameter(self, tmp_path, capsys):
        # a random schedule declares diameter h_max; simulate certifies the run there
        cfg = json.loads((DESIGN_SWEEP.parent / "nonlinear_zoh.json").read_text())
        del cfg["gain"]
        cfg["schedule"]["horizon"] = 1.0
        path = tmp_path / "no_gain.json"
        path.write_text(json.dumps(cfg))
        omega = printed_omega(capsys, path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 0
        report = json.loads((tmp_path / "sim" / "report.json").read_text())
        assert report["gain"]["h"] == cfg["schedule"]["h_max"]
        assert report["gain"]["omega"] == omega

    @pytest.mark.parametrize("argv", [
        ["design", "--seed", "1"], ["design", "--strict"], ["check-gain", "--seed", "1"],
        ["sweep", "--strict"],
    ], ids=["design_seed", "design_strict", "check_gain_seed", "sweep_strict"])
    def test_flag_the_command_does_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", str(DESIGN_SWEEP), *argv[1:]])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("override, literal", [
        ("initial.u0=NaN", "NaN"), ("schedule.horizon=Infinity", "Infinity"),
        ("schedule.horizon=-Infinity", "-Infinity"), ("schedule.horizon=1e999", "1e999"),
        ("design.L=[[NaN]]", "NaN"), ("schedule.horizon=1" + "0" * 400, "1" + "0" * 400),
    ], ids=["nan", "infinity", "minus_infinity", "overflowing_float", "nan_in_a_list",
            "overflowing_int"])
    def test_non_finite_override_is_a_config_error(self, config_path, capsys, override, literal):
        # each used to run to a NaN report or die with an OverflowError or LinAlgError
        path = override.partition("=")[0]
        assert main(["simulate", "--config", config_path, "--set", override, "--strict"]) == EXIT_CONFIG
        assert f"config error: {path}: {literal} is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e999"])
    def test_non_finite_number_in_a_config_file_is_a_config_error(self, tmp_path, capsys, literal):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(example31_config()).replace('"p": 1.0', f'"p": {literal}', 1))
        assert main(["check-gain", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {path}: {literal} is not a finite number" in err
        assert f"{literal} is not a finite number at problem.p\n" in err

    @pytest.mark.parametrize("command, flag, value", [
        ("example31", "--p", "inf"), ("example32", "--q", "nan"), ("example31", "--h", "nan"),
        ("example31", "--omega", "inf"), ("example31", "--mismatch", "nan"),
        ("example31", "--horizon", "inf"), ("example32", "--dt", "-inf"),
        ("example31", "--noise-amplitude", "nan"), ("example32", "--noise-omega", "1e999"),
    ])
    def test_non_finite_float_flag_is_rejected(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, f"{flag}={value}", "--horizon", "1", "--nodes", "51"])
        assert exc.value.code == EXIT_CONFIG
        assert f"argument {flag}: invalid finite float value: '{value}'" in capsys.readouterr().err

    def test_sweep_section_must_be_an_object(self, capsys):
        assert main(["sweep", "--config", str(DESIGN_SWEEP), "--set", "sweep=5"]) == EXIT_CONFIG
        assert "config error: sweep: expected an object" in capsys.readouterr().err

    def test_missing_file_exit_code(self):
        assert main(["check-gain", "--config", "/nonexistent.json"]) == 2

    def test_strict_infeasible_exit_code(self, tmp_path):
        cfg = example31_config()
        cfg["observer"]["variant"] = "zoh"
        cfg["gain"] = {"h": 5.0, "omega": 0.0}
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(cfg))
        assert main(["check-gain", "--config", str(path), "--strict"]) == 3

    def test_simulate_writes_outputs_and_is_byte_identical(self, config_path, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", config_path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", config_path, "--out", str(out2)]) == 0
        for name in ("trajectory.csv", "report.json"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2
        header = (out1 / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,err_l2,err_sup,zeta_1,sample_flag"
        report = json.loads((out1 / "report.json").read_text())
        assert report["ios"]["violations"] == 0

    def test_simulate_writes_field_snapshots(self, tmp_path, monkeypatch):
        runs = []

        def recording(scenario):
            runs.append(simulate(scenario))
            return runs[-1]

        monkeypatch.setattr(parobs.cli, "simulate", recording)
        config = DESIGN_SWEEP.parent / "nonlinear_zoh.json"
        argv = ["simulate", "--config", str(config), "--set", "schedule.horizon=2",
                "--set", "output.fields=true", "--out", str(tmp_path)]
        assert main(argv) == 0
        traj, = runs
        files = sorted((tmp_path / "fields").glob("snapshot_*.csv"))
        assert len(files) == traj.times.size
        for k, path in enumerate(files):
            assert path.name == f"snapshot_{k:05d}.csv"
            assert path.read_text().startswith("x,u,w\n")
            table = np.loadtxt(path, delimiter=",", skiprows=1)
            np.testing.assert_array_equal(table, np.column_stack([traj.grid, traj.u[k], traj.w[k]]))

    def test_simulate_writes_the_check_run_record(self, tmp_path):
        config = DESIGN_SWEEP.parent / "nonlinear_zoh.json"
        overrides = ["schedule.horizon=2"]
        argv = ["simulate", "--config", str(config), "--set", *overrides, "--out", str(tmp_path)]
        assert main(argv) == 0
        cfg = apply_overrides(json.loads(config.read_text()), overrides)
        scenario = build_scenario(cfg)
        run = check_run(simulate(scenario), scenario, lyapunov=cfg["analysis"]["lyapunov"])
        doc = json.loads(json.dumps(run.to_dict()))
        assert doc == json.loads((tmp_path / "report.json").read_text())
        assert {"gain", "ios", "lyapunov", "fitted_rate"} <= set(doc)

    def test_simulate_rejects_certificate_without_lipschitz_bound(self, tmp_path, capsys):
        # a gain-saturated term with no design.lipschitz_R would be certified with R = 0
        cfg = example31_config()
        cfg["nonlinearity"] = {
            "kind": "gain_saturated",
            "weights": [{"kind": "cosine", "amplitude": 1.0, "omega": math.pi}],
            "amplitudes": [{"kind": "constant", "value": 0.2}],
        }
        path = tmp_path / "nonlinear.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "design.lipschitz_R" in capsys.readouterr().err

    def test_simulate_zero_scenario_error_column(self, tmp_path):
        cfg = example31_config()
        cfg["initial"]["u0"] = {"kind": "constant", "value": 0.0}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        errs = [float(r.split(",")[1]) for r in rows]
        assert all(e == 0.0 for e in errs)

    def test_design_artifacts(self, config_path, tmp_path):
        out = tmp_path / "design"
        assert main(["design", "--config", config_path, "--out", str(out)]) == 0
        doc = json.loads((out / "design.json").read_text())
        assert doc["N"] == 1
        assert doc["K"] <= 1e-12
        assert (out / "certificate.txt").exists()
        assert (out / "basis.csv").exists()

    def test_sweep_feasibility_flips_at_closed_form_root(self, tmp_path, capsys):
        cfg = example31_config()
        cfg["observer"]["variant"] = "zoh"
        h_star = (math.sqrt(6.0) - 1.0) / math.pi**2
        values = [0.8 * h_star, 0.99 * h_star, 1.01 * h_star, 1.2 * h_star]
        cfg["sweep"] = {"parameter": "h", "values": values, "simulate": False}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        feas = [r.split(",")[4] for r in rows[1:]]
        assert feas == ["true", "true", "false", "false"]

    def test_example31_subcommand(self, tmp_path, capsys):
        out = tmp_path / "e31"
        rc = main([
            "example31", "--p", "1.0", "--h", "0.3", "--omega", "0.0",
            "--variant", "zoh", "--horizon", "3.0", "--nodes", "101",
            "--out", str(out), "--strict",
        ])
        assert rc == 3
        text = capsys.readouterr().out
        assert "Omega" in text and "verdict" in text
        report = json.loads((out / "report.json").read_text())
        omega = (0.3 * math.pi**2 + 1) / math.sqrt(6.0)
        assert report["gain"]["omega"] == pytest.approx(omega, rel=1e-12)

    @pytest.mark.parametrize("argv, config", [
        (["example31", "--omega", "0.9", "--horizon", "1", "--nodes", "51"],
         lambda: cf.example31_config(omega=0.9, horizon=1.0, nodes=51)),
        # a given h needs no h*, so none is computed before the run
        (["example32", "--omega", "0.99", "--h", "0.1", "--horizon", "1", "--nodes", "51"],
         lambda: cf.example32_config(h=0.1, omega=0.99, horizon=1.0, nodes=51)),
    ], ids=["example31", "example32"])
    def test_example_uncertified_at_every_h_runs(self, tmp_path, argv, config):
        # Omega >= 1 already as h -> 0: the run is simulated like any other,
        # with h* = 0, and --strict judges it as simulate judges its preset
        preset = tmp_path / "preset.json"
        preset.write_text(json.dumps(config()))
        with pytest.warns(UserWarning, match="convergence is not certified"):
            assert main([*argv, "--out", str(tmp_path / "ex")]) == 0
            assert main([*argv, "--strict"]) == 3
            assert main(["simulate", "--config", str(preset), "--strict"]) == 3
        report = json.loads((tmp_path / "ex" / "report.json").read_text())
        assert report["h_star"] == 0.0
        assert report["gain"]["feasible"] is False and "ios" not in report

    def test_example32_subcommand(self, tmp_path, capsys):
        out = tmp_path / "e32"
        rc = main([
            "example32", "--p", "1.0", "--q", "0.0", "--omega", "0.2",
            "--nodes", "101", "--out", str(out), "--strict",
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["gain"]["feasible"] is True
        assert report["design"]["c_coeffs"][0][0] == pytest.approx(2 * math.sqrt(2) / math.pi,
                                                                   abs=1e-12)

    @pytest.mark.parametrize("h, warns", [(1.0, True), (0.1, False)],
                             ids=["infeasible", "feasible"])
    def test_uncertified_run_warns_on_stderr(self, tmp_path, h, warns):
        env = dict(os.environ, PYTHONPATH=str(Path(parobs.cli.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "parobs.cli", "example31", "--variant", "zoh", "--h", str(h),
             "--horizon", "2", "--nodes", "51"],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
        )
        assert ("convergence is not certified" in run.stderr) == warns
        assert warns or run.stderr == ""

    def test_set_override_round_trip(self, config_path, capsys):
        assert main(["check-gain", "--config", config_path, "--set", "gain.h=0.05",
                     "--set", "observer.variant=zoh"]) == 0
        out = capsys.readouterr().out
        printed = float(out.splitlines()[0].split("=")[1])
        d = build_design(example31_config())
        assert abs(printed - small_gain_zoh(d, 0.05, 0.0).omega) <= 1e-15


def _assert_designs_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "basis":
            for g in dataclasses.fields(x):
                gx, gy = getattr(x, g.name), getattr(y, g.name)
                assert np.array_equal(gx, gy) if isinstance(gx, np.ndarray) else gx == gy, g.name
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


class TestPresets:
    def test_example31_preset_matches_hand_built_design(self):
        cfg = json.loads(json.dumps(cf.example31_config(p=0.1)))
        problem = SLProblem(p=0.1, q=0.0, a0=0.0, b0=1.0, a1=0.0, b1=1.0)
        channel = OutputChannel(kernel=pf.polynomial([0.0, 1.0]), approximant=pf.constant(0.5),
                                label="avg")
        ref = make_design(problem, analytic_eigensystem(problem, 201, 1001), [channel],
                          np.array([[-0.1 * math.pi**2]]), N=1, Q=2.0, sigma_fraction=1.0)
        _assert_designs_equal(cf.build_design(cfg), ref)
        _assert_designs_equal(cf.build_design(cfg), example31_design(p=0.1))

    def test_example32_preset_matches_hand_built_design(self):
        cfg = json.loads(json.dumps(cf.example32_config(p=1.0, q=2.0, h=0.1, horizon=1.0)))
        problem = SLProblem(p=1.0, q=2.0, a0=0.0, b0=1.0, a1=1.0, b1=0.0)
        channel = OutputChannel(kernel=pf.constant(1.0),
                                approximant=pf.cosine(4.0 / math.pi, math.pi / 2.0),
                                label="boundary")
        L = math.pi * (8.0 - 7.0 * math.pi**2) / (16.0 * math.sqrt(2.0))
        ref = make_design(problem, analytic_eigensystem(problem, 201, 1001), [channel],
                          np.array([[L]]), N=1, Q=2.0, sigma_fraction=1.0)
        _assert_designs_equal(cf.build_design(cfg), ref)
        _assert_designs_equal(cf.build_design(cfg), example32_design(p=1.0, q=2.0))

    def test_example32_preset_resolves_default_sampling(self):
        design = example32_design()
        h, horizon = cf.example32_sampling(design, 0.3)
        cfg = cf.example32_config(omega=0.3)
        assert cfg["schedule"] == {"kind": "uniform", "h": h, "horizon": horizon}
        assert h == 0.5 * max_diameter(design, 0.3 * design.mu, "predictor")

    @pytest.mark.parametrize(
        "kwargs, argv",
        [
            (dict(h=0.3, variant="zoh", horizon=3.0, nodes=101),
             ["--h", "0.3", "--variant", "zoh", "--horizon", "3", "--nodes", "101"]),
            (dict(p=0.5, h=0.5, omega=0.1, noise=0.01, mismatch=0.01, horizon=2.0, nodes=101),
             ["--p", "0.5", "--h", "0.5", "--omega", "0.1", "--noise-amplitude", "0.01",
              "--mismatch", "0.01", "--horizon", "2", "--nodes", "101"]),
        ],
        ids=["zoh", "noise-mismatch"],
    )
    def test_dumped_preset_simulates_like_example31(self, tmp_path, kwargs, argv):
        path = tmp_path / "preset.json"
        path.write_text(json.dumps(cf.example31_config(**kwargs)))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 0
        assert main(["example31", *argv, "--out", str(tmp_path / "ex")]) == 0
        sim = (tmp_path / "sim" / "trajectory.csv").read_bytes()
        assert sim == (tmp_path / "ex" / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize(
        "preset, kwargs, argv",
        [
            (cf.example31_config, dict(omega=0.1, horizon=2.0), ["example31", "--omega", "0.1",
                                                                 "--horizon", "2"]),
            (cf.example31_config,
             dict(h=0.3, variant="zoh", horizon=3.0, mismatch=0.01,
                  noise={"kind": "sinusoid", "amplitude": 0.01, "omega": 2.0, "seed": 0}),
             ["example31", "--h", "0.3", "--variant", "zoh", "--horizon", "3",
              "--noise-amplitude", "0.01", "--mismatch", "0.01"]),
            (cf.example32_config,
             dict(omega=0.3, nodes=101,
                  noise={"kind": "constant", "amplitude": 0.01, "omega": 2.0, "seed": 0}),
             ["example32", "--omega", "0.3", "--noise-kind", "constant",
              "--noise-amplitude", "0.01", "--nodes", "101"]),
        ],
        ids=["example31", "example31-zoh-noise-mismatch", "example32-constant-noise"],
    )
    def test_example_report_is_the_simulate_report(self, tmp_path, preset, kwargs, argv):
        path = tmp_path / "preset.json"
        path.write_text(json.dumps(preset(**kwargs)))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 0
        assert main([*argv, "--out", str(tmp_path / "ex")]) == 0
        example = (tmp_path / "ex" / "report.json").read_bytes()
        sim = (tmp_path / "sim" / "report.json").read_bytes()
        if preset is cf.example31_config:
            assert example == sim
        else:
            example = json.loads(example)
            assert set(example.pop("reconstruction")) >= {"theta", "noise_bound_ok"}
            assert example == json.loads(sim)

    @pytest.mark.parametrize("command, preset", [("example31", cf.example31_config),
                                                 ("example32", cf.example32_config)])
    def test_example_defaults_are_the_preset_defaults(self, tmp_path, command, preset):
        # a command given only --horizon and --nodes runs its preset's defaults
        path = tmp_path / "preset.json"
        path.write_text(json.dumps(preset(horizon=1.0, nodes=51)))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 0
        assert main([command, "--horizon", "1", "--nodes", "51", "--out", str(tmp_path / "ex")]) == 0
        example = json.loads((tmp_path / "ex" / "report.json").read_text())
        assert ("reconstruction" in example) == (command == "example32")
        example.pop("reconstruction", None)
        assert example == json.loads((tmp_path / "sim" / "report.json").read_text())


class TestSimulateAndSweep:
    @pytest.mark.parametrize("kind, field", [("random", "h_min"), ("random", "h_max"),
                                             ("random", "horizon"), ("explicit", "times")])
    def test_simulate_schedule_missing_field_is_config_error(self, tmp_path, capsys, kind, field):
        schedule = {"random": {"kind": "random", "h_min": 0.2, "h_max": 0.5, "horizon": 4.0},
                    "explicit": {"kind": "explicit", "times": [0.0, 2.0, 4.0]}}[kind]
        del schedule[field]
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(example31_config(schedule=schedule)))
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert f"schedule.{field}" in capsys.readouterr().err

    def test_simulate_zero_gain_h_is_config_error(self, tmp_path, capsys):
        cfg = example31_config()
        cfg["gain"]["h"] = 0.0
        path = tmp_path / "zero_h.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert "gain.h" in capsys.readouterr().err

    def test_q_sweep_row_matches_check_gain(self, tmp_path, capsys):
        cfg = example31_config()
        cfg["sweep"] = {"parameter": "Q", "values": [2.0, 3.5, 8.0]}
        path = tmp_path / "sweep_q.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        for row in rows:
            q, omega = row.split(",")[2], row.split(",")[3]
            assert main(["check-gain", "--config", str(path), "--set", f"design.Q={q}"]) == 0
            assert capsys.readouterr().out.splitlines()[0] == f"Omega = {omega}"

    def test_infeasible_q_row_is_an_error_row(self, tmp_path, capsys):
        cfg = example31_config()
        cfg["sweep"] = {"parameter": "Q", "values": [2.0]}
        path = tmp_path / "sweep_q.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path)]) == 0
        _, alone = capsys.readouterr().out.splitlines()
        assert main(["sweep", "--config", str(path), "--set", "sweep.values=[2.0,1.0]"]) == 0
        header, first, second = capsys.readouterr().out.splitlines()
        assert header == "index,parameter,value,omega,feasible,error"
        assert first == alone + ","
        assert second == "1,Q,1,nan,false,QInfeasible"

    @pytest.mark.parametrize("param, values, runs", [("kappa", [0.0, 0.5, 1.0], 1),
                                                      ("h", [0.25, 0.5], 2)])
    def test_sweep_simulates_once_per_distinct_run(self, tmp_path, monkeypatch, capsys,
                                                   param, values, runs):
        calls = []
        original = parobs.cli.simulate

        def counting(scenario):
            calls.append(scenario)
            return original(scenario)

        monkeypatch.setattr(parobs.cli, "simulate", counting)
        cfg = example31_config()
        cfg["schedule"]["horizon"] = 1.0
        cfg["sweep"] = {"parameter": param, "values": values, "simulate": True}
        path = tmp_path / "sweep_sim.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 1 + len(values) and "ios_violations" in rows[0]
        assert len(calls) == runs

    @pytest.mark.parametrize("param, edited", [("h", ("gain", "h")), ("kappa", ("gain", "kappa")),
                                                ("noise_amplitude", ("disturbances", "xi", 1, "amplitude"))])
    def test_row_config_leaves_its_input_unchanged(self, param, edited):
        cfg = example31_config(disturbances={"xi": [{"kind": "sinusoid", "amplitude": 0.01, "omega": 2.0},
                                                    {"kind": "constant", "amplitude": 0.02}]})
        before = json.loads(json.dumps(cfg))
        row = parobs.cli._row_config(cfg, param, 0.125)
        assert cfg == before
        for key in edited:
            row = row[key]
        assert row == 0.125


NONLINEAR_ZOH = DESIGN_SWEEP.parent / "nonlinear_zoh.json"


class TestRunCertificate:
    """A simulated run is certified at its schedule's diameter and kappa."""

    def test_report_is_at_the_schedule_diameter(self, tmp_path):
        # gain.h = 0.1 used to certify this run (Omega 0.821, 0 IOS violations)
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(NONLINEAR_ZOH), "--set", "schedule.horizon=6",
                "--set", "schedule.h_max=0.6", "--strict", "--out", str(out)]
        with pytest.warns(UserWarning, match="at diameter 0.6 and kappa"):
            assert main(argv) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["gain"]["h"] == 0.6 and report["gain"]["feasible"] is False
        assert "ios" not in report and "lyapunov" not in report

    @pytest.mark.parametrize("entry", ["simulate", "example31"])
    def test_short_lyapunov_tail_fails_before_simulating(self, tmp_path, capsys, monkeypatch, entry):
        # lyapunov_tail = 0 leaves the oracle example 3.1's one mode, which
        # already misses 11.1% of the initial error's energy
        def no_simulation(scenario):
            raise AssertionError("simulated a run whose oracle cannot pass")

        monkeypatch.setattr(parobs.cli, "simulate", no_simulation)
        monkeypatch.setattr(parobs.analysis, "simulate", no_simulation)
        cfg = cf.example31_config(h=0.3, horizon=3.0)
        if entry == "simulate":
            path = tmp_path / "e31.json"
            path.write_text(json.dumps(cfg))
            argv = ["simulate", "--config", str(path), "--set", "analysis.lyapunov=true",
                    "--set", "analysis.lyapunov_tail=0"]
            assert main(argv) == EXIT_CONFIG
            assert "TailTooShort: modal truncation misses 11.1%" in capsys.readouterr().err
        else:
            with pytest.raises(TailTooShort, match="11.1%"):
                parobs.analysis.run_example_31(h=0.3, horizon=3.0, lyapunov=True, lyapunov_tail=0)
        # without the oracle the same run goes on to simulate
        with pytest.raises(AssertionError, match="simulated a run"):
            parobs.analysis.run_example_31(h=0.3, horizon=3.0, lyapunov=False, lyapunov_tail=0)

    def test_numeric_design_and_run_load_no_scipy(self, tmp_path):
        # numeric bases come from numpy alone: building the design of
        # design_sweep.json and a short run of nonlinear_zoh.json import no
        # scipy module
        code = (
            "import json, sys\n"
            "import parobs\n"
            "from parobs.cli import main\n"
            "from parobs.config import build_design\n"
            f"build_design(json.loads(open({str(DESIGN_SWEEP)!r}).read()))\n"
            f"argv = ['simulate', '--config', {str(NONLINEAR_ZOH)!r}, '--set', 'schedule.horizon=2',"
            f" '--out', {str(tmp_path / 'zoh')!r}]\n"
            "assert main(argv) == 0\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(parobs.cli.__file__).parents[1])  # the directory holding the parobs package
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_kappa_out_of_range_exit_code(self, capsys):
        argv = ["simulate", "--config", str(NONLINEAR_ZOH), "--set", "schedule.horizon=2",
                "--set", "gain.kappa=100", "--strict"]
        assert main(argv) == EXIT_CONFIG
        assert "KappaOutOfRange" in capsys.readouterr().err

    def test_simulated_h_sweep_needs_a_uniform_schedule(self, monkeypatch, capsys):
        monkeypatch.setattr(parobs.cli, "build_design", lambda cfg: pytest.fail("computed"))
        sweep = '{"parameter":"h","values":[0.02,0.1,0.3],"simulate":true}'
        argv = ["sweep", "--config", str(NONLINEAR_ZOH), "--set", "schedule.horizon=2",
                "--set", f"sweep={sweep}"]
        assert main(argv) == EXIT_CONFIG
        assert "config error: sweep.parameter:" in capsys.readouterr().err

    def test_simulated_row_without_scenario(self, tmp_path, capsys):
        cfg = example31_config()
        cfg["schedule"]["horizon"] = 1.0
        mu = build_design(cfg).mu
        cfg["sweep"] = {"parameter": "kappa", "values": [0.0, mu], "simulate": True}
        path = tmp_path / "sweep_kappa.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path)]) == 0
        header, first, second = capsys.readouterr().out.splitlines()
        row = dict(zip(header.split(","), second.split(",")))
        assert row["error"] == "KappaOutOfRange" and row["feasible"] == "false"
        assert row["final_error_l2"] == row["fitted_rate"] == row["ios_violations"] == ""
        assert dict(zip(header.split(","), first.split(",")))["ios_violations"] == "0"

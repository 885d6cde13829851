import json
import math
import os

import numpy as np
import pytest

from parobs.cli import EXIT_CONFIG, main
from parobs.config import (
    apply_overrides,
    build_design,
    build_scenario,
    validate_config,
)
from parobs.errors import ConfigError
from parobs.observer_design import small_gain_predictor, small_gain_zoh


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

    def test_unknown_profile_kind(self):
        cfg = example31_config()
        cfg["design"]["channels"][0]["kernel"] = {"kind": "mystery"}
        with pytest.raises(ConfigError, match="kernel.kind"):
            validate_config(cfg)


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


class TestCli:
    def test_check_gain_prints_library_value(self, config_path, capsys):
        assert main(["check-gain", "--config", config_path]) == 0
        out = capsys.readouterr().out
        printed = float(out.splitlines()[0].split("=")[1])
        d = build_design(example31_config())
        assert abs(printed - small_gain_predictor(d, 0.5, 0.0).omega) <= 1e-15

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        cfg = example31_config()
        del cfg["design"]
        path.write_text(json.dumps(cfg))
        assert main(["check-gain", "--config", str(path)]) == 2

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
        assert rc == 0
        text = capsys.readouterr().out
        assert "Omega" in text and "verdict" in text
        report = json.loads((out / "report.json").read_text())
        assert report["omega"] == pytest.approx((0.3 * math.pi**2 + 1) / math.sqrt(6.0), rel=1e-12)

    def test_example32_subcommand(self, tmp_path, capsys):
        out = tmp_path / "e32"
        rc = main([
            "example32", "--p", "1.0", "--q", "0.0", "--omega", "0.2",
            "--nodes", "101", "--out", str(out), "--strict",
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["feasible"] is True
        assert report["c11"] == pytest.approx(2 * math.sqrt(2) / math.pi, abs=1e-12)

    def test_set_override_round_trip(self, config_path, capsys):
        assert main(["check-gain", "--config", config_path, "--set", "gain.h=0.05",
                     "--set", "observer.variant=zoh"]) == 0
        out = capsys.readouterr().out
        printed = float(out.splitlines()[0].split("=")[1])
        d = build_design(example31_config())
        assert abs(printed - small_gain_zoh(d, 0.05, 0.0).omega) <= 1e-15

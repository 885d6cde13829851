"""Byte-for-byte checks of ``grids.write_csv`` against the per-cell writer it
replaced, on a table of edge values, on the run files of the CLI and on
basis files."""

import json
from pathlib import Path

import numpy as np
import pytest

import parobs.cli
from parobs import config as cf
from parobs.cli import main
from parobs.grids import _CSV_BLOCK_ROWS, write_csv
from parobs.sturm_liouville import analytic_eigensystem, basis_to_csv

CONFIGS = Path(__file__).parents[1] / "benchmarks" / "configs"


def per_cell_csv(header, columns) -> str:
    """The reference: every cell through format(float(v), ".17g"), one
    line per row, as the writers did before ``write_csv``; a 2-D column
    block contributes one column per array column."""
    cells = [c for col in columns for c in np.asarray(col).reshape(len(col), -1).T]
    fmt = lambda v: format(float(v), ".17g")  # noqa: E731
    rows = [",".join(fmt(v) for v in row) for row in zip(*cells)]
    return "\n".join(list(header) + rows) + "\n"


def per_cell_basis_csv(basis) -> str:
    """The reference for ``basis_to_csv``."""
    fmt = lambda v: format(float(v), ".17g")  # noqa: E731
    header = [
        "# parobs-basis-version: 1",
        "# eigenvalues: " + ",".join(fmt(v) for v in basis.eigenvalues),
        "# end_derivatives_left: " + ",".join(fmt(v) for v in basis.end_derivs[:, 0]),
        "# end_derivatives_right: " + ",".join(fmt(v) for v in basis.end_derivs[:, 1]),
        "x," + ",".join(f"phi_{k + 1}" for k in range(basis.size)),
    ]
    return per_cell_csv(header, [basis.grid, basis.functions.T])


def test_edge_values_and_bool_column(tmp_path):
    values = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 0.1, -1.0 / 3.0])
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, size=values.size, dtype=np.uint64).view(np.float64)
    flags = np.array([True, False] * 4)
    columns = [values, bits, np.column_stack([values[::-1], bits[::-1]]), flags]
    path = tmp_path / "edge.csv"
    write_csv(path, ["a,b,c,d,flag", "# second header line"], columns)
    text = path.read_bytes().decode()
    assert text == per_cell_csv(["a,b,c,d,flag", "# second header line"], columns)
    table = [line.split(",") for line in text.splitlines()[2:]]
    assert [row[0] for row in table] == [
        "-0", "inf", "-inf", "nan", "4.9406564584124654e-324", "1.0000000000000001e+300",
        "0.10000000000000001", "-0.33333333333333331"]
    assert [row[-1] for row in table] == ["1", "0"] * 4


def test_rows_across_block_boundaries(tmp_path):
    rows = 2 * _CSV_BLOCK_ROWS + 3
    columns = [np.arange(rows) / 7.0, np.random.default_rng(1).standard_normal(rows)]
    path = tmp_path / "long.csv"
    write_csv(path, ["x,y"], columns)
    assert path.read_bytes() == per_cell_csv(["x,y"], columns).encode()


def test_empty_table_writes_only_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["t,x"], [np.zeros(0), np.zeros(0)])
    assert path.read_bytes() == b"t,x\n"


@pytest.mark.parametrize(
    "argv, zeta_columns",
    [
        (["example31", "--omega", "0.1", "--horizon", "5", "--lyapunov"], 1),
        (["simulate", "--config", str(CONFIGS / "nonlinear_zoh.json"), "--seed", "0",
          "--set", "schedule.horizon=4"], 2),
    ],
    ids=["example31_lyapunov", "nonlinear_zoh"],
)
def test_run_files_match_the_per_cell_writer(tmp_path, monkeypatch, argv, zeta_columns):
    runs = []
    write_run = parobs.cli._write_run

    def recording(outdir, run):
        runs.append((run.trajectory, run.ios, run.lyapunov))
        write_run(outdir, run)

    monkeypatch.setattr(parobs.cli, "_write_run", recording)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    (traj, ios, lyap), = runs
    assert traj.zeta.shape[1] == zeta_columns

    header = ",".join(["t", "err_l2", "err_sup"]
                      + [f"zeta_{i + 1}" for i in range(zeta_columns)] + ["sample_flag"])
    expected = per_cell_csv(
        [header], [traj.times, traj.error_l2, traj.error_sup, traj.zeta, traj.sample_flag])
    assert (tmp_path / "trajectory.csv").read_bytes() == expected.encode()

    header = "t,err_l2,ios_rhs,ios_margin,lyapunov_V,lyapunov_rhs"
    columns = [traj.times, traj.error_l2, ios.rhs, ios.margins, lyap.V, lyap.rhs]
    assert (tmp_path / "margins.csv").read_bytes() == per_cell_csv([header], columns).encode()


@pytest.fixture(scope="module")
def numeric_basis():
    """The 64 x 2001 finite-difference basis of design_sweep.json."""
    cfg = json.loads((CONFIGS / "design_sweep.json").read_text())
    basis = cf.build_basis(cfg, cf.build_problem(cfg))
    assert basis.functions.shape == (64, 2001)
    return basis


def test_basis_files_match_the_per_cell_writer(tmp_path, nn_problem, numeric_basis):
    assert numeric_basis.grid.size > _CSV_BLOCK_ROWS
    for name, basis in [("analytic", analytic_eigensystem(nn_problem, 5, 101)),
                        ("numeric", numeric_basis)]:
        path = tmp_path / f"{name}.csv"
        basis_to_csv(basis, path)
        assert path.read_bytes() == per_cell_basis_csv(basis).encode(), name

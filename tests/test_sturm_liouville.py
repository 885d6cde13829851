import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parobs import profiles as pf
from parobs import sturm_liouville as sl
from parobs.cli import EXIT_CONFIG, main
from parobs.config import build_problem
from parobs.errors import (
    GridMismatch,
    InvalidM,
    NonPositiveCoefficient,
    ResolutionTooCoarse,
    UnsupportedAnalyticCase,
    UnverifiedEigenpair,
)
from parobs.grids import end_derivatives
from parobs.sturm_liouville import (
    DiscreteSLOperator,
    GeneralSLProblem,
    SLProblem,
    analytic_eigensystem,
    basis_from_csv,
    basis_to_csv,
    check_h1,
    liouville_transform,
    numeric_eigensystem,
    project,
)

ND = SLProblem(p=1.0, q=0.0, a0=0.0, b0=1.0, a1=1.0, b1=0.0)
DESIGN_SWEEP = Path(__file__).parents[1] / "benchmarks" / "configs" / "design_sweep.json"


class TestProblemInvariants:
    def test_rejects_nonpositive_diffusion(self):
        with pytest.raises(ValueError):
            SLProblem(p=0.0, q=0.0, a0=0, b0=1, a1=0, b1=1)

    def test_rejects_degenerate_bc(self):
        with pytest.raises(ValueError):
            SLProblem(p=1.0, q=0.0, a0=0, b0=0, a1=0, b1=1)


class TestAnalyticEigensystem:
    def test_neumann_neumann_first_two_modes(self, nn_problem):
        basis = analytic_eigensystem(nn_problem, 2, 501)
        np.testing.assert_allclose(basis.eigenvalues, [0.0, math.pi**2], atol=1e-14)
        x = basis.grid
        np.testing.assert_allclose(basis.functions[0], np.ones_like(x), atol=1e-14)
        np.testing.assert_allclose(
            basis.functions[1], math.sqrt(2.0) * np.cos(math.pi * x), atol=1e-14
        )

    def test_neumann_dirichlet_first_mode(self):
        basis = analytic_eigensystem(ND, 1, 501)
        assert basis.eigenvalues[0] == pytest.approx(math.pi**2 / 4.0, rel=1e-15)
        np.testing.assert_allclose(
            basis.functions[0],
            math.sqrt(2.0) * np.cos(math.pi * basis.grid / 2.0),
            atol=1e-14,
        )

    def test_constant_reaction_shifts_spectrum(self):
        shifted = SLProblem(p=1.0, q=5.0, a0=0.0, b0=1.0, a1=1.0, b1=0.0)
        basis = analytic_eigensystem(shifted, 1, 101)
        assert basis.eigenvalues[0] == pytest.approx(math.pi**2 / 4.0 + 5.0, rel=1e-15)

    def test_dirichlet_cases(self):
        dd = SLProblem(p=2.0, q=1.0, a0=1, b0=0, a1=1, b1=0)
        b = analytic_eigensystem(dd, 3, 301)
        np.testing.assert_allclose(
            b.eigenvalues, [2 * math.pi**2 + 1, 8 * math.pi**2 + 1, 18 * math.pi**2 + 1]
        )
        dn = SLProblem(p=1.0, q=0.0, a0=1, b0=0, a1=0, b1=1)
        b2 = analytic_eigensystem(dn, 1, 301)
        assert b2.eigenvalues[0] == pytest.approx(math.pi**2 / 4.0)
        assert b2.functions[0][0] == pytest.approx(0.0, abs=1e-15)
        assert b2.end_derivs[0, 0] > 0  # deterministic sign convention

    def test_rejects_robin_and_varying_reaction(self):
        robin = SLProblem(p=1.0, q=0.0, a0=-1.0, b0=1.0, a1=0, b1=1)
        with pytest.raises(UnsupportedAnalyticCase):
            analytic_eigensystem(robin, 2, 101)
        varying = SLProblem(p=1.0, q=pf.cosine_series(0.0, [1.0]), a0=0, b0=1, a1=0, b1=1)
        with pytest.raises(UnsupportedAnalyticCase):
            analytic_eigensystem(varying, 2, 101)

    # each pair of ends: (s, the wave), the wavenumbers (2k + s) pi / 2
    WAVES = {"NN": ((0, 1, 0, 1), 0, np.cos), "ND": ((0, 1, 1, 0), 1, np.cos),
             "DN": ((1, 0, 0, 1), 1, np.sin), "DD": ((1, 0, 1, 0), 2, np.sin)}

    @pytest.mark.parametrize("nodes", [11, 101, 1001, 2001])
    @pytest.mark.parametrize("ends", list(WAVES))
    def test_table_matches_numpy_closed_form(self, ends, nodes):
        # the integer-angle table against numpy's cos or sin of kappa x, within
        # 8 eps (kappa_max + 1) sqrt(2) absolute for the modes and kappa_max
        # times that for their end derivatives (fixed before the first run):
        # numpy's argument kappa x carries a rounding of eps kappa; 240 modes
        # alias on 11 and 101 nodes, which analytic_eigensystem refuses, so
        # the table is read without that check
        bc, s, wave = self.WAVES[ends]
        basis = sl._closed_form(SLProblem(0.7, 0.3, *bc), 240, nodes)[1]
        kappa = (2 * np.arange(240) + s) * (math.pi / 2.0)
        amp = np.where(kappa == 0.0, 1.0, math.sqrt(2.0))[:, None]
        x = np.linspace(0.0, 1.0, nodes)
        # d/dx cos = -sin and d/dx sin = cos
        slope = (lambda t: -np.sin(t)) if wave is np.cos else np.cos
        bound = 8.0 * np.finfo(float).eps * (kappa[-1] + 1.0) * math.sqrt(2.0)
        assert np.abs(basis.functions - amp * wave(np.outer(kappa, x))).max() <= bound
        ref = amp * kappa[:, None] * slope(np.outer(kappa, [0.0, 1.0]))
        assert np.abs(basis.end_derivs - ref).max() <= bound * kappa[-1]

    @pytest.mark.parametrize("ends", list(WAVES))
    def test_eigenvalues_are_p_kappa_squared_plus_q_on_python_floats(self, ends):
        # p k**2 + q with the wavenumbers written per pair of ends, bit for
        # bit; Python's k**2 is pow, which rounds apart from k * k on one of
        # the Neumann-Dirichlet modes
        bc, _, _ = self.WAVES[ends]
        kappa = {"NN": lambda n: (n - 1) * math.pi, "ND": lambda n: (2 * n - 1) * math.pi / 2.0,
                 "DN": lambda n: (2 * n - 1) * math.pi / 2.0, "DD": lambda n: n * math.pi}[ends]
        ks = [kappa(n) for n in range(1, 202)]
        lams = analytic_eigensystem(SLProblem(0.7, 0.3, *bc), 201, 1001).eigenvalues
        assert lams.tobytes() == np.array([0.7 * k**2 + 0.3 for k in ks]).tobytes()
        if ends == "ND":
            assert any(0.7 * k**2 != 0.7 * (k * k) for k in ks)

    @pytest.mark.parametrize("ends", list(WAVES))
    def test_resample_is_the_closed_form_on_the_new_grid(self, ends):
        problem = SLProblem(0.7, 0.3, *self.WAVES[ends][0])
        basis = analytic_eigensystem(problem, 201, 1001)
        for nodes, modes in ((201, 21), (2001, None)):
            fine = basis.resample(nodes, modes)
            ref = sl._closed_form(problem, modes or 201, nodes)[1]
            assert fine.closed_form
            for name in ("grid", "eigenvalues", "functions", "end_derivs"):
                assert getattr(fine, name).tobytes() == getattr(ref, name).tobytes()
        # 201 modes alias on 101 nodes, which resample refuses as analytic_eigensystem does
        with pytest.raises(ResolutionTooCoarse, match="the grid of 101 nodes"):
            basis.resample(101, 500)

    @pytest.mark.parametrize("ends, top", [("NN", 10), ("ND", 10), ("DN", 10), ("DD", 9)])
    def test_modes_stop_below_the_nyquist_limit(self, ends, top):
        # on M = 10 intervals mode J's wavenumber 2 (J - 1) + s, in units of
        # pi / 2, stays below the Nyquist limit 2M up to J = top; one mode more
        # aliases a lower one, and the basis is no longer orthonormal
        problem = SLProblem(0.7, 0.3, *self.WAVES[ends][0])
        assert analytic_eigensystem(problem, top, 11).orthonormality_defect() <= 1e-13
        with pytest.raises(ResolutionTooCoarse, match="the grid of 11 nodes"):
            analytic_eigensystem(problem, top + 1, 11)
        assert sl._closed_form(problem, top + 1, 11)[1].orthonormality_defect() >= 0.5

    def test_aliased_neumann_modes_are_refused(self):
        # 201 modes on 8 nodes had an orthonormality defect of 2.0
        with pytest.raises(ResolutionTooCoarse, match="the grid of 8 nodes"):
            analytic_eigensystem(SLProblem(1.0, 0.0, 0, 1, 0, 1), 201, 8)

    def test_orthonormal_within_quadrature_tolerance(self, nn_basis):
        assert nn_basis.orthonormality_defect() < 1e-6
        assert nn_basis.boundary_defect() < 1e-10


class TestNumericEigensystem:
    def test_matches_analytic_neumann(self, nn_problem):
        an = analytic_eigensystem(nn_problem, 4, 1001)
        nu = numeric_eigensystem(nn_problem, 4, 1001)
        rel = np.abs(nu.eigenvalues[1:] - an.eigenvalues[1:]) / an.eigenvalues[1:]
        assert np.max(rel) < 1e-3
        assert abs(nu.eigenvalues[0]) < 1e-8

    def test_matches_analytic_neumann_dirichlet(self):
        an = analytic_eigensystem(ND, 4, 1001)
        nu = numeric_eigensystem(ND, 4, 1001)
        rel = np.abs(nu.eigenvalues - an.eigenvalues) / an.eigenvalues
        assert np.max(rel) < 1e-3

    def test_constant_shift_is_exact_in_discrete_problem(self, nn_problem):
        base = numeric_eigensystem(nn_problem, 4, 201)
        shifted_problem = SLProblem(p=1.0, q=3.5, a0=0, b0=1, a1=0, b1=1)
        shifted = numeric_eigensystem(shifted_problem, 4, 201)
        np.testing.assert_allclose(
            shifted.eigenvalues, base.eigenvalues + 3.5, rtol=0, atol=1e-9
        )

    def test_second_order_convergence(self, nn_problem):
        an = analytic_eigensystem(nn_problem, 4, 101)
        e_coarse = np.abs(numeric_eigensystem(nn_problem, 4, 251).eigenvalues[1:] - an.eigenvalues[1:])
        e_fine = np.abs(numeric_eigensystem(nn_problem, 4, 501).eigenvalues[1:] - an.eigenvalues[1:])
        assert np.all(e_coarse / e_fine >= 3.5)

    def test_eigen_residual(self, nn_problem):
        nu = numeric_eigensystem(nn_problem, 6, 801)
        op = DiscreteSLOperator(nn_problem, 801)
        for k in range(6):
            resid = op.apply(nu.functions[k]) - nu.eigenvalues[k] * nu.functions[k]
            norm = math.sqrt(np.dot(op.weights, resid**2))
            assert norm <= 1e-8 * (1.0 + abs(nu.eigenvalues[k]))

    def test_orthonormality_machine_precision(self, nn_problem):
        nu = numeric_eigensystem(nn_problem, 6, 401)
        assert nu.orthonormality_defect() < 1e-12

    def test_robin_ends_supported(self):
        robin = SLProblem(p=1.0, q=0.0, a0=-1.0, b0=1.0, a1=1.0, b1=1.0)
        nu = numeric_eigensystem(robin, 3, 801)
        assert np.all(np.diff(nu.eigenvalues) > 0)
        assert nu.boundary_defect() < 1e-3  # one-sided derivative is O(dx^2)

    def test_resolution_guard(self, nn_problem):
        with pytest.raises(ResolutionTooCoarse):
            numeric_eigensystem(nn_problem, 20, 160)
        with pytest.raises(ValueError):
            numeric_eigensystem(nn_problem, 20, 100)  # nodes < 8 J


class TestH1Check:
    def test_sufficient_condition_flag(self, nn_problem, nn_basis):
        report = check_h1(nn_problem, nn_basis, M=2, J_tail=30)
        assert report.sufficient_condition

    def test_sign_flip_invariance(self):
        # same boundary conditions written with flipped signs
        flipped = SLProblem(p=1.0, q=0.0, a0=0.0, b0=-1.0, a1=0.0, b1=-1.0)
        basis = analytic_eigensystem(flipped, 40, 1001)
        assert check_h1(flipped, basis, M=2, J_tail=30).sufficient_condition

    def test_tail_terms_decay_quadratically(self, nn_problem, nn_basis):
        report = check_h1(nn_problem, nn_basis, M=2, J_tail=30)
        expected = math.sqrt(2.0) / (np.arange(2, 33) - 1.0) ** 2 / math.pi**2
        np.testing.assert_allclose(report.terms, expected, rtol=1e-12)
        assert report.convergent
        assert report.decay_exponent < -1.8

    def test_invalid_m(self, nn_problem, nn_basis):
        with pytest.raises(InvalidM):
            check_h1(nn_problem, nn_basis, M=1, J_tail=10)  # lambda_1 = 0


class TestLiouvilleTransform:
    def test_identity(self):
        g = GeneralSLProblem(p=1.0, r=1.0, q=pf.cosine_series(0.5, [1.0]), a0=0, b0=1, a1=0, b1=1)
        normal, cmap = liouville_transform(g, 801)
        assert normal.p == pytest.approx(1.0, rel=1e-12)
        x = np.linspace(0.0, 1.0, 801)
        np.testing.assert_allclose(cmap.forward(x), x, atol=1e-12)
        np.testing.assert_allclose(cmap.amplitude_samples, 1.0, atol=1e-12)
        np.testing.assert_allclose(normal.q.values(x), g.q.values(x), atol=1e-6)
        assert normal.b0 == pytest.approx(1.0)

    def test_constant_coefficients(self):
        g = GeneralSLProblem(p=4.0, r=1.0, q=0.0, a0=0, b0=1, a1=0, b1=1)
        normal, cmap = liouville_transform(g, 801)
        assert normal.p == pytest.approx(4.0, rel=1e-12)
        np.testing.assert_allclose(cmap.amplitude_samples, math.sqrt(2.0), rtol=1e-12)
        x = np.linspace(0.0, 1.0, 801)
        np.testing.assert_allclose(cmap.forward(x), x, atol=1e-12)

    def test_map_is_monotone_onto(self):
        g = GeneralSLProblem(
            p=pf.polynomial([1.0, 0.5]), r=pf.polynomial([1.0, 0.0, 0.3]), q=0.0,
            a0=0, b0=1, a1=0, b1=1,
        )
        _, cmap = liouville_transform(g, 801)
        assert cmap.xi_nodes[0] == pytest.approx(0.0, abs=1e-14)
        assert cmap.xi_nodes[-1] == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diff(cmap.xi_nodes) > 0)

    def test_transform_preserves_spectrum(self):
        # eigenvalues of the general operator match those of its normal form
        g = GeneralSLProblem(
            p=pf.polynomial([1.0, 0.4]), r=pf.polynomial([1.0, 0.2]), q=0.5,
            a0=1, b0=0, a1=1, b1=0,
        )
        normal, _ = liouville_transform(g, 2001)
        lam_normal = numeric_eigensystem(normal, 3, 2001).eigenvalues
        # independent oracle: generalized FD eigenproblem of the original form
        n = 2001
        x = np.linspace(0.0, 1.0, n)
        dx = x[1] - x[0]
        pv = g.p.values(x)
        rv = g.r.values(x)
        qv = g.q.values(x)
        p_half = 0.5 * (pv[:-1] + pv[1:])
        main = (p_half[:-1] + p_half[1:]) / dx**2 + qv[1:-1]
        off = -p_half[1:-1] / dx**2
        from scipy.linalg import eigh_tridiagonal

        w = rv[1:-1]
        d_sym = main / w
        e_sym = off / np.sqrt(w[:-1] * w[1:])
        lam_ref = eigh_tridiagonal(d_sym, e_sym, select="i", select_range=(0, 2))[0]
        np.testing.assert_allclose(lam_normal, lam_ref, rtol=2e-4)

    def test_nonpositive_coefficient(self):
        g = GeneralSLProblem(p=pf.polynomial([0.5, -1.0]), r=1.0, q=0.0, a0=0, b0=1, a1=0, b1=1)
        with pytest.raises(NonPositiveCoefficient):
            liouville_transform(g, 101)


class TestProjection:
    def test_constant_against_neumann_basis(self, nn_basis):
        coeffs = project(pf.constant(0.5), nn_basis, 8)
        assert coeffs[0] == pytest.approx(0.5, rel=1e-13)
        assert np.max(np.abs(coeffs[1:])) < 1e-13

    def test_shifted_cosine_against_nd_basis(self):
        basis = analytic_eigensystem(ND, 8, 1001)
        coeffs = project(pf.cosine(4.0 / math.pi, math.pi / 2.0), basis, 8)
        assert coeffs[0] == pytest.approx(2.0 * math.sqrt(2.0) / math.pi, rel=1e-13)
        assert np.max(np.abs(coeffs[1:])) < 1e-13

    def test_mode_recovers_unit_vector(self, nn_basis):
        coeffs = project(nn_basis.functions[2], nn_basis, 6)
        expected = np.zeros(6)
        expected[2] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_grid_mismatch(self, nn_basis):
        with pytest.raises(GridMismatch):
            project(np.ones(17), nn_basis, 3)


def test_basis_csv_roundtrip(tmp_path, nn_problem):
    # the 64 x 2001 finite-difference basis of design_sweep.json, whose
    # 2001 rows span several of the writer's row blocks
    cfg = json.loads(DESIGN_SWEEP.read_text())
    robin = build_problem(cfg)
    for problem, basis in [(nn_problem, analytic_eigensystem(nn_problem, 5, 101)),
                           (robin, numeric_eigensystem(robin, 64, 2001))]:
        path = tmp_path / "basis.csv"
        basis_to_csv(basis, path)
        loaded = basis_from_csv(path, problem)
        np.testing.assert_array_equal(loaded.eigenvalues, basis.eigenvalues)
        np.testing.assert_array_equal(loaded.functions, basis.functions)
        np.testing.assert_array_equal(loaded.end_derivs, basis.end_derivs)
        np.testing.assert_array_equal(loaded.grid, basis.grid)


def test_resample_closed_form_is_exact(nn_problem):
    basis = analytic_eigensystem(nn_problem, 4, 401)
    fine = basis.resample(801)
    x = fine.grid
    np.testing.assert_allclose(fine.functions[1], math.sqrt(2.0) * np.cos(math.pi * x), atol=1e-14)


@pytest.mark.parametrize("problem", [
    SLProblem(p=1.0, q=0.0, a0=0, b0=1, a1=0, b1=1),
    SLProblem(p=0.5, q=0.3, a0=-1.0, b0=1.0, a1=2.0, b1=1.0),
    SLProblem(p=1.0, q=0.0, a0=1.0, b0=0.0, a1=0.0, b1=1.0),
    SLProblem(p=1.0, q=0.0, a0=0.0, b0=1.0, a1=1.0, b1=0.0),
], ids=["neumann", "robin", "dirichlet_left", "dirichlet_right"])
def test_symmetric_tridiagonals_are_the_weighted_similarity(problem):
    # W^{1/2} B_h W^{-1/2} on the free nodes, built once for the numeric
    # eigensolver and the simulator's closed form
    op = DiscreteSLOperator(problem, 41)
    sub, diag, sup = op.free_tridiagonals()
    root = np.sqrt(op.weights[op.free])
    similar = root[:, None] * (np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)) / root
    sym_diag, off = op.symmetric_tridiagonals()
    np.testing.assert_array_equal(sym_diag, diag)
    dense = np.diag(sym_diag) + np.diag(off, -1) + np.diag(off, 1)
    np.testing.assert_allclose(dense, similar, rtol=1e-14, atol=0)


ENDS = {"neumann_neumann": (0.0, 1.0, 0.0, 1.0), "neumann_dirichlet": (0.0, 1.0, 1.0, 0.0),
        "dirichlet_neumann": (1.0, 0.0, 0.0, 1.0), "dirichlet_dirichlet": (1.0, 0.0, 1.0, 0.0)}


@pytest.mark.parametrize("q", [0.0, 0.7])
@pytest.mark.parametrize("nodes", [11, 51, 201])
@pytest.mark.parametrize("ends", list(ENDS))
def test_closed_form_eigenpairs_are_eighs(ends, nodes, q):
    # the closed-form eigenpairs of B_h against numpy's eigh of W^{1/2} B_h
    # W^{-1/2}: eigenvalues within 1e-13 |B_h|, each mode the eigh mode up
    # to sign (|<u, v>_W| = 1 within 1e-10), and B_h u - lam u at roundoff,
    # 1e-13 |B_h| max|u| (all fixed before the first run)
    a0, b0, a1, b1 = ENDS[ends]
    op = DiscreteSLOperator(SLProblem(p=0.8, q=q, a0=a0, b0=b0, a1=a1, b1=b1), nodes)
    lam, rows = op.eigenpairs()
    diag, off = op.symmetric_tridiagonals()
    ref_lam, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, -1) + np.diag(off, 1))
    scale = np.abs(ref_lam).max()  # |B_h| in the trapezoid weights
    assert lam.shape == ref_lam.shape and rows.shape == (lam.size, nodes)
    assert np.abs(lam - ref_lam).max() <= 1e-13 * scale
    ref = np.zeros_like(rows)
    ref[:, op.free] = vecs.T / np.sqrt(op.weights[op.free])
    overlap = np.abs(np.sum(rows * ref * op.weights, axis=1))
    assert np.abs(overlap - 1.0).max() <= 1e-10
    residual = op.apply(rows) - lam[:, None] * rows
    assert np.abs(residual).max() <= 1e-13 * scale * np.abs(rows).max()
    assert np.all(rows[:, :op.i0] == 0.0) and np.all(rows[:, op.i1:] == 0.0)


@pytest.mark.parametrize("q", [0.0, 0.7])
def test_neumann_mean_mode_is_exactly_q(q):
    # eigh left it at -8.2e-12 on 201 nodes for q = 0, a growing mode
    lam, rows = DiscreteSLOperator(SLProblem(p=1.0, q=q, a0=0, b0=1, a1=0, b1=1), 201).eigenpairs()
    assert lam[0] == q
    np.testing.assert_allclose(rows[0], 1.0, rtol=1e-15)


@pytest.mark.parametrize("problem", [
    SLProblem(p=0.5, q=0.3, a0=-1.0, b0=1.0, a1=2.0, b1=1.0),
    SLProblem(p=1.0, q=pf.polynomial([0.5, 1.0]), a0=0.0, b0=1.0, a1=0.0, b1=1.0),
    SLProblem(p=1.0, q=pf.polynomial([0.5, 1.0]), a0=1.0, b0=0.0, a1=2.0, b1=1.0),
], ids=["robin", "variable_q", "dirichlet_robin"])
def test_other_plants_take_one_eigh_of_the_free_nodes(monkeypatch, problem):
    # no closed form: one eigh of the free-node size, whose modes are
    # W^{-1/2} times eigh's, orthonormal in the trapezoid weights and zero
    # at a pinned node, and whose eigenvalues are their Rayleigh quotients
    assert problem.standard_q() is None
    with pytest.raises(UnsupportedAnalyticCase):
        analytic_eigensystem(problem, 3, 21)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    op = DiscreteSLOperator(problem, 21)
    lam, rows = op.eigenpairs()
    free = op.i1 - op.i0
    assert calls == [(free, free)] and rows.shape == (free, 21)
    np.testing.assert_array_equal(lam, op.rayleigh_quotients(rows))
    assert np.all(rows[:, :op.i0] == 0.0) and np.all(rows[:, op.i1:] == 0.0)
    gram = (rows * op.weights) @ rows.T
    assert np.abs(gram - np.eye(free)).max() <= 1e-13


@pytest.mark.parametrize("ends", list(ENDS))
def test_apply_takes_a_stack_of_fields(ends):
    # along the last axis, each field as it is alone, bit for bit
    a0, b0, a1, b1 = ENDS[ends]
    op = DiscreteSLOperator(SLProblem(p=0.8, q=pf.polynomial([0.5, 1.0]), a0=a0, b0=b0, a1=a1,
                                      b1=b1), 21)
    stack = np.random.default_rng(0).standard_normal((2, 3, 21))
    alone = np.array([op.apply(u) for u in stack.reshape(6, 21)]).reshape(stack.shape)
    np.testing.assert_array_equal(op.apply(stack), alone)


# -- the numeric eigensolver against LAPACK's ------------------------------------

def _sign_convention(rows: np.ndarray, dx: float) -> np.ndarray:
    """``numeric_eigensystem``'s rule: the first nonzero of the value or the
    derivative at x = 0 is positive."""
    d0, _ = end_derivatives(rows, dx)
    anchor = np.where(np.abs(rows[:, 0]) > 1e-8 * np.max(np.abs(rows), axis=1), rows[:, 0], d0)
    return rows * np.where(anchor < 0, -1.0, 1.0)[:, None]


def _assert_matches_lapack(problem: SLProblem, J: int, nodes: int):
    """numeric_eigensystem against scipy's eigh_tridiagonal (LAPACK's
    bisection and inverse iteration, stebz and stein), whose eigenvalues
    carry an error of eps |T|. The gates were fixed before the first run:
    eigenvalues within 10 eps |T|_1, modes within 1e-9 after the sign
    convention, and orthonormal in the trapezoid weights to 1e-12."""
    from scipy.linalg import eigh_tridiagonal

    basis = numeric_eigensystem(problem, J, nodes)
    op = DiscreteSLOperator(problem, nodes)
    diag, off = op.symmetric_tridiagonals()
    lam, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, J - 1))
    norm = np.max(np.abs(diag) + np.r_[0.0, np.abs(off)] + np.r_[np.abs(off), 0.0])
    assert np.abs(basis.eigenvalues - lam).max() <= 10 * np.finfo(float).eps * norm
    ref = np.zeros((J, nodes))
    ref[:, op.free] = (vecs / np.sqrt(op.weights[op.free])[:, None]).T
    assert np.abs(basis.functions - _sign_convention(ref, op.dx)).max() <= 1e-9
    assert basis.orthonormality_defect() < 1e-12
    return basis


ORACLE_PLANTS = {
    # the benchmark's plant: Neumann left end, Robin right end, q = 0.5 + x
    "design_sweep": (build_problem(json.loads(DESIGN_SWEEP.read_text())), 64, 2001),
    # 798 free nodes, an even count
    "dirichlet": (SLProblem(p=1.0, q=pf.polynomial([0.5, 1.0]), a0=1.0, b0=0.0, a1=1.0, b1=0.0),
                  32, 800),
    "robin_a0_negative": (SLProblem(p=1.0, q=0.0, a0=-2.0, b0=1.0, a1=1.0, b1=1.0), 40, 1001),
    "p_0.01": (SLProblem(p=0.01, q=pf.polynomial([0.5, 1.0]), a0=0.0, b0=1.0, a1=1.0, b1=1.0),
               40, 1001),
    "negative_q": (SLProblem(p=1.0, q=pf.polynomial([-60.0, 5.0]), a0=0.0, b0=1.0, a1=1.0, b1=1.0),
                   32, 1000),
}


@pytest.mark.parametrize("name", list(ORACLE_PLANTS))
def test_numeric_eigensystem_matches_lapack(name):
    basis = _assert_matches_lapack(*ORACLE_PLANTS[name])
    if name == "negative_q":
        assert basis.eigenvalues[0] < 0.0


@settings(derandomize=True, deadline=None, max_examples=10)
@given(p=st.floats(0.05, 3.0), q0=st.floats(-20.0, 20.0), q1=st.floats(-20.0, 20.0),
       left=st.sampled_from([None, -2.0, 0.0, 1.5]), right=st.sampled_from([None, -0.5, 0.0, 2.0]),
       nodes=st.integers(101, 1500), per_mode=st.integers(40, 100))
def test_numeric_eigensystem_matches_lapack_on_drawn_plants(p, q0, q1, left, right, nodes, per_mode):
    # an end drawn as None is Dirichlet, a number is the Robin a over b = 1
    a0, b0 = (1.0, 0.0) if left is None else (left, 1.0)
    a1, b1 = (1.0, 0.0) if right is None else (right, 1.0)
    problem = SLProblem(p=p, q=pf.polynomial([q0, q1]), a0=a0, b0=b0, a1=a1, b1=b1)
    _assert_matches_lapack(problem, max(2, nodes // per_mode), nodes)


def test_neumann_mean_mode_has_relative_accuracy():
    # the eigenvalue is the mode's Rayleigh quotient, a sum of squares here:
    # eigh_tridiagonal left it at ~1e-12, eps |T| on 101 nodes
    basis = numeric_eigensystem(SLProblem(p=1.0, q=0.0, a0=0, b0=1, a1=0, b1=1), 4, 101)
    assert abs(basis.eigenvalues[0]) < 1e-20


def test_unsettled_modes_are_an_error(monkeypatch, capsys):
    # with no Rayleigh-quotient iteration no mode settles: a typed error,
    # which the CLI turns into exit 2
    monkeypatch.setattr(sl, "_RQI_CAP", 0)
    with pytest.raises(UnverifiedEigenpair, match="did not settle"):
        numeric_eigensystem(*ORACLE_PLANTS["design_sweep"])
    assert main(["design", "--config", str(DESIGN_SWEEP)]) == EXIT_CONFIG
    assert "UnverifiedEigenpair: eigenvalue 1 did not settle" in capsys.readouterr().err


def test_wrong_eigenvalues_fail_the_residual_check(monkeypatch):
    # quotients off by 1 still settle, but no eigenvalue lies within the
    # bound of them
    quotients = DiscreteSLOperator.rayleigh_quotients
    monkeypatch.setattr(DiscreteSLOperator, "rayleigh_quotients", lambda op, rows: quotients(op, rows) + 1.0)
    with pytest.raises(UnverifiedEigenpair, match="is not verified"):
        numeric_eigensystem(*ORACLE_PLANTS["robin_a0_negative"])


def test_design_sweep_basis_takes_at_most_four_factorization_passes(monkeypatch):
    # the Ritz seeds need two Rayleigh-quotient solves and one verification;
    # bracketing every eigenvalue first took eight passes over the rows of T
    calls = []
    pivots = sl._Twisted.pivots
    monkeypatch.setattr(sl._Twisted, "pivots",
                        lambda T, shifts: calls.append(shifts.size) or pivots(T, shifts))
    numeric_eigensystem(*ORACLE_PLANTS["design_sweep"])
    assert 1 <= len(calls) <= 4


HARD_PLANTS = {
    # a well q = 5000 x^2 with p = 0.01 holds the 64 modes in x < 0.45, where
    # the standard waves seed them poorly: brackets repair the seeds
    "well_robin": (SLProblem(p=0.01, q=pf.polynomial([0.0, 0.0, 5000.0]), a0=0.0, b0=1.0,
                             a1=1.0, b1=1.0), 801, 64),
    "strong_robin": (SLProblem(p=1.0, q=0.0, a0=-5.0, b0=1.0, a1=20.0, b1=1.0), 801, 64),
    "cos_3pi": (SLProblem(p=1.0, q=pf.cosine_series(0.0, [0.0, 0.0, 400.0]), a0=0.0, b0=1.0,
                          a1=1.0, b1=1.0), 801, 64),
    # the repair reaches the last mode, whose bracket is isolated only once
    # its upper neighbour's, which no solve informs, is refined too
    "deep_well_last_mode": (SLProblem(p=0.007, q=pf.polynomial([-1400.0, 0.0, 400.0]), a0=25.0,
                                      b0=1.0, a1=20.0, b1=1.0), 943, 10),
}


@pytest.mark.parametrize("name", list(HARD_PLANTS))
def test_lowest_eigenpairs_on_hard_plants_are_eighs(monkeypatch, name):
    # the lowest eigenpairs, each verified (else the solver raises), against
    # numpy's eigh of symmetric_tridiagonals(): eigenvalues within 1e-13
    # |B_h|, each mode the eigh mode up to sign (|<u, v>_W| = 1 within
    # 1e-10), and B_h u - lam u at roundoff, 1e-13 |B_h| max|u| (all fixed
    # before the first run)
    repaired = []
    isolate = sl._isolate
    monkeypatch.setattr(sl, "_isolate",
                        lambda T, modes, *rest: repaired.append(modes) or isolate(T, modes, *rest))
    problem, nodes, J = HARD_PLANTS[name]
    op = DiscreteSLOperator(problem, nodes)
    lam, rows = sl._lowest_eigenpairs(op, J)
    diag, off = op.symmetric_tridiagonals()
    ref_lam, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, -1) + np.diag(off, 1))
    scale = np.abs(ref_lam).max()
    assert np.abs(lam - ref_lam[:J]).max() <= 1e-13 * scale
    ref = np.zeros_like(rows)
    ref[:, op.free] = vecs[:, :J].T / np.sqrt(op.weights[op.free])
    overlap = np.abs(np.sum(rows * ref * op.weights, axis=1))
    assert np.abs(overlap - 1.0).max() <= 1e-10
    residual = op.apply(rows) - lam[:, None] * rows
    assert np.abs(residual).max() <= 1e-13 * scale * np.abs(rows).max()
    if "well" in name:
        assert repaired  # the seeds alone do not verify here

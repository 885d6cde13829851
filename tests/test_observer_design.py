import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import wrightomega

from parobs import config as cf
from parobs import observer_design
from parobs import profiles as pf
from parobs.config import example31_design
from parobs.errors import (
    ApproximantOutsideDomain,
    DimensionMismatch,
    InfeasibleAtZero,
    InvalidCertificate,
    InvalidLipschitzBound,
    InvalidSpec,
    KappaOutOfRange,
    NearSingular,
    NoFeasibleQ,
    NotHurwitz,
    ParobsError,
    PlacementImpossible,
    QInfeasible,
)
from parobs.observer_design import (
    OutputChannel,
    build_A,
    certificate_defects,
    coupling_constant_K,
    design_from_json,
    design_to_json,
    injection_kernels,
    lyapunov_certificate,
    make_design,
    max_diameter,
    place_gain,
    select_Q,
    small_gain,
    small_gain_predictor,
    small_gain_zoh,
)
from parobs.schedule import make_schedule
from parobs.simulator import Scenario
from parobs.sturm_liouville import SLProblem, analytic_eigensystem, project


class TestBuildA:
    def test_worked_example_neumann(self):
        A = build_A([0.0], np.array([[-math.pi**2]]), np.array([[0.5]]))
        assert A[0, 0] == pytest.approx(-math.pi**2 / 2.0, rel=1e-15)

    def test_worked_example_boundary(self):
        p, q = 1.3, 2.0
        lam1 = p * math.pi**2 / 4.0 + q
        L = np.array([[math.pi * (4 * q - 7 * p * math.pi**2) / (16 * math.sqrt(2))]])
        C = np.array([[2.0 * math.sqrt(2.0) / math.pi]])
        A = build_A([lam1], L, C)
        assert A[0, 0] == pytest.approx(-9 * p * math.pi**2 / 8 - q / 2, rel=1e-14)

    def test_zero_gain_is_diagonal(self):
        A = build_A([1.0, 2.0], np.zeros((2, 1)), np.ones((1, 2)))
        np.testing.assert_allclose(A, np.diag([-1.0, -2.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_A([1.0, 2.0], np.zeros((3, 1)), np.ones((1, 2)))
        with pytest.raises(DimensionMismatch):
            build_A([1.0, 2.0], np.zeros((2, 1)), np.ones((1, 1)))


class TestInjectionKernels:
    def test_constant_kernel(self, nn_basis):
        samples, norms = injection_kernels(np.array([[-math.pi**2]]), nn_basis)
        np.testing.assert_allclose(samples[0], -math.pi**2, rtol=1e-15)
        assert norms[0] == pytest.approx(math.pi**2, rel=1e-15)

    def test_boundary_design_kernel(self, ex32_design):
        basis = ex32_design.basis
        samples, norms = injection_kernels(ex32_design.L, basis)
        expected = math.pi * (-7 * math.pi**2) / 16.0 * np.cos(math.pi * basis.grid / 2.0)
        np.testing.assert_allclose(samples[0], expected, rtol=1e-13)

    def test_zero_gain(self, nn_basis):
        samples, norms = injection_kernels(np.zeros((2, 1)), nn_basis)
        assert np.all(samples == 0.0)
        assert norms[0] == 0.0


class TestCouplingConstant:
    def test_vanishes_for_span_of_head_modes(self, ex31_design, ex32_design):
        assert ex31_design.K < 1e-12
        assert ex32_design.K < 1e-12

    def test_single_tail_mode_gives_one(self, nn_basis):
        coeffs = project(nn_basis.functions[1], nn_basis)  # c = phi_2, N = 1
        rep = coupling_constant_K(coeffs[None, :], N=1)
        assert rep.value == pytest.approx(1.0, rel=1e-12)


class TestLyapunovCertificate:
    def test_scalar_case_matches_worked_design(self):
        P, sigma = lyapunov_certificate(np.array([[-math.pi**2 / 2.0]]), sigma_fraction=1.0)
        np.testing.assert_allclose(P, [[1.0]])
        assert sigma == pytest.approx(math.pi**2 / 2.0)

    def test_postconditions_hold(self):
        A = np.array([[-1.0, 0.5], [0.0, -3.0]])
        P, sigma = lyapunov_certificate(A, sigma_fraction=0.5)
        d = certificate_defects(A, P, sigma)
        assert d["p_min"] >= 1.0 - 1e-10
        assert d["decay_slack"] <= 1e-10

    def test_diagonal_case(self):
        A = np.diag([-1.0, -3.0])
        P, sigma = lyapunov_certificate(A, sigma_fraction=0.5)
        assert sigma == pytest.approx(0.5)
        M = P @ A + A.T @ P + 2 * sigma * P
        assert np.max(np.linalg.eigvalsh(0.5 * (M + M.T))) <= 1e-10
        assert np.min(np.linalg.eigvalsh(P)) >= 1.0 - 1e-10

    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitz):
            lyapunov_certificate(np.array([[0.2]]), 0.9)

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_P_is_scipys_lyapunov_solution(self, N):
        # the Kronecker solve against scipy's Bartels-Stewart solver, rescaled
        # the same way: within 1e-12 of P's largest entry (fixed before the
        # first run), and the certificate inequalities P >= I and
        # P A + A' P <= -2 sigma P
        from scipy.linalg import solve_continuous_lyapunov

        rng = np.random.default_rng(N)
        for _ in range(5):
            A = rng.normal(size=(N, N))
            A -= (np.max(np.linalg.eigvals(A).real) + rng.uniform(0.2, 2.0)) * np.eye(N)
            P, sigma = lyapunov_certificate(A, 0.9)
            shifted = A + sigma * np.eye(N)
            ref = solve_continuous_lyapunov(shifted.T, -np.eye(N))
            ref = 0.5 * (ref + ref.T)
            ref /= np.min(np.linalg.eigvalsh(ref))
            assert np.abs(P - ref).max() <= 1e-12 * np.abs(ref).max()
            d = certificate_defects(A, P, sigma)
            assert d["p_min"] >= 1.0 - 1e-12
            assert d["decay_slack"] <= 1e-12 * d["p_norm"]

    def test_singular_shifted_equation_is_near_singular(self):
        # sigma_fraction = 1 shifts A's slowest eigenvalue to 0, so its
        # Kronecker sum has the eigenvalue 0 + 0: a typed error, not LinAlgError
        with pytest.raises(NearSingular, match="singular"):
            lyapunov_certificate(np.diag([-1.0, -2.0]), 1.0)


class TestSmallGain:
    def test_predictor_formula_on_lattice(self, ex31_design):
        p = 1.0
        mu = ex31_design.mu
        for h in np.linspace(0.05, 0.6, 7):
            for w in np.linspace(0.0, 0.9, 7):
                rep = small_gain_predictor(ex31_design, h, w * mu)
                ref = math.exp(w * p * math.pi**2 * h / 2.0) / math.sqrt(6.0 * (1.0 - w))
                assert rep.omega == pytest.approx(ref, rel=1e-12)

    def test_predictor_h_independent_at_zero_kappa(self, ex31_design):
        vals = [small_gain_predictor(ex31_design, h, 0.0).omega for h in (0.1, 1.0, 10.0)]
        np.testing.assert_allclose(vals, 1.0 / math.sqrt(6.0), rtol=1e-12)

    def test_zoh_formula(self, ex31_design):
        rep = small_gain_zoh(ex31_design, 0.05, 0.0)
        assert rep.omega == pytest.approx((0.05 * math.pi**2 + 1.0) / math.sqrt(6.0), rel=1e-12)

    def test_zero_injection_design_gives_zero(self):
        # positive reaction keeps A = [-lambda_1] Hurwitz with zero gain
        problem = SLProblem(p=1.0, q=1.0, a0=0, b0=1, a1=0, b1=1)
        basis = analytic_eigensystem(problem, 10, 501)
        ch = OutputChannel(kernel=pf.constant(0.5), approximant=pf.constant(0.5))
        d = make_design(problem, basis, [ch], np.array([[0.0]]), N=1, Q=2.0,
                        P=np.array([[1.0]]), sigma=0.5)
        assert small_gain_predictor(d, 0.5, 0.0).omega == 0.0

    def test_kappa_out_of_range(self, ex31_design):
        with pytest.raises(KappaOutOfRange):
            small_gain_predictor(ex31_design, 0.5, ex31_design.mu)

    def test_infeasible_report_carries_inf_coefficients(self, ex31_design):
        rep = small_gain_zoh(ex31_design, 10.0, 0.0)
        assert not rep.feasible
        assert math.isinf(rep.coefficients.initial)

    @pytest.mark.parametrize("call", [
        lambda d: small_gain(d, 0.3, 0.0, "Predictor"),
        lambda d: max_diameter(d, 0.0, "Predictor"),
        lambda d: select_Q(d, [2.0], 0.3, 0.0, "Predictor"),
        lambda d: Scenario(design=d, variant="Predictor", nodes=101, u0=0.0, w0=0.0,
                           schedule=make_schedule({"kind": "uniform", "h": 0.3, "horizon": 0.6})),
    ], ids=["small_gain", "max_diameter", "select_Q", "Scenario"])
    def test_unknown_variant_is_rejected(self, ex31_design, call):
        # small_gain used to return the hold report and max_diameter the
        # predictor's h* for a variant that is neither
        with pytest.raises(ValueError, match="unknown observer variant 'Predictor'"):
            call(ex31_design)

    def test_unknown_variant_is_a_typed_error(self, ex31_design):
        with pytest.raises(ValueError) as info:
            small_gain(ex31_design, 0.3, 0.0, "Predictor")
        assert isinstance(info.value, ParobsError)


class TestMaxDiameter:
    def test_zoh_closed_form_root(self, ex31_design):
        h_star = max_diameter(ex31_design, 0.0, "zoh")
        assert h_star == pytest.approx((math.sqrt(6.0) - 1.0) / math.pi**2, rel=1e-10)

    def test_predictor_unbounded_at_zero_kappa(self, ex31_design):
        assert math.isinf(max_diameter(ex31_design, 0.0, "predictor"))

    def test_predictor_bounded_at_positive_kappa(self, ex31_design):
        kappa = 0.3 * ex31_design.mu
        h_star = max_diameter(ex31_design, kappa, "predictor")
        assert math.isfinite(h_star)
        assert small_gain_predictor(ex31_design, h_star * 0.999, kappa).feasible
        assert not small_gain_predictor(ex31_design, h_star * 1.001, kappa).feasible

    def test_infeasible_at_zero(self, nn_problem, nn_basis):
        # kernel far from its approximant: Omega(0+) > 1 already
        ch = OutputChannel(kernel=pf.polynomial([0.0, 10.0]), approximant=pf.constant(0.5))
        d = make_design(nn_problem, nn_basis, [ch], np.array([[-math.pi**2]]), N=1, Q=2.0,
                        sigma_fraction=1.0)
        with pytest.raises(InfeasibleAtZero):
            max_diameter(d, 0.0, "predictor")

    def test_unbounded_when_bracket_vanishes(self, nn_problem, nn_basis):
        # k = c = 1/2: no k - c gap, and p c'' - q c = 0 gives no h-term, so
        # Omega = gamma R for every h and kappa
        half = pf.constant(0.5)
        d = make_design(nn_problem, nn_basis, [OutputChannel(kernel=half, approximant=half)],
                        np.array([[-math.pi**2]]), N=1, Q=2.0, sigma_fraction=1.0)
        assert d.norm_gap[0] == 0.0 and d.norm_stiff[0] == 0.0
        for omega in (0.0, 0.5):
            assert math.isinf(max_diameter(d, omega * d.mu, "predictor"))


def _omega(design, h, kappa, variant):
    return small_gain(design, h, kappa, variant).omega


def _bracketing_root(design, kappa, variant):
    """The root search max_diameter did before its closed form: double an
    upper bracket until Omega reaches one (giving up at 2**60), then brentq."""
    hi = 1.0
    while _omega(design, hi, kappa, variant) < 1.0:
        hi *= 2.0
        if hi > 2.0**60:
            return math.inf
    # small_gain needs h > 0; the smallest subnormal stands in for h = 0
    return brentq(lambda h: _omega(design, h, kappa, variant) - 1.0, 5e-324, hi,
                  xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=400)


@pytest.fixture(scope="module")
def worked_designs(ex31_design, ex32_design):
    return {"ex31-p0.1": example31_design(p=0.1), "ex31-p1": ex31_design, "ex32": ex32_design}


@pytest.mark.parametrize("R", [0.0, 1e-10, 1e-4, 0.1])
@pytest.mark.parametrize("omega", [0.0, 1e-9, 1e-6, 0.1, 0.5])
@pytest.mark.parametrize("variant", ["predictor", "zoh"])
@pytest.mark.parametrize("name", ["ex31-p0.1", "ex31-p1", "ex32"])
def test_max_diameter_closed_form_root(worked_designs, name, variant, omega, R, monkeypatch):
    d = dataclasses.replace(worked_designs[name], lipschitz_R=R)
    kappa = omega * d.mu
    h_star = max_diameter(d, kappa, variant)
    # the closed form through scipy's Wright omega gives the same float
    with monkeypatch.context() as m:
        m.setattr(observer_design, "_wrightomega", lambda x: float(wrightomega(x)))
        assert max_diameter(d, kappa, variant) == h_star
    reference = _bracketing_root(d, kappa, variant)
    if math.isinf(reference):
        assert math.isinf(h_star)
        return
    assert abs(_omega(d, h_star, kappa, variant) - 1.0) <= 1e-13
    assert h_star == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_import_leaves_scipy_optimize_out():
    code = "import sys, parobs; assert 'scipy.optimize' not in sys.modules"
    src = str(Path(pf.__file__).parents[1])  # the directory holding the parobs package
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_analytic_design_and_max_diameter_leave_scipy_out():
    code = (
        "import sys, parobs\n"
        "from parobs.config import example31_design\n"
        "d = example31_design(p=0.1)\n"
        "parobs.max_diameter(d, 0.1 * d.mu, 'predictor')\n"
        "parobs.small_gain_zoh(d, 0.3, 0.0)\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(pf.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_wrightomega_matches_scipy_bit_for_bit():
    # the port's branch cut-offs (-50, -2, 1, 1e20), the grid's lower end and
    # the floats on either side of each
    cutoffs = np.array([-60.0, -50.0, -2.0, 1.0, 1e20])
    xs = np.concatenate([
        np.linspace(-60.0, 60.0, 2401),
        np.geomspace(1e-3, 1e25, 561),
        -np.geomspace(1e-3, 1e3, 241),
        cutoffs,
        np.nextafter(cutoffs, -np.inf),
        np.nextafter(cutoffs, np.inf),
    ])
    ours = np.array([observer_design._wrightomega(float(x)) for x in xs])
    differs = xs[ours != wrightomega(xs)]
    assert differs.size == 0, differs[:5]


class TestSelectQ:
    def test_tail_free_design_picks_two(self, ex31_design):
        q, omega = select_Q(ex31_design, [2.0, 3.0, 5.0, 10.0], h=0.3, kappa=0.0, variant="predictor")
        assert q == 2.0
        assert omega == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-12)

    def test_g_tilde_formula_at_zero_coupling(self, ex31_design):
        # with no tail coupling, g~ = max(|P|/sigma, Q/(2 lambda_2)); larger Q only hurts
        base = ex31_design.g_tilde
        assert base == pytest.approx(
            max(ex31_design.P_norm / ex31_design.sigma, 1.0 / ex31_design.lam_next), rel=1e-12
        )
        grown = dataclasses.replace(ex31_design, Q=50.0)
        assert grown.g_tilde >= base

    def test_no_feasible_q(self, nn_problem, nn_basis):
        ch = OutputChannel(kernel=pf.polynomial([0.0, 10.0]), approximant=pf.constant(0.5))
        d = make_design(nn_problem, nn_basis, [ch], np.array([[-math.pi**2]]), N=1, Q=2.0,
                        sigma_fraction=1.0)
        with pytest.raises(NoFeasibleQ):
            select_Q(d, [2.0, 4.0], h=0.5, kappa=0.0, variant="predictor")

    def test_q_at_or_below_a_tail_bound_above_two(self, nn_problem, nn_basis):
        # a strong gain and a large tail put the bound at 2.88 > 2, so Q = 2
        # is no longer the default and 2 <= Q <= bound is rejected
        c = pf.constant(0.5) + 0.4 * pf.cosine(math.sqrt(2.0), math.pi)
        d = make_design(nn_problem, nn_basis, [OutputChannel(kernel=c, approximant=c)],
                        np.array([[-40.0]]), N=1, sigma_fraction=0.9)
        bound = 2.0 * d.ltpl_norm * d.K**2 / (d.sigma * d.lam_next)
        assert 2.0 < bound < 3.0 and d.Q == 2.0 * bound
        for Q in (2.0, 2.5, bound):
            with pytest.raises(QInfeasible, match="does not exceed the tail-coupling bound"):
                dataclasses.replace(d, Q=Q)
        # Q = 3 and Q = 100 give Omega >= 1 at h = 0.01 and are skipped
        omegas = {Q: small_gain_predictor(dataclasses.replace(d, Q=Q), 0.01, 0.0).omega for Q in (3.0, 6.0, 100.0)}
        assert omegas[3.0] >= 1.0 and omegas[100.0] >= 1.0 and omegas[6.0] < 1.0
        assert select_Q(d, [2.0, 3.0, 6.0, 100.0], 0.01, 0.0, "predictor") == (6.0, omegas[6.0])
        with pytest.raises(NoFeasibleQ):
            select_Q(d, [2.0, 3.0, 100.0], 0.01, 0.0, "predictor")


class TestPlaceGain:
    def test_exact_for_single_mode(self):
        L = place_gain([0.0], [0.5], [-math.pi**2 / 2.0])
        assert L[0, 0] == pytest.approx(-math.pi**2, rel=1e-15)

    def test_sets_diagonal_for_two_modes(self):
        lam = [1.0, 4.0]
        c = [0.5, 0.25]
        targets = [-2.0, -5.0]
        L = place_gain(lam, c, targets)
        A = build_A(lam, L, np.array([c]))
        np.testing.assert_allclose(np.diag(A), targets, rtol=1e-14)

    def test_placement_impossible(self):
        with pytest.raises(PlacementImpossible):
            place_gain([1.0, 2.0], [0.5, 0.0], [-1.0, -2.0])


def _random_design(rng, with_tail=True, N=None):
    """Small random design on the Neumann basis with verified certificate;
    N (1 or 2 modes) is drawn unless given."""
    problem = SLProblem(p=float(rng.uniform(0.5, 2.0)), q=0.0, a0=0, b0=1, a1=0, b1=1)
    basis = analytic_eigensystem(problem, 30, 601)
    N = int(rng.integers(1, 3)) if N is None else N
    coeffs = rng.uniform(0.3, 1.0, size=N)
    tail = [0.0, float(rng.uniform(0.05, 0.3))] if with_tail else [0.0, 0.0]
    c = coeffs[0] * pf.constant(1.0)
    parts = [pf.constant(1.0), pf.cosine(math.sqrt(2.0), math.pi)]
    tails = [pf.cosine(math.sqrt(2.0), (N + k) * math.pi) for k in (1, 2)]
    c = coeffs[0] * parts[0]
    if N > 1:
        c = c + coeffs[1] * parts[1]
    for amp, prof in zip(tail, tails):
        c = c + amp * prof
    k = c + float(rng.uniform(0.02, 0.1)) * pf.polynomial([-0.5, 1.0])
    targets = -rng.uniform(1.0, 4.0, size=N) * problem.p
    L = place_gain(basis.eigenvalues[:N], project(c, basis, N), targets)
    return make_design(
        problem, basis, [OutputChannel(kernel=k, approximant=c)], L, N=N,
        sigma_fraction=0.9, lipschitz_R=float(rng.uniform(0.0, 0.05)),
    )


class TestCertificateProperties:
    def test_omega_monotone_in_h_and_kappa(self, rng):
        for _ in range(5):
            d = _random_design(rng)
            kappas = np.linspace(0.0, 0.9 * d.mu, 10)
            hs = np.linspace(0.01, 0.8, 10)
            for variant, fn in (("predictor", small_gain_predictor), ("zoh", small_gain_zoh)):
                grid_vals = np.array([[fn(d, h, k).omega for h in hs] for k in kappas])
                assert np.all(np.diff(grid_vals, axis=1) >= -1e-13), variant
                assert np.all(np.diff(grid_vals, axis=0) >= -1e-13), variant

    def test_zoh_dominates_predictor(self, rng):
        for _ in range(5):
            d = _random_design(rng)
            for h in (0.05, 0.3, 1.0):
                for k in (0.0, 0.5 * d.mu):
                    assert small_gain_zoh(d, h, k).omega >= small_gain_predictor(d, h, k).omega - 1e-14

    def test_certificate_soundness(self, rng, ex31_design, ex32_design):
        designs = [ex31_design, ex32_design] + [_random_design(rng) for _ in range(5)]
        for d in designs:
            defects = certificate_defects(d.A, d.P, d.sigma)
            assert defects["abscissa"] < 0.0
            assert defects["p_min"] >= 1.0 - 1e-10
            assert defects["decay_slack"] <= 1e-10
            # A is recomputable from the defining formula
            A2 = build_A(d.basis.eigenvalues[: d.N], d.L, d.c_coeffs)
            np.testing.assert_allclose(A2, d.A, rtol=0, atol=1e-13)

    def test_omega_recompute_determinism(self, rng):
        d = _random_design(rng)
        for variant, fn in (("predictor", small_gain_predictor), ("zoh", small_gain_zoh)):
            rep = fn(d, 0.21, 0.4 * d.mu)
            assert abs(small_gain(d, rep.h, rep.kappa, rep.variant).omega - rep.omega) <= 1e-12

    def test_omega_monotone_under_p_scaling(self, rng):
        # tail-free designs: the head branch of g~ stays active, so growing P
        # can only grow gamma and hence Omega
        for _ in range(3):
            d = _random_design(rng, with_tail=False)
            omegas = []
            for alpha in (1.0, 2.0, 5.0):
                scaled = dataclasses.replace(d, P=alpha * d.P, sigma=d.sigma)
                defects = certificate_defects(scaled.A, scaled.P, scaled.sigma)
                assert defects["decay_slack"] <= 1e-9 * max(1.0, defects["p_norm"])
                omegas.append(small_gain_predictor(scaled, 0.2, 0.0).omega)
            assert omegas[0] <= omegas[1] + 1e-13
            assert omegas[1] <= omegas[2] + 1e-13


def _assert_designs_equal(a, b):
    """Field-for-field equality, exact for every array and scalar."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=f.name)
        else:
            assert x == y, f.name


def _omegas(design):
    return [small_gain(design, h, 0.5 * design.mu, v).omega
            for h in (0.05, 0.3) for v in ("predictor", "zoh")]


class TestReplaceRederives:
    """dataclasses.replace re-runs ObserverDesign.__post_init__, so a replaced
    design carries the certificate of its own inputs or raises."""

    @pytest.mark.parametrize("with_tail", [False, True], ids=["tail_free", "tail"])
    @settings(derandomize=True, deadline=None, max_examples=4)
    @given(
        seed=st.integers(0, 2**32 - 1),
        q_factor=st.floats(1.01, 20.0),
        alpha=st.floats(1.0, 5.0),
    )
    def test_replace_matches_rebuilt_design(self, with_tail, seed, q_factor, alpha):
        d = _random_design(np.random.default_rng(seed), with_tail, N=2)
        bound = 2.0 * d.ltpl_norm * d.K**2 / (d.sigma * d.lam_next)
        Q = max(2.0, bound) * q_factor
        replaced = dataclasses.replace(d, Q=Q)
        rebuilt = make_design(d.problem, d.basis, d.channels, d.L, d.N, Q=Q, P=d.P,
                              sigma=d.sigma, lipschitz_R=d.lipschitz_R)
        _assert_designs_equal(replaced, rebuilt)
        assert _omegas(replaced) == _omegas(rebuilt)

        P = alpha * d.P
        # alpha scales the tail-coupling bound too, past d.Q for some draws: Q is picked afresh
        replaced = dataclasses.replace(d, P=P, sigma=d.sigma, Q=None)
        assert replaced.P_norm == pytest.approx(alpha * d.P_norm, rel=1e-12)

        with pytest.raises(InvalidCertificate):
            dataclasses.replace(d, sigma=2.0 * d.sigma)

    @pytest.mark.parametrize("with_tail", [False, True], ids=["tail_free", "tail"])
    @settings(derandomize=True, deadline=None, max_examples=4)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 0.2))
    def test_replaced_channels_rederive_their_constants(self, with_tail, seed, scale):
        d = _random_design(np.random.default_rng(seed), with_tail, N=2)
        ch = d.channels[0]
        new = (OutputChannel(kernel=scale * ch.kernel, approximant=scale * ch.approximant),)
        A = build_A(d.basis.eigenvalues[: d.N], d.L, project(new[0].approximant, d.basis)[None, :])
        # the scaled gain leaves an eigenvalue of A above -sigma, where the old
        # (P, sigma) cannot certify it
        assert certificate_defects(A, d.P, d.sigma)["abscissa"] > -d.sigma
        with pytest.raises(InvalidCertificate):
            dataclasses.replace(d, channels=new)

        P, sigma = lyapunov_certificate(A, 0.9)
        replaced = dataclasses.replace(d, channels=new, P=P, sigma=sigma, Q=None)
        rebuilt = make_design(d.problem, d.basis, new, d.L, d.N, P=P, sigma=sigma,
                              lipschitz_R=d.lipschitz_R)
        _assert_designs_equal(replaced, rebuilt)
        assert _omegas(replaced) == _omegas(rebuilt)

    def test_replaced_channel_is_not_certified_with_stale_constants(self, ex31_design):
        # c = 1/4 halves A to -pi^2/4, which P = [1], sigma = pi^2/2 does not
        # certify; a stale design certified Omega(h=0.3) = 0.408 here
        new = (OutputChannel(kernel=pf.polynomial([0.0, 1.0]), approximant=pf.constant(0.25)),)
        with pytest.raises(InvalidCertificate):
            dataclasses.replace(ex31_design, channels=new)
        # with L = -2 pi^2, A = -pi^2/2 again and the same pair certifies it;
        # ||k - c|| = sqrt(7/48) then gives Omega = sqrt(7/6) at kappa = 0
        d = dataclasses.replace(ex31_design, channels=new, L=np.array([[-2.0 * math.pi**2]]))
        assert d.c_coeffs[0, 0] == pytest.approx(0.25, rel=1e-15)
        assert d.norm_gap[0] == pytest.approx(math.sqrt(7.0 / 48.0), rel=1e-12)
        for h in (0.05, 0.3, 1.0):
            assert small_gain_predictor(d, h, 0.0).omega == pytest.approx(math.sqrt(7.0 / 6.0),
                                                                          rel=1e-12)

    def test_only_the_chosen_quantities_are_inputs(self, ex31_design):
        inputs = [f.name for f in dataclasses.fields(ex31_design) if f.init]
        assert inputs == ["problem", "basis", "channels", "N", "L", "P", "sigma", "Q",
                          "lipschitz_R"]
        for derived in ("c_coeffs", "k_tail", "norm_c", "norm_k", "norm_gap", "norm_stiff"):
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(ex31_design, **{derived: getattr(ex31_design, derived)})

    def test_replace_of_Q_rederives_the_certificate(self, ex31_design):
        # a stale certificate gave Omega = 0.408 here: feasible where the
        # design with Q = 50 is not
        d = dataclasses.replace(ex31_design, Q=50.0)
        assert small_gain_predictor(d, 0.3, 0.0).omega == 1.4433756729740645

    def test_replace_below_two_raises(self, ex31_design):
        with pytest.raises(QInfeasible):
            dataclasses.replace(ex31_design, Q=1.0)

    def test_q_above_the_bound_by_roundoff_raises(self, rng):
        # a Q one ulp above the tail bound can leave mu = 0, where no kappa
        # and no Omega exist; every design that exists must have mu > 0
        d = _random_design(rng, with_tail=True, N=2)
        bound = 2.0 * d.ltpl_norm * d.K**2 / (d.sigma * d.lam_next)
        d = dataclasses.replace(d, P=10.0 / bound * d.P, Q=None)  # bound 10, Q 20
        Q, raised = 2.0 * d.ltpl_norm * d.K**2 / (d.sigma * d.lam_next), 0
        for _ in range(3):
            Q = math.nextafter(Q, math.inf)
            try:
                assert dataclasses.replace(d, Q=Q).mu > 0.0
            except QInfeasible:
                raised += 1
        assert raised > 0

    @pytest.mark.parametrize("bounds", [
        {"lipschitz_R": -1.0}, {"lipschitz_R": math.inf}, {"lipschitz_R": math.nan},
    ], ids=["R_negative", "R_inf", "R_nan"])
    def test_lipschitz_bounds_must_be_finite_and_non_negative(self, ex31_design, bounds):
        # R = -1 used to certify a smaller Omega, and R = -inf Omega = -inf
        with pytest.raises(InvalidLipschitzBound) as info:
            dataclasses.replace(ex31_design, **bounds)
        assert isinstance(info.value, ParobsError) and isinstance(info.value, ValueError)

    def test_invalid_certificate_is_typed_value_error(self, ex31_design):
        for bad in ({"sigma": 2.0 * ex31_design.sigma}, {"sigma": 0.0}, {"P": 0.5 * ex31_design.P}):
            with pytest.raises(InvalidCertificate) as info:
                dataclasses.replace(ex31_design, **bad)
            assert isinstance(info.value, ValueError)


class TestDesignValidation:
    def test_rejects_approximant_outside_domain(self, nn_problem, nn_basis, ex31_design):
        # x does not satisfy the Neumann conditions
        ch = OutputChannel(kernel=pf.constant(0.5), approximant=pf.polynomial([0.0, 1.0]))
        with pytest.raises(ApproximantOutsideDomain, match="Robin") as info:
            make_design(nn_problem, nn_basis, [ch], np.array([[-1.0]]), N=1)
        assert isinstance(info.value, ValueError)
        with pytest.raises(ApproximantOutsideDomain, match="Robin"):
            dataclasses.replace(ex31_design, channels=(ch,))

    def test_rejects_no_channels(self, ex31_design):
        with pytest.raises(ValueError, match="at least one output channel"):
            dataclasses.replace(ex31_design, channels=())

    def test_tail_truncation_warns_in_make_design_only(self, nn_problem):
        # all of K sits in mode 30 of a 60-mode basis: the last 50 modes carry it
        basis = analytic_eigensystem(nn_problem, 60, 1001)
        c = pf.constant(0.5) + pf.cosine(0.1 * math.sqrt(2.0), 30.0 * math.pi)
        with pytest.warns(UserWarning, match=r"last 50 carry 100\.0% of K\^2") as record:
            d = make_design(nn_problem, basis, [OutputChannel(kernel=c, approximant=c)],
                            np.array([[-math.pi**2]]), N=1, sigma_fraction=1.0)
        assert len(record) == 1
        assert d.k_tail.last_block_fraction == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dataclasses.replace(d, Q=5.0)

    def test_q_constraint(self, ex31_design):
        with pytest.raises(QInfeasible):
            dataclasses.replace(ex31_design, Q=1.5)


def test_sampled_approximant_takes_the_fd4_stiffness_path(ex32_design):
    # c of example 3.2 given as its samples on the 1001-node basis grid: the
    # stiffness norm comes from the fourth-order stencil, not the closed form
    cfg = cf.example32_config(1.0, 0.0, 1.0, horizon=1.0)
    grid = ex32_design.basis.grid
    values = (4.0 / math.pi * np.cos(0.5 * math.pi * grid)).tolist()
    cfg["design"]["channels"][0]["approximant"] = {"kind": "samples", "values": values}
    d = cf.build_design(cfg)
    assert isinstance(d.channels[0].approximant, pf.SampledProfile)
    for name in ("norm_stiff", "norm_gap", "mu"):
        np.testing.assert_allclose(getattr(d, name), getattr(ex32_design, name), rtol=1e-5,
                                   err_msg=name)


def test_design_json_roundtrip(tmp_path, ex31_design):
    doc = design_to_json(ex31_design)
    text = json.dumps(doc)
    rebuilt = design_from_json(json.loads(text))
    np.testing.assert_allclose(rebuilt.A, ex31_design.A, rtol=1e-14)
    assert rebuilt.sigma == pytest.approx(ex31_design.sigma)
    o1 = small_gain_predictor(ex31_design, 0.4, 0.1).omega
    o2 = small_gain_predictor(rebuilt, 0.4, 0.1).omega
    assert o1 == pytest.approx(o2, rel=1e-13)


def test_design_json_takes_numeric_profiles_and_names_unlabelled_channels(ex31_design):
    doc = json.loads(json.dumps(design_to_json(ex31_design)))
    del doc["channels"][0]["label"]
    doc["channels"][0]["approximant"] = 0.5  # a number, as configs allow
    rebuilt = design_from_json(doc)
    assert rebuilt.channels[0].label == "y1"
    assert rebuilt.channels[0].approximant.spec() == ex31_design.channels[0].approximant.spec()
    assert rebuilt.mu == ex31_design.mu


def test_design_json_rejects_a_basis_of_another_plant(ex31_design):
    # the analytic basis is re-created from doc["problem"], which no longer
    # has the eigenvalues the design was made with
    doc = json.loads(json.dumps(design_to_json(ex31_design)))
    doc["problem"]["p"] = 2.0
    with pytest.raises(InvalidSpec, match=r"analytic basis: lambda_2 = 19\.739.*records 9\.869"):
        design_from_json(doc)

import math

import numpy as np
import pytest

from parobs import profiles as pf
from parobs.errors import GridMismatch


def quad_inner(f, g, n=200001):
    x = np.linspace(0.0, 1.0, n)
    return np.trapezoid(f.values(x) * g.values(x), x)


def test_polynomial_inner_exact():
    f = pf.polynomial([0.0, 1.0])  # x
    g = pf.polynomial([1.0, 0.0, -2.0])  # 1 - 2 x^2
    # int x (1 - 2 x^2) = 1/2 - 2/4 = 0
    assert f.inner(g) == pytest.approx(0.0, abs=1e-15)
    assert f.inner(f) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_kernel_gap_norms_match_closed_forms():
    # the two worked designs' approximation gaps
    gap1 = (pf.polynomial([0.0, 1.0]) - pf.constant(0.5)).norm()
    assert gap1 == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), rel=1e-14)
    gap2 = (pf.constant(1.0) - pf.cosine(4.0 / math.pi, math.pi / 2.0)).norm()
    assert gap2 == pytest.approx(math.sqrt(math.pi**2 - 8.0) / math.pi, rel=1e-14)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_poly_times_cosine_moment_vs_quadrature(n):
    f = pf.Profile(poly=tuple([0.0] * n + [1.0]))
    g = pf.cosine(1.3, 2.7, 0.4)
    assert f.inner(g) == pytest.approx(quad_inner(f, g), abs=5e-11)


def test_cosine_cosine_inner_vs_quadrature():
    f = pf.cosine(2.0, math.pi, 0.1)
    g = pf.cosine(0.7, 2.5 * math.pi, -0.3)
    assert f.inner(g) == pytest.approx(quad_inner(f, g), abs=5e-11)
    assert f.inner(f) == pytest.approx(quad_inner(f, f), rel=1e-9)


def test_orthonormal_mode_pairings():
    phi2 = pf.cosine(math.sqrt(2.0), math.pi)
    phi3 = pf.cosine(math.sqrt(2.0), 2.0 * math.pi)
    assert phi2.inner(phi2) == pytest.approx(1.0, rel=1e-15)
    assert phi2.inner(phi3) == pytest.approx(0.0, abs=1e-15)


def test_derivative_closed_form():
    c = pf.cosine(4.0 / math.pi, math.pi / 2.0)
    d2 = c.derivative(2)
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(
        d2.values(x), -math.pi * np.cos(math.pi * x / 2.0), rtol=1e-14, atol=1e-14
    )
    p = pf.polynomial([1.0, 2.0, 3.0])
    assert p.derivative().values(0.5) == pytest.approx(2.0 + 6.0 * 0.5)


def test_sine_is_shifted_cosine():
    s = pf.sine(math.sqrt(2.0), math.pi)
    x = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(s.values(x), math.sqrt(2.0) * np.sin(math.pi * x), atol=1e-15)


def test_algebra_and_spec_roundtrip():
    f = 2.0 * pf.cosine_series(1.0, [0.5, 0.0, -0.25]) - pf.polynomial([0.0, 1.0])
    g = pf.profile_from_spec(f.spec())
    x = np.linspace(0.0, 1.0, 23)
    np.testing.assert_allclose(g.values(x), f.values(x), rtol=0, atol=1e-15)


def test_sampled_profile_interp_and_mismatch():
    grid = np.linspace(0.0, 1.0, 11)
    sp = pf.SampledProfile(grid, grid**2)
    assert sp.values(np.array([0.05]))[0] == pytest.approx(0.005, abs=1e-12)
    with pytest.raises(GridMismatch):
        pf.SampledProfile(grid, np.zeros(7))


def test_inner_l2_quadrature_fallback():
    grid = np.linspace(0.0, 1.0, 5001)
    sp = pf.SampledProfile(grid, grid)
    f = pf.constant(1.0)
    assert pf.inner_l2(f, sp, grid) == pytest.approx(0.5, rel=1e-9)
    with pytest.raises(GridMismatch):
        pf.inner_l2(f, sp)


def test_as_profile_coercions():
    grid = np.linspace(0.0, 1.0, 11)
    assert isinstance(pf.as_profile(2.5), pf.Profile)
    with pytest.raises(TypeError, match="cannot interpret"):
        pf.as_profile(lambda x: x + 1)
    assert isinstance(pf.as_profile(np.ones(11), grid), pf.SampledProfile)
    with pytest.raises(GridMismatch):
        pf.as_profile([1.0, 2.0, 3.0])


@pytest.mark.parametrize("first", [{"kind": "constant", "value": 1.0}, 1.0], ids=["spec", "number"])
def test_sum_of_closed_form_parts_is_exact(first):
    # a number part is a constant, as validate_config allows
    f = pf.profile_from_spec({"kind": "sum", "parts": [first, {"kind": "cosine_series", "coeffs": [0.5]}]})
    assert f == pf.cosine_series(1.0, [0.5])


def test_sum_with_a_sampled_part_adds_on_the_grid():
    grid = np.linspace(0.0, 1.0, 11)
    spec = {"kind": "sum", "parts": [{"kind": "constant", "value": 1.0},
                                     {"kind": "samples", "values": (grid**2).tolist()}]}
    f = pf.profile_from_spec(spec, grid)
    assert not f.closed_form
    np.testing.assert_array_equal(f.values(grid), 1.0 + grid**2)

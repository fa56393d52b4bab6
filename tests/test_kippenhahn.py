"""Tests for the Kippenhahn polynomial routes and the spectral sweep.

The two polynomial routes (the eigenvalue sweep of the pencil and the
closed-form 5x5 expansion) are developed independently, so their agreement on random
upper-triangular input is the strongest correctness signal in the whole
package and is checked here on a small batch; the full 200-matrix run
lives in the acceptance suite.
"""

import numpy as np
import pytest
import scipy.linalg

from kippcurve.errors import BadDims, NotDim5, NotUpperTriangular
from kippcurve.generators import haar_unitary, jordan_shift, two_ellipse_block
from kippcurve.homopoly import HomoPoly3, dict_mul, max_abs_coeff, max_coeff_diff, substitute_linear
from kippcurve.kippenhahn import (
    boundary_polyline,
    curve_points,
    kipp_poly_det,
    kipp_poly_expanded,
    spectral_slice,
    support_function,
)


def random_upper(rng, n=5):
    t = rng.uniform(-1, 1, size=(n, n)) + 1j * rng.uniform(-1, 1, size=(n, n))
    return np.triu(t)


# --- eigenvalue-sweep route ---


def test_det_route_j2():
    # [[0,1],[0,0]]: H = [[0,1/2],[1/2,0]], K = [[0,-i/2],[i/2,0]] give
    # det = z^2 - x^2/4 - y^2/4
    p = kipp_poly_det(jordan_shift(2))
    assert p.degree == 2
    assert abs(p.coeff(0, 0, 2) - 1.0) < 1e-14
    assert abs(p.coeff(2, 0, 0) + 0.25) < 1e-12
    assert abs(p.coeff(0, 2, 0) + 0.25) < 1e-12
    assert abs(p.coeff(1, 1, 0)) < 1e-12
    assert abs(p.coeff(1, 0, 1)) < 1e-12
    assert abs(p.coeff(0, 1, 1)) < 1e-12


def test_det_route_diagonal_factors():
    lams = [0.3 + 0.4j, -0.5, 0.2 - 0.6j]
    p = kipp_poly_det(np.diag(lams))
    rng = np.random.default_rng(1)
    for x, y, z in rng.normal(size=(12, 3)):
        want = np.prod([lam.real * x + lam.imag * y + z for lam in lams])
        assert abs(p(x, y, z) - want.real) < 1e-10


def test_det_route_monic():
    rng = np.random.default_rng(2)
    p = kipp_poly_det(random_upper(rng))
    assert p.coeff(0, 0, 5) == 1.0


def test_det_route_scale_invariant_conditioning():
    # each z-layer is fitted on its own scale, so huge inputs still fit
    rng = np.random.default_rng(3)
    a = 1e3 * random_upper(rng)
    p = kipp_poly_det(a)
    q = kipp_poly_expanded(a)
    assert max_coeff_diff(p, q) < 1e-9 * max(1.0, max_abs_coeff(p))


def test_det_route_degree_guard():
    with pytest.raises(BadDims):
        kipp_poly_det(np.zeros((13, 13)))


@pytest.mark.parametrize("n", range(6, 13))
def test_det_route_whole_degree_range(n):
    """Every advertised degree fits, matches det(xH + yK + zI) at points off
    the fitted angles and obeys the translation and rotation laws."""
    rng = np.random.default_rng(100 + n)
    a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / 2.0
    p = kipp_poly_det(a)
    h = (a + a.conj().T) / 2.0
    k = (a - a.conj().T) / 2.0j
    for x, y, z in rng.normal(size=(4, 3)):
        want = np.linalg.det(x * h + y * k + z * np.eye(n)).real
        scale = sum(abs(c * x**i * y**j * z**kk) for (i, j, kk), c in p.coeffs.items())
        assert abs(p(x, y, z) - want) < 1e-9 * max(1.0, scale)

    bound = 1e-9 * max(1.0, max_abs_coeff(p))
    c = complex(*rng.normal(size=2)) / 2.0
    shifted = kipp_poly_det(a + c * np.eye(n))
    assert max_coeff_diff(shifted, substitute_linear(p, (1, 0, 0), (0, 1, 0), (c.real, c.imag, 1.0))) < bound
    phi = float(rng.uniform(0.0, 2.0 * np.pi))
    cs, sn = np.cos(phi), np.sin(phi)
    rotated = kipp_poly_det(np.exp(1j * phi) * a)
    assert max_coeff_diff(rotated, substitute_linear(p, (cs, sn, 0.0), (-sn, cs, 0.0), (0.0, 0.0, 1.0))) < bound


def test_direct_sum_oracle_degree_10():
    # p of a direct sum is the product of the blocks' polynomials, so the
    # closed form checks the sweep route at degree 10
    rng = np.random.default_rng(12)
    for _ in range(5):
        a, b = random_upper(rng), random_upper(rng)
        want = HomoPoly3(10, dict_mul(kipp_poly_expanded(a).coeffs, kipp_poly_expanded(b).coeffs))
        got = kipp_poly_det(scipy.linalg.block_diag(a, b))
        assert max_coeff_diff(got, want) < 1e-9 * max(1.0, max_abs_coeff(want))


# --- closed-form route ---


def test_expanded_needs_5x5():
    with pytest.raises(NotDim5):
        kipp_poly_expanded(jordan_shift(4))


def test_expanded_needs_upper_triangular():
    rng = np.random.default_rng(4)
    full = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    with pytest.raises(NotUpperTriangular):
        kipp_poly_expanded(full)


def test_oracle_agreement_batch():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        a = random_upper(rng)
        pd = kipp_poly_det(a)
        pe = kipp_poly_expanded(a)
        worst = max(worst, max_coeff_diff(pd, pe) / max(1.0, max_abs_coeff(pd)))
    assert worst < 1e-9


def test_oracle_agreement_two_ellipse():
    a = two_ellipse_block(0.3, -0.2j, 0.1 + 0.1j, -0.4, 0.2, 0.7, 0.5)
    assert max_coeff_diff(kipp_poly_det(a), kipp_poly_expanded(a)) < 1e-12


# --- transformation laws ---


def test_unitary_invariance():
    rng = np.random.default_rng(6)
    a = random_upper(rng)
    u = haar_unitary(5, rng)
    p = kipp_poly_det(a)
    q = kipp_poly_det(u.conj().T @ a @ u)
    assert max_coeff_diff(p, q) < 1e-10 * max(1.0, max_abs_coeff(p))


def test_translation_covariance():
    rng = np.random.default_rng(7)
    a = random_upper(rng)
    c = 0.4 - 0.3j
    p = kipp_poly_det(a)
    shifted = kipp_poly_det(a + c * np.eye(5))
    want = substitute_linear(p, (1, 0, 0), (0, 1, 0), (c.real, c.imag, 1.0))
    assert max_coeff_diff(shifted, want) < 1e-9 * max(1.0, max_abs_coeff(p))


def test_rotation_covariance():
    rng = np.random.default_rng(8)
    a = random_upper(rng)
    phi = 0.9
    p = kipp_poly_det(a)
    rotated = kipp_poly_det(np.exp(1j * phi) * a)
    cs, sn = np.cos(phi), np.sin(phi)
    want = substitute_linear(p, (cs, sn, 0.0), (-sn, cs, 0.0), (0.0, 0.0, 1.0))
    assert max_coeff_diff(rotated, want) < 1e-9 * max(1.0, max_abs_coeff(p))


# --- support function and spectral sweep ---


def test_support_function_scalar():
    a = np.array([[0.3 + 0.4j]])
    for theta in np.linspace(0, 2 * np.pi, 9):
        want = 0.3 * np.cos(theta) + 0.4 * np.sin(theta)
        assert abs(support_function(a, theta) - want) < 1e-14


def test_support_function_j5_constant():
    # the 5x5 shift has a circular range; the radius is the top eigenvalue
    # of the free tridiagonal matrix, cos(pi/6), independent of direction
    j5 = jordan_shift(5)
    vals = [support_function(j5, t) for t in np.linspace(0, 2 * np.pi, 41)]
    assert max(vals) - min(vals) < 1e-12
    assert abs(vals[0] - np.cos(np.pi / 6)) < 1e-12


def test_support_function_matches_curve_cloud():
    rng = np.random.default_rng(9)
    a = random_upper(rng)
    theta = 0.7
    h = support_function(a, theta)

    def proj(s):
        return float(np.max(np.cos(theta) * s.curve_points.real + np.sin(theta) * s.curve_points.imag))

    # the slice at theta attains the support value; no slice exceeds it
    assert abs(proj(spectral_slice(a, theta)) - h) < 1e-10
    assert max(proj(s) for s in curve_points(a, samples=64)) <= h + 1e-9


def test_spectral_slice_diag():
    a = np.diag([0.5, -0.25 + 0.1j])
    s = spectral_slice(a, 0.0)
    got = np.sort_complex(s.curve_points)
    want = np.sort_complex(np.array([0.5, -0.25 + 0.1j]))
    assert np.allclose(got, want, atol=1e-12)
    assert s.eigenvalues[0] <= s.eigenvalues[1]


def test_spectral_slice_degenerate_flag():
    # at theta = pi/2 both eigenvalues of Im(diag(1,-1)) vanish
    a = np.diag([1.0, -1.0])
    assert spectral_slice(a, np.pi / 2).degenerate
    assert not spectral_slice(a, 0.0).degenerate


def test_boundary_polyline_circle():
    pts = boundary_polyline(jordan_shift(2), samples=64)
    assert pts.shape == (64,)
    assert np.max(np.abs(np.abs(pts) - 0.5)) < 1e-10


def test_curve_cloud_on_components():
    """Every spectral-sweep point of the block fixture lies on one of the
    two planted ellipses or on the planted point."""
    foci = [(0.3 + 0.0j, -0.2j), (0.1 + 0.1j, -0.4 + 0.0j)]
    axes = [0.7, 0.5]
    loc = 0.2 + 0.0j
    a = two_ellipse_block(foci[0][0], foci[0][1], foci[1][0], foci[1][1], loc, *axes)
    worst = 0.0
    for s in curve_points(a, samples=48):
        for z in s.curve_points:
            best = abs(z - loc)
            for (f1, f2), minor in zip(foci, axes):
                major = np.sqrt(minor**2 + abs(f1 - f2) ** 2)
                best = min(best, abs(abs(z - f1) + abs(z - f2) - major))
            worst = max(worst, best)
    assert worst < 1e-8

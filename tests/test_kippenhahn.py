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

from kippcurve.classify import entry_condition_rhs, fit_disc, flat_report, two_ellipse_report
from kippcurve.errors import BadDims, IllConditionedInterpolation, NotDim5, NotUpperTriangular
from kippcurve.generators import haar_unitary, jordan_shift, two_ellipse_block
from kippcurve.homopoly import HomoPoly3, max_abs_coeff, max_coeff_diff, mul, substitute_linear
from kippcurve.kippenhahn import (
    _angles,
    _circle_sweep,
    _fit_sweep,
    _layer_projections,
    _pencil,
    _sweep,
    boundary_polyline,
    curve_points,
    kipp_poly_det,
    kipp_poly_expanded,
)
from kippcurve.linalg import hermitian_parts
from kippcurve.svgplot import render_svg


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


def lstsq_fit(a):
    """p_A with every z-layer fitted by its own lstsq, as before the cached projections."""
    n = a.shape[0]
    thetas = np.linspace(0.0, 2.0 * np.pi, 2 * n + 2, endpoint=False)
    h, k = (a + a.conj().T) / 2.0, (a - a.conj().T) / 2.0j
    lams = np.linalg.eigvalsh(np.cos(thetas)[:, None, None] * h + np.sin(thetas)[:, None, None] * k)
    esym = np.array([np.poly(-row).real for row in lams])  # prod (z + lam_j): e_0 .. e_n
    c = np.zeros((n + 1, n + 1))
    c[0, n] = 1.0
    for deg in range(1, n + 1):
        design = np.stack([np.cos(thetas) ** (deg - j) * np.sin(thetas) ** j for j in range(deg + 1)], 1)
        c[: deg + 1, n - deg] = np.linalg.lstsq(design, esym[:, deg], rcond=None)[0]
    return c


@pytest.mark.parametrize("n", range(1, 13))
def test_cached_projection_matches_lstsq(n):
    rng = np.random.default_rng(200 + n)
    a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / 2.0
    want = lstsq_fit(a)
    assert np.max(np.abs(kipp_poly_det(a).c - want)) < 1e-13 * max(1.0, np.max(np.abs(want)))


def test_cached_projections_read_only():
    kipp_poly_det(jordan_shift(5))
    for arr in _layer_projections(5):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0


def test_fit_rejects_eigenvalues_of_no_pencil():
    # sorted random numbers are no pencil's eigenvalues: their symmetric
    # functions are no trigonometric forms of the right degree
    thetas, _ = _sweep(jordan_shift(5))
    lams = np.sort(np.random.default_rng(13).normal(size=(thetas.size, 5)), axis=1)
    with pytest.raises(IllConditionedInterpolation):
        _fit_sweep(lams)


def test_direct_sum_oracle_degree_10():
    # p of a direct sum is the product of the blocks' polynomials, so the
    # closed form checks the sweep route at degree 10
    rng = np.random.default_rng(12)
    for _ in range(5):
        a, b = random_upper(rng), random_upper(rng)
        want = HomoPoly3(mul(kipp_poly_expanded(a).c, kipp_poly_expanded(b).c))
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


def _closed_form_values(t):
    roles = (2, 0, 4, 1, 3)
    reports = (two_ellipse_report(t, roles, 0.7, 0.45), flat_report(t, roles, 0.6, 0.8, 0.35))
    return kipp_poly_expanded(t).c, entry_condition_rhs(t), [[(r.lhs, r.rhs) for r in rep.rows] for rep in reports]


def test_closed_form_calls_no_eigensolver(monkeypatch):
    # the oracle must stay independent of the sweep route it checks
    t = random_upper(np.random.default_rng(2016))
    want = _closed_form_values(t)

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(scipy.linalg, "schur", refuse)
    got = _closed_form_values(t)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


def test_closed_form_ignores_tolerated_lower_entries():
    # entries below the diagonal within the 1e-12 tolerance of the check
    # are read as zero, not folded into the pencil
    t = random_upper(np.random.default_rng(8))
    noisy = t + 1e-13 * np.tril(np.ones((5, 5)), -1)
    assert np.array_equal(kipp_poly_expanded(noisy).c, kipp_poly_expanded(t).c)
    assert entry_condition_rhs(noisy) == entry_condition_rhs(t)


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


# --- curve points of the spectral sweep ---


def test_support_function_matches_curve_cloud():
    rng = np.random.default_rng(9)
    gaussians = [(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / 2.0 for n in range(2, 13)]
    samples = 64
    thetas = 2 * np.pi * np.arange(samples) / samples
    for a in [random_upper(rng)] + gaussians:
        n, scale = a.shape[0], max(1.0, np.linalg.norm(a))
        h, k = (a + a.conj().T) / 2, (a - a.conj().T) / 2j
        support = np.array([np.linalg.eigvalsh(np.cos(th) * h + np.sin(th) * k)[-1] for th in thetas])
        pts = curve_points(a, samples=samples)
        assert pts.shape == (samples, n)

        # every curve point is u* A u for its own pencil eigenvector u
        _, vecs = np.linalg.eigh(_pencil(*hermitian_parts(a), thetas))
        want = [[np.vdot(u, a @ u) for u in v.T] for v in vecs]
        assert np.max(np.abs(pts - want)) < 1e-13

        # the boundary point at theta attains the support value there, and
        # no point of the cloud lies beyond any supporting line
        b = boundary_polyline(a, samples=samples)
        assert np.max(np.abs((np.exp(-1j * thetas) * b).real - support)) < 1e-12 * scale
        proj = (np.exp(-1j * thetas)[:, None] * pts.ravel()).real
        assert np.max(proj.max(axis=1) - support) < 1e-12 * scale


def test_spectral_slice_diag():
    # the slice at angle 0 lists u* A u by ascending eigenvalue of Re A
    a = np.diag([0.5, -0.25 + 0.1j])
    got = curve_points(a, samples=8)[0]
    assert np.allclose(got, [-0.25 + 0.1j, 0.5], atol=1e-12)


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
    for z in curve_points(a, samples=48).ravel():
        best = abs(z - loc)
        for (f1, f2), minor in zip(foci, axes):
            major = np.sqrt(minor**2 + abs(f1 - f2) ** 2)
            best = min(best, abs(abs(z - f1) + abs(z - f2) - major))
        worst = max(worst, best)
    assert worst < 1e-8


# --- the half-circle fold: the pencil at theta + pi is minus the one at theta ---


def gaussian(n, seed=0):
    rng = np.random.default_rng([seed, n])
    return (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / 2.0


def direct_sweep(a, samples):
    """Eigenvalues (eigvalsh) and curve points (eigh) of the pencil at every angle, no fold."""
    pencil = _pencil(*hermitian_parts(a), _angles(samples))
    _, vecs = np.linalg.eigh(pencil)
    return np.linalg.eigvalsh(pencil), np.einsum("tik,tik->tk", vecs.conj(), a @ vecs)


@pytest.mark.parametrize("n", range(2, 13))
def test_poly_det_diagonalizes_half_its_sweep(count_eigensolves, n):
    kipp_poly_det(gaussian(n))
    assert count_eigensolves == {"eigh": [], "eigvalsh": [n + 1]}


@pytest.mark.parametrize("samples, stack", [(64, 32), (65, 65)])
def test_fit_disc_stack(count_eigensolves, samples, stack):
    fit_disc(gaussian(5), samples)
    assert count_eigensolves == {"eigh": [], "eigvalsh": [stack]}


@pytest.mark.parametrize("samples, stack", [(256, 128), (255, 255)])
def test_curve_points_stack(count_eigensolves, samples, stack):
    curve_points(gaussian(5), samples)
    assert count_eigensolves == {"eigh": [stack], "eigvalsh": []}


@pytest.mark.parametrize("samples", [2, 16, 64, 256])
def test_second_half_mirrors_first_exactly(samples):
    a, half = gaussian(7), samples // 2
    _, lams = _circle_sweep(a, samples)
    assert np.array_equal(lams[half:], -lams[:half, ::-1])
    pts = curve_points(a, samples)
    assert np.array_equal(pts[half:], pts[:half, ::-1])


@pytest.mark.parametrize("samples", [1, 15, 65, 255])
def test_odd_samples_sweep_in_full(samples):
    a = gaussian(6)
    lams, pts = direct_sweep(a, samples)
    assert np.array_equal(_circle_sweep(a, samples)[1], lams)
    assert np.array_equal(curve_points(a, samples), pts)


@pytest.mark.parametrize("samples", [16, 64, 256])
def test_fold_matches_direct_sweep(samples):
    for n in range(2, 13):
        a = gaussian(n, seed=1)
        bound = 1e-13 * max(1.0, np.linalg.norm(a, 2))
        lams, pts = direct_sweep(a, samples)
        assert np.max(np.abs(curve_points(a, samples) - pts)) < bound
        # the support samples fit_disc fits: the top column
        assert np.max(np.abs(_circle_sweep(a, samples)[1][:, -1] - lams[:, -1])) < bound


def test_fit_disc_matches_direct_fit():
    a = gaussian(5, seed=2)
    thetas = _angles(64)
    design = np.stack([np.ones(64), np.cos(thetas), np.sin(thetas)], axis=1)
    coef, *_ = np.linalg.lstsq(design, direct_sweep(a, 64)[0][:, -1], rcond=None)
    fit = fit_disc(a)
    assert abs(fit.radius - coef[0]) < 1e-14
    assert abs(fit.center - complex(coef[1], coef[2])) < 1e-14


@pytest.mark.parametrize(
    "draw",
    [lambda a: curve_points(a, 0), lambda a: boundary_polyline(a, 0), lambda a: render_svg(a, samples=0)],
    ids=["curve_points", "boundary_polyline", "render_svg"],
)
def test_no_samples_rejected(draw):
    # zero samples used to give an empty boundary and an SVG path with no point
    with pytest.raises(ValueError, match="samples"):
        draw(jordan_shift(3))
    with pytest.raises(ValueError, match="samples"):
        curve_points(jordan_shift(3), -4)

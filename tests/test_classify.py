"""Tests for disc fitting, factor peeling, flat detection, and the reports."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import kippcurve.classify as classify_mod
from kippcurve.classify import (
    DEFAULT_TOL,
    classify_curve,
    detect_flat,
    disc_verdict,
    entry_condition_rhs,
    fit_disc,
    fit_ellipse_factor,
    flat_report,
    matched_reports,
    two_ellipse_report,
)
from kippcurve.errors import BadDims, NegativeMinorAxisSquared, NotDim5
from kippcurve.generators import (
    flat_3x3,
    haar_unitary,
    jordan_shift,
    s5_family,
    two_ellipse_block,
)
from kippcurve.generators import random_partial_isometry
from kippcurve.homopoly import HomoPoly3, divide, linear, mul
from kippcurve.kippenhahn import _pencil, kipp_poly_det, kipp_poly_expanded
from kippcurve.linalg import hermitian_parts, schur_triangularize


def lin(lam):
    return linear(lam.real, lam.imag, 1.0)


E4 = HomoPoly3.from_terms(2, {(2, 0, 0): 0.25, (0, 2, 0): 0.25}).c


def axis_square_by_redividing(p, li, lj, tol=1e-9):
    """The t = r^2 fit_ellipse_factor should pick, scoring each candidate by a fresh division.

    None when the pick is decisively negative.
    """
    pmax = np.max(np.abs(p.c))
    conic = mul(lin(li), lin(lj))

    def rem(t):
        return divide(p.c, conic - t * E4)[1].ravel()

    r0, r1, r2 = rem(0.0), rem(1.0), rem(2.0)
    u2 = (r2 - 2.0 * r1 + r0) / 2.0
    u1 = r1 - r0 - u2
    c = [r0 @ r0, 2.0 * (r0 @ u1), 2.0 * (r0 @ u2) + u1 @ u1, 2.0 * (u1 @ u2), u2 @ u2]
    dcoef = np.array([4.0 * c[4], 3.0 * c[3], 2.0 * c[2], c[1]])
    cands = [0.0]
    if np.max(np.abs(dcoef)) > 0.0:
        dn = dcoef / np.max(np.abs(dcoef))
        dn = dn[np.argmax(np.abs(dn) > 1e-14) :]
        t_zero = 1e-13 * max(1.0, abs(li), abs(lj)) ** 2
        for root in np.roots(dn) if len(dn) > 1 else []:
            if abs(root.imag) <= 1e-9 * (1.0 + abs(root.real)):
                cands.append(float(root.real) if abs(root.real) > t_zero else 0.0)
    exact = [t for t in cands if np.max(np.abs(rem(t))) / pmax < 1e-10]
    best = max(exact) if exact else min(cands, key=lambda t: c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3 + c[4] * t**4)
    return None if best < -tol else max(best, 0.0)


# --- disc fit ---


class TestFitDisc:
    def test_j2(self):
        fit = fit_disc(jordan_shift(2))
        assert abs(fit.center) < 1e-12
        assert abs(fit.radius - 0.5) < 1e-12
        assert fit.residual < 1e-12

    def test_shifted_disc(self):
        c = 0.3 - 0.2j
        fit = fit_disc(jordan_shift(2) + c * np.eye(2))
        assert abs(fit.center - c) < 1e-12
        assert abs(fit.radius - 0.5) < 1e-12

    def test_noncircular_has_residual(self):
        fit = fit_disc(np.diag([1.0, -1.0]))
        assert fit.residual > 1e-2

    def test_translation_equivariance(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        c = 0.7 + 0.4j
        f0, f1 = fit_disc(a), fit_disc(a + c * np.eye(5))
        assert abs(f1.center - f0.center - c) < 1e-10
        assert abs(f1.radius - f0.radius) < 1e-10
        assert abs(f1.residual - f0.residual) < 1e-10

    def test_rotation_equivariance_on_grid(self):
        # sample-grid-commensurate angles map the design onto itself, so
        # center, radius, and residual transform exactly; incommensurate
        # angles are only equivariant up to aliasing of the support samples
        rng = np.random.default_rng(22)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        phi = 2 * np.pi * 9 / 64
        f0, f1 = fit_disc(a, samples=64), fit_disc(np.exp(1j * phi) * a, samples=64)
        assert abs(f1.center - np.exp(1j * phi) * f0.center) < 1e-10
        assert abs(f1.radius - f0.radius) < 1e-10
        assert abs(f1.residual - f0.residual) < 1e-10

    def test_verdict(self):
        assert disc_verdict(fit_disc(jordan_shift(5)))
        assert not disc_verdict(fit_disc(np.diag([1.0, -1.0])))

    def test_verdict_radius_floor(self):
        # a single point fits a zero-radius circle perfectly; not a disc
        assert not disc_verdict(fit_disc(np.zeros((3, 3))))

    @pytest.mark.parametrize("tol_disc", [float("nan"), 0.0, -1.0, float("inf")])
    def test_verdict_meaningless_tol_rejected(self, tol_disc):
        # inf would call this Gaussian matrix (support residual 1.25)
        # circular, and nan or a tolerance <= 0 would call nothing circular
        rng = np.random.default_rng(23)
        fit = fit_disc(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        with pytest.raises(ValueError, match="tol_disc"):
            disc_verdict(fit, tol_disc)

    @pytest.mark.parametrize("samples", [0, 3, 15])
    def test_too_few_samples_rejected(self, samples):
        # 3 samples fit any support function exactly: a random partial
        # isometry would read as a disc with residual 1e-16
        with pytest.raises(ValueError):
            fit_disc(random_partial_isometry(5, 2, 3), samples)


# --- linear and quadratic factor peeling ---


class TestFitEllipseFactor:
    def test_planted_pair(self):
        l1, l2 = 0.3 + 0.1j, -0.2 - 0.4j
        a = two_ellipse_block(l1, l2, 0.1, -0.3, 0.0, 0.8, 0.4)
        p = kipp_poly_det(a)
        r, quot, resid = fit_ellipse_factor(p, l1, l2)
        assert abs(r - 0.8) < 1e-10
        assert resid < 1e-10
        assert quot.degree == 3

        # the quadratic remainder model picks the t that re-dividing at
        # every candidate picks: criterion-3 draws and random partial isometries
        rng = np.random.default_rng(11002)
        mats = []
        for _ in range(50):
            lams = [0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()) for _ in range(5)]
            r_, s_ = rng.uniform(0.3, 0.9, size=2)
            u = haar_unitary(5, rng)
            mats.append(u.conj().T @ two_ellipse_block(*lams, r_, s_) @ u)
        mats += [random_partial_isometry(5, 1 + i % 3, 5000 + i) for i in range(200)]
        for a in mats:
            p = kipp_poly_det(a)
            eigs = schur_triangularize(a, order="lex").eigenvalues
            for i in range(5):
                for j in range(i + 1, 5):
                    want = axis_square_by_redividing(p, eigs[i], eigs[j])
                    try:
                        r, quot, resid = fit_ellipse_factor(p, eigs[i], eigs[j])
                    except NegativeMinorAxisSquared:
                        r = None
                    assert (r is None) == (want is None), (i, j, r, want)
                    if want is not None:
                        assert r == np.sqrt(want), (i, j, r, want)
                        # the affine quotient and quadratic residual match a fresh division
                        q_ref, rem = divide(p.c, mul(lin(eigs[i]), lin(eigs[j])) - r**2 * E4)
                        assert np.max(np.abs(quot.c - q_ref)) <= 1e-12 * max(1.0, np.max(np.abs(q_ref)))
                        assert abs(resid - np.max(np.abs(rem)) / np.max(np.abs(p.c))) <= 1e-14

    def test_degenerate_pair_gives_zero_axis(self):
        # a real focus pair has no ellipse: roundoff in the fitted axis
        # square must not come back as a positive minor axis
        p = kipp_poly_det(np.diag([0.5, -0.5, 0.2]))
        r, _, resid = fit_ellipse_factor(p, 0.5, -0.5)
        assert r == 0.0
        assert resid < 1e-10
        for scale in (1.0, 10.0):
            rng = np.random.default_rng(404)
            for _ in range(200):
                d = scale * rng.uniform(-1.0, 1.0, size=3)
                r, _, resid = fit_ellipse_factor(kipp_poly_det(np.diag(d)), d[0], d[1])
                assert r == 0.0, (d, r)
                assert resid < 1e-10

    def test_degree_outside_quadratic_remainder_rejected(self):
        # the remainder is quadratic in t = r^2 only up to degree 5
        p = kipp_poly_det(np.diag([0.5, -0.5, 0.2, 0.1j, -0.3j, 0.4]))
        with pytest.raises(ValueError):
            fit_ellipse_factor(p, 0.5, -0.5)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_meaningless_tol_rejected(self, tol):
        l1, l2 = 0.3 + 0.1j, -0.2 - 0.4j
        p = kipp_poly_det(two_ellipse_block(l1, l2, 0.1, -0.3, 0.0, 0.8, 0.4))
        with pytest.raises(ValueError, match="tol"):
            fit_ellipse_factor(p, l1, l2, tol)

    def test_zero_polynomial_rejected(self):
        # its remainder relative to p would be 0 / 0
        with pytest.raises(ValueError, match="^zero polynomial$"):
            fit_ellipse_factor(HomoPoly3(np.zeros((4, 4))), 0.3, -0.2)

    @pytest.mark.parametrize("name, li, lj", [("li", np.inf, 0.0), ("lj", 0.3, complex(np.nan, 0.0))])
    def test_nonfinite_focus_rejected(self, name, li, lj):
        # an infinite focus gave r = 0 with a nan residual and no error
        p = kipp_poly_det(two_ellipse_block(0.3 + 0.1j, -0.2 - 0.4j, 0.1, -0.3, 0.0, 0.8, 0.4))
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            fit_ellipse_factor(p, li, lj)

    def test_negative_axis_square_raises(self):
        # plant a "conic" factor with t = -1: legitimate polynomial, not an ellipse
        l1, l2 = 0.4, -0.4
        conic = mul(lin(complex(l1)), lin(complex(l2))) + E4
        p = HomoPoly3(mul(conic, lin(0.1 + 0.0j)))
        with pytest.raises(NegativeMinorAxisSquared):
            fit_ellipse_factor(p, complex(l1), complex(l2))


# --- flat detection ---


FLAT_TOP = np.array([[0.3 + 0.1j, 0.7], [0.0, -0.2j]])  # the criterion-4 ellipse block

# flat_3x3 eigenvalues, theta, mu and the Haar seed of the flat items 104 and
# 188 of the benchmark's planted workload at seed 2108
PLANTED_MISSES = {
    104: (
        [-0.40869288149827276 - 0.010546804500486414j, -0.030469202055504595 - 0.4174981211125681j,
         0.38016854920463666 + 0.17422190490369j],
        2.763242806085674, 0.5156876519562905, 5225815067988226823,
    ),
    188: (
        [-0.23423816347833668 + 0.15417052607890536j, -0.09827192210556254 + 0.18330948101590272j,
         -0.4010721792554883 - 0.06372619417603297j],
        2.9079227086636714, 0.5187760271513685, 4531541294078531803,
    ),
}


def planted_flat_matrix(lams, theta, mu, unitary_seed):
    """(U* (FLAT_TOP + flat_3x3) U, theta, mu) with U Haar from unitary_seed."""
    u = haar_unitary(5, np.random.default_rng(unitary_seed))
    return u.conj().T @ scipy.linalg.block_diag(FLAT_TOP, flat_3x3(*lams, theta, mu)) @ u, theta, mu


def _disc_draw(rng, radius):
    return complex(radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))


def flat_params(rng):
    """(lams, theta, mu) of a flat_3x3 block, drawn as in acceptance criterion 4."""
    lams = [_disc_draw(rng, 0.45) for _ in range(3)]
    theta = float(rng.uniform(0.1, np.pi - 0.1))
    mu = max(0.0, -min((np.exp(-1j * theta) * l).real for l in lams)) + float(rng.uniform(0.1, 0.6))
    return lams, theta, mu


def criterion4_params():
    """(lams, theta, mu) of the 20 flat_3x3 blocks of acceptance criterion 4."""
    rng = np.random.default_rng(11003)
    return [flat_params(rng) for _ in range(20)]


def criterion4_blocks():
    """The 20 flat_3x3 blocks of acceptance criterion 4."""
    return [flat_3x3(*lams, theta, mu) for lams, theta, mu in criterion4_params()]


def flat_drop_inputs():
    """Flat blocks bare, conjugated and perturbed by eps G (||G|| = 1) for eps
    from 1e-10 to 1e-3, so that the split gap lands on both sides of tol;
    the three-point star; Gaussian n = 6..12, and one of norm about 1e-11,
    whose gaps all lie within tol while most exceed the Weyl rate times the
    grid step, so that only the slack keeps their brackets."""
    rng = np.random.default_rng(2108)
    planted = [planted_flat_matrix(*flat_params(rng), int(rng.integers(2**63)))[0] for _ in range(8)]
    planted += [planted_flat_matrix(*p)[0] for p in PLANTED_MISSES.values()]
    out = criterion4_blocks() + planted + [np.diag([1.0, 1.0j, -1.0])]
    for a in planted:
        for eps in (1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-6, 1e-3):
            g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            out.append(a + eps * g / np.linalg.norm(g, 2))
    for n in range(6, 13):
        out.append((rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / 2.0)
    out.append(1e-11 * out[-1][:5, :5])
    return out


# len(detect_flat(a, tol)) on flat_drop_inputs(), as the golden-section
# refinement that Newton's method replaced returned them
FLAT_DROP_COUNTS = {
    1e-9: [1] * 20 + [5, 3, 3, 3, 3, 3, 3, 3, 2, 3]
    + [3, 5, 5, 5, 2, 0, 0, 0, 3, 3, 3, 2, 0, 0, 0, 3, 3, 3, 2, 0, 0, 0, 3, 3, 3, 3, 0, 0, 0, 3, 3, 3, 1, 0, 0]
    + [0, 3, 3, 3, 3, 1, 0, 0, 3, 3, 3, 2, 0, 0, 0, 3, 3, 3, 2, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 3, 3, 3, 3, 0, 0]
    + [0, 0, 0, 0, 0, 0, 0, 0, 5],
    1e-7: [1] * 20 + [5, 3, 3, 3, 3, 3, 3, 3, 2, 3]
    + [3, 5, 5, 5, 5, 5, 0, 0, 3, 3, 3, 3, 3, 0, 0, 3, 3, 3, 3, 3, 1, 0, 3, 3, 3, 3, 3, 1, 0, 3, 3, 3, 3, 3, 0]
    + [0, 3, 3, 3, 3, 3, 0, 0, 3, 3, 3, 3, 3, 1, 0, 3, 3, 3, 3, 3, 0, 0, 2, 2, 2, 2, 2, 0, 0, 3, 3, 3, 3, 3, 0]
    + [0, 0, 0, 0, 0, 0, 0, 0, 5],
}


def gradient(p):
    """Exact partial derivatives (d/dx, d/dy, d/dz) of p from its coefficient array."""
    c, d = p.c, p.degree
    j, k = np.indices((d, d))
    steps = np.arange(1, d + 1)
    return [HomoPoly3(g) for g in ((d - j - k) * c[:d, :d], steps[:, None] * c[1:, :d], steps * c[:d, 1:])]


class TestDetectFlat:
    def test_three_point_star(self):
        # eigenvalues 1, i, -1: pairwise collisions of Re(e^{-i t} lam)
        # land at t = pi/4, pi/2, 3pi/4
        found = detect_flat(np.diag([1.0, 1.0j, -1.0]), tol=1e-8)
        assert len(found) == 3
        thetas = [t for t, _ in found]
        mus = [m for _, m in found]
        assert np.allclose(sorted(thetas), [np.pi / 4, np.pi / 2, 3 * np.pi / 4], atol=1e-6)
        by_theta = dict(zip(thetas, mus))
        assert abs(by_theta[min(thetas)] + np.sqrt(2) / 2) < 1e-6
        assert abs(by_theta[sorted(thetas)[1]]) < 1e-6

    def test_planted_flat(self):
        theta, mu = 0.3, 0.45
        c = flat_3x3(0.2, 0.1 + 0.3j, -0.1 - 0.2j, theta, mu)
        found = detect_flat(c, tol=1e-8)
        best = min(found, key=lambda tm: abs(tm[0] - theta))
        assert abs(best[0] - theta) < 1e-6
        assert abs(best[1] - mu) < 1e-6

    def test_no_flat_on_generic_ellipse(self):
        a = np.array([[0.3, 0.9], [0.0, -0.4 + 0.2j]])
        assert detect_flat(a, tol=1e-8) == []

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
    def test_meaningless_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            detect_flat(np.diag([1.0, 1.0j, -1.0]), tol=tol)

    def test_three_point_star_to_roundoff(self):
        found = detect_flat(np.diag([1.0, 1.0j, -1.0]))
        want = [(np.pi / 4, -np.sqrt(0.5)), (np.pi / 2, 0.0), (3 * np.pi / 4, -np.sqrt(0.5))]
        assert np.allclose(found, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("top", [False, True])
    def test_planted_directions_to_roundoff(self, top):
        # the criterion-4 blocks, bare and under the ellipse block
        for lams, theta, mu in criterion4_params():
            a = flat_3x3(*lams, theta, mu)
            found = detect_flat(scipy.linalg.block_diag(FLAT_TOP, a) if top else a)
            assert min(max(abs(t - theta), abs(m - mu)) for t, m in found) < 1e-12

    @pytest.mark.parametrize("scalar", [0.3, 0.0])
    def test_scalar_matrix_gives_every_grid_direction(self, count_eigensolves, scalar):
        # every gap of a scalar matrix's pencil is 0 at every angle: each of
        # the 4 x 256 grid points brackets a collision, all at once
        calls = count_eigensolves
        found = detect_flat(scalar * np.eye(5))
        thetas = np.linspace(0.0, np.pi, 256, endpoint=False)
        assert np.allclose(found, np.stack([thetas, -scalar * np.cos(thetas)], axis=1), rtol=0.0, atol=1e-12)
        # one eigh for all brackets, which stop and are accepted at g = 0;
        # eigvalsh for the grid scan alone
        assert calls["eigh"] == [4 * 256]
        assert calls["eigvalsh"] == [256]

    @pytest.mark.parametrize("item", sorted(PLANTED_MISSES))
    def test_collision_beside_a_smaller_gap(self, item):
        # at these planted flat items another pair's gap is the smaller one
        # on the grid points around the collision, so a scan of the smallest
        # gap alone gives the collision no bracket of its own
        a, theta, mu = planted_flat_matrix(*PLANTED_MISSES[item])
        found = detect_flat(a)
        assert min(max(abs(t - theta), abs(m - mu)) for t, m in found) < 1e-6
        assert "flat_quartic" in [c.kind for c in classify_curve(a, tol=1e-7)]

    @pytest.mark.parametrize("theta", [1e-7, 1e-4, np.pi - 1e-4, np.pi - 1e-7])
    @pytest.mark.parametrize("top", [False, True])
    def test_directions_across_the_wrap(self, theta, top):
        # near pi the direction kept comes from the bracket at grid angle 0,
        # whose iterate goes below 0: mapped back by pi, mu changes sign
        a = flat_3x3(0.2 + 0.1j, -0.15j, 0.1 - 0.05j, theta, 0.5)
        found = detect_flat(scipy.linalg.block_diag(FLAT_TOP, a) if top else a)
        off = [(abs(t - theta) % np.pi, abs(m - 0.5)) for t, m in found]
        assert min(max(min(dt, np.pi - dt), dm) for dt, dm in off) < 1e-12


def pairwise_dedupe(cands):
    """The rule of `_dedupe` as a scan over every pair."""
    out = []
    for th, mu in cands:
        if not any(min(abs(th - t0), np.pi - abs(th - t0)) < 1e-6 and abs(mu - m0) < 1e-6 for t0, m0 in out):
            out.append((th, mu))
    return out


class TestFlatDrop:
    def test_drops_change_nothing(self, monkeypatch):
        # with an infinite Weyl rate no bracket is ever dropped
        inputs = flat_drop_inputs()
        pruned = [detect_flat(a) for a in inputs]
        monkeypatch.setattr(classify_mod, "_weyl_rate", lambda lams: np.inf)
        reference = [detect_flat(a) for a in inputs]
        assert [repr(f) for f in pruned] == [repr(f) for f in reference]
        assert sum(map(len, pruned)) > 100

    @pytest.mark.parametrize("tol", sorted(FLAT_DROP_COUNTS))
    def test_pinned_direction_counts(self, tol):
        assert [len(detect_flat(a, tol)) for a in flat_drop_inputs()] == FLAT_DROP_COUNTS[tol]

    def test_few_eigensolves_per_bracket(self, count_eigensolves):
        # Newton's method lands on a true crossing in a few steps; brackets
        # refine in lockstep, one stacked eigh per step for all that are left,
        # and are accepted at their probes, so the grid scan is the only eigvalsh
        mats = [scipy.linalg.block_diag(FLAT_TOP, c) for c in criterion4_blocks()]
        mats += [planted_flat_matrix(*p)[0] for p in PLANTED_MISSES.values()]
        calls = count_eigensolves
        for a in mats:
            calls["eigh"].clear()
            calls["eigvalsh"].clear()
            assert detect_flat(a)
            assert 1 <= len(calls["eigh"]) <= 6
            assert calls["eigvalsh"] == [256]

    def test_weyl_rate_from_the_scan_is_sound(self):
        # w(A) <= L / 2 <= (||H|| + ||K||) / cos(pi / 512), w(A) the numerical
        # radius on a 2^15-angle grid (opposite angles share the largest |lam|);
        # the real diagonal meets the upper bound exactly, up to roundoff
        rng = np.random.default_rng(2108)
        mats = [(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / 2.0 for n in range(2, 13)]
        mats += [jordan_shift(5), np.diag([0.7, -1.3, 0.2, 1.1]), flat_drop_inputs()[-1]]
        for a in mats:
            h, k = hermitian_parts(a)
            scan = np.linalg.eigvalsh(_pencil(h, k, np.linspace(0.0, np.pi, 256, endpoint=False)))
            fine = np.linalg.eigvalsh(_pencil(h, k, np.linspace(0.0, np.pi, 2**14, endpoint=False)))
            half = classify_mod._weyl_rate(scan) / 2.0
            assert half >= np.max(np.abs(fine))
            assert half <= (np.linalg.norm(h, 2) + np.linalg.norm(k, 2)) / np.cos(np.pi / 512) * (1.0 + 1e-14)

    def test_dedupe_matches_pairwise_scan(self):
        # candidates clustered around the wrap at pi and within a few 1e-6 of each other;
        # the reference scan pins the rule for any faster _dedupe
        rng = np.random.default_rng(2108)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            th = rng.choice([0.0, 2e-6, 1.0, np.pi - 0.65e-6, np.pi - 1e-7], size=n)
            mu = rng.choice([0.0, 2e-6, -0.3], size=n)
            th = np.mod(th + rng.normal(scale=rng.choice([1e-7, 1e-6, 3e-6]), size=n), np.pi)
            mu = mu + rng.normal(scale=rng.choice([1e-7, 1e-6, 3e-6]), size=n)
            cands = list(zip(th.tolist(), mu.tolist()))
            assert classify_mod._dedupe(cands) == pairwise_dedupe(cands)

    def test_dedupe_of_a_scalar_matrix_matches_pairwise_scan(self, monkeypatch):
        # 0.3 I has 1024 candidates, 4 at each of the 256 grid directions
        seen = []
        dedupe = classify_mod._dedupe
        monkeypatch.setattr(classify_mod, "_dedupe", lambda cands: dedupe(seen.append(list(cands)) or seen[-1]))
        found = detect_flat(0.3 * np.eye(5))
        assert len(seen[0]) == 1024
        assert len(found) == 256
        assert found == sorted(pairwise_dedupe(seen[0]))

    def test_crossings_at_the_ends_of_a_repeated_eigenvalue(self):
        # the gaps inside the triple 0.3 are exactly 0 at every angle; where
        # 0.3 cos t meets 0.4 sin t (tan t = 3/4) or -0.2 cos t + 0.1 sin t
        # (tan t = 5), the next gap ends on a run of exact zeros
        found = detect_flat(np.diag([0.3, 0.3, 0.3, -0.2 + 0.1j, 0.4j]))
        for theta in (np.arctan(0.75), np.arctan(5.0)):
            mu = -0.3 * np.cos(theta)
            assert min(max(abs(t - theta), abs(m - mu)) for t, m in found) < 1e-6

    def test_matches_golden_directions(self):
        # the directions behind FLAT_DROP_COUNTS, value by value
        golden = json.loads((Path(__file__).parent / "golden" / "detect_flat_drop_inputs.json").read_text())
        inputs = flat_drop_inputs()
        for tol in (1e-9, 1e-7):
            want = golden[repr(tol)]
            assert len(want) == len(inputs)
            for a, dirs in zip(inputs, want):
                got = detect_flat(a, tol)
                assert len(got) == len(dirs)
                assert np.allclose(np.reshape(got, (-1, 2)), np.reshape(dirs, (-1, 2)), rtol=0.0, atol=1e-12)

    def test_every_collision_is_a_node(self):
        # a collision of two analytic eigenvalue branches is a double root
        # of p(cos t, sin t, .), so p and its gradient vanish there, on the
        # determinant route and on the closed form of the Schur form alike
        mats = [scipy.linalg.block_diag(FLAT_TOP, c) for c in criterion4_blocks()]
        mats += [planted_flat_matrix(*p)[0] for p in PLANTED_MISSES.values()]
        nodes = 0
        for a in mats:
            found = detect_flat(a)
            tri = schur_triangularize(a, order="lex").triangular
            for p in (kipp_poly_det(a), kipp_poly_expanded(tri)):
                scale = np.max(np.abs(p.c))
                for th, mu in found:
                    at = (np.cos(th), np.sin(th), mu)
                    assert abs(p(*at)) < 1e-12 * scale
                    assert max(abs(g(*at)) for g in gradient(p)) < 1e-12 * scale
                    # a point just off the node is not one
                    assert max(abs(g(at[0], at[1], mu + 1e-3)) for g in gradient(p)) > 1e-9 * scale
                    nodes += 1
        assert nodes > 100


# --- condition reports ---


class TestReports:
    def test_entry_rhs_diagonal_vanishes(self):
        t = np.diag([0.3, -0.2 + 0.1j, 0.0, 0.4j, -0.5])
        rhs = entry_condition_rhs(t)
        assert set(rhs) == set("abcdefg")
        assert all(abs(v) < 1e-15 for v in rhs.values())

    def test_two_ellipse_planted(self):
        lams = [0.3 + 0.1j, -0.2j, 0.1 - 0.3j, 0.25, -0.35]
        a = two_ellipse_block(*lams, 0.8, 0.55)
        rep = two_ellipse_report(a, (0, 1, 2, 3, 4), 0.8, 0.55)
        assert rep.max_residual < 1e-12
        assert [row.label for row in rep.rows] == list("abcdefg")

    def test_two_ellipse_wrong_roles(self):
        lams = [0.3 + 0.1j, -0.2j, 0.1 - 0.3j, 0.25, -0.35]
        a = two_ellipse_block(*lams, 0.8, 0.55)
        rep = two_ellipse_report(a, (0, 2, 1, 3, 4), 0.8, 0.55)
        assert rep.max_residual > 1e-3

    @pytest.mark.parametrize("roles", [(0, 0, 1, 2, 3), (0, 1, 2, 3, -1), (0, 1, 2, 3, 5), (0, 1, 2, 3)])
    def test_roles_not_a_permutation_rejected(self, roles):
        # a repeated position gave a meaningless report, -1 read position 4
        # and 5 raised IndexError
        f3 = flat_3x3(0.2, 0.1 + 0.3j, -0.1 - 0.2j, 0.0, 0.5)
        a = scipy.linalg.block_diag(np.array([[0.3 + 0.1j, 0.7], [0.0, -0.2j]]), f3)
        with pytest.raises(ValueError, match="permutation"):
            two_ellipse_report(a, roles, 0.8, 0.55)
        with pytest.raises(ValueError, match="permutation"):
            flat_report(a, roles, 0.7, 0.0, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["r", "s"])
    def test_two_ellipse_nonfinite_axis_rejected(self, name, bad):
        # nan * 0 in the target's product broke HomoPoly3's degree check instead
        a = two_ellipse_block(0.3 + 0.1j, -0.2j, 0.1 - 0.3j, 0.25, -0.35, 0.8, 0.55)
        axes = {"r": 0.8, "s": 0.55, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            two_ellipse_report(a, (0, 1, 2, 3, 4), **axes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["r", "theta", "mu"])
    def test_flat_nonfinite_parameter_rejected(self, name, bad):
        f3 = flat_3x3(0.2, 0.1 + 0.3j, -0.1 - 0.2j, 0.0, 0.5)
        a = scipy.linalg.block_diag(np.array([[0.3 + 0.1j, 0.7], [0.0, -0.2j]]), f3)
        params = {"r": 0.7, "theta": 0.0, "mu": 0.5, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            flat_report(a, (0, 1, 2, 3, 4), **params)

    def test_flat_planted(self):
        theta, mu = 0.0, 0.5
        f3 = flat_3x3(0.2, 0.1 + 0.3j, -0.1 - 0.2j, theta, mu)
        top = np.array([[0.3 + 0.1j, 0.7], [0.0, -0.2j]])
        a = scipy.linalg.block_diag(top, f3)
        rep = flat_report(a, (0, 1, 2, 3, 4), 0.7, theta, mu)
        assert rep.max_residual < 1e-12
        assert [row.label for row in rep.rows] == list("abcdefghi")
        # the disequality rows carry their margins as satisfied predicates
        assert rep.row("h").residual == 0.0
        assert rep.row("i").residual == 0.0

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
    def test_flat_meaningless_tol_rejected(self, tol):
        # nan and inf would fail rows (h), (i) on this planted block, 0 and -1 pass any margin
        f3 = flat_3x3(0.2, 0.1 + 0.3j, -0.1 - 0.2j, 0.0, 0.5)
        a = scipy.linalg.block_diag(np.array([[0.3 + 0.1j, 0.7], [0.0, -0.2j]]), f3)
        with pytest.raises(ValueError):
            flat_report(a, (0, 1, 2, 3, 4), 0.7, 0.0, 0.5, tol=tol)

    def test_report_values_pinned(self):
        # each side on its own, so a sign slip that hits lhs and rhs alike
        # still shows; the values come from an independent hand expansion
        # of every row as index sums over the matrix entries
        rng = np.random.default_rng(2016)
        t = np.triu(0.5 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))))
        roles = (2, 0, 4, 1, 3)
        rhs = {
            "a": 4.9999896182785415,
            "b": -2.5016125911262153 - 0.14166210047935734j,
            "c": -0.03003860962031174 - 0.2535762078060362j,
            "d": -0.3138261286298021 - 0.017055489449027017j,
            "e": 0.07450296604470627,
            "f": -0.20830746956371357,
            "g": -1.5215044572489682,
        }
        two_lhs = {
            "a": 0.6924999999999999,
            "b": -0.09638332739585055 + 0.3838404185982283j,
            "c": 0.004159045658120905 + 0.16628199229093865j,
            "d": -0.1441032882202713 - 0.1213804072364297j,
            "e": 0.01199312401220552,
            "f": -0.027826481972258215,
            "g": -0.16631053449481656,
        }
        flat_lhs = {
            "a": 3.6171357246050815,
            "b": -4.218015723735213 - 1.538181600376626j,
            "c": 1.3447781756462311 + 2.077947545263742j,
            "d": -0.1724424173097739 - 0.5671344890462113j,
            "e": -0.025549903400940127,
            "f": -0.013889139907797726,
            "g": 1.1157022479677696,
            "h": 0.08235736731219719,
            "i": 0.7810942708629723,
        }
        rhs.update(h=0.0, i=0.0)
        for rep, lhs in (
            (two_ellipse_report(t, roles, 0.7, 0.45), two_lhs),
            (flat_report(t, roles, 0.6, 0.8, 0.35), flat_lhs),
        ):
            assert [row.label for row in rep.rows] == list(lhs)
            for row in rep.rows:
                assert abs(row.lhs - lhs[row.label]) < 1e-12, row
                assert abs(row.rhs - rhs[row.label]) < 1e-12, row

    def test_rows_hold_complex_sides(self):
        # the condition sides print as [re, im] pairs, the predicate rows (h), (i) too
        rng = np.random.default_rng(2016)
        t = np.triu(0.5 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))))
        roles = (2, 0, 4, 1, 3)
        for rep in (two_ellipse_report(t, roles, 0.7, 0.45), flat_report(t, roles, 0.6, 0.8, 0.35)):
            for row in rep.rows:
                assert isinstance(row.lhs, complex) and isinstance(row.rhs, complex), row

    def test_report_row_lookup(self):
        lams = [0.1, 0.2, 0.3, 0.4, 0.5]
        a = two_ellipse_block(*lams, 0.5, 0.5)
        rep = two_ellipse_report(a, (0, 1, 2, 3, 4), 0.5, 0.5)
        with pytest.raises(KeyError):
            rep.row("z")


# --- full classification ---


class TestClassifyCurve:
    def test_jordan5(self):
        comps = classify_curve(jordan_shift(5))
        kinds = [c.kind for c in comps]
        assert kinds == ["point", "ellipse", "ellipse"]
        assert abs(comps[0].location) < 1e-9
        # concentric circles with radii sqrt(3)/2 and 1/2
        assert abs(comps[1].minor_axis - np.sqrt(3)) < 1e-8
        assert abs(comps[2].minor_axis - 1.0) < 1e-8
        for c in comps[1:]:
            assert abs(c.focus1) < 1e-8 and abs(c.focus2) < 1e-8

    def test_two_ellipse_round_trip(self):
        # the second block is confocal, and its point repeats a focus
        for lams in ([0.3 + 0.1j, -0.2j, 0.1 - 0.3j, 0.25, -0.35], [0.3, -0.2j, 0.3, -0.2j, 0.3]):
            a = two_ellipse_block(*lams, 0.8, 0.55)
            comps = classify_curve(a)
            kinds = sorted(c.kind for c in comps)
            assert kinds == ["ellipse", "ellipse", "point"]
            point = next(c for c in comps if c.kind == "point")
            assert abs(point.location - lams[4]) < 1e-8
            axes = sorted(c.minor_axis for c in comps if c.kind == "ellipse")
            assert abs(axes[0] - 0.55) < 1e-8
            assert abs(axes[1] - 0.8) < 1e-8

    def test_diagonal_is_five_points(self):
        # the second diagonal repeats 0.3 three times: one peel per copy
        for lams in ([0.3, -0.2 + 0.1j, 0.0, 0.4j, -0.5], [0.3, 0.3, -0.2 + 0.1j, 0.3, 0.4j]):
            comps = classify_curve(np.diag(lams))
            assert [c.kind for c in comps] == ["point"] * 5
            got = sorted((c.location.real, c.location.imag) for c in comps)
            want = sorted((l.real, l.imag) for l in map(complex, lams))
            assert np.allclose(got, want, atol=1e-9)

    def test_ellipse_plus_flat(self):
        f3 = flat_3x3(0.2, 0.1 + 0.3j, -0.1 - 0.2j, 0.0, 0.5)
        top = np.array([[0.3 + 0.1j, 0.7], [0.0, -0.2j]])
        a = scipy.linalg.block_diag(top, f3)
        comps = classify_curve(a)
        kinds = [c.kind for c in comps]
        assert kinds == ["ellipse", "flat_quartic"]
        flat = comps[1]
        assert abs(flat.theta - 0.0) < 1e-6
        assert abs(flat.mu - 0.5) < 1e-6
        assert len(flat.foci) == 3

    def test_flat_direction_with_small_weights_skipped(self, monkeypatch):
        # each weight mu_j = Re(e^{-i theta} l_j) + mu is 0.02, so their product 8e-6
        # is above tol 1e-7, where the flat cubic is matched, and at most tol 1e-5,
        # where the planted direction is still detected but skipped before the model fit
        theta, mu = 0.7, 0.2
        trio = [(0.02 - mu + 1j * y) * np.exp(1j * theta) for y in (0.3, -0.2, 0.05)]
        a = scipy.linalg.block_diag(np.diag([0.9 + 0.5j, -0.8 - 0.6j]), flat_3x3(*trio, theta, mu))
        comps = classify_curve(a, 1e-7)
        assert [c.kind for c in comps] == ["point", "point", "flat_quartic"]
        assert abs(comps[2].theta - theta) < 1e-9 and abs(comps[2].mu - mu) < 1e-9
        modelled = []
        real_model = classify_mod._flat_model
        monkeypatch.setattr(classify_mod, "_flat_model", lambda t, m, th: modelled.append(th) or real_model(t, m, th))
        comps = classify_curve(a, 1e-5)
        assert [c.kind for c in comps] == ["point", "point", "unclassified"]
        assert comps[2].degree == 3
        assert min(abs(th - theta) for th, _ in detect_flat(a, 1e-5)) < 1e-9
        assert all(abs(th - theta) > 1e-6 for th in modelled)

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
    def test_meaningless_tol_rejected(self, tol):
        # nan, 0 and -1 would report one unclassified quintic, inf five points
        a = two_ellipse_block(0.3 + 0.1j, -0.2j, 0.1 - 0.3j, 0.25, -0.35, 0.8, 0.55)
        with pytest.raises(ValueError):
            classify_curve(a, tol=tol)

    def test_non_5x5_rejected(self):
        with pytest.raises(NotDim5):
            classify_curve(jordan_shift(4))

    def test_irreducible_quintic_unclassified(self):
        comps = classify_curve(s5_family(0.4, 0.3 + 0.2j, 0.3 - 0.2j))
        assert [c.kind for c in comps] == ["unclassified"]
        assert comps[0].degree == 5

    def test_unitary_conjugation_invariance(self):
        lams = [0.3 + 0.1j, -0.2j, 0.1 - 0.3j, 0.25, -0.35]
        a = two_ellipse_block(*lams, 0.8, 0.55)
        u = haar_unitary(5, np.random.default_rng(30))
        comps = classify_curve(u.conj().T @ a @ u, tol=1e-7)
        axes = sorted(c.minor_axis for c in comps if c.kind == "ellipse")
        assert len(axes) == 2
        assert abs(axes[0] - 0.55) < 1e-7
        assert abs(axes[1] - 0.8) < 1e-7


# --- stacks: one matrix is a stack of one ---


def mixed_stack():
    """Random partial isometries of kernel dimension 0..4, J5, s5_family members,
    a diagonal with a repeated eigenvalue, two-ellipse blocks and
    ellipse-plus-flat blocks, as one (20, 5, 5) stack."""
    mats = [random_partial_isometry(5, k, seed) for k in range(5) for seed in (1, 2)]
    mats += [jordan_shift(5), s5_family(0.4, 0.3 + 0.2j, 0.3 - 0.2j), s5_family(0.0, 0.3j, -0.2)]
    mats += [s5_family(0.0, 0.5, 0.5j), np.diag([0.3, 0.3, -0.2 + 0.1j, 0.3, 0.4j])]
    mats += [
        two_ellipse_block(0.3 + 0.1j, -0.2j, 0.1 - 0.3j, 0.25, -0.35, 0.8, 0.55),
        two_ellipse_block(0.3, -0.2j, 0.3, -0.2j, 0.3, 0.8, 0.55),
    ]
    mats += [scipy.linalg.block_diag(FLAT_TOP, block) for block in criterion4_blocks()[:3]]
    return np.stack([np.asarray(m, dtype=complex) for m in mats])


class TestStacks:
    def test_stack_equals_loop(self):
        stack = mixed_stack()
        assert fit_disc(stack) == [fit_disc(m) for m in stack]
        curves = classify_curve(stack)
        assert curves == [classify_curve(m) for m in stack]
        # every component kind comes out of the one stacked call
        assert {c.kind for curve in curves for c in curve} == {"point", "ellipse", "flat_quartic", "unclassified"}

    def test_stack_of_one_equals_the_matrix(self):
        for m in mixed_stack():
            assert fit_disc(m[None], 16) == [fit_disc(m, 16)]
            assert classify_curve(m[None]) == [classify_curve(m)]

    def test_a_curve_is_unclassified_only_when_nothing_was_recognised(self):
        curves = classify_curve(np.stack([jordan_shift(5), s5_family(0.4, 0.3 + 0.2j, 0.3 - 0.2j)]))
        assert [c.kind for c in curves] == ["classified", "unclassified"]

    @pytest.mark.parametrize("call", [fit_disc, classify_curve])
    def test_bad_stack_rejected(self, call):
        stack = mixed_stack()
        nonfinite = stack.copy()
        nonfinite[4, 1, 2] = np.inf
        for bad in (nonfinite, stack[:, :, :4], stack[:0], stack[None]):
            with pytest.raises(BadDims):
                call(bad)

    def test_classify_needs_a_5x5_stack(self):
        with pytest.raises(NotDim5):
            classify_curve(np.stack([jordan_shift(4)] * 3))


# --- the sweep screen in front of the divisions ---


def screen_stress_matrices():
    """Seeded matrices on and near every factorization classify_curve peels.

    240 planted two-ellipse and ellipse-plus-flat blocks, conjugated J5,
    s5_family members, diagonal matrices (every other one with a repeated
    eigenvalue) and eigenvalue clusters of size 3 and 5, under Haar
    unitaries; then each again perturbed by eps G with ||G|| = 1 and eps
    cycling through 1e-6 .. 1e-3 (clusters: 1e-4 .. 1e-2, where a root of
    p moves by eps but the division remainder only by eps^3 or eps^5).
    """
    rng = np.random.default_rng(4459)
    base, clusters = [], []
    for k in range(240):
        if k % 3 < 2:
            while True:
                lams = [_disc_draw(rng, 0.5) for _ in range(5)]
                if min(abs(x - y) for i, x in enumerate(lams) for y in lams[i + 1 :]) > 0.15:
                    break
            block = two_ellipse_block(*lams, *rng.uniform(0.3, 0.9, size=2))
        else:
            lams, theta, mu = flat_params(rng)
            block = scipy.linalg.block_diag(FLAT_TOP, flat_3x3(*lams, theta, mu))
        u = haar_unitary(5, rng)
        base.append(u.conj().T @ block @ u)
    for k in range(20):
        u = haar_unitary(5, rng)
        base.append(u.conj().T @ jordan_shift(5) @ u)
        base.append(s5_family(rng.uniform(0.0, 0.9), _disc_draw(rng, 0.9), _disc_draw(rng, 0.9)))
        lams = [_disc_draw(rng, 1.0) for _ in range(5)]
        if k % 2:
            lams[3] = lams[0]
        base.append(u.conj().T @ np.diag(lams) @ u)
        clusters.append(u.conj().T @ np.diag([0.3, 0.3, 0.3, -0.2 + 0.1j, 0.4j]) @ u)
        clusters.append(0.3 * np.eye(5))
    out = base + clusters
    for mats, levels in ((base, (1e-6, 1e-5, 1e-4, 1e-3)), (clusters, (1e-4, 1e-3, 3e-3, 1e-2))):
        for k, a in enumerate(mats):
            g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            out.append(a + levels[k % len(levels)] * g / np.linalg.norm(g, 2))
    return out


def _position(eigs, value, taken=-1):
    return next(i for i, z in enumerate(eigs) if z == value and i != taken)


def screened_and_accepted(monkeypatch, a, tol):
    """(classify_curve's components, the components with the screen off, and
    the screen's verdict on every candidate that a division accepted)."""
    screened = classify_curve(a, tol)
    real_screen = classify_mod._screen
    real_divide, real_conic = classify_mod.divide, classify_mod.fit_ellipse_factor
    seen = {}
    passed = []

    def screen_off(eigs, thetas, lams, coefs, tol):
        # classify_curve screens a stack, and one matrix is a stack of one
        point_ok, pair_ok = real_screen(eigs, thetas, lams, coefs, tol)
        seen["eigs"], seen["flags"] = eigs[0], (point_ok[0], pair_ok[0])
        return np.ones_like(point_ok), np.ones_like(pair_ok)

    def divide_spy(p, g):
        # the point peel divides a stack of forms by linear forms z + Re(lam) x + Im(lam) y,
        # one row per matrix, and a is the only matrix; fit_ellipse_factor's conics are 3 x 3
        quot, rem = real_divide(p, g)
        if g.shape[-2:] == (2, 2):
            resid = np.max(np.abs(rem), axis=(-2, -1)) / np.max(np.abs(p), axis=(-2, -1))
            for form, r in zip(g.reshape(-1, 2, 2), resid.ravel()):
                if r < tol:
                    passed.append(seen["flags"][0][_position(seen["eigs"], complex(form[0, 0], form[1, 0]))])
        return quot, rem

    def conic_spy(p, li, lj, tol):
        r, quot, resid = real_conic(p, li, lj, tol)
        if resid < tol:
            i = _position(seen["eigs"], li)
            j = _position(seen["eigs"], lj, taken=i)
            passed.append(seen["flags"][1][min(i, j), max(i, j)])
        return r, quot, resid

    with monkeypatch.context() as mp:
        mp.setattr(classify_mod, "_screen", screen_off)
        mp.setattr(classify_mod, "divide", divide_spy)
        mp.setattr(classify_mod, "fit_ellipse_factor", conic_spy)
        unscreened = classify_curve(a, tol)
    return screened, unscreened, passed


class TestScreen:
    def test_sound_on_stress_families(self, monkeypatch):
        # every point or pair a division accepts must pass the screen, and
        # the screen changes no component
        accepted = 0
        for a in screen_stress_matrices():
            for tol in (1e-9, 1e-7):
                screened, unscreened, passed = screened_and_accepted(monkeypatch, a, tol)
                assert all(passed)
                assert repr(screened) == repr(unscreened)
                accepted += len(passed)
        assert accepted > 3000

    @pytest.mark.parametrize("ker_dim", [1, 2, 3, 4])
    def test_nothing_factors_without_conic_fits(self, monkeypatch, ker_dim):
        # kernel dimension 1..3 has no conic factor and gets no fit at all;
        # rank one has exactly one, the compression to its range
        calls = []
        real_conic = classify_mod.fit_ellipse_factor

        def conic_spy(p, li, lj, tol):
            out = real_conic(p, li, lj, tol)
            calls.append(out[2] < tol)
            return out

        monkeypatch.setattr(classify_mod, "fit_ellipse_factor", conic_spy)
        for seed in range(10):
            calls.clear()
            kinds = [c.kind for c in classify_curve(random_partial_isometry(5, ker_dim, seed))]
            assert calls == ([True] if ker_dim == 4 else [])
            assert kinds.count("ellipse") == (1 if ker_dim == 4 else 0)

    def test_two_ellipse_fixture_unchanged(self, monkeypatch):
        a = two_ellipse_block(0.3 + 0.1j, -0.2j, 0.1 - 0.3j, 0.25, -0.35, 0.8, 0.55)
        screened, unscreened, passed = screened_and_accepted(monkeypatch, a, DEFAULT_TOL)
        assert [c.kind for c in screened] == ["point", "ellipse", "ellipse"]
        assert repr(screened) == repr(unscreened)
        assert len(passed) >= 3 and all(passed)


class TestMatchedReports:
    def test_two_ellipse_pattern(self):
        lams = [0.3 + 0.1j, -0.2j, 0.1 - 0.3j, 0.25, -0.35]
        a = two_ellipse_block(*lams, 0.8, 0.55)
        reps = matched_reports(a, classify_curve(a))
        assert [name for name, _ in reps] == ["two_ellipse_point"]
        assert reps[0][1].max_residual < 1e-8

    def test_flat_pattern(self):
        f3 = flat_3x3(0.2, 0.1 + 0.3j, -0.1 - 0.2j, 0.0, 0.5)
        top = np.array([[0.3 + 0.1j, 0.7], [0.0, -0.2j]])
        a = scipy.linalg.block_diag(top, f3)
        reps = matched_reports(a, classify_curve(a))
        assert [name for name, _ in reps] == ["ellipse_flat"]
        assert reps[0][1].max_residual < 1e-8

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
    def test_meaningless_tol_rejected(self, tol):
        f3 = flat_3x3(0.2, 0.1 + 0.3j, -0.1 - 0.2j, 0.0, 0.5)
        a = scipy.linalg.block_diag(np.array([[0.3 + 0.1j, 0.7], [0.0, -0.2j]]), f3)
        comps = classify_curve(a)
        with pytest.raises(ValueError):
            matched_reports(a, comps, tol=tol)

    def test_unrecognized_pattern_empty(self):
        a = np.diag([0.1, 0.2, 0.3, 0.4, 0.5])
        assert matched_reports(a, classify_curve(a)) == []

    def test_non_5x5_empty(self):
        a = jordan_shift(3)
        assert matched_reports(a, []) == []

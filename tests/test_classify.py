"""Tests for disc fitting, factor peeling, flat detection, and the reports."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kippcurve.classify import (
    classify_curve,
    detect_flat,
    disc_verdict,
    divide_linear,
    entry_condition_rhs,
    fit_disc,
    fit_ellipse_factor,
    flat_report,
    matched_reports,
    two_ellipse_report,
)
from kippcurve.errors import NegativeMinorAxisSquared
from kippcurve.generators import (
    flat_3x3,
    haar_unitary,
    jordan_shift,
    s5_family,
    two_ellipse_block,
)
from kippcurve.homopoly import HomoPoly3, dict_mul, prune
from kippcurve.kippenhahn import kipp_poly_det
from kippcurve.linalg import schur_triangularize


def lin_dict(lam):
    return prune({(1, 0, 0): lam.real, (0, 1, 0): lam.imag, (0, 0, 1): 1.0})


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


# --- linear and quadratic factor peeling ---


class TestDivideLinear:
    def test_planted_factor(self):
        lam = 0.4 - 0.3j
        q = {(2, 0, 0): 1.0, (1, 1, 0): -0.7, (0, 0, 2): 2.0, (1, 0, 1): 0.3}
        p_dict = dict_mul(lin_dict(lam), q)
        p = HomoPoly3(3, prune(p_dict))
        quot, resid = divide_linear(p, lam)
        assert resid < 1e-12
        for key, c in q.items():
            assert abs(quot.coeff(*key) - c) < 1e-10

    def test_wrong_eigenvalue_leaves_residual(self):
        p = kipp_poly_det(np.diag([0.5, -0.5]))
        _, resid = divide_linear(p, 0.1 + 0.2j)
        assert resid > 1e-3

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-1, max_value=1),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_random_quotient(self, re, im, seed):
        """Dividing L*Q by L always recovers Q with tiny residual."""
        rng = np.random.default_rng(seed)
        keys = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
        q = {k: float(c) for k, c in zip(keys, rng.uniform(-2, 2, size=6))}
        lam = complex(re, im)
        p = HomoPoly3(3, prune(dict_mul(lin_dict(lam), q)))
        if not p.coeffs:
            return
        quot, resid = divide_linear(p, lam)
        assert resid < 1e-10
        for key, c in q.items():
            assert abs(quot.coeff(*key) - c) < 1e-8


class TestFitEllipseFactor:
    def test_planted_pair(self):
        l1, l2 = 0.3 + 0.1j, -0.2 - 0.4j
        a = two_ellipse_block(l1, l2, 0.1, -0.3, 0.0, 0.8, 0.4)
        p = kipp_poly_det(a)
        r, quot, resid = fit_ellipse_factor(p, l1, l2)
        assert abs(r - 0.8) < 1e-10
        assert resid < 1e-10
        assert quot.degree == 3

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

    def test_negative_axis_square_raises(self):
        # plant a "conic" factor with t = -1: legitimate polynomial, not an ellipse
        l1, l2 = 0.4, -0.4
        conic = dict_mul(lin_dict(complex(l1)), lin_dict(complex(l2)))
        conic = prune({**conic, (2, 0, 0): conic.get((2, 0, 0), 0.0) + 0.25, (0, 2, 0): conic.get((0, 2, 0), 0.0) + 0.25})
        p = HomoPoly3(3, prune(dict_mul(conic, lin_dict(0.1 + 0.0j))))
        with pytest.raises(NegativeMinorAxisSquared):
            fit_ellipse_factor(p, complex(l1), complex(l2))


# --- flat detection ---


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
        lams = [0.3 + 0.1j, -0.2j, 0.1 - 0.3j, 0.25, -0.35]
        a = two_ellipse_block(*lams, 0.8, 0.55)
        comps = classify_curve(a)
        kinds = sorted(c.kind for c in comps)
        assert kinds == ["ellipse", "ellipse", "point"]
        point = next(c for c in comps if c.kind == "point")
        assert abs(point.location - (-0.35)) < 1e-8
        axes = sorted(c.minor_axis for c in comps if c.kind == "ellipse")
        assert abs(axes[0] - 0.55) < 1e-8
        assert abs(axes[1] - 0.8) < 1e-8

    def test_diagonal_is_five_points(self):
        lams = [0.3, -0.2 + 0.1j, 0.0, 0.4j, -0.5]
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

    def test_unrecognized_pattern_empty(self):
        a = np.diag([0.1, 0.2, 0.3, 0.4, 0.5])
        assert matched_reports(a, classify_curve(a)) == []

    def test_non_5x5_empty(self):
        a = jordan_shift(3)
        assert matched_reports(a, []) == []

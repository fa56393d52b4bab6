"""Tests for the homogeneous trivariate polynomial container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kippcurve.homopoly import (
    HomoPoly3,
    divide,
    linear,
    max_abs_coeff,
    max_coeff_diff,
    mul,
    substitute_linear,
)


def random_form(rng, degree):
    c = np.zeros((degree + 1, degree + 1))
    for j in range(degree + 1):
        c[: degree - j + 1, j] = rng.normal(size=degree - j + 1)
    return c


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        HomoPoly3.from_terms(2, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        HomoPoly3.from_terms(1, {(2, 0, -1): 1.0})


def test_eval_matches_monomials():
    p = HomoPoly3.from_terms(3, {(3, 0, 0): 2.0, (1, 1, 1): -1.5, (0, 0, 3): 1.0})
    x, y, z = 0.7, -0.3, 1.2
    want = 2.0 * x**3 - 1.5 * x * y * z + z**3
    assert abs(p(x, y, z) - want) < 1e-14


def test_eval_vectorized():
    p = HomoPoly3.from_terms(2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    xs = np.array([1.0, 2.0])
    out = p(xs, 0.0, 1.0)
    assert out.shape == (2,)
    assert np.allclose(out, [2.0, 5.0])


def test_coeff_missing_is_zero():
    p = HomoPoly3.from_terms(2, {(2, 0, 0): 1.0})
    assert p.coeff(0, 2, 0) == 0.0


def test_max_coeff_diff_symmetric():
    p = HomoPoly3.from_terms(1, {(1, 0, 0): 1.0})
    q = HomoPoly3.from_terms(1, {(0, 1, 0): 2.0})
    assert max_coeff_diff(p, q) == max_coeff_diff(q, p) == 2.0


def test_terms_round_trip():
    terms = {(2, 0, 1): 1.5, (0, 3, 0): -2.0, (1, 1, 1): 0.5, (0, 0, 3): 1.0, (3, 0, 0): 0.0}
    p = HomoPoly3.from_terms(3, terms)
    assert dict(p.coeffs) == {k: v for k, v in terms.items() if v != 0.0}
    assert p.c[1, 1] == 0.5 and p.c[3, 0] == -2.0


def test_coeffs_never_lists_a_zero():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = random_form(rng, 4)
        c[rng.random(c.shape) < 0.4] = 0.0
        p = HomoPoly3(c)
        assert 0.0 not in p.coeffs.values()
        assert len(p.coeffs) == np.count_nonzero(c)
        assert all(p.coeff(*key) == v for key, v in p.coeffs.items())
    assert dict(HomoPoly3(np.zeros((4, 4))).coeffs) == {}
    with pytest.raises(TypeError):
        p.coeffs[(4, 0, 0)] = 1.0


def test_array_beyond_degree_rejected():
    with pytest.raises(ValueError):
        HomoPoly3(np.ones((2, 2)))
    with pytest.raises(ValueError):
        HomoPoly3(np.ones(3))


def test_product_matches_evaluation():
    rng = np.random.default_rng(8)
    for da, db in ((0, 3), (1, 1), (2, 3), (4, 5), (5, 7)):
        p, q = HomoPoly3(random_form(rng, da)), HomoPoly3(random_form(rng, db))
        pq = HomoPoly3(mul(p.c, q.c))
        assert pq.degree == da + db
        for x, y, z in rng.normal(size=(10, 3)):
            assert abs(pq(x, y, z) - p(x, y, z) * q(x, y, z)) < 1e-12 * max(1.0, abs(pq(x, y, z)))


def test_division_recovers_quotient():
    """Dividing g q by a z-monic linear or conic g gives back q with no remainder."""
    rng = np.random.default_rng(9)
    for e in (1, 1, 2, 2):
        for dq in range(4):
            g = random_form(rng, e)
            g[0, e] = 1.0
            q = random_form(rng, dq)
            quot, rem = divide(mul(g, q), g)
            assert np.max(np.abs(quot - q)) < 1e-12
            assert np.max(np.abs(rem)) < 1e-12
            assert rem.shape == (dq + e + 1, dq + e + 1) and not rem[:, e:].any()


def test_division_by_linear_form():
    # z^2 + 3xz - y^2 = (z + x + y)(z + 2x - y) - 2x^2 - xy
    p = HomoPoly3.from_terms(2, {(0, 0, 2): 1.0, (1, 0, 1): 3.0, (0, 2, 0): -1.0})
    quot, rem = divide(p.c, linear(1.0, 1.0, 1.0))
    assert dict(HomoPoly3(quot).coeffs) == {(1, 0, 0): 2.0, (0, 1, 0): -1.0, (0, 0, 1): 1.0}
    assert dict(HomoPoly3(rem).coeffs) == {(2, 0, 0): -2.0, (1, 1, 0): -1.0}


def test_substitute_identity():
    p = HomoPoly3.from_terms(4, {(2, 1, 1): 1.0, (0, 0, 4): -2.0, (4, 0, 0): 0.5})
    q = substitute_linear(p, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert max_coeff_diff(p, q) == 0.0


def test_substitute_shear_by_evaluation():
    p = HomoPoly3.from_terms(3, {(1, 1, 1): 2.0, (3, 0, 0): -1.0, (0, 0, 3): 1.0})
    u, v = 0.4, -0.7
    q = substitute_linear(p, (1, 0, 0), (0, 1, 0), (u, v, 1.0))
    pts = np.random.default_rng(0).normal(size=(10, 3))
    for x, y, z in pts:
        assert abs(q(x, y, z) - p(x, y, z + u * x + v * y)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_substitute_rotations_compose(phi, psi):
    """Two successive rotations equal the rotation by the sum of the angles."""
    p = HomoPoly3.from_terms(2, {(2, 0, 0): 1.0, (1, 1, 0): -0.5, (0, 0, 2): 2.0, (1, 0, 1): 0.25})

    def rot(q, ang):
        c, s = np.cos(ang), np.sin(ang)
        return substitute_linear(q, (c, s, 0.0), (-s, c, 0.0), (0.0, 0.0, 1.0))

    once = rot(rot(p, phi), psi)
    direct = rot(p, phi + psi)
    assert max_coeff_diff(once, direct) < 1e-12 * max(1.0, max_abs_coeff(p))

"""Tests for the homogeneous trivariate polynomial container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kippcurve.homopoly import (
    HomoPoly3,
    bimul,
    dict_add,
    dict_mul,
    from_z_layers,
    max_abs_coeff,
    max_coeff_diff,
    poly_close,
    prune,
    substitute_linear,
    z_layers,
)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        HomoPoly3(2, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        HomoPoly3(1, {(2, 0, -1): 1.0})


def test_eval_matches_monomials():
    p = HomoPoly3(3, {(3, 0, 0): 2.0, (1, 1, 1): -1.5, (0, 0, 3): 1.0})
    x, y, z = 0.7, -0.3, 1.2
    want = 2.0 * x**3 - 1.5 * x * y * z + z**3
    assert abs(p(x, y, z) - want) < 1e-14


def test_eval_vectorized():
    p = HomoPoly3(2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    xs = np.array([1.0, 2.0])
    out = p(xs, 0.0, 1.0)
    assert out.shape == (2,)
    assert np.allclose(out, [2.0, 5.0])


def test_coeff_missing_is_zero():
    p = HomoPoly3(2, {(2, 0, 0): 1.0})
    assert p.coeff(0, 2, 0) == 0.0


def test_max_coeff_diff_symmetric():
    p = HomoPoly3(1, {(1, 0, 0): 1.0})
    q = HomoPoly3(1, {(0, 1, 0): 2.0})
    assert max_coeff_diff(p, q) == max_coeff_diff(q, p) == 2.0


def test_poly_close():
    p = HomoPoly3(2, {(2, 0, 0): 1.0})
    q = HomoPoly3(2, {(2, 0, 0): 1.0 + 5e-10})
    assert poly_close(p, q, 1e-9)
    assert not poly_close(p, q, 1e-11)


def test_dict_arithmetic():
    a = {(1, 0, 0): 2.0}
    b = {(0, 1, 0): 3.0, (1, 0, 0): 1.0}
    s = dict_add(a, b, factor=2.0)
    assert s[(1, 0, 0)] == 4.0 and s[(0, 1, 0)] == 6.0
    prod = dict_mul(a, b)
    assert prod == {(1, 1, 0): 6.0, (2, 0, 0): 2.0}
    assert prune({(1, 0, 0): 0.0, (0, 0, 1): 2.0}) == {(0, 0, 1): 2.0}


def test_layers_round_trip():
    p = HomoPoly3(3, {(2, 0, 1): 1.5, (0, 3, 0): -2.0, (1, 1, 1): 0.5, (0, 0, 3): 1.0})
    q = from_z_layers(z_layers(p))
    assert max_coeff_diff(p, q) == 0.0


def test_bimul_is_polynomial_product():
    # (x + 2y)(3x - y) = 3x^2 + 5xy - 2y^2
    out = bimul([1.0, 2.0], [3.0, -1.0])
    assert np.allclose(out, [3.0, 5.0, -2.0])


def test_substitute_identity():
    p = HomoPoly3(4, {(2, 1, 1): 1.0, (0, 0, 4): -2.0, (4, 0, 0): 0.5})
    q = substitute_linear(p, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert max_coeff_diff(p, q) == 0.0


def test_substitute_shear_by_evaluation():
    p = HomoPoly3(3, {(1, 1, 1): 2.0, (3, 0, 0): -1.0, (0, 0, 3): 1.0})
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
    p = HomoPoly3(2, {(2, 0, 0): 1.0, (1, 1, 0): -0.5, (0, 0, 2): 2.0, (1, 0, 1): 0.25})

    def rot(q, ang):
        c, s = np.cos(ang), np.sin(ang)
        return substitute_linear(q, (c, s, 0.0), (-s, c, 0.0), (0.0, 0.0, 1.0))

    once = rot(rot(p, phi), psi)
    direct = rot(p, phi + psi)
    assert max_coeff_diff(once, direct) < 1e-12 * max(1.0, max_abs_coeff(p))

"""Tests for the dense linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kippcurve.errors import BadDims
from kippcurve.linalg import as_matrix, as_stack, hermitian_parts, schur_triangularize


def test_as_matrix_rejects_nonsquare():
    for shape in ((2, 3), (0, 0)):
        with pytest.raises(BadDims):
            as_matrix(np.zeros(shape))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(BadDims):
        as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_as_matrix_accepts_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == complex
    assert m.shape == (2, 2)


def test_as_stack_takes_a_matrix_as_a_stack_of_one():
    m = np.arange(4.0).reshape(2, 2)
    stack, single = as_stack(m)
    assert single and stack.shape == (1, 2, 2) and stack.dtype == complex
    stack, single = as_stack(np.stack([m, m, m]))
    assert not single and stack.shape == (3, 2, 2)


def test_as_stack_rejects_bad_stacks():
    good = np.zeros((3, 2, 2))
    nonfinite = good.copy()
    nonfinite[1, 0, 1] = np.nan
    for bad in (nonfinite, np.zeros((3, 2, 3)), np.zeros((0, 2, 2)), np.zeros((1, 3, 2, 2)), np.zeros(4)):
        with pytest.raises(BadDims):
            as_stack(bad)
    with pytest.raises(BadDims):
        as_matrix(good)


def test_hermitian_parts_of_a_stack_split_matrix_by_matrix():
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    h, k = hermitian_parts(stack)
    for m, hm, km in zip(stack, h, k):
        h1, k1 = hermitian_parts(m)
        assert np.array_equal(h1, hm) and np.array_equal(k1, km)


def test_hermitian_parts_reconstruct():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h, k = hermitian_parts(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(k, k.conj().T)
    assert np.allclose(h + 1j * k, a)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_hermitian_parts_always_split(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h, k = hermitian_parts(a)
    assert np.allclose(h + 1j * k, a, atol=1e-12)


class TestSchur:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        f = schur_triangularize(a)
        assert np.allclose(f.unitary @ f.triangular @ f.unitary.conj().T, a, atol=1e-10)
        assert np.allclose(f.unitary @ f.unitary.conj().T, np.eye(5), atol=1e-12)

    def test_triangular(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        t = schur_triangularize(a).triangular
        assert np.max(np.abs(np.tril(t, -1))) == 0.0

    def test_lex_order(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        eigs = schur_triangularize(a, order="lex").eigenvalues
        keys = [(z.real, z.imag) for z in eigs]
        assert keys == sorted(keys)

    def test_eigenvalues_preserved(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        got = np.sort_complex(schur_triangularize(a).eigenvalues)
        want = np.sort_complex(np.linalg.eigvals(a))
        assert np.allclose(got, want, atol=1e-8)

    def test_lex_keeps_triangularity(self):
        # real input: a conjugate pair shares its real part, so Im decides its order
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4))
        f = schur_triangularize(a, order="lex")
        assert np.max(np.abs(np.tril(f.triangular, -1))) == 0.0
        keys = [(z.real, z.imag) for z in f.eigenvalues]
        assert keys == sorted(keys)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            schur_triangularize(np.eye(2), order="modulus")
        with pytest.raises(ValueError):
            schur_triangularize(np.eye(2), order=None)


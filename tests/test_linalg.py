"""Tests for the dense linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kippcurve.errors import BadDims, NotPartialIsometry
from kippcurve.linalg import (
    as_matrix,
    block_form,
    hermitian_parts,
    is_class_sn,
    is_irreducible,
    is_partial_isometry,
    kernel_dimension,
    reduce_partial_isometry,
    schur_triangularize,
)
from kippcurve.generators import (
    haar_unitary,
    jordan_shift,
    random_partial_isometry,
    s5_family,
    two_ellipse_block,
)


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


class TestPartialIsometry:
    def test_unitary_is_partial_isometry(self):
        u = haar_unitary(4, np.random.default_rng(0))
        assert is_partial_isometry(u)

    def test_jordan_shift(self):
        assert is_partial_isometry(jordan_shift(6))

    def test_random_dense_is_not(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert not is_partial_isometry(a)

    def test_singular_values_in_zero_one(self):
        m = random_partial_isometry(5, 2, seed=12)
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.all((np.abs(sv - 1) < 1e-9) | (np.abs(sv) < 1e-9))

    def test_scaled_unitary_fails(self):
        u = 0.9 * haar_unitary(3, np.random.default_rng(2))
        assert not is_partial_isometry(u)


class TestClassSn:
    def test_jordan_shift_is_sn(self):
        assert is_class_sn(jordan_shift(5))

    def test_unitary_is_not(self):
        # no defect direction and eigenvalues on the circle
        assert not is_class_sn(haar_unitary(5, np.random.default_rng(4)))

    def test_s5_family_member(self):
        assert is_class_sn(s5_family(0.3, 0.2 + 0.1j, 0.2 - 0.1j))

    def test_two_dim_defect_fails(self):
        # two vanishing singular values leave rank(I - A*A) = 2
        assert not is_class_sn(random_partial_isometry(5, 2, seed=5))


def test_kernel_dimension():
    assert kernel_dimension(jordan_shift(4)) == 1
    assert kernel_dimension(np.eye(3)) == 0
    for kd in (1, 2, 3):
        assert kernel_dimension(random_partial_isometry(5, kd, seed=kd)) == kd


def test_is_irreducible():
    assert is_irreducible(jordan_shift(5)) is True
    m = two_ellipse_block(0.3, -0.2j, 0.1 + 0.1j, -0.4, 0.2, 0.7, 0.5)
    assert is_irreducible(m) is False
    # hiding the block structure behind a unitary must not change the answer
    u = haar_unitary(5, np.random.default_rng(6))
    assert is_irreducible(u.conj().T @ m @ u) is False


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


class TestBlockForm:
    def test_structure(self):
        m = random_partial_isometry(5, 2, seed=13)
        bf = block_form(m)
        assert bf.kernel_dim == 2
        assert bf.b.shape == (2, 3)
        assert bf.c.shape == (3, 3)
        t = bf.basis.conj().T @ m @ bf.basis
        assert np.allclose(t[:, :2], 0, atol=1e-9)
        assert np.allclose(t[:2, 2:], bf.b)
        # isometric column block
        gram = bf.b.conj().T @ bf.b + bf.c.conj().T @ bf.c
        assert np.allclose(gram, np.eye(3), atol=1e-9)

    def test_zero_kernel_identity_basis(self):
        u = haar_unitary(4, np.random.default_rng(14))
        bf = block_form(u)
        assert bf.kernel_dim == 0
        assert np.array_equal(bf.basis, np.eye(4))

    def test_rejects_non_partial_isometry(self):
        with pytest.raises(NotPartialIsometry):
            block_form(np.diag([0.5, 1.0]))


class TestReduce:
    def test_full_rank_b_unchanged(self):
        m = random_partial_isometry(5, 1, seed=15)
        d, r = reduce_partial_isometry(m)
        assert d == 0
        assert r.shape == (5, 5)

    def test_large_kernel_splits_zero_summand(self):
        # a 3-dim kernel feeding a 2-row block forces rank(B) <= 2
        m = random_partial_isometry(5, 3, seed=16)
        d, r = reduce_partial_isometry(m)
        assert d >= 1
        assert r.shape == (5 - d, 5 - d)
        assert is_partial_isometry(r)
        # spectrum is preserved up to the split-off zeros
        got = np.sort_complex(np.concatenate([np.linalg.eigvals(r), np.zeros(d)]))
        want = np.sort_complex(np.linalg.eigvals(m))
        assert np.allclose(got, want, atol=1e-8)

    def test_zero_matrix_collapses(self):
        d, r = reduce_partial_isometry(np.zeros((3, 3)))
        assert d == 3
        assert r.shape == (0, 0)

"""Tests for the matrix construction families."""

import numpy as np
import pytest

from kippcurve.errors import BadDims, InfeasibleMu, ParameterOutOfDisc
from kippcurve.generators import (
    flat_3x3,
    haar_unitary,
    jordan_shift,
    ker2_family,
    random_partial_isometry,
    s5_family,
    two_ellipse_block,
)


def _assert_partial_isometry(m, kernel_dim):
    # singular values 1 (n - kernel_dim times) and 0 (kernel_dim times)
    sv = np.sort(np.linalg.svd(m, compute_uv=False))
    want = np.concatenate([np.zeros(kernel_dim), np.ones(m.shape[0] - kernel_dim)])
    assert np.allclose(sv, want, rtol=0.0, atol=1e-9)


def test_jordan_shift_structure():
    j = jordan_shift(4)
    assert j.shape == (4, 4)
    assert np.array_equal(j, np.diag(np.ones(3), 1))
    assert np.max(np.abs(np.linalg.matrix_power(j, 4))) == 0.0
    _assert_partial_isometry(j, 1)


def test_jordan_shift_needs_two():
    with pytest.raises(BadDims):
        jordan_shift(1)


def test_two_ellipse_block_layout():
    m = two_ellipse_block(1, 2, 3, 4, 5, 0.7, 0.3)
    assert m.shape == (5, 5)
    assert np.allclose(np.diag(m), [1, 2, 3, 4, 5])
    assert m[0, 1] == 0.7
    assert m[2, 3] == 0.3
    # nothing couples the three summands
    assert np.count_nonzero(m) == 7


def test_two_ellipse_block_rejects_nonfinite():
    with pytest.raises(ParameterOutOfDisc):
        two_ellipse_block(0, 0, 0, 0, 0, np.nan, 1)
    with pytest.raises(ParameterOutOfDisc):
        two_ellipse_block(0, complex(0.0, np.inf), 0, 0, 0, 0.5, 1)


class TestS5Family:
    def test_spectrum(self):
        a, b, c = 0.4, 0.3 + 0.2j, 0.3 - 0.2j
        m = s5_family(a, b, c)
        got = np.sort_complex(np.linalg.eigvals(m))
        want = np.sort_complex(np.array([a, a, 0.0, b, c]))
        assert np.allclose(got, want, atol=1e-10)

    def test_partial_isometry_with_one_dim_kernel(self):
        m = s5_family(0.4, 0.3 + 0.2j, 0.3 - 0.2j)
        sv = np.sort(np.linalg.svd(m, compute_uv=False))
        assert np.allclose(sv, [0.0, 1.0, 1.0, 1.0, 1.0], atol=1e-10)
        # class S_5: a contraction with its spectrum inside the disc and a rank-one defect I - A*A
        assert sv[-1] <= 1.0 + 1e-9
        assert np.max(np.abs(np.linalg.eigvals(m))) < 1.0 - 1e-9
        defect = np.linalg.svd(np.eye(5) - m.conj().T @ m, compute_uv=False)
        assert np.sum(defect > 1e-9) == 1

    def test_whole_admissible_range(self):
        for a in np.linspace(0.0, 0.9, 7):
            for rho in np.linspace(0.0, 0.9, 7):
                b = rho * np.exp(0.4j)
                m = s5_family(float(a), b, np.conj(b))
                sv = np.sort(np.linalg.svd(m, compute_uv=False))
                assert np.allclose(sv, [0.0, 1.0, 1.0, 1.0, 1.0], atol=1e-9)

    def test_disc_guard(self):
        with pytest.raises(ParameterOutOfDisc):
            s5_family(1.0, 0.1, 0.1)
        with pytest.raises(ParameterOutOfDisc):
            s5_family(0.2, 1.2j, 0.1)
        for b, c in ((np.nan, 0.1), (0.1, complex(0.0, np.nan)), (0.1, np.inf)):
            with pytest.raises(ParameterOutOfDisc):
                s5_family(0.4, b, c)


class TestFlat3x3:
    L3, L4, L5 = 0.2, 0.1 + 0.3j, -0.1 - 0.2j

    def test_fixture_entry_moduli(self):
        # mu_j = Re(lam_j) + mu are 0.7, 0.6, 0.4; the construction pins
        # |a|^2 = 4 mu3 mu4, |b|^2 = 4 mu3 mu5, |c|^2 = |a|^2|b|^2/(2 mu3)^2
        c = flat_3x3(self.L3, self.L4, self.L5, 0.0, 0.5)
        assert abs(abs(c[0, 1]) ** 2 - 1.68) < 1e-12
        assert abs(abs(c[0, 2]) ** 2 - 1.12) < 1e-12
        assert abs(abs(c[1, 2]) ** 2 - 0.96) < 1e-12

    def test_eigenvalues_on_diagonal(self):
        c = flat_3x3(self.L3, self.L4, self.L5, 0.3, 0.45)
        assert np.allclose(np.diag(c), [self.L3, self.L4, self.L5])
        assert np.max(np.abs(np.tril(c, -1))) == 0.0

    def test_rank_one_shift(self):
        # Re(e^{-i theta} C) + mu I has a doubly degenerate bottom eigenvalue,
        # so its shift to the collision level loses rank twice
        theta, mu = 0.3, 0.45
        c = flat_3x3(self.L3, self.L4, self.L5, theta, mu)
        h = (np.exp(-1j * theta) * c + np.conj(np.exp(-1j * theta) * c).T) / 2
        sv = np.sort(np.linalg.svd(h + mu * np.eye(3), compute_uv=False))
        assert sv[0] < 1e-12
        assert sv[1] < 1e-12

    def test_phases_change_entries_not_spectrum(self):
        c0 = flat_3x3(self.L3, self.L4, self.L5, 0.0, 0.5)
        c1 = flat_3x3(self.L3, self.L4, self.L5, 0.0, 0.5, phase_a=0.7, phase_b=-0.4)
        assert not np.allclose(c0, c1)
        assert np.allclose(np.abs(c0), np.abs(c1), atol=1e-12)

    def test_infeasible_mu(self):
        # mu = 0.05 makes Re(l5) + mu negative
        with pytest.raises(InfeasibleMu):
            flat_3x3(self.L3, self.L4, self.L5, 0.0, 0.05)
        # nan weights are not positive either, and infinite ones would build nan entries
        for theta, mu in ((0.0, np.nan), (np.nan, 0.5), (0.0, np.inf)):
            with pytest.raises(InfeasibleMu):
                flat_3x3(self.L3, self.L4, self.L5, theta, mu)

    def test_nonfinite_phase_or_eigenvalue(self):
        with pytest.raises(ParameterOutOfDisc):
            flat_3x3(self.L3, self.L4, self.L5, 0.0, 0.5, phase_a=np.inf)
        with pytest.raises(ParameterOutOfDisc):
            flat_3x3(self.L3, self.L4, self.L5, 0.0, 0.5, phase_b=np.nan)
        with pytest.raises(ParameterOutOfDisc):
            flat_3x3(self.L3, complex(0.1, np.inf), self.L5, 0.0, 0.5)


def test_haar_unitary():
    rng = np.random.default_rng(40)
    u = haar_unitary(5, rng)
    assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-12)
    # deterministic under a reseeded generator
    v = haar_unitary(5, np.random.default_rng(40))
    w = haar_unitary(5, np.random.default_rng(40))
    assert np.array_equal(v, w)


class TestRandomPartialIsometry:
    def test_properties(self):
        for kd in (0, 1, 2, 3):
            m = random_partial_isometry(5, kd, seed=kd + 100)
            _assert_partial_isometry(m, kd)

    def test_singular_values_in_zero_one(self):
        m = random_partial_isometry(5, 2, seed=12)
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.all((np.abs(sv - 1) < 1e-9) | (np.abs(sv) < 1e-9))

    def test_deterministic(self):
        a = random_partial_isometry(6, 2, seed=7)
        b = random_partial_isometry(6, 2, seed=7)
        assert np.array_equal(a, b)
        c = random_partial_isometry(6, 2, seed=8)
        assert not np.allclose(a, c)

    @pytest.mark.parametrize("kd", [0, 2, 5])
    def test_draws_as_two_sequential_haar_unitaries(self, kd):
        # the construction as written before the stack: two Haar unitaries from one stream,
        # each the QR of (real + i imag) / sqrt 2 with the phase fix
        def haar(rng):
            z = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))) / np.sqrt(2.0)
            q, r = np.linalg.qr(z)
            d = np.diag(r)
            return q * np.where(np.abs(d) > 0.0, d / np.abs(np.where(np.abs(d) > 0.0, d, 1.0)), 1.0)

        rng = np.random.default_rng(31)
        u1, u2 = haar(rng), haar(rng)
        a0 = np.zeros((5, 5), dtype=complex)
        a0[:, kd:] = u1[:, : 5 - kd]
        assert (random_partial_isometry(5, kd, 31) == u2 @ a0 @ u2.conj().T).all()
        assert (haar_unitary(5, np.random.default_rng(31)) == haar(np.random.default_rng(31))).all()

    def test_stack_equals_the_calls_seed_by_seed(self):
        kds, seeds = [0, 1, 2, 3, 5, 2], [3, 1, 4, 1, 5, 2**64 - 1]
        stack = random_partial_isometry(5, kds, seeds)
        assert stack.shape == (6, 5, 5)
        for m, kd, seed in zip(stack, kds, seeds):
            assert (m == random_partial_isometry(5, kd, seed)).all()
            _assert_partial_isometry(m, kd)
        assert (random_partial_isometry(5, [2], [7]) == random_partial_isometry(5, 2, 7)[None]).all()

    def test_bad_dims(self):
        with pytest.raises(BadDims):
            random_partial_isometry(3, 4, seed=0)
        with pytest.raises(BadDims):
            random_partial_isometry(0, 0, seed=0)
        for kds, seeds in (([1, 4], [1, 2]), ([1, 2], [1]), ([], []), (1, [1, 2])):
            with pytest.raises(BadDims):
                random_partial_isometry(3, kds, seeds)


class TestKer2Family:
    def test_block_structure(self):
        m = ker2_family(seed=11)
        assert m.shape == (5, 5)
        assert np.max(np.abs(m[:, :2])) == 0.0
        _assert_partial_isometry(m, 2)

    def test_default_merges_all_three(self):
        # by default the single eigenvalue b is planted equal to the double a
        m = ker2_family(seed=12)
        eigs = np.sort_complex(np.linalg.eigvals(m))
        assert np.allclose(eigs[:2], 0.0, atol=1e-10)
        nonzero = eigs[2:]
        assert max(abs(z - nonzero[0]) for z in nonzero) < 1e-10

    def test_distinct_top_keeps_only_planted_double(self):
        # the a, a pair stays; b moves away from it
        m = ker2_family(seed=13, distinct_top=True)
        eigs = np.sort_complex(np.linalg.eigvals(m))
        nonzero = eigs[np.abs(eigs) > 1e-8]
        assert len(nonzero) == 3
        gaps = sorted(abs(x - y) for i, x in enumerate(nonzero) for y in nonzero[i + 1 :])
        assert gaps[0] < 1e-10
        assert gaps[1] > 1e-3

    def test_deterministic(self):
        assert np.array_equal(ker2_family(seed=5), ker2_family(seed=5))

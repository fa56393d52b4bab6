"""Constructors for the matrix families the classification and search use.

Deterministic builders (shift blocks, two-ellipse direct sums, the flat
3x3 family, the one-parameter 5x5 contraction family) plus seeded random
partial isometries with prescribed kernel dimension, one seed or a stack
of them, whose Haar unitaries come from one stacked QR.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import BadDims, InfeasibleMu, ParameterOutOfDisc


def jordan_shift(n: int) -> np.ndarray:
    """The n x n nilpotent shift: ones on the first superdiagonal."""
    if n < 2:
        raise BadDims("shift block needs n >= 2")
    return np.eye(n, k=1, dtype=complex)


def two_ellipse_block(l1, l2, l3, l4, l5, r: float, s: float) -> np.ndarray:
    """Direct sum of two elliptic 2x2 blocks and a scalar.

    [[l1, r], [0, l2]] (+) [[l3, s], [0, l4]] (+) [l5].  The numerical
    range is the convex hull of an ellipse with foci l1, l2 and minor
    axis r, an ellipse with foci l3, l4 and minor axis s, and the point
    l5.  Every input must be finite (ParameterOutOfDisc otherwise).
    """
    if not np.all(np.isfinite(np.array([l1, l2, l3, l4, l5, r, s], dtype=complex))):
        raise ParameterOutOfDisc("two-ellipse entries must all be finite")
    b1 = np.array([[l1, r], [0.0, l2]], dtype=complex)
    b2 = np.array([[l3, s], [0.0, l4]], dtype=complex)
    return scipy.linalg.block_diag(b1, b2, np.array([[l5]], dtype=complex))


def s5_family(a: float, b, c) -> np.ndarray:
    """One-real-parameter 5x5 contraction family with eigenvalues {a, a, 0, b, c}.

    Requires 0 <= a < 1 and |b|, |c| < 1.  For every admissible (b, c)
    the defect I - A*A has rank one; at a = 0 the matrix is a partial
    isometry, and at a = b = c = 0 it degenerates to the pure shift.
    """
    a = float(a)
    b = complex(b)
    c = complex(c)
    if not (0.0 <= a < 1.0):
        raise ParameterOutOfDisc(f"a = {a} outside [0, 1)")
    if not (abs(b) < 1.0 and abs(c) < 1.0):  # nan fails too
        raise ParameterOutOfDisc("b and c must lie in the open unit disc")
    sa = np.sqrt(1.0 - a * a)
    sb = np.sqrt(1.0 - abs(b) ** 2)
    sc = np.sqrt(1.0 - abs(c) ** 2)
    return np.array(
        [
            [a, 1.0 - a * a, -a * sa, 0.0, 0.0],
            [0.0, a, sa, 0.0, 0.0],
            [0.0, 0.0, 0.0, sb, -np.conj(b) * sc],
            [0.0, 0.0, 0.0, b, sb * sc],
            [0.0, 0.0, 0.0, 0.0, c],
        ],
        dtype=complex,
    )


def flat_3x3(l3, l4, l5, theta: float, mu: float, phase_a: float = 0.0, phase_b: float = 0.0) -> np.ndarray:
    """Upper-triangular 3x3 whose Kippenhahn curve has a flat portion.

    The superdiagonal moduli are pinned by the shifted weights
    mu_j = Re(e^{-i theta} l_j) + mu, which must all be finite and
    positive (InfeasibleMu otherwise); then Re(e^{-i theta} A) + mu I is a
    rank-one positive matrix, so the line supporting W(A) at angle
    theta + pi touches along a segment.  phase_a and phase_b rotate
    the two free entries; the third entry's phase is then forced.
    The eigenvalues and phases must be finite (ParameterOutOfDisc
    otherwise); a non-finite theta or mu leaves a weight non-finite.
    """
    lam = np.array([complex(l3), complex(l4), complex(l5)])
    if not np.all(np.isfinite(np.append(lam, [phase_a, phase_b]))):
        raise ParameterOutOfDisc("eigenvalues and phases must be finite")
    theta = float(theta)
    mu = float(mu)
    w = np.exp(-1j * theta)
    mus = (w * lam).real + mu
    if not np.all((0.0 < mus) & (mus < np.inf)):  # nan fails too
        raise InfeasibleMu(f"shifted weights {mus} must all be finite and positive")
    m3, m4, m5 = mus
    a = 2.0 * np.sqrt(m3 * m4) * np.exp(1j * phase_a)
    b = 2.0 * np.sqrt(m3 * m5) * np.exp(1j * phase_b)
    c = np.conj(a) * b * np.exp(1j * theta) / (2.0 * m3)  # forces |c| = 2 sqrt(m4 m5)
    return np.array(
        [[lam[0], a, b], [0.0, lam[1], c], [0.0, 0.0, lam[2]]],
        dtype=complex,
    )


def _unitaries(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normal draws g of shape (..., 2, n, n), by one stacked QR.

    Each is the Q of (g[0] + i g[1]) / sqrt 2, its columns rotated by the
    phases of R's diagonal so that the distribution is Haar.
    """
    q, r = np.linalg.qr((g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    ph = np.where(np.abs(d) > 0.0, d / np.abs(np.where(np.abs(d) > 0.0, d, 1.0)), 1.0)
    return q * ph[..., None, :]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fix."""
    return _unitaries(rng.standard_normal((2, n, n)))


def random_partial_isometry(n: int, ker_dim, seed) -> np.ndarray:
    """Seeded random n x n partial isometry with kernel dimension ker_dim.

    Zero columns padded with Haar-unitary columns, then conjugated by an
    independent Haar unitary from the same stream so the kernel sits in
    generic position.  Equal-length sequences of kernel dimensions and
    seeds give the (B, n, n) stack of those draws, seed by seed, from one
    QR of all 2B unitaries; one kernel dimension and seed is a stack of one.
    """
    single = np.ndim(ker_dim) == 0 and np.ndim(seed) == 0
    kds, seeds = ([ker_dim], [seed]) if single else (ker_dim, seed)
    if np.ndim(kds) != 1 or np.ndim(seeds) != 1 or not 0 < len(kds) == len(seeds):
        raise BadDims("need one kernel dimension and seed, or equal-length non-empty sequences of them")
    if n < 1 or not all(0 <= kd <= n for kd in kds):
        raise BadDims(f"need 0 <= ker_dim <= n, got n={n}, ker_dim={ker_dim}")
    # each seed's stream: the real and imaginary draws of u1, then of u2
    us = _unitaries(np.stack([np.random.default_rng(s).standard_normal((2, 2, n, n)) for s in seeds]))
    u1, u2 = us[:, 0], us[:, 1]
    a0 = np.zeros_like(u1)
    for a, u, kd in zip(a0, u1, kds):
        a[:, kd:] = u[:, : n - kd]
    mats = u2 @ a0 @ u2.conj().swapaxes(-1, -2)
    return mats[0] if single else mats


def _disc_draw(rng: np.random.Generator, lo: float, hi: float) -> complex:
    mag = rng.uniform(lo, hi)
    return mag * np.exp(2j * np.pi * rng.uniform())


def ker2_family(seed: int, distinct_top: bool = False) -> np.ndarray:
    """Seeded 5x5 upper-triangular partial isometry with two-dimensional kernel.

    Shape [[0, B], [0, C]] with C 3x3 upper triangular, diag(C) = (b, a, a),
    a >= 0, and B*B + C*C = I.  C is drawn and rescaled by its largest
    singular value so the defect I - C*C has rank two; B is a rotated
    rank-two square root of that defect.  By default the top diagonal
    entry is planted equal to a (b = a); distinct_top draws b freely.
    Draw ranges keep the family away from degenerate corners so the
    constraint identities respond measurably to perturbations.
    """
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(0.45, 0.9)
    e = _disc_draw(rng, 0.35, 0.8)
    f = _disc_draw(rng, 0.35, 0.8)
    d = _disc_draw(rng, 0.35, 0.8)
    b0 = _disc_draw(rng, 0.3, 0.9) if distinct_top else complex(a0)
    c0 = np.array([[b0, e, f], [0.0, a0, d], [0.0, 0.0, a0]], dtype=complex)
    smax = float(np.linalg.svd(c0, compute_uv=False)[0])
    c = c0 / smax

    defect = np.eye(3) - c.conj().T @ c
    w, v = np.linalg.eigh(defect)  # ascending; w[0] is the planted zero
    root = np.sqrt(np.maximum(w[1:], 0.0))
    m = root[::-1, None] * v[:, 1:][:, ::-1].conj().T  # rows: largest defect directions
    b = haar_unitary(2, rng) @ m

    out = np.zeros((5, 5), dtype=complex)
    out[:2, 2:] = b
    out[2:, 2:] = c
    return out

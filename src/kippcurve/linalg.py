"""Dense complex linear algebra substrate.

Hermitian splitting, ordered Schur forms and the structural predicates
(partial isometry, class S_n membership, irreducibility, kernel dimension,
block form, reduction of a degenerate kernel summand) that the polynomial
and classification layers build on.  Everything is plain numpy/scipy on
small dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BadDims, ConvergenceFailure, NotPartialIsometry

DEFAULT_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex ndarray, rejecting non-square or non-finite input."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadDims(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise BadDims("matrix entries must be finite")
    return m


def _scale(m: np.ndarray) -> float:
    # relative tolerances are anchored at max(1, ||A||_F)
    return max(1.0, float(np.linalg.norm(m)))


def hermitian_parts(a) -> tuple[np.ndarray, np.ndarray]:
    """Split A = H + iK with H = (A + A*)/2 and K = (A - A*)/(2i), both Hermitian."""
    m = as_matrix(a)
    h = (m + m.conj().T) / 2.0
    k = (m - m.conj().T) / 2.0j
    return h, k


def is_partial_isometry(a, tol: float = DEFAULT_TOL) -> bool:
    """A A* A = A up to tol, relative to the size of A."""
    m = as_matrix(a)
    defect = np.linalg.norm(m @ m.conj().T @ m - m)
    return bool(defect <= tol * _scale(m))


def is_class_sn(a, tol: float = DEFAULT_TOL) -> bool:
    """Contraction with all eigenvalues in the open unit disc and rank-one defect I - A*A."""
    m = as_matrix(a)
    n = m.shape[0]
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] > 1.0 + tol:
        return False
    if np.any(np.abs(np.linalg.eigvals(m)) >= 1.0 - tol):
        return False
    defect = np.linalg.svd(np.eye(n) - m.conj().T @ m, compute_uv=False)
    return int(np.sum(defect > tol)) == 1


def kernel_dimension(a, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values at zero scale, i.e. dim ker A."""
    m = as_matrix(a)
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv <= tol * max(1.0, float(sv[0]))))


def _commutant_spectrum(a, tol: float) -> tuple[np.ndarray, float]:
    # XA = AX and XA* = A*X stacked as one linear system on vec(X): its
    # singular values and the cutoff below which they count as zero
    m = as_matrix(a)
    eye = np.eye(m.shape[0])
    top = np.kron(m.T, eye) - np.kron(eye, m)
    bot = np.kron(m.conj(), eye) - np.kron(eye, m.conj().T)
    sv = np.linalg.svd(np.vstack([top, bot]), compute_uv=False)
    return sv, tol * max(1.0, float(sv[0]))


def joint_commutant_dimension(a, tol: float = DEFAULT_TOL) -> int:
    """Dimension of {X : XA = AX and XA* = A*X}.

    The two commutator equations are stacked as one linear system on vec(X)
    and the kernel is counted from its singular values.
    """
    sv, cutoff = _commutant_spectrum(a, tol)
    return int(np.sum(sv <= cutoff))


def is_irreducible(a, tol: float = DEFAULT_TOL) -> bool | None:
    """True iff the joint commutant of A, A* is trivial (scalars only).

    Returns None when some singular value of the commutant system falls
    inside the decision band around the cutoff, where neither verdict
    would be trustworthy.
    """
    sv, cutoff = _commutant_spectrum(a, tol)
    # borderline: anything within a decade of the cutoff on either side
    near = (sv > cutoff / 10.0) & (sv < cutoff * 10.0)
    if np.any(near):
        return None
    return int(np.sum(sv <= cutoff)) == 1


@dataclass(frozen=True)
class SchurForm:
    """Unitary U and upper-triangular T with A = U T U*."""

    unitary: np.ndarray
    triangular: np.ndarray
    eigenvalues: np.ndarray


def _swap_schur_adjacent(t: np.ndarray, u: np.ndarray, i: int) -> None:
    # exchange diagonal entries i, i+1 by a unitary similarity keeping T triangular
    a, b, c = t[i, i], t[i, i + 1], t[i + 1, i + 1]
    x0, x1 = b, c - a  # eigenvector of [[a, b], [0, c]] for eigenvalue c
    nx = np.hypot(abs(x0), abs(x1))
    if nx == 0.0:
        return  # equal eigenvalues, nothing to move
    v0, v1 = x0 / nx, x1 / nx
    g = np.array([[v0, -np.conj(v1)], [v1, np.conj(v0)]])
    t[:, i : i + 2] = t[:, i : i + 2] @ g
    t[i : i + 2, :] = g.conj().T @ t[i : i + 2, :]
    u[:, i : i + 2] = u[:, i : i + 2] @ g
    t[i + 1, i] = 0.0


def schur_triangularize(a, order: str | None = "lex") -> SchurForm:
    """Complex Schur form with a caller-chosen diagonal ordering.

    order="lex" sorts the diagonal by (Re, Im) ascending using adjacent
    unitary swaps; order=None keeps whatever the QR iteration produced.
    """
    m = as_matrix(a)
    n = m.shape[0]
    try:
        t, u = scipy.linalg.schur(m, output="complex")
    except Exception as exc:
        raise ConvergenceFailure(f"schur iteration failed: {exc}") from exc
    t = np.asarray(t, dtype=complex).copy()
    u = np.asarray(u, dtype=complex).copy()
    if order == "lex":
        # selection sort realized through adjacent swaps
        for pos in range(n):
            diag = [(t[j, j].real, t[j, j].imag) for j in range(pos, n)]
            best = pos + min(range(len(diag)), key=diag.__getitem__)
            for j in range(best - 1, pos - 1, -1):
                _swap_schur_adjacent(t, u, j)
    elif order is not None:
        raise ValueError(f"unknown ordering policy {order!r}")
    return SchurForm(u, t, np.diag(t).copy())


@dataclass(frozen=True)
class PartialIsometryBlocks:
    """Kernel-adapted coordinates for a partial isometry.

    In the orthonormal basis given by the columns of `basis` (kernel of A
    first) the matrix takes the form [[0, B], [0, C]] with an isometric
    column block: B*B + C*C = I.
    """

    kernel_dim: int
    b: np.ndarray
    c: np.ndarray
    basis: np.ndarray


def block_form(a, tol: float = DEFAULT_TOL) -> PartialIsometryBlocks:
    m = as_matrix(a)
    n = m.shape[0]
    if not is_partial_isometry(m, tol):
        raise NotPartialIsometry("block form needs a partial isometry")
    _, sv, vh = np.linalg.svd(m)
    kdim = int(np.sum(sv <= tol * max(1.0, float(sv[0]))))
    if kdim == 0:
        basis = np.eye(n, dtype=complex)
    else:
        v = vh.conj().T
        # right singular vectors for the vanishing singular values span ker A
        basis = np.concatenate([v[:, n - kdim :], v[:, : n - kdim]], axis=1)
    t = basis.conj().T @ m @ basis
    return PartialIsometryBlocks(kdim, t[:kdim, kdim:].copy(), t[kdim:, kdim:].copy(), basis)


def reduce_partial_isometry(a, tol: float = DEFAULT_TOL) -> tuple[int, np.ndarray]:
    """Split off the largest zero direct summand supported on the kernel block.

    Returns (zero_summand_dim, reduced) where the original matrix is
    unitarily equivalent to 0_{zero_summand_dim} (+) reduced and the
    reduced matrix is again a partial isometry.  When the off-diagonal
    kernel block already has full row rank the input comes back unchanged.
    """
    m = as_matrix(a)
    n = m.shape[0]
    bf = block_form(m, tol)
    kdim = bf.kernel_dim
    if kdim == 0:
        return 0, m
    if n == kdim:
        return n, np.zeros((0, 0), dtype=complex)
    bu, bsv, _ = np.linalg.svd(bf.b)
    rank = int(np.sum(bsv > tol * max(1.0, float(bsv[0]))))
    if rank == kdim:
        return 0, m
    # rotate the kernel block so the dead rows of B come last, then drop them
    t = np.zeros((n, n), dtype=complex)
    t[:kdim, kdim:] = bu.conj().T @ bf.b
    t[kdim:, kdim:] = bf.c
    keep = list(range(rank)) + list(range(kdim, n))
    return kdim - rank, t[np.ix_(keep, keep)]

"""Dense complex linear algebra substrate.

The Hermitian split A = H + iK, of one matrix or matrix by matrix of a
stack, and the lex-ordered complex Schur form that the polynomial and
classification layers build on.  Everything is
plain numpy/scipy on small dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BadDims, ConvergenceFailure

DEFAULT_TOL = 1e-9


def as_stack(a) -> tuple[np.ndarray, bool]:
    """(stack, single): a square matrix or a stack of them as a (B, n, n) complex ndarray.

    single is True for one matrix, which is a stack of one.  Empty,
    non-square or non-finite input raises BadDims.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or 0 in m.shape:
        raise BadDims(f"expected a non-empty square matrix or stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise BadDims("matrix entries must be finite")
    return (m[None], True) if m.ndim == 2 else (m, False)


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex ndarray, rejecting empty, non-square or non-finite input."""
    m, single = as_stack(a)
    if not single:
        raise BadDims(f"expected a non-empty square matrix, got shape {m.shape}")
    return m[0]


def hermitian_parts(a) -> tuple[np.ndarray, np.ndarray]:
    """Split A = H + iK with H = (A + A*)/2 and K = (A - A*)/(2i), both Hermitian.

    A stack of matrices splits matrix by matrix.
    """
    m, single = as_stack(a)
    adj = m.conj().swapaxes(-1, -2)
    h, k = (m + adj) / 2.0, (m - adj) / 2.0j
    return (h[0], k[0]) if single else (h, k)


@dataclass(frozen=True)
class SchurForm:
    """Unitary U and upper-triangular T with A = U T U*."""

    unitary: np.ndarray
    triangular: np.ndarray
    eigenvalues: np.ndarray


def schur_triangularize(a, order: str = "lex") -> SchurForm:
    """Complex Schur form with the diagonal sorted by (Re, Im) ascending.

    Each move is one LAPACK ztrexc call.  "lex" is the only ordering;
    any other order raises ValueError.
    """
    if order != "lex":
        raise ValueError(f"unknown ordering policy {order!r}")
    m = as_matrix(a)
    n = m.shape[0]
    try:
        t, u = scipy.linalg.schur(m, output="complex")
    except Exception as exc:
        raise ConvergenceFailure(f"schur iteration failed: {exc}") from exc
    for pos in range(n):
        diag = [(t[j, j].real, t[j, j].imag) for j in range(pos, n)]
        best = pos + min(range(len(diag)), key=diag.__getitem__)
        t, u, info = scipy.linalg.lapack.ztrexc(t, u, best + 1, pos + 1)
        if info != 0:
            raise ConvergenceFailure(f"ztrexc failed with info {info}")
    return SchurForm(u, t, np.diag(t).copy())


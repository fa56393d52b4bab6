"""Dense complex linear algebra substrate.

The Hermitian split A = H + iK and the lex-ordered complex Schur form
that the polynomial and classification layers build on.  Everything is
plain numpy/scipy on small dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BadDims, ConvergenceFailure

DEFAULT_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex ndarray, rejecting empty, non-square or non-finite input."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise BadDims(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise BadDims("matrix entries must be finite")
    return m


def hermitian_parts(a) -> tuple[np.ndarray, np.ndarray]:
    """Split A = H + iK with H = (A + A*)/2 and K = (A - A*)/(2i), both Hermitian."""
    m = as_matrix(a)
    h = (m + m.conj().T) / 2.0
    k = (m - m.conj().T) / 2.0j
    return h, k


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


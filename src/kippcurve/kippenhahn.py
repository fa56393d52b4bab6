"""Kippenhahn polynomial of a matrix and its spectral geometry.

For A = H + iK with Hermitian H, K the associated polynomial is

    p_A(x, y, z) = det(x H + y K + z I),

homogeneous of degree n with real coefficients and monic in z.  The dual
curve of p_A = 0 generates the numerical range: W(A) is the convex hull
of the curve's real affine points.  Two independent routes to p_A live
here.  `kipp_poly_det` samples the pencil cos(t) H + sin(t) K at 2n + 2
angles (`_sweep`), expands prod_j (z + lam_j(t)) and fits each
z-layer by least squares through a projection cached per degree
(`_fit_sweep`, which reads the angles off the degree as `_sweep` does);
it works for any square A up to degree 12, and `classify` reuses the
sweep's eigenvalues to screen factor candidates.  `kipp_poly_expanded`
is the Leibniz sum of the determinant over the 120 permutations, special
to 5x5 upper-triangular input and free of eigensolves, so each route
serves as an oracle for the other.

The closed form is prod L_i - ((x^2+y^2)/4) Q with L_i the linear
forms of the diagonal and Q a cubic in the entries (`_correction_cubic`);
the factorization condition reports in `classify` read their entry side
off Q's coefficients.

`_pencil` is the one function that builds the pencil stack, and
`_circle_sweep` the one sweep of a grid over [0, 2 pi), behind `_sweep`,
`curve_points`, `classify.fit_disc` and `classify.detect_flat`.  The
pencil at t + pi is minus the one at t, so it diagonalizes only the
angles in [0, pi) of an even grid, and an odd grid is every other angle
of the even grid twice its size.  `_circle_sweep`, `_sweep` and
`_fit_sweep` broadcast over a leading stack axis, so `classify` sweeps
and fits a stack of matrices in one pass.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

import numpy as np

from .errors import BadDims, IllConditionedInterpolation, NotDim5, NotUpperTriangular
from .homopoly import HomoPoly3, divide, linear, mul
from .linalg import as_matrix, hermitian_parts

MAX_DEGREE = 12  # largest degree the sweep route is tested at

# --- the pencil and the eigenvalue-sweep route ---


def _pencil(h: np.ndarray, k: np.ndarray, thetas) -> np.ndarray:
    """cos(theta) H + sin(theta) K, stacked over the shape of thetas.

    Every spectral computation of the package diagonalizes this stack with
    one batched eigensolve.  Its derivative in theta is the stack at
    theta + pi/2, which `classify._newton_min` builds for its slopes.
    """
    th = np.asarray(thetas, dtype=float)[..., None, None]
    return np.cos(th) * h + np.sin(th) * k


@cache
def _angles(samples: int) -> np.ndarray:
    """samples equispaced angles over [0, 2 pi), read-only: the grid of every full-circle sweep."""
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    thetas.flags.writeable = False
    return thetas


def _circle_sweep(m: np.ndarray, samples: int, points: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(thetas, rows): the pencil of m at the samples `_angles`, one row per angle.

    Row t holds the ascending eigenvalues at thetas[t], or with points the
    curve points u* m u over the eigenvectors in the same order.  For an
    even samples, row t + samples / 2 is at thetas[t] + pi, where the
    pencil is negated: its eigenvalues are row t's negated and reversed,
    its eigenvectors row t's reversed up to a phase that u* m u ignores.
    Only the first half is diagonalized.  An odd samples is every other
    angle of the grid of 2 samples, so it is that grid's sweep, thinned.
    A stack m of shape (B, n, n) gives rows of shape (B, samples, n) from
    one batched eigensolve.
    """
    if samples % 2:
        thetas, rows = _circle_sweep(m, 2 * samples, points)
        return thetas[::2], rows[..., ::2, :]
    thetas = _angles(samples)
    h, k = hermitian_parts(m)
    pencil = _pencil(h[..., None, :, :], k[..., None, :, :], thetas[: samples // 2])
    if points:
        _, vecs = np.linalg.eigh(pencil)
        rows = np.einsum("...tik,...tik->...tk", vecs.conj(), m[..., None, :, :] @ vecs)
        mirror = rows[..., ::-1]
    else:
        rows = np.linalg.eigvalsh(pencil)
        mirror = -rows[..., ::-1]
    return thetas, np.concatenate([rows, mirror], axis=-2)


def _sweep(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(thetas, lams): the pencil's eigenvalues at 2n + 2 equispaced angles, n its degree.

    lams[t] holds the ascending eigenvalues of cos(thetas[t]) H + sin(thetas[t]) K.
    2n + 2 is even, so `_circle_sweep` diagonalizes n + 1 of the angles.
    A stack m gives one row block per matrix.  Raises BadDims above MAX_DEGREE.
    """
    n = m.shape[-1]
    if n > MAX_DEGREE:
        raise BadDims(f"degree {n} exceeds the supported maximum {MAX_DEGREE}")
    return _circle_sweep(m, 2 * n + 2)


@cache
def _layer_projections(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (design, pinv(design)) of the z-layers of degree 1..n, stacked.

    design[m - 1] has the columns cos^(m-j) sin^j, j = 0..m, at the 2n + 2
    angles of a degree-n `_sweep`, padded with zero columns to n + 1, and
    pinv[m - 1] is its pseudo-inverse padded with zero rows.  They depend
    on nothing but n, so every sweep of the same degree shares one
    least-squares projection.
    """
    thetas = _angles(2 * n + 2)
    powers = np.arange(n + 1)
    cos_pow = np.cos(thetas)[:, None] ** powers
    sin_pow = np.sin(thetas)[:, None] ** powers
    design = np.zeros((n, thetas.size, n + 1))
    pinv = np.zeros((n, n + 1, thetas.size))
    for deg in range(1, n + 1):
        design[deg - 1, :, : deg + 1] = cos_pow[:, deg::-1] * sin_pow[:, : deg + 1]
        pinv[deg - 1, : deg + 1] = np.linalg.pinv(design[deg - 1, :, : deg + 1])
    design.flags.writeable = False
    pinv.flags.writeable = False
    return design, pinv


def _fit_sweep(lams: np.ndarray) -> np.ndarray:
    """Coefficient array of the polynomial whose z-layers fit the elementary symmetric functions of lams.

    lams holds the eigenvalues of a `_sweep`, one row per angle, or a
    stack of them; a stack gives a stack of coefficient arrays.  Raises
    IllConditionedInterpolation when a layer's fit residual exceeds 1e-8
    relative to rho^m, rho the largest eigenvalue modulus of the sweep.
    """
    n = lams.shape[-1]
    # elementary symmetric functions e_0..e_n at every angle: expand prod (z + lam_j)
    esym = np.zeros(lams.shape[:-1] + (n + 1,))
    esym[..., 0] = 1.0
    for j in range(n):
        esym[..., 1:] = esym[..., 1:] + lams[..., j, None] * esym[..., :-1]

    design, pinv = _layer_projections(n)
    layers = esym[..., 1:].swapaxes(-1, -2)[..., None]  # layers[..., m - 1, :, 0] = e_m over the angles
    coef = pinv @ layers
    resid = np.max(np.abs(design @ coef - layers), axis=(-2, -1))
    rho = np.max(np.abs(lams), axis=(-2, -1), initial=0.0)
    over = ~(resid <= 1e-8 * rho[..., None] ** np.arange(1, n + 1))  # nan counts as over
    if np.any(over):
        bad = tuple(np.argwhere(over)[0])
        raise IllConditionedInterpolation(f"z^{n - 1 - bad[-1]} layer fit residual {resid[bad]:.3e}")
    c = np.zeros(lams.shape[:-2] + (n + 1, n + 1))
    c[..., 0, n] = 1.0
    c[..., :n] = coef[..., ::-1, :, 0].swapaxes(-1, -2)  # the degree-m layer is column n - m
    return c


def kipp_poly_det(a) -> HomoPoly3:
    """det(x H + y K + z I) recovered from one eigenvalue sweep of the pencil.

    On the unit circle p(cos t, sin t, z) = prod_j (z + lam_j(t)) over the
    eigenvalues of cos(t) H + sin(t) K, so the z^(n-m) coefficient layer is
    the m-th elementary symmetric function of the lam_j(t), a form of
    degree m in (cos t, sin t).  `_sweep` samples the eigenvalues at
    2n + 2 equispaced angles (n + 1 eigensolves, as the pencil at t + pi
    is minus the one at t) and `_fit_sweep` fits each layer by least
    squares in the monomials cos^(m-j) sin^j, through a projection cached
    per degree; the z^n layer is 1, so the result is monic by construction.
    Each fitted layer is column n - m of the coefficient array.  Raises
    IllConditionedInterpolation when a layer's fit residual exceeds 1e-8
    relative to rho^m, rho the largest eigenvalue modulus of the sweep.
    """
    return HomoPoly3(_fit_sweep(_sweep(as_matrix(a))[1]))


# --- closed-form route for 5x5 upper-triangular matrices ---

_N = 5


def _check_upper_5x5(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != _N:
        raise NotDim5(f"need a 5x5 matrix, got {m.shape[0]}x{m.shape[0]}")
    lower = np.tril(m, -1)
    if np.max(np.abs(lower)) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
        raise NotUpperTriangular("entries below the diagonal must vanish")
    return m


_E4 = np.array([[0.25, 0.0, 0.0], [0.0, 0.0, 0.0], [0.25, 0.0, 0.0]])  # (x^2 + y^2) / 4

# the permutations of the Leibniz sum but the identity, with their signs,
# and the flat index 6 j + k of the monomial x^(5-j-k) y^j z^k of each entry
# (a, b, c, d, e) of a quintic tensor over the variables (x, y, z)
_PERMS = np.array(list(permutations(range(_N))))[1:]
_SIGNS = (-1.0) ** np.triu(_PERMS[:, :, None] > _PERMS[:, None, :], 1).sum(axis=(1, 2))
_ABCDE = np.indices((3,) * _N).reshape(_N, -1)
_FOLD5 = 6 * np.sum(_ABCDE == 1, axis=0) + np.sum(_ABCDE == 2, axis=0)


def _lin(lam: complex) -> np.ndarray:
    return linear(lam.real, lam.imag, 1.0)


def _leibniz_rest(t: np.ndarray) -> np.ndarray:
    """Coefficient array of p_T - prod L_i for 5x5 upper-triangular T.

    This is the Leibniz sum of det(x H + y K + z I) over every permutation
    but the identity, whose term is prod L_i.  Entry (i, j) of the pencil
    is a linear form over (x, y, z) read off T's upper triangle: T_ij
    (x - i y)/2 above the diagonal, its conjugate (x + i y)/2 below and
    L_i = (Re lam_i) x + (Im lam_i) y + z on it; entries below T's diagonal
    are ignored.  The signed products are one matrix product, rows 0-2 of
    each permutation against rows 3-4, folded into coefficients.
    """
    u = np.triu(t, 1)[..., None]
    forms = u * [0.5, -0.5j, 0.0] + u.conj().transpose(1, 0, 2) * [0.5, 0.5j, 0.0]
    lam = np.diag(t)
    forms[range(_N), range(_N)] = np.stack([lam.real, lam.imag, np.ones(_N)], axis=1)
    f = forms[range(_N), _PERMS]  # f[s, r]: the row-r factor of permutation s
    head = np.einsum("s,sa,sb,sc->sabc", _SIGNS, f[:, 0], f[:, 1], f[:, 2]).reshape(-1, 27)
    tail = np.einsum("sa,sb->sab", f[:, 3], f[:, 4]).reshape(-1, 9)
    tensor = (head.T @ tail).real  # the imaginary parts cancel between conjugate terms
    return np.bincount(_FOLD5, weights=tensor.ravel(), minlength=36).reshape(6, 6)


def _correction_cubic(t) -> HomoPoly3:
    """The cubic Q with p_T = prod L_i - ((x^2+y^2)/4) Q for 5x5 upper-triangular T.

    Every permutation but the identity moves some index up and some index
    down, so its product holds an entry above the diagonal and one below,
    hence the factor (x - i y)(x + i y) = x^2 + y^2.  Q is therefore one
    exact division of `_leibniz_rest`, which never forms and cancels
    prod L_i, and the remainder is roundoff.  x^2 + y^2 is monic in y, so
    swapping y and z (transposing both arrays) makes it one `divide`.
    The caller passes a matrix already checked by `_check_upper_5x5`.
    """
    quot, _ = divide(_leibniz_rest(t).T, 4.0 * _E4.T)
    return HomoPoly3(-4.0 * quot.T)


def kipp_poly_expanded(a) -> HomoPoly3:
    """Closed-form p_A for 5x5 upper-triangular A: the Leibniz sum of the determinant.

    The identity's term prod L_i plus `_leibniz_rest`.  Every entry of
    x H + y K + z I is a linear form taken straight from A's entries, with
    no Hermitian splitting and no eigensolve, so this route is independent
    of the sweep.
    """
    t = _check_upper_5x5(a)
    prod = np.ones((1, 1))
    for lam in np.diag(t):
        prod = mul(prod, _lin(lam))
    return HomoPoly3(prod + _leibniz_rest(t))


# --- spectral geometry of the pencil ---


_last_points: tuple | None = None  # (key, points) of the last curve_points sweep


def curve_points(a, samples: int = 256) -> np.ndarray:
    """Curve points at samples angles over [0, 2 pi), one row per angle.

    Row t holds u* A u over the eigenvectors u of the pencil at theta_t, by
    ascending eigenvalue: the tangency points of the lines orthogonal to theta_t.
    An even samples costs samples / 2 eigensolves (`_circle_sweep`).  Fewer
    than one sample raise ValueError.

    The last result (samples x n complex values) stays alive, keyed by
    samples and the checked matrix's shape and bytes, so a second call
    on the same matrix and grid, such as `boundary_polyline` followed by
    `svgplot.render_svg`, runs no eigensolve.  Every call returns its own
    copy.
    """
    global _last_points
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    m = as_matrix(a)
    key = (samples, m.shape, m.tobytes())
    last = _last_points
    if last is None or last[0] != key:
        last = _last_points = key, _circle_sweep(m, samples, points=True)[1]
    return last[1].copy()


def boundary_polyline(a, samples: int = 256) -> np.ndarray:
    """Boundary points of W(A): the last column of `curve_points`, the top eigenvector's."""
    return curve_points(a, samples)[:, -1]

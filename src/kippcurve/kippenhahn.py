"""Kippenhahn polynomial of a matrix and its spectral geometry.

For A = H + iK with Hermitian H, K the associated polynomial is

    p_A(x, y, z) = det(x H + y K + z I),

homogeneous of degree n with real coefficients and monic in z.  The dual
curve of p_A = 0 generates the numerical range: W(A) is the convex hull
of the curve's real affine points.  Two independent routes to p_A live
here.  `kipp_poly_det` diagonalizes the pencil cos(t) H + sin(t) K at a
few angles, expands prod_j (z + lam_j(t)) and fits each z-layer by least
squares; it works for any square A up to degree 12.  `kipp_poly_expanded`
is a closed-form expansion special to 5x5 upper-triangular input,
organised by the cycle structure of the permutations in the determinant.
The two are developed independently so each can serve as an oracle for
the other.

The closed form is prod L_i - ((x^2+y^2)/4) Q with L_i the linear
forms of the diagonal and Q a cubic in the entries (`_correction_cubic`);
the factorization condition reports in `classify` read their entry side
off Q's coefficients.  Also here: the one function that builds the pencil
stack, and the sweeps that sample the curve's points and the boundary
of W(A).
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from .errors import BadDims, IllConditionedInterpolation, NotDim5, NotUpperTriangular
from .homopoly import HomoPoly3, linear, mul
from .linalg import as_matrix, hermitian_parts

MAX_DEGREE = 12  # largest degree the sweep route is tested at

# --- the pencil and the eigenvalue-sweep route ---


def _pencil(h: np.ndarray, k: np.ndarray, thetas) -> np.ndarray:
    """cos(theta) H + sin(theta) K, stacked over the shape of thetas.

    Every spectral computation of the package diagonalizes this stack with
    one batched eigensolve.
    """
    th = np.asarray(thetas, dtype=float)[..., None, None]
    return np.cos(th) * h + np.sin(th) * k


def kipp_poly_det(a) -> HomoPoly3:
    """det(x H + y K + z I) recovered from one eigenvalue sweep of the pencil.

    On the unit circle p(cos t, sin t, z) = prod_j (z + lam_j(t)) over the
    eigenvalues of cos(t) H + sin(t) K, so the z^(n-m) coefficient layer is
    the m-th elementary symmetric function of the lam_j(t), a form of
    degree m in (cos t, sin t).  Each layer is sampled at 2n + 2 equispaced
    angles and fitted by least squares in the monomials cos^(m-j) sin^j;
    the z^n layer is 1, so the result is monic by construction.  Each
    fitted layer is column n - m of the coefficient array.  Raises
    IllConditionedInterpolation when a layer's fit residual exceeds 1e-8
    relative to rho^m, rho the largest eigenvalue modulus of the sweep.
    """
    m = as_matrix(a)
    n = m.shape[0]
    if n > MAX_DEGREE:
        raise BadDims(f"degree {n} exceeds the supported maximum {MAX_DEGREE}")
    thetas = np.linspace(0.0, 2.0 * np.pi, 2 * n + 2, endpoint=False)
    lams = np.linalg.eigvalsh(_pencil(*hermitian_parts(m), thetas))

    # elementary symmetric functions e_0..e_n at every angle: expand prod (z + lam_j)
    esym = np.zeros((thetas.size, n + 1))
    esym[:, 0] = 1.0
    for lam in lams.T:
        esym[:, 1:] = esym[:, 1:] + lam[:, None] * esym[:, :-1]

    rho = float(np.max(np.abs(lams), initial=0.0))
    powers = np.arange(n + 1)
    cos_pow = np.cos(thetas)[:, None] ** powers
    sin_pow = np.sin(thetas)[:, None] ** powers
    c = np.zeros((n + 1, n + 1))
    c[0, n] = 1.0
    for deg in range(1, n + 1):
        design = cos_pow[:, deg::-1] * sin_pow[:, : deg + 1]  # columns cos^(deg-j) sin^j
        coef, *_ = np.linalg.lstsq(design, esym[:, deg], rcond=None)
        resid = float(np.max(np.abs(design @ coef - esym[:, deg])))
        if resid > 1e-8 * rho**deg:
            raise IllConditionedInterpolation(f"z^{n - deg} layer fit residual {resid:.3e}")
        c[: deg + 1, n - deg] = coef
    return HomoPoly3(c)


# --- entry-product sums of the closed form for 5x5 upper-triangular matrices ---

_N = 5


def _check_upper_5x5(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != _N:
        raise NotDim5(f"need a 5x5 matrix, got {m.shape[0]}x{m.shape[0]}")
    lower = np.tril(m, -1)
    if np.max(np.abs(lower)) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
        raise NotUpperTriangular("entries below the diagonal must vanish")
    return m


def upper_entries(t: np.ndarray) -> dict:
    """Strictly upper entries keyed by index pair (i, j), i < j."""
    return {(i, j): complex(t[i, j]) for i in range(_N) for j in range(i + 1, _N)}


def triple_product(a: dict, k: int, l: int, m: int) -> complex:
    """Cyclic product a_kl a_lm conj(a_km) for k < l < m."""
    return a[(k, l)] * a[(l, m)] * a[(k, m)].conjugate()


def quad_product(a: dict, j: int, k: int, l: int, m: int) -> complex:
    """Chain product a_jk a_kl a_lm conj(a_jm) for j < k < l < m."""
    return a[(j, k)] * a[(k, l)] * a[(l, m)] * a[(j, m)].conjugate()


def five_product(a: dict) -> complex:
    """Full chain a_12 a_23 a_34 a_45 conj(a_15) in 1-based labelling."""
    return a[(0, 1)] * a[(1, 2)] * a[(2, 3)] * a[(3, 4)] * a[(0, 4)].conjugate()


def p_scalars(a: dict) -> list[float]:
    """For each index i, the 4-index invariant of the complementary entries.

    Three pair-partition modulus terms minus twice the real parts of the
    two crossing 4-cycles of the complement; one term per unordered
    pattern (counting each conjugate pair once).
    """
    out = []
    for i in range(_N):
        w1, w2, w3, w4 = sorted(set(range(_N)) - {i})
        pairs = (
            abs(a[(w1, w2)]) ** 2 * abs(a[(w3, w4)]) ** 2
            + abs(a[(w1, w3)]) ** 2 * abs(a[(w2, w4)]) ** 2
            + abs(a[(w1, w4)]) ** 2 * abs(a[(w2, w3)]) ** 2
        )
        cyc_a = a[(w1, w2)] * a[(w2, w4)] * a[(w1, w3)].conjugate() * a[(w3, w4)].conjugate()
        cyc_b = a[(w1, w4)] * a[(w2, w3)] * a[(w1, w3)].conjugate() * a[(w2, w4)].conjugate()
        out.append(float(pairs - 2.0 * cyc_a.real - 2.0 * cyc_b.real))
    return out


# index families, enumerated once
PART_32 = [(t, tuple(sorted(set(range(_N)) - set(t)))) for t in combinations(range(_N), 3)]
PART_14 = [((i,), tuple(sorted(set(range(_N)) - {i}))) for i in range(_N)]
_TRIPLES = np.array([t for t, _ in PART_32]).T
_PAIRS = np.array([p for _, p in PART_32]).T

# 5-cycle inverse pairs beyond the monotone chain, split by descent pattern:
# FAM6 indexes (i, j, k, l, m) with i<j<k<l and i<m<l,
# FAM7 indexes (i, j, k, l, m) with i<j<k, l<m, i<m, l<k.
FAM6 = [
    p
    for p in permutations(range(_N))
    if p[0] < p[1] < p[2] < p[3] and p[0] < p[4] < p[3]
]
FAM7 = [
    p
    for p in permutations(range(_N))
    if p[0] < p[1] < p[2] and p[3] < p[4] and p[0] < p[4] and p[3] < p[2]
]


def fam6_product(a: dict, idx: tuple) -> complex:
    i, j, k, l, m = idx
    return a[(i, j)] * a[(j, k)] * a[(k, l)] * a[(i, m)].conjugate() * a[(m, l)].conjugate()


def fam7_product(a: dict, idx: tuple) -> complex:
    i, j, k, l, m = idx
    return a[(i, j)] * a[(j, k)] * a[(l, m)] * a[(i, m)].conjugate() * a[(l, k)].conjugate()


# --- closed-form route for 5x5 upper-triangular matrices ---

_E4 = np.array([[0.25, 0.0, 0.0], [0.0, 0.0, 0.0], [0.25, 0.0, 0.0]])  # (x^2 + y^2) / 4

# monomial x^(3-j-k) y^j z^k of each entry (a, b, c) of a cubic tensor over
# the variables (x, y, z), as the flat index 4 j + k of its coefficient
_ABC = np.indices((3, 3, 3)).reshape(3, -1)
_FOLD3 = 4 * np.sum(_ABC == 1, axis=0) + np.sum(_ABC == 2, axis=0)


def _lin(lam: complex) -> np.ndarray:
    return linear(lam.real, lam.imag, 1.0)


def _xy(w) -> np.ndarray:
    # x Re w + y Im w as vectors over (x, y, z), for a complex scalar or array w
    w = np.asarray(w)
    return np.stack([w.real, w.imag, np.zeros(w.shape)], axis=-1)


def _quad_form(w: complex) -> np.ndarray:
    # (x^2 - y^2)/2 Re w + x y Im w, as a symmetric matrix over (x, y, z)
    re, im = 0.5 * w.real, 0.5 * w.imag
    return np.array([[re, im, 0.0], [im, -re, 0.0], [0.0, 0.0, 0.0]])


def _correction_cubic(t) -> HomoPoly3:
    """The cubic Q with p_T = prod L_i - ((x^2+y^2)/4) Q for 5x5 upper-triangular T.

    Here L_i = (Re lam_i) x + (Im lam_i) y + z for the diagonal entries.
    Q collects the non-identity permutations of the determinant by cycle
    type, and every pattern that carries a further (x^2+y^2)/4 has its
    linear weight summed into w before the one product.  All sums run
    over the index families enumerated above.  The patterns against
    leftover linear factors are summed as one cubic tensor over
    (x, y, z), which is folded into coefficients at the end.
    The caller passes a matrix already checked by `_check_upper_5x5`.
    """
    lam = np.diag(t)
    ent = upper_entries(t)
    lins = np.stack([lam.real, lam.imag, np.ones(_N)], axis=1)
    pis = p_scalars(ent)

    # each split into a triple and its complementary pair gives two
    # rank-one terms f1 f2 f3: the pair's transposition against the
    # triple's linear factors, and the triple's 3-cycle against the pair's;
    # (in w) the 3-cycle against the pair's transposition
    mod2 = np.array([abs(ent[pair]) ** 2 for _, pair in PART_32])
    cyc = _xy([triple_product(ent, *tri) for tri, _ in PART_32])
    f1 = np.concatenate([mod2[:, None] * lins[_TRIPLES[0]], -lins[_PAIRS[0]]])
    f2 = np.concatenate([lins[_TRIPLES[1]], lins[_PAIRS[1]]])
    f3 = np.concatenate([lins[_TRIPLES[2]], cyc])
    cubic = np.einsum("na,nb,nc->abc", f1, f2, f3)
    w = mod2 @ cyc

    # monotone 4-cycles against one leftover linear factor
    quads = np.array([_quad_form(quad_product(ent, *rest)) for _, rest in PART_14])
    cubic += np.einsum("ia,ibc->abc", lins, quads)

    # (in w) (2,2)-patterns and crossing 4-cycles of a fixed complement,
    # and the non-monotone 5-cycles grouped by descent pattern
    w -= np.asarray(pis) @ lins
    w -= _xy(sum(fam6_product(ent, idx) for idx in FAM6) + sum(fam7_product(ent, idx) for idx in FAM7))

    q = np.bincount(_FOLD3, weights=cubic.ravel(), minlength=16).reshape(4, 4)
    q += mul(_E4, linear(*w))
    # the monotone 5-cycle carries a cubic harmonic weight
    w5 = five_product(ent)
    q[:, 0] -= 0.25 * np.array([w5.real, 3.0 * w5.imag, -3.0 * w5.real, -w5.imag])
    return HomoPoly3(q)


def kipp_poly_expanded(a) -> HomoPoly3:
    """Closed-form p_A for 5x5 upper-triangular A: prod L_i - ((x^2+y^2)/4) Q.

    L_i and the correction cubic Q are as in `_correction_cubic`; no
    eigensolve is involved, so this route is independent of the sweep.
    """
    t = _check_upper_5x5(a)
    prod = np.ones((1, 1))
    for lam in np.diag(t):
        prod = mul(prod, _lin(lam))
    return HomoPoly3(prod - mul(_E4, _correction_cubic(t).c))


# --- spectral geometry of the pencil ---


def _tangency(m: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    # points u* A u for the eigenvector columns u of each pencil in the stack
    return np.einsum("tik,ij,tjk->tk", vecs.conj(), m, vecs)


def boundary_polyline(a, samples: int = 256) -> np.ndarray:
    """Boundary points of W(A): tangency point of the top eigenvector per angle."""
    m = as_matrix(a)
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    _, vecs = np.linalg.eigh(_pencil(*hermitian_parts(m), thetas))
    return _tangency(m, vecs[:, :, -1:])[:, 0]


def curve_points(a, samples: int = 256) -> np.ndarray:
    """Curve points at samples angles over [0, 2 pi), one row per angle.

    Row t holds u* A u over the eigenvectors u of the pencil at theta_t, by
    ascending eigenvalue: the tangency points of the lines orthogonal to theta_t.
    """
    m = as_matrix(a)
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    _, vecs = np.linalg.eigh(_pencil(*hermitian_parts(m), thetas))
    return _tangency(m, vecs)

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
stack, the support function, eigenvalue slices of the pencil in a given
direction, and boundary sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import BadDims, IllConditionedInterpolation, NotDim5, NotUpperTriangular
from .homopoly import HomoPoly3, dict_add, dict_mul, prune
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
    the z^n layer is 1, so the result is monic by construction.  Raises
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
    coeffs = {(0, 0, n): 1.0}
    for deg in range(1, n + 1):
        design = cos_pow[:, deg::-1] * sin_pow[:, : deg + 1]  # columns cos^(deg-j) sin^j
        coef, *_ = np.linalg.lstsq(design, esym[:, deg], rcond=None)
        resid = float(np.max(np.abs(design @ coef - esym[:, deg])))
        if resid > 1e-8 * rho**deg:
            raise IllConditionedInterpolation(f"z^{n - deg} layer fit residual {resid:.3e}")
        for j, c in enumerate(coef):
            if c != 0.0:
                coeffs[(deg - j, j, n - deg)] = float(c)
    return HomoPoly3(n, coeffs)


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
    return a[(k, l)] * a[(l, m)] * np.conj(a[(k, m)])


def quad_product(a: dict, j: int, k: int, l: int, m: int) -> complex:
    """Chain product a_jk a_kl a_lm conj(a_jm) for j < k < l < m."""
    return a[(j, k)] * a[(k, l)] * a[(l, m)] * np.conj(a[(j, m)])


def five_product(a: dict) -> complex:
    """Full chain a_12 a_23 a_34 a_45 conj(a_15) in 1-based labelling."""
    return a[(0, 1)] * a[(1, 2)] * a[(2, 3)] * a[(3, 4)] * np.conj(a[(0, 4)])


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
        cyc_a = a[(w1, w2)] * a[(w2, w4)] * np.conj(a[(w1, w3)]) * np.conj(a[(w3, w4)])
        cyc_b = a[(w1, w4)] * a[(w2, w3)] * np.conj(a[(w1, w3)]) * np.conj(a[(w2, w4)])
        out.append(float(pairs - 2.0 * cyc_a.real - 2.0 * cyc_b.real))
    return out


# index families, enumerated once
PART_32 = [(t, tuple(sorted(set(range(_N)) - set(t)))) for t in combinations(range(_N), 3)]
PART_23 = [(p, t) for (t, p) in PART_32]
PART_14 = [((i,), tuple(sorted(set(range(_N)) - {i}))) for i in range(_N)]

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
    return a[(i, j)] * a[(j, k)] * a[(k, l)] * np.conj(a[(i, m)]) * np.conj(a[(m, l)])


def fam7_product(a: dict, idx: tuple) -> complex:
    i, j, k, l, m = idx
    return a[(i, j)] * a[(j, k)] * a[(l, m)] * np.conj(a[(i, m)]) * np.conj(a[(l, k)])


# --- closed-form route for 5x5 upper-triangular matrices ---

_E4 = {(2, 0, 0): 0.25, (0, 2, 0): 0.25}  # (x^2 + y^2) / 4


def _lin(lam: complex) -> dict:
    return {(1, 0, 0): float(lam.real), (0, 1, 0): float(lam.imag), (0, 0, 1): 1.0}


def _xy(w: complex) -> dict:
    # x Re w + y Im w
    return {(1, 0, 0): float(w.real), (0, 1, 0): float(w.imag)}


def _quad_form(w: complex) -> dict:
    # (x^2 - y^2)/2 Re w + x y Im w
    return {
        (2, 0, 0): 0.5 * float(w.real),
        (0, 2, 0): -0.5 * float(w.real),
        (1, 1, 0): float(w.imag),
    }


def _correction_cubic(t) -> HomoPoly3:
    """The cubic Q with p_T = prod L_i - ((x^2+y^2)/4) Q for 5x5 upper-triangular T.

    Here L_i = (Re lam_i) x + (Im lam_i) y + z for the diagonal entries.
    Q collects the non-identity permutations of the determinant by cycle
    type, and every pattern that carries a further (x^2+y^2)/4 has its
    linear weight summed into w before the one product.  All sums run
    over the index families enumerated above.
    """
    t = _check_upper_5x5(t)
    lam = np.diag(t)
    ent = upper_entries(t)
    lins = [_lin(lam[i]) for i in range(_N)]
    pairs = {(i, j): dict_mul(lins[i], lins[j]) for i, j in combinations(range(_N), 2)}
    pis = p_scalars(ent)

    q: dict = {}
    w: dict = {}

    # transpositions against a leftover linear triple
    for (i, j, k), (l, m) in PART_32:
        block = dict_mul(pairs[(i, j)], lins[k])
        q = dict_add(q, block, abs(ent[(l, m)]) ** 2)

    # 3-cycles against a leftover linear pair, and (in w) against the
    # modulus of the complementary transposition
    for (i, j), (k, l, m) in PART_23:
        cyc = _xy(triple_product(ent, k, l, m))
        q = dict_add(q, dict_mul(cyc, pairs[(i, j)]), -1.0)
        w = dict_add(w, cyc, abs(ent[(i, j)]) ** 2)

    # (in w) (2,2)-patterns and crossing 4-cycles of a fixed complement
    for i in range(_N):
        w = dict_add(w, lins[i], -pis[i])

    # monotone 4-cycles against one leftover linear factor
    for (i,), (j, k, l, m) in PART_14:
        q = dict_add(q, dict_mul(lins[i], _quad_form(quad_product(ent, j, k, l, m))))

    # (in w) non-monotone 5-cycles, grouped by descent pattern
    for idx in FAM6:
        w = dict_add(w, _xy(fam6_product(ent, idx)), -1.0)
    for idx in FAM7:
        w = dict_add(w, _xy(fam7_product(ent, idx)), -1.0)

    # the monotone 5-cycle carries a cubic harmonic weight
    w5 = five_product(ent)
    q = dict_add(
        q,
        {
            (3, 0, 0): float(w5.real),
            (1, 2, 0): -3.0 * float(w5.real),
            (2, 1, 0): 3.0 * float(w5.imag),
            (0, 3, 0): -float(w5.imag),
        },
        -0.25,
    )
    return HomoPoly3(3, prune(dict_add(q, dict_mul(_E4, w))))


def kipp_poly_expanded(a) -> HomoPoly3:
    """Closed-form p_A for 5x5 upper-triangular A: prod L_i - ((x^2+y^2)/4) Q.

    L_i and the correction cubic Q are as in `_correction_cubic`; no
    eigensolve is involved, so this route is independent of the sweep.
    """
    t = _check_upper_5x5(a)
    prod = {(0, 0, 0): 1.0}
    for lam in np.diag(t):
        prod = dict_mul(prod, _lin(lam))
    full = dict_add(prod, dict_mul(_E4, _correction_cubic(t).coeffs), -1.0)
    return HomoPoly3(_N, prune(full))


# --- spectral geometry of the pencil ---


def support_function(a, theta: float) -> float:
    """Largest eigenvalue of Re(e^{-i theta} A); the support of W(A) at angle theta."""
    return float(np.linalg.eigvalsh(_pencil(*hermitian_parts(a), theta))[-1])


DEGENERATE_GAP = 1e-7


@dataclass(frozen=True)
class SpectralSlice:
    """Eigenstructure of cos(theta) H + sin(theta) K in one direction.

    curve_points holds the complex points u* A u over the eigenvectors u;
    these are the tangency points of the supporting lines orthogonal to
    theta.  degenerate is set when two eigenvalues nearly collide, which
    feeds flat-portion detection downstream.
    """

    theta: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    curve_points: np.ndarray
    degenerate: bool


def _tangency(m: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    # points u* A u for the eigenvector columns u of each pencil in the stack
    return np.einsum("tik,ij,tjk->tk", vecs.conj(), m, vecs)


def _slices(a, thetas: np.ndarray) -> list[SpectralSlice]:
    m = as_matrix(a)
    vals, vecs = np.linalg.eigh(_pencil(*hermitian_parts(m), thetas))
    pts = _tangency(m, vecs)
    gaps = np.diff(vals, axis=-1)
    return [
        SpectralSlice(float(th), v, u, p, bool(g.size and float(np.min(g)) < DEGENERATE_GAP))
        for th, v, u, p, g in zip(thetas, vals, vecs, pts, gaps)
    ]


def spectral_slice(a, theta: float) -> SpectralSlice:
    return _slices(a, np.array([theta], dtype=float))[0]


def boundary_polyline(a, samples: int = 256) -> np.ndarray:
    """Boundary points of W(A): tangency point of the top eigenvector per angle."""
    m = as_matrix(a)
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    _, vecs = np.linalg.eigh(_pencil(*hermitian_parts(m), thetas))
    return _tangency(m, vecs[:, :, -1:])[:, 0]


def curve_points(a, samples: int = 256) -> list[SpectralSlice]:
    """Full sweep of spectral slices over [0, 2 pi)."""
    return _slices(a, np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False))

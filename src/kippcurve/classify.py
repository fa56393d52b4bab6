"""Curve classification for 5x5 matrices and factorization condition reports.

The Kippenhahn polynomial of a 5x5 matrix is a quintic.  The cases of
interest factor it as

    (ellipse) x (ellipse) x (point)     or     (ellipse) x (flat cubic),

where an ellipse with foci li, lj and minor axis r corresponds to the
quadratic l_i l_j - (r^2/4)(x^2 + y^2), a point to a linear factor, and
the flat cubic is a degree-3 factor whose dual curve carries a line
segment.  `classify_curve` peels these factors off numerically;
`two_ellipse_report` and `flat_report` evaluate the exact coefficient
identities that characterize each factorization for upper-triangular
input, labelled (a) through (g) plus the flat-case disequalities (h),
(i).  Rows (a)..(g) are coefficients of the correction cubic Q in
p = prod L_i - ((x^2+y^2)/4) Q: the entry side reads them off the
closed-form Q of the matrix, the left side off the Q of the target
factorization.  `fit_disc` fits a circular support function, which is
how the search harness decides circularity of the numerical range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeMinorAxisSquared, NotDim5
from .homopoly import (
    HomoPoly3,
    bimul,
    dict_add,
    dict_mul,
    from_z_layers,
    max_abs_coeff,
    max_coeff_diff,
    prune,
    z_layers,
)
from .kippenhahn import _check_upper_5x5, _correction_cubic, _lin, _pencil, kipp_poly_det
from .linalg import as_matrix, hermitian_parts, schur_triangularize

DEFAULT_TOL = 1e-9


# --- circular support fit ---


@dataclass(frozen=True)
class DiscFit:
    """Best circle through the support function: h(theta) ~ radius + Re(e^{-i theta} center)."""

    center: complex
    radius: float
    residual: float


def fit_disc(a, samples: int = 64) -> DiscFit:
    """Least-squares circle fit to the support function on an even angle grid.

    The residual is the max deviation of h from the fitted model; it is
    only small when W(A) is a disc.
    """
    m = as_matrix(a)
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    h = np.linalg.eigvalsh(_pencil(*hermitian_parts(m), thetas))[:, -1]
    design = np.stack([np.ones_like(thetas), np.cos(thetas), np.sin(thetas)], axis=1)
    coef, *_ = np.linalg.lstsq(design, h, rcond=None)
    resid = float(np.max(np.abs(design @ coef - h)))
    return DiscFit(complex(coef[1], coef[2]), float(coef[0]), resid)


def disc_verdict(fit: DiscFit, tol_disc: float = 1e-8) -> bool:
    """Circular iff the fit is tight relative to the radius and the radius is not trivial."""
    return fit.residual < tol_disc * max(1.0, fit.radius) and fit.radius > 1e-6


# --- polynomial peeling ---


def divide_linear(p: HomoPoly3, lam) -> tuple[HomoPoly3, float]:
    """Synthetic division of p by the monic linear form z + Re(lam) x + Im(lam) y.

    Returns (quotient, residual) with the residual being the max-norm of
    the remainder's coefficients relative to p's.
    """
    lam = complex(lam)
    d = p.degree
    if d < 1:
        raise ValueError("cannot divide a constant")
    layers = z_layers(p)
    r = np.array([-lam.real, -lam.imag])  # the root of the divisor in z
    quot = [None] * d
    quot[d - 1] = layers[d]
    for k in range(d - 2, -1, -1):
        quot[k] = layers[k + 1] + bimul(r, quot[k + 1])
    rem = layers[0] + bimul(r, quot[0])
    pmax = max_abs_coeff(p)
    resid = float(np.max(np.abs(rem))) / pmax if pmax > 0.0 else 0.0
    return from_z_layers(quot), resid


_E_BIV = np.array([1.0, 0.0, 1.0])  # x^2 + y^2 in the layer convention


def _divide_conic(p: HomoPoly3, li: complex, lj: complex, t: float):
    # divide by z^2 + s1 z + (l_i l_j minus (t/4)(x^2+y^2)), monic in z
    d = p.degree
    layers = z_layers(p)
    s1 = np.array([li.real + lj.real, li.imag + lj.imag])
    p2 = bimul(np.array([li.real, li.imag]), np.array([lj.real, lj.imag]))
    q2 = p2 - (t / 4.0) * _E_BIV
    quot = [np.zeros(1)] * (d - 1)
    quot[d - 2] = layers[d]
    if d >= 3:
        quot[d - 3] = layers[d - 1] - bimul(s1, quot[d - 2])
    for k in range(d - 4, -1, -1):
        quot[k] = layers[k + 2] - bimul(s1, quot[k + 1]) - bimul(q2, quot[k + 2])
    rem1 = layers[1] - bimul(s1, quot[0]) - (bimul(q2, quot[1]) if d >= 3 else 0.0)
    rem0 = layers[0] - bimul(q2, quot[0])
    return quot, np.concatenate([np.atleast_1d(rem1), np.atleast_1d(rem0)])


def fit_ellipse_factor(p: HomoPoly3, li, lj, tol: float = DEFAULT_TOL):
    """Best minor axis r such that l_i l_j - (r^2/4)(x^2+y^2) divides p.

    The division remainder is exactly quadratic in t = r^2, so three
    divisions reconstruct it and the optimal t comes from the real
    critical points of its squared norm.  A critical point within
    roundoff of 0, |t| <= 1e-13 s^2 with s = max(1, |li|, |lj|), is the
    t = 0 candidate, so r resolves down to about 3e-7 s and anything
    smaller comes out as exactly 0.  Among candidates that divide
    exactly, the largest t wins (outermost component first).  Raises
    NegativeMinorAxisSquared when the best t is decisively negative.
    Returns (r, quotient, residual) with the residual relative to p.
    """
    li, lj = complex(li), complex(lj)
    if p.degree < 2:
        raise ValueError("need degree >= 2 to remove a conic factor")
    pmax = max_abs_coeff(p)
    if pmax == 0.0:
        raise ValueError("zero polynomial")

    rems = [_divide_conic(p, li, lj, float(t))[1] for t in (0.0, 1.0, 2.0)]
    width = max(len(v) for v in rems)
    r0, r1m, r2m = (np.pad(v, (0, width - len(v))) for v in rems)
    u2 = (r2m - 2.0 * r1m + r0) / 2.0
    u1 = r1m - r0 - u2
    u0 = r0

    c = np.array(
        [
            u0 @ u0,
            2.0 * (u0 @ u1),
            2.0 * (u0 @ u2) + u1 @ u1,
            2.0 * (u1 @ u2),
            u2 @ u2,
        ]
    )
    dcoef = np.array([4.0 * c[4], 3.0 * c[3], 2.0 * c[2], c[1]])
    lead = np.max(np.abs(dcoef))
    cands = [0.0]
    if lead > 0.0:
        dn = dcoef / lead
        nz = np.argmax(np.abs(dn) > 1e-14)
        roots = np.roots(dn[nz:]) if len(dn[nz:]) > 1 else np.array([])
        t_zero = 1e-13 * max(1.0, abs(li), abs(lj)) ** 2
        cands += [
            float(r.real) if abs(r.real) > t_zero else 0.0
            for r in roots
            if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real))
        ]

    def phi(t):
        return float(c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3 + c[4] * t**4)

    def division_residual(t):
        return float(np.max(np.abs(_divide_conic(p, li, lj, t)[1]))) / pmax

    exact = [t for t in cands if division_residual(t) < 1e-10]
    best = max(exact) if exact else min(cands, key=phi)
    if best < -tol:
        raise NegativeMinorAxisSquared(f"fitted axis square {best:.3e}")
    best = max(best, 0.0)
    quot, rem = _divide_conic(p, li, lj, best)
    resid = float(np.max(np.abs(rem))) / pmax
    return float(np.sqrt(best)), from_z_layers(quot), resid


# --- flat-direction detection ---


def _min_gap(h: np.ndarray, k: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    # smallest adjacent eigenvalue gap of the pencil at each angle
    return np.min(np.diff(np.linalg.eigvalsh(_pencil(h, k, thetas)), axis=-1), axis=-1)


def _golden_min(f, lo: np.ndarray, hi: np.ndarray, iters: int = 70) -> np.ndarray:
    """Golden-section minimizers of f on the brackets [lo, hi], refined in lockstep.

    f maps an array of abscissae to their values, so each step costs one
    call for all brackets.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = np.split(f(np.concatenate([c, d])), 2)
    for _ in range(iters):
        left = fc < fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        probe = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fp = f(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    return (a + b) / 2.0


def detect_flat(a, grid: int = 256, tol: float = DEFAULT_TOL) -> list[tuple[float, float]]:
    """Directions theta in [0, pi) where two pencil eigenvalues collide.

    The adjacent-gap function of cos(theta) H + sin(theta) K is scanned
    on a grid (it has period pi), each local minimum is refined by golden
    section, and collisions within tol of zero are returned as
    (theta, mu) with mu = minus the collision value; these are the
    candidate flat-portion parameters.  Usually empty.
    """
    h, k = hermitian_parts(a)
    thetas = np.linspace(0.0, np.pi, grid, endpoint=False)
    gaps = _min_gap(h, k, thetas)
    step = np.pi / grid
    minima = thetas[(gaps <= np.roll(gaps, 1)) & (gaps <= np.roll(gaps, -1))]
    th_stars = np.mod(_golden_min(lambda t: _min_gap(h, k, t), minima - step, minima + step), np.pi)

    out: list[tuple[float, float]] = []
    for th_star, vals in zip(th_stars, np.linalg.eigvalsh(_pencil(h, k, th_stars))):
        th_star = float(th_star)
        diffs = np.diff(vals)
        j = int(np.argmin(diffs))
        scale = max(1.0, float(np.max(np.abs(vals))))
        if diffs[j] > tol * scale:
            continue
        mu = -float(vals[j] + vals[j + 1]) / 2.0
        dup = any(
            min(abs(th_star - t0), np.pi - abs(th_star - t0)) < 1e-6 and abs(mu - m0) < 1e-6
            for (t0, m0) in out
        )
        if not dup:
            out.append((th_star, mu))
    out.sort()
    return out


# --- factorization condition reports ---


@dataclass(frozen=True)
class ConditionRow:
    label: str
    lhs: complex
    rhs: complex
    residual: float


@dataclass(frozen=True)
class ConditionReport:
    rows: tuple
    max_residual: float

    def row(self, label: str) -> ConditionRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def _pack(q: HomoPoly3) -> dict:
    # rows (a)..(g) as fixed repackings of the correction cubic's coefficients
    c = q.coeff
    return {
        "a": complex(c(0, 0, 3)),
        "b": complex(c(1, 0, 2), c(0, 1, 2)),
        "c": complex(c(2, 0, 1) - c(0, 2, 1), c(1, 1, 1)),
        "d": complex(c(3, 0, 0) - c(1, 2, 0), c(2, 1, 0) - c(0, 3, 0)),
        "e": complex(c(3, 0, 0)),
        "f": complex(c(0, 3, 0)),
        "g": complex(c(2, 0, 1)),
    }


def entry_condition_rhs(t) -> dict:
    """Entry-side values of conditions (a)..(g) for upper-triangular 5x5 input.

    These are coefficients of the correction cubic Q of the closed form
    p_T = prod L_i - ((x^2+y^2)/4) Q.  With Q[m] the coefficient of m:
    a = Q[z^3], b = Q[xz^2] + i Q[yz^2], c = Q[x^2z] - Q[y^2z] + i Q[xyz],
    d = Q[x^3] - Q[xy^2] + i (Q[x^2y] - Q[y^3]), e = Q[x^3], f = Q[y^3]
    and g = Q[x^2z].  A target factorization holds exactly when its own
    Q has the same coefficients, so both report flavours compare against
    this dictionary.
    """
    return _pack(_correction_cubic(t))


_LABELS = "abcdefg"
_E = {(2, 0, 0): 1.0, (0, 2, 0): 1.0}  # x^2 + y^2


def _lincomb(*terms) -> dict:
    # sum of weight * polynomial dict over (weight, dict) pairs
    out: dict = {}
    for weight, poly in terms:
        out = dict_add(out, poly, weight)
    return out


def _report_from(lhs: dict, rhs: dict, extra: tuple = ()) -> ConditionReport:
    rows = [
        ConditionRow(lab, complex(lhs[lab]), complex(rhs[lab]), abs(lhs[lab] - rhs[lab]))
        for lab in _LABELS
    ]
    rows.extend(extra)
    mx = max(r.residual for r in rows)
    return ConditionReport(tuple(rows), float(mx))


def two_ellipse_report(t, roles, r: float, s: float) -> ConditionReport:
    """Conditions (a)..(g) for p_T = (r-ellipse on p, q) (s-ellipse on t, v) (point w).

    roles is a tuple of diagonal positions (p, q, t, v, w); r pairs with
    the (p, q) foci and s with (t, v).  The target's correction cubic is
    l_w (r^2 l_t l_v + s^2 l_p l_q - (r^2 s^2/4)(x^2+y^2)).  All residuals
    vanish exactly when the factorization holds.
    """
    tm = _check_upper_5x5(t)
    lp, lq, lt, lv, lw = (_lin(tm[i, i]) for i in roles)
    r2, s2 = float(r) ** 2, float(s) ** 2
    inner = _lincomb((r2, dict_mul(lt, lv)), (s2, dict_mul(lp, lq)), (-0.25 * r2 * s2, _E))
    q_target = HomoPoly3(3, dict_mul(lw, inner))
    return _report_from(_pack(q_target), entry_condition_rhs(tm))


def flat_report(t, roles, r: float, theta: float, mu: float, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Conditions (a)..(g) plus disequalities (h), (i) for the ellipse x flat-cubic split.

    roles = (p, q, t, v, w): the ellipse with minor axis r sits on foci
    positions (p, q) and the flat cubic F = `_flat_model` carries the
    eigenvalues at positions (t, v, w) with weights
    mu_j = Re(e^{-i theta} lam_j) + mu.  The target's correction cubic is
    r^2 F + 4 l_p l_q G with G the linear form of `_flat_linear`.
    Rows (h) and (i) are predicates: residual 0 when the disequality
    holds with margin above tol, else 1, with the margin stored as lhs.
    """
    tm = _check_upper_5x5(t)
    lam = np.diag(tm)
    p_, q_, t_, v_, w_ = roles
    theta = float(theta)
    r2 = float(r) ** 2
    eit = np.exp(1j * theta)

    trio = [lam[w_], lam[t_], lam[v_]]
    mus = [(np.conj(eit) * l).real + float(mu) for l in trio]
    (lw, lt, lv), (mw, mt, mv) = trio, mus
    pr = mw * mt * mv

    lpq = dict_mul(_lin(lam[p_]), _lin(lam[q_]))
    q_target = HomoPoly3(
        3,
        _lincomb(
            (r2, _flat_model(trio, mus, theta).coeffs),
            (4.0, dict_mul(lpq, _flat_linear(trio, mus, theta))),
        ),
    )

    row_h = ConditionRow("h", complex(pr), 0.0, 0.0 if abs(pr) > tol else 1.0)
    margins = []
    for (lj, mj), (lk, mk), (li_, _) in (
        ((lw, mw), (lt, mt), (lv, mv)),
        ((lw, mw), (lv, mv), (lt, mt)),
        ((lt, mt), (lv, mv), (lw, mw)),
    ):
        margins.append(abs(lj * mk + lk * mj - 2.0 * mj * mk * eit - li_ * (mj + mk)))
    min_margin = min(margins)
    row_i = ConditionRow("i", complex(min_margin), 0.0, 0.0 if min_margin > tol else 1.0)

    return _report_from(_pack(q_target), entry_condition_rhs(tm), (row_h, row_i))


# --- the classification pipeline ---


@dataclass(frozen=True)
class PointComponent:
    location: complex

    kind = "point"


@dataclass(frozen=True)
class EllipseComponent:
    focus1: complex
    focus2: complex
    minor_axis: float

    kind = "ellipse"


@dataclass(frozen=True)
class FlatQuarticComponent:
    foci: tuple
    theta: float
    mu: float

    kind = "flat_quartic"


@dataclass(frozen=True)
class UnclassifiedComponent:
    degree: int

    kind = "unclassified"


def _lex_key(z: complex):
    return (round(z.real, 12), round(z.imag, 12))


_FLAT_FIT_TOL = 1e-6


def _flat_linear(trio, mus, theta: float) -> dict:
    # sum_j l_j mu_k mu_l - 2 (prod mu)(x cos theta + y sin theta)
    lw, lt, lv = (_lin(l) for l in trio)
    mw, mt, mv = mus
    harm = {(1, 0, 0): float(np.cos(theta)), (0, 1, 0): float(np.sin(theta))}
    return _lincomb((mt * mv, lw), (mw * mv, lt), (mw * mt, lv), (-2.0 * mw * mt * mv, harm))


def _flat_model(trio, mus, theta: float) -> HomoPoly3:
    # l_w l_t l_v - (x^2+y^2) times the linear form of _flat_linear
    lw, lt, lv = (_lin(l) for l in trio)
    cub = dict_mul(dict_mul(lw, lt), lv)
    model = dict_add(cub, dict_mul(_E, _flat_linear(trio, mus, theta)), -1.0)
    return HomoPoly3(3, prune(model))


def classify_curve(a, tol: float = DEFAULT_TOL) -> list:
    """Decompose the degree-5 Kippenhahn curve into recognized components.

    Linear factors at eigenvalues become points, conic factors with the
    fitted minor axis become ellipses, and a leftover cubic is matched
    against the flat-portion model at every detected collision direction.
    Whatever resists all three stages is reported unclassified with its
    degree.  Components are ordered points, ellipses, then cubic-level
    components, each sorted deterministically.
    """
    m = as_matrix(a)
    if m.shape[0] != 5:
        raise NotDim5("classification targets 5x5 matrices")
    schur = schur_triangularize(m, order="lex")
    eigs = list(schur.eigenvalues)
    p = kipp_poly_det(m)

    points: list[PointComponent] = []
    remaining = list(range(5))
    cur = p

    # peel linear factors greedily; multiplicity handled by repetition
    changed = True
    while changed and cur.degree >= 1:
        changed = False
        for pos in sorted(remaining, key=lambda i: _lex_key(eigs[i])):
            quot, resid = divide_linear(cur, eigs[pos])
            if resid < tol:
                points.append(PointComponent(complex(eigs[pos])))
                remaining.remove(pos)
                cur = quot
                changed = True
                break

    ellipses: list[EllipseComponent] = []
    while cur.degree >= 2 and len(remaining) >= 2:
        best = None
        for ii in range(len(remaining)):
            for jj in range(ii + 1, len(remaining)):
                pi_, pj_ = remaining[ii], remaining[jj]
                try:
                    r, quot, resid = fit_ellipse_factor(cur, eigs[pi_], eigs[pj_], tol)
                except NegativeMinorAxisSquared:
                    continue
                if resid < tol and (best is None or resid < best[0]):
                    best = (resid, r, quot, pi_, pj_)
        if best is None:
            break
        _, r, quot, pi_, pj_ = best
        f1, f2 = sorted((eigs[pi_], eigs[pj_]), key=_lex_key)
        if r <= tol:
            points.append(PointComponent(complex(f1)))
            points.append(PointComponent(complex(f2)))
        else:
            ellipses.append(EllipseComponent(complex(f1), complex(f2), float(r)))
        remaining.remove(pi_)
        remaining.remove(pj_)
        cur = quot

    tail: list = []
    if cur.degree == 3 and len(remaining) == 3:
        trio = [eigs[i] for i in remaining]
        scale = max(1.0, max_abs_coeff(cur))
        best = None
        for th, mu in detect_flat(m, grid=256, tol=max(tol, 1e-9)):
            w = np.exp(-1j * th)
            mus = [(w * l).real + mu for l in trio]
            if abs(mus[0] * mus[1] * mus[2]) <= tol:
                continue
            diff = max_coeff_diff(cur, _flat_model(trio, mus, th)) / scale
            if diff < _FLAT_FIT_TOL and (best is None or diff < best[0]):
                best = (diff, th, mu)
        if best is not None:
            _, th, mu = best
            foci = tuple(sorted((complex(l) for l in trio), key=_lex_key))
            tail.append(FlatQuarticComponent(foci, float(th), float(mu)))
            cur = HomoPoly3(0, {(0, 0, 0): 1.0})
            remaining = []
    if cur.degree >= 1:
        tail.append(UnclassifiedComponent(cur.degree))

    points.sort(key=lambda c: _lex_key(c.location))
    ellipses.sort(key=lambda c: (_lex_key(c.focus1), _lex_key(c.focus2), -c.minor_axis))
    return [*points, *ellipses, *tail]


def _match_positions(eigs, wanted, used: set) -> list[int]:
    # nearest unused diagonal position for each requested eigenvalue
    out = []
    for w in wanted:
        best = min((i for i in range(5) if i not in used), key=lambda i: abs(eigs[i] - w))
        used.add(best)
        out.append(best)
    return out


def matched_reports(a, components, tol: float = DEFAULT_TOL) -> list:
    """Condition reports for the factorization patterns the classifier found.

    Two ellipses plus a point get the (a)..(g) report; one ellipse plus
    a flat cubic gets the flat report with (h), (i).  Role positions are
    matched against the lex-ordered Schur diagonal.  Anything else gets
    no report.
    """
    m = as_matrix(a)
    if m.shape[0] != 5:
        return []
    schur = schur_triangularize(m, order="lex")
    tm, eigs = schur.triangular, schur.eigenvalues
    pts = [c for c in components if c.kind == "point"]
    ells = [c for c in components if c.kind == "ellipse"]
    flats = [c for c in components if c.kind == "flat_quartic"]
    out = []
    if len(pts) == 1 and len(ells) == 2 and not flats:
        used: set = set()
        p_, q_ = _match_positions(eigs, [ells[0].focus1, ells[0].focus2], used)
        t_, v_ = _match_positions(eigs, [ells[1].focus1, ells[1].focus2], used)
        (w_,) = _match_positions(eigs, [pts[0].location], used)
        rep = two_ellipse_report(tm, (p_, q_, t_, v_, w_), ells[0].minor_axis, ells[1].minor_axis)
        out.append(("two_ellipse_point", rep))
    if len(ells) == 1 and len(flats) == 1 and not pts:
        used = set()
        p_, q_ = _match_positions(eigs, [ells[0].focus1, ells[0].focus2], used)
        t_, v_, w_ = _match_positions(eigs, list(flats[0].foci), used)
        rep = flat_report(
            tm, (p_, q_, t_, v_, w_), ells[0].minor_axis, flats[0].theta, flats[0].mu, tol
        )
        out.append(("ellipse_flat", rep))
    return out

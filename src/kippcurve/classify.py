"""Curve classification for 5x5 matrices and factorization condition reports.

The Kippenhahn polynomial of a 5x5 matrix is a quintic.  The cases of
interest factor it as

    (ellipse) x (ellipse) x (point)     or     (ellipse) x (flat cubic),

where an ellipse with foci li, lj and minor axis r corresponds to the
quadratic l_i l_j - (r^2/4)(x^2 + y^2), a point to a linear factor, and
the flat cubic is a degree-3 factor whose dual curve carries a line
segment, matched at the directions where `detect_flat` finds two
adjacent pencil eigenvalues colliding.  `classify_curve` peels these
factors off numerically, each by synthetic division (`homopoly.divide`)
of the polynomial's coefficient array by a linear or conic form monic in
z, after `_screen` has ruled out on the pencil's sweep eigenvalues the
candidates whose division could not succeed; all model polynomials here
are built as products of coefficient arrays.
`two_ellipse_report` and `flat_report` evaluate the exact coefficient
identities that characterize each factorization for upper-triangular
input, labelled (a) through (g) plus the flat-case disequalities (h),
(i).  Rows (a)..(g) are coefficients of the correction cubic Q in
p = prod L_i - ((x^2+y^2)/4) Q: the entry side reads them off the
closed-form Q of the matrix, the left side off the Q of the target
factorization.  `fit_disc` projects the support function onto a circle,
which is how the search harness decides circularity of the numerical range.
Both `fit_disc` and `classify_curve` take a stack of matrices as well as
one, and run their spectral stages once over the whole stack; the point
peel divides the stack's forms of one degree in one `divide` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NegativeMinorAxisSquared, NotDim5
from .homopoly import HomoPoly3, divide, linear, max_abs_coeff, max_coeff_diff, mul
from .kippenhahn import _E4, _check_upper_5x5, _circle_sweep, _correction_cubic, _fit_sweep, _lin, _pencil, _sweep
from .linalg import DEFAULT_TOL, as_matrix, as_stack, hermitian_parts, schur_triangularize

_FLAT_GRID = 256  # detect_flat's scan angles in [0, pi); its folded sweep has twice as many over [0, 2 pi)
_NEWTON_ITERS = 12  # cap on the safeguarded Newton steps per bracket
DISC_TOL = 1e-8  # support residual, relative to max(1, radius), below which a range reads circular
MIN_DISC_SAMPLES = 16  # fewer support samples fit too many support functions too closely to tell


def _check_tol(tol: float, name: str = "tol") -> None:
    if not 0.0 < tol < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {tol}")


def _check_finite(**params) -> None:
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


# --- circular support fit ---


@dataclass(frozen=True)
class DiscFit:
    """Best circle through the support function: h(theta) ~ radius + Re(e^{-i theta} center)."""

    center: complex
    radius: float
    residual: float


def fit_disc(a, samples: int = 64) -> DiscFit | list[DiscFit]:
    """Least-squares circle fit to the support function on an equispaced angle grid.

    The support function h(theta) is the top eigenvalue of the pencil at
    theta, sampled by one `_circle_sweep`.  On the grid 1, cos and sin are
    orthogonal, so the fit is a projection: the radius is the mean of h and
    the center twice the mean of h(theta) e^{i theta}.  The residual, the
    max deviation of h from the fit, is h projected off {1, cos, sin}; it is
    only small when W(A) is a disc.  A stack of matrices is swept at once and
    gives a list of fits, one matrix one fit.  Fewer than MIN_DISC_SAMPLES
    samples raise ValueError.
    """
    if samples < MIN_DISC_SAMPLES:
        raise ValueError(f"samples must be at least {MIN_DISC_SAMPLES}, got {samples}")
    ms, single = as_stack(a)
    thetas, lams = _circle_sweep(ms, samples)
    h, phase = lams[..., -1], np.exp(1j * thetas)
    radius, center = np.mean(h, axis=-1), 2.0 * np.mean(h * phase, axis=-1)
    resid = np.max(np.abs(radius[:, None] + (phase.conj() * center[:, None]).real - h), axis=-1)
    fits = [DiscFit(*f) for f in zip(center.tolist(), radius.tolist(), resid.tolist())]
    return fits[0] if single else fits


def disc_verdict(fit: DiscFit, tol_disc: float = DISC_TOL) -> bool:
    """Circular iff the fit is tight relative to the radius and the radius is not trivial."""
    _check_tol(tol_disc, "tol_disc")
    return fit.residual < tol_disc * max(1.0, fit.radius) and fit.radius > 1e-6


# --- polynomial peeling ---


def fit_ellipse_factor(p: HomoPoly3, li, lj, tol: float = DEFAULT_TOL):
    """Best minor axis r such that l_i l_j - (r^2/4)(x^2+y^2) divides p.

    For p of degree at most 5, t = r^2 sits only in the conic's z^0
    layer, which the division multiplies into the quotient only from its
    t-free top two layers: the quotient is exactly q0 + t (q1 - q0) and
    the remainder u0 + u1 t + u2 t^2, so three divisions (t = 0, 1, 2),
    one stacked `divide`, give both.  The optimal t comes from the real
    critical points of the remainder's squared norm, each candidate
    scored on that quadratic.
    A critical point within roundoff of 0, |t| <= 1e-13 s^2 with
    s = max(1, |li|, |lj|), is the t = 0 candidate, so r resolves down
    to about 3e-7 s and anything smaller comes out as exactly 0.  Among
    candidates that divide exactly, the largest t wins (outermost
    component first).  Raises NegativeMinorAxisSquared when the best t
    is decisively negative.  Returns (r, quotient, residual) with the
    residual relative to p.  tol must be finite and positive, the foci finite.
    """
    _check_tol(tol)
    _check_finite(li=li, lj=lj)
    li, lj = complex(li), complex(lj)
    if not 2 <= p.degree <= 5:
        raise ValueError("need degree 2..5 to remove a conic factor")
    pmax = max_abs_coeff(p)
    if pmax == 0.0:
        raise ValueError("zero polynomial")

    lij = mul(_lin(li), _lin(lj))  # the divisor at t is lij - t (x^2+y^2)/4
    quots, rems = divide(p.c, np.stack([lij - t * _E4 for t in (0.0, 1.0, 2.0)]))
    r0, r1m, r2m = rems.reshape(3, -1)
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

    def remainder_residual(t):
        return float(np.max(np.abs(u0 + u1 * t + u2 * t**2))) / pmax

    exact = [t for t in cands if remainder_residual(t) < 1e-10]
    best = max(exact) if exact else min(cands, key=phi)
    if best < -tol:
        raise NegativeMinorAxisSquared(f"fitted axis square {best:.3e}")
    best = max(best, 0.0)
    q0, q1, _ = quots
    return float(np.sqrt(best)), HomoPoly3(q0 + best * (q1 - q0)), remainder_residual(best)


# --- flat-direction detection ---


def _weyl_rate(lams: np.ndarray) -> float:
    """Bound on |d gap_j / d theta| from lams, a sweep's eigenvalues at 2 _FLAT_GRID angles over [0, 2 pi).

    d/dtheta P(theta) = P(theta + pi/2), so by Weyl's inequality each
    eigenvalue moves at most w(A), the numerical radius, per radian.  The
    top eigenvalue at theta is at least w(A) cos(theta - arg z), |z| = w(A)
    in W(A), so at the nearest sweep angle it is at least
    w(A) cos(pi / (2 _FLAT_GRID)).
    """
    return 2.0 * float(np.max(np.abs(lams))) / np.cos(np.pi / (2 * _FLAT_GRID))


def _newton_min(h, k, x: np.ndarray, step: float, j: np.ndarray, rate: float, slack: float, tol: float):
    """Collisions of gap j of the pencil on [x - step, x + step], by safeguarded Newton in lockstep.

    Each step diagonalizes the pencil at every live iterate x with one
    stacked eigh, for the gap g = lam_{j+1} - lam_j and, by Hellmann-Feynman,
    its slope g' = u_{j+1}* D u_{j+1} - u_j* D u_j, D the pencil at x + pi/2.
    The sign of g' moves one end of the bracket [a, b] to x, and the next
    iterate is the Newton point x - g / g', or the midpoint of [a, b] when
    that leaves (a, b).  At a true crossing g is V-shaped, and one step
    from either side lands on the apex to second order.  A bracket stops
    when g is 0 to working precision (4 ulps of the largest |lam|), at a
    step of a few ulps, or after _NEWTON_ITERS steps, and is accepted when
    g at its best probe, the least, is at most tol scale, scale =
    max(1, largest |lam|) there.  It is dropped at a probe where g exceeds
    rate (b - a) + slack while no probe so far came within slack (at least
    tol scale): g moves at most rate per radian, so no later probe in
    [a, b] can come within slack either.  Returns the rows (theta, mu) of
    the accepted best probes in the order of x, mu = -(lam_j + lam_{j+1}) / 2.
    """
    a, b, idx = x - step, x + step, np.arange(len(x))
    jj = np.stack([j, j + 1], axis=1)
    best = np.full((4, len(x)), np.inf)  # g, scale, x, mu at each live bracket's best probe
    found = np.full((2, len(x)), np.nan)  # stays nan unless the bracket is accepted
    for it in range(_NEWTON_ITERS):
        if not len(idx):
            break
        lams, vecs = np.linalg.eigh(_pencil(h, k, x))
        rows = np.arange(len(x))[:, None]
        pair = lams[rows, jj]
        g = pair[:, 1] - pair[:, 0]
        big = np.maximum(-lams[:, 0], lams[:, -1])  # largest |lam|
        u = vecs[rows, :, jj]  # u[m, c] is the eigenvector of lam_{jj[m, c]}
        d = _pencil(h, k, x + np.pi / 2.0)  # d/dx of the pencil at x
        du = np.einsum("mci,mij,mcj->mc", u.conj(), d, u).real
        slope = du[:, 1] - du[:, 0]
        probe = np.stack([g, np.maximum(1.0, big), x, -(pair[:, 0] + pair[:, 1]) / 2.0])
        best = np.where(g < best[0], probe, best)
        a, b = np.where(slope < 0.0, x, a), np.where(slope > 0.0, x, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - g / slope
        nxt = np.where((a < newton) & (newton < b), newton, (a + b) / 2.0)
        step_len = np.minimum(np.abs(newton - x), np.abs(nxt - x))
        drop = (g > rate * (b - a) + slack) & (best[0] > slack)
        zero = g <= 4.0 * np.finfo(float).eps * big
        stop = ~drop & (zero | (step_len <= 4.0 * np.spacing(np.pi)) | (it == _NEWTON_ITERS - 1))
        accept = stop & (best[0] <= tol * best[1])
        found[:, idx[accept]] = best[2:, accept]
        live = ~(drop | stop)
        a, b, x, jj, idx, best = a[live], b[live], nxt[live], jj[live], idx[live], best[:, live]
    return found[:, ~np.isnan(found[0])]


def _dedupe(cands) -> list[tuple[float, float]]:
    """The candidates (theta, mu) in order, but for each within 1e-6 in both of one kept before it, theta mod pi.

    theta lies in [0, pi]; each candidate is compared with every one kept before it.
    """
    out = []
    for th, mu in cands:
        if not any(min(abs(th - t0), np.pi - abs(th - t0)) < 1e-6 and abs(mu - m0) < 1e-6 for t0, m0 in out):
            out.append((th, mu))
    return out


def detect_flat(a, tol: float = DEFAULT_TOL) -> list[tuple[float, float]]:
    """Directions theta in [0, pi) where two pencil eigenvalues collide.

    Each adjacent gap lam_{j+1} - lam_j of cos(theta) H + sin(theta) K is
    scanned on the `_circle_sweep` of 2 _FLAT_GRID angles over [0, 2 pi),
    one eigvalsh stack at the _FLAT_GRID angles in [0, pi); its gaps form a
    ring, so each of those angles has a neighbour on both sides.  Every
    grid local minimum of every gap gets its own bracket of one grid step
    on each side, refined on that gap alone by `_newton_min`, and so does
    a positive gap beside one that is exactly 0: the end of a run of
    g = 0, where a third eigenvalue crosses a repeated one.  A probe past
    0 or pi comes back by pi with mu negated.  A bracket whose best probe
    is within tol scale of a collision, scale = max(1, largest |lam|),
    gives (theta, mu) there, mu = minus the mean of lam_j and lam_{j+1}:
    candidate flat-portion parameters, usually none.  tol must be finite
    and positive.

    Most brackets are dropped unrefined: gap j moves at most
    L = `_weyl_rate` of the sweep per radian, so with slack =
    tol max(1, L / 2), at least tol scale, a bracket whose grid gap exceeds
    L pi / _FLAT_GRID + slack could not be accepted, and no drop changes a
    result.  A collision within 1e-6 of an earlier one in both theta
    (mod pi) and mu is dropped.
    """
    _check_tol(tol)
    m = as_matrix(a)
    h, k = hermitian_parts(m)
    thetas, lams = _circle_sweep(m, 2 * _FLAT_GRID)
    ring = np.diff(lams, axis=-1)
    gaps, after, before = ring[:_FLAT_GRID], ring[1 : _FLAT_GRID + 1], ring[np.arange(-1, _FLAT_GRID - 1)]
    near = np.minimum(before, after)
    step = np.pi / _FLAT_GRID
    rate = _weyl_rate(lams)
    slack = tol * max(1.0, rate / 2.0)
    rows, js = np.nonzero(((gaps <= near) | (near == 0.0)) & (gaps <= rate * step + slack))
    th_raw, mu_raw = _newton_min(h, k, thetas[rows], step, js, rate, slack, tol)
    th = np.mod(th_raw, np.pi)
    mu = np.where(th == th_raw, mu_raw, -mu_raw)  # the pencil at theta -+ pi is minus the one at theta
    return sorted(_dedupe(zip(th.tolist(), mu.tolist())))


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
    return _pack(_correction_cubic(_check_upper_5x5(t)))


_LABELS = "abcdefg"


def _check_roles(roles) -> None:
    if sorted(roles) != list(range(5)):
        raise ValueError(f"roles must be a permutation of the positions 0..4, got {roles}")


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
    vanish exactly when the factorization holds.  roles must be a
    permutation of 0..4 and r, s finite (ValueError otherwise).
    """
    _check_finite(r=r, s=s)
    _check_roles(roles)
    tm = _check_upper_5x5(t)
    lp, lq, lt, lv, lw = (_lin(tm[i, i]) for i in roles)
    r2, s2 = float(r) ** 2, float(s) ** 2
    q_target = HomoPoly3(mul(lw, r2 * mul(lt, lv) + s2 * mul(lp, lq) - r2 * s2 * _E4))
    return _report_from(_pack(q_target), _pack(_correction_cubic(tm)))


def flat_report(t, roles, r: float, theta: float, mu: float, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Conditions (a)..(g) plus disequalities (h), (i) for the ellipse x flat-cubic split.

    roles = (p, q, t, v, w): the ellipse with minor axis r sits on foci
    positions (p, q) and the flat cubic F = `_flat_model` carries the
    eigenvalues at positions (t, v, w) with weights
    mu_j = Re(e^{-i theta} lam_j) + mu.  The target's correction cubic is
    r^2 F + 4 l_p l_q G with G the linear form of `_flat_linear`.
    Rows (h) and (i) are predicates: residual 0 when the disequality
    holds with margin above tol, else 1, with the margin stored as lhs.
    roles must be a permutation of 0..4, r, theta and mu finite and tol
    finite and positive (ValueError otherwise).
    """
    _check_tol(tol)
    _check_finite(r=r, theta=theta, mu=mu)
    _check_roles(roles)
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

    lpq = mul(_lin(lam[p_]), _lin(lam[q_]))
    q_target = HomoPoly3(r2 * _flat_model(trio, mus, theta).c + 4.0 * mul(lpq, _flat_linear(trio, mus, theta)))

    row_h = ConditionRow("h", complex(pr), 0j, 0.0 if abs(pr) > tol else 1.0)
    margins = []
    for (lj, mj), (lk, mk), (li_, _) in (
        ((lw, mw), (lt, mt), (lv, mv)),
        ((lw, mw), (lv, mv), (lt, mt)),
        ((lt, mt), (lv, mv), (lw, mw)),
    ):
        margins.append(abs(lj * mk + lk * mj - 2.0 * mj * mk * eit - li_ * (mj + mk)))
    min_margin = min(margins)
    row_i = ConditionRow("i", complex(min_margin), 0j, 0.0 if min_margin > tol else 1.0)

    return _report_from(_pack(q_target), _pack(_correction_cubic(tm)), (row_h, row_i))


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


def _flat_linear(trio, mus, theta: float) -> np.ndarray:
    # sum_j l_j mu_k mu_l - 2 (prod mu)(x cos theta + y sin theta)
    lw, lt, lv = (_lin(l) for l in trio)
    mw, mt, mv = mus
    harm = linear(np.cos(theta), np.sin(theta), 0.0)
    return mt * mv * lw + mw * mv * lt + mw * mt * lv - 2.0 * mw * mt * mv * harm


def _flat_model(trio, mus, theta: float) -> HomoPoly3:
    # l_w l_t l_v - (x^2+y^2) times the linear form of _flat_linear
    lw, lt, lv = (_lin(l) for l in trio)
    return HomoPoly3(mul(mul(lw, lt), lv) - 4.0 * mul(_E4, _flat_linear(trio, mus, theta)))


def _screen(eigs: np.ndarray, thetas: np.ndarray, lams: np.ndarray, coefs: np.ndarray, tol: float):
    """Which points and foci pairs may divide p, read off the sweep (thetas, lams), for a stack.

    eigs[b], lams[b] and coefs[b] are the eigenvalues, the sweep eigenvalues
    and the coefficient array of p for matrix b.
    On the unit circle p(cos t, sin t, -w) = P(w) = prod_j (lams[t, j] - w).
    With a_l(t) = cos t Re l + sin t Im l, the point z + L_l leaves the
    remainder P(a_l) at angle t.  The conic on foci l_i, l_j has two roots
    w summing to s = a_i + a_j whatever its minor axis; with one root on
    lams[t, k] its remainder has the slope prod_{j != k} (lams[t, j] - w2),
    w2 = s - lams[t, k] the other root.  Both multiply the distances to
    every root instead of taking the nearest, so they stay near the
    division remainder even when roots cluster, where the nearest root of
    a cluster of c can be tol^(1/c) away.  A division within tol leaves n + 1 remainder
    coefficients below tol |p|, |p| the largest coefficient; the factor
    2^n max(1, rho)^(n-1), rho the largest eigenvalue modulus, covers the
    quotients already peeled off and a conic root off the sweep's
    eigenvalue.  Returns point_ok[b, i] for eigs[b, i] and pair_ok[b, i, j]
    for the foci eigs[b, i], eigs[b, j], i < j: False where the largest
    value over the angles (for pairs, of the smallest slope over k) exceeds
    (n+1) 2^n max(1, rho)^(n-1) tol |p|.
    """
    n = lams.shape[-1]
    rho = np.maximum(1.0, np.max(np.abs(lams), axis=(1, 2)))
    pmax = np.max(np.abs(coefs), axis=(1, 2))
    bound = ((n + 1) * 2.0**n * rho ** (n - 1) * tol * pmax)[:, None]
    a = np.cos(thetas)[:, None] * eigs.real[:, None] + np.sin(thetas)[:, None] * eigs.imag[:, None]  # [b, t, l]
    point = np.abs(np.prod(lams[:, :, None, :] - a[..., None], axis=-1)).max(axis=1)
    ia, ib = np.triu_indices(n, 1)
    partner = (a[..., ia] + a[..., ib])[..., None] - lams[:, :, None, :]  # [b, t, pair, k]
    gaps = lams[:, :, None, None, :] - partner[..., None]  # [b, t, pair, k, j]
    gaps[..., range(n), range(n)] = 1.0  # the root lams[b, t, k] itself
    pair_ok = np.zeros(eigs.shape + (n,), dtype=bool)
    pair_ok[:, ia, ib] = np.abs(np.prod(gaps, axis=-1)).min(axis=-1).max(axis=1) <= bound
    return point <= bound, pair_ok


class Curve(list):
    """One matrix's components in `classify_curve`'s order.

    Its kind is "unclassified" when none of them was recognised and
    "classified" otherwise, so a stack's list of curves answers kind
    matrix by matrix as one curve answers it component by component.
    """

    @property
    def kind(self) -> str:
        return "classified" if any(c.kind != "unclassified" for c in self) else "unclassified"


def classify_curve(a, tol: float = DEFAULT_TOL) -> Curve | list[Curve]:
    """Decompose the degree-5 Kippenhahn curve into recognized components.

    Linear factors at eigenvalues become points, conic factors with the
    fitted minor axis become ellipses, and a leftover cubic is matched
    against the flat-portion model at every detected collision direction.
    Whatever resists all three stages is reported unclassified with its
    degree.  Components are ordered points, ellipses, then cubic-level
    components, each sorted deterministically, in a `Curve`.  A stack of
    matrices gives a list of curves, one per matrix.  tol must be finite
    and positive.

    The eigenvalues, the pencil sweep, its polynomial fit and `_screen`
    run once over the whole stack.  Division decides every factor;
    `_screen` skips the points and foci pairs that the pencil's
    eigenvalues rule out, so they are never divided.  The points come off
    position by position over the stack, one stacked `divide` per current
    degree among the matrices whose point there passed the screen; `_peel`
    takes off the conics and the flat cubic matrix by matrix.
    """
    _check_tol(tol)
    ms, single = as_stack(a)
    if ms.shape[-1] != 5:
        raise NotDim5("classification targets 5x5 matrices")
    # as Python complex: _lex_key's round is several times cheaper on Python floats
    eigs = [sorted(row, key=lambda z: (_lex_key(z), z.real, z.imag)) for row in np.linalg.eigvals(ms).tolist()]
    thetas, lams = _sweep(ms)
    coefs = _fit_sweep(lams)
    point_ok, pair_ok = _screen(np.array(eigs), thetas, lams, coefs, tol)
    curs = [HomoPoly3(c) for c in coefs]
    points = [[] for _ in curs]
    remaining = [[] for _ in curs]  # positions in eigs
    # one pass: z + L_a that does not divide p cannot divide p / (z + L_b)
    for i in range(5):
        groups: dict = {}  # current degree -> the matrices whose point i passed the screen
        for b in range(len(curs)):
            if point_ok[b, i]:
                groups.setdefault(curs[b].degree, []).append(b)
            else:
                remaining[b].append(i)
        for bs in groups.values():
            cs = np.stack([curs[b].c for b in bs])
            quots, rems = divide(cs, np.stack([_lin(eigs[b][i]) for b in bs]))
            # the forms are monic in z, so max|c| >= 1
            resids = (np.max(np.abs(rems), axis=(1, 2)) / np.max(np.abs(cs), axis=(1, 2))).tolist()
            for b, quot, resid in zip(bs, quots, resids):
                if resid < tol:
                    points[b].append(PointComponent(complex(eigs[b][i])))
                    curs[b] = HomoPoly3(quot)
                else:
                    remaining[b].append(i)
    curves = [_peel(*args, tol) for args in zip(ms, eigs, curs, points, remaining, pair_ok)]
    return curves[0] if single else curves


def _peel(m: np.ndarray, eigs: list, cur: HomoPoly3, points: list, remaining: list, pair_ok, tol: float) -> Curve:
    """`classify_curve`'s components of m from its sorted eigenvalues and screen, after the points.

    cur is p with the points divided out and remaining the positions in
    eigs of the other eigenvalues; the conics and the flat cubic come off here.
    """
    ellipses: list[EllipseComponent] = []
    while cur.degree >= 2 and len(remaining) >= 2:
        best = None
        for i, j in combinations(remaining, 2):
            if not pair_ok[i, j]:
                continue
            try:
                r, quot, resid = fit_ellipse_factor(cur, eigs[i], eigs[j], tol)
            except NegativeMinorAxisSquared:
                continue
            if resid < tol and (best is None or resid < best[0]):
                best = (resid, r, quot, i, j)
        if best is None:
            break
        _, r, quot, i, j = best
        f1, f2 = sorted((eigs[i], eigs[j]), key=_lex_key)
        if r <= tol:
            points.append(PointComponent(complex(f1)))
            points.append(PointComponent(complex(f2)))
        else:
            ellipses.append(EllipseComponent(complex(f1), complex(f2), float(r)))
        remaining.remove(i)
        remaining.remove(j)
        cur = quot

    tail: list = []
    if cur.degree == 3 and len(remaining) == 3:
        trio = [eigs[i] for i in remaining]
        scale = max(1.0, max_abs_coeff(cur))
        best = None
        for th, mu in detect_flat(m, tol=max(tol, 1e-9)):
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
            cur = HomoPoly3(np.ones((1, 1)))
    if cur.degree >= 1:
        tail.append(UnclassifiedComponent(cur.degree))

    points.sort(key=lambda c: _lex_key(c.location))
    ellipses.sort(key=lambda c: (_lex_key(c.focus1), _lex_key(c.focus2), -c.minor_axis))
    return Curve([*points, *ellipses, *tail])


def _match_positions(eigs, wanted) -> tuple:
    # the roles in order: each takes the nearest diagonal position not taken before it
    used = []
    for w in wanted:
        used.append(min((i for i in range(5) if i not in used), key=lambda i: abs(eigs[i] - w)))
    return tuple(used)


def matched_reports(a, components, tol: float = DEFAULT_TOL) -> list:
    """Condition reports for the factorization patterns the classifier found.

    Two ellipses plus a point get the (a)..(g) report; one ellipse plus
    a flat cubic gets the flat report with (h), (i).  Role positions are
    matched against the lex-ordered Schur diagonal.  Anything else gets
    no report.  tol must be finite and positive.
    """
    _check_tol(tol)
    m = as_matrix(a)
    if m.shape[0] != 5:
        return []
    schur = schur_triangularize(m)
    tm, eigs = schur.triangular, schur.eigenvalues
    pts = [c for c in components if c.kind == "point"]
    ells = [c for c in components if c.kind == "ellipse"]
    flats = [c for c in components if c.kind == "flat_quartic"]
    out = []
    if len(pts) == 1 and len(ells) == 2 and not flats:
        foci = [ells[0].focus1, ells[0].focus2, ells[1].focus1, ells[1].focus2]
        roles = _match_positions(eigs, [*foci, pts[0].location])
        out.append(("two_ellipse_point", two_ellipse_report(tm, roles, ells[0].minor_axis, ells[1].minor_axis)))
    if len(ells) == 1 and len(flats) == 1 and not pts:
        roles = _match_positions(eigs, [ells[0].focus1, ells[0].focus2, *flats[0].foci])
        out.append(("ellipse_flat", flat_report(tm, roles, ells[0].minor_axis, flats[0].theta, flats[0].mu, tol)))
    return out

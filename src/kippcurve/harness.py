"""Verification suites and the circular-range search campaign.

Three identity suites cross-check the algebra: the dual polynomial
oracles against each other on random triangular input, the one-parameter
contraction family's coefficient identities (including the obstruction
scan that isolates a = 0), and the planted constraint combinations of
the kernel-2 family together with a perturbation control.  The campaign
generates seeded partial isometries, fits a disc to each support
function, and records every circular range whose center strays from the
origin; a clean campaign is evidence for origin-centered circularity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .classify import (
    classify_curve,
    detect_flat,
    disc_verdict,
    entry_condition_rhs,
    fit_disc,
    two_ellipse_report,
)
from .generators import (
    haar_unitary,
    jordan_shift,
    ker2_family,
    random_partial_isometry,
    s5_family,
)
from .homopoly import max_abs_coeff, max_coeff_diff
from .kippenhahn import kipp_poly_det, kipp_poly_expanded

# --- oracle agreement suite ---


@dataclass(frozen=True)
class OracleSuiteReport:
    count: int
    scale: float
    max_relative: float
    mean_relative: float
    worst_index: int
    passed: bool


ORACLE_REL_TOL = 1e-9


def random_upper_triangular(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """5x5 upper-triangular with entries uniform on the disc of radius scale."""
    t = np.zeros((5, 5), dtype=complex)
    for i in range(5):
        for j in range(i, 5):
            t[i, j] = scale * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    return t


def oracle_identity_suite(count: int, seed: int, scale: float = 1.0) -> OracleSuiteReport:
    """Compare the eigenvalue-sweep and closed-form polynomials coefficientwise.

    The discrepancy is relative to the largest sweep-route coefficient;
    the suite passes when every matrix agrees below 1e-9.
    """
    rng = np.random.default_rng(seed)
    rels = []
    for _ in range(count):
        t = random_upper_triangular(rng, scale)
        pd = kipp_poly_det(t)
        pe = kipp_poly_expanded(t)
        rels.append(max_coeff_diff(pd, pe) / max(1.0, max_abs_coeff(pd)))
    rels = np.array(rels)
    mx = float(rels.max()) if count else 0.0
    return OracleSuiteReport(
        count=count,
        scale=scale,
        max_relative=mx,
        mean_relative=float(rels.mean()) if count else 0.0,
        worst_index=int(rels.argmax()) if count else -1,
        passed=bool(mx < ORACLE_REL_TOL),
    )


# --- contraction-family identity suite ---


@dataclass(frozen=True)
class S5IdentityReport:
    """(d)-side cancellation over a parameter grid plus the (b)-residual scan.

    d_moduli pairs each (a, b, c) sample with the entry-side value of
    condition (d) for the shifted matrix A - aI, which cancels
    identically.  scan holds (a, residual) rows for the b = c = a line
    under nominal axes; the residual grows linearly in a, so it vanishes
    only at a = 0 and any circular-plus-ellipses shape of the shifted
    family is ruled out away from the origin.
    """

    d_moduli: tuple
    max_d_modulus: float
    scan: tuple
    scan_zero_residual: float
    min_scan_margin: float
    partial_isometry_at_zero: bool
    passed: bool


S5_D_TOL = 1e-12
S5_SCAN_MARGIN = 1e-4
_SCAN_AXES = (1.0, 0.5)  # nominal minor axes for the obstruction scan


def default_s5_grid(n: int = 5) -> list[tuple[float, complex, complex]]:
    """n x n parameter grid: a real, b on a fixed ray, c on its mirror."""
    out = []
    for a in np.linspace(0.0, 0.8, n):
        for rho in np.linspace(0.0, 0.8, n):
            b = rho * np.exp(1j * np.pi / 5.0)
            out.append((float(a), complex(b), complex(np.conj(b))))
    return out


def s5_identity_check(samples=None, a_grid=None) -> S5IdentityReport:
    if samples is None:
        samples = default_s5_grid()
    if a_grid is None:
        a_grid = np.linspace(0.0, 0.5, 6)

    d_rows = []
    for a, b, c in samples:
        shifted = s5_family(a, b, c) - a * np.eye(5)
        rhs = entry_condition_rhs(shifted)
        d_rows.append((float(a), complex(b), complex(c), abs(rhs["d"])))
    max_d = max(r[3] for r in d_rows)

    # on the b = c = a line the entry side of (b) cancels, so the residual
    # against any fixed two-ellipse target is |axes contribution| ~ a
    r_ax, s_ax = _SCAN_AXES
    scan = []
    for a in a_grid:
        a = float(a)
        shifted = s5_family(a, a, a) - a * np.eye(5)
        rep = two_ellipse_report(shifted, (0, 1, 2, 3, 4), r_ax, s_ax)
        scan.append((a, rep.row("b").residual))
    zero_rows = [res for (a, res) in scan if a == 0.0]
    pos_rows = [res for (a, res) in scan if a > 0.0]
    zero_res = max(zero_rows) if zero_rows else 0.0
    min_margin = min(pos_rows) if pos_rows else float("inf")

    pi_zero = bool(
        np.allclose(
            np.linalg.svd(s5_family(0.0, 0.3j, -0.2), compute_uv=False),
            [1.0, 1.0, 1.0, 1.0, 0.0],
            atol=1e-12,
        )
    )
    passed = max_d < S5_D_TOL and zero_res < S5_SCAN_MARGIN and min_margin > S5_SCAN_MARGIN and pi_zero
    return S5IdentityReport(
        d_moduli=tuple(d_rows),
        max_d_modulus=float(max_d),
        scan=tuple(scan),
        scan_zero_residual=float(zero_res),
        min_scan_margin=float(min_margin),
        partial_isometry_at_zero=pi_zero,
        passed=bool(passed),
    )


# --- kernel-2 family identity suite ---


@dataclass(frozen=True)
class Ker2IdentityReport:
    count: int
    max_comb1: float
    max_comb2: float
    max_comb1_distinct: float
    max_closed_form_gap: float
    min_perturbed_response: float
    passed: bool


KER2_COMBO_TOL = 1e-10
KER2_RESPONSE_MIN = 1e-5


def _ker2_combinations(m: np.ndarray) -> tuple[complex, complex]:
    # entry names follow the block layout [[0, B], [0, C]] read row by row
    k, l, t = m[0, 2], m[0, 3], m[0, 4]
    g, h, j = m[1, 2], m[1, 3], m[1, 4]
    e, f = m[2, 3], m[2, 4]
    d = m[3, 4]
    b = m[2, 2]
    a = m[3, 3].real
    comb1 = (
        abs(d) ** 2 * a**2 * (b - a)
        - a**2 * e * d * np.conj(f)
        + a * (b - a) * h * d * np.conj(j)
        + a * (b - a) * l * d * np.conj(t)
        - a * g * e * d * np.conj(j)
        - a * k * e * d * np.conj(t)
    )
    comb2 = (
        a**2 * (abs(e) ** 2 + abs(f) ** 2 + abs(d) ** 2)
        + 2.0 * a * e * d * np.conj(f)
        + a * e * g * np.conj(h)
        + a * e * k * np.conj(l)
        + a * f * g * np.conj(j)
        + a * f * k * np.conj(t)
        + a * d * h * np.conj(j)
        + a * d * l * np.conj(t)
        + e * d * g * np.conj(j)
        + e * d * k * np.conj(t)
    )
    return complex(comb1), complex(comb2)


def ker2_identity_check(count: int, seed: int) -> Ker2IdentityReport:
    """Planted constraint combinations of the kernel-2 family.

    Both combinations cancel through the isometric-column relations, the
    second one only because the top diagonal entry is planted equal to
    the repeated one; with distinct_top the first still cancels and the
    second matches its closed form (a - b)(a(|e|^2 + |f|^2) + e d conj f).
    A 1e-3 entry perturbation breaks the relations, and the control
    requires a visible response on every instance.
    """
    max_c1 = max_c2 = max_c1d = max_gap = 0.0
    min_resp = float("inf")
    for i in range(count):
        m = ker2_family(seed + i)
        c1, c2 = _ker2_combinations(m)
        max_c1 = max(max_c1, abs(c1))
        max_c2 = max(max_c2, abs(c2))

        md = ker2_family(seed + i, distinct_top=True)
        c1d, c2d = _ker2_combinations(md)
        max_c1d = max(max_c1d, abs(c1d))
        a = md[3, 3].real
        b = md[2, 2]
        e, f, d = md[2, 3], md[2, 4], md[3, 4]
        closed = (a - b) * (a * (abs(e) ** 2 + abs(f) ** 2) + e * d * np.conj(f))
        max_gap = max(max_gap, abs(c2d - closed))

        resp = 0.0
        for pos in ((0, 2), (1, 2), (2, 3), (3, 4)):
            pert = m.copy()
            pert[pos] += 1e-3
            p1, p2 = _ker2_combinations(pert)
            resp = max(resp, abs(p1), abs(p2))
        min_resp = min(min_resp, resp)

    passed = (
        max_c1 < KER2_COMBO_TOL
        and max_c2 < KER2_COMBO_TOL
        and max_c1d < KER2_COMBO_TOL
        and max_gap < KER2_COMBO_TOL
        and min_resp > KER2_RESPONSE_MIN
    )
    return Ker2IdentityReport(
        count=count,
        max_comb1=float(max_c1),
        max_comb2=float(max_c2),
        max_comb1_distinct=float(max_c1d),
        max_closed_form_gap=float(max_gap),
        min_perturbed_response=float(min_resp if count else 0.0),
        passed=bool(passed),
    )


# --- the search campaign ---


@dataclass(frozen=True)
class CampaignConfig:
    n_trials: int
    seed: int
    ker_dims: tuple = (1, 2, 3)
    include_structured: bool = True
    tol_disc: float = 1e-8
    tol_center: float = 1e-7
    samples: int = 64
    classify: bool = True


@dataclass(frozen=True)
class TrialRecord:
    """One generated matrix and its circularity verdict.

    All numeric fields reproduce bit-for-bit from (seed, params), so
    result files stay byte-identical across reruns of the same config.
    """

    index: int
    generator: str
    params: dict
    center: complex
    radius: float
    fit_residual: float
    circular: bool
    center_modulus: float
    components: str
    expect_circular: bool
    flat_candidates: int


@dataclass(frozen=True)
class CampaignSummary:
    n_trials: int
    n_circular: int
    n_structured: int
    structured_expected_circular: int
    structured_detected_circular: int
    max_center_modulus_circular: float
    violations: tuple
    flat_anomalies: tuple
    tol_disc: float
    tol_center: float
    passed: bool


_STRUCTURED_STRIDE = 25


def _components_summary(components) -> str:
    counts: dict = {}
    for c in components:
        counts[c.kind] = counts.get(c.kind, 0) + 1
    order = ("point", "ellipse", "flat_quartic", "unclassified")
    return "+".join(f"{k}x{counts[k]}" for k in order if k in counts) or "none"


def _structured_trial(idx: int, rng: np.random.Generator):
    pick = (idx // _STRUCTURED_STRIDE) % 3
    if pick == 0:
        return "jordan_shift5", {}, jordan_shift(5), True
    if pick == 1:
        b = 0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        c = 0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        params = {"b": complex(b), "c": complex(c)}
        return "s5_zero", params, s5_family(0.0, b, c), False
    u = haar_unitary(4, rng)
    mat = scipy.linalg.block_diag(
        np.zeros((1, 1), dtype=complex), u @ jordan_shift(4) @ u.conj().T
    )
    return "embedded_jordan4", {}, mat, True


def conjecture_campaign(config: CampaignConfig) -> tuple[list, CampaignSummary]:
    """Run the seeded trial plan and summarize circularity versus center location.

    A violation is a trial whose range is detected circular with center
    modulus at least tol_center; the campaign passes when there are
    none, structured circular fixtures are all detected circular, and
    no flat candidate shows up on the contraction-family fixtures.
    """
    if config.n_trials <= 0:
        raise ValueError("n_trials must be positive")
    children = np.random.SeedSequence(config.seed).spawn(config.n_trials)
    records: list[TrialRecord] = []
    for idx in range(config.n_trials):
        rng = np.random.default_rng(children[idx])
        structured = config.include_structured and idx % _STRUCTURED_STRIDE == 0
        if structured:
            gen, params, mat, expect = _structured_trial(idx, rng)
        else:
            kd = config.ker_dims[idx % len(config.ker_dims)]
            child_seed = int(children[idx].generate_state(1, dtype=np.uint64)[0])
            params = {"n": 5, "ker_dim": int(kd), "seed": child_seed}
            gen, mat, expect = "random_partial_isometry", random_partial_isometry(5, kd, child_seed), False
        fit = fit_disc(mat, config.samples)
        circ = disc_verdict(fit, config.tol_disc)
        comps = _components_summary(classify_curve(mat)) if config.classify else ""
        flats = len(detect_flat(mat)) if gen == "s5_zero" else 0
        records.append(
            TrialRecord(
                index=idx,
                generator=gen,
                params=params,
                center=fit.center,
                radius=fit.radius,
                fit_residual=fit.residual,
                circular=circ,
                center_modulus=abs(fit.center),
                components=comps,
                expect_circular=expect,
                flat_candidates=flats,
            )
        )

    violations = tuple(r.index for r in records if r.circular and r.center_modulus >= config.tol_center)
    anomalies = tuple(r.index for r in records if r.flat_candidates > 0)
    structured_records = [r for r in records if r.expect_circular]
    detected = sum(1 for r in structured_records if r.circular)
    n_circ = sum(1 for r in records if r.circular)
    passed = not violations and detected == len(structured_records) and not anomalies
    summary = CampaignSummary(
        n_trials=config.n_trials,
        n_circular=n_circ,
        n_structured=sum(1 for r in records if r.generator != "random_partial_isometry"),
        structured_expected_circular=len(structured_records),
        structured_detected_circular=detected,
        max_center_modulus_circular=max((r.center_modulus for r in records if r.circular), default=0.0),
        violations=violations,
        flat_anomalies=anomalies,
        tol_disc=config.tol_disc,
        tol_center=config.tol_center,
        passed=bool(passed),
    )
    return records, summary


# --- persistence ---


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not serializable: {type(obj)}")


def _record_dict(r: TrialRecord) -> dict:
    d = dataclasses.asdict(r)
    d["center"] = [r.center.real, r.center.imag]
    d["params"] = {
        k: ([v.real, v.imag] if isinstance(v, complex) else v) for k, v in r.params.items()
    }
    return d


def campaign_id(config: CampaignConfig) -> str:
    blob = json.dumps(dataclasses.asdict(config), sort_keys=True, default=_json_default)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def runs_root(explicit=None) -> Path:
    if explicit is not None:
        return Path(explicit)
    return Path(os.environ.get("KIPP_RUNS_DIR", "runs"))


def run_campaign(config: CampaignConfig, root=None):
    """Execute the campaign and persist config, per-trial records, and summary.

    Layout: <root>/<campaign_id>/{config.json, records.jsonl, summary.json}.
    Identical configs rewrite identical bytes.
    """
    records, summary = conjecture_campaign(config)
    rdir = runs_root(root) / campaign_id(config)
    rdir.mkdir(parents=True, exist_ok=True)
    cfg = json.dumps(dataclasses.asdict(config), sort_keys=True, indent=2, default=_json_default)
    (rdir / "config.json").write_text(cfg + "\n")
    with open(rdir / "records.jsonl", "w") as fh:
        for r in records:
            fh.write(json.dumps(_record_dict(r), sort_keys=True) + "\n")
    summ = json.dumps(dataclasses.asdict(summary), sort_keys=True, indent=2, default=_json_default)
    (rdir / "summary.json").write_text(summ + "\n")
    return rdir, records, summary

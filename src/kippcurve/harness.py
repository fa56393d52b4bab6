"""Verification suites and the circular-range search campaign.

Three identity suites cross-check the algebra: the dual polynomial
oracles against each other on random triangular input, the one-parameter
contraction family's coefficient identities (including the obstruction
scan that isolates a = 0), and the planted constraint combinations of
the kernel-2 family together with a perturbation control.  The campaign
generates seeded partial isometries, fits a disc to each support
function, and records every circular range whose center strays from the
origin; a clean campaign is evidence for origin-centered circularity.
It runs in blocks of trials: each trial is drawn on its own child seed,
the block's random partial isometries by one call whose Haar unitaries
come from one QR, and the disc fit and the classification each take the
block's stack at once, its points peeled by one `divide` per position and degree.
The run files and the campaign id go through `formats.dataclass_json`, the writer of every other document.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

# _block calls random_partial_isometry and the classify stages once per block, and _draw
# the fixtures' generators once per trial, through these module-level names: the
# benchmark's tracer swaps them to time each stage, and tests patch them.
from .classify import (
    DISC_TOL,
    MIN_DISC_SAMPLES,
    _check_tol,
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
from .formats import dataclass_json
from .homopoly import max_abs_coeff, max_coeff_diff
from .kippenhahn import kipp_poly_det, kipp_poly_expanded

# --- oracle agreement suite ---


@dataclass(frozen=True)
class OracleSuiteReport:
    count: int
    scale: float
    max_relative: float
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
    the suite passes when every matrix agrees below 1e-9.  It needs count >= 1.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    rels = []
    for _ in range(count):
        t = random_upper_triangular(rng, scale)
        pd = kipp_poly_det(t)
        pe = kipp_poly_expanded(t)
        rels.append(max_coeff_diff(pd, pe) / max(1.0, max_abs_coeff(pd)))
    rels = np.array(rels)
    mx = float(rels.max())
    return OracleSuiteReport(
        count=count,
        scale=scale,
        max_relative=mx,
        worst_index=int(rels.argmax()),
        passed=bool(mx < ORACLE_REL_TOL),
    )


# --- contraction-family identity suite ---


@dataclass(frozen=True)
class S5IdentityReport:
    """(d)-side cancellation over a parameter grid plus the (b)-residual scan.

    max_d_modulus is the largest entry-side value of condition (d) for
    the shifted matrix A - aI over the (a, b, c) grid; it cancels
    identically.  scan holds (a, residual) rows for the b = c = a line
    under nominal axes; the residual grows linearly in a, so it vanishes
    only at a = 0 and any circular-plus-ellipses shape of the shifted
    family is ruled out away from the origin.
    """

    max_d_modulus: float
    scan: tuple
    scan_zero_residual: float
    min_scan_margin: float
    partial_isometry_at_zero: bool
    passed: bool


S5_D_TOL = 1e-12
S5_SCAN_MARGIN = 1e-4
_SCAN_AXES = (1.0, 0.5)  # nominal minor axes for the obstruction scan


# 5 x 5 (a, b, c) grid of the (d) cancellation: a real, b on a fixed ray, c on its mirror
_S5_SAMPLES = [
    (float(a), complex(b), complex(np.conj(b)))
    for a in np.linspace(0.0, 0.8, 5)
    for b in np.linspace(0.0, 0.8, 5) * np.exp(1j * np.pi / 5.0)
]
_S5_SCAN_A = np.linspace(0.0, 0.5, 6)  # a values of the obstruction scan


def s5_identity_check() -> S5IdentityReport:
    max_d = max(abs(entry_condition_rhs(s5_family(a, b, c) - a * np.eye(5))["d"]) for a, b, c in _S5_SAMPLES)

    # on the b = c = a line the entry side of (b) cancels, so the residual
    # against any fixed two-ellipse target is |axes contribution| ~ a
    scan = []
    for a in _S5_SCAN_A:
        a = float(a)
        shifted = s5_family(a, a, a) - a * np.eye(5)
        rep = two_ellipse_report(shifted, (0, 1, 2, 3, 4), *_SCAN_AXES)
        scan.append((a, rep.row("b").residual))
    zero_res = scan[0][1]  # _S5_SCAN_A starts at a = 0
    min_margin = min(res for _, res in scan[1:])

    pi_zero = bool(
        np.allclose(
            np.linalg.svd(s5_family(0.0, 0.3j, -0.2), compute_uv=False),
            [1.0, 1.0, 1.0, 1.0, 0.0],
            atol=1e-12,
        )
    )
    passed = max_d < S5_D_TOL and zero_res < S5_SCAN_MARGIN and min_margin > S5_SCAN_MARGIN and pi_zero
    return S5IdentityReport(
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
    requires a visible response on every instance.  It needs count >= 1.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
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
        min_perturbed_response=float(min_resp),
        passed=bool(passed),
    )


# --- the search campaign ---


@dataclass(frozen=True)
class CampaignConfig:
    n_trials: int
    seed: int
    ker_dims: tuple = (1, 2, 3)
    include_structured: bool = True
    tol_disc: float = DISC_TOL
    tol_center: float = 1e-7
    samples: int = 64
    classify: bool = True

    def __post_init__(self):
        # an int tolerance runs the same trials as its float, so it is stored as that float and gets
        # its id; one beyond float range stays an int, which _check_config rejects
        for name in ("tol_disc", "tol_center"):
            tol = getattr(self, name)
            if _whole(tol) and abs(tol) <= float(np.finfo(float).max):
                object.__setattr__(self, name, float(tol))


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
_BLOCK = 100  # trials per stacked disc fit and classification: a few MB of pencil and screen arrays


def _components_summary(components) -> str:
    counts = Counter(c.kind for c in components)
    order = ("point", "ellipse", "flat_quartic", "unclassified")
    return "+".join(f"{k}x{counts[k]}" for k in order if k in counts) or "none"


def _draw(config: CampaignConfig, idx: int, child: np.random.SeedSequence):
    """(generator, params, matrix, expect_circular): a fixture every _STRUCTURED_STRIDE trials, else random.

    A random trial's matrix is None: `_block` draws them all at once from their params.
    """
    if config.include_structured and idx % _STRUCTURED_STRIDE == 0:
        pick = (idx // _STRUCTURED_STRIDE) % 3
        if pick == 0:
            return "jordan_shift5", {}, jordan_shift(5), True
        rng = np.random.default_rng(child)
        if pick == 1:
            b = 0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            c = 0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            return "s5_zero", {"b": complex(b), "c": complex(c)}, s5_family(0.0, b, c), False
        u = haar_unitary(4, rng)
        mat = scipy.linalg.block_diag(np.zeros((1, 1), dtype=complex), u @ jordan_shift(4) @ u.conj().T)
        return "embedded_jordan4", {}, mat, True
    kd = config.ker_dims[idx % len(config.ker_dims)]
    seed = int(child.generate_state(1, dtype=np.uint64)[0])
    return "random_partial_isometry", {"n": 5, "ker_dim": int(kd), "seed": seed}, None, False


def _block(config: CampaignConfig, start: int, children: list) -> list[TrialRecord]:
    """Records of trials start, start + 1, ..., one per child seed.

    Each trial is drawn on its own child seed: the fixtures one by one, the
    random partial isometries by one `random_partial_isometry` call, whose
    Haar unitaries come from one stacked QR.  The disc fit and the curve
    classification then run once on the stack of the block's matrices, and
    the flat count on each contraction-family fixture alone.
    """
    draws = [_draw(config, idx, child) for idx, child in enumerate(children, start)]
    todo = [params for _, params, mat, _ in draws if mat is None]
    drawn = iter(random_partial_isometry(5, [p["ker_dim"] for p in todo], [p["seed"] for p in todo]) if todo else ())
    mats = np.stack([next(drawn) if mat is None else mat for _, _, mat, _ in draws])
    fits = fit_disc(mats, config.samples)
    summaries = [_components_summary(c) for c in classify_curve(mats)] if config.classify else [""] * len(draws)
    return [
        TrialRecord(
            index=idx,
            generator=gen,
            params=params,
            center=fit.center,
            radius=fit.radius,
            fit_residual=fit.residual,
            circular=disc_verdict(fit, config.tol_disc),
            center_modulus=abs(fit.center),
            components=summary,
            expect_circular=expect,
            flat_candidates=len(detect_flat(mat)) if gen == "s5_zero" else 0,
        )
        for idx, ((gen, params, _, expect), mat, fit, summary) in enumerate(zip(draws, mats, fits, summaries), start)
    ]


def _summarize(config: CampaignConfig, records: list) -> CampaignSummary:
    circular = [r for r in records if r.circular]
    expected = [r for r in records if r.expect_circular]
    violations = tuple(r.index for r in circular if r.center_modulus >= config.tol_center)
    anomalies = tuple(r.index for r in records if r.flat_candidates > 0)
    detected = sum(r.circular for r in expected)
    return CampaignSummary(
        n_trials=config.n_trials,
        n_circular=len(circular),
        n_structured=sum(r.generator != "random_partial_isometry" for r in records),
        structured_expected_circular=len(expected),
        structured_detected_circular=detected,
        max_center_modulus_circular=max((r.center_modulus for r in circular), default=0.0),
        violations=violations,
        flat_anomalies=anomalies,
        tol_disc=config.tol_disc,
        tol_center=config.tol_center,
        passed=not violations and detected == len(expected) and not anomalies,
    )


def _whole(v) -> bool:
    # a bool would count, but config.json would write it as true and give the trials a second id
    return isinstance(v, int) and not isinstance(v, bool)


def _check_config(config: CampaignConfig) -> None:
    # every check a config can fail, so that none fails after the first trial
    if not _whole(config.n_trials) or config.n_trials <= 0:
        raise ValueError(f"n_trials must be a positive integer, got {config.n_trials!r}")
    if not _whole(config.seed) or config.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {config.seed!r}")
    for name in ("tol_disc", "tol_center"):
        tol = getattr(config, name)
        if not isinstance(tol, float):  # an int is its float by now, and a bool would write true
            raise ValueError(f"{name} must be a real number, got {tol!r}")
        _check_tol(tol, name)
    if not _whole(config.samples) or config.samples < MIN_DISC_SAMPLES:
        raise ValueError(f"samples must be an integer of at least {MIN_DISC_SAMPLES}, got {config.samples!r}")
    dims = config.ker_dims
    if not isinstance(dims, (tuple, list)) or not dims or not all(_whole(d) and 0 <= d <= 5 for d in dims):
        raise ValueError(f"ker_dims must be a non-empty choice of integers from 0..5, got {config.ker_dims!r}")


def conjecture_campaign(config: CampaignConfig) -> tuple[list, CampaignSummary]:
    """Run the seeded trial plan and summarize circularity versus center location.

    A violation is a trial whose range is detected circular with center
    modulus at least tol_center; the campaign passes when there are
    none, structured circular fixtures are all detected circular, and
    no flat candidate shows up on the contraction-family fixtures.
    Tolerances that are not finite and positive would decide nothing
    and are rejected, as are fewer than `MIN_DISC_SAMPLES` support
    samples, kernel dimensions that no trial could draw, a negative
    seed and counts that are not Python ints (bools included), all
    before the first trial.

    Trial idx is drawn on child seed idx of `config.seed` whatever the
    block it falls in, and `_block` fits and classifies up to `_BLOCK`
    trials as one stack, so the records do not depend on the block size.
    """
    _check_config(config)
    children = np.random.SeedSequence(config.seed).spawn(config.n_trials)
    records = []
    for start in range(0, config.n_trials, _BLOCK):
        records += _block(config, start, children[start : start + _BLOCK])
    return records, _summarize(config, records)


# --- persistence ---


def campaign_id(config: CampaignConfig) -> str:
    return hashlib.sha256(dataclass_json(config).encode()).hexdigest()[:12]


def runs_root(explicit=None) -> Path:
    if explicit is not None:
        return Path(explicit)
    return Path(os.environ.get("KIPP_RUNS_DIR", "runs"))


def run_campaign(config: CampaignConfig, root=None):
    """Execute the campaign and persist config, per-trial records, and summary.

    Layout: <root>/<campaign_id>/{config.json, records.jsonl, summary.json}.
    Identical configs rewrite identical bytes.  The run directory is
    created after the config checks and before the first trial, so an
    unwritable root fails at once and an invalid config creates nothing.
    """
    _check_config(config)
    rdir = runs_root(root) / campaign_id(config)
    rdir.mkdir(parents=True, exist_ok=True)
    records, summary = conjecture_campaign(config)
    (rdir / "config.json").write_text(dataclass_json(config, indent=2) + "\n")
    with open(rdir / "records.jsonl", "w") as fh:
        fh.writelines(dataclass_json(r) + "\n" for r in records)
    (rdir / "summary.json").write_text(dataclass_json(summary, indent=2) + "\n")
    return rdir, records, summary

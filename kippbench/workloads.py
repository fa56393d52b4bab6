"""The benchmark's three seeded workloads and their correctness gates.

Each workload draws a fixed pool of inputs from the seed alone and hands
kippcurve only those inputs.  run(inp) processes one input and returns
how many of its units missed; a KippError or Miss raised by run marks
every unit of the input as missed.  Broken marks the whole run as not
correct.  Pool sizes give two to six passes in a 36-second run at the
seed commit on a 2-core machine; tiny=True shrinks them for the smoke test.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import scipy.linalg

import kippcurve as kc


class Miss(Exception):
    """An output outside its correctness bound; counted as a failed unit.

    args[0] names the check, args[1] (when given) is the measured value.
    """


class Broken(Exception):
    """An output that contradicts an earlier one; the run is not correct."""


# --- campaign: the paper's seeded search ---

# 75 trials hold one of each structured fixture (indices 0, 25, 50), so
# detect_flat runs on one trial in 75 as in the full campaign
CAMPAIGN_TRIALS = 75
CAMPAIGN_CONFIGS = 20


class Campaign:
    """run_campaign on seeded configs; every rerun of a config must repeat its bytes."""

    name = "campaign"

    def __init__(self, seed: int, scratch: Path, tiny: bool = False):
        self.seed = seed
        # 26 trials still reach the s5 fixture at index 25
        self.trials, self.configs = (26, 1) if tiny else (CAMPAIGN_TRIALS, CAMPAIGN_CONFIGS)
        self.scratch = scratch
        self.digests: dict[int, str] = {}

    def units(self, cfg) -> int:
        return cfg.n_trials

    def group(self, cfg) -> str:
        return "campaign"

    def pool(self) -> list:
        states = np.random.SeedSequence(self.seed).generate_state(self.configs)
        return [kc.CampaignConfig(n_trials=self.trials, seed=int(s)) for s in states]

    def first_call(self) -> None:
        kc.run_campaign(kc.CampaignConfig(n_trials=1, seed=self.seed), root=self.scratch)

    def run(self, cfg) -> int:
        rdir, records, summary = kc.run_campaign(cfg, root=self.scratch)
        digest = hashlib.sha256((rdir / "records.jsonl").read_bytes()).hexdigest()
        if self.digests.setdefault(cfg.seed, digest) != digest:
            raise Broken(f"records.jsonl of seed {cfg.seed} changed between reruns")
        undetected = {r.index for r in records if r.expect_circular and not r.circular}
        missed = set(summary.violations) | set(summary.flat_anomalies) | undetected
        if not summary.passed and not missed:
            raise Miss("summary failed")
        return len(missed)


# --- planted: classification with real peeling work ---

PLANTED_TOL = 1e-7  # classify tolerance of the conjugated criterion-3 check
RECOVERY_TOL = 1e-7  # criterion 3, planted ellipses after conjugation
REPORT_TOL = 1e-7  # criterion 3, two-ellipse report after conjugation
FLAT_LOCATE_TOL = 1e-6  # criterion 4, theta and mu of the flat portion
FLAT_RANK_TOL = 1e-10  # criterion 4, rank-one certificate of the planted block
FLAT_REPORT_TOL = 1e-8  # criterion 4, flat report
ORACLE_TOL = 1e-9  # criterion 1, closed form against determinant route
FLAT_TOP = np.array([[0.3 + 0.1j, 0.7], [0.0, -0.2j]])  # the criterion-4 ellipse block
FLAT_TOP_AXIS = 0.7
# two two-ellipse matrices per flat one keep the median among the
# two-ellipse items and the tail among the flat ones
PLANTED_CYCLE = ("two_ellipse", "two_ellipse", "flat")
PLANTED_CYCLES = 240


def _disc(rng: np.random.Generator, radius: float) -> complex:
    return complex(radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))


def _two_ellipse_params(rng: np.random.Generator):
    """(l1..l5, r, s) with pairwise-separated eigenvalues, as in criteria 2 and 3."""
    while True:
        lams = [_disc(rng, 0.5) for _ in range(5)]
        if min(abs(x - y) for i, x in enumerate(lams) for y in lams[i + 1 :]) > 0.15:
            break
    r, s = rng.uniform(0.3, 0.9, size=2)
    return lams, float(r), float(s)


def _flat_params(rng: np.random.Generator):
    """(l3, l4, l5, theta, mu) of the criterion-4 flat block."""
    lams = [_disc(rng, 0.45) for _ in range(3)]
    theta = float(rng.uniform(0.1, np.pi - 0.1))
    floor = -min((np.exp(-1j * theta) * lam).real for lam in lams)
    mu = max(0.0, floor) + float(rng.uniform(0.1, 0.6))
    return lams, theta, mu


def _ellipse_error(components, foci, axis: float) -> float:
    best = np.inf
    for c in components:
        if c.kind == "ellipse":
            direct = max(abs(c.focus1 - foci[0]), abs(c.focus2 - foci[1]))
            swapped = max(abs(c.focus1 - foci[1]), abs(c.focus2 - foci[0]))
            best = min(best, max(min(direct, swapped), abs(c.minor_axis - axis)))
    return best


class Planted:
    """Planted two-ellipse and ellipse-plus-flat blocks hidden by a Haar unitary."""

    name = "planted"

    def __init__(self, seed: int, scratch: Path, tiny: bool = False):
        self.seed = seed
        self.cycles = 1 if tiny else PLANTED_CYCLES

    def units(self, inp) -> int:
        return 1

    def group(self, inp) -> str:
        return inp[0]

    def pool(self) -> list:
        rng = np.random.default_rng(self.seed)
        out = []
        for kind in PLANTED_CYCLE * self.cycles:
            params = _two_ellipse_params(rng) if kind == "two_ellipse" else _flat_params(rng)
            out.append((kind, params, int(rng.integers(2**63))))
        return out

    def first_call(self) -> None:
        self.run(self.pool()[0])

    def run(self, inp) -> int:
        kind, params, unitary_seed = inp
        u = kc.haar_unitary(5, np.random.default_rng(unitary_seed))
        if kind == "two_ellipse":
            lams, r, s = params
            block = kc.two_ellipse_block(*lams, r, s)
        else:
            lams, theta, mu = params
            flat = kc.flat_3x3(*lams, theta, mu)
            block = scipy.linalg.block_diag(FLAT_TOP, flat)
        a = u.conj().T @ block @ u

        comps = kc.classify_curve(a, tol=PLANTED_TOL)
        reports = dict(kc.matched_reports(a, comps))
        tri = kc.schur_triangularize(a, order="lex").triangular
        pd = kc.kipp_poly_det(tri)
        oracle = kc.max_coeff_diff(pd, kc.kipp_poly_expanded(tri)) / max(1.0, kc.max_abs_coeff(pd))
        if not oracle < ORACLE_TOL:
            raise Miss("oracle", oracle)

        if kind == "two_ellipse":
            err = max(
                _ellipse_error(comps, (lams[0], lams[1]), r),
                _ellipse_error(comps, (lams[2], lams[3]), s),
                min((abs(c.location - lams[4]) for c in comps if c.kind == "point"), default=np.inf),
            )
            if not err < RECOVERY_TOL:
                raise Miss("recovery", err)
            rep = reports.get("two_ellipse_point")
            if rep is None or not rep.max_residual < REPORT_TOL:
                raise Miss("report", rep and rep.max_residual)
            return 0

        w = np.exp(-1j * theta) * flat
        sv = np.linalg.svd((w + w.conj().T) / 2 + mu * np.eye(3), compute_uv=False)
        if not sv[1] < FLAT_RANK_TOL:
            raise Miss("rank-one certificate", sv[1])
        err = _ellipse_error(comps, (FLAT_TOP[0, 0], FLAT_TOP[1, 1]), FLAT_TOP_AXIS)
        if not err < RECOVERY_TOL:
            raise Miss("recovery", err)
        found = [c for c in comps if c.kind == "flat_quartic"]
        if not found:
            raise Miss("flat not classified")
        located = max(abs(found[0].theta - theta), abs(found[0].mu - mu))
        if not located < FLAT_LOCATE_TOL:
            raise Miss("flat location", located)
        rep = reports.get("ellipse_flat")
        if rep is None or not rep.max_residual < FLAT_REPORT_TOL:
            raise Miss("report", rep and rep.max_residual)
        return 0


# --- highdim: the polynomial and pencil sweeps beyond 5x5 ---

HIGHDIM_SIZES = tuple(range(6, 13))
HIGHDIM_CYCLES = 30
LAW_TOL = 1e-9  # criterion 9, polynomial covariance under translation and rotation
EVAL_TOL = 1e-9  # p(x, y, z) against det(xH + yK + zI) at off-grid points
EVAL_POINTS = 3


class Highdim:
    """Gaussian n x n matrices, n = 6..12 in turn, through every spectral consumer."""

    name = "highdim"

    def __init__(self, seed: int, scratch: Path, tiny: bool = False):
        self.seed = seed
        self.cycles = 1 if tiny else HIGHDIM_CYCLES

    def units(self, inp) -> int:
        return 1

    def group(self, inp) -> str:
        return f"n={inp[0].shape[0]}"

    def pool(self) -> list:
        rng = np.random.default_rng(self.seed)
        out = []
        for n in HIGHDIM_SIZES * self.cycles:
            a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / 2.0
            shift = complex(rng.normal(), rng.normal()) * 0.5
            phi = 2.0 * np.pi * int(rng.integers(1, 64)) / 64.0
            out.append((a, shift, phi, rng.normal(size=(EVAL_POINTS, 3))))
        return out

    def first_call(self) -> None:
        self.run(self.pool()[0])

    def run(self, inp) -> int:
        a, shift, phi, points = inp
        missed = None
        try:
            p = kc.kipp_poly_det(a)
            self._check_poly(a, p, shift, phi, points)
        except (kc.KippError, Miss) as exc:
            missed = exc  # the sweeps below do not need the polynomial
        fit = kc.fit_disc(a)
        boundary = kc.boundary_polyline(a)
        kc.detect_flat(a)
        svg = kc.render_svg(a, disc=fit)
        if not (np.isfinite(fit.radius) and np.all(np.isfinite(boundary)) and svg.endswith("</svg>\n")):
            raise Miss("non-finite sweep")
        if missed is not None:
            raise missed
        return 0

    @staticmethod
    def _check_poly(a, p, shift: complex, phi: float, points) -> None:
        """Both checks always run, so an item does the same work whether it misses or not."""
        n = a.shape[0]
        h = (a + a.conj().T) / 2.0
        k = (a - a.conj().T) / 2j
        evaluation = 0.0
        for x, y, z in points:
            want = np.linalg.det(x * h + y * k + z * np.eye(n)).real
            scale = sum(abs(c) * abs(x) ** i * abs(y) ** j * abs(z) ** kk for (i, j, kk), c in p.coeffs.items())
            evaluation = max(evaluation, abs(p(x, y, z) - want) / max(1.0, scale))

        scale = max(1.0, kc.max_abs_coeff(p))
        sub = kc.homopoly.substitute_linear
        moved = kc.kipp_poly_det(a + shift * np.eye(n))
        want = sub(p, (1, 0, 0), (0, 1, 0), (shift.real, shift.imag, 1.0))
        law = kc.max_coeff_diff(moved, want) / scale
        cs, sn = np.cos(phi), np.sin(phi)
        turned = kc.kipp_poly_det(np.exp(1j * phi) * a)
        want = sub(p, (cs, sn, 0.0), (-sn, cs, 0.0), (0.0, 0.0, 1.0))
        law = max(law, kc.max_coeff_diff(turned, want) / scale)
        if not evaluation < EVAL_TOL:
            raise Miss("off-grid evaluation", evaluation)
        if not law < LAW_TOL:
            raise Miss("covariance law", law)


WORKLOADS = {w.name: w for w in (Campaign, Planted, Highdim)}

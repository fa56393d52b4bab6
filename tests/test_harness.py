"""Tests for the identity suites and the circularity search campaign."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from kippcurve import formats, harness
from kippcurve.classify import fit_disc
from kippcurve.harness import (
    CampaignConfig,
    campaign_id,
    conjecture_campaign,
    ker2_identity_check,
    oracle_identity_suite,
    run_campaign,
    runs_root,
    s5_identity_check,
)

# conjecture_campaign(CampaignConfig(n_trials=75, seed=2108)) in the run-file
# JSON: {"config": ..., "records": [...], "summary": ...}
GOLDEN_CAMPAIGN = Path(__file__).parent / "golden" / "campaign_75_2108.json"


class TestOracleSuite:
    def test_small_batch_passes(self):
        rep = oracle_identity_suite(10, seed=101)
        assert rep.passed
        assert rep.count == 10
        assert rep.max_relative < 1e-9
        assert 0 <= rep.worst_index < 10

    def test_large_scale_entries(self):
        rep = oracle_identity_suite(5, seed=102, scale=1e3)
        assert rep.passed
        assert rep.scale == 1e3

    def test_deterministic(self):
        a = oracle_identity_suite(5, seed=103)
        b = oracle_identity_suite(5, seed=103)
        assert a.max_relative == b.max_relative


class TestS5Identities:
    def test_default_grid(self):
        rep = s5_identity_check()
        assert rep.passed
        assert rep.max_d_modulus < 1e-12
        assert rep.partial_isometry_at_zero

    def test_scan_vanishes_only_at_origin(self):
        rep = s5_identity_check()
        assert rep.scan_zero_residual < 1e-10
        assert rep.min_scan_margin > 1e-4
        # the scan residual grows with the eigenvalue parameter
        residuals = dict(rep.scan)
        a_values = sorted(residuals)
        assert residuals[a_values[-1]] > residuals[a_values[1]]


class TestKer2Identities:
    def test_batch(self):
        rep = ker2_identity_check(20, seed=104)
        assert rep.passed
        assert rep.count == 20
        assert rep.max_comb1 < 1e-10
        assert rep.max_comb2 < 1e-10
        assert rep.max_comb1_distinct < 1e-10
        assert rep.max_closed_form_gap < 1e-10

    def test_perturbation_sensitivity(self):
        # breaking the isometry constraints must wake the combinations up
        rep = ker2_identity_check(10, seed=105)
        assert rep.min_perturbed_response > 1e-5


@pytest.mark.parametrize("suite", [oracle_identity_suite, ker2_identity_check])
@pytest.mark.parametrize("count", [0, -1])
def test_identity_suites_need_an_instance(suite, count):
    # a suite over no instances checks nothing, so it cannot report passed
    with pytest.raises(ValueError, match="count"):
        suite(count, 7)


class TestCampaign:
    def test_small_run(self):
        cfg = CampaignConfig(n_trials=40, seed=200)
        records, summary = conjecture_campaign(cfg)
        assert len(records) == 40
        assert summary.n_trials == 40
        assert summary.passed
        assert summary.violations == ()
        assert summary.flat_anomalies == ()
        # structured fixtures appear on the stride and carry expectations
        structured = [r for r in records if r.generator != "random_partial_isometry"]
        assert len(structured) == summary.n_structured
        assert summary.n_structured == 2
        assert summary.structured_detected_circular == summary.structured_expected_circular

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            conjecture_campaign(CampaignConfig(n_trials=0, seed=0))

    @pytest.mark.parametrize(
        "bad",
        [
            {"tol_center": float("nan")},
            {"tol_center": 0.0},
            {"tol_disc": float("nan")},
            {"tol_disc": float("inf")},
            {"tol_disc": -1e-8},
            {"samples": 3},
        ],
    )
    def test_meaningless_config_rejected(self, bad):
        # a nan tolerance can never record a violation, and 3 samples fit
        # any support function exactly, so every trial would read circular
        with pytest.raises(ValueError):
            conjecture_campaign(CampaignConfig(n_trials=30, seed=0, **bad))

    @pytest.mark.parametrize("ker_dims", [(), (9,), (-1,)])
    def test_undrawable_ker_dims_rejected_before_any_trial(self, monkeypatch, ker_dims):
        fits = []
        monkeypatch.setattr(harness, "fit_disc", lambda *args: fits.append(args) or fit_disc(*args))
        with pytest.raises(ValueError, match="ker_dims"):
            conjecture_campaign(CampaignConfig(n_trials=3, seed=0, ker_dims=ker_dims))
        assert fits == []

    def test_too_few_samples_rejected_before_any_draw(self, monkeypatch):
        # 8 samples would fit every trial's support function too closely to tell
        draws = []
        draw = harness._draw
        monkeypatch.setattr(harness, "_draw", lambda *args: draws.append(args) or draw(*args))
        with pytest.raises(ValueError, match="samples"):
            conjecture_campaign(CampaignConfig(n_trials=3, seed=1, samples=8))
        assert draws == []

    def test_deterministic_records(self):
        cfg = CampaignConfig(n_trials=15, seed=201)
        rec_a, sum_a = conjecture_campaign(cfg)
        rec_b, sum_b = conjecture_campaign(cfg)
        assert sum_a == sum_b
        for x, y in zip(rec_a, rec_b):
            assert x.center == y.center
            assert x.radius == y.radius
            assert x.components == y.components

    def test_matches_golden_campaign(self, split_floats):
        # pinned across commits: every non-float field exactly, every float
        # (center, radius, residual, modulus, drawn s5 parameters) to 1e-12
        # so that another LAPACK build still passes
        golden = json.loads(GOLDEN_CAMPAIGN.read_text())
        config = CampaignConfig(n_trials=75, seed=2108)
        records, summary = conjecture_campaign(config)
        assert json.loads(formats.dataclass_json(config)) == golden["config"]
        got, want = [], []
        got_shape = split_floats([json.loads(formats.dataclass_json(r)) for r in records], got)
        assert got_shape == split_floats(golden["records"], want)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        got_summary, want_summary = json.loads(formats.dataclass_json(summary)), golden["summary"]
        key = "max_center_modulus_circular"
        assert got_summary.pop(key) == pytest.approx(want_summary.pop(key), abs=1e-12)
        assert got_summary == want_summary

    def test_circular_trials_have_small_center(self):
        cfg = CampaignConfig(n_trials=60, seed=202)
        records, summary = conjecture_campaign(cfg)
        for r in records:
            if r.circular:
                assert r.center_modulus < cfg.tol_center
        assert summary.max_center_modulus_circular < cfg.tol_center

    def test_no_classify_leaves_only_components_empty(self):
        on = CampaignConfig(n_trials=30, seed=5)
        off = CampaignConfig(n_trials=30, seed=5, classify=False)
        rec_on, sum_on = conjecture_campaign(on)
        rec_off, sum_off = conjecture_campaign(off)
        assert rec_off == [dataclasses.replace(r, components="") for r in rec_on]
        assert sum_off == sum_on
        assert campaign_id(off) != campaign_id(on)

    def test_one_stacked_sweep_per_stage(self, count_eigensolves):
        # 40 trials are one block: the disc fits' 32 eigensolves a trial and
        # the classification's 6 are one eigvalsh stack each
        conjecture_campaign(CampaignConfig(n_trials=40, seed=3, include_structured=False))
        assert count_eigensolves == {"eigh": [], "eigvalsh": [40 * 32, 40 * 6]}

    def test_one_stacked_qr_per_block(self, monkeypatch):
        # 40 random trials are one block: their 80 Haar unitaries come from one QR stack
        sizes = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, *args: sizes.append(np.size(a) // 25) or qr(a, *args))
        conjecture_campaign(CampaignConfig(n_trials=40, seed=3, include_structured=False))
        assert sizes == [80]

    def test_blocks_change_no_record(self, monkeypatch):
        # 60 trials in blocks of 7 (the last one short) against one block
        config = CampaignConfig(n_trials=60, seed=206)
        whole = conjecture_campaign(config)
        monkeypatch.setattr(harness, "_BLOCK", 7)
        assert conjecture_campaign(config) == whole

    def test_unstructured_only(self):
        cfg = CampaignConfig(n_trials=30, seed=203, include_structured=False)
        records, summary = conjecture_campaign(cfg)
        assert summary.n_structured == 0
        assert all(r.generator == "random_partial_isometry" for r in records)


class TestPersistence:
    def test_run_layout(self, tmp_path):
        cfg = CampaignConfig(n_trials=8, seed=300)
        run_dir, records, summary = run_campaign(cfg, root=tmp_path)
        assert run_dir.parent == tmp_path
        assert run_dir.name == campaign_id(cfg)
        for name in ("config.json", "records.jsonl", "summary.json"):
            assert (run_dir / name).is_file()
        lines = (run_dir / "records.jsonl").read_text().splitlines()
        assert len(lines) == 8
        assert json.loads((run_dir / "summary.json").read_text())["passed"] is True

    def test_byte_identical_reruns(self, tmp_path):
        cfg = CampaignConfig(n_trials=8, seed=301)
        first, _, _ = run_campaign(cfg, root=tmp_path / "a")
        second, _, _ = run_campaign(cfg, root=tmp_path / "b")
        for name in ("config.json", "records.jsonl", "summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_run_files_match_reference_encoder(self, tmp_path):
        # the run files' bytes as dataclasses.asdict plus a complex hook wrote them;
        # trial 25 is an s5_zero fixture, whose params hold complex values
        def reference(obj, indent=None):
            def default(v):
                if isinstance(v, complex):
                    return [v.real, v.imag]
                raise TypeError(f"not serializable: {type(v)}")

            return json.dumps(dataclasses.asdict(obj), sort_keys=True, indent=indent, default=default)

        cfg = CampaignConfig(n_trials=30, seed=303)
        run_dir, records, summary = run_campaign(cfg, root=tmp_path)
        assert any(r.generator == "s5_zero" for r in records)
        assert run_dir.name == hashlib.sha256(reference(cfg).encode()).hexdigest()[:12]
        assert (run_dir / "config.json").read_text() == reference(cfg, indent=2) + "\n"
        assert (run_dir / "records.jsonl").read_text() == "".join(reference(r) + "\n" for r in records)
        assert (run_dir / "summary.json").read_text() == reference(summary, indent=2) + "\n"

    def test_records_carry_no_timestamp(self, tmp_path):
        cfg = CampaignConfig(n_trials=4, seed=302)
        run_dir, _, _ = run_campaign(cfg, root=tmp_path)
        for line in (run_dir / "records.jsonl").read_text().splitlines():
            assert "timestamp" not in json.loads(line)

    def test_unwritable_root_fails_before_any_trial(self, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        calls = []
        for name in ("_draw", "fit_disc", "classify_curve"):
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *args, _r=real, _n=name: calls.append(_n) or _r(*args))
        with pytest.raises(OSError):
            run_campaign(CampaignConfig(n_trials=30, seed=5), root=blocker / "runs")
        assert calls == []
        # the same spies see every stage of a run that can write
        run_campaign(CampaignConfig(n_trials=3, seed=5), root=tmp_path / "runs")
        assert set(calls) == {"_draw", "fit_disc", "classify_curve"}

    @pytest.mark.parametrize(
        "bad",
        [
            {"samples": 8},
            {"tol_disc": 0.0},
            {"ker_dims": (7,)},
            {"seed": -1},
            # a count that is not an int fails inside the draw, and a bool writes
            # true into config.json, which gives the same trials a second id
            {"ker_dims": (1.0,)},
            {"ker_dims": (True,)},
            {"n_trials": 2.5},
            {"n_trials": True},
            {"seed": 1.5},
            {"seed": True},
            {"samples": 64.0},
            {"samples": np.int64(64)},
            # not a sequence, tolerances that config.json would write as true, and an
            # int tolerance beyond float range, which ran as if it were infinite
            {"ker_dims": 3},
            {"tol_disc": True},
            {"tol_center": True},
            {"tol_center": 10**400},
        ],
    )
    def test_invalid_config_creates_nothing(self, tmp_path, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            run_campaign(CampaignConfig(**{"n_trials": 3, "seed": 1, **bad}), root=tmp_path / "runs")
        assert not (tmp_path / "runs").exists()

    def test_campaign_id_depends_on_config(self):
        a = campaign_id(CampaignConfig(n_trials=10, seed=1))
        b = campaign_id(CampaignConfig(n_trials=10, seed=2))
        c = campaign_id(CampaignConfig(n_trials=10, seed=1))
        assert a != b
        assert a == c
        assert len(a) == 12

    def test_int_tolerance_is_its_float(self, tmp_path):
        # an int tolerance runs the same trials as its float, so both get one id and one set of bytes
        dir_int, dir_float = (
            run_campaign(CampaignConfig(n_trials=3, seed=1, tol_center=tol), root=tmp_path / str(tol))[0] for tol in (1, 1.0)
        )
        assert dir_int.name == dir_float.name
        for name in ("config.json", "records.jsonl", "summary.json"):
            assert (dir_int / name).read_bytes() == (dir_float / name).read_bytes()
        assert json.loads((dir_int / "config.json").read_text())["tol_center"] == 1.0
        assert '"tol_center": 1.0' in (dir_int / "summary.json").read_text()

    def test_runs_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("KIPP_RUNS_DIR", str(tmp_path / "via_env"))
        assert runs_root() == tmp_path / "via_env"
        assert runs_root(tmp_path / "explicit") == tmp_path / "explicit"
        monkeypatch.delenv("KIPP_RUNS_DIR")
        assert str(runs_root()) == "runs"

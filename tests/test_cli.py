"""End-to-end tests of the command line interface."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from click.testing import CliRunner

import kippcurve.cli as cli_mod
from kippcurve import formats
from kippcurve.classify import fit_disc
from kippcurve.cli import main
from kippcurve.generators import flat_3x3, jordan_shift, s5_family, two_ellipse_block
from kippcurve.homopoly import HomoPoly3, max_coeff_diff
from kippcurve.harness import CampaignConfig, campaign_id
from kippcurve.kippenhahn import boundary_polyline, kipp_poly_det
from kippcurve.svgplot import render_svg

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def j5_file(tmp_path):
    path = tmp_path / "j5.json"
    formats.dump_matrix(jordan_shift(5), path)
    return str(path)


def _poly(doc):
    terms = {(t["i"], t["j"], t["k"]): t["c"] for t in doc["terms"]}
    return HomoPoly3.from_terms(doc["degree"], terms)


def test_poly_matches_library(runner, j5_file):
    res = runner.invoke(main, ["poly", j5_file])
    assert res.exit_code == 0
    assert json.loads(res.output) == formats.poly_to_json(kipp_poly_det(jordan_shift(5)))


def test_poly_check_oracle(runner, j5_file):
    res = runner.invoke(main, ["poly", j5_file, "--check-oracle"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["oracle"]["maxRelDiff"] < 1e-9


def test_poly_expanded_route(runner, j5_file):
    plain = runner.invoke(main, ["poly", j5_file])
    expanded = runner.invoke(main, ["poly", j5_file, "--expanded"])
    assert expanded.exit_code == 0
    a, b = (_poly(json.loads(res.output)) for res in (plain, expanded))
    assert max_coeff_diff(a, b) < 1e-12


def test_poly_out_file(runner, j5_file, tmp_path):
    target = tmp_path / "poly.json"
    res = runner.invoke(main, ["poly", j5_file, "--out", str(target)])
    assert res.exit_code == 0
    assert res.output == ""
    json.loads(target.read_text())


def test_classify_j5(runner, j5_file):
    res = runner.invoke(main, ["classify", j5_file])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["circular"] is True
    assert [c["kind"] for c in doc["components"]] == ["point", "ellipse", "ellipse"]
    assert doc["reports"][0]["name"] == "two_ellipse_point"
    assert doc["reports"][0]["maxResidual"] < 1e-8


def test_classify_small_matrix_skips_shape(runner, tmp_path):
    path = tmp_path / "j3.json"
    formats.dump_matrix(jordan_shift(3), path)
    res = runner.invoke(main, ["classify", str(path)])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["circular"] is True
    assert doc["components"] == []


def test_classify_shape_flag_requires_5x5(runner, tmp_path):
    path = tmp_path / "j3.json"
    formats.dump_matrix(jordan_shift(3), path)
    res = runner.invoke(main, ["classify", str(path), "--shape"])
    assert res.exit_code == 3
    assert "5x5" in res.output


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_classify_meaningless_tol_exits_3(runner, tmp_path, tol):
    # J3 skips the 5x5 decomposition, so tol must be checked before it
    te = two_ellipse_block(0.3 + 0.1j, -0.2j, 0.1 - 0.3j, 0.25, -0.35, 0.8, 0.55)
    for name, m in (("te", te), ("j3", jordan_shift(3))):
        path = tmp_path / f"{name}.json"
        formats.dump_matrix(m, path)
        res = runner.invoke(main, ["classify", str(path), "--tol", tol])
        assert res.exit_code == 3, (name, res.output)
        assert "tol" in res.output


def test_classify_svg(runner, j5_file, tmp_path):
    target = tmp_path / "out.svg"
    res = runner.invoke(main, ["classify", j5_file, "--svg", str(target)])
    assert res.exit_code == 0
    text = target.read_text()
    assert text.startswith("<?xml")
    assert text.rstrip().endswith("</svg>")


def test_boundary_csv(runner, j5_file):
    res = runner.invoke(main, ["boundary", j5_file, "--samples", "16"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 16
    first = complex(*map(float, lines[0].split(",")))
    assert abs(first - np.cos(np.pi / 6)) < 1e-12


def test_boundary_svg(runner, j5_file, tmp_path):
    target = tmp_path / "boundary.svg"
    res = runner.invoke(main, ["boundary", j5_file, "--samples", "16", "--svg", str(target)])
    assert res.exit_code == 0
    path = re.search(r'<path d="M ([^"]*) Z"', target.read_text()).group(1)
    assert len(path.split(" L ")) == 16


def test_boundary_csv_and_svg_from_one_sweep(runner, j5_file, tmp_path, count_eigensolves):
    target = tmp_path / "boundary.svg"
    res = runner.invoke(main, ["boundary", j5_file, "--samples", "16", "--svg", str(target)])
    assert res.exit_code == 0
    assert count_eigensolves["eigh"] == [8]
    pts = boundary_polyline(jordan_shift(5), 16)
    assert res.output == "".join(f"{formats.f17(p.real)},{formats.f17(p.imag)}\n" for p in pts)
    assert target.read_text() == render_svg(jordan_shift(5), samples=16)


def test_boundary_out_file_equals_stdout(runner, j5_file, tmp_path):
    target = tmp_path / "boundary.csv"
    res = runner.invoke(main, ["boundary", j5_file, "--samples", "16", "--out", str(target)])
    assert res.exit_code == 0
    assert res.output == ""
    assert target.read_text() == runner.invoke(main, ["boundary", j5_file, "--samples", "16"]).output


def test_malformed_matrix_file(runner, tmp_path):
    # exit code 1 means "violations found", so bad input must never end there
    path = tmp_path / "bad.json"
    for text in (
        '{"dim": 2}',
        '{"dim": 1, "entries": [[null, 0]]}',
        '{"dim": 2, "entries": 5}',
        '{"dim": 1, "entries": [[[1], 0]]}',
        '{"dim": true, "entries": [[1, 0]]}',
    ):
        path.write_text(text)
        for command in ("poly", "classify"):
            res = runner.invoke(main, [command, str(path)])
            assert res.exit_code == 3, (command, text, res.output)


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "jordan", "--n", "5", "--out", "{missing}/j5.json"],
        ["poly", "{j5}", "--out", "{missing}/p.json"],
        ["campaign", "--trials", "2", "--runs-dir", "{file}/runs"],
    ],
)
def test_unwritable_output_exits_3(runner, j5_file, tmp_path, args):
    # an output that cannot be written is an I/O error, not "violations found"
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing", "j5": j5_file, "file": tmp_path / "file"}
    res = runner.invoke(main, [a.format(**paths) for a in args])
    assert res.exit_code == 3, res.output
    assert "Traceback" not in res.output


class TestGenerate:
    def test_jordan(self, runner, tmp_path):
        target = tmp_path / "j.json"
        res = runner.invoke(main, ["generate", "jordan", "--n", "4", "--out", str(target)])
        assert res.exit_code == 0
        m = formats.load_matrix(target)
        assert np.array_equal(m, jordan_shift(4))

    def test_stdout_plus_params_on_stderr(self, runner):
        res = runner.invoke(main, ["generate", "jordan", "--n", "2"])
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["dim"] == 2
        assert json.loads(res.stderr)["params"] == {"family": "jordan", "n": 2}

    @pytest.mark.parametrize(
        "args, echo",
        [
            (
                # the l options out of order: the echo lists them by index
                ["two-ellipse", "--l2", "-0.2j", "--l1", "0.3+0.1j", "--l3", "0.1-0.3j",
                 "--l4", "0.25", "--l5", "-0.35", "--r", "0.8", "--s", "0.55"],
                '{"params": {"family": "two-ellipse", "l": [[0.3, 0.1], [0.0, -0.2], [0.1, -0.3], '
                '[0.25, 0.0], [-0.35, 0.0]], "r": 0.8, "s": 0.55}}',
            ),
            (
                ["s5", "--a", "0.4", "--b", "0.3+0.2j", "--c", "0.3-0.2j"],
                '{"params": {"a": 0.4, "b": [0.3, 0.2], "c": [0.3, -0.2], "family": "s5"}}',
            ),
            (
                ["flat3", "--l3", "0.2", "--l4", "0.1+0.3j", "--l5", "-0.1-0.2j",
                 "--theta", "0", "--mu", "0.5", "--phase-b", "0.25"],
                '{"params": {"family": "flat3", "l": [[0.2, 0.0], [0.1, 0.3], [-0.1, -0.2]], '
                '"mu": 0.5, "phaseA": 0.0, "phaseB": 0.25, "theta": 0.0}}',
            ),
            (["pi", "--ker", "2", "--seed", "7"], '{"params": {"family": "pi", "ker": 2, "n": 5, "seed": 7}}'),
            (["ker2", "--seed", "3"], '{"params": {"distinctTop": false, "family": "ker2", "seed": 3}}'),
            (
                ["ker2", "--seed", "3", "--distinct-top"],
                '{"params": {"distinctTop": true, "family": "ker2", "seed": 3}}',
            ),
            (["jordan", "--n", "3"], '{"params": {"family": "jordan", "n": 3}}'),
        ],
    )
    def test_params_echo(self, runner, tmp_path, args, echo):
        # every family's parameters, defaults included, as pinned bytes; --out is not echoed
        res = runner.invoke(main, ["generate", *args])
        assert res.exit_code == 0
        assert res.stderr == echo + "\n"
        res = runner.invoke(main, ["generate", *args, "--out", str(tmp_path / "m.json")])
        assert res.exit_code == 0
        assert res.stderr == echo + "\n"

    def test_pi_deterministic(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            res = runner.invoke(
                main,
                ["generate", "pi", "--n", "5", "--ker", "2", "--seed", "7", "--out", str(target)],
            )
            assert res.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_two_ellipse_round_trip(self, runner, tmp_path):
        target = tmp_path / "te.json"
        args = [
            "generate", "two-ellipse",
            "--l1", "0.3+0.1j", "--l2", "-0.2j", "--l3", "0.1-0.3j",
            "--l4", "0.25", "--l5", "-0.35", "--r", "0.8", "--s", "0.55",
            "--out", str(target),
        ]
        assert runner.invoke(main, args).exit_code == 0
        res = runner.invoke(main, ["classify", str(target)])
        doc = json.loads(res.output)
        axes = sorted(c["minorAxis"] for c in doc["components"] if c["kind"] == "ellipse")
        assert abs(axes[0] - 0.55) < 1e-8
        assert abs(axes[1] - 0.8) < 1e-8

    def test_s5_round_trip(self, runner, tmp_path):
        target = tmp_path / "s5.json"
        args = ["generate", "s5", "--a", "0.4", "--b", "0.3+0.2j", "--c", "0.3-0.2j"]
        assert runner.invoke(main, [*args, "--out", str(target)]).exit_code == 0
        want = s5_family(0.4, 0.3 + 0.2j, 0.3 - 0.2j)
        assert np.array_equal(formats.load_matrix(target), want)
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        assert json.loads(res.stdout) == formats.matrix_to_json(want)

    def test_s5_param_guard(self, runner):
        res = runner.invoke(main, ["generate", "s5", "--a", "1.5", "--b", "0", "--c", "0"])
        assert res.exit_code == 3

    @pytest.mark.parametrize(
        "args",
        [
            ["s5", "--a", "0.4", "--b", "nan", "--c", "0.1"],
            ["two-ellipse", "--l1", "0", "--l2", "0", "--l3", "0", "--l4", "0", "--l5", "0", "--r", "1", "--s", "nan"],
            ["two-ellipse", "--l1", "inf", "--l2", "0", "--l3", "0", "--l4", "0", "--l5", "0", "--r", "1", "--s", "1"],
            ["flat3", "--l3", "0.2", "--l4", "0.1", "--l5", "-0.1", "--theta", "0", "--mu", "nan"],
            ["flat3", "--l3", "0.2", "--l4", "0.1", "--l5", "-0.1", "--theta", "0", "--mu", "0.5", "--phase-a", "nan"],
        ],
    )
    def test_non_finite_matrix_rejected(self, runner, tmp_path, args):
        target = tmp_path / "bad.json"
        res = runner.invoke(main, ["generate", *args, "--out", str(target)])
        assert res.exit_code == 3
        assert not target.exists()
        res = runner.invoke(main, ["generate", *args])
        assert res.exit_code == 3
        assert "NaN" not in res.stdout and "Infinity" not in res.stdout

    def test_complex_param_rejected(self, runner):
        res = runner.invoke(main, ["generate", "s5", "--a", "0.1", "--b", "zzz", "--c", "0"])
        assert res.exit_code == 2

    def test_flat3(self, runner, tmp_path):
        target = tmp_path / "f3.json"
        args = [
            "generate", "flat3",
            "--l3", "0.2", "--l4", "0.1+0.3j", "--l5", "-0.1-0.2j",
            "--theta", "0", "--mu", "0.5", "--out", str(target),
        ]
        assert runner.invoke(main, args).exit_code == 0
        assert formats.load_matrix(target).shape == (3, 3)

    def test_ker2(self, runner, tmp_path):
        target = tmp_path / "k2.json"
        res = runner.invoke(main, ["generate", "ker2", "--seed", "3", "--out", str(target)])
        assert res.exit_code == 0
        m = formats.load_matrix(target)
        assert np.max(np.abs(m[:, :2])) == 0.0


class TestCampaignCommand:
    def test_small_campaign(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["campaign", "--trials", "10", "--seed", "9", "--runs-dir", str(tmp_path)],
        )
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["passed"] is True
        assert doc["trials"] == 10
        assert Path(doc["runDir"]).joinpath("records.jsonl").is_file()
        # the options default to the library's config
        res = runner.invoke(main, ["campaign", "--trials", "3", "--seed", "1", "--runs-dir", str(tmp_path)])
        assert res.exit_code == 0
        assert json.loads(res.output)["runDir"] == str(tmp_path / campaign_id(CampaignConfig(n_trials=3, seed=1)))

    def test_options_reach_config(self, runner, tmp_path):
        args = [
            "campaign", "--trials", "4", "--seed", "5", "--ker-dims", "2,3", "--no-structured",
            "--tol-disc", "2e-8", "--tol-center", "1e-6", "--samples", "32", "--no-classify",
            "--runs-dir", str(tmp_path),
        ]
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        config = json.loads(Path(json.loads(res.output)["runDir"], "config.json").read_text())
        assert config == {
            "n_trials": 4,
            "seed": 5,
            "ker_dims": [2, 3],
            "include_structured": False,
            "tol_disc": 2e-8,
            "tol_center": 1e-6,
            "samples": 32,
            "classify": False,
        }

    def test_zero_trials_usage_error(self, runner):
        res = runner.invoke(main, ["campaign", "--trials", "0"])
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "bad", [("--tol-center", "nan"), ("--tol-center", "-1e-7"), ("--tol-disc", "inf"), ("--tol-disc", "0")]
    )
    def test_meaningless_tolerance_exits_3(self, runner, tmp_path, bad):
        res = runner.invoke(main, ["campaign", "--trials", "3", *bad, "--runs-dir", str(tmp_path)])
        assert res.exit_code == 3
        assert not any(tmp_path.iterdir())

    def test_bad_ker_dims(self, runner, tmp_path):
        for dims in ("2,9", "1,x", ""):
            res = runner.invoke(
                main,
                ["campaign", "--trials", "3", "--ker-dims", dims, "--runs-dir", str(tmp_path)],
            )
            assert res.exit_code == 2
        assert "names no kernel dimension" in res.stderr

    def test_center_violation_exits_1(self, runner, tmp_path):
        # the Jordan fixture of trial 0 is a disc centered within roundoff of 0, not within 1e-300
        res = runner.invoke(
            main,
            ["campaign", "--trials", "1", "--tol-center", "1e-300", "--runs-dir", str(tmp_path)],
        )
        assert res.exit_code == 1
        doc = json.loads(res.output)
        assert doc["violations"] == [0]
        assert doc["passed"] is False

    def test_env_runs_dir(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("KIPP_RUNS_DIR", str(tmp_path / "env_runs"))
        res = runner.invoke(main, ["campaign", "--trials", "3", "--seed", "1"])
        assert res.exit_code == 0
        assert (tmp_path / "env_runs").is_dir()


def test_identities_command(runner):
    res = runner.invoke(main, ["identities", "--count", "5", "--seed", "42"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["oracle"]["passed"] is True
    assert doc["s5"]["passed"] is True
    assert doc["ker2"]["passed"] is True


def test_identities_failed_suite_exits_1(runner, monkeypatch):
    # a suite that reports passed=False turns the exit code to 1; its document is still written
    real = cli_mod.ker2_identity_check
    monkeypatch.setattr(cli_mod, "ker2_identity_check", lambda *args: dataclasses.replace(real(*args), passed=False))
    res = runner.invoke(main, ["identities", "--count", "5", "--seed", "42"])
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["oracle"]["passed"] is True
    assert doc["ker2"]["passed"] is False


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "pi", "--n", "5", "--ker", "2", "--seed", "-1"],
        ["generate", "ker2", "--seed", "-1"],
        ["identities", "--count", "5", "--seed", "-3"],
        ["campaign", "--trials", "3", "--seed", "-1"],
    ],
    ids=["pi", "ker2", "identities", "campaign"],
)
def test_negative_seed_names_its_option(runner, tmp_path, monkeypatch, args):
    # these exited 3 with numpy's or the config check's message, which named no option
    monkeypatch.setenv("KIPP_RUNS_DIR", str(tmp_path))
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert "--seed" in res.output
    assert not any(tmp_path.iterdir())


def test_golden_svg_stable(runner, tmp_path):
    """Rendering the 2x2 shift reproduces the checked-in SVG byte for byte."""
    path = tmp_path / "j2.json"
    formats.dump_matrix(jordan_shift(2), path)
    target = tmp_path / "j2.svg"
    res = runner.invoke(main, ["classify", str(path), "--svg", str(target)])
    assert res.exit_code == 0
    assert target.read_text() == (GOLDEN / "j2_circle.svg").read_text()


def _gaussian12():
    rng = np.random.default_rng(12)
    return (rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))) / 2.0


# render_svg pinned on three inputs: the markup exactly, every number to
# 2e-3 px, so that another LAPACK build still passes
GOLDEN_SVGS = {
    "j5_disc": lambda: render_svg(jordan_shift(5), disc=fit_disc(jordan_shift(5))),
    "two_ellipse": lambda: render_svg(two_ellipse_block(0.3 + 0.1j, -0.2j, 0.1 - 0.3j, 0.25, -0.35, 0.8, 0.55)),
    "gauss12": lambda: render_svg(_gaussian12(), disc=fit_disc(_gaussian12())),
}
_SVG_NUMBER = re.compile(r"-?\d+\.\d+")


@pytest.mark.parametrize("name", sorted(GOLDEN_SVGS))
def test_svg_matches_golden(name):
    got, want = GOLDEN_SVGS[name](), (GOLDEN / f"svg_{name}.svg").read_text()
    assert _SVG_NUMBER.sub("#", got) == _SVG_NUMBER.sub("#", want)
    got_nums = [float(x) for x in _SVG_NUMBER.findall(got)]
    want_nums = [float(x) for x in _SVG_NUMBER.findall(want)]
    np.testing.assert_allclose(got_nums, want_nums, rtol=0.0, atol=2e-3)


# the classify, identities and campaign documents pinned: keys, nesting and
# non-float values exactly, floats to 1e-12; a serializer that drops or renames
# a key, or prints a complex value as a bare float, fails here
GOLDEN_MATRICES = {
    "two_ellipse": two_ellipse_block(0.3 + 0.1j, -0.2j, 0.1 - 0.3j, 0.25, -0.35, 0.8, 0.55),
    "ellipse_flat": scipy.linalg.block_diag(
        np.array([[0.3 + 0.1j, 0.7], [0.0, -0.2j]]), flat_3x3(0.2, 0.1 + 0.3j, -0.1 - 0.2j, 0.3, 0.45)
    ),
}


def _assert_golden(doc, name, split_floats):
    want_doc = json.loads((GOLDEN / f"cli_{name}.json").read_text())
    got, want = [], []
    assert split_floats(doc, got) == split_floats(want_doc, want)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(GOLDEN_MATRICES))
def test_classify_matches_golden(runner, tmp_path, split_floats, name):
    path = tmp_path / f"{name}.json"
    formats.dump_matrix(GOLDEN_MATRICES[name], path)
    res = runner.invoke(main, ["classify", str(path)])
    assert res.exit_code == 0
    _assert_golden(json.loads(res.output), f"classify_{name}", split_floats)


def test_identities_matches_golden(runner, split_floats):
    res = runner.invoke(main, ["identities", "--count", "10", "--seed", "1234"])
    assert res.exit_code == 0
    _assert_golden(json.loads(res.output), "identities_10_1234", split_floats)


def test_campaign_matches_golden(runner, tmp_path, split_floats):
    res = runner.invoke(main, ["campaign", "--trials", "60", "--seed", "3", "--runs-dir", str(tmp_path)])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc.pop("runDir") == str(tmp_path / campaign_id(CampaignConfig(n_trials=60, seed=3)))
    _assert_golden({**doc, "runDir": None}, "campaign_60_3", split_floats)

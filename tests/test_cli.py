"""End-to-end tests of the command line interface."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from kippcurve import formats
from kippcurve.cli import main
from kippcurve.generators import jordan_shift
from kippcurve.homopoly import max_coeff_diff
from kippcurve.kippenhahn import kipp_poly_det

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def j5_file(tmp_path):
    path = tmp_path / "j5.json"
    formats.dump_matrix(jordan_shift(5), path)
    return str(path)


def test_poly_matches_library(runner, j5_file):
    res = runner.invoke(main, ["poly", j5_file])
    assert res.exit_code == 0
    got = formats.poly_from_json(json.loads(res.output))
    assert max_coeff_diff(got, kipp_poly_det(jordan_shift(5))) == 0.0


def test_poly_check_oracle(runner, j5_file):
    res = runner.invoke(main, ["poly", j5_file, "--check-oracle"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["oracle"]["maxRelDiff"] < 1e-9


def test_poly_expanded_route(runner, j5_file):
    plain = runner.invoke(main, ["poly", j5_file])
    expanded = runner.invoke(main, ["poly", j5_file, "--expanded"])
    assert expanded.exit_code == 0
    a = formats.poly_from_json(json.loads(plain.output))
    b = formats.poly_from_json(json.loads(expanded.output))
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

    def test_s5_param_guard(self, runner):
        res = runner.invoke(main, ["generate", "s5", "--a", "1.5", "--b", "0", "--c", "0"])
        assert res.exit_code == 3

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

    def test_zero_trials_usage_error(self, runner):
        res = runner.invoke(main, ["campaign", "--trials", "0"])
        assert res.exit_code == 2

    def test_bad_ker_dims(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["campaign", "--trials", "3", "--ker-dims", "2,9", "--runs-dir", str(tmp_path)],
        )
        assert res.exit_code == 2

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


def test_golden_svg_stable(runner, tmp_path):
    """Rendering the 2x2 shift reproduces the checked-in SVG byte for byte."""
    path = tmp_path / "j2.json"
    formats.dump_matrix(jordan_shift(2), path)
    target = tmp_path / "j2.svg"
    res = runner.invoke(main, ["classify", str(path), "--svg", str(target)])
    assert res.exit_code == 0
    assert target.read_text() == (GOLDEN / "j2_circle.svg").read_text()

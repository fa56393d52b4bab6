"""Round-trip tests for the JSON serializations."""

import json

import numpy as np
import pytest

from kippcurve import formats
from kippcurve.classify import (
    ConditionReport,
    ConditionRow,
    DiscFit,
    FlatQuarticComponent,
    classify_curve,
    fit_disc,
    matched_reports,
)
from kippcurve.generators import jordan_shift, two_ellipse_block
from kippcurve.homopoly import HomoPoly3


def test_f17_round_trips_doubles():
    for x in (0.1, 1 / 3, np.pi, 1e-17, -2.5e300, 0.8660254037844387):
        assert float(formats.f17(x)) == x


def test_matrix_round_trip():
    rng = np.random.default_rng(50)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    obj = formats.matrix_to_json(m)
    back = formats.matrix_from_json(obj)
    assert np.array_equal(back, m)


def test_matrix_json_shape():
    obj = formats.matrix_to_json(np.eye(2))
    assert obj["dim"] == 2
    assert len(obj["entries"]) == 4
    assert obj["entries"][0] == [1.0, 0.0]


@pytest.mark.parametrize(
    "obj",
    [
        {"entries": [[1, 0]]},
        {"dim": 2, "entries": [[1, 0]]},
        {"dim": 0, "entries": []},
        {"dim": 1, "entries": [[np.inf, 0]]},
        {"dim": 1, "entries": [[1.0]]},
        {"dim": 1, "entries": [[None, 0]]},
        {"dim": 2, "entries": 5},
        {"dim": 1, "entries": [[[1], 0]]},
        {"dim": True, "entries": [[1, 0]]},
    ],
)
def test_matrix_from_json_rejects(obj):
    with pytest.raises(ValueError):
        formats.matrix_from_json(obj)


def test_matrix_file_round_trip(tmp_path):
    m = jordan_shift(3) + 0.5j * np.eye(3)
    path = tmp_path / "m.json"
    formats.dump_matrix(m, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert np.array_equal(formats.load_matrix(path), m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)])
def test_non_finite_matrix_not_written(tmp_path, bad):
    m = np.eye(2, dtype=complex)
    m[0, 1] = bad
    with pytest.raises(ValueError):
        formats.matrix_to_json(m)
    path = tmp_path / "m.json"
    with pytest.raises(ValueError):
        formats.dump_matrix(m, path)
    assert not path.exists()


def test_empty_matrix_not_written(tmp_path):
    # load_matrix refuses dimension 0, so the writer must not produce it
    with pytest.raises(ValueError, match="non-empty"):
        formats.matrix_to_json(np.zeros((0, 0)))
    path = tmp_path / "m.json"
    with pytest.raises(ValueError):
        formats.dump_matrix(np.zeros((0, 0)), path)
    assert not path.exists()


def test_poly_terms_sorted_and_pruned():
    p = HomoPoly3.from_terms(2, {(0, 0, 2): 1.0, (2, 0, 0): -0.25, (1, 1, 0): 0.0})
    obj = formats.poly_to_json(p)
    keys = [(t["i"], t["j"], t["k"]) for t in obj["terms"]]
    assert keys == sorted(keys)
    assert (1, 1, 0) not in keys


def test_component_serialization():
    comps = classify_curve(jordan_shift(5))
    out = [formats.component_to_json(c) for c in comps]
    assert out[0]["kind"] == "point"
    assert out[1]["kind"] == "ellipse"
    assert set(out[1]) == {"kind", "foci", "minorAxis"}
    assert len(out[1]["foci"]) == 2


def test_disc_fit_serialization():
    fit = DiscFit(center=0.25 - 0.5j, radius=0.5, residual=1e-16)
    obj = formats.camel_fields(fit)
    assert obj == {"center": [0.25, -0.5], "radius": 0.5, "residual": 1e-16}
    assert formats.camel_fields(fit, "radius") == {"radius": 0.5}


def test_camel_fields_nested():
    rep = ConditionReport((ConditionRow("h", 0.5 + 0j, 0j, 0.0),), 0.0)
    row = {"label": "h", "lhs": [0.5, 0.0], "rhs": [0.0, 0.0], "residual": 0.0}
    assert formats.camel_fields(rep) == {"rows": [row], "maxResidual": 0.0}
    quartic = FlatQuarticComponent((1j, -1 + 0j), 0.25, 0.5)
    assert formats.component_to_json(quartic) == {
        "kind": "flat_quartic",
        "foci": [[0.0, 1.0], [-1.0, 0.0]],
        "theta": 0.25,
        "mu": 0.5,
    }


def test_classification_document():
    a = two_ellipse_block(0.3, -0.2j, 0.1, -0.4, 0.2, 0.7, 0.5)
    comps = classify_curve(a)
    doc = formats.classification_to_json(comps, fit_disc(a), matched_reports(a, comps))
    text = json.dumps(doc)  # must be plain-JSON serializable
    back = json.loads(text)
    assert set(back) == {"components", "discFit", "reports"}
    assert back["reports"][0]["name"] == "two_ellipse_point"
    rows = back["reports"][0]["rows"]
    assert [r["label"] for r in rows] == list("abcdefg")

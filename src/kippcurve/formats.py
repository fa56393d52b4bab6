"""Wire formats: matrices, polynomials, and classification results as JSON.

Matrices travel as {"dim": n, "entries": [[re, im], ...]} in row-major
order; polynomials as {"degree": d, "terms": [{"i", "j", "k", "c"}, ...]}
sorted lexicographically by exponent; complex scalars always as a
[re, im] pair.  Floats serialize through repr, which round-trips
exactly, so equal data means equal bytes.
"""

from __future__ import annotations

import json
from math import isfinite

import numpy as np

from .homopoly import HomoPoly3


def f17(x: float) -> str:
    """Fixed 17-significant-digit rendering for text outputs (CSV, SVG labels)."""
    return format(float(x), ".17g")


def pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected square matrix, got shape {m.shape}")
    return {
        "dim": int(m.shape[0]),
        "entries": [pair(v) for v in m.reshape(-1)],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix object needs 'dim' and 'entries'")
    n = obj["dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"bad dimension {n!r}")
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise ValueError("'entries' must be a list of [re, im] pairs")
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(entries)}")
    flat = []
    for ent in entries:
        if not (isinstance(ent, (list, tuple)) and len(ent) == 2):
            raise ValueError(f"entry {ent!r} is not a [re, im] pair")
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in ent):
            raise ValueError(f"entry {ent!r} has a part that is not a real number")
        re, im = float(ent[0]), float(ent[1])
        if not (isfinite(re) and isfinite(im)):
            raise ValueError("entries must be finite")
        flat.append(complex(re, im))
    return np.array(flat, dtype=complex).reshape(n, n)


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


def dump_matrix(m, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(m), fh, sort_keys=True)
        fh.write("\n")


def poly_to_json(p: HomoPoly3) -> dict:
    terms = [
        {"i": i, "j": j, "k": k, "c": float(c)}
        for (i, j, k), c in sorted(p.coeffs.items())
        if c != 0.0
    ]
    return {"degree": p.degree, "terms": terms}


def poly_from_json(obj: dict) -> HomoPoly3:
    if not isinstance(obj, dict) or "degree" not in obj or "terms" not in obj:
        raise ValueError("polynomial object needs 'degree' and 'terms'")
    coeffs = {}
    for t in obj["terms"]:
        key = (int(t["i"]), int(t["j"]), int(t["k"]))
        coeffs[key] = float(t["c"])
    return HomoPoly3(int(obj["degree"]), coeffs)


def component_to_json(comp) -> dict:
    out: dict = {"kind": comp.kind}
    if comp.kind == "point":
        out["location"] = pair(comp.location)
    elif comp.kind == "ellipse":
        out["foci"] = [pair(comp.focus1), pair(comp.focus2)]
        out["minorAxis"] = float(comp.minor_axis)
    elif comp.kind == "flat_quartic":
        out["foci"] = [pair(f) for f in comp.foci]
        out["theta"] = float(comp.theta)
        out["mu"] = float(comp.mu)
    else:
        out["degree"] = int(comp.degree)
    return out


def disc_fit_to_json(fit) -> dict:
    return {
        "center": pair(fit.center),
        "radius": float(fit.radius),
        "residual": float(fit.residual),
    }


def report_to_json(name: str, report) -> dict:
    return {
        "name": name,
        "maxResidual": float(report.max_residual),
        "rows": [
            {
                "label": r.label,
                "lhs": pair(r.lhs),
                "rhs": pair(r.rhs),
                "residual": float(r.residual),
            }
            for r in report.rows
        ],
    }


def classification_to_json(components, disc_fit, reports) -> dict:
    return {
        "components": [component_to_json(c) for c in components],
        "discFit": disc_fit_to_json(disc_fit),
        "reports": [report_to_json(name, rep) for (name, rep) in reports],
    }

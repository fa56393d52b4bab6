"""Wire formats: matrices, polynomials, and classification results as JSON.

Matrices travel as {"dim": n, "entries": [[re, im], ...]} in row-major
order; polynomials as {"degree": d, "terms": [{"i", "j", "k", "c"}, ...]}
sorted lexicographically by exponent; complex scalars always as a
[re, im] pair.  One value conversion writes every document: the CLI's
through `camel_fields`, keys in camelCase, and the run files through
`dataclass_json`, keys as the fields are named.  Floats serialize
through repr, which round-trips exactly, so equal data means equal bytes.
"""

from __future__ import annotations

import dataclasses
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
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("entries must be finite")
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
    # serialize first, so a rejected matrix leaves no file behind
    text = dataclass_json(matrix_to_json(m))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def poly_to_json(p: HomoPoly3) -> dict:
    terms = [{"i": i, "j": j, "k": k, "c": c} for (i, j, k), c in sorted(p.coeffs.items())]
    return {"degree": p.degree, "terms": terms}


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(word.capitalize() for word in rest)


def _plain(v):
    if isinstance(v, complex):
        return pair(v)
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if dataclasses.is_dataclass(v):
        return camel_fields(v)
    return v


def camel_fields(obj, *names) -> dict:
    """The named dataclass fields of obj (all by default) under camelCase keys.

    Complex values become [re, im] pairs, tuples lists, and nested
    dataclasses dicts of their own fields, so the result is plain JSON.
    """
    names = names or [f.name for f in dataclasses.fields(obj)]
    return {_camel(name): _plain(getattr(obj, name)) for name in names}


def dataclass_json(obj, indent=None) -> str:
    """A dataclass under its field names, or a dict, as JSON: keys sorted, values as in `camel_fields`."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return json.dumps(_plain(obj), sort_keys=True, indent=indent)


def component_to_json(comp) -> dict:
    out = {"kind": comp.kind, **camel_fields(comp)}
    if comp.kind == "ellipse":
        out["foci"] = [out.pop("focus1"), out.pop("focus2")]
    return out


def classification_to_json(components, disc_fit, reports) -> dict:
    return {
        "components": [component_to_json(c) for c in components],
        "discFit": camel_fields(disc_fit),
        "reports": [{"name": name, **camel_fields(rep)} for name, rep in reports],
    }

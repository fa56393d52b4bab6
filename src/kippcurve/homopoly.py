"""Homogeneous trivariate real polynomials keyed by exponent triples."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class HomoPoly3:
    """Homogeneous polynomial in (x, y, z) with real coefficients.

    coeffs maps exponent triples (i, j, k) with i + j + k == degree to
    their coefficient.  Treated as immutable once constructed.
    """

    degree: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in self.coeffs:
            if len(key) != 3 or sum(key) != self.degree or min(key) < 0:
                raise ValueError(f"exponents {key} inconsistent with degree {self.degree}")

    def __call__(self, x, y, z):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        out = np.zeros(np.broadcast(x, y, z).shape)
        for (i, j, k), c in self.coeffs.items():
            out = out + c * x**i * y**j * z**k
        return out if out.shape else float(out)

    def coeff(self, i: int, j: int, k: int) -> float:
        return self.coeffs.get((i, j, k), 0.0)


def max_abs_coeff(p: HomoPoly3) -> float:
    return max((abs(c) for c in p.coeffs.values()), default=0.0)


def poly_close(p: HomoPoly3, q: HomoPoly3, tol: float) -> bool:
    """Coefficient-wise agreement within tol (absolute)."""
    if p.degree != q.degree:
        return False
    keys = set(p.coeffs) | set(q.coeffs)
    return all(abs(p.coeff(*k) - q.coeff(*k)) <= tol for k in keys)


def max_coeff_diff(p: HomoPoly3, q: HomoPoly3) -> float:
    keys = set(p.coeffs) | set(q.coeffs)
    return max((abs(p.coeff(*k) - q.coeff(*k)) for k in keys), default=0.0)


# --- raw dict arithmetic, used to assemble polynomials term by term ---


def dict_add(a: dict, b: dict, factor: float = 1.0) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0.0) + factor * c
    return out


def dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1, k1), c1 in a.items():
        for (i2, j2, k2), c2 in b.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def prune(a: dict) -> dict:
    return {key: c for key, c in a.items() if c != 0.0}


def substitute_linear(p: HomoPoly3, x_form, y_form, z_form) -> HomoPoly3:
    """Substitute each variable by a real linear form in (x, y, z).

    Forms are coefficient triples: z_form = (u, v, 1) sends z to
    u*x + v*y + z.  Homogeneity of p is preserved exactly, so this is
    the right tool for checking the polynomial transformation laws
    under translation and rotation of the matrix.
    """
    forms = []
    for triple in (x_form, y_form, z_form):
        cx, cy, cz = (float(t) for t in triple)
        forms.append(prune({(1, 0, 0): cx, (0, 1, 0): cy, (0, 0, 1): cz}))
    out: dict = {}
    for (i, j, k), c in p.coeffs.items():
        term = {(0, 0, 0): c}
        for form, power in zip(forms, (i, j, k)):
            for _ in range(power):
                term = dict_mul(term, form)
        out = dict_add(out, term)
    return HomoPoly3(p.degree, prune(out))


# --- bivariate homogeneous helpers for division in z ---
#
# A homogeneous bivariate of degree m is a length m+1 array `v` with
# v[j] = coefficient of x**(m-j) * y**j.


def z_layers(p: HomoPoly3) -> list[np.ndarray]:
    """layers[k][j] = coefficient of x**(d-k-j) y**j z**k, for k = 0..degree."""
    d = p.degree
    layers = [np.zeros(d - k + 1) for k in range(d + 1)]
    for (i, j, k), c in p.coeffs.items():
        layers[k][j] = c
    return layers


def from_z_layers(layers: list[np.ndarray]) -> HomoPoly3:
    d = len(layers) - 1
    coeffs: dict = {}
    for k, layer in enumerate(layers):
        for j, c in enumerate(np.asarray(layer, dtype=float)):
            if c != 0.0:
                coeffs[(d - k - j, j, k)] = float(c)
    return HomoPoly3(d, coeffs)


def bimul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of homogeneous bivariates in the layer convention."""
    return np.convolve(np.asarray(a, dtype=float), np.asarray(b, dtype=float))

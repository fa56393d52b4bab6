"""Homogeneous trivariate real polynomials as dense coefficient arrays.

A form of degree d is one (d+1, d+1) array c with c[j, k] the
coefficient of x^(d-j-k) y^j z^k; entries with j + k > d are zero.
Column k is the z^k layer, a bivariate form of degree d - k indexed by
its power of y, which is what division by a form monic in z works on.
The product of two forms is a 2-D convolution of their arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType

import numpy as np


@cache
def _beyond_degree(n: int) -> np.ndarray:
    """Read-only mask of the entries c[j, k] with j + k > n - 1 of an n x n coefficient array."""
    mask = np.add.outer(np.arange(n), np.arange(n)) >= n
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True, eq=False)
class HomoPoly3:
    """Homogeneous polynomial in (x, y, z) with real coefficients.

    c is the coefficient array described in the module docstring; it is
    copied on construction and read-only afterwards.
    """

    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] == 0:
            raise ValueError(f"coefficient array must be square and non-empty, got shape {c.shape}")
        if c[_beyond_degree(c.shape[0])].any():
            raise ValueError("coefficients beyond the degree must vanish")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @classmethod
    def from_terms(cls, degree: int, terms) -> HomoPoly3:
        """Build from a mapping of exponent triples (i, j, k) to coefficients."""
        c = np.zeros((degree + 1, degree + 1))
        for key, val in terms.items():
            if len(key) != 3 or sum(key) != degree or min(key) < 0:
                raise ValueError(f"exponents {key} inconsistent with degree {degree}")
            c[key[1], key[2]] = val
        return cls(c)

    @property
    def degree(self) -> int:
        return self.c.shape[0] - 1

    @cached_property
    def coeffs(self):
        """Read-only mapping of exponent triples (i, j, k) to the nonzero coefficients."""
        d = self.degree
        js, ks = np.nonzero(self.c)
        return MappingProxyType(
            {(d - j - k, j, k): float(self.c[j, k]) for j, k in zip(js.tolist(), ks.tolist())}
        )

    def __call__(self, x, y, z):
        """Value at (x, y, z), by Horner's rule as in `substitute_linear`."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        d = self.degree
        xpow = [np.ones_like(x)]
        for _ in range(d):
            xpow.append(xpow[-1] * x)
        out = np.zeros(np.broadcast(x, y, z).shape)
        for k in range(d, -1, -1):
            layer = self.c[d - k, k]
            for j in range(d - k - 1, -1, -1):
                layer = layer * y + self.c[j, k] * xpow[d - k - j]
            out = out * z + layer
        return out if out.shape else float(out)

    def coeff(self, i: int, j: int, k: int) -> float:
        if min(i, j, k) < 0 or i + j + k != self.degree:
            return 0.0
        return float(self.c[j, k])


def max_abs_coeff(p: HomoPoly3) -> float:
    return float(np.max(np.abs(p.c)))


def max_coeff_diff(p: HomoPoly3, q: HomoPoly3) -> float:
    if p.degree != q.degree:
        raise ValueError(f"degrees differ: {p.degree} and {q.degree}")
    return float(np.max(np.abs(p.c - q.c)))


# --- arithmetic on coefficient arrays ---


def linear(cx: float, cy: float, cz: float) -> np.ndarray:
    """Coefficient array of cx x + cy y + cz z."""
    return np.array([[cx, cz], [cy, 0.0]], dtype=float)


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient array of the product of the forms with arrays a and b.

    Rows padded to the product's width n turn the 2-D convolution into
    one 1-D convolution: index j n + k never carries into the next row.
    """
    n = a.shape[0] + b.shape[0] - 1
    fa = np.zeros((a.shape[0], n))
    fa[:, : a.shape[1]] = a
    fb = np.zeros((b.shape[0], n))
    fb[:, : b.shape[1]] = b
    return np.convolve(fa.ravel(), fb.ravel())[: n * n].reshape(n, n)


def divide(p: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic division p = g q + r by a form g monic in z.

    g has degree e and z^e coefficient 1.  Layer k of p is
    sum_{i+s=k} g_i q_s + r_k, so the quotient layers come out from the
    top and the remainder layers, z^0..z^(e-1), at the bottom.  Returns
    the arrays of q and of r, the latter with p's shape.  Leading axes of
    p and g are stack axes and broadcast, so one call divides a stack of
    forms, or one form by a stack of divisors, row by row.

    q is built with e zero rows above it and enough below, so each
    product g_i q_s is a sum of shifted slices, in the order of g_i's
    index; by a linear form it has two terms and gives np.convolve's bits.
    """
    d, e = p.shape[-1] - 1, g.shape[-1] - 1
    m = d - e
    if m < 0:
        raise ValueError(f"cannot divide degree {d} by degree {e}")
    lead = np.broadcast_shapes(p.shape[:-2], g.shape[:-2])
    qz = np.zeros(lead + (e + d + 1, m + 1))  # row e + j holds row j of q
    r = np.zeros(lead + p.shape[-2:])
    for k in range(d, -1, -1):
        n = d - k + 1
        acc = p[..., :n, k]
        for i in range(e - 1, -1, -1):
            if 0 <= k - i <= m:
                prod = g[..., 0, i, None] * qz[..., e : e + n, k - i]
                for t in range(1, e - i + 1):
                    prod = prod + g[..., t, i, None] * qz[..., e - t : e - t + n, k - i]
                acc = acc - prod
        if k >= e:
            qz[..., e : e + n, k - e] = acc
        else:
            r[..., :n, k] = acc
    return qz[..., e : e + m + 1, :], r


def substitute_linear(p: HomoPoly3, x_form, y_form, z_form) -> HomoPoly3:
    """Substitute each variable by a real linear form in (x, y, z).

    Forms are coefficient triples: z_form = (u, v, 1) sends z to
    u*x + v*y + z.  Homogeneity of p is preserved exactly, so this is
    the right tool for checking the polynomial transformation laws
    under translation and rotation of the matrix.  Each z-layer is
    expanded by Horner's rule in Y over the powers of X, and the layers
    by Horner's rule in Z.
    """
    fx, fy, fz = (linear(*(float(t) for t in f)) for f in (x_form, y_form, z_form))
    d = p.degree
    xpow = [np.ones((1, 1))]
    for _ in range(d):
        xpow.append(mul(xpow[-1], fx))
    out = np.zeros((1, 1))
    for k in range(d, -1, -1):
        layer = np.full((1, 1), p.c[d - k, k])
        for j in range(d - k - 1, -1, -1):
            layer = mul(layer, fy) + p.c[j, k] * xpow[d - k - j]
        out = layer if k == d else mul(out, fz) + layer
    return HomoPoly3(out)

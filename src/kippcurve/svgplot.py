"""Static SVG rendering of curve points, boundary, eigenvalues, and disc fit.

Every layer goes on one 640 x 640 canvas, the disc only when a fit is
given.  Pure string emission with fixed-precision coordinates, so
identical input produces identical bytes.
"""

from __future__ import annotations

import numpy as np

from .classify import DiscFit, _lex_key
from .kippenhahn import curve_points
from .linalg import as_matrix

_BRANCH_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
_WIDTH = 640
_HEIGHT = 640


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_svg(a, samples: int = 256, disc: DiscFit | None = None) -> str:
    """Serialize matrix a's curve, sampled at samples angles, into a standalone SVG document."""
    m = as_matrix(a)
    n = m.shape[0]
    branch_pts = curve_points(m, samples)  # samples x n
    eigs = np.linalg.eigvals(m)

    xs = [branch_pts.real.ravel(), eigs.real]
    ys = [branch_pts.imag.ravel(), eigs.imag]
    if disc is not None:
        xs.append(np.array([disc.center.real - disc.radius, disc.center.real + disc.radius]))
        ys.append(np.array([disc.center.imag - disc.radius, disc.center.imag + disc.radius]))
    all_x = np.concatenate(xs)
    all_y = np.concatenate(ys)
    lo_x, hi_x = float(all_x.min()), float(all_x.max())
    lo_y, hi_y = float(all_y.min()), float(all_y.max())
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-6)
    pad = 0.08 * span
    lo_x, hi_x = lo_x - pad, lo_x + span + pad
    lo_y, hi_y = lo_y - pad, lo_y + span + pad
    sx = _WIDTH / (hi_x - lo_x)
    sy = _HEIGHT / (hi_y - lo_y)

    def px(zx: float) -> str:
        return _fmt((zx - lo_x) * sx)

    def py(zy: float) -> str:
        return _fmt(_HEIGHT - (zy - lo_y) * sy)  # flip so Im axis points up

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    # one row of pixel coordinates per branch, the same arithmetic as px and py
    cols = ((branch_pts.real - lo_x) * sx).T.tolist()
    rows = (_HEIGHT - (branch_pts.imag - lo_y) * sy).T.tolist()
    for b in range(n):
        color = _BRANCH_COLORS[b % len(_BRANCH_COLORS)]
        dots = "".join(
            f'<circle cx="{x:.3f}" cy="{y:.3f}" r="1.5" fill="{color}"/>' for x, y in zip(cols[b], rows[b])
        )
        parts.append(f'<g class="branch{b}">{dots}</g>')
    path = "M " + " L ".join(f"{x:.3f} {y:.3f}" for x, y in zip(cols[-1], rows[-1])) + " Z"
    parts.append(f'<path d="{path}" fill="none" stroke="#000000" stroke-width="1.2"/>')
    if disc is not None:
        parts.append(
            f'<circle cx="{px(disc.center.real)}" cy="{py(disc.center.imag)}" '
            f'r="{_fmt(disc.radius * sx)}" fill="none" stroke="#888888" '
            'stroke-width="1" stroke-dasharray="5 4"/>'
        )
    for e in sorted(eigs.tolist(), key=_lex_key):
        cx, cy = e.real, e.imag
        parts.append(
            f'<g stroke="#000000" stroke-width="1">'
            f'<line x1="{px(cx)}" y1="{_fmt(float(py(cy)) - 4.0)}" '
            f'x2="{px(cx)}" y2="{_fmt(float(py(cy)) + 4.0)}"/>'
            f'<line x1="{_fmt(float(px(cx)) - 4.0)}" y1="{py(cy)}" '
            f'x2="{_fmt(float(px(cx)) + 4.0)}" y2="{py(cy)}"/></g>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

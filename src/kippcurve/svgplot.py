"""Static SVG rendering of curve points, boundary, eigenvalues, and disc fit.

Every layer goes on one 640 x 640 canvas, the disc only when a fit is
given.  The marks (every curve point branch by branch, the eigenvalues,
the disc center) go through one array transform to pixels; the boundary
path is the top branch.  The points come from `curve_points`, which
keeps its last sweep, so drawing a matrix whose curve the caller has
just swept runs no second eigensolve.  Each branch's run of circles is
one %-format of a fixed template over its pixel coordinates, and so is
the boundary path.  Pure string emission with fixed-precision
coordinates, so identical input produces identical bytes.
"""

from __future__ import annotations

import numpy as np

from .classify import DiscFit, _lex_key
from .kippenhahn import curve_points
from .linalg import as_matrix

_BRANCH_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
_WIDTH = 640
_HEIGHT = 640


def render_svg(a, samples: int = 256, disc: DiscFit | None = None) -> str:
    """Serialize matrix a's curve, sampled at samples angles, into a standalone SVG document."""
    m = as_matrix(a)
    pts = curve_points(m, samples)
    n = m.shape[0]
    eigs = sorted(np.linalg.eigvals(m).tolist(), key=_lex_key)
    marks = [pts.T.ravel(), eigs]  # branch by branch, then the eigenvalues
    if disc is not None:
        marks.append(disc.center + disc.radius * np.array([0.0, -1 - 1j, 1 + 1j]))  # center, box corners
    z = np.concatenate(marks)
    lo_x, lo_y = z.real.min(), z.imag.min()
    span = max(z.real.max() - lo_x, z.imag.max() - lo_y, 1e-6)
    pad = 0.08 * span
    lo_x, hi_x = lo_x - pad, lo_x + span + pad
    lo_y, hi_y = lo_y - pad, lo_y + span + pad
    sx = _WIDTH / (hi_x - lo_x)
    sy = _HEIGHT / (hi_y - lo_y)
    xs = (z.real - lo_x) * sx
    ys = _HEIGHT - (z.imag - lo_y) * sy  # flip so Im axis points up
    xy = np.stack([xs, ys], axis=-1)
    rows = [tuple(row) for row in xy[: n * samples].reshape(n, 2 * samples).tolist()]  # x0, y0, x1, ...
    crosses = xy[n * samples :].tolist()  # the eigenvalues, then the disc center

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    for b, row in enumerate(rows):
        dot = '<circle cx="%.3f" cy="%.3f" r="1.5" fill="' + _BRANCH_COLORS[b % len(_BRANCH_COLORS)] + '"/>'
        parts.append(f'<g class="branch{b}">' + dot * samples % row + "</g>")
    path = "M %.3f %.3f" + " L %.3f %.3f" * (samples - 1) + " Z"
    parts.append(f'<path d="{path % rows[-1]}" fill="none" stroke="#000000" stroke-width="1.2"/>')
    if disc is not None:
        cx, cy = crosses[n]
        parts.append(
            f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{disc.radius * sx:.3f}" fill="none" stroke="#888888" '
            'stroke-width="1" stroke-dasharray="5 4"/>'
        )
    for x, y in crosses[:n]:
        x, y = float(f"{x:.3f}"), float(f"{y:.3f}")  # the arms end 4 px from the printed center
        parts.append(
            f'<g stroke="#000000" stroke-width="1">'
            f'<line x1="{x:.3f}" y1="{y - 4.0:.3f}" x2="{x:.3f}" y2="{y + 4.0:.3f}"/>'
            f'<line x1="{x - 4.0:.3f}" y1="{y:.3f}" x2="{x + 4.0:.3f}" y2="{y:.3f}"/></g>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

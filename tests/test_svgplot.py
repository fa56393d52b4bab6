"""render_svg against the per-point f-string emitter it replaced.

The emitter writes each branch's circles and the boundary path from one
%-format template; '%.3f' % x and f'{x:.3f}' print the same digits, so
the document must equal the reference's byte for byte.
"""

import numpy as np
import pytest

from kippcurve.classify import _lex_key, fit_disc
from kippcurve.generators import jordan_shift
from kippcurve.kippenhahn import curve_points
from kippcurve.svgplot import _BRANCH_COLORS, _HEIGHT, _WIDTH, render_svg


def reference_svg(m, pts, disc=None):
    """The SVG document of m from pts = curve_points(m, samples), one f-string per point."""
    samples, n = pts.shape
    eigs = sorted(np.linalg.eigvals(m).tolist(), key=_lex_key)
    marks = [pts.T.ravel(), eigs]
    if disc is not None:
        marks.append(disc.center + disc.radius * np.array([0.0, -1 - 1j, 1 + 1j]))
    z = np.concatenate(marks)
    lo_x, lo_y = z.real.min(), z.imag.min()
    span = max(z.real.max() - lo_x, z.imag.max() - lo_y, 1e-6)
    pad = 0.08 * span
    lo_x, hi_x = lo_x - pad, lo_x + span + pad
    lo_y, hi_y = lo_y - pad, lo_y + span + pad
    sx = _WIDTH / (hi_x - lo_x)
    sy = _HEIGHT / (hi_y - lo_y)
    xs = ((z.real - lo_x) * sx).tolist()
    ys = (_HEIGHT - (z.imag - lo_y) * sy).tolist()
    pixels = list(zip(xs, ys))
    rows = [pixels[b * samples : (b + 1) * samples] for b in range(n)]
    crosses = pixels[n * samples : n * samples + n]

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    for b, row in enumerate(rows):
        color = _BRANCH_COLORS[b % len(_BRANCH_COLORS)]
        dots = "".join(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="1.5" fill="{color}"/>' for x, y in row)
        parts.append(f'<g class="branch{b}">{dots}</g>')
    path = "M " + " L ".join(f"{x:.3f} {y:.3f}" for x, y in rows[-1]) + " Z"
    parts.append(f'<path d="{path}" fill="none" stroke="#000000" stroke-width="1.2"/>')
    if disc is not None:
        cx, cy = pixels[n * samples + n]
        parts.append(
            f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{disc.radius * sx:.3f}" fill="none" stroke="#888888" '
            'stroke-width="1" stroke-dasharray="5 4"/>'
        )
    for x, y in crosses:
        x, y = float(f"{x:.3f}"), float(f"{y:.3f}")
        parts.append(
            f'<g stroke="#000000" stroke-width="1">'
            f'<line x1="{x:.3f}" y1="{y - 4.0:.3f}" x2="{x:.3f}" y2="{y + 4.0:.3f}"/>'
            f'<line x1="{x - 4.0:.3f}" y1="{y:.3f}" x2="{x + 4.0:.3f}" y2="{y:.3f}"/></g>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _gaussian(n):
    rng = np.random.default_rng([7, n])
    return (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / 2.0


INPUTS = {f"gauss{n}": (lambda n=n: _gaussian(n)) for n in range(2, 13)}
INPUTS["j5"] = lambda: jordan_shift(5)
INPUTS["scalar"] = lambda: (0.3 - 0.2j) * np.eye(4)  # every mark at one point: the 1e-6 span floor


@pytest.mark.parametrize("with_disc", [False, True], ids=["bare", "disc"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_matches_reference_emitter(name, with_disc):
    a = INPUTS[name]()
    disc = fit_disc(a) if with_disc else None
    for samples in (256, 15):
        want = reference_svg(a, curve_points(a, samples), disc)
        assert render_svg(a, samples, disc) == want

"""Command line interface.

Exit codes: 0 success, 1 a check or campaign reported violations,
2 usage errors (click), 3 domain failures (bad matrix file, wrong
dimensions, parameters outside their disc, ill conditioned fits) and
I/O errors (an output file or run directory that cannot be written).

`classify`, `campaign` and `identities` print the library's result
dataclasses through `formats.camel_fields`: each key is a field in camelCase.
`generate` echoes the parameters click parsed; `campaign` parses CampaignConfig's.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import numpy as np
import click

from . import formats
from .classify import (
    MIN_DISC_SAMPLES,
    _check_tol,
    classify_curve,
    disc_verdict,
    fit_disc,
    matched_reports,
)
from .errors import KippError, NotDim5
from .generators import (
    flat_3x3,
    jordan_shift,
    ker2_family,
    random_partial_isometry,
    s5_family,
    two_ellipse_block,
)
from .harness import (
    CampaignConfig,
    ker2_identity_check,
    oracle_identity_suite,
    run_campaign,
    s5_identity_check,
)
from .kippenhahn import curve_points, kipp_poly_det, kipp_poly_expanded
from .linalg import DEFAULT_TOL
from .homopoly import max_abs_coeff, max_coeff_diff
from .svgplot import render_svg

EXIT_VIOLATION = 1
EXIT_DOMAIN = 3


def _guard(fn):
    """Map domain and I/O errors to a short stderr line and exit code 3."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (KippError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DOMAIN)

    return wrapper


def _write_json(payload, out: str | None) -> None:
    text = formats.dataclass_json(payload, indent=2)
    if out is None:
        click.echo(text)
    else:
        Path(out).write_text(text + "\n")


class ComplexParam(click.ParamType):
    """Accepts anything Python's complex() does, e.g. 0.5, 1j, 0.3-0.2j."""

    name = "complex"

    def convert(self, value, param, ctx):
        if isinstance(value, complex):
            return value
        try:
            return complex(str(value).replace(" ", ""))
        except ValueError:
            self.fail(f"{value!r} is not a complex number", param, ctx)


COMPLEX = ComplexParam()


@click.group()
def main():
    """Kippenhahn polynomials, curve classification, and the circularity search."""


@main.command()
@click.argument("matrix", type=click.Path(exists=True, dir_okay=False))
@click.option("--expanded", is_flag=True, help="use the closed-form route (upper-triangular 5x5 only)")
@click.option("--check-oracle", is_flag=True, help="run both routes and report the coefficient gap")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="write JSON here instead of stdout")
@_guard
def poly(matrix, expanded, check_oracle, out):
    """Kippenhahn polynomial of the matrix stored in MATRIX (JSON)."""
    m = formats.load_matrix(matrix)
    if check_oracle:
        pd = kipp_poly_det(m)
        pe = kipp_poly_expanded(m)
        gap = max_coeff_diff(pd, pe)
        payload = {
            "poly": formats.poly_to_json(pd),
            "oracle": {
                "maxAbsDiff": gap,
                "maxRelDiff": gap / max(1.0, max_abs_coeff(pd)),
            },
        }
    else:
        p = kipp_poly_expanded(m) if expanded else kipp_poly_det(m)
        payload = formats.poly_to_json(p)
    _write_json(payload, out)


@main.command()
@click.argument("matrix", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", default=DEFAULT_TOL, show_default=True, help="factor-peeling residual tolerance")
@click.option("--samples", default=64, type=click.IntRange(min=MIN_DISC_SAMPLES), show_default=True,
              help="support samples for the disc fit")
@click.option("--shape", is_flag=True, help="require the shape decomposition (errors for non-5x5 input)")
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False), default=None, help="also render the curve to this SVG file")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def classify(matrix, tol, samples, shape, svg_path, out):
    """Disc fit plus, for 5x5 input, the component decomposition of the curve."""
    _check_tol(tol)
    m = formats.load_matrix(matrix)
    fit = fit_disc(m, samples=samples)
    circular = disc_verdict(fit)
    components = []
    reports = []
    if m.shape[0] == 5:
        components = classify_curve(m, tol=tol)
        reports = matched_reports(m, components, tol=tol)
    elif shape:
        raise NotDim5(f"shape classification needs a 5x5 matrix, got {m.shape[0]}x{m.shape[0]}")
    payload = formats.classification_to_json(components, fit, reports)
    payload["circular"] = circular
    if svg_path is not None:
        svg = render_svg(m, disc=fit if circular else None)
        Path(svg_path).write_text(svg)
    _write_json(payload, out)


@main.command()
@click.argument("matrix", type=click.Path(exists=True, dir_okay=False))
@click.option("--samples", default=256, type=click.IntRange(min=8), show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="CSV destination (default stdout)")
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False), default=None)
@_guard
def boundary(matrix, samples, out, svg_path):
    """Numerical range boundary of MATRIX as re,im CSV lines."""
    m = formats.load_matrix(matrix)
    pts = curve_points(m, samples)  # the CSV is its top column; render_svg reuses the sweep
    text = "".join(f"{formats.f17(p.real)},{formats.f17(p.imag)}\n" for p in pts[:, -1])
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)
    if svg_path is not None:
        Path(svg_path).write_text(render_svg(m, samples))


def _emit_matrix(m: np.ndarray, out: str | None) -> None:
    # the echo: the family by the command's name, the rest but out in camelCase, l1, l2, ... as one list l
    if out is None:
        _write_json(formats.matrix_to_json(m), None)
    else:
        formats.dump_matrix(m, out)
    ctx = click.get_current_context()
    params = {"family": ctx.info_name}
    for name, value in sorted(ctx.params.items()):  # l1, l2, ... in index order
        if name[0] == "l" and name[1:].isdigit():
            params.setdefault("l", []).append(value)
        elif name != "out":
            params[formats._camel(name)] = value
    click.echo(formats.dataclass_json({"params": params}), err=True)


@main.group()
def generate():
    """Build matrices from the named families."""


@generate.command("two-ellipse")
@click.option("--l1", type=COMPLEX, required=True)
@click.option("--l2", type=COMPLEX, required=True)
@click.option("--l3", type=COMPLEX, required=True)
@click.option("--l4", type=COMPLEX, required=True)
@click.option("--l5", type=COMPLEX, required=True)
@click.option("--r", type=float, required=True, help="minor axis of the first ellipse")
@click.option("--s", type=float, required=True, help="minor axis of the second ellipse")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def gen_two_ellipse(l1, l2, l3, l4, l5, r, s, out):
    """Direct sum of two 2x2 Jordan-like blocks and a scalar."""
    _emit_matrix(two_ellipse_block(l1, l2, l3, l4, l5, r, s), out)


@generate.command("s5")
@click.option("--a", type=float, required=True, help="real eigenvalue, |a| < 1")
@click.option("--b", type=COMPLEX, required=True)
@click.option("--c", type=COMPLEX, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def gen_s5(a, b, c, out):
    """The three-parameter partial isometry family with eigenvalues a,a,0,b,c."""
    _emit_matrix(s5_family(a, b, c), out)


@generate.command("flat3")
@click.option("--l3", type=COMPLEX, required=True)
@click.option("--l4", type=COMPLEX, required=True)
@click.option("--l5", type=COMPLEX, required=True)
@click.option("--theta", type=float, required=True, help="direction of the flat edge normal")
@click.option("--mu", type=float, required=True, help="support offset of the flat edge")
@click.option("--phase-a", type=float, default=0.0, show_default=True)
@click.option("--phase-b", type=float, default=0.0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def gen_flat3(l3, l4, l5, theta, mu, phase_a, phase_b, out):
    """3x3 matrix whose curve has a flat boundary portion at direction theta."""
    _emit_matrix(flat_3x3(l3, l4, l5, theta, mu, phase_a=phase_a, phase_b=phase_b), out)


@generate.command("pi")
@click.option("--n", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--ker", type=click.IntRange(min=0), required=True, help="kernel dimension")
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def gen_pi(n, ker, seed, out):
    """Haar-random n x n partial isometry with the given kernel dimension."""
    _emit_matrix(random_partial_isometry(n, ker, seed), out)


@generate.command("ker2")
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--distinct-top", is_flag=True, help="draw the repeated eigenvalue independently")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def gen_ker2(seed, distinct_top, out):
    """Random 5x5 partial isometry with two-dimensional kernel, in block form."""
    _emit_matrix(ker2_family(seed, distinct_top=distinct_top), out)


@generate.command("jordan")
@click.option("--n", type=click.IntRange(min=2), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def gen_jordan(n, out):
    """The n x n nilpotent Jordan block (shift)."""
    _emit_matrix(jordan_shift(n), out)


@main.command()
@click.option("--trials", "n_trials", type=click.IntRange(min=1), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--ker-dims", default=",".join(map(str, CampaignConfig.ker_dims)), show_default=True,
              help="comma-separated kernel dimensions to draw from")
@click.option("--structured/--no-structured", "include_structured", default=CampaignConfig.include_structured,
              show_default=True, help="interleave the fixed witness matrices")
@click.option("--tol-disc", default=CampaignConfig.tol_disc, show_default=True)
@click.option("--tol-center", default=CampaignConfig.tol_center, show_default=True)
@click.option("--samples", default=CampaignConfig.samples, type=click.IntRange(min=MIN_DISC_SAMPLES), show_default=True)
@click.option("--classify/--no-classify", "classify", default=CampaignConfig.classify, show_default=True)
@click.option("--runs-dir", type=click.Path(file_okay=False), default=None, help="defaults to $KIPP_RUNS_DIR or ./runs")
@_guard
def campaign(ker_dims, runs_dir, **fields):
    """Random search for circularity violations; persists one run directory."""
    try:
        dims = tuple(int(tok) for tok in ker_dims.split(",") if tok.strip() != "")
    except ValueError:
        raise click.UsageError(f"--ker-dims must be comma-separated integers, got {ker_dims!r}")
    if not dims:
        raise click.UsageError(f"--ker-dims names no kernel dimension, got {ker_dims!r}")
    if any(d < 0 or d > 5 for d in dims):
        raise click.UsageError("--ker-dims entries must lie in 0..5")
    config = CampaignConfig(ker_dims=dims, **fields)
    run_dir, _records, summary = run_campaign(config, root=runs_dir)
    # the summary's fields but the tolerances, which config.json holds, and the counts under short names
    payload = formats.camel_fields(summary)
    del payload["tolDisc"], payload["tolCenter"]
    payload.update(runDir=str(run_dir), trials=payload.pop("nTrials"),
                   circular=payload.pop("nCircular"), structured=payload.pop("nStructured"))
    _write_json(payload, None)
    if not summary.passed:
        sys.exit(EXIT_VIOLATION)


@main.command()
@click.option("--count", default=50, show_default=True, type=click.IntRange(min=1), help="random matrices per oracle suite")
@click.option("--seed", type=click.IntRange(min=0), default=1234, show_default=True)
@_guard
def identities(count, seed):
    """Cross-check the eigenvalue-sweep and closed-form routes plus the family identities."""
    oracle = oracle_identity_suite(count, seed)
    oracle_big = oracle_identity_suite(max(count // 5, 5), seed + 1, scale=1e3)
    s5 = s5_identity_check()
    k2 = ker2_identity_check(max(count // 2, 10), seed + 2)
    oracle_keys = ("count", "scale", "max_relative", "passed")
    payload = {
        "oracle": formats.camel_fields(oracle, *oracle_keys),
        "oracleLargeScale": formats.camel_fields(oracle_big, *oracle_keys),
        "s5": formats.camel_fields(s5, "max_d_modulus", "scan_zero_residual", "min_scan_margin",
                                   "partial_isometry_at_zero", "passed"),
        "ker2": formats.camel_fields(k2),
    }
    _write_json(payload, None)
    if not (oracle.passed and oracle_big.passed and s5.passed and k2.passed):
        sys.exit(EXIT_VIOLATION)


if __name__ == "__main__":
    main()

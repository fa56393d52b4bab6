"""Kippenhahn polynomials of partial isometries and circular-range search tools.

The package computes the Kippenhahn polynomial of a matrix two independent
ways (an eigenvalue sweep of the pencil cos(t) H + sin(t) K and, for
upper-triangular 5x5 input, a closed-form expansion), classifies the resulting quintic curve into point,
ellipse, and flat-cubic components, evaluates the coefficient identities
behind those factorizations, and runs randomized searches for partial
isometries whose numerical range is a non-centered disc.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BadDims,
    ConvergenceFailure,
    IllConditionedInterpolation,
    InfeasibleMu,
    KippError,
    NegativeMinorAxisSquared,
    NotDim5,
    NotUpperTriangular,
    ParameterOutOfDisc,
)
from .linalg import (
    DEFAULT_TOL,
    SchurForm,
    as_matrix,
    hermitian_parts,
    schur_triangularize,
)
from .homopoly import HomoPoly3, max_abs_coeff, max_coeff_diff
from .kippenhahn import (
    boundary_polyline,
    curve_points,
    kipp_poly_det,
    kipp_poly_expanded,
)
from .classify import (
    ConditionReport,
    ConditionRow,
    Curve,
    DiscFit,
    EllipseComponent,
    FlatQuarticComponent,
    PointComponent,
    UnclassifiedComponent,
    classify_curve,
    detect_flat,
    disc_verdict,
    entry_condition_rhs,
    fit_disc,
    fit_ellipse_factor,
    flat_report,
    matched_reports,
    two_ellipse_report,
)
from .generators import (
    flat_3x3,
    haar_unitary,
    jordan_shift,
    ker2_family,
    random_partial_isometry,
    s5_family,
    two_ellipse_block,
)
from .harness import (
    CampaignConfig,
    CampaignSummary,
    Ker2IdentityReport,
    OracleSuiteReport,
    S5IdentityReport,
    TrialRecord,
    conjecture_campaign,
    ker2_identity_check,
    oracle_identity_suite,
    run_campaign,
    s5_identity_check,
)
from .svgplot import render_svg

__version__ = "0.1.0"

# every public name bound above but the submodules, in import order
__all__ = [name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))]

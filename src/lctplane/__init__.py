"""Exact log canonical thresholds of reduced plane curves.

Four paths to the lct of a curve germ, all in exact rational
arithmetic:

* a closed-form fast path at points of multiplicity d-1 on degree-d
  curves (``analyze_high_mult``),
* the Newton polygon in adapted coordinates, reached by a few changes
  y -> y + c x^m with rational c, with no blowup (``newton_lct``),
* an embedded-resolution oracle via iterated point blowups
  (``resolve_over_origin`` / ``lct_from_tree``),
* a complete classifier and table lookup for curves of degree at most 5
  (``classify_singularity``), which matches the oracle's blowup ledger
  against each table row's.

``lct`` has three routes: off the curve or smooth, then the closed form,
then the Newton polygon for every other germ at the origin (the
``lctplane lct`` command calls it), at any degree.  The oracle answers
``resolve`` and the classifier names a germ's type (the ``classify``
command); both stay independent references for ``lct``.
"""

from .classify import (
    SingularityClass,
    all_symbols,
    allowed_types,
    class_info,
    classify_singularity,
    sample_normal_form,
    table1_values,
)
from .dispatch import LctResult, lct
from .errors import LctError
from .extended import INF, NEG_INF
from .highmult import (
    HighMultAnalysis,
    analyze_high_mult,
    construct_witness,
    lambda_set,
    reducibility_hint,
)
from .localinv import (
    intersection_multiplicity_origin,
    is_square_free,
    milnor_number_origin,
    newton_lct,
    tangent_cone_pattern,
    weighted_lct_upper_bound,
)
from .parse import parse_poly
from .poly import BPoly, gcd_bivariate
from .resolution import (
    ResolutionTree,
    export_tree,
    lct_from_tree,
    log_pullback_coefficients,
    resolve_over_origin,
)

__version__ = "0.1.0"

__all__ = [
    "BPoly",
    "HighMultAnalysis",
    "INF",
    "LctError",
    "LctResult",
    "NEG_INF",
    "ResolutionTree",
    "SingularityClass",
    "all_symbols",
    "allowed_types",
    "analyze_high_mult",
    "class_info",
    "classify_singularity",
    "construct_witness",
    "export_tree",
    "gcd_bivariate",
    "intersection_multiplicity_origin",
    "is_square_free",
    "lambda_set",
    "lct",
    "lct_from_tree",
    "log_pullback_coefficients",
    "milnor_number_origin",
    "newton_lct",
    "parse_poly",
    "reducibility_hint",
    "resolve_over_origin",
    "sample_normal_form",
    "table1_values",
    "tangent_cone_pattern",
    "weighted_lct_upper_bound",
]

"""Exact certification of minimality, Willmore, Einstein and spectral
properties of submanifold points given by their shape operators."""

__version__ = "0.1.0"

from .catalog import (
    BUILTIN_NAMES,
    DatasetFormatError,
    ShapeOperatorSet,
    builtin,
    parse_dataset,
    serialize_dataset,
)
from .curvature import (
    CurvatureReport,
    NotMinimalError,
    WillmoreReport,
    curvature_report,
    einstein_check,
    minimality_check,
    ricci,
    riemann,
    riemann_suite,
    square_norm,
    willmore_check,
)
from .exactnum import QuadExt, Rational, ScalarParseError, format_scalar, parse_scalar
from .linalg import DimensionError, Matrix, UniPoly
from .polyring import MultiPoly, eval_float, reduce_mod_sphere
from .sweep import SweepVerdict, numeric_sweep, symbolic_sweep
from .tracealg import (
    ProofReport,
    TraceExpr,
    TraceParseError,
    canonicalize_cyclic,
    g4_relations,
    parse_trace_expr,
    reduce_goal,
    reduce_goal_with_steps,
    verify_g4,
)

__all__ = [
    "__version__",
    "BUILTIN_NAMES",
    "CurvatureReport",
    "DatasetFormatError",
    "DimensionError",
    "Matrix",
    "MultiPoly",
    "NotMinimalError",
    "ProofReport",
    "QuadExt",
    "Rational",
    "ScalarParseError",
    "ShapeOperatorSet",
    "SweepVerdict",
    "TraceExpr",
    "TraceParseError",
    "UniPoly",
    "WillmoreReport",
    "builtin",
    "canonicalize_cyclic",
    "curvature_report",
    "einstein_check",
    "eval_float",
    "format_scalar",
    "g4_relations",
    "minimality_check",
    "numeric_sweep",
    "parse_dataset",
    "parse_scalar",
    "parse_trace_expr",
    "reduce_goal",
    "reduce_goal_with_steps",
    "reduce_mod_sphere",
    "ricci",
    "riemann",
    "riemann_suite",
    "serialize_dataset",
    "square_norm",
    "symbolic_sweep",
    "verify_g4",
    "willmore_check",
]

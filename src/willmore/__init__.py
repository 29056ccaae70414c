"""Exact certification of minimality, Willmore, Einstein and spectral
properties of submanifold points given by their shape operators."""

import importlib

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
    WillmoreReport,
    curvature_report,
    einstein_check,
    riemann,
    riemann_suite,
)
from .exactnum import QuadExt, ScalarParseError, format_scalar, parse_scalar
from .linalg import DimensionError, Matrix, UniPoly
from .sweep import SweepVerdict, numeric_sweep, symbolic_sweep
from .tracealg import (
    ProofReport,
    TraceExpr,
    TraceParseError,
    canonicalize_cyclic,
    g4_relations,
    parse_trace_expr,
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
    "numeric_sweep",
    "parse_dataset",
    "parse_scalar",
    "parse_trace_expr",
    "reduce_goal_with_steps",
    "reduce_mod_sphere",
    "riemann",
    "riemann_suite",
    "serialize_dataset",
    "symbolic_sweep",
    "verify_g4",
]

# Names whose modules no command needs, each imported on first access:
# `polyring` serves a FAIL's witness and the tests, and `Rational` is
# fractions.Fraction, which no command reads.
_LAZY = {"MultiPoly": "polyring", "eval_float": "polyring", "reduce_mod_sphere": "polyring", "Rational": "exactnum"}


def __getattr__(name: str):
    if name == "polyring":
        return importlib.import_module(".polyring", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, "polyring"})

"""Pointwise curvature of a minimal submanifold of the unit sphere.

Everything here works on a single-point ShapeOperatorSet.  The intrinsic
curvature tensor is assembled from the ambient curvature 1 plus quadratic
terms in the second fundamental form; contracting once gives the Ricci
tensor, which for minimal data equals (n-1)*I minus the sum of squared shape
operators.  The Willmore criterion for minimal data with constant squared
second-fundamental-form norm is that Tr((sum_b A_b^2) A_a) vanishes for every
normal direction a; constancy of the norm is an assumption carried by the
datasets (single points of homogeneous spaces), not something checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import ShapeOperatorSet
from .exactnum import ONE, QuadExt
from .linalg import Matrix


class NotMinimalError(ValueError):
    pass


def minimality_check(data: ShapeOperatorSet) -> bool:
    """True iff every shape operator is exactly trace-free."""
    return all(not op.trace() for op in data.operators)


def squared_operator_sum(data: ShapeOperatorSet) -> Matrix:
    """sum_a A_a^2, the matrix whose trace is the squared norm of the second form."""
    acc = data.operators[0] @ data.operators[0]
    for op in data.operators[1:]:
        acc = acc + op @ op
    return acc


def square_norm(data: ShapeOperatorSet) -> QuadExt:
    """Squared norm of the second fundamental form: sum_a Tr(A_a^2)."""
    return squared_operator_sum(data).trace()


def ricci(data: ShapeOperatorSet) -> Matrix:
    """Ricci tensor (n-1)*I - sum_a A_a^2; requires minimal data."""
    if not minimality_check(data):
        raise NotMinimalError(f"{data.name}: shape operators are not trace-free")
    return _ricci(data.n, squared_operator_sum(data))


def _ricci(n: int, squared: Matrix) -> Matrix:
    return Matrix.identity(n, ONE) * QuadExt(n - 1) - squared


def riemann(data: ShapeOperatorSet, i: int, j: int, k: int, l: int) -> QuadExt:
    """Curvature component R_ijkl in the orthonormal frame (0-based indices)."""
    n = data.n
    for index in (i, j, k, l):
        if not 0 <= index < n:
            raise IndexError(f"index {index} out of range for dimension {n}")
    value = QuadExt(int(i == k and j == l) - int(i == l and j == k))
    for op in data.operators:
        value = value + op[i, k] * op[j, l] - op[i, l] * op[j, k]
    return value


@dataclass(frozen=True)
class WillmoreReport:
    """Both forms of the Willmore traces, plus their exact cross-check."""

    willmore: bool
    cubic_traces: tuple[QuadExt, ...]   # Tr((sum_b A_b^2) A_a) per normal direction
    ricci_traces: tuple[QuadExt, ...]   # Tr(Ric A_a) = sum_ij R_ij h_ij^a
    consistent: bool                    # Tr(Ric A_a) == (n-1) Tr A_a - cubic trace

    @property
    def willmore_ricci_form(self) -> bool:
        return all(not t for t in self.ricci_traces)


def willmore_check(data: ShapeOperatorSet) -> WillmoreReport:
    """Willmore criterion for minimal data (squared norm assumed constant)."""
    if not minimality_check(data):
        raise NotMinimalError(f"{data.name}: Willmore criterion needs minimal data")
    squared = squared_operator_sum(data)
    return _willmore(data, squared, _ricci(data.n, squared))


def _willmore(data: ShapeOperatorSet, squared: Matrix, ric: Matrix) -> WillmoreReport:
    """willmore_check from the precomputed sum_a A_a^2 and Ricci tensor."""
    cubic = tuple((squared @ op).trace() for op in data.operators)
    ricci_form = tuple((ric @ op).trace() for op in data.operators)
    edge = QuadExt(data.n - 1)
    consistent = all(
        rt == edge * op.trace() - ct
        for rt, ct, op in zip(ricci_form, cubic, data.operators)
    )
    return WillmoreReport(all(not t for t in cubic), cubic, ricci_form, consistent)


def einstein_check(ric: Matrix) -> QuadExt | None:
    """The constant c with Ric = c*I exactly, or None."""
    n = ric.nrows
    c = ric[0, 0]
    for i in range(n):
        for j in range(n):
            entry = ric[i, j]
            if i == j:
                if entry != c:
                    return None
            elif entry:
                return None
    return c


@dataclass(frozen=True)
class CurvatureReport:
    """One dataset's full pointwise verification record."""

    minimal: bool
    square_norm: QuadExt
    ricci: Matrix | None
    einstein: QuadExt | None
    willmore: WillmoreReport | None

    @property
    def verified(self) -> bool:
        return (
            self.minimal
            and self.willmore is not None
            and self.willmore.willmore
            and self.willmore.willmore_ricci_form
            and self.willmore.consistent
        )


def curvature_report(data: ShapeOperatorSet) -> CurvatureReport:
    """Every pointwise quantity, with sum_a A_a^2 and Ric computed once."""
    squared = squared_operator_sum(data)
    norm = squared.trace()
    if not minimality_check(data):
        return CurvatureReport(False, norm, None, None, None)
    ric = _ricci(data.n, squared)
    return CurvatureReport(True, norm, ric, einstein_check(ric), _willmore(data, squared, ric))

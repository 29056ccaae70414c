"""Pointwise curvature of a minimal submanifold of the unit sphere.

Everything here works on a single-point ShapeOperatorSet.  The intrinsic
curvature tensor is assembled from the ambient curvature 1 plus quadratic
terms in the second fundamental form; contracting once gives the Ricci
tensor, which for minimal data equals (n-1)*I minus the sum of squared shape
operators.  The Willmore criterion for minimal data with constant squared
second-fundamental-form norm is that Tr((sum_b A_b^2) A_a) vanishes for every
normal direction a; constancy of the norm is an assumption carried by the
datasets (single points of homogeneous spaces), not something checked here.

`curvature_report` computes everything a certificate prints in one pass on
integer pairs (see `linalg.integer_rows`), and `riemann_suite` checks the
curvature tensor on the same integer pairs.  The functions
`squared_operator_sum`, `ricci`, `riemann` and `willmore_check`, on `Matrix`
products and QuadExt sums, are the reference the tests hold both to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import ShapeOperatorSet
from .exactnum import ONE, QuadExt
from .linalg import Matrix, Row, integer_rows


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
    ric = _ricci(data.n, squared)
    cubic = tuple((squared @ op).trace() for op in data.operators)
    ricci_form = tuple((ric @ op).trace() for op in data.operators)
    return _willmore(data, cubic, ricci_form)


def _willmore(
    data: ShapeOperatorSet, cubic: tuple[QuadExt, ...], ricci_form: tuple[QuadExt, ...]
) -> WillmoreReport:
    """The report on the traces Tr((sum_b A_b^2) A_a) and Tr(Ric A_a)."""
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


# A dense n x n matrix of integer pairs as (x rows, y rows): its entry (i, j)
# is (x[i][j] + y[i][j]*sqrt3) / D^2, D the operators' common denominator.
Pairs = tuple[list[list[int]], list[list[int]]]


def curvature_report(data: ShapeOperatorSet) -> CurvatureReport:
    """Every pointwise quantity a certificate prints, in one pass.

    The operators are read once as sparse integer pairs over a common
    denominator D.  sum_a A_a^2 and Ric are kept over D^2 and the traces
    Tr(M A_a) over D^3; only the values the certificate prints become
    QuadExt.
    """
    n = data.n
    ops, den = integer_rows(data.operators)
    den2 = den * den
    sx, sy = _squared_sum(ops, n)
    norm = QuadExt._make(sum(sx[i][i] for i in range(n)), sum(sy[i][i] for i in range(n)), den2)
    if not minimality_check(data):
        return CurvatureReport(False, norm, None, None, None)
    rx = [[-v for v in row] for row in sx]
    ry = [[-v for v in row] for row in sy]
    for i in range(n):
        rx[i][i] += (n - 1) * den2
    ric = _matrix((rx, ry), den2)
    den3 = den2 * den
    cubic = tuple(QuadExt._make(*_trace_product((sx, sy), rows), den3) for rows in ops)
    ricci_form = tuple(QuadExt._make(*_trace_product((rx, ry), rows), den3) for rows in ops)
    return CurvatureReport(True, norm, ric, einstein_check(ric), _willmore(data, cubic, ricci_form))


def riemann_suite(data: ShapeOperatorSet, ric: Matrix) -> tuple[dict[str, bool], int]:
    """Curvature-tensor checks by name, and the number of sampled quadruples.

    Antisymmetry, pair symmetry and the first Bianchi identity are checked
    on every quadruple of the indices 0, s, 2s, ... < n, with the stride
    s = 1 for n <= 6 and ceil(n / 6) beyond; the full contraction
    sum_k R_ikjk is compared with `ric`.  Every component comes from the
    Gauss formula on the operators' integer pairs over D^2, which is exact.
    """
    n = data.n
    ops, den = integer_rows(data.operators)
    den2 = den * den
    stride = 1 if n <= 6 else (n + 5) // 6
    table = _riemann_table(ops, den2, range(0, n, stride))
    checks = {
        "antisymmetry": all(
            table[j, i, k, l] == (-x, -y) and table[i, j, l, k] == (-x, -y)
            for (i, j, k, l), (x, y) in table.items()
        ),
        "pair_symmetry": all(table[k, l, i, j] == value for (i, j, k, l), value in table.items()),
        "bianchi": all(
            not any(map(sum, zip(value, table[i, k, l, j], table[i, l, j, k])))
            for (i, j, k, l), value in table.items()
        ),
        "contraction": _matrix(_ricci_contraction(ops, den2, n), den2) == ric,
    }
    return checks, len(table)


def _matrix(m: Pairs, den: int) -> Matrix:
    """The QuadExt matrix of integer pairs over `den`."""
    return Matrix(tuple(map(QuadExt._make, xs, ys, [den] * len(xs))) for xs, ys in zip(*m))


def _squared_sum(ops: list[list[Row]], n: int) -> Pairs:
    """sum_a A_a^2 over D^2 from the nonzero entries of each row only.  The
    sum is symmetric, so only its lower triangle is accumulated (rows are
    sorted by column), then mirrored."""
    accx = [[0] * n for _ in range(n)]
    accy = [[0] * n for _ in range(n)]
    for rows in ops:
        for i, (row, rx, ry) in enumerate(zip(rows, accx, accy)):
            for j, ax, ay in row:
                ay3 = 3 * ay
                for l, bx, by in rows[j]:
                    if l > i:
                        break
                    rx[l] += ax * bx + ay3 * by
                    ry[l] += ax * by + ay * bx
    for i in range(n):
        for l in range(i):
            accx[l][i] = accx[i][l]
            accy[l][i] = accy[i][l]
    return accx, accy


def _trace_product(m: Pairs, rows: list[Row]) -> tuple[int, int]:
    """Tr(M A) = sum_ij M_ij A_ij for a symmetric A, over the nonzero A_ij."""
    tx = ty = 0
    for row, row_x, row_y in zip(rows, *m):
        for j, ax, ay in row:
            x, y = row_x[j], row_y[j]
            tx += x * ax + 3 * y * ay
            ty += x * ay + y * ax
    return tx, ty


def _riemann_table(
    ops: list[list[Row]], den2: int, indices: range
) -> dict[tuple[int, int, int, int], tuple[int, int]]:
    """R_ijkl over D^2 for every quadruple of `indices`, each from the Gauss
    formula delta_ik delta_jl - delta_il delta_jk + sum_a (A_ik A_jl - A_il A_jk)
    on the operator entries; a product with a zero factor is skipped."""
    p = len(ops)
    picked = set(indices)
    # entries[i, k]: (A_a)_ik as (x, y) for every a, where one of them is nonzero
    entries: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, rows in enumerate(ops):
        for i in indices:
            for k, x, y in rows[i]:
                if k in picked:
                    entries.setdefault((i, k), [(0, 0)] * p)[a] = (x, y)
    table = {}
    for i in indices:
        for j in indices:
            for k in indices:
                ik = entries.get((i, k))
                jk = entries.get((j, k))
                for l in indices:
                    x = den2 * ((i == k and j == l) - (i == l and j == k))
                    y = 0
                    jl = entries.get((j, l))
                    if ik and jl:
                        for (ax, ay), (bx, by) in zip(ik, jl):
                            x += ax * bx + 3 * ay * by
                            y += ax * by + ay * bx
                    il = entries.get((i, l))
                    if il and jk:
                        for (ax, ay), (bx, by) in zip(il, jk):
                            x -= ax * bx + 3 * ay * by
                            y -= ax * by + ay * bx
                    table[i, j, k, l] = (x, y)
    return table


def _ricci_contraction(ops: list[list[Row]], den2: int, n: int) -> Pairs:
    """sum_k R_ikjk over D^2 for every (i, j), as the sum of its components.

    Each component delta_ij delta_kk - delta_ik delta_kj + sum_a (A_ij A_kk -
    A_ik A_kj) contributes every product of two nonzero operator entries; the
    products with a zero factor are skipped, and the delta parts over k add
    up to (n - 1) delta_ij.  Nothing here reads sum_a A_a^2.
    """
    cx = [[0] * n for _ in range(n)]
    cy = [[0] * n for _ in range(n)]
    for i in range(n):
        cx[i][i] = (n - 1) * den2
    for rows in ops:
        diagonal = [(x, y) for k, row in enumerate(rows) for l, x, y in row if l == k]
        for row, rx, ry in zip(rows, cx, cy):
            for j, ax, ay in row:  # + A_ij A_kk
                for dx, dy in diagonal:
                    rx[j] += ax * dx + 3 * ay * dy
                    ry[j] += ax * dy + ay * dx
            for k, ax, ay in row:  # - A_ik A_kj
                ay3 = 3 * ay
                for j, bx, by in rows[k]:
                    rx[j] -= ax * bx + ay3 * by
                    ry[j] -= ax * by + ay * bx
    return cx, cy

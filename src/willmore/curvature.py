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
the integer pairs the dataset holds (`ShapeOperatorSet.integer_form`), each
operator's trace once.
`riemann_suite` checks the curvature tensor on the same pairs: one Gram
table of the sampled index pairs gives every sampled component as one int
packing its two parts, and each symmetry compares that table with a permuted
gather of itself; the contraction is summed, unpacked, from the operators.
The component function `riemann`, on QuadExt sums, is the reference the tests
hold the table to, and `tests/certificate_check.py`, a checker that shares no
code with this package, every certificate.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, product
from operator import add, itemgetter, mul, neg, sub

from ._record import Record
from .catalog import ShapeOperatorSet
from .exactnum import QuadExt
from .linalg import Matrix, Row, lower_pair_products, lower_triangle, symmetric_index


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


class WillmoreReport(Record):
    """Both forms of the Willmore traces, plus their exact cross-check."""

    def __init__(
        self,
        willmore: bool,
        cubic_traces: tuple[QuadExt, ...],  # Tr((sum_b A_b^2) A_a) per normal direction
        ricci_traces: tuple[QuadExt, ...],  # Tr(Ric A_a) = sum_ij R_ij h_ij^a
        consistent: bool,                   # Tr(Ric A_a) == (n-1) Tr A_a - cubic trace
    ) -> None:
        self._set(willmore, cubic_traces, ricci_traces, consistent)

    @property
    def willmore_ricci_form(self) -> bool:
        return all(not t for t in self.ricci_traces)


def _willmore(
    n: int, traces: tuple[QuadExt, ...], cubic: tuple[QuadExt, ...], ricci_form: tuple[QuadExt, ...]
) -> WillmoreReport:
    """The report on the traces Tr((sum_b A_b^2) A_a) and Tr(Ric A_a), checked
    against the operators' traces Tr A_a."""
    edge = QuadExt(n - 1)
    consistent = all(rt == edge * t - ct for rt, ct, t in zip(ricci_form, cubic, traces))
    return WillmoreReport(all(not t for t in cubic), cubic, ricci_form, consistent)


def einstein_check(ric: Matrix) -> QuadExt | None:
    """The constant c with Ric = c*I exactly, or None."""
    return ric[0, 0] if einstein_violation(ric) is None else None


def einstein_violation(ric: Matrix) -> tuple[int, int] | None:
    """The first entry (i, j) of `ric` that Ric = c*I rules out, or None: the
    first nonzero off-diagonal entry in row order, else the first diagonal
    entry that differs from (0, 0)."""
    for i, row in enumerate(ric.rows):
        for j, entry in enumerate(row):
            if entry and i != j:
                return i, j
    c = ric[0, 0]
    for i in range(1, ric.nrows):
        if ric[i, i] != c:
            return i, i
    return None


class CurvatureReport(Record):
    """One dataset's full pointwise verification record."""

    def __init__(
        self,
        minimal: bool,
        traces: tuple[QuadExt, ...],    # Tr A_a per normal direction
        square_norm: QuadExt,
        ricci: Matrix | None,
        einstein: QuadExt | None,
        willmore: WillmoreReport | None,
    ) -> None:
        self._set(minimal, traces, square_norm, ricci, einstein, willmore)

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

    The operators are read as the dataset's sparse integer pairs over a
    common denominator D.  sum_a A_a^2 and Ric are kept over D^2 and the traces
    Tr(M A_a) over D^3; only the values the certificate prints become
    QuadExt.  Each operator's trace is taken once, from its diagonal pairs.
    """
    n = data.n
    ops, den = data.integer_form
    den2 = den * den
    traces = tuple(QuadExt._make(*_diagonal(rows), den) for rows in ops)
    sx, sy = _squared_sum(ops, n)
    norm = QuadExt._make(sum(sx[i][i] for i in range(n)), sum(sy[i][i] for i in range(n)), den2)
    if any(traces):
        return CurvatureReport(False, traces, norm, None, None, None)
    rx = [[-v for v in row] for row in sx]
    ry = [[-v for v in row] for row in sy]
    for i in range(n):
        rx[i][i] += (n - 1) * den2
    ric = Matrix(tuple(map(QuadExt._make, xs, ys, [den2] * n)) for xs, ys in zip(rx, ry))
    den3 = den2 * den
    cubic = tuple(QuadExt._make(*_trace_product((sx, sy), rows), den3) for rows in ops)
    ricci_form = tuple(QuadExt._make(*_trace_product((rx, ry), rows), den3) for rows in ops)
    return CurvatureReport(True, traces, norm, ric, einstein_check(ric), _willmore(n, traces, cubic, ricci_form))


def riemann_suite(data: ShapeOperatorSet, ric: Matrix) -> tuple[dict[str, bool], int]:
    """Curvature-tensor checks by name, and the number of sampled quadruples.

    R_ijkl is tabled exactly for every quadruple of the indices 0, s, 2s,
    ... < n, with the stride s = 1 for n <= 6 and ceil(n / 6) beyond (see
    `_gram_table`).  Antisymmetry, pair symmetry and the first Bianchi
    identity compare the table with permuted gathers of itself: R_jikl and
    R_ijlk, R_klij, and R_iklj + R_iljk.  The full contraction sum_k R_ikjk
    is compared with `ric`.
    """
    n = data.n
    ops, den = data.integer_form
    indices = range(0, n, 1 if n <= 6 else (n + 5) // 6)
    den2 = den * den
    table, _ = _gram_table(ops, den, indices)
    jikl, ijlk, klij, iklj, iljk = _layout(len(indices))[2:]
    negated = tuple(map(neg, table))
    checks = {
        "antisymmetry": jikl(table) == negated == ijlk(table),
        "pair_symmetry": klij(table) == table,
        "bianchi": tuple(map(add, iklj(table), iljk(table))) == negated,
        "contraction": all(
            e.x * den2 == x * e.d and e.y * den2 == y * e.d
            for row, *pairs in zip(ric.rows, *_ricci_contraction(ops, den2, n))
            for e, x, y in zip(row, *pairs)
        ),
    }
    return checks, len(table)


def _diagonal(rows: tuple[Row, ...]) -> tuple[int, int]:
    """Tr A over D as (x, y), the sum of the diagonal pairs of A's sparse rows."""
    tx = ty = 0
    for i, row in enumerate(rows):
        for j, x, y in row:
            if j == i:
                tx, ty = tx + x, ty + y
    return tx, ty


def _squared_sum(ops: tuple[tuple[Row, ...], ...], n: int) -> Pairs:
    """sum_a A_a^2 over D^2 by the packed pair product: its lower triangle,
    mirrored."""
    lowers = {a: lower_triangle(rows, n) for a, rows in enumerate(ops)}
    [lower], _ = lower_pair_products(ops, lowers, [[(a, a) for a in lowers]], n)
    return tuple(map(symmetric_index(n).expand, lower))


def _trace_product(m: Pairs, rows: tuple[Row, ...]) -> tuple[int, int]:
    """Tr(M A) = sum_ij M_ij A_ij for a symmetric A, over the nonzero A_ij."""
    tx = ty = 0
    for row, row_x, row_y in zip(rows, *m):
        for j, ax, ay in row:
            x, y = row_x[j], row_y[j]
            tx += x * ax + 3 * y * ay
            ty += x * ay + y * ax
    return tx, ty


def _gram_table(ops: tuple[tuple[Row, ...], ...], den: int, indices: range) -> tuple[tuple[int, ...], int]:
    """R_ijkl over D^2 for the quadruples of `indices` in row-major order, each one
    int x + y 2^v, and v.  By the Gauss formula R_ijkl = G(ik, jl) - G(il, jk),
    G(u, w) = sum_a (A_a)_u (A_a)_w over the A_a and the identity, whose products are
    the sphere's delta_ik delta_jl - delta_il delta_jk; G is formed once for each
    unordered pair of unordered pairs of `indices`, the operators being symmetric.

    G(u, w) is one dot product, as in `sweep._block_char_poly`: of the x, y of each
    (A_a)_u with the P = x + y 2^v, Q = 3 y + x 2^v of each (A_a)_w, x P + y Q being
    x x' + 3 y y' + (x y' + y x') 2^v.  With T the largest |x| or |y|, den included,
    the x part of a G is at most 4 (p + 1) T^2, of an R 8 (p + 1) T^2 and of a sum
    of two R, as the Bianchi check forms, 16 (p + 1) T^2 < 2^(v-1).  If X + Y 2^v =
    X' + Y' 2^v with |X|, |X'| < 2^(v-1), then |Y' - Y| 2^v = |X - X'| < 2^v, so
    Y = Y' and X = X': the checks compare packed ints as they would the parts."""
    rows = [[dict((j, (x, y)) for j, x, y in op[i]) for op in ops] for i in indices]
    lefts = [  # x, y of (A_a)_ik for the unordered pairs {i, k} of `indices`, in their `symmetric_index` order
        [den * (s == t), 0, *chain.from_iterable(entries.get(indices[t], (0, 0)) for entries in rows[s])]
        for s, t in symmetric_index(len(indices)).lower
    ]
    v = (16 * (len(ops) + 1) * max(map(abs, chain.from_iterable(lefts))) ** 2).bit_length() + 1
    rights = [[f for x, y in zip(left[::2], left[1::2]) for f in (x + (y << v), 3 * y + (x << v))] for left in lefts]
    gram = [sum(map(mul, lefts[u], rights[w])) for u, w in symmetric_index(len(lefts)).lower]
    first, second = _layout(len(indices))[:2]
    return tuple(map(sub, first(gram), second(gram))), v


@cache
def _layout(m: int) -> tuple[itemgetter, ...]:
    """Gathers over the m^4 quadruples (i, j, k, l) of m indices in row-major
    order: of G(ik, jl) and G(il, jk) from the Gram table, and of the
    entries jikl, ijlk, klij, iklj and iljk from the Riemann table.  Each
    gives a sequence, at m = 1 the slice of the one entry 0."""
    quads = list(product(range(m), repeat=4))
    pair = symmetric_index(m).places  # the place of each unordered pair {i, k}
    gram = symmetric_index(m * (m + 1) // 2).places  # and of each unordered pair of them in the Gram table

    def gather(order: list[int]) -> itemgetter:
        return itemgetter(*order) if m > 1 else itemgetter(slice(0, 1))

    return (
        gather([gram[pair[i][k]][pair[j][l]] for i, j, k, l in quads]),
        gather([gram[pair[i][l]][pair[j][k]] for i, j, k, l in quads]),
        *(
            gather([((t[a] * m + t[b]) * m + t[c]) * m + t[d] for t in quads])
            for a, b, c, d in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (0, 2, 3, 1), (0, 3, 1, 2))
        ),
    )


def _ricci_contraction(ops: tuple[tuple[Row, ...], ...], den2: int, n: int) -> Pairs:
    """sum_k R_ikjk over D^2 for every (i, j), as the sum of its components.

    Each component delta_ij delta_kk - delta_ik delta_kj + sum_a (A_ij A_kk -
    A_ik A_kj) contributes every product of two nonzero operator entries, with
    sum_k A_ij A_kk = A_ij Tr(A_a); the delta parts over k add up to (n - 1)
    delta_ij.  The sum is symmetric, so only its lower triangle is
    accumulated, then mirrored.  Nothing here reads sum_a A_a^2.
    """
    cx = [[(n - 1) * den2 * (i == j) for j in range(n)] for i in range(n)]
    cy = [[0] * n for _ in range(n)]
    for rows in ops:
        tx, ty = _diagonal(rows)
        for i, (row, rx, ry) in enumerate(zip(rows, cx, cy)):
            for k, ax, ay in row:
                if k <= i:  # + A_ij Tr(A_a) at j = k
                    rx[k] += ax * tx + 3 * ay * ty
                    ry[k] += ax * ty + ay * tx
                ay3 = 3 * ay
                for j, bx, by in rows[k]:  # - A_ik A_kj
                    if j > i:
                        break
                    rx[j] -= ax * bx + ay3 * by
                    ry[j] -= ax * by + ay * bx
    for i in range(n):
        for j in range(i):
            cx[j][i] = cx[i][j]
            cy[j][i] = cy[i][j]
    return cx, cy

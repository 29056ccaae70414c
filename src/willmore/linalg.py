"""Dense exact matrix algebra, generic over the coefficient ring.

Ring contract for entries: they support +, -, * among themselves, tolerate
int operands (so `e * 0` is the ring zero and `e * 0 + 1` the ring one), and
`e / k` is exact division by a nonzero Python int.  QuadExt and MultiPoly
both satisfy it.

The exact kernels of the curvature pass (`curvature.curvature_report`) and
of the normal-sphere sweeps (`sweep.normal_char_poly`) do not multiply
`Matrix` objects: they read the sparse integer-pair rows of `integer_rows`,
which each dataset holds, built once (`ShapeOperatorSet.integer_form`).
`Matrix @` and `Matrix.char_poly` (Faddeev-LeVerrier) are their reference.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .exactnum import format_sum

# A sparse matrix row: (column, x, y) for each nonzero entry (x + y*sqrt3)/D,
# in increasing column order, with the denominator D shared by every row.
Row = Sequence[tuple[int, int, int]]


class DimensionError(ValueError):
    pass


class Matrix:
    """Immutable dense matrix; `A @ B` is the matrix product, `A * s` scales."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]) -> None:
        self.rows = tuple(tuple(row) for row in rows)
        if not self.rows or not self.rows[0]:
            raise DimensionError("matrix must have at least one row and column")
        width = len(self.rows[0])
        if any(len(row) != width for row in self.rows):
            raise DimensionError("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @classmethod
    def filled(cls, nrows: int, ncols: int, value) -> Matrix:
        return cls(((value,) * ncols,) * nrows)

    @classmethod
    def identity(cls, n: int, one) -> Matrix:
        zero = one - one
        return cls(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        )

    @classmethod
    def diagonal(cls, entries: Iterable) -> Matrix:
        entries = tuple(entries)
        zero = entries[0] * 0
        n = len(entries)
        return cls(
            tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n)
        )

    def __getitem__(self, key) -> object:
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"Matrix[{body}]"

    def _same_shape(self, other: Matrix) -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )

    def __sub__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )

    def __neg__(self) -> Matrix:
        return Matrix(tuple(-a for a in row) for row in self.rows)

    def __mul__(self, scalar) -> Matrix:
        if isinstance(scalar, Matrix):
            raise TypeError("use A @ B for the matrix product")
        return Matrix(tuple(a * scalar for a in row) for row in self.rows)

    __rmul__ = __mul__

    def __matmul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionError(
                f"not conformable: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = row[0] * col[0]
                for a, b in zip(row[1:], col[1:]):
                    acc = acc + a * b
                out_row.append(acc)
            out.append(tuple(out_row))
        return Matrix(out)

    def transpose(self) -> Matrix:
        return Matrix(zip(*self.rows))

    def map(self, fn: Callable) -> Matrix:
        return Matrix(tuple(fn(a) for a in row) for row in self.rows)

    def _require_square(self) -> int:
        if self.nrows != self.ncols:
            raise DimensionError(f"not square: {self.nrows}x{self.ncols}")
        return self.nrows

    def trace(self):
        n = self._require_square()
        acc = self.rows[0][0]
        for i in range(1, n):
            acc = acc + self.rows[i][i]
        return acc

    def is_symmetric(self) -> bool:
        self._require_square()
        return self.rows == tuple(zip(*self.rows))

    def char_poly(self) -> UniPoly:
        """Monic det(lambda*I - A) by the Faddeev-LeVerrier recurrence.

        Exact over any commutative Q-algebra: only ring products and
        divisions by the integers 1..n occur.
        """
        n = self._require_square()
        zero = self.rows[0][0] * 0
        one = zero + 1
        ident = Matrix.identity(n, one)
        coeffs = [zero] * (n + 1)
        coeffs[n] = one
        product = Matrix.filled(n, n, zero)  # running A @ M_k
        for k in range(1, n + 1):
            step = product + ident * coeffs[n - k + 1]
            product = self @ step
            coeffs[n - k] = -(product.trace() / k)
        return UniPoly(coeffs)


class UniPoly:
    """Univariate polynomial, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable) -> None:
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"

    def __mul__(self, other: UniPoly) -> UniPoly:
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly(())
        zero = self.coeffs[0] * 0
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    def __divmod__(self, other: UniPoly) -> tuple[UniPoly, UniPoly]:
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        lead = other.coeffs[-1]
        zero = lead * 0
        rem = list(self.coeffs)
        deg_o = other.degree()
        if self.degree() < deg_o:
            return UniPoly(()), self
        quot = [zero] * (self.degree() - deg_o + 1)
        for k in range(self.degree(), deg_o - 1, -1):
            factor = rem[k] / lead
            if not factor:
                continue
            quot[k - deg_o] = factor
            for i, c in enumerate(other.coeffs):
                rem[k - deg_o + i] = rem[k - deg_o + i] - factor * c
        return UniPoly(quot), UniPoly(rem)

    def render(self) -> str:
        """Canonical text in l, highest degree first; coefficients in scalar grammar."""
        return format_sum(
            (self.coeffs[k], "" if k == 0 else "l" if k == 1 else f"l^{k}")
            for k in range(self.degree(), -1, -1)
            if self.coeffs[k]
        )

    __str__ = render


def integer_rows(matrices: Iterable[Matrix]) -> tuple[tuple[tuple[Row, ...], ...], int]:
    """Sparse integer-pair rows of QuadExt matrices over one common denominator.

    Returns (rows of each matrix, D), in tuples: the entry (x + y*sqrt3)/D at
    (i, j) of a matrix is (j, x, y) in its row i; zero entries are left out.
    """
    matrices = tuple(matrices)
    den = math.lcm(*{e.d for m in matrices for row in m.rows for e in row})
    return tuple(
        tuple(tuple((j, e.x * (den // e.d), e.y * (den // e.d)) for j, e in enumerate(row) if e) for row in m.rows)
        for m in matrices
    ), den


def components(rows: Sequence[Iterable[Hashable]]) -> Iterator[list[int]]:
    """Connected components of the rows joined through shared keys, lazily, as
    ascending row indices in the order of their first row: breadth-first over
    one key -> rows index (Pothen & Fan, ACM TOMS 16, 1990) whose entries are
    each visited once, so that each row is iterated twice in all."""
    by_key: dict[Hashable, list[int]] = {}
    for k, row in enumerate(rows):
        for key in row:
            by_key.setdefault(key, []).append(k)
    seen = [False] * len(rows)
    for root in range(len(rows)):
        if seen[root]:
            continue
        seen[root] = True
        block = [root]
        for k in block:  # grows while the loop runs, until the component is closed
            for key in rows[k]:
                for j in by_key.pop(key, ()):
                    if not seen[j]:
                        seen[j] = True
                        block.append(j)
        yield sorted(block)


def lower_pair_products(pairs, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Dense (x rows, y rows) of the lower triangle of the sum of L R over
    the pairs (L, R) of `integer_rows` of n x n matrices.  Entries above the
    diagonal stay 0, for a caller whose sum is symmetric to mirror; each
    product runs over nonzero entries only, and stops at the diagonal because
    rows are sorted by column."""
    accx = [[0] * n for _ in range(n)]
    accy = [[0] * n for _ in range(n)]
    for l_rows, r_rows in pairs:
        for i, (l_row, rx, ry) in enumerate(zip(l_rows, accx, accy)):
            for j, ax, ay in l_row:
                ay3 = 3 * ay
                for l, bx, by in r_rows[j]:
                    if l > i:
                        break
                    rx[l] += ax * bx + ay3 * by
                    ry[l] += ax * by + ay * bx
    return accx, accy

"""Dense exact matrix algebra, generic over the coefficient ring.

Ring contract for entries: +, -, * among themselves, int operands tolerated
(`e * 0` is the ring zero, `e * 0 + 1` the ring one), and `e / k` exact
division by a nonzero Python int; QuadExt and MultiPoly both satisfy it.

The exact kernels of the curvature pass and of the normal-sphere sweeps do
not multiply `Matrix` objects: they read the integer-pair rows of each
dataset (`integer_rows`, `ShapeOperatorSet.integer_form`), pack them by one
codec (`width`) and share one pair product, `lower_pair_products`, every
symmetric matrix a lower triangle in the layout of `symmetric_index`.
`Matrix @` and `Matrix.char_poly` (Faddeev-LeVerrier) are their reference.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import chain, compress, repeat
from operator import add, itemgetter, lshift, mul, xor
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

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

    def __add__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionError(f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")
        return Matrix(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )

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

    def render(self) -> str:
        """Canonical text in l, highest degree first; coefficients in scalar grammar."""
        return format_sum(
            (self.coeffs[k], "" if k == 0 else "l" if k == 1 else f"l^{k}")
            for k in range(self.degree(), -1, -1)
            if self.coeffs[k]
        )

    __str__ = render


def integer_rows(matrices: Iterable[Matrix]) -> tuple[tuple[tuple[Row, ...], ...], int]:
    """Sparse integer-pair rows of QuadExt matrices over one common
    denominator: (rows of each matrix, D), in tuples, the entry (x + y*sqrt3)/D
    at (i, j) of a matrix (j, x, y) in its row i, zero entries left out."""
    matrices = tuple(matrices)
    den = math.lcm(*{e.d for m in matrices for row in m.rows for e in row})
    return tuple(
        tuple(tuple((j, e.x * (den // e.d), e.y * (den // e.d)) for j, e in enumerate(row) if e) for row in m.rows)
        for m in matrices
    ), den


class TriangleLayout(NamedTuple):
    """A symmetric n x n matrix as its lower triangle read by rows."""

    places: tuple[tuple[int, ...], ...]  # the place of each (k, l), row by row
    lower: list[tuple[int, int]]  # the entry (i, l <= i) at each place
    weights: list[int]  # each place's weight in a Frobenius product, 2 off the diagonal
    unit: list[int]  # the identity's triangle
    select: Callable  # a getter of the x then the y digits 0..i of each row i of n rows of 2n digits

    def expand(self, part: Sequence[int]) -> list[list[int]]:
        """The full rows of the symmetric matrix whose triangle is `part`."""
        return [[part[t] for t in row] for row in self.places]


@cache
def symmetric_index(n: int) -> TriangleLayout:
    """The layout of a symmetric n x n matrix, the one place that computes
    where (k, l) sits: at max(k, l) (max(k, l) + 1) / 2 + min(k, l)."""
    lower = [(i, l) for i in range(n) for l in range(i + 1)]
    places = tuple(tuple(max(k, l) * (max(k, l) + 1) // 2 + min(k, l) for l in range(n)) for k in range(n))
    select = itemgetter(*(2 * n * i + n * h + l for h in range(2) for i, l in lower))
    return TriangleLayout(places, lower, [1 if i == l else 2 for i, l in lower], [int(i == l) for i, l in lower], select)


def lower_triangle(rows: Sequence[Row], n: int) -> tuple[list[int], list[int]]:
    """The x and y parts of the entries (i, l <= i) of the integer-pair rows
    of an n x n matrix, each at its place in `symmetric_index`."""
    places, size = symmetric_index(n).places, n * (n + 1) // 2
    xs, ys = [0] * size, [0] * size
    for i, (row, place) in enumerate(zip(rows, places)):
        for l, x, y in row:  # in increasing column order
            if l > i:
                break
            xs[place[l]], ys[place[l]] = x, y
    return xs, ys


def width(bound: int) -> int:
    """The least v with 2^(v-1) > bound: the width of packed digits within +-bound.

    The codec of packed Q(sqrt3) ints (Kronecker substitution): x + y sqrt3 is P =
    x + y 2^v or Q = 3 y + x 2^v (`forms`), so sums of x' P + y' Q pack the parts
    x x' + 3 y y' and x y' + y x' of products as digits; a row packs its n x and n y
    parts as digits of w bits (`pack`), at v = n w.  The lemma: if z = sum_i d_i 2^(v i)
    has |d_i| < 2^(v-1) below its top digit, then z + h, h = 2^(v-1) at each lower
    place, has the unique plain base-2^v digits d_i + h in [0, 2^v), no place carrying.
    So `split` and `unpack` read every digit back exactly: equal packed ints mean equal parts.
    """
    return bound.bit_length() + 1


def forms(xs: Sequence[int], ys: Sequence[int], v: int) -> tuple[Iterator[int], Iterator[int]]:
    """The P = x + y 2^v and the Q = 3 y + x 2^v of the pairs of xs and ys, each lazily."""
    return map(add, xs, map(lshift, ys, repeat(v))), map(add, map(mul, ys, repeat(3)), map(lshift, xs, repeat(v)))


def split(zs: Collection[int], v: int, places: int = 1) -> tuple[list[int], list[int]]:
    """The low v bits of each of zs as `places` balanced digits of w bits, and the rest above them."""
    half = ((1 << v) - 1) // ((1 << v // places) - 1) << v // places - 1  # 2^(w-1) at each place
    rest = [(z + half) >> v for z in zs]
    return [z - (r << v) for z, r in zip(zs, rest)], rest


def pack(parts: Sequence[Sequence[int]], n: int, w: int) -> list[int]:
    """Row k of the symmetric matrix of each `lower_triangle` part in turn as one int, sum_l e_kl 2^(w l)."""
    lower, rows = symmetric_index(n).lower, [0] * (n * len(parts))
    for start, part in zip(range(0, len(rows), n), parts):
        for t in compress(range(len(part)), part):
            k, l = lower[t]
            rows[start + k] += part[t] << w * l
            if k != l:
                rows[start + l] += part[t] << w * k
    return rows


def unpack(rows: Iterable[int], n: int, words: int) -> list[tuple[list[int], list[int]]]:
    """The `lower_triangle` parts (x, y) of each n rows in turn of the packed `rows`, n x then n y
    digits of W = 64 words bits each, by the lemma at `width` in one `to_bytes` pass: a digit plus
    2^(W-1), top bit flipped, is its two's complement, the top word signed; only the triangle is read."""
    select, half = symmetric_index(n).select, ((1 << 128 * words * n) - 1) // ((1 << 64 * words) - 1) << 64 * words - 1
    rows = map(xor, map(add, rows, repeat(half)), repeat(half))
    buf = memoryview(b"".join(map(int.to_bytes, rows, repeat(16 * words * n), repeat("little"))))
    signed, plain, size, out = buf.cast("q"), buf.cast("Q"), 2 * n * n * words, []
    for start in range(0, len(signed), size):
        lower = select(signed[start + words - 1 : start + size : words])
        for w in range(words - 2, -1, -1):
            lower = tuple(map(add, map(lshift, lower, repeat(64)), select(plain[start + w : start + size : words])))
        out.append((list(lower[: len(lower) // 2]), list(lower[len(lower) // 2 :])))
    return out


def pair_product_rows(pairs, n: int) -> list[int]:
    """The packed rows of sum L R over the pairs (L, R's row `forms` (P, Q)): x P_k + y Q_k per (k, x, y) of L."""
    rows = []
    for i in range(n):
        s = 0
        for l_rows, (ps, qs) in pairs:
            for k, x, y in l_rows[i]:  # a zero part multiplies nothing
                if x:
                    s += x * ps[k]
                if y:
                    s += y * qs[k]
        rows.append(s)
    return rows


def lower_pair_products(lefts, rights, targets, n: int, held=None) -> tuple[list, tuple]:
    """The `lower_triangle` of sum L_a R_m over the (a, m) of each target, L_a the integer-pair rows
    `lefts[a]`, R_m the symmetric `lower_triangle` `rights[m]`; and (r, w, the sums' rows P): r the
    lefts' row bound, w words per digit, R_m's rows `pack`ed or `split` from held = (r, w, {m: P})."""
    r = held[0] if held else max((sum(abs(x) + 3 * abs(y) for row in rows for _, x, y in row) for rows in zip(*lefts)), default=0)
    parts = list(chain.from_iterable(rights.values()))
    top = max(map(abs, chain.from_iterable(map(compress, parts, parts))), default=0)
    words = (width(r * top) + 63) // 64  # a digit sums x e + 3 y e' or x e' + y e over a row of L: |.| <= r T
    if held and held[1] == words:
        xs, ys = split([*chain.from_iterable(map(held[2].__getitem__, rights))], 64 * words * n, n)
    else:
        xs, ys = pack(parts[::2], n, 64 * words), pack(parts[1::2], n, 64 * words)
    ps, qs = map(list, forms(xs, ys, 64 * words * n))
    packed = {m: (ps[i : i + n], qs[i : i + n]) for i, m in zip(range(0, len(ps), n), rights)}
    sums = [pair_product_rows([(lefts[a], packed[m]) for a, m in pairs], n) for pairs in targets]
    return unpack(chain.from_iterable(sums), n, words), (r, words, sums)

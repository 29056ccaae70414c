"""The block kernel of `willmore.sweep` as it was before its rows were packed:
`_block_char_poly` with the sparse-row helpers `_product` and `_pack`, and the
pair product `lower_pair_products` that runs one Python step on each pair of
entries, copied unchanged.  It is the reference the packed kernel is held to,
term for term and denominator for denominator."""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, compress, product
from operator import add, mul, or_


def _pair_sum(products) -> list[tuple[int, int, int]]:
    """The terms (m, x, y) of the sum of f * left * right over the (f, left,
    right) of `products`: left and right are lists of terms x + y sqrt3 at the
    packed monomial m, multiplied pair by pair; sums that cancel are dropped."""
    ex, ey = {}, {}
    for f, left, right in products:
        for m, x1, y1 in left:
            x1, y1, y3 = x1 * f, y1 * f, 3 * y1 * f
            for m2, x2, y2 in right:
                ex[m + m2] = ex.get(m + m2, 0) + x1 * x2 + y3 * y2
                ey[m + m2] = ey.get(m + m2, 0) + x1 * y2 + y1 * x2
    return [(m, x, ey[m]) for m, x in ex.items() if x or ey[m]]


def _block_char_poly(ops: list[list[Row]], op_den: int, n: int, base: int) -> list:
    """char_poly of sum_a t_a A_a for the n x n rows `ops` of the symmetric
    A_1..A_p over the denominator op_den, lowest lambda-power first, each as
    ([(m, x, y)], den): (x + y sqrt3) / den at t^e, e the digits of m in base > n.

    Newton's identities on the power sums S_i = Tr(B^i) of B = op_den A(t) in
    integer pairs: E_0 = 1, E_k = sum_i (-1)^(i-1) (k-1)!/(k-i)! E_(k-i) S_i,
    and lambda^(n-k) has the coefficient (-1)^k E_k / (k! op_den^k).  E_k is
    the sum of the k x k principal minors of A(t), so it is zero for k above
    rank A(t) <= rho = rank M, M = [A_1 | ... | A_p], which is rank M M^T, of
    G = sum_a A_a^2, the sum of A^2's coefficients at the t_a^2 (`_psd_rank`):
    the identities stop at k = rho, and lambda^0..lambda^(n-rho-1) stay zero.  Every
    monomial coefficient of A(t)^j is symmetric, so Tr(A^k) is the Frobenius
    product <A^(k//2), A^(k-k//2)>_F and only A^1..A^ceil(rho/2) are formed,
    each A^j = sum_m t^m M_m as {m: sparse rows of M_m} over one denominator
    normalised by a gcd.  Adding two packed monomials builds no tuple.

    `normal_char_poly` calls this once per distinct diagonal block of A(t).
    A FAIL is taken on the product of the blocks' polynomials, never block
    by block: a block's polynomial may vary over the sphere while the
    product does not.  At p = 1 and A = diag(t, -t) the blocks
    give lambda - t and lambda + t, neither constant on the sphere {1, -1},
    yet their product lambda^2 - t^2 is lambda^2 - 1 at both points.
    """
    active = [(rows, base**a) for a, rows in enumerate(ops) if any(rows)]
    weights = [1 if l == i else 2 for i in range(n) for l in range(i + 1)]
    power, den, rank = {unit: rows for rows, unit in active}, op_den, n  # A^1; rho once A^2 is formed
    # packed[j] = (op_den^j / den of A^j, {m: _pack(M_m)}), from A^0 = I
    packed = [(1, {0: _pack([[(i, 1, 0)] for i in range(n)], weights)})]
    for j in range(1, (n + 1) // 2 + 1):
        if j > (rank + 1) // 2:
            break
        if j > 1:
            # the terms of the monomial m' are the (A_a, M_m) with m + e_a = m'
            sources: dict[int, list] = {}
            for (m, rows), (a_rows, unit) in product(power.items(), active):
                sources.setdefault(m + unit, []).append((a_rows, rows))
            power = {m: rows for m, pairs in sources.items() if any(rows := _product(pairs, n))}
            entries = (v for rows in power.values() for row in rows for _, x, y in row for v in (x, y))
            g = math.gcd(den * op_den, *entries)
            power = {m: [[(l, x // g, y // g) for l, x, y in row] for row in rows] for m, rows in power.items()}
            den = den * op_den // g
            rank = _psd_rank([power[2 * unit] for _, unit in active], n) if j == 2 else rank
        packed.append((op_den**j // den, {m: _pack(rows, weights) for m, rows in power.items()}))
    sums, elementary = [None], [[(0, 1, 0)]]  # S_i and E_k as [(m, x, y)]
    for k in range(1, rank + 1):
        (scale, left), (scale_b, right) = packed[k // 2], packed[k - k // 2]
        # for even k both sides are A^(k/2): the pairs (m, m2) and (m2, m) agree
        even = k % 2 == 0
        pairs = combinations_with_replacement(left.items(), 2) if even else product(left.items(), right.items())
        tx, ty = {}, {}
        for (m, (_, (dx, dy, ds))), (m2, ((x, y, s), _)) in pairs:
            w = 2 if even and m != m2 else 1
            xx, yy = w * sum(map(mul, dx, x)), w * sum(map(mul, dy, y))
            tx[m + m2] = tx.get(m + m2, 0) + xx + 3 * yy
            ty[m + m2] = ty.get(m + m2, 0) + w * sum(map(mul, ds, s)) - xx - yy
        sums.append([(m, x * scale * scale_b, ty[m] * scale * scale_b) for m, x in tx.items() if x or ty[m]])
        # E_(k-i) S_i for i = 1..k, with the factors (-1)^(i-1) (k-1)!/(k-i)!
        factors = [(-1) ** i * math.perm(k - 1, i) for i in range(k)]
        elementary.append(_pair_sum(zip(factors, reversed(elementary), sums[1:])))
    # lambda^(n-k) is E_k / ((-1)^k k! op_den^k); lambda^0..lambda^(n-rho-1) are zero
    return [([], 1)] * (n - rank) + [(elementary[k], math.factorial(k) * (-op_den) ** k) for k in range(rank, -1, -1)]


def _psd_rank(mats: list[list[Row]], n: int) -> int:
    """The rank of the sum G of the n x n integer-pair rows `mats`, squares A_a^2
    of symmetric A_a: G is positive semidefinite, and so is each Schur complement
    in its symmetric elimination with diagonal pivots (free of fractions, a row
    divided by its content), whose zero pivots thus have zero rows."""
    xs, ys = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for rows in mats:
        for row, rx, ry in zip(rows, xs, ys):
            for l, x, y in row:
                rx[l], ry[l] = rx[l] + x, ry[l] + y
    rank = 0
    for i, (px, py) in enumerate(zip(xs, ys)):
        a, b, cols = px[i], py[i], range(i + 1, n)
        rank += bool(a or b)
        for rx, ry in zip(xs[i + 1:], ys[i + 1:]):
            c, d = rx[i], ry[i]
            if c or d:  # then a or b: row r becomes (a + b sqrt3) row r - (c + d sqrt3) row i
                x = [a * rx[l] + 3 * (b * ry[l] - d * py[l]) - c * px[l] for l in cols]
                y = [a * ry[l] + b * rx[l] - c * py[l] - d * px[l] for l in cols]
                g = math.gcd(*x, *y) or 1
                rx[i + 1:], ry[i + 1:] = [v // g for v in x], [v // g for v in y]
    return rank


def _pack(rows: list[Row], weights: list[int]) -> tuple:
    """The lower triangle of a symmetric X as (x, y, x + y), plain and with the
    off-diagonal doubled: <X, Y>_F is three dot products of doubled X, plain Y."""
    xs, ys = [0] * len(weights), [0] * len(weights)
    for i, row in enumerate(rows):
        for l, x, y in row:
            if l <= i:
                xs[i * (i + 1) // 2 + l], ys[i * (i + 1) // 2 + l] = x, y
    plain = (xs, ys, list(map(add, xs, ys)))
    return plain, tuple(list(map(mul, v, weights)) for v in plain)


def _product(pairs, n: int) -> list[Row]:
    """Sparse rows of the sum of A_a M_m over the pairs (A_a, M_m): the sum is
    symmetric, so only its lower triangle is accumulated, then mirrored."""
    accx, accy = lower_pair_products(pairs, n)
    rows: list[Row] = []
    for i, (rx, ry) in enumerate(zip(accx, accy)):
        row = [(l, rx[l], ry[l]) for l in compress(range(i + 1), map(or_, rx, ry))]
        for l, x, y in row:
            if l < i:
                rows[l].append((i, x, y))
        rows.append(row)
    return rows


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

"""Spectral invariance over the normal sphere.

For a unit normal with coordinates (t1..tp) the shape operator is
A(t) = sum_a t_a A_a.  Both sweeps take its characteristic polynomial, with
coefficients in the polynomial ring, from `normal_char_poly`.  It splits the
basis into the connected components of the operators' joint nonzero pattern
in the integer pairs the dataset holds (`integer_form`); a permutation makes
A(t) block-diagonal with one block per component, for every t, so
det(lambda I - A(t)) is exactly the product of the blocks' characteristic
polynomials.  Each distinct block gets its polynomial by Newton's identities
from the Frobenius products of the powers of A(t), skipping zeros, up to half
the joint rank of its operators: no k x k minor of A(t) is nonzero above it.
The kernel gives each polynomial packed as the product (`_multiply`) takes
it: each power of lambda as terms over one denominator, each monomial one
int whose digits in base n + 1 are its exponents, since the coefficient of
lambda^(n-k) has total degree k <= n.  `_pair_sum` multiplies such
polynomials in t for the product and the Newton step, and `_poly` makes a
UniPoly over MultiPoly of one.  `normal_shape_operator(data).char_poly()`
is the reference.

The symbolic sweep decides each coefficient by its remainder modulo the
sphere relation (`polyring.reduce_mod_sphere`): it is constant on the unit
sphere iff the remainder is a constant, and the first remainder that is not
is the witness, as it stands.  Blocks that are all constant multiply to a
constant; otherwise the verdict is taken on the product, never on a block:
blocks that vary over the sphere can multiply to a constant polynomial (see
`_block_char_poly`).  The symbolic verdict is authoritative; the numeric
sweep is a seeded floating cross-check meant to catch implementation bugs,
never to decide.  It converts each coefficient's terms to float once
(`polyring.float_terms`), draws the samples CHUNK_POINTS at a time, builds
each chunk's power columns once for every coefficient and adds up each
coefficient's terms over the chunk at once (`polyring.eval_terms`), bit for
bit as at each sample alone; a zero or constant coefficient is not evaluated.

Four bounds refuse a sweep with SweepTooLarge, each before the work it
counts: MAX_SWEEP_WORK the blocks' kernel, MAX_SWEEP_PAIRS each step of their
product, and in the numeric sweep MAX_SAMPLE_COORDINATES the deviates drawn
and MAX_SAMPLE_TERMS the term evaluations.
"""

from __future__ import annotations

import math
import random
from itertools import combinations_with_replacement, compress, islice, product, repeat
from operator import add, mul, or_, sub
from typing import Iterator

from ._record import Record
from .catalog import ShapeOperatorSet
from .exactnum import ONE, QuadExt
from .linalg import Matrix, Row, UniPoly, components, lower_pair_products
from .polyring import MultiPoly, eval_terms, float_terms, reduce_mod_sphere

# Bound on --samples x codim, the Gaussian deviates a numeric sweep draws,
# one at a time, about 1 us each, and the coordinates a chunk of points holds:
# on a 2-core Xeon VM with Python 3.11 a dim 1 dataset at codim 500 with
# 2,048 samples takes about 1.2 s and peaks at 66 MB RSS.
MAX_SAMPLE_COORDINATES = 1_024_000

# The numeric sweep evaluates the terms at no more than this many points at once.
CHUNK_POINTS = 4096

# Bound on the kernel's work, counted before any block runs: a block of size m
# in codim p, every copy counted, adds C(m + p, p) (m^2 + p), its terms at most
# times its matrix entries plus the length of an exponent vector.  On a 2-core
# Xeon VM a dense block takes about 0.6 s at m = 8, p = 7 (456,885) and 2.1 to
# 2.8 s at m = 34, p = 2 (729,540); m = 40, p = 2 (1,379,322) took 5.3 s.
MAX_SWEEP_WORK = 800_000

# Bound on a step of the blocks' product, checked before it: the partial
# product's terms times the block's.  The n = 50 sum of g6_m2_M2 needs 33,915;
# 4,364 terms times a dense 11 x 11 block at p = 5 took 74.7 s on a 2-core VM.
MAX_SWEEP_PAIRS = 50_000

# Bound on --samples x (the float terms of char_poly + its coefficients), the
# term evaluations of a numeric sweep, about 0.3 us each, and its passes over
# the samples, one per coefficient: on a 2-core Xeon VM with Python 3.11 a
# dense 8 x 8 block at p = 6 (2,962 terms and 9 coefficients, a 1 KB file)
# takes about 4 s at 6,731 samples, the most under the bound.
MAX_SAMPLE_TERMS = 20_000_000


class SweepTooLarge(ValueError):
    """The sweep may exceed MAX_SWEEP_WORK or MAX_SWEEP_PAIRS, or a numeric
    sweep MAX_SAMPLE_COORDINATES or MAX_SAMPLE_TERMS."""


class SweepVerdict(Record):
    def __init__(
        self,
        constant: bool,
        char_poly: UniPoly | None,      # over QuadExt, set iff constant
        witness: MultiPoly | None,      # first non-constant reduced coefficient
        witness_power: int | None,      # lambda-power of the witness
    ) -> None:
        self._set(constant, char_poly, witness, witness_power)
        if self.constant != (self.char_poly is not None) or self.constant != (self.witness is None):
            raise ValueError("verdict fields do not match the constant flag")


def normal_shape_operator(data: ShapeOperatorSet) -> Matrix:
    """The matrix A(t) = sum_a t_a A_a over MultiPoly in p variables."""
    p = data.p
    acc = data.operators[0].map(lambda c: MultiPoly.monomial(p, _unit(p, 0), c))
    for a in range(1, p):
        acc = acc + data.operators[a].map(lambda c, a=a: MultiPoly.monomial(p, _unit(p, a), c))
    return acc


def _unit(p: int, index: int) -> tuple[int, ...]:
    return tuple(1 if i == index else 0 for i in range(p))


def normal_char_poly(data: ShapeOperatorSet) -> UniPoly:
    """char_poly of A(t) = sum_a t_a A_a, with MultiPoly coefficients.

    The basis splits into the connected components of the union pattern: the
    graph on 0..n-1 with an edge i-j for every nonzero (i, j) entry of any
    A_a.  The operators are symmetric, so these are the finest blocks that a
    permutation P of the basis can make: P^T A(t) P is block-diagonal for
    every t, with one diagonal block A_B(t) per component B.  Hence
    det(lambda I - A(t)) = prod_B det(lambda I - A_B(t)) as an identity of
    polynomials in lambda and t over Q(sqrt3), and `_block_char_poly` runs
    once on each distinct component.  The product equals
    normal_shape_operator(data).char_poly() exactly, term for term.

    SweepTooLarge before any block is run if the blocks, every copy counted,
    may take more than MAX_SWEEP_WORK, and before a step of their product
    above MAX_SWEEP_PAIRS (`_multiply`).
    """
    return _poly(_multiply(_distinct_blocks(data)), data.n + 1, data.p)


def _distinct_blocks(data: ShapeOperatorSet) -> list[tuple[list, int]]:
    """(packed polynomial, copies) of each distinct diagonal block of A(t), in
    order of first occurrence: equal re-indexed rows over the common
    denominator give an equal polynomial, so the kernel runs once for all copies."""
    n, p = data.n, data.p
    ops, den = data.integer_form
    blocks = _components(ops, n)
    work = sum(math.comb(len(block) + p, p) * (len(block) ** 2 + p) for block in blocks)
    if work > MAX_SWEEP_WORK:
        raise SweepTooLarge(
            f"the sweep's blocks may take {work} units of work, terms times entries, "
            f"above the bound of {MAX_SWEEP_WORK}"
        )
    distinct: dict[tuple, list] = {}  # rows -> [polynomial, copies]
    for block in blocks:
        # block is sorted, so the re-indexed rows stay sorted by column
        index = {i: r for r, i in enumerate(block)}
        rows = [[[(index[j], x, y) for j, x, y in op[i]] for i in block] for op in ops]
        key = tuple(tuple(row) for op in rows for row in op)
        if key in distinct:
            distinct[key][1] += 1
        else:
            distinct[key] = [_block_char_poly(rows, den, len(block), n + 1), 1]
    return [(poly, copies) for poly, copies in distinct.values()]


def _multiply(blocks: list[tuple[list, int]]) -> list:
    """The product of the blocks' packed polynomials, each to its multiplicity,
    packed alike: the blocks' monomials share one base.  SweepTooLarge before
    a step whose partial product's terms times the block's terms exceed
    MAX_SWEEP_PAIRS: n blocks that are linear forms in p directions multiply
    to up to C(n + p, p) terms, far more than they hold."""
    coeffs = None  # of the product so far, lowest lambda-power first
    for poly, copies in blocks:
        block = sum(len(terms) for terms, _ in poly)
        for _ in range(copies):
            count = sum(len(terms) for terms, _ in coeffs or ())
            if count * block > MAX_SWEEP_PAIRS:
                raise SweepTooLarge(
                    f"a partial product of the blocks' characteristic polynomials with {count} terms times a "
                    f"block with {block} terms makes {count * block} term pairs, above the bound of {MAX_SWEEP_PAIRS}"
                )
            coeffs = poly if coeffs is None else _convolve(coeffs, poly)
    return coeffs


def _poly(coeffs: list, base: int, p: int) -> UniPoly:
    """The packed polynomial `coeffs` as a UniPoly over MultiPoly in p
    variables, each term (x + y sqrt3) / den at the exponents of `_unpack`."""
    return UniPoly(
        MultiPoly._of(p, {_unpack(m, base, p): QuadExt._make(x, y, den) for m, x, y in terms}) for terms, den in coeffs
    )


def _convolve(a: list, b: list) -> list:
    """The coefficients of the product of two packed polynomials in lambda: each
    power of lambda over the least common multiple of its pairs'
    denominators, each pair's terms multiplied once."""
    pairs: list[list] = [[] for _ in range(len(a) + len(b) - 1)]  # lambda-power -> its nonzero pairs
    for i, (left, da) in enumerate(a):
        for j, (right, db) in enumerate(b):
            if left and right:
                pairs[i + j].append((left, right, da * db))
    out = []
    for products in pairs:
        den = math.lcm(*(d for _, _, d in products))
        out.append((_pair_sum((den // d, left, right) for left, right, d in products), den))
    return out


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


def _components(ops: tuple[tuple[Row, ...], ...], n: int) -> list[list[int]]:
    """Connected components of the union pattern: the keys of row i are i and
    the columns of its nonzeros, so a nonzero (i, j) joins rows i and j."""
    return list(components([{i}.union(j for op in ops for j, _, _ in op[i]) for i in range(n)]))


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


def _unpack(m: int, base: int, p: int) -> tuple[int, ...]:
    """The exponent vector of the packed monomial m: its p lowest digits in
    base `base`, one divmod each."""
    exps = []
    for _ in range(p):
        m, e = divmod(m, base)
        exps.append(e)
    return tuple(exps)


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


def symbolic_sweep(data: ShapeOperatorSet) -> SweepVerdict:
    """Exact verdict: is char_poly(A(t)) the same for every unit normal t?

    If every block is constant on the sphere, their constant polynomials
    multiply over QuadExt; otherwise the verdict is taken on the product, the
    varying block itself when it is the only block."""
    base, p = data.n + 1, data.p
    blocks, factors = _distinct_blocks(data), []
    for poly, copies in blocks:
        verdict = _decide(_poly(poly, base, p))
        if not verdict.constant:
            return verdict if len(blocks) == 1 and copies == 1 else _decide(_poly(_multiply(blocks), base, p))
        factors += [verdict.char_poly] * copies
    return SweepVerdict(True, math.prod(factors, start=UniPoly([ONE])), None, None)


def _decide(poly: UniPoly) -> SweepVerdict:
    """The verdict on each coefficient's remainder modulo the sphere relation,
    lowest lambda-power first: the first that is not a constant is the witness."""
    constants = []
    for power, coeff in enumerate(poly.coeffs):
        reduced = reduce_mod_sphere(coeff)
        if not reduced.is_constant():
            return SweepVerdict(False, None, reduced, power)
        constants.append(reduced.constant_value())
    return SweepVerdict(True, UniPoly(constants), None, None)


def unit_normal_samples(p: int, samples: int, seed: int) -> Iterator[tuple[float, ...]]:
    """Deterministic unit normals, each drawn when it is taken: alternating
    signs (p=1), jittered angles (p=2), normalized Gaussian deviates (p>=3)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    if p == 1:
        for i in range(samples):
            yield (1.0 if i % 2 == 0 else -1.0,)
    elif p == 2:
        step = 2.0 * math.pi / samples
        for i in range(samples):
            theta = i * step + rng.uniform(0.0, step)
            yield (math.cos(theta), math.sin(theta))
    else:
        while samples:
            coords = [rng.gauss(0.0, 1.0) for _ in range(p)]
            norm = math.sqrt(math.fsum(c * c for c in coords))
            if norm < 1e-9:
                continue
            samples -= 1
            yield tuple(c / norm for c in coords)


def _scale_exponent(data: ShapeOperatorSet) -> int:
    """Smallest e >= 0 that brings every |entry| / 2^e below 2, in floats
    (OverflowError for an entry beyond the float range).  Only the nonzero
    entries, those of `integer_form`, are converted: a zero never raises e."""
    e = 0
    for op, rows in zip(data.operators, data.integer_form[0]):
        for row, entries in zip(op.rows, rows):
            for j, _, _ in entries:
                e = max(e, math.frexp(row[j].to_float())[1] - 1)
    return e


def numeric_sweep(data: ShapeOperatorSet, samples: int, seed: int = 0) -> float:
    """Max absolute drift of any char_poly coefficient across sampled normals.

    The drift is that of A(t) / 2^e, with e from _scale_exponent: constancy
    does not depend on scale, and an absolute tolerance then means the same
    at every scale.  Data whose entries are all below 2 is not scaled.

    NaN as soon as one drift is NaN (an evaluation overflowed both ways), so
    that no tolerance test can pass it.  At least two samples are needed:
    one sample has nothing to be compared with.  SweepTooLarge before
    `normal_char_poly` if samples x codim exceeds MAX_SAMPLE_COORDINATES, and
    before any sample is drawn if samples x (terms + coefficients) exceeds
    MAX_SAMPLE_TERMS; both count every sample, although at p = 1 only the
    first two are evaluated, since the samples alternate between +1 and -1.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if samples * data.p > MAX_SAMPLE_COORDINATES:
        raise SweepTooLarge(
            f"--samples {samples} at codim {data.p} draws {samples * data.p} coordinates, "
            f"above the numeric sweep's bound of {MAX_SAMPLE_COORDINATES}"
        )
    coeffs = normal_char_poly(data).coeffs
    e = _scale_exponent(data)
    if e:
        # char_poly(A / 2^e) has the coefficient of lambda^j divided by 2^(e(n-j))
        coeffs = [c / (1 << e * (data.n - j)) for j, c in enumerate(coeffs)]
    terms = [float_terms(c) for c in coeffs]
    count = sum(map(len, terms)) + len(terms)
    if samples * count > MAX_SAMPLE_TERMS:
        raise SweepTooLarge(
            f"{samples} samples of the {count} terms and coefficients of the characteristic polynomial are "
            f"{samples * count} term evaluations, above the numeric sweep's bound of {MAX_SAMPLE_TERMS}"
        )
    terms = [t for t in terms if any(factors for _, factors in t)]  # a zero or constant drifts by exactly 0
    points = unit_normal_samples(data.p, 2 if data.p == 1 else samples, seed)
    first = [[None, (x,)] for x in next(points)]
    baseline = [eval_terms(t, first, 1)[0] for t in terms]
    deviation = 0.0
    while terms and (columns := list(zip(*islice(points, CHUNK_POINTS)))):
        powers, size = [[None, column] for column in columns], len(columns[0])  # shared by every coefficient
        for base, t in zip(baseline, terms):
            drifts = list(map(abs, map(sub, eval_terms(t, powers, size), repeat(base))))
            total = sum(drifts)  # NaN iff a drift is: none is negative
            if total != total:
                return total
            deviation = max(deviation, max(drifts))
    return deviation

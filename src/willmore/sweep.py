"""Spectral invariance over the normal sphere.

For a unit normal with coordinates (t1..tp) the shape operator is
A(t) = sum_a t_a A_a.  Both sweeps take its characteristic polynomial, with
coefficients in the polynomial ring, from `_multiply(_distinct_blocks(data))`.
`_distinct_blocks` splits the basis into the connected components of the
operators' joint nonzero pattern in the integer pairs the dataset holds
(`integer_form`, `_components`): a permutation makes A(t) block-diagonal for
every t, so det(lambda I - A(t)) is the product of the blocks'
characteristic polynomials.  Each distinct block gets its polynomial by
Newton's identities from the Frobenius products of the powers of A(t), up
to half the joint rank of its operators (`_block_char_poly`); each Q(sqrt3)
number that a pair product or a Frobenius product multiplies is one int,
the rational part in its low digits and the sqrt3 part in its high digits.
The kernel gives each polynomial packed as the product (`_multiply`) takes
it: each power of lambda as terms over one denominator, each monomial one
int whose digits in base n + 1 are its exponents.  `_pair_sum` multiplies
such polynomials in t for the product and the Newton step.  Both sweeps
work on these packed pairs; `_poly` makes a UniPoly over MultiPoly of one,
for `normal_char_poly`, the form the tests compare with
`normal_shape_operator(data).char_poly()`.

The symbolic sweep decides each coefficient on its packed pairs
(`_constants`).  The first that is not constant on the sphere, reduced
modulo the sphere relation (`polyring.reduce_mod_sphere`), is the witness:
only a FAIL imports `polyring`.  Blocks that are all constant multiply to a
constant; otherwise the verdict is taken on the product, never on a block
(see `_block_char_poly`).  The symbolic verdict is authoritative; the
numeric sweep is a seeded floating cross-check meant to catch implementation
bugs, never to decide.  Its max_deviation is the largest drift of any
coefficient of any distinct block, each evaluated once however many copies
it has; only if that reaches NUMERIC_TOLERANCE is it the drift of the
coefficients of the blocks' product, on which the symbolic sweep too takes
a verdict when a block varies.  So blocks that swap spectra while their
product stays constant pass, and a direct sum drifts exactly as its most
drifting summand.  Either pass converts each coefficient's packed terms
to float once (`float_terms`) and adds them up over CHUNK_POINTS samples at
a time (`eval_terms`), bit for bit as at each sample alone; a zero or
constant coefficient is not evaluated.

Four bounds refuse a sweep with SweepTooLarge, each before the work it
counts: MAX_SWEEP_WORK the blocks' kernel, MAX_SWEEP_PAIRS each step of their
product, and in the numeric sweep MAX_SAMPLE_COORDINATES the deviates drawn
and MAX_SAMPLE_TERMS the term evaluations.
"""

from __future__ import annotations

import math
import random
from itertools import chain, combinations_with_replacement, compress, islice, product, repeat
from operator import add, floordiv, lshift, mul, sub
from typing import TYPE_CHECKING, Iterator

from ._record import Record
from .catalog import ShapeOperatorSet
from .exactnum import ONE, ZERO, QuadExt
from .linalg import Matrix, Row, UniPoly, lower_pair_products, lower_triangle, symmetric_index

if TYPE_CHECKING:
    from .polyring import MultiPoly

# Bound on --samples x codim, the Gaussian deviates a numeric sweep draws,
# one at a time, about 1 us each, and the coordinates a chunk of points holds:
# on a 2-core Xeon VM with Python 3.11 a dim 1 dataset at codim 500 with
# 2,048 samples takes about 1.2 s and peaks at 66 MB RSS.  A sweep whose
# blocks drift by the tolerance, as every FAIL on more than one block does,
# draws its samples twice, the second time for the blocks' product.
MAX_SAMPLE_COORDINATES = 1_024_000

# A numeric sweep passes if its max_deviation is below this.
NUMERIC_TOLERANCE = 1e-9

# The numeric sweep evaluates the terms at no more than this many points at once.
CHUNK_POINTS = 4096

# Bound on the kernel's work, counted before any block runs: a block of size m
# in codim p, every copy counted, adds C(m + p, p) (m^2 + p), its terms at most
# times its entries plus an exponent vector's length.  In process on a 2-core
# Xeon VM a dense block takes about 0.16 s at m = 8, p = 7 (456,885), 0.09 s at
# m = 34, p = 2 (729,540) and 0.55 s at m = 92, p = 1 (787,245); m = 40, p = 2 exits 2.
MAX_SWEEP_WORK = 800_000

# Bound on a step of the blocks' product, checked before it: the partial
# product's terms times the block's.  The n = 50 sum of g6_m2_M2 needs 33,915;
# 4,364 terms times a dense 11 x 11 block at p = 5 took 74.7 s on a 2-core VM.
MAX_SWEEP_PAIRS = 50_000

# Bound on --samples x (the float terms of char_poly + its coefficients), or
# of the distinct blocks' polynomials if they have more, the term evaluations
# of a numeric sweep's pass, about 0.3 us each, and its passes over the
# samples, one per coefficient: on a 2-core Xeon VM with Python 3.11 a
# dense 8 x 8 block at p = 6 (2,962 terms and 9 coefficients, a 1 KB file)
# takes about 4 s at 6,731 samples, the most under the bound.
MAX_SAMPLE_TERMS = 20_000_000


class SweepTooLarge(ValueError):
    """The sweep may exceed MAX_SWEEP_WORK or MAX_SWEEP_PAIRS, or a numeric
    sweep MAX_SAMPLE_COORDINATES or MAX_SAMPLE_TERMS."""


class SweepVerdict(Record):
    # char_poly over QuadExt, set iff constant; witness the first non-constant reduced coefficient, at witness_power
    def __init__(self, constant: bool, char_poly: UniPoly | None, witness: MultiPoly | None, witness_power: int | None) -> None:
        self._set(constant, char_poly, witness, witness_power)
        if self.constant != (self.char_poly is not None) or self.constant != (self.witness is None):
            raise ValueError("verdict fields do not match the constant flag")


def normal_shape_operator(data: ShapeOperatorSet) -> Matrix:
    """The matrix A(t) = sum_a t_a A_a over MultiPoly in p variables, the
    reference for `normal_char_poly`; no command runs it."""
    from .polyring import MultiPoly

    p = data.p
    units = [tuple(int(i == a) for i in range(p)) for a in range(p)]
    acc = data.operators[0].map(lambda c: MultiPoly.monomial(p, units[0], c))
    for a in range(1, p):
        acc = acc + data.operators[a].map(lambda c, a=a: MultiPoly.monomial(p, units[a], c))
    return acc


def normal_char_poly(data: ShapeOperatorSet) -> UniPoly:
    """char_poly of A(t) = sum_a t_a A_a, with MultiPoly coefficients.

    The operators are symmetric, so the components of their union pattern
    are the finest blocks a permutation P of the basis can make: P^T A(t) P
    is block-diagonal for every t, and det(lambda I - A(t)) is the product of
    the blocks' polynomials, an identity over Q(sqrt3), equal to
    normal_shape_operator(data).char_poly() term for term.  SweepTooLarge as
    `_distinct_blocks` and `_multiply` raise it.  This is the reference form
    of the packed product the sweeps take; no command runs it.
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
    packed alike in one base.  SweepTooLarge before a step whose partial
    product's terms times the block's exceed MAX_SWEEP_PAIRS: n blocks that are
    linear forms in p directions multiply to up to C(n + p, p) terms."""
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
    variables, each coefficient by `_multi`."""
    return UniPoly(_multi(terms, den, base, p) for terms, den in coeffs)


def _multi(terms: list, den: int, base: int, p: int) -> MultiPoly:
    """The packed coefficient `terms` over `den` as a MultiPoly in p
    variables, each term (x + y sqrt3) / den at the exponents of `_unpack`."""
    from .polyring import MultiPoly

    return MultiPoly._of(p, {_unpack(m, base, p): QuadExt._make(x, y, den) for m, x, y in terms})


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
    """Connected components of the union pattern, a nonzero (i, j) joining rows
    i and j, each ascending, in order of least row: breadth-first over each
    row's nonzero columns, held both ways, so each row is read once per operator."""
    seen = [False] * n
    blocks = []
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            block = [root]
            for i in block:  # grows while the loop runs, until the component is closed
                for op in ops:
                    for j, _, _ in op[i]:
                        if not seen[j]:
                            seen[j] = True
                            block.append(j)
            blocks.append(sorted(block))
    return blocks


def _block_char_poly(ops: list[list[Row]], op_den: int, n: int, base: int) -> list:
    """char_poly of sum_a t_a A_a for the n x n rows `ops` of the symmetric
    A_1..A_p over the denominator op_den, lowest lambda-power first, each as
    ([(m, x, y)], den): (x + y sqrt3) / den at t^e, e the digits of m in base > n.

    Newton's identities on the power sums S_i = Tr(B^i) of B = op_den A(t):
    E_0 = 1, E_k = sum_i (-1)^(i-1) (k-1)!/(k-i)! E_(k-i) S_i, and lambda^(n-k)
    has the coefficient (-1)^k E_k / (k! op_den^k).  E_k, the sum of the k x k
    principal minors of A(t), is zero above rank A(t) <= rho = rank M,
    M = [A_1 | ... | A_p], which is rank M M^T, of G = sum_a A_a^2, the sum of
    A^2's coefficients at the t_a^2 (`_psd_rank`): the identities stop at
    k = rho.  Every monomial coefficient of A(t)^j is symmetric, so Tr(A^k) is
    the Frobenius product <A^(k//2), A^(k-k//2)>_F and only A^1..A^ceil(rho/2)
    are formed, each A^j = sum_m t^m M_m over one denominator normalised by a
    gcd, each M_m a `lower_triangle`.  M_m' of A^(j+1) sums A_a M_m over
    m = m' - e_a on packed rows (`linalg.lower_pair_products`): row k of M_m
    is P_k = X_k + Y_k 2^(nW) and Q_k = 3 Y_k + X_k 2^(nW), X_k = sum_l x_kl 2^(W l)
    and Y_k likewise, so row i of the sum is one int, sum x P_k + y Q_k over
    the a and the nonzero (k, x, y) of A_a's row i, with the digits
    sum x x_kl + 3 y y_kl, then sum x y_kl + y x_kl.  With T the largest part
    of A^j and r = max_i sum_a sum_k (|x| + 3|y|) over the rows i of the A_a,
    no digit exceeds r T < 2^(W-1), W = bit_length(r T) + 1 rounded up to whole
    64-bit words.  So the 2n balanced digits, in [-2^(W-1), 2^(W-1)), are
    unique and are the entries: adding 2^(W-1) at each place makes them the
    plain base-2^W digits of a sum that carries nothing.

    The Frobenius step reads each M_m of A^0..A^h, h = ceil(rho/2), as one
    list z = x + y 2^v and dz, z with the off-diagonal doubled: sum dz z' is
    sum_t w_t (x x' + (x y' + y x') 2^v + y y' 2^(2v)), w the weights of
    `symmetric_index`, sum_t w_t = n^2.  Summed over the pairs of one output
    monomial (an unordered even pair doubled, as it stands for two), its
    digits are d0 = sum w x x', d1 = sum w (x y' + y x') and d2 = sum w y y',
    the term d0 + 3 d2 in x and d1 in y.  With T the largest part and M the
    most monomials of any of A^1..A^h, a monomial has at most M pairs, so
    |d0| <= M n^2 T^2 and |d1| <= 2 M n^2 T^2 < 2^(v-1), v the bit_length of
    2 M n^2 T^2 plus 1: d0 and d1 are read as the digits above.  The Riemann
    table of the curvature pass packs its entries alike (`curvature._gram_table`).

    `_distinct_blocks` calls this once per distinct diagonal block of A(t).
    A FAIL is taken on the product of the blocks' polynomials, never block
    by block: a block's polynomial may vary over the sphere while the
    product does not.  At p = 1 and A = diag(t, -t) the blocks
    give lambda - t and lambda + t, neither constant on the sphere {1, -1},
    yet their product lambda^2 - t^2 is lambda^2 - 1 at both points.
    """
    lefts, units, layout, held = [], [], symmetric_index(n), None  # the operators A_a that are not zero, and base^a
    for a, rows in enumerate(ops):
        if any(rows):
            lefts.append(rows)
            units.append(base**a)
    # A^1; rho once A^2 is formed, or at once 0 with no active operator: then A(t) = 0, so G = 0
    power, den, rank = dict(zip(units, map(lower_triangle, lefts, repeat(n)))), op_den, n if lefts else 0
    powers = [(1, {0: (layout.unit, [])}), (1, power)]  # (op_den^j / den of A^j, {m: M_m}), from A^0 = I as its dz
    for j in range(2, (n + 1) // 2 + 1):
        if j > (rank + 1) // 2:
            break
        # the terms of the monomial m' are the (A_a, M_m) with m + e_a = m'
        sources: dict[int, list] = {}
        for m, (a, unit) in product(power, enumerate(units)):
            sources.setdefault(m + unit, []).append((a, m))
        sums, (r, words, rows) = lower_pair_products(lefts, power, sources.values(), n, held)
        power = {m: lower for m, lower in zip(sources, sums) if any(map(any, lower))}
        g = math.gcd(den * op_den, *chain.from_iterable(chain.from_iterable(power.values())))
        power = {m: ([*map(floordiv, x, repeat(g))], [*map(floordiv, y, repeat(g))]) for m, (x, y) in power.items()}
        den = den * op_den // g
        rank = _psd_rank([*map(power.__getitem__, map(add, units, units))], n) if j == 2 else rank
        if j < (rank + 1) // 2:  # the products' rows over g are the next power's P, while their width holds
            held = r, words, {m: [*map(floordiv, s, repeat(g))] for m, s in zip(sources, rows)}
        powers.append((op_den**j // den, power))
    sums, elementary, forms = [None], [[(0, 1, 0)]], powers  # S_i and E_k as [(m, x, y)]
    if lefts:  # the (dz, z) of each M_m of A^1..A^h, in the v of the bound above
        forms, used = powers[:1], powers[1 : (rank + 1) // 2 + 1]
        parts = list(chain.from_iterable(chain.from_iterable(p.values() for _, p in used)))
        top = max(map(abs, chain.from_iterable(map(compress, parts, parts))))
        v = (2 * max(len(p) for _, p in used) * n * n * top * top).bit_length() + 1
        for scale, p in used:  # z is bound in the first element of each pair, then read in the second
            forms.append((scale, {m: ([*map(mul, z := [*map(add, x, map(lshift, y, repeat(v)))], layout.weights)], z)
                                  for m, (x, y) in p.items()}))
        low, half, offset = (1 << v) - 1, 1 << v - 1, (1 << v - 1) * ((1 << v) + 1)  # offset: half at d0 and d1
    for k in range(1, rank + 1):
        (scale, left), (scale_b, right) = forms[k // 2], forms[k - k // 2]
        # for even k both sides are A^(k/2): the pairs (m, m2) and (m2, m) agree
        even = k % 2 == 0
        pairs = combinations_with_replacement(left.items(), 2) if even else product(left.items(), right.items())
        total = {}
        for (m, (dz, _)), (m2, (_, z)) in pairs:
            f = sum(map(mul, dz, z))
            total[m + m2] = total.get(m + m2, offset) + (2 * f if even and m != m2 else f)
        scale *= scale_b  # each total has 2^(v-1) added to d0 and d1, its two low base-2^v digits; d2 is the rest
        terms = [(m, (t & low) - half + 3 * (t >> 2 * v), (t >> v & low) - half) for m, t in total.items()]
        sums.append([(m, x * scale, y * scale) for m, x, y in terms if x or y])
        # E_(k-i) S_i for i = 1..k, with the factors (-1)^(i-1) (k-1)!/(k-i)!
        factors = [(-1) ** i * math.perm(k - 1, i) for i in range(k)]
        elementary.append(_pair_sum(zip(factors, reversed(elementary), sums[1:])))
    # lambda^(n-k) is E_k / ((-1)^k k! op_den^k); lambda^0..lambda^(n-rho-1) are zero
    return [([], 1)] * (n - rank) + [(elementary[k], math.factorial(k) * (-op_den) ** k) for k in range(rank, -1, -1)]


def _psd_rank(mats: list[tuple[list[int], list[int]]], n: int) -> int:
    """The rank of the sum G of the `lower_triangle`s `mats` of n x n squares
    A_a^2 of symmetric A_a: G is positive semidefinite, as is each Schur complement in
    its fraction-free symmetric elimination with diagonal pivots, so zero pivots have zero rows."""
    zero = [0] * (n * (n + 1) // 2)
    xs, ys = (symmetric_index(n).expand([*map(sum, zip(*part))]) for part in zip(*mats, (zero, zero)))
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


def symbolic_sweep(data: ShapeOperatorSet) -> SweepVerdict:
    """Exact verdict: is char_poly(A(t)) the same for every unit normal t?

    If every block is constant on the sphere, their constant polynomials
    multiply over QuadExt; otherwise the verdict is taken on the product, the
    varying block itself when it is the only block."""
    base, p = data.n + 1, data.p
    blocks, factors = _distinct_blocks(data), []
    for poly, copies in blocks:
        constants = _constants(poly, base, p)
        if len(constants) < len(poly):
            if len(blocks) > 1 or copies > 1:
                poly = _multiply(blocks)
                constants = _constants(poly, base, p)
            return _verdict(poly, constants, base, p)
        factors += [UniPoly(constants)] * copies
    return SweepVerdict(True, math.prod(factors, start=UniPoly([ONE])), None, None)


def _constants(coeffs: list, base: int, p: int) -> list[QuadExt]:
    """The values on the unit sphere of the packed coefficients, lowest
    lambda-power first, up to the first that is not constant there.

    The coefficient f of lambda^(n-k) is homogeneous of degree k in t, so
    f(t) = |t|^k f(t/|t|): f is constant c on the sphere iff f = c |t|^k.
    For odd k that is a polynomial only if c = 0, and for even k it is
    c (t1^2 + ... + tp^2)^(k/2), so f must equal it term by term, with c its
    t1^k coefficient, at the packed monomial k.  The powers of the sum of
    squares are built as far as a coefficient needs them."""
    squares, sphere = [2 * base**a for a in range(p)], [{0: 1}]  # sphere[h] = (t1^2 + ... + tp^2)^h
    constants = []
    for power, (terms, den) in enumerate(coeffs):
        h, odd = divmod(len(coeffs) - 1 - power, 2)
        if terms:
            table = {m: (x, y) for m, x, y in terms}
            if odd or (lead := table.get(2 * h)) is None:
                break
            while len(sphere) <= h:
                step = {}
                for m, v in sphere[-1].items():
                    for square in squares:
                        step[m + square] = step.get(m + square, 0) + v
                sphere.append(step)
            x, y = lead
            if len(table) != len(sphere[h]) or any(table.get(m) != (x * v, y * v) for m, v in sphere[h].items()):
                break
            constants.append(QuadExt._make(x, y, den))
        else:
            constants.append(ZERO)
    return constants


def _verdict(coeffs: list, constants: list[QuadExt], base: int, p: int) -> SweepVerdict:
    """The verdict on the packed polynomial `coeffs` from its `_constants`: if
    one is missing, the coefficient in its place reduced modulo the sphere
    relation is the witness, the one job of `polyring` on a command's path."""
    if len(constants) == len(coeffs):
        return SweepVerdict(True, UniPoly(constants), None, None)
    from .polyring import reduce_mod_sphere

    power = len(constants)
    return SweepVerdict(False, None, reduce_mod_sphere(_multi(*coeffs[power], base, p)), power)


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

    The coefficients are those of each distinct block of `_distinct_blocks`,
    once however many copies it has; only if one of them drifts by
    NUMERIC_TOLERANCE or more is the drift that of the blocks' product
    (`_multiply`), as the symbolic sweep takes its verdict on the product:
    blocks may swap spectra while the product stays constant.  A single
    block is the product.  The drift is that of A(t) / 2^e, e from
    _scale_exponent: constancy does not depend on scale, so an absolute
    tolerance means the same at every scale; entries all below 2 are not
    scaled.  NaN as soon as one drift is NaN (an evaluation overflowed both
    ways), so that no tolerance test can pass it.  At least two samples are
    needed, one has nothing to be compared with.  SweepTooLarge before the
    blocks' kernel runs if samples x codim exceeds MAX_SAMPLE_COORDINATES,
    and before any sample is drawn if samples x (terms + coefficients), of
    the product or of the blocks, whichever has more, exceeds
    MAX_SAMPLE_TERMS; both count every sample, though at p = 1 only the
    first two, +1 and -1, are evaluated.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if samples * data.p > MAX_SAMPLE_COORDINATES:
        raise SweepTooLarge(
            f"--samples {samples} at codim {data.p} draws {samples * data.p} coordinates, "
            f"above the numeric sweep's bound of {MAX_SAMPLE_COORDINATES}"
        )
    blocks = _distinct_blocks(data)
    coeffs = _multiply(blocks)
    e = _scale_exponent(data)
    count = max(_term_count(coeffs), sum(_term_count(poly) for poly, _ in blocks))
    if samples * count > MAX_SAMPLE_TERMS:
        raise SweepTooLarge(
            f"{samples} samples of the {count} terms and coefficients of the characteristic polynomial are "
            f"{samples * count} term evaluations, above the numeric sweep's bound of {MAX_SAMPLE_TERMS}"
        )
    base, p = data.n + 1, data.p
    terms = [t for poly, _ in blocks for t in _scaled_terms(poly, base, p, e)]
    deviation = _max_drift(terms, p, samples, seed)
    if deviation >= NUMERIC_TOLERANCE and (len(blocks) > 1 or blocks[0][1] > 1):
        deviation = _max_drift(_scaled_terms(coeffs, base, p, e), p, samples, seed)
    return deviation


def _term_count(coeffs: list) -> int:
    """The terms and coefficients of a packed polynomial, which an evaluation
    at one point reads."""
    return sum(len(terms) for terms, _ in coeffs) + len(coeffs)


def _scaled_terms(coeffs: list, base: int, p: int, e: int) -> list:
    """The `float_terms` of each packed coefficient of a polynomial of degree
    b in lambda for A(t) / 2^e: the coefficient of lambda^j is divided by 2^(e(b - j))."""
    degree = len(coeffs) - 1
    return [float_terms(c, base, p, e * (degree - j)) for j, c in enumerate(coeffs)]


def _max_drift(terms: list, p: int, samples: int, seed: int) -> float:
    """Max absolute drift of each of the float coefficients `terms` from its
    value at the first of the samples, or the first NaN drift: the points are
    drawn CHUNK_POINTS at a time and each chunk's power columns are shared by
    every coefficient.  A zero or constant coefficient drifts by exactly 0
    and is not evaluated."""
    terms = [t for t in terms if any(factors for _, factors in t)]
    points = unit_normal_samples(p, 2 if p == 1 else samples, seed)
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


def float_terms(coeff: tuple[list, int], base: int, p: int, shift: int) -> list[tuple[float, tuple[tuple[int, int], ...]]]:
    """The terms of the packed coefficient `coeff` divided by 2^shift for
    `eval_terms`, exponent vectors descending: each coefficient canonical and
    a float once, with the (variable, exponent) pairs of its nonzero exponents,
    as `polyring.float_terms` gives them on its MultiPoly, in its order."""
    terms, den = coeff
    den <<= shift
    return [
        (QuadExt._make(x, y, den).to_float(), tuple((d, e) for d, e in enumerate(exps) if e))
        for exps, x, y in sorted(((_unpack(m, base, p), x, y) for m, x, y in terms), reverse=True)
    ]


def eval_terms(terms, powers, size: int) -> list[float]:
    """`float_terms` at `size` points at once: each term is its coefficient
    times its power columns, one map chain over the points, the terms added in
    their order.  powers[d] = [None, x_d, x_d^2, ...] holds the power columns of
    coordinate d at the points, x^e = x^(e-1) * x, extended in place up to the
    powers the terms read: term lists evaluated at the same points with the
    same `powers` build each column once."""
    total = [0.0] * size
    for coeff, factors in terms:
        value = repeat(coeff, size)
        for d, e in factors:
            ladder = powers[d]
            while len(ladder) <= e:
                ladder.append(list(map(mul, ladder[-1], ladder[1])))
            value = map(mul, value, ladder[e])
        total = list(map(add, total, value))
    return total

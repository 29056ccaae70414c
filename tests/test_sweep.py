import functools
import math
import random
from itertools import combinations_with_replacement
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frames import cayley_frame, change_frame, direct_sum, rotate_normals, scaled, signed_permutation
from nan_injection import inject_one_nan
from numeric_reference import blockwise, reference_numeric_sweep, reference_product
from sphere_reference import sphere_constant
from sweep_inputs import DENSE_8_BY_8, DIAGONAL_9, STEPS_22, dense_file
from willmore import linalg, polyring, sweep
from willmore.catalog import BUILTIN_NAMES, ShapeOperatorSet, builtin, parse_dataset
from willmore.cli import NUMERIC_TOLERANCE, main
from willmore.exactnum import QuadExt, parse_scalar
from willmore.linalg import Matrix, UniPoly, integer_rows, lower_triangle
from willmore.polyring import MultiPoly, eval_float, reduce_mod_sphere
from willmore.sweep import (
    SweepVerdict,
    _scale_exponent,
    normal_char_poly,
    normal_shape_operator,
    numeric_sweep,
    symbolic_sweep,
    unit_normal_samples,
)

S = parse_scalar

QUINTIC = UniPoly(
    [QuadExt(0), QuadExt(1), QuadExt(0), QuadExt(Fraction(-10, 3)), QuadExt(0), QuadExt(1)]
)


def single_operator(entries, name="single"):
    m = Matrix.diagonal([S(e) for e in entries])
    return ShapeOperatorSet(name, m.nrows, 1, (m,), ("B1",))


def assert_kernel_matches_reference(data):
    poly = normal_char_poly(data)
    assert poly == normal_shape_operator(data).char_poly()
    assert poly.degree() == data.n
    for coeff in poly.coeffs:
        assert coeff.nvars == data.p


def single_normal():
    m = Matrix([[S("1"), S("sqrt3"), S("0")], [S("sqrt3"), S("-1/2"), S("2/3")], [S("0"), S("2/3"), S("1/2")]])
    return ShapeOperatorSet("p1", 3, 1, (m,), ("B1",))


def dense14():
    """The committed dense n = 14, p = 3 file of the golden sweep that fails."""
    return parse_dataset((Path(__file__).parent / "data" / "dense14_p3.dat").read_text(encoding="utf-8"))


def sum20():
    return direct_sum(builtin("g6_m2_M2"), builtin("g6_m2_M2"))


def sum30():
    return direct_sum(sum20(), builtin("g6_m2_M2"))


def dim1(codim):
    """dim 1 and codim `codim`, operator B_a = a % 7 + 1: the coefficient of
    lambda^0 is a linear form in every normal direction."""
    ops = tuple(Matrix([[QuadExt(a % 7 + 1)]]) for a in range(1, codim + 1))
    return ShapeOperatorSet(f"dim1_codim{codim}", 1, codim, ops, tuple(f"B{a}" for a in range(1, codim + 1)))


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that every call is recorded; returns the record."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def pointwise_numeric_sweep(data, samples, seed, passes=None):
    """`numeric_sweep` as a loop over the points, one `eval_float` for each
    coefficient at each point; `passes`, if given, records the coefficient
    lists evaluated: the blocks', then the product's if it is taken."""
    points = list(unit_normal_samples(data.p, samples, seed))

    def drift(coeffs):
        if passes is not None:
            passes.append(coeffs)
        baseline = [eval_float(c, points[0]) for c in coeffs]
        deviation = 0.0
        for point in points[1:]:
            for base, coeff in zip(baseline, coeffs):
                value = abs(eval_float(coeff, point) - base)
                if math.isnan(value):
                    return value
                deviation = max(deviation, value)
        return deviation

    return blockwise(data, drift)


RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=6)
SCALAR = st.builds(QuadExt, RATIONAL, st.one_of(st.just(Fraction(0)), RATIONAL))


@st.composite
def operator_sets(draw):
    """Random symmetric operators (all zero at times, p=1 too), or the first p
    of a scaled pair diag(c, -c), [[0, c], [c, 0]] and a zero operator: the
    spectrum +-c*sqrt(t1^2 + t2^2) is constant on the sphere for p <= 2 only,
    and varies with t3 at p = 3."""
    p = draw(st.integers(1, 3), label="p")
    if draw(st.booleans(), label="constant pair"):
        c = draw(SCALAR, label="c")
        zero = QuadExt(0)
        pair = [Matrix([[c, zero], [zero, -c]]), Matrix([[zero, c], [c, zero]])]
        ops = (pair + [Matrix.filled(2, 2, zero)] * 2)[:p]
        n = 2
    else:
        n = draw(st.integers(1, 4), label="n")
        ops = []
        for _ in range(p):
            rows = [[QuadExt(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = draw(st.one_of(st.just(QuadExt(0)), SCALAR))
            ops.append(Matrix(rows))
    return ShapeOperatorSet("random", n, p, tuple(ops), tuple(f"B{a + 1}" for a in range(p)))


@st.composite
def planted_blocks(draw):
    """Random symmetric operators built from 1-4 planted diagonal blocks of
    sizes 1-4 (zero blocks and all-zero operators among them), hidden by a
    random permutation of the basis.  n stays at most 10: the reference
    `Matrix.char_poly` over MultiPoly takes seconds at n = 16, p = 3."""
    p = draw(st.integers(1, 3), label="p")
    sizes = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda s: sum(s) <= 10), label="block sizes"
    )
    n = sum(sizes)
    order = draw(st.permutations(range(n)), label="basis order")
    ops = [[[QuadExt(0)] * n for _ in range(n)] for _ in range(p)]
    start = 0
    for size in sizes:
        block = order[start : start + size]
        start += size
        for rows in ops:
            for i in range(size):
                for j in range(i, size):
                    entry = draw(st.one_of(st.just(QuadExt(0)), SCALAR))
                    rows[block[i]][block[j]] = rows[block[j]][block[i]] = entry
    return ShapeOperatorSet("planted", n, p, tuple(map(Matrix, ops)), tuple(f"B{a + 1}" for a in range(p)))


@st.composite
def dense_blocks(draw):
    """Random symmetric operators of size 1-7 (odd and even), p = 1-4: entries
    (a + b sqrt3) / D with small rational a, b and one D per operator, up to
    3^25; zero entries and all-zero operators among them."""
    n = draw(st.integers(1, 7), label="n")
    p = draw(st.integers(1, 4), label="p")
    ops = []
    for _ in range(p):
        den = draw(st.sampled_from([1, 7, 10**12 + 39, 3**25]), label="denominator")
        zero = draw(st.integers(0, 3), label="zero operator") == 0
        rows = [[QuadExt(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if not zero:
                    rows[i][j] = rows[j][i] = draw(st.one_of(st.just(QuadExt(0)), SCALAR, SCALAR)) / den
        ops.append(Matrix(rows))
    return ShapeOperatorSet("dense", n, p, tuple(ops), tuple(f"B{a + 1}" for a in range(p)))


def reference_symbolic_sweep(data):
    """The verdict decided on the product's coefficients alone, block by block
    never consulted, by the independent oracle `sphere_constant`; a coefficient
    is reduced modulo the sphere only to give the witness."""
    constants = []
    for power, coeff in enumerate(normal_char_poly(data).coeffs):
        value = sphere_constant(coeff, data.n - power)
        if value is None:
            return SweepVerdict(False, None, reduce_mod_sphere(coeff), power)
        constants.append(value)
    return SweepVerdict(True, UniPoly(constants), None, None)


@st.composite
def block_sums(draw):
    """Direct sums of 2-4 pieces at p = 2, repeats likely: the two m = 1
    built-ins, the constant pair diag(c, -c), [[0, c], [c, 0]], and a random
    symmetric 1 x 1 or 2 x 2 block, which may vary over the sphere."""
    zero = QuadExt(0)

    def piece():
        kind = draw(st.sampled_from(["g6_m1_M1", "g6_m1_M2", "pair", "random"]), label="piece")
        if kind.startswith("g6"):
            return builtin(kind)
        c = draw(st.sampled_from([QuadExt(1), S("sqrt3"), S("-1/2")]), label="c")
        if kind == "pair":
            ops = (Matrix([[c, zero], [zero, -c]]), Matrix([[zero, c], [c, zero]]))
            return ShapeOperatorSet("pair", 2, 2, ops, ("B1", "B2"))
        n = draw(st.integers(1, 2), label="n")
        ops = []
        for _ in range(2):
            rows = [[zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = draw(st.sampled_from([zero, c, -c]))
            ops.append(Matrix(rows))
        return ShapeOperatorSet("random", n, 2, tuple(ops), ("B1", "B2"))

    data = piece()
    for _ in range(draw(st.integers(1, 3), label="more pieces")):
        data = direct_sum(data, piece())
    return data


def interleaved():
    """p=2, n=4 with the blocks {0, 2} and {1, 3}: B1 = diag(1, 1, -1, -1)
    and B2 couples 0<->2 and 1<->3 with 1; the spectrum is +-|t| twice."""
    b1 = Matrix.diagonal([S(e) for e in ("1", "1", "-1", "-1")])
    b2 = Matrix([[S("1" if abs(i - j) == 2 else "0") for j in range(4)] for i in range(4)])
    return ShapeOperatorSet("interleaved", 4, 2, (b1, b2), ("B1", "B2"))


def dense_block():
    """p=2, n=3, every entry nonzero and some with sqrt3: one block."""
    b1 = Matrix([[S(e) for e in row.split()] for row in ("1 sqrt3 -2", "sqrt3 1/2 1+sqrt3", "-2 1+sqrt3 -3/2")])
    b2 = Matrix([[S(e) for e in row.split()] for row in ("-1 2/3 1", "2/3 2*sqrt3 -1", "1 -1 1/3")])
    return ShapeOperatorSet("dense", 3, 2, (b1, b2), ("B1", "B2"))


def convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def planted_kernels(draw):
    """Operators with a planted common kernel: random symmetric r x r blocks,
    or at p <= 2 the pair diag(c, -c), [[0, c], [c, 0]], whose spectrum +-c|t|
    is constant, padded with m = 1-3 zero rows and columns, n = r + m at most
    6, then a Cayley frame and a Cayley normal rotation from a drawn seed:
    every entry nonzero as a rule, yet the joint rank is at most r."""
    p = draw(st.integers(1, 3), label="p")
    constant = p <= 2 and draw(st.booleans(), label="constant pair")
    if constant:
        c, zero = draw(SCALAR.filter(bool), label="c"), QuadExt(0)
        blocks = ([[c, zero], [zero, -c]], [[zero, c], [c, zero]])[:p]
    else:
        r = draw(st.integers(1, 4), label="r")
        blocks = [[[QuadExt(0)] * r for _ in range(r)] for _ in range(p)]
        for rows in blocks:
            for i in range(r):
                for j in range(i, r):
                    rows[i][j] = rows[j][i] = draw(st.one_of(st.just(QuadExt(0)), SCALAR))
    r = len(blocks[0])
    m = draw(st.integers(1, min(3, 6 - r)), label="m")
    pad = [QuadExt(0)] * m
    ops = tuple(Matrix([list(row) + pad for row in rows] + [[QuadExt(0)] * (r + m)] * m) for rows in blocks)
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    data = ShapeOperatorSet("kernel", r + m, p, ops, tuple(f"B{a + 1}" for a in range(p)))
    return rotate_normals(change_frame(data, cayley_frame(r + m, rng)), cayley_frame(p, rng)), constant


def pair_rank(rows):
    """Rank over Q(sqrt3) of a matrix of Fraction pairs (a, b), a + b sqrt3:
    Gaussian elimination on whole rows, any nonzero pivot in its column."""
    rows, rank = [list(row) for row in rows], 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != (0, 0)), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        a, b = rows[rank][col]
        norm = a * a - 3 * b * b
        for r in range(rank + 1, len(rows)):
            c, e = rows[r][col]
            # f = (c + e sqrt3) / (a + b sqrt3); row r -= f row rank
            f, g = (c * a - 3 * e * b) / norm, (e * a - c * b) / norm
            rows[r] = [(x - f * u - 3 * g * v, y - f * v - g * u) for (x, y), (u, v) in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def fraction_pairs(m):
    return [[(Fraction(e.x, e.d), Fraction(e.y, e.d)) for e in row] for row in m.rows]


@st.composite
def packed_factors(draw):
    """(blocks, base, p): 1-3 (polynomial in lambda, copies) factors in p = 1-3
    variables, packed as `_multiply` takes the blocks, and the base of their
    monomials.  Each coefficient is zero, one term or a few, with sqrt3 parts
    over a denominator of -12..12 (the kernel's (-1)^k k! op_den^k is negative
    at odd k), and the leading one is nonzero, so that no factor is the zero
    polynomial.  Exponents are 0-3: the product's stay below the base, 3 times
    the copies of all factors plus 1."""
    p = draw(st.integers(1, 3), label="p")
    part = st.integers(-6, 6)
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * p), st.tuples(part, part).filter(any), max_size=3)
    den = st.integers(-12, 12).filter(bool)
    factors = []
    for _ in range(draw(st.integers(1, 3), label="factors")):
        coeffs = draw(st.lists(terms, max_size=3), label="lower coefficients") + [draw(terms.filter(bool), label="leading")]
        dens = draw(st.lists(den, min_size=len(coeffs), max_size=len(coeffs)), label="denominators")
        factors.append((list(zip(coeffs, dens)), draw(st.integers(1, 2), label="copies")))
    base = 1 + 3 * sum(copies for _, copies in factors)
    blocks = [
        ([([(sum(e * base**a for a, e in enumerate(exps)), x, y) for exps, (x, y) in t.items()], d) for t, d in poly], copies)
        for poly, copies in factors
    ]
    return blocks, base, p


def diagonal_copies(first, second, n=5):
    """p = 2 and n copies of the 1 x 1 block first t1 + second t2: the lambda^0
    coefficient of the product, (-first t1 - second t2)^n, holds the exponent
    n, the largest digit of the base n + 1."""
    ops = tuple(Matrix.diagonal([QuadExt(c)] * n) for c in (first, second))
    return ShapeOperatorSet("copies", n, 2, ops, ("B1", "B2"))


@st.composite
def packed_polynomials(draw):
    """A packed polynomial in lambda of degree n = 0-10 at p = 1-4, as the
    kernel gives it, lowest lambda-power first, with each coefficient of
    lambda^(n-k) homogeneous of degree k.  Below a drawn power every
    coefficient is constant on the sphere: c (t1^2 + ... + tp^2)^(k/2) with c
    in Q(sqrt3), zero included, or zero at odd k.  From that power on each is
    such a polynomial alone, with one coefficient changed (or dropped) or
    with one monomial of an odd exponent added, or random terms, at odd k
    too.  Returns (coefficients, base, p, MultiPolys)."""
    p, n = draw(st.integers(1, 4), label="p"), draw(st.integers(0, 10), label="n")
    base = n + 1 + draw(st.integers(0, 2), label="base above n")
    first = draw(st.integers(0, n + 1), label="first power drawn freely")
    coeffs, polys = [], []
    for k in range(n, -1, -1):
        monomials = [tuple(combo.count(a) for a in range(p)) for combo in combinations_with_replacement(range(p), k)]
        den = draw(st.sampled_from([1, 3, -6, 35]), label="den")
        pair = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
        if n - k < first:
            kind = "zero" if k % 2 else "sphere"
        else:
            kind = draw(st.sampled_from(["sphere", "changed", "odd", "random"] if k % 2 == 0 else ["random"]))
        table = {}
        if kind == "zero":
            pass
        elif kind == "random":
            for exps in draw(st.lists(st.sampled_from(monomials), max_size=6, unique=True), label="monomials"):
                table[exps] = draw(pair, label="coefficient")
        else:
            x, y = draw(pair, label="c")
            for combo in combinations_with_replacement(range(p), k // 2):
                halves = [combo.count(a) for a in range(p)]
                v = math.factorial(k // 2) // math.prod(map(math.factorial, halves))
                table[tuple(2 * e for e in halves)] = (x * v, y * v)
            odd = [exps for exps in monomials if any(e % 2 for e in exps)]
            if kind == "odd" and odd:
                exps = draw(st.sampled_from(odd), label="odd monomial")
                table[exps] = draw(pair.filter(any), label="its coefficient")
            elif kind != "sphere":
                exps = draw(st.sampled_from(sorted(table)), label="changed monomial")
                table[exps] = draw(pair.filter(lambda c, old=table[exps]: c != old), label="its new coefficient")
        table = {exps: c for exps, c in table.items() if any(c)}
        order = draw(st.permutations(sorted(table)), label="term order")
        coeffs.append(([(sum(e * base**a for a, e in enumerate(exps)), *table[exps]) for exps in order], den))
        polys.append(MultiPoly(p, {exps: QuadExt._make(*table[exps], den) for exps in order}))
    return coeffs, base, p, polys


class TestSymbolic:
    def test_m1_M1_constant_quintic(self):
        verdict = symbolic_sweep(builtin("g6_m1_M1"))
        assert verdict.constant
        assert verdict.char_poly == QUINTIC
        assert verdict.witness is None

    def test_m2_M2_constant_squared_quintic(self):
        # expansion oracle: convolve the quintic's rational coefficients
        quintic_rats = [Fraction(0), Fraction(1), Fraction(0), Fraction(-10, 3), Fraction(0), Fraction(1)]
        squared = convolve(quintic_rats, quintic_rats)
        assert squared == [0, 0, 1, 0, Fraction(-20, 3), 0, Fraction(118, 9), 0, Fraction(-20, 3), 0, 1]
        verdict = symbolic_sweep(builtin("g6_m2_M2"))
        assert verdict.constant
        assert verdict.char_poly == UniPoly([QuadExt(c) for c in squared])
        assert verdict.char_poly == QUINTIC * QUINTIC

    def test_single_operator_with_symmetric_spectrum(self):
        verdict = symbolic_sweep(single_operator(["1", "-1"]))
        assert verdict.constant
        assert verdict.char_poly == UniPoly([QuadExt(-1), QuadExt(0), QuadExt(1)])

    def test_single_operator_nonconstant(self):
        verdict = symbolic_sweep(single_operator(["1", "0"]))
        assert not verdict.constant
        assert verdict.char_poly is None
        assert verdict.witness is not None
        assert verdict.witness_power == 1  # the lambda coefficient -t1

    def test_single_operator_criterion_matches_direct_computation(self):
        # p=1 sphere is {1, -1}: constant iff char_poly(A) == char_poly(-A)
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 4)
            entries = [str(rng.randint(-2, 2)) for _ in range(n)]
            if sum(int(e) for e in entries) != 0:
                continue
            data = single_operator(entries)
            a = data.operators[0]
            direct = a.char_poly() == (a * -1).char_poly()
            assert symbolic_sweep(data).constant == direct

    def test_even_dimension_odd_coefficients_phrasing(self):
        # for even n the direct criterion reads: odd-power coefficients vanish
        rng = random.Random(19)
        for _ in range(40):
            n = rng.choice([2, 4])
            entries = [str(rng.randint(-2, 2)) for _ in range(n)]
            data = single_operator(entries)
            poly = data.operators[0].char_poly()
            odd_vanish = all(not poly.coeffs[k] for k in range(1, n, 2))
            assert symbolic_sweep(data).constant == odd_vanish

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_constant_polynomial_factors_with_multiplicity(self, name):
        data = builtin(name)
        m = data.m_tag
        verdict = symbolic_sweep(data)
        assert verdict.constant
        factors = [
            UniPoly([QuadExt(0), QuadExt(1)]),                      # lambda
            UniPoly([QuadExt(-3), QuadExt(0), QuadExt(1)]),          # lambda^2 - 3
            UniPoly([QuadExt(Fraction(-1, 3)), QuadExt(0), QuadExt(1)]),  # lambda^2 - 1/3
        ]
        assert verdict.char_poly == math.prod(factors * m, start=UniPoly([QuadExt(1)]))

    @settings(max_examples=80, deadline=None)
    @given(operator_sets())
    def test_homogeneity_agrees_with_sphere_reduction(self, data):
        for power, coeff in enumerate(normal_char_poly(data).coeffs):
            value = sphere_constant(coeff, data.n - power)
            reduced = reduce_mod_sphere(coeff)
            assert (value is not None) == reduced.is_constant()
            if value is not None:
                assert value == reduced.constant_value()

    @pytest.mark.parametrize("name", BUILTIN_NAMES + ("sum20",))
    def test_constant_data_decides_each_distinct_block_and_reduces_nothing(self, monkeypatch, name):
        data = sum20() if name == "sum20" else builtin(name)
        blocks = sweep._distinct_blocks(data)
        decided = count_calls(monkeypatch, sweep, "_constants")
        reduced = count_calls(monkeypatch, polyring, "reduce_mod_sphere")
        assert symbolic_sweep(data).constant
        assert [poly for poly, _, _ in decided] == [poly for poly, _ in blocks]
        assert not reduced

    @pytest.mark.parametrize(
        "make", [lambda: single_operator(["1", "0"], "lopsided"), dense14], ids=["lopsided", "dense14"]
    )
    def test_only_the_witness_is_reduced(self, monkeypatch, make):
        # lopsided: the varying block, then the product; dense14: one block, the product itself
        data = make()
        reduce, calls = polyring.reduce_mod_sphere, []

        def recorded(coeff):
            calls.append((coeff, reduce(coeff)))
            return calls[-1][1]

        monkeypatch.setattr(polyring, "reduce_mod_sphere", recorded)
        verdict = symbolic_sweep(data)
        assert not verdict.constant
        assert len(calls) == 1
        assert verdict.witness is calls[0][1]
        assert calls[0][0] == normal_char_poly(data).coeffs[verdict.witness_power]

    def test_verdict_fields_must_match_flag(self):
        with pytest.raises(ValueError):
            SweepVerdict(True, None, None, None)


class TestPackedDecision:
    @settings(max_examples=300, deadline=None)
    @given(packed_polynomials())
    def test_constants_equal_those_of_the_reduction_and_the_reference(self, case):
        # the constants up to the first coefficient that is not constant on the sphere
        coeffs, base, p, polys = case
        expected = []
        for power, f in enumerate(polys):
            reduced = reduce_mod_sphere(f)
            value = reduced.constant_value() if reduced.is_constant() else None
            assert sphere_constant(f, len(polys) - 1 - power) == value
            if value is None:
                break
            expected.append(value)
        assert sweep._constants(coeffs, base, p) == expected


class TestNormalCharPoly:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 11).flatmap(lambda b: st.tuples(st.just(b), st.lists(st.integers(0, b - 1), max_size=40))))
    def test_unpacking_equals_the_digit_expression(self, case):
        # a packed monomial: exponent a of t_(a+1) is digit a in base n + 1
        base, digits = case
        m = sum(e * base**a for a, e in enumerate(digits))
        p = len(digits)
        assert sweep._unpack(m, base, p) == tuple(m // base**a % base for a in range(p)) == tuple(digits)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name):
        assert_kernel_matches_reference(builtin(name))

    def test_signed_permutation_frame(self):
        rng = random.Random(3)
        data = builtin("g6_m2_M1")
        data = change_frame(data, signed_permutation(data.n, rng))
        assert_kernel_matches_reference(rotate_normals(data, signed_permutation(data.p, rng)))

    def test_cayley_frame_with_normal_rotation(self):
        rng = random.Random(5)
        data = builtin("g6_m1_M2")
        q = cayley_frame(data.n, rng)
        assert q @ Matrix(zip(*q.rows)) == Matrix.identity(data.n, QuadExt(1))
        data = rotate_normals(change_frame(data, q), cayley_frame(data.p, rng))
        assert all(e for op in data.operators for row in op.rows for e in row)  # dense
        assert_kernel_matches_reference(data)

    def test_direct_sum(self):
        data = direct_sum(builtin("g6_m1_M1"), builtin("g6_m1_M2"))
        assert_kernel_matches_reference(data)
        assert symbolic_sweep(data).char_poly == QUINTIC * QUINTIC

    def test_single_normal(self):
        m = Matrix([[S("1"), S("sqrt3"), S("0")], [S("sqrt3"), S("-1/2"), S("2/3")], [S("0"), S("2/3"), S("1/2")]])
        data = ShapeOperatorSet("p1", 3, 1, (m,), ("B1",))
        assert_kernel_matches_reference(data)
        assert_kernel_matches_reference(single_operator(["1", "-1"]))

    def test_zero_operator(self):
        data = ShapeOperatorSet("flat", 3, 2, (Matrix.filled(3, 3, QuadExt(0)),) * 2, ("B1", "B2"))
        assert_kernel_matches_reference(data)
        assert [bool(c) for c in normal_char_poly(data).coeffs] == [False, False, False, True]

    def test_one_zero_operator_among_others(self):
        a = builtin("g6_m1_M1")
        zero = Matrix.filled(a.n, a.n, QuadExt(0))
        data = ShapeOperatorSet("padded", a.n, 3, (a.operators[0], zero, a.operators[1]), ("B1", "B2", "B3"))
        assert_kernel_matches_reference(data)

    def test_non_constant_single_operator(self):
        data = single_operator(["1", "0"])
        assert_kernel_matches_reference(data)
        assert not symbolic_sweep(data).constant

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_symmetric_operators(self, draw):
        n = draw.draw(st.integers(1, 4), label="n")
        p = draw.draw(st.integers(1, 3), label="p")
        rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)
        scalar = st.builds(QuadExt, rational, st.one_of(st.just(Fraction(0)), rational))
        ops = []
        for _ in range(p):
            rows = [[QuadExt(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = draw.draw(st.one_of(st.just(QuadExt(0)), scalar))
            ops.append(Matrix(rows))
        data = ShapeOperatorSet("random", n, p, tuple(ops), tuple(f"B{a + 1}" for a in range(p)))
        assert_kernel_matches_reference(data)

    @settings(max_examples=25, deadline=None)
    @given(dense_blocks())
    @example(dense_block())
    def test_random_dense_blocks(self, data):
        assert_kernel_matches_reference(data)

    def test_no_power_above_half_the_block_is_formed(self, monkeypatch):
        # n = 3, p = 2: A^2 holds t1^2, t1*t2 and t2^2, one product each;
        # Tr(A^3) = <A, A^2>_F, so A^3 and its four products are never formed
        calls = count_calls(monkeypatch, linalg, "pair_product_rows")
        normal_char_poly(dense_block())
        assert len(calls) == 3


def framed(name, rng, frame):
    """A built-in in a random frame with a random normal rotation, as the benchmark builds them."""
    base = builtin(name)
    return rotate_normals(change_frame(base, frame(base.n, rng)), frame(base.p, rng))


def seeded_sum(names, seed):
    rng = random.Random(seed)
    return functools.reduce(direct_sum, [framed(name, rng, signed_permutation) for name in names])


def data_file(name):
    return lambda: parse_dataset((Path(__file__).parent / "data" / name).read_text(encoding="utf-8"))


# input -> the work MAX_SWEEP_WORK counts for it: C(m + p, p) (m^2 + p) per block
WORK = {
    **{name: (lambda name=name: builtin(name), work) for name, work in zip(BUILTIN_NAMES, (81, 279, 1362, 11087))},
    "lopsided": (lambda: single_operator(["1", "0"], "lopsided"), 8),
    "cayley": (data_file("g6_m2_M2_cayley.dat"), 29_458),
    "sum20": (data_file("sum20_g6_m2_M2.dat"), 22_174),
    "dense14_p3": (dense14, 135_320),
    "steps22": (lambda: parse_dataset(STEPS_22), 550_764),
    "dense8_p6": (lambda: parse_dataset(DENSE_8_BY_8), 210_210),
    "diagonal9": (lambda: parse_dataset(DIAGONAL_9), 900),
    "sum50": (lambda: functools.reduce(direct_sum, [builtin("g6_m2_M2")] * 5), 55_435),
    **{f"sum20_m1_seed{seed}": (lambda seed=seed: seeded_sum(["g6_m1_M1", "g6_m1_M2"] * 2, seed), 720) for seed in (1, 2)},
    **{f"sum20_m2_seed{seed}": (lambda seed=seed: seeded_sum(["g6_m2_M1", "g6_m2_M2"], seed), 12_449) for seed in (1, 2)},
    **{f"{name}_cayley_seed{seed}": (lambda name=name, seed=seed: framed(name, random.Random(seed), cayley_frame), work)
       for name, work in zip(BUILTIN_NAMES, (567, 567, 29_458, 29_458)) for seed in (1, 2)},
    "dense40_p2": (lambda: parse_dataset(dense_file(40, 2)), 1_379_322),
    "dense8_p8": (lambda: parse_dataset(dense_file(8, 8)), 926_640),
}
REFUSED = {"dense40_p2", "dense8_p8"}


class TestJointRank:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(planted_kernels() | dense_blocks().map(lambda data: (data, False)))
    @example((ShapeOperatorSet("flat", 3, 2, (Matrix.filled(3, 3, QuadExt(0)),) * 2, ("B1", "B2")), False))
    @example((single_operator(["0", "sqrt3", "0", "-1/2"]), False))
    @example((dense_block(), False))
    def test_the_rank_step_equals_a_fraction_elimination(self, case):
        # G = sum_a A_a^2 as integer pairs over one denominator, as the kernel
        # sums it; its rank is that of the stacked [A_1 | ... | A_p]
        data, _ = case
        squares = [op @ op for op in data.operators]
        rank = sweep._psd_rank([lower_triangle(rows, data.n) for rows in integer_rows(squares)[0]], data.n)
        gram = functools.reduce(Matrix.__add__, squares)
        stacked = [sum(rows, []) for rows in zip(*map(fraction_pairs, data.operators))]
        assert rank == pair_rank(fraction_pairs(gram)) == pair_rank(stacked)

    @pytest.mark.parametrize(
        "operators, rank",
        [
            (["0 0 0; 0 0 0; 0 0 0"], 0),
            (["1 0 0; 0 -1 0; 0 0 sqrt3"], 3),
            (["sqrt3 0 0; 0 0 0; 0 0 1/2*sqrt3"], 2),
            # G = [[4, 4 sqrt3], [4 sqrt3, 12]]: an off-diagonal entry with no rational part
            (["1 sqrt3; sqrt3 3"], 1),
            (["1 sqrt3; sqrt3 3", "0 0; 0 1"], 2),
            (["1 1+sqrt3 0; 1+sqrt3 4+2*sqrt3 0; 0 0 0", "0 0 0; 0 0 0; 0 0 0"], 1),
        ],
    )
    def test_the_rank_of_small_operators(self, operators, rank):
        ops = [Matrix([[S(e) for e in row.split()] for row in op.split(";")]) for op in operators]
        n = ops[0].nrows
        squares, _ = integer_rows([op @ op for op in ops])
        assert sweep._psd_rank([lower_triangle(rows, n) for rows in squares], n) == rank

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(planted_kernels())
    def test_planted_kernels_match_the_reference(self, case):
        data, constant = case
        assert_kernel_matches_reference(data)
        if constant:
            assert symbolic_sweep(data).constant

    def test_the_cayley_file_forms_powers_to_half_its_joint_rank(self, monkeypatch):
        # n = 10, p = 3 and joint rank 8: A^2, A^3 and A^4 take 6 + 10 + 15
        # products, one per monomial; A^5 and its 21 would only feed E_9 = E_10 = 0
        calls = count_calls(monkeypatch, linalg, "pair_product_rows")
        poly = normal_char_poly(data_file("g6_m2_M2_cayley.dat")())
        assert len(calls) == 31
        assert not poly.coeffs[0] and not poly.coeffs[1] and poly.coeffs[2]


class TestWorkBound:
    @pytest.mark.parametrize("excess", [0, 1])
    def test_the_bound_counts_the_work_before_any_block_runs(self, monkeypatch, excess):
        # dim 1: C(1 + p, p) (1 + p) = (p + 1)^2, 799,236 at codim 893
        p = 893 + excess
        data = ShapeOperatorSet("deep", 1, p, (Matrix([[QuadExt(0)]]),) * p, tuple(f"B{a}" for a in range(p)))
        blocks = count_calls(monkeypatch, sweep, "_block_char_poly")
        if excess:
            with pytest.raises(sweep.SweepTooLarge, match=f" {(p + 1) ** 2} units of work, .* {sweep.MAX_SWEEP_WORK}$"):
                normal_char_poly(data)
            assert not blocks
        else:
            assert str(normal_char_poly(data)) == "l"

    @pytest.mark.parametrize("name", list(WORK))
    def test_the_work_of_named_inputs(self, monkeypatch, name):
        make, work = WORK[name]
        data = make()
        blocks = count_calls(monkeypatch, sweep, "_block_char_poly")
        for bound in (0, sweep.MAX_SWEEP_WORK):
            monkeypatch.setattr(sweep, "MAX_SWEEP_WORK", bound)
            if work > bound:
                with pytest.raises(sweep.SweepTooLarge, match=f" {work} units of work, .* {bound}$"):
                    normal_char_poly(data)
        assert not blocks
        assert (work > sweep.MAX_SWEEP_WORK) == (name in REFUSED)


def reference_components(ops, n):
    """Union-find over the nonzero positions (i, j) of the operators' rows,
    each block ascending, sorted by least row."""
    parent = list(range(n))

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for op in ops:
        for i, row in enumerate(op):
            for j, _, _ in row:
                parent[find(i)] = find(j)
    blocks = {}
    for k in range(n):
        blocks.setdefault(find(k), []).append(k)
    return sorted(blocks.values())


def symmetric_rows(n, entries):
    """Sparse rows of the symmetric n x n pattern with the given (i, j)
    entries and their mirrors, each 1, in increasing column order."""
    columns = [set() for _ in range(n)]
    for i, j in entries:
        columns[i].add(j)
        columns[j].add(i)
    return tuple(tuple((j, 1, 0) for j in sorted(row)) for row in columns)


class CountingRows(tuple):
    """An operator's rows that count how often each is read."""

    def __new__(cls, rows):
        op = super().__new__(cls, rows)
        op.reads = [0] * len(op)
        return op

    def __getitem__(self, i):
        self.reads[i] += 1
        return super().__getitem__(i)


class TestComponents:
    def test_rows_joined_through_nonzeros_in_order_of_least_row(self):
        ops = (symmetric_rows(7, [(0, 6), (1, 3)]), symmetric_rows(7, [(2, 3), (5, 2), (4, 4)]))
        assert sweep._components(ops, 7) == [[0, 6], [1, 2, 3, 5], [4]]

    def test_no_rows(self):
        assert sweep._components((), 0) == []
        assert sweep._components(((),), 0) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_union_find(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        ops = tuple(
            symmetric_rows(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))])
            for _ in range(rng.randint(1, 3))
        )
        assert sweep._components(ops, n) == reference_components(ops, n)

    def test_each_row_is_read_once_per_operator(self):
        # a search restarted per component would read every row once per block
        ops = (CountingRows(symmetric_rows(3000, [(k, k) for k in range(3000)])), CountingRows(((),) * 3000))
        assert sweep._components(ops, 3000) == [[k] for k in range(3000)]
        assert max(max(op.reads) for op in ops) == 1


class TestBlocks:
    @settings(max_examples=60, deadline=None)
    @given(planted_blocks())
    @example(ShapeOperatorSet("flat", 3, 2, (Matrix.filled(3, 3, QuadExt(0)),) * 2, ("B1", "B2")))
    @example(single_operator(["0", "sqrt3", "0", "-1/2"]))  # 1x1 blocks, two of them zero
    @example(single_normal())
    @example(dense_block())
    @example(interleaved())
    @example(diagonal_copies(1, 0))
    @example(diagonal_copies(0, 1))
    @example(diagonal_copies(1, 1))
    def test_planted_blocks_match_the_reference(self, data):
        assert_kernel_matches_reference(data)

    def test_dense_data_is_one_block(self, monkeypatch):
        data = dense_block()
        blocks = count_calls(monkeypatch, sweep, "_block_char_poly")
        normal_char_poly(data)
        assert [n for _, _, n, _ in blocks] == [data.n]

    def test_interleaved_blocks(self):
        data = interleaved()
        ops, _ = data.integer_form
        assert sweep._components(ops, 4) == [[0, 2], [1, 3]]
        quartic = UniPoly([QuadExt(1), QuadExt(0), QuadExt(-2), QuadExt(0), QuadExt(1)])
        assert symbolic_sweep(data).char_poly == quartic

    @pytest.mark.parametrize(
        "make, largest",
        [(lambda: builtin("g6_m2_M1"), 4), (sum20, 8), (sum30, 8)],
        ids=["g6_m2_M1", "sum20", "sum30"],
    )
    def test_the_power_kernel_runs_on_the_largest_block(self, monkeypatch, make, largest):
        # components [1, 1, 4, 4] for g6_m2_M1 and [1, 1, 8] per g6_m2_M2
        data = make()
        calls = count_calls(monkeypatch, linalg, "pair_product_rows")
        normal_char_poly(data)
        assert max(n for _, n in calls) == largest < data.n

    def test_three_copies_are_constant_with_the_cubed_polynomial(self):
        verdict = symbolic_sweep(sum30())
        assert verdict.constant
        m2 = symbolic_sweep(builtin("g6_m2_M2")).char_poly
        assert verdict.char_poly == m2 * m2 * m2

    def test_each_distinct_block_runs_once(self, monkeypatch):
        # the components of g6_m2_M2 are [1, 1, 8], and the 1 x 1 blocks are
        # zero: the sum of two copies runs one 1 x 1 and one 8 x 8 block
        data = sum20()
        ops, _ = data.integer_form
        assert sorted(map(len, sweep._components(ops, data.n))) == [1, 1, 1, 1, 8, 8]
        blocks = count_calls(monkeypatch, sweep, "_block_char_poly")
        poly = normal_char_poly(data)
        monkeypatch.undo()
        assert sorted(n for _, _, n, _ in blocks) == [1, 8]
        m2 = normal_char_poly(builtin("g6_m2_M2"))
        assert poly == m2 * m2

    @pytest.mark.parametrize(
        "make", [lambda name=name: builtin(name) for name in BUILTIN_NAMES] + [sum20, sum30, interleaved],
        ids=list(BUILTIN_NAMES) + ["sum20", "sum30", "interleaved"],
    )
    def test_constant_blocks_multiply_no_multipoly(self, monkeypatch, make):
        data = make()
        products = count_calls(monkeypatch, MultiPoly, "__mul__")
        verdict = symbolic_sweep(data)
        monkeypatch.undo()
        assert verdict.constant
        assert not products
        assert verdict == reference_symbolic_sweep(data)

    def test_a_varying_block_among_constant_copies(self, monkeypatch):
        # lambda - t1 times the constant polynomial of sum20: its lambda^4
        # coefficient -t1 (t1^2 + t2^2 + t3^2)^8 is the first to vary
        zero = Matrix([[QuadExt(0)]])
        varying = ShapeOperatorSet("varying", 1, 3, (Matrix([[S("1")]]), zero, zero), ("B1", "B2", "B3"))
        data = direct_sum(sum20(), varying)
        blocks = count_calls(monkeypatch, sweep, "_block_char_poly")
        verdict = symbolic_sweep(data)
        monkeypatch.undo()
        assert sorted(n for _, _, n, _ in blocks) == [1, 1, 8]
        assert not verdict.constant
        assert verdict.witness_power == 4
        assert str(verdict.witness) == "-t1"
        assert verdict == reference_symbolic_sweep(data)

    @settings(max_examples=40, deadline=None)
    @given(block_sums())
    def test_verdict_equals_the_verdict_on_the_product(self, data):
        assert symbolic_sweep(data) == reference_symbolic_sweep(data)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(packed_factors())
    def test_the_packed_product_equals_the_multipoly_product(self, case):
        blocks, base, p = case
        factors = [(sweep._poly(poly, base, p), copies) for poly, copies in blocks]
        assert sweep._poly(sweep._multiply(blocks), base, p) == reference_product(factors)

    def test_verdict_is_taken_on_the_product(self, monkeypatch):
        # diag(t, -t): each block's lambda -+ t varies over the sphere {1, -1},
        # their product lambda^2 - t^2 does not
        data = single_operator(["1", "-1"], "split")
        blocks = count_calls(monkeypatch, sweep, "_block_char_poly")
        verdict = symbolic_sweep(data)
        monkeypatch.undo()
        assert [n for _, _, n, _ in blocks] == [1, 1]
        for rows, den, n, base in blocks:
            assert sphere_constant(sweep._poly(sweep._block_char_poly(rows, den, n, base), base, 1).coeffs[0], 1) is None
        assert verdict.constant
        assert str(verdict.char_poly) == "l^2 - 1"


class TestNormalOperator:
    def test_entries_are_linear_forms(self):
        a = normal_shape_operator(builtin("g6_m1_M1"))
        assert a[0, 0].terms == {(1, 0): S("sqrt3")}
        assert a[0, 4].terms == {(0, 1): S("sqrt3")}


class TestNumeric:
    def test_m1_M2_thousand_samples(self):
        deviation = numeric_sweep(builtin("g6_m1_M2"), 1000, 0)
        assert deviation < 1e-9

    def test_zero_operator(self, monkeypatch):
        # every coefficient is zero or the leading 1: none is evaluated, and no
        # point is drawn after the baseline
        data = ShapeOperatorSet("flat", 3, 3, (Matrix.filled(3, 3, QuadExt(0)),) * 3, ("B1", "B2", "B3"))
        draw, drawn = sweep.unit_normal_samples, []
        monkeypatch.setattr(sweep, "unit_normal_samples", lambda *args: (drawn.append(x) or x for x in draw(*args)))
        calls = count_calls(monkeypatch, sweep, "eval_terms")
        assert numeric_sweep(data, 10, 0) == 0.0
        assert not calls and len(drawn) == 1

    def test_parity_deviation_of_non_minimal_single_operator(self):
        deviation = numeric_sweep(single_operator(["1", "0"]), 2, 0)
        assert deviation == 2.0

    def test_samples_must_be_positive(self):
        with pytest.raises(ValueError):
            numeric_sweep(builtin("g6_m1_M1"), 0, 0)

    def test_one_sample_compares_nothing_and_is_rejected(self):
        with pytest.raises(ValueError):
            numeric_sweep(single_operator(["1", "0"]), 1, 0)

    @pytest.mark.parametrize("excess", [0, 1], ids=["at", "above"])
    def test_samples_times_terms_is_bounded_before_any_sample_is_drawn(self, monkeypatch, excess):
        class Drawn(Exception):
            pass

        def drawn(*args):
            raise Drawn

        monkeypatch.setattr(sweep, "unit_normal_samples", drawn)
        # lambda^23: one term and 24 coefficients; 800,000 samples at p = 1 are within the coordinate bound
        data = ShapeOperatorSet("flat", 23, 1, (Matrix.filled(23, 23, QuadExt(0)),), ("B1",))
        assert 25 * 800_000 == sweep.MAX_SAMPLE_TERMS
        samples = 800_000 + excess
        if excess:
            with pytest.raises(sweep.SweepTooLarge, match=f"{samples * 25} term evaluations, .* {sweep.MAX_SAMPLE_TERMS}$"):
                numeric_sweep(data, samples, 0)
        else:
            with pytest.raises(Drawn):
                numeric_sweep(data, samples, 0)

    def test_the_largest_tested_sweeps_are_under_the_term_bound(self):
        # the n = 20 sum at 100,000 samples, and dim 1 at codim 256 with 4,000
        for data, samples in ((sum20(), 100_000), (dim1(256), 4_000)):
            coeffs = normal_char_poly(data).coeffs
            assert samples * data.p <= sweep.MAX_SAMPLE_COORDINATES
            assert samples * (sum(len(c.terms) for c in coeffs) + len(coeffs)) <= sweep.MAX_SAMPLE_TERMS

    def test_nan_drift_is_not_dropped(self, monkeypatch):
        # one NaN among finite drifts, for one coefficient at one point: the
        # baseline, one in the middle, the last
        data = builtin("g6_m1_M1")
        for index in (0, 5, 9):
            hits = inject_one_nan(monkeypatch, list(unit_normal_samples(data.p, 10, 0))[index], 3)
            assert math.isnan(numeric_sweep(data, 10, 0))
            assert len(hits) == 1
            monkeypatch.undo()

    def test_nan_block_drift_does_not_fall_back_to_the_product(self, monkeypatch):
        # NaN compares False with the tolerance: the blocks' NaN is the deviation, and the product's
        # coefficients are never converted
        data = builtin("g6_m1_M1")
        hits = inject_one_nan(monkeypatch, list(unit_normal_samples(data.p, 10, 0))[5], 3)
        tables = count_calls(monkeypatch, sweep, "float_terms")
        assert math.isnan(numeric_sweep(data, 10, 0))
        assert len(hits) == 1
        assert len(tables) == sum(len(poly) for poly, _ in sweep._distinct_blocks(data)) == 8

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_symbolically_constant_implies_tiny_deviation(self, name):
        assert symbolic_sweep(builtin(name)).constant
        assert numeric_sweep(builtin(name), 1000, 0) < 1e-9

    @pytest.mark.parametrize("factor", [10, 1000])
    def test_scaled_constant_data_stays_within_tolerance(self, factor):
        # the coefficient of lambda^(n-k) grows like factor^k; the sweep
        # compares A / 2^e, whose entries are below 2
        data = scaled(builtin("g6_m2_M2"), factor)
        assert numeric_sweep(data, 1000, 0) < NUMERIC_TOLERANCE

    def test_entries_below_two_are_not_scaled(self):
        for name in BUILTIN_NAMES:
            assert _scale_exponent(builtin(name)) == 0  # largest entry sqrt3
        assert _scale_exponent(scaled(builtin("g6_m2_M2"), 10)) == 4  # 10*sqrt3 / 16 < 2

    def test_scaled_non_constant_data_still_fails(self):
        data = scaled(single_operator(["1", "0"]), 10)
        assert numeric_sweep(data, 1000, 0) >= NUMERIC_TOLERANCE

    @pytest.mark.parametrize(
        "make, runs",
        [
            (make, ((2, 0), (300, 7)))
            for make in [lambda name=name: builtin(name) for name in BUILTIN_NAMES]
            + [
                lambda: single_operator(["1", "0"], "lopsided"),
                lambda: scaled(builtin("g6_m2_M2"), 10),
                single_normal,
                sum20,
            ]
        ]
        + [(lambda: dim1(256), ((50, 0),))],
        ids=list(BUILTIN_NAMES) + ["lopsided", "scaled10", "p1", "sum20", "codim256"],
    )
    def test_equals_a_loop_over_the_points(self, make, runs):
        data = make()
        for samples, seed in runs:
            assert repr(numeric_sweep(data, samples, seed)) == repr(pointwise_numeric_sweep(data, samples, seed))

    @pytest.mark.parametrize(
        "make, samples",
        [(lambda name=name: builtin(name), 300) for name in BUILTIN_NAMES]
        + [
            (lambda: framed("g6_m2_M1", random.Random(1), signed_permutation), 300),
            (lambda: framed("g6_m2_M2", random.Random(2), signed_permutation), 300),
            (data_file("sum20_g6_m2_M2.dat"), 300),
            (data_file("g6_m2_M2_cayley.dat"), 100),
            (lambda: scaled(builtin("g6_m2_M2"), 10), 300),
            (single_normal, 300),
            (lambda: builtin("g6_m2_M1"), 2 * sweep.CHUNK_POINTS + 3),
        ],
        ids=list(BUILTIN_NAMES)
        + ["g6_m2_M1_perm", "g6_m2_M2_perm", "sum20", "cayley", "scaled10", "p1", "g6_m2_M1_chunks"],
    )
    def test_every_bit_equals_the_reference_evaluation(self, make, samples):
        # the blocks multiplied by MultiPoly.__mul__ and power ladders built
        # for each coefficient give the same deviation, repr for repr
        data = make()
        for seed in (0, 7):
            assert repr(numeric_sweep(data, samples, seed)) == repr(reference_numeric_sweep(data, samples, seed))

    @pytest.mark.parametrize("excess", [-1, 0, 1, 2, 5, 6], ids=lambda e: f"chunk{e:+d}")
    def test_chunks_end_where_they_should(self, monkeypatch, excess):
        # chunks of 5: point 0 is the baseline, the drifts run from point 1
        monkeypatch.setattr(sweep, "CHUNK_POINTS", 5)
        samples = 5 + excess
        for data in (builtin("g6_m2_M1"), single_operator(["1", "0"]), scaled(builtin("g6_m2_M2"), 10)):
            evaluate, passes = sweep.eval_terms, []
            calls = count_calls(monkeypatch, sweep, "eval_terms")
            deviation = numeric_sweep(data, samples, 7)
            monkeypatch.setattr(sweep, "eval_terms", evaluate)
            assert repr(deviation) == repr(pointwise_numeric_sweep(data, samples, 7, passes))
            # the coefficients that are zero or one constant drift by exactly 0 and are not evaluated; the
            # blocks', then for diag(t, 0), whose block lambda - t drifts, the product's
            assert len(passes) == (2 if data.p == 1 else 1)
            varying = sum(coeff.degree() > 0 for coeffs in passes for coeff in coeffs)
            chunks = [size for _, _, size in calls]
            # at p = 1 the samples alternate between +1 and -1, and only those two are evaluated
            assert max(chunks) <= 5 and sum(chunks) == (samples if data.p > 1 else 2) * varying < samples * (data.n + 1)

    def test_at_p1_only_the_two_unit_normals_are_evaluated(self, monkeypatch, capsys, tmp_path):
        # the samples alternate between +1 and -1: 1,024,000 of them, at the
        # coordinate bound, read the deviation that 2 read, from 2 points
        path = tmp_path / "lopsided.dat"
        path.write_text("dataset lopsided\ndim 2\ncodim 1\noperator B1\n1 0\n0 0\n", encoding="utf-8")
        deviations, sizes = [], []
        for samples in (2, sweep.MAX_SAMPLE_COORDINATES):
            calls = count_calls(monkeypatch, sweep, "eval_terms")
            assert main(["sweep", str(path), "--mode", "numeric", "--samples", str(samples)]) == 1
            monkeypatch.undo()
            deviations.append([line for line in capsys.readouterr().out.splitlines() if line.startswith("max_deviation")])
            sizes.append([size for _, _, size in calls])
        assert sweep.MAX_SAMPLE_COORDINATES == 1_024_000
        assert deviations[0] == deviations[1] == ["max_deviation: 2.0"]
        # the baseline, then one point, for the block lambda - t1's -t1, which drifts by 2, then for the
        # product's -t1 at lambda^1: lambda^0 is zero and lambda^2 is 1
        assert sizes[0] == sizes[1] == [1] * 4

    def test_points_are_drawn_a_chunk_at_a_time(self, monkeypatch):
        monkeypatch.setattr(sweep, "CHUNK_POINTS", 5)
        draw, evaluate = sweep.unit_normal_samples, sweep.eval_terms
        drawn, seen = [], []

        def counted(p, samples, seed):
            for point in draw(p, samples, seed):
                drawn.append(point)
                yield point

        def recorded(terms, columns, size):
            seen.append(len(drawn))
            return evaluate(terms, columns, size)

        monkeypatch.setattr(sweep, "unit_normal_samples", counted)
        monkeypatch.setattr(sweep, "eval_terms", recorded)
        numeric_sweep(builtin("g6_m2_M1"), 16, 0)
        # the baseline point, then three chunks of five
        assert sorted(set(seen)) == [1, 6, 11, 16]

    def test_multiplications_grow_linearly_in_codim(self, monkeypatch):
        # the lambda^0 coefficient is a linear form in every direction: an
        # evaluation nested a level per direction made about codim^2 / 2 passes
        products = []
        for codim in (64, 128):
            calls = count_calls(monkeypatch, sweep, "mul")
            numeric_sweep(dim1(codim), 10, 0)
            monkeypatch.undo()
            products.append(len(calls))
        assert 0 < products[1] <= 2.1 * products[0]

    @pytest.mark.parametrize("data", [builtin("g6_m2_M1"), scaled(builtin("g6_m2_M2"), 10)], ids=["plain", "scaled"])
    def test_term_tables_and_conversions_do_not_grow_with_samples(self, monkeypatch, data):
        # _scale_exponent converts each nonzero entry once, and each distinct block's coefficients are
        # converted once: the blocks pass, so the product is not converted
        entries = sum(1 for op in data.operators for row in op.rows for entry in row if entry)
        passes = []
        pointwise_numeric_sweep(data, 2, 0, passes)
        (coeffs,) = passes
        for samples in (2, 300):
            tables = count_calls(monkeypatch, sweep, "float_terms")
            floats = count_calls(monkeypatch, QuadExt, "to_float")
            numeric_sweep(data, samples, 0)
            monkeypatch.undo()
            assert len(tables) == len(coeffs)
            assert len(floats) == entries + sum(len(c.terms) for c in coeffs)

    def test_samples_are_deterministic_and_unit_length(self):
        for p in (1, 2, 3):
            first = list(unit_normal_samples(p, 50, 7))
            second = list(unit_normal_samples(p, 50, 7))
            assert first == second
            for point in first:
                assert abs(sum(c * c for c in point) - 1.0) < 1e-12
        assert list(unit_normal_samples(1, 4, 0)) == [(1.0,), (-1.0,), (1.0,), (-1.0,)]

import random
from fractions import Fraction

import numpy as np
import pytest

from willmore.catalog import builtin
from willmore.exactnum import QuadExt, parse_scalar
from willmore.linalg import DimensionError, Matrix, UniPoly, components, integer_rows

S = parse_scalar


def rand_matrix(rng, nrows, ncols, span=3):
    return Matrix(
        [
            [QuadExt(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
    )


def det_oracle(m):
    """Cofactor expansion along the first row; independent of char_poly."""
    n = m.nrows
    if n == 1:
        return m[0, 0]
    total = QuadExt(0)
    for j in range(n):
        minor = Matrix([[m[i, k] for k in range(n) if k != j] for i in range(1, n)])
        term = m[0, j] * det_oracle(minor)
        total = total - term if j % 2 else total + term
    return total


def evaluate_at_matrix(poly, a):
    ident = Matrix.identity(a.nrows, QuadExt(1))
    acc = Matrix.filled(a.nrows, a.ncols, QuadExt(0))
    power = ident
    for c in poly.coeffs:
        acc = acc + power * c
        power = power @ a
    return acc


class TestMatrixArithmetic:
    def test_squares_sum_m1_family_one(self):
        data = builtin("g6_m1_M1")
        a6, a7 = data.operators
        expected = Matrix.diagonal([S("6"), S("2/3"), S("0"), S("2/3"), S("6")])
        assert a6 @ a6 + a7 @ a7 == expected

    def test_squares_sum_m1_family_two(self):
        data = builtin("g6_m1_M2")
        a6, a7 = data.operators
        got = a6 @ a6 + a7 @ a7
        expected = Matrix(
            [
                [S("4"), S("0"), S("0"), S("-2/3*sqrt3"), S("0")],
                [S("0"), S("8/3"), S("0"), S("0"), S("-2/3*sqrt3")],
                [S("0"), S("0"), S("0"), S("0"), S("0")],
                [S("-2/3*sqrt3"), S("0"), S("0"), S("8/3"), S("0")],
                [S("0"), S("-2/3*sqrt3"), S("0"), S("0"), S("4")],
            ]
        )
        assert got == expected

    def test_identity_multiplication(self):
        a = rand_matrix(random.Random(3), 4, 4)
        ident = Matrix.identity(4, QuadExt(1))
        assert ident @ a == a
        assert a @ ident == a

    def test_shape_mismatch(self):
        a = Matrix([[QuadExt(1), QuadExt(0)]])
        b = Matrix([[QuadExt(1)]])
        with pytest.raises(DimensionError):
            a + b
        with pytest.raises(DimensionError):
            a @ a


class TestTrace:
    def test_builtin_operator_traces_vanish(self):
        assert not builtin("g6_m1_M1").operators[0].trace()

    def test_printed_diagonal_sum(self):
        diag = Matrix.diagonal([S("6"), S("2/3"), S("0"), S("2/3"), S("6")])
        assert diag.trace() == QuadExt(Fraction(40, 3))

    def test_zero_matrix(self):
        assert not Matrix.filled(4, 4, QuadExt(0)).trace()

    def test_non_square(self):
        with pytest.raises(DimensionError):
            Matrix([[QuadExt(1), QuadExt(0)]]).trace()

    def test_cyclicity_on_random_conformable_pairs(self):
        rng = random.Random(11)
        for _ in range(60):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            a = rand_matrix(rng, r, c)
            b = rand_matrix(rng, c, r)
            assert (a @ b).trace() == (b @ a).trace()


class TestCharPoly:
    def test_diagonal_quintic(self):
        # lambda*(lambda^2 - 3)*(lambda^2 - 1/3), lowest degree first
        a6 = builtin("g6_m1_M1").operators[0]
        expected = UniPoly(
            [QuadExt(0), QuadExt(1), QuadExt(0), QuadExt(Fraction(-10, 3)), QuadExt(0), QuadExt(1)]
        )
        assert a6.char_poly() == expected

    def test_zero_matrix_cubes(self):
        assert Matrix.filled(3, 3, QuadExt(0)).char_poly() == UniPoly(
            [QuadExt(0)] * 3 + [QuadExt(1)]
        )

    def test_m1_family_two_spectrum_against_numeric_oracle(self):
        a7 = builtin("g6_m1_M2").operators[1]
        floats = np.array([[e.to_float() for e in row] for row in a7.rows])
        spectrum = np.sort(np.linalg.eigvalsh(floats))
        root3 = np.sqrt(3.0)
        expected = np.sort([root3, 1 / root3, 0.0, -1 / root3, -root3])
        assert np.max(np.abs(spectrum - expected)) < 1e-12
        # the exact polynomial then matches the diagonal family's
        assert a7.char_poly() == builtin("g6_m1_M1").operators[0].char_poly()

    def test_subleading_coefficient_is_minus_trace(self):
        rng = random.Random(23)
        for n in range(1, 6):
            a = rand_matrix(rng, n, n)
            poly = a.char_poly()
            assert poly.coeffs[n - 1] == -a.trace()

    def test_constant_coefficient_is_signed_determinant(self):
        rng = random.Random(29)
        for n in range(1, 6):
            a = rand_matrix(rng, n, n)
            det = det_oracle(a)
            constant = a.char_poly().coeffs[0]
            assert constant == (det if n % 2 == 0 else -det)

    def test_cayley_hamilton_up_to_six(self):
        rng = random.Random(31)
        zero6 = QuadExt(0)
        for n in range(1, 7):
            for _ in range(2):
                a = rand_matrix(rng, n, n, span=2)
                result = evaluate_at_matrix(a.char_poly(), a)
                assert result == Matrix.filled(n, n, zero6)


class TestSymmetry:
    def test_block_operator_with_rotation_cells(self):
        a12 = builtin("g6_m2_M1").operators[1]
        assert a12.is_symmetric()

    def test_rotation_generator_is_not_symmetric(self):
        j = Matrix([[QuadExt(0), QuadExt(-1)], [QuadExt(1), QuadExt(0)]])
        assert not j.is_symmetric()

    def test_diagonal_is_symmetric(self):
        assert Matrix.diagonal([S("sqrt3"), S("-1/2"), S("0")]).is_symmetric()

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_entry_by_entry_rule(self, seed):
        # mirrored entries are equal values held by distinct objects, such as
        # QuadExt(1) and 2/2; some seeds plant an asymmetric entry
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        rows = [[QuadExt(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rng.choice([QuadExt(1), S("-1/2"), S("sqrt3"), QuadExt(0)])
                rows[j][i] = S("2/2") if rows[i][j] == 1 else rows[i][j] + QuadExt(0)
        if n > 1 and seed % 2:
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rows[i][j] + S(rng.choice(["1", "sqrt3"]))
        m = Matrix(rows)
        assert m.is_symmetric() == all(m[i, j] == m[j, i] for i in range(n) for j in range(n))
        assert m.is_symmetric() == (n == 1 or not seed % 2)


class TestUniPoly:
    def test_strips_trailing_zeros(self):
        assert UniPoly([QuadExt(1), QuadExt(0)]).degree() == 0
        assert not UniPoly([QuadExt(0)])

    def test_product_and_exact_division(self):
        quintic = builtin("g6_m1_M1").operators[0].char_poly()
        square = quintic * quintic
        quotient, remainder = divmod(square, quintic)
        assert not remainder
        assert quotient == quintic

    def test_division_by_non_monic(self):
        two = UniPoly([QuadExt(2)])
        p = UniPoly([QuadExt(4), QuadExt(6)])
        quotient, remainder = divmod(p, two)
        assert not remainder
        assert quotient == UniPoly([QuadExt(2), QuadExt(3)])

    def test_render(self):
        quintic = builtin("g6_m1_M1").operators[0].char_poly()
        assert str(quintic) == "l^5 - 10/3*l^3 + l"
        assert str(UniPoly([])) == "0"
        assert str(UniPoly([QuadExt(0, 1), QuadExt(-2)])) == "-2*l + sqrt3"


class CountingRow:
    """A row of keys that counts how often it is iterated."""

    def __init__(self, keys):
        self.keys = keys
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return iter(self.keys)


class TestIntegerRows:
    @pytest.mark.parametrize(
        "matrices, expected",
        [
            ([], ((), 1)),
            ([Matrix([[S("1/4"), S("0")], [S("0"), S("-1/6*sqrt3")]])], (((((0, 3, 0),), ((1, 0, -2),)),), 12)),
            ([Matrix([[S("2/2")]]), Matrix([[S("1/3+1/2*sqrt3")]])], (((((0, 6, 0),),), (((0, 2, 3),),)), 6)),
        ],
        ids=["no-matrices", "lcm-of-4-and-6", "two-matrices"],
    )
    def test_rows_over_the_least_common_denominator(self, matrices, expected):
        assert integer_rows(matrices) == expected


def reference_components(rows):
    """Union-find over rows that share a key, sorted by first row."""
    parent = list(range(len(rows)))

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    owner = {}
    for k, row in enumerate(rows):
        for key in row:
            if key in owner:
                parent[find(k)] = find(owner[key])
            owner.setdefault(key, k)
    blocks = {}
    for k in range(len(rows)):
        blocks.setdefault(find(k), []).append(k)
    return sorted(blocks.values())


class TestComponents:
    def test_rows_joined_through_shared_keys_in_order_of_first_row(self):
        rows = [[1], ["x"], [2, 3], [3, "x"], [], [2], [1]]
        assert list(components(rows)) == [[0, 6], [1, 2, 3, 5], [4]]

    def test_no_rows(self):
        assert list(components([])) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_union_find(self, seed):
        rng = random.Random(seed)
        keys = rng.randint(1, 30)
        rows = [rng.sample(range(keys), rng.randint(0, min(3, keys))) for _ in range(rng.randint(0, 40))]
        assert list(components(rows)) == reference_components(rows)

    def test_components_are_yielded_lazily(self):
        rows = [CountingRow([k // 2]) for k in range(6)]
        first = next(components(rows))
        assert first == [0, 1]
        assert [row.passes for row in rows] == [2, 2, 1, 1, 1, 1]

    def test_each_row_is_iterated_at_most_twice(self):
        # an index rebuilt per component would iterate every row once per block
        rows = [CountingRow([k]) for k in range(3000)]
        assert list(components(rows)) == [[k] for k in range(3000)]
        assert max(row.passes for row in rows) <= 2

import random
from fractions import Fraction

import pytest

from willmore.catalog import BUILTIN_NAMES, ShapeOperatorSet, builtin
from willmore.curvature import (
    NotMinimalError,
    curvature_report,
    einstein_check,
    minimality_check,
    ricci,
    riemann,
    square_norm,
    squared_operator_sum,
    willmore_check,
)
from willmore.exactnum import QuadExt, parse_scalar
from willmore.linalg import Matrix

S = parse_scalar


def rand_symmetric(rng, n, span=2):
    entries = [[QuadExt(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = QuadExt(rng.randint(-span, span), rng.randint(-span, span))
            entries[i][j] = v
            entries[j][i] = v
    return Matrix(entries)


def rand_dataset(rng, n, p):
    ops = tuple(rand_symmetric(rng, n) for _ in range(p))
    labels = tuple(f"B{i + 1}" for i in range(p))
    return ShapeOperatorSet("random", n, p, ops, labels)


def single_operator(entries, name="single"):
    m = Matrix.diagonal([S(e) for e in entries])
    return ShapeOperatorSet(name, m.nrows, 1, (m,), ("B1",))


ZERO_OPS_5 = ShapeOperatorSet(
    "flat", 5, 2, (Matrix.filled(5, 5, QuadExt(0)),) * 2, ("B1", "B2")
)


class TestMinimality:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_are_minimal(self, name):
        assert minimality_check(builtin(name))

    def test_nonzero_trace_fails(self):
        assert not minimality_check(single_operator(["1", "0"]))


class TestSquareNorm:
    def test_m1_value(self):
        assert square_norm(builtin("g6_m1_M1")) == QuadExt(Fraction(40, 3))

    def test_m2_value(self):
        assert square_norm(builtin("g6_m2_M1")) == QuadExt(40)

    def test_zero_operators(self):
        assert not square_norm(ZERO_OPS_5)


class TestRicci:
    def test_m1_M1_diagonal(self):
        expected = Matrix.diagonal([S(v) for v in "-2 10/3 4 10/3 -2".split()])
        assert ricci(builtin("g6_m1_M1")) == expected

    def test_m2_M2_blocks(self):
        expected = Matrix.diagonal([S(v) for v in "4 4 4 4 9 9 4 4 4 4".split()])
        assert ricci(builtin("g6_m2_M2")) == expected

    def test_zero_operators_give_round_sphere(self):
        assert ricci(ZERO_OPS_5) == Matrix.identity(5, QuadExt(4))

    def test_rejects_non_minimal_data(self):
        with pytest.raises(NotMinimalError):
            ricci(single_operator(["1", "0"]))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_trace_identity(self, name):
        data = builtin(name)
        n = data.n
        assert ricci(data).trace() == QuadExt(n * (n - 1)) - square_norm(data)


class TestRiemann:
    def test_repeated_first_pair_vanishes(self):
        data = builtin("g6_m1_M2")
        for k in range(5):
            for l in range(5):
                assert not riemann(data, 2, 2, k, l)

    def test_sectional_value_from_printed_entries(self):
        # 1-based frame positions (1,2,1,2): 1 + sqrt3 * (1/3)sqrt3 = 2
        assert riemann(builtin("g6_m1_M1"), 0, 1, 0, 1) == QuadExt(2)

    def test_unit_sphere_sectional_curvature(self):
        assert riemann(ZERO_OPS_5, 0, 1, 0, 1) == QuadExt(1)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            riemann(builtin("g6_m1_M1"), 0, 1, 0, 5)

    @pytest.mark.parametrize("name", ["g6_m1_M1", "g6_m1_M2"])
    def test_symmetries_and_bianchi_all_quadruples(self, name):
        data = builtin(name)
        n = data.n
        table = {
            (i, j, k, l): riemann(data, i, j, k, l)
            for i in range(n)
            for j in range(n)
            for k in range(n)
            for l in range(n)
        }
        for (i, j, k, l), value in table.items():
            assert value == -table[j, i, k, l]
            assert value == -table[i, j, l, k]
            assert value == table[k, l, i, j]
            assert not (value + table[i, k, l, j] + table[i, l, j, k])

    @pytest.mark.parametrize("name", ["g6_m1_M1", "g6_m1_M2"])
    def test_contraction_matches_ricci(self, name):
        data = builtin(name)
        n = data.n
        ric = ricci(data)
        for i in range(n):
            for j in range(n):
                total = riemann(data, i, 0, j, 0)
                for k in range(1, n):
                    total = total + riemann(data, i, k, j, k)
                assert total == ric[i, j]


class TestWillmore:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_are_willmore_in_both_forms(self, name):
        report = willmore_check(builtin(name))
        assert report.willmore
        assert report.willmore_ricci_form
        assert report.consistent
        assert all(not t for t in report.cubic_traces)
        assert all(not t for t in report.ricci_traces)
        assert len(report.cubic_traces) == builtin(name).p

    def test_willmore_without_einstein(self):
        # diag(1, -1, 0): Tr(A^3) = 0 but Ricci = diag(1, 1, 2)
        data = single_operator(["1", "-1", "0"])
        report = willmore_check(data)
        assert report.willmore
        assert report.cubic_traces == (QuadExt(0),)
        assert ricci(data) == Matrix.diagonal([QuadExt(1), QuadExt(1), QuadExt(2)])
        assert einstein_check(ricci(data)) is None

    def test_rejects_non_minimal_data(self):
        with pytest.raises(NotMinimalError):
            willmore_check(single_operator(["1", "0"]))

    def test_both_forms_agree_on_random_minimal_sets(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(2, 5)
            p = rng.randint(1, 3)
            ops = []
            for _ in range(p):
                raw = rand_symmetric(rng, n)
                # project onto trace-free symmetric matrices
                shift = raw.trace() / n
                ops.append(raw - Matrix.identity(n, shift))
            data = ShapeOperatorSet("minimalized", n, p, tuple(ops), tuple(f"B{i}" for i in range(p)))
            assert minimality_check(data)
            report = willmore_check(data)
            assert report.willmore == report.willmore_ricci_form
            assert report.consistent

    def test_consistency_identity_on_random_symmetric_sets(self):
        # (n-1)Tr(A_a) - Tr((sum A^2) A_a) == Tr(((n-1)I - sum A^2) A_a),
        # checked at the literal matrix-trace level, minimal or not
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(2, 5)
            p = rng.randint(1, 3)
            data = rand_dataset(rng, n, p)
            squared = squared_operator_sum(data)
            generalized_ricci = Matrix.identity(n, QuadExt(n - 1)) - squared
            for op in data.operators:
                lhs = (generalized_ricci @ op).trace()
                rhs = QuadExt(n - 1) * op.trace() - (squared @ op).trace()
                assert lhs == rhs


class TestEinstein:
    def test_m1_M1_not_einstein(self):
        assert einstein_check(ricci(builtin("g6_m1_M1"))) is None

    def test_m2_M2_not_einstein(self):
        assert einstein_check(ricci(builtin("g6_m2_M2"))) is None

    def test_round_sphere_constant(self):
        assert einstein_check(ricci(ZERO_OPS_5)) == QuadExt(4)

    def test_off_diagonal_blocks_detection(self):
        m = Matrix([[QuadExt(1), QuadExt(0, 1)], [QuadExt(0, 1), QuadExt(1)]])
        assert einstein_check(m) is None


class TestReport:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_reports_verify(self, name):
        report = curvature_report(builtin(name))
        assert report.verified
        assert report.einstein is None

    def test_non_minimal_report(self):
        report = curvature_report(single_operator(["1", "0"]))
        assert not report.minimal
        assert not report.verified
        assert report.ricci is None and report.willmore is None

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_report_matches_the_public_checks(self, name):
        data = builtin(name)
        report = curvature_report(data)
        assert report.square_norm == square_norm(data)
        assert report.ricci == ricci(data)
        assert report.einstein == einstein_check(ricci(data))
        assert report.willmore == willmore_check(data)


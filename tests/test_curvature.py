import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import certificate_check
from frames import cayley_frame, change_frame, direct_sum, rotate_normals, signed_permutation
from willmore import curvature
from willmore.catalog import BUILTIN_NAMES, ShapeOperatorSet, builtin, serialize_dataset
from willmore.cli import verify_certificate
from willmore.curvature import (
    _gram_table,
    _ricci_contraction,
    curvature_report,
    einstein_check,
    riemann,
    riemann_suite,
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


def report_of(name):
    return curvature_report(builtin(name))


def squares_sum(data):
    """sum_a A_a^2 by Matrix products."""
    acc = data.operators[0] @ data.operators[0]
    for op in data.operators[1:]:
        acc = acc + op @ op
    return acc


class TestMinimality:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_are_minimal(self, name):
        assert report_of(name).minimal

    def test_nonzero_trace_fails(self):
        assert not curvature_report(single_operator(["1", "0"])).minimal


class TestSquareNorm:
    def test_m1_value(self):
        assert report_of("g6_m1_M1").square_norm == QuadExt(Fraction(40, 3))

    def test_m2_value(self):
        assert report_of("g6_m2_M1").square_norm == QuadExt(40)

    def test_zero_operators(self):
        assert not curvature_report(ZERO_OPS_5).square_norm


class TestRicci:
    def test_m1_M1_diagonal(self):
        expected = Matrix.diagonal([S(v) for v in "-2 10/3 4 10/3 -2".split()])
        assert report_of("g6_m1_M1").ricci == expected

    def test_m2_M2_blocks(self):
        expected = Matrix.diagonal([S(v) for v in "4 4 4 4 9 9 4 4 4 4".split()])
        assert report_of("g6_m2_M2").ricci == expected

    def test_zero_operators_give_round_sphere(self):
        assert curvature_report(ZERO_OPS_5).ricci == Matrix.identity(5, QuadExt(4))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_trace_identity(self, name):
        n = builtin(name).n
        report = report_of(name)
        assert report.ricci.trace() == QuadExt(n * (n - 1)) - report.square_norm


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
        ric = curvature_report(data).ricci
        for i in range(n):
            for j in range(n):
                total = riemann(data, i, 0, j, 0)
                for k in range(1, n):
                    total = total + riemann(data, i, k, j, k)
                assert total == ric[i, j]


class TestWillmore:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_are_willmore_in_both_forms(self, name):
        report = report_of(name).willmore
        assert report.willmore
        assert report.willmore_ricci_form
        assert report.consistent
        assert all(not t for t in report.cubic_traces)
        assert all(not t for t in report.ricci_traces)
        assert len(report.cubic_traces) == builtin(name).p

    def test_willmore_without_einstein(self):
        # diag(1, -1, 0): Tr(A^3) = 0 but Ricci = diag(1, 1, 2)
        report = curvature_report(single_operator(["1", "-1", "0"]))
        assert report.willmore.willmore
        assert report.willmore.cubic_traces == (QuadExt(0),)
        assert report.ricci == Matrix.diagonal([QuadExt(1), QuadExt(1), QuadExt(2)])
        assert einstein_check(report.ricci) is report.einstein is None

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
                ops.append(raw + Matrix.identity(n, -shift))
            data = ShapeOperatorSet("minimalized", n, p, tuple(ops), tuple(f"B{i}" for i in range(p)))
            full = curvature_report(data)
            assert full.minimal
            report = full.willmore
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
            squared = squares_sum(data)
            generalized_ricci = Matrix.identity(n, QuadExt(n - 1)) + squared * -1
            for op in data.operators:
                lhs = (generalized_ricci @ op).trace()
                rhs = QuadExt(n - 1) * op.trace() - (squared @ op).trace()
                assert lhs == rhs


class TestEinstein:
    def test_m1_M1_not_einstein(self):
        assert einstein_check(report_of("g6_m1_M1").ricci) is None

    def test_m2_M2_not_einstein(self):
        assert einstein_check(report_of("g6_m2_M2").ricci) is None

    def test_round_sphere_constant(self):
        report = curvature_report(ZERO_OPS_5)
        assert einstein_check(report.ricci) == report.einstein == QuadExt(4)

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


def trace_free(m):
    return m + Matrix.identity(m.nrows, -(m.trace() / m.nrows))


def sampled_indices(n):
    stride = 1 if n <= 6 else (n + 5) // 6
    return range(0, n, stride)


def decode(z, v):
    """The parts (x, y) of a packed table entry z = x + y 2^v, x in [-2^(v-1), 2^(v-1))."""
    half = 1 << v - 1
    x = (z + half & (1 << v) - 1) - half
    return x, (z - x) >> v


def assert_components_match_riemann(data):
    """Every entry of the Gram table, one packed int per quadruple in
    row-major order, decodes to riemann() at its quadruple, and the
    contraction is the sums of riemann(), minimal data or not."""
    n = data.n
    ops, den = data.integer_form
    indices = sampled_indices(n)
    quadruples = list(itertools.product(indices, repeat=4))
    table, v = _gram_table(ops, den, indices)
    assert len(table) == len(quadruples) == len(indices) ** 4
    for z, (i, j, k, l) in zip(table, quadruples):
        assert QuadExt._make(*decode(z, v), den * den) == riemann(data, i, j, k, l)
    cx, cy = _ricci_contraction(ops, den * den, n)
    for i in range(n):
        for j in range(n):
            total = riemann(data, i, 0, j, 0)
            for k in range(1, n):
                total = total + riemann(data, i, k, j, k)
            assert QuadExt._make(cx[i][j], cy[i][j], den * den) == total


def pair(value):
    """A QuadExt as the checker's (a, b) pair of Fractions, None as None."""
    return None if value is None else (value.a, value.b)


def pairs(values):
    return list(map(pair, values))


def assert_pass_matches_reference(data):
    """curvature_report and riemann_suite against the independent checker
    (`certificate_check`) run on serialize_dataset(data), which also checks
    the `verify` certificate line by line, and the Gram table against
    riemann(); returns the report and the suite's quadruple count (None for
    non-minimal data, which gets no suite)."""
    n = data.n
    assert_components_match_riemann(data)
    report = curvature_report(data)
    cert, ok = verify_certificate(data)
    checked = certificate_check.check_certificate(serialize_dataset(data), cert.render("text"))
    assert ok == checked["verified"]
    assert pair(report.square_norm) == checked["square_norm"]
    assert report.minimal == checked["minimal"]
    assert pairs(report.traces) == checked["traces"]
    if not report.minimal:
        assert report.ricci is report.willmore is None
        return report, None
    assert [pairs(row) for row in report.ricci.rows] == checked["ricci"]
    assert pair(report.einstein) == checked["einstein"]
    willmore = report.willmore
    assert (willmore.willmore, willmore.willmore_ricci_form, willmore.consistent) == (
        checked["willmore"], checked["ricci_form_verdict"], checked["consistency"]
    )
    assert pairs(willmore.cubic_traces) == checked["cubic"]
    assert pairs(willmore.ricci_traces) == checked["ricci_form"]
    checks, count = riemann_suite(data, report.ricci)
    assert (checks, count) == (checked["riemann"], checked["quadruples"])
    assert count == len(sampled_indices(n)) ** 4
    assert all(checks.values())
    assert report.verified == report.willmore.willmore
    return report, count


class TestCurvaturePass:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name):
        assert assert_pass_matches_reference(builtin(name))[0].verified

    def test_cayley_frame_with_normal_rotation(self):
        rng = random.Random(11)
        data = builtin("g6_m2_M2")
        data = rotate_normals(change_frame(data, cayley_frame(data.n, rng)), cayley_frame(data.p, rng))
        assert all(e for op in data.operators for row in op.rows for e in row)  # dense
        assert assert_pass_matches_reference(data)[0].verified

    def test_signed_permutation_frame(self):
        rng = random.Random(12)
        data = builtin("g6_m1_M2")
        data = rotate_normals(change_frame(data, signed_permutation(data.n, rng)), signed_permutation(data.p, rng))
        assert assert_pass_matches_reference(data)[0].verified

    def test_direct_sum_n20(self):
        data = direct_sum(builtin("g6_m2_M1"), builtin("g6_m2_M2"))
        assert data.n == 20
        assert assert_pass_matches_reference(data)[0].verified

    def test_single_normal(self):
        report, _ = assert_pass_matches_reference(single_operator(["1", "-1", "0"]))
        assert report.verified and report.einstein is None

    def test_non_minimal_data_skips_the_suite(self):
        report, count = assert_pass_matches_reference(single_operator(["1", "0"], "lopsided"))
        assert not report.verified and count is None

    def test_minimal_but_not_willmore(self):
        # diag(2, -1, -1): trace-free, Tr(A^3) = 6
        report, _ = assert_pass_matches_reference(single_operator(["2", "-1", "-1"], "lopsided"))
        assert not report.willmore.willmore and not report.verified
        assert report.willmore.cubic_traces == (QuadExt(6),)

    def test_mixed_denominators_with_sqrt3_parts(self):
        a = Matrix([
            [S("1/2"), S("1/3*sqrt3"), S("2/5")],
            [S("1/3*sqrt3"), S("-1/7+1/2*sqrt3"), S("0")],
            [S("2/5"), S("0"), S("-5/14-1/2*sqrt3")],
        ])
        b = Matrix([[S("0"), S("3/4"), S("-1/6*sqrt3")], [S("3/4"), S("1/9"), S("1")], [S("-1/6*sqrt3"), S("1"), S("-1/9")]])
        data = ShapeOperatorSet("mixed", 3, 2, (a, b), ("B1", "B2"))
        assert data.integer_form[1] > 1
        assert assert_pass_matches_reference(data)[0].minimal

    def test_sampled_table_above_six(self):
        rng = random.Random(13)
        data = rand_dataset(rng, 8, 2)
        data = ShapeOperatorSet("eight", 8, 2, tuple(trace_free(op) for op in data.operators), data.labels)
        assert assert_pass_matches_reference(data)[1] == 4 ** 4

    @pytest.mark.parametrize("n, m", [(1, 1), (6, 6), (7, 4)])
    def test_table_at_the_stride_edges(self, n, m):
        # n = 1: one index, whose gathers take one x and one y part; n = 6:
        # every index; n = 7: the stride turns 2
        rng = random.Random(n)
        data = rand_dataset(rng, n, 2)
        assert len(sampled_indices(n)) == m
        assert_components_match_riemann(data)
        data = ShapeOperatorSet("edge", n, 2, tuple(trace_free(op) for op in data.operators), data.labels)
        assert assert_pass_matches_reference(data)[1] == m ** 4

    @pytest.mark.parametrize("n, products", [(1, 1), (6, 231), (7, 55), (10, 120)])
    def test_the_gram_table_forms_one_product_per_unordered_pair_of_pairs(self, monkeypatch, n, products):
        # m sampled indices make q = m(m + 1)/2 unordered pairs and q(q + 1)/2
        # products of p + 1 entries (the identity's among them): 120 at m = 5,
        # on n = 10 data whose every entry is nonzero, against 625 quadruples
        rng = random.Random(n)
        data = rand_dataset(rng, n, 3)
        if n == 10:
            data = rotate_normals(change_frame(builtin("g6_m2_M2"), cayley_frame(n, rng)), cayley_frame(3, rng))
            assert all(e for op in data.operators for row in op.rows for e in row)
        # each product is one sum over the x and y parts of the p + 1 entries
        lengths = []

        def counting(terms):
            terms = list(terms)
            lengths.append(len(terms))
            return sum(terms)

        monkeypatch.setattr(curvature, "sum", counting, raising=False)
        riemann_suite(data, Matrix.identity(n, QuadExt(1)))
        assert lengths == [2 * (3 + 1)] * products

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_symmetric_operators(self, draw):
        n = draw.draw(st.integers(1, 7), label="n")
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
        if draw.draw(st.booleans(), label="minimal"):
            ops = [trace_free(op) for op in ops]
        data = ShapeOperatorSet("random", n, p, tuple(ops), tuple(f"B{a + 1}" for a in range(p)))
        assert_pass_matches_reference(data)

    @pytest.mark.parametrize("error", [QuadExt(1), QuadExt(0, 1)], ids=["rational", "sqrt3"])
    @pytest.mark.parametrize("name", ["g6_m1_M1", "g6_m2_M2"])
    def test_a_wrong_ricci_entry_fails_the_contraction(self, name, error):
        data = builtin(name)
        ric = curvature_report(data).ricci
        assert riemann_suite(data, ric)[0]["contraction"]
        rows = [list(row) for row in ric.rows]
        rows[2][0] = rows[2][0] + error
        checks, _ = riemann_suite(data, Matrix(rows))
        assert checks == {"antisymmetry": True, "pair_symmetry": True, "bianchi": True, "contraction": False}

    @pytest.mark.parametrize("errors", [{(0, 1, 2, 3): 1}, {(0, 1, 2, 3): 1, (1, 0, 2, 3): -1}], ids=["one", "ij_pair"])
    @pytest.mark.parametrize("part", [0, 1], ids=["x", "y"])
    def test_a_wrong_table_entry_fails_the_symmetry_checks(self, monkeypatch, part, errors):
        # the pair of errors keeps R_jikl = -R_ijkl: antisymmetry fails on R_ijlk
        data = builtin("g6_m1_M1")
        n = data.n
        ops, den = data.integer_form
        table, v = _gram_table(ops, den, range(n))
        table = list(table)
        for (i, j, k, l), error in errors.items():
            table[((i * n + j) * n + k) * n + l] += error << part * v  # in the x or the y digit
        monkeypatch.setattr(curvature, "_gram_table", lambda *args: (tuple(table), v))
        checks, _ = riemann_suite(data, curvature_report(data).ricci)
        assert checks == {"antisymmetry": False, "pair_symmetry": False, "bianchi": False, "contraction": True}

    @pytest.mark.parametrize("name", ["g6_m1_M1", "g6_m2_M2"])
    def test_a_wrong_squared_sum_fails_the_contraction(self, monkeypatch, name):
        # the contraction is summed from the operators, not from sum_a A_a^2:
        # a wrong sum makes a wrong Ricci tensor, which it tells apart
        data = builtin(name)
        squared_sum = curvature._squared_sum

        def wrong(ops, n):
            sx, sy = squared_sum(ops, n)
            sx[1][0] += 1
            sx[0][1] += 1
            return sx, sy

        monkeypatch.setattr(curvature, "_squared_sum", wrong)
        cert, ok = verify_certificate(data)
        assert not ok
        assert "contraction: FAIL" in cert.render("text").splitlines()
        checks, _ = riemann_suite(data, curvature_report(data).ricci)
        assert checks == {"antisymmetry": True, "pair_symmetry": True, "bianchi": True, "contraction": False}


EDGE = 2**64 - 1


def operators_of(n, p, part, den=1):
    """p symmetric n x n operators, the entry (i <= j) of operator a being
    (part(a, i, j, 0) + part(a, i, j, 1) sqrt3) / den."""
    ops = []
    for a in range(p):
        rows = [[QuadExt(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x, y = (Fraction(part(a, i, j, h), den) for h in (0, 1))
                rows[i][j] = rows[j][i] = QuadExt(x, y)
        ops.append(Matrix(rows))
    return ShapeOperatorSet("bound", n, p, tuple(ops), tuple(f"B{a + 1}" for a in range(p)))


@st.composite
def operators_near_the_bound(draw):
    """Operators of n <= 7 and p <= 3 whose parts are 0, +-T or between,
    with sqrt3 parts and mixed signs, T up to 2^64 - 1."""
    n, p = draw(st.integers(1, 7), label="n"), draw(st.integers(1, 3), label="p")
    top, den = draw(st.sampled_from([1, 5, EDGE]), label="T"), draw(st.sampled_from([1, 3]), label="den")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    return operators_of(n, p, lambda a, i, j, h: rng.choice((0, top, -top, rng.randint(-top, top))), den)


class TestPackedTable:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(operators_near_the_bound())
    # every part at +T, then at +-T with the signs mixed between x, y, operators and entries
    @example(operators_of(5, 3, lambda a, i, j, h: EDGE))
    @example(operators_of(6, 3, lambda a, i, j, h: (-1) ** (a + i + j + h) * EDGE))
    # n = 7 samples every other index; n = 1 has one quadruple
    @example(operators_of(7, 2, lambda a, i, j, h: (-1) ** (i * j + h) * EDGE))
    @example(operators_of(1, 3, lambda a, i, j, h: (-1) ** (a + h) * EDGE))
    # parts +-1 over D = 7: the identity's D delta is the largest part, T = D
    @example(operators_of(5, 2, lambda a, i, j, h: (-1) ** (a + i + h), 7))
    def test_the_table_decodes_to_riemann_within_its_bound(self, data):
        # v is the least width whose balanced digits hold 16 (p + 1) T^2, the x
        # part of a Bianchi sum of two entries, with T read here from the
        # sampled entries and the identity's D; then every entry decodes to
        # riemann(), and a sum at the bound itself reads back
        ops, den = data.integer_form
        indices = sampled_indices(data.n)
        sampled = set(indices)
        parts = [abs(part) for rows in ops for i in indices for j, x, y in rows[i] if j in sampled for part in (x, y)]
        top = max([den] + parts)
        bound = 16 * (data.p + 1) * top * top
        _, v = _gram_table(ops, den, indices)
        assert 2 ** (v - 2) <= bound < 2 ** (v - 1)
        for x, y in itertools.product((bound, -bound), repeat=2):
            entry = x // 2 + (y << v)  # an entry whose x part is at its bound 8 (p + 1) T^2
            assert decode(entry + entry, v) == (x, 2 * y)
        assert_components_match_riemann(data)
        checks, _ = riemann_suite(data, Matrix.identity(data.n, QuadExt(1)))
        assert checks["antisymmetry"] and checks["pair_symmetry"] and checks["bianchi"]

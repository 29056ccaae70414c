import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from willmore import catalog
from willmore.catalog import (
    BUILTIN_NAMES,
    DatasetFormatError,
    ShapeOperatorSet,
    builtin,
    parse_dataset,
    serialize_dataset,
)
from willmore.exactnum import QuadExt, parse_scalar
from willmore.linalg import Matrix

S = parse_scalar

SUM20 = Path(__file__).parent / "data" / "sum20_g6_m2_M2.dat"


def squares_sum(data):
    acc = data.operators[0] @ data.operators[0]
    for op in data.operators[1:]:
        acc = acc + op @ op
    return acc


class TestBuiltins:
    def test_names(self):
        assert BUILTIN_NAMES == ("g6_m1_M1", "g6_m1_M2", "g6_m2_M1", "g6_m2_M2")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin("g6_m3_M1")

    def test_m1_M1_first_operator_is_printed_diagonal(self):
        a6 = builtin("g6_m1_M1").operators[0]
        assert a6 == Matrix.diagonal(
            [S("sqrt3"), S("1/3*sqrt3"), S("0"), S("-1/3*sqrt3"), S("-sqrt3")]
        )

    def test_m2_M2_squares_sum(self):
        got = squares_sum(builtin("g6_m2_M2"))
        expected = Matrix.diagonal([S(v) for v in ("5 5 5 5 0 0 5 5 5 5".split())])
        assert got == expected

    def test_m2_M1_squares_sum(self):
        got = squares_sum(builtin("g6_m2_M1"))
        expected = Matrix.diagonal([S(v) for v in ("9 9 1 1 0 0 1 1 9 9".split())])
        assert got == expected

    def test_operators_share_first_block_operator_across_m2(self):
        assert builtin("g6_m2_M1").operators[0] == builtin("g6_m2_M2").operators[0]

    def test_all_builtin_operators_are_symmetric(self):
        for name in BUILTIN_NAMES:
            for op in builtin(name).operators:
                assert op.is_symmetric()

    def test_m2_M1_rotation_block_entries(self):
        a12 = builtin("g6_m2_M1").operators[1]
        assert a12[0, 9] == -S("sqrt3")
        assert a12[1, 8] == S("sqrt3")
        assert a12[9, 0] == -S("sqrt3")
        a13 = builtin("g6_m2_M1").operators[2]
        assert a13[0, 8] == S("sqrt3")
        assert a13[1, 9] == S("sqrt3")

    @pytest.mark.parametrize("name", ["g6_m2_M1", "g6_m2_M2"])
    def test_m2_operators_decompose_into_identity_and_rotation_blocks(self, name):
        zero = QuadExt(0)
        for op in builtin(name).operators:
            for bi in range(5):
                for bj in range(5):
                    a = op[2 * bi, 2 * bj]
                    b = op[2 * bi, 2 * bj + 1]
                    c = op[2 * bi + 1, 2 * bj]
                    d = op[2 * bi + 1, 2 * bj + 1]
                    is_scaled_identity = b == zero and c == zero and a == d
                    is_scaled_rotation = a == zero and d == zero and b == -c
                    assert is_scaled_identity or is_scaled_rotation


class TestExpandBlocks:
    """catalog._tensor: a 5 x 5 pattern tensored with a cell, the Kronecker
    product that writes the m = 2 built-ins from the m = 1 patterns."""

    CELL_1 = ((0, 0, 1),)
    CELL_I = ((0, 0, 1), (1, 1, 1))
    CELL_J = ((0, 1, -1), (1, 0, 1))

    @staticmethod
    def entries(matrix):
        zero = QuadExt(0)
        return {(i, j): e for i, row in enumerate(matrix.rows) for j, e in enumerate(row) if e != zero}

    def test_identity_cell(self):
        got = catalog._tensor({(0, 0): S("sqrt3"), (1, 3): S("2")}, 1, self.CELL_I)
        assert (got.nrows, got.ncols) == (10, 10)
        assert self.entries(got) == {
            (0, 0): S("sqrt3"), (1, 1): S("sqrt3"),
            (2, 6): S("2"), (3, 7): S("2"), (6, 2): S("2"), (7, 3): S("2"),
        }

    def test_rotation_cell(self):
        # [[0, s], [-s, 0]] (x) J with J = [[0, -1], [1, 0]]
        got = catalog._tensor({(0, 1): S("sqrt3")}, -1, self.CELL_J)
        assert self.entries(got) == {
            (0, 3): S("-sqrt3"), (1, 2): S("sqrt3"), (2, 1): S("sqrt3"), (3, 0): S("-sqrt3"),
        }
        assert got.is_symmetric()

    def test_all_zero_grid(self):
        assert catalog._tensor({}, 1, self.CELL_I) == Matrix.filled(10, 10, QuadExt(0))

    def test_block_size_one(self):
        got = catalog._tensor({(0, 0): S("2"), (0, 4): S("-1")}, 1, self.CELL_1)
        assert (got.nrows, got.ncols) == (5, 5)
        assert self.entries(got) == {(0, 0): S("2"), (0, 4): S("-1"), (4, 0): S("-1")}


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_parse_of_serialize_is_identity(self, name):
        data = builtin(name)
        assert parse_dataset(serialize_dataset(data)) == data

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_serialized_text_is_a_fixed_point(self, name):
        text = serialize_dataset(builtin(name))
        assert serialize_dataset(parse_dataset(text)) == text

    def test_parser_tolerates_comments_and_spacing(self):
        text = serialize_dataset(builtin("g6_m1_M1"))
        noisy = "# generated\n" + text.replace(" ", "   ").replace("\n", "\n# noise\n", 3)
        assert parse_dataset(noisy) == builtin("g6_m1_M1")


GOOD = """\
dataset tiny
dim 2
codim 1
operator B1
0 1
1 0
"""


class TestParseErrors:
    def test_good_reference_parses(self):
        data = parse_dataset(GOOD)
        assert data.name == "tiny" and data.n == 2 and data.p == 1
        assert data.labels == ("B1",)

    def test_asymmetric_operator(self):
        bad = GOOD.replace("0 1\n1 0", "0 1\n2 0")
        with pytest.raises(DatasetFormatError) as info:
            parse_dataset(bad)
        assert "symmetric" in str(info.value)
        assert info.value.line == 5

    def test_wrong_row_length(self):
        bad = GOOD.replace("0 1\n", "0 1 1\n", 1)
        with pytest.raises(DatasetFormatError) as info:
            parse_dataset(bad)
        assert "expected 2" in str(info.value)
        assert info.value.line == 5

    def test_bad_scalar_reports_line(self):
        bad = GOOD.replace("1 0", "1 zebra")
        with pytest.raises(DatasetFormatError) as info:
            parse_dataset(bad)
        assert "bad scalar" in str(info.value)
        assert info.value.line == 6

    def test_bad_scalar_on_two_lines_reports_the_first(self):
        bad = GOOD.replace("0 1\n1 0", "0 zebra\nzebra 0")
        with pytest.raises(DatasetFormatError) as info:
            parse_dataset(bad)
        assert "bad scalar" in str(info.value)
        assert info.value.line == 5

    def test_asymmetric_operator_of_shared_tokens(self):
        # every token occurs more than once, (0, 2) reads 3 and (2, 0) reads 2
        bad = "dataset shared\ndim 3\ncodim 1\noperator B1\n1 2 3\n2 1 2\n2 2 1\n"
        with pytest.raises(DatasetFormatError) as info:
            parse_dataset(bad)
        assert "not symmetric at (0,2)" in str(info.value)
        assert info.value.line == 5

    @pytest.mark.parametrize("seed", range(40))
    def test_asymmetry_is_named_as_the_entry_by_entry_rule_names_it(self, seed):
        # equal values of different text, held by distinct objects, mirror
        # each other; odd seeds plant asymmetries, and the first in row-major
        # order of the first operator that has one is named, at its row's line
        rng = random.Random(seed)
        n, p = rng.randint(2, 5), rng.randint(1, 2)
        spellings = (("1", "2/2"), ("0", "0/3"), ("-1/2", "-2/4"), ("sqrt3", "2/2*sqrt3"))
        ops = []
        for _ in range(p):
            rows = [["0"] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j], rows[j][i] = rng.choice(spellings)
            ops.append(rows)
        if seed % 2:
            for _ in range(rng.randint(1, 3)):
                a, (i, j) = rng.randrange(p), rng.sample(range(n), 2)
                ops[a][i][j] = "5"
        text = f"dataset planted\ndim {n}\ncodim {p}\n" + "".join(
            f"operator B{a}\n" + "".join(" ".join(row) + "\n" for row in rows) for a, rows in enumerate(ops)
        )
        first = next(
            (
                (a, i, j)
                for a, rows in enumerate(ops)
                for i in range(n)
                for j in range(i + 1, n)
                if S(rows[i][j]) != S(rows[j][i])
            ),
            None,
        )
        if first is None:
            assert all(op.is_symmetric() for op in parse_dataset(text).operators)
            return
        a, i, j = first
        with pytest.raises(DatasetFormatError) as info:
            parse_dataset(text)
        assert str(info.value) == f"line {5 + a * (n + 1) + i}: operator B{a} is not symmetric at ({i},{j})"

    def test_equal_values_of_different_text_are_symmetric(self):
        data = parse_dataset(GOOD.replace("0 1\n1 0", "0 1/2\n2/4 0"))
        assert data.operators[0][0, 1] == data.operators[0][1, 0] == S("1/2")

    def test_missing_header(self):
        with pytest.raises(DatasetFormatError):
            parse_dataset("dim 2\ncodim 1\n")

    def test_missing_rows(self):
        with pytest.raises(DatasetFormatError):
            parse_dataset("dataset x\ndim 2\ncodim 1\noperator B1\n0 0\n")

    def test_trailing_content(self):
        with pytest.raises(DatasetFormatError) as info:
            parse_dataset(GOOD + "leftover\n")
        assert "trailing" in str(info.value)

    # lines of spaces, tabs, form feeds and other Unicode whitespace, '#'
    # comments indented or not, and text, split at every line break
    # str.splitlines knows
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([" ", "\t", "\x0c", "\x85", "\u3000", "#", "a", "1 0", "\n", "\r\n", "\x1c", "\u2028"])))
    def test_lines_are_the_stripped_lines_that_are_not_comments(self, pieces):
        text = "".join(pieces)
        lines = catalog._Lines(text)
        assert lines.items == [
            (number, line.strip())
            for number, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.lstrip().startswith("#")
        ]
        assert lines.last == (lines.items[-1][0] if lines.items else 1)

    def test_indented_comments_and_blank_lines_keep_line_numbers(self):
        bad = GOOD.replace("operator B1\n", "operator B1\n  \t\n   # a comment\n\u3000\n", 1).replace("1 0", "1 zebra")
        with pytest.raises(DatasetFormatError) as info:
            parse_dataset(bad)
        assert "bad scalar" in str(info.value)
        assert info.value.line == 9

    def test_non_positive_dim(self):
        with pytest.raises(DatasetFormatError):
            parse_dataset(GOOD.replace("dim 2", "dim 0"))


class TestValidation:
    def test_constructor_rejects_asymmetric(self):
        j = Matrix([[QuadExt(0), QuadExt(-1)], [QuadExt(1), QuadExt(0)]])
        with pytest.raises(ValueError):
            ShapeOperatorSet("bad", 2, 1, (j,), ("B1",))

    def test_constructor_rejects_wrong_count(self):
        ident = Matrix.identity(2, QuadExt(1))
        with pytest.raises(ValueError):
            ShapeOperatorSet("bad", 2, 2, (ident,), ("B1", "B2"))


class TestParseOnce:
    def test_each_distinct_token_is_parsed_once(self, monkeypatch):
        text = SUM20.read_text(encoding="utf-8")
        tokens = [
            token
            for line in text.splitlines()
            if line.split()[0] not in ("dataset", "dim", "codim", "operator")
            for token in line.split()
        ]
        assert len(tokens) == 20 * 20 * 3
        calls = []
        monkeypatch.setattr(catalog, "parse_scalar", lambda token: calls.append(token) or parse_scalar(token))
        data = parse_dataset(text)
        monkeypatch.undo()
        assert sorted(calls) == sorted(set(tokens))
        # equal tokens share one value, so each distinct value converts to float once
        entries = [entry for op in data.operators for row in op.rows for entry in row]
        assert len({id(entry) for entry in entries}) == len(set(tokens))
        assert serialize_dataset(data) == text

    def test_each_operator_is_checked_for_symmetry_once(self, monkeypatch):
        text = SUM20.read_text(encoding="utf-8")
        calls, is_symmetric = [], Matrix.is_symmetric
        monkeypatch.setattr(Matrix, "is_symmetric", lambda self: calls.append(self) or is_symmetric(self))
        data = parse_dataset(text)
        monkeypatch.undo()
        assert [id(op) for op in calls] == [id(op) for op in data.operators]
        # the parsed dataset equals one built, and checked, by the constructor
        assert data == ShapeOperatorSet(data.name, data.n, data.p, data.operators, data.labels)
        assert (data.g_tag, data.m_tag) == (None, None)

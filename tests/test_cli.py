import sys

import pytest

from frames import scaled
from willmore import cli, tracealg
from willmore.catalog import BUILTIN_NAMES, ShapeOperatorSet, builtin, serialize_dataset
from willmore.cli import main, verify_certificate
from willmore.curvature import curvature_report
from willmore.exactnum import QuadExt
from willmore.linalg import Matrix
from willmore.sweep import symbolic_sweep

# Code without the word bound would expand A1^1000000000 into 8 GB.
NEEDS_WORD_BOUND = pytest.mark.skipif(not hasattr(tracealg, "MAX_WORD_LEN"), reason="no trace-word bound")

# int() refuses digit strings longer than this (0: no limit, as before Python 3.11)
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
NEEDS_INT_DIGIT_LIMIT = pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() has no digit limit")
TOO_MANY_DIGITS = "9" * max(INT_DIGIT_LIMIT + 1, 5000)

NON_MINIMAL = """\
dataset lopsided
dim 2
codim 1
operator B1
1 0
0 0
"""


@pytest.fixture
def non_minimal_file(tmp_path):
    path = tmp_path / "lopsided.dat"
    path.write_text(NON_MINIMAL, encoding="utf-8")
    return str(path)


class TestVerify:
    def test_builtin_passes(self, capsys):
        assert main(["verify", "g6_m1_M1"]) == 0
        out = capsys.readouterr().out
        assert "dataset: g6_m1_M1" in out
        assert "value: 40/3" in out
        assert "proportional: no" in out
        assert "consistency: pass" in out
        assert "verified: yes" in out

    def test_m2_builtin_passes(self, capsys):
        assert main(["verify", "g6_m2_M2"]) == 0
        out = capsys.readouterr().out
        assert "value: 40" in out
        assert "verified: yes" in out

    def test_keyvalue_format(self, capsys):
        assert main(["verify", "g6_m1_M1", "--format", "keyvalue"]) == 0
        out = capsys.readouterr().out
        assert "minimality.verdict=pass" in out
        assert "square_norm.value=40/3" in out
        assert "result.verified=yes" in out
        assert "[" not in out

    def test_non_minimal_file_fails(self, capsys, non_minimal_file):
        assert main(["verify", non_minimal_file]) == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "verified: no" in out

    def test_unknown_dataset(self, capsys):
        assert main(["verify", "g6_m9_M9"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.dat"
        path.write_text("dataset x\ndim 2\n", encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert "codim" in capsys.readouterr().err

    def test_directory_is_an_input_error(self, capsys, tmp_path):
        assert main(["verify", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_undecodable_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.dat"
        path.write_bytes("dataset caf\xe9\n".encode("latin-1"))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_file_dataset_roundtrips_through_cli(self, capsys, tmp_path):
        path = tmp_path / "m1.dat"
        path.write_text(serialize_dataset(builtin("g6_m1_M1")), encoding="utf-8")
        assert main(["verify", str(path)]) == 0

    def test_output_is_deterministic(self, capsys):
        assert main(["verify", "g6_m2_M1"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "g6_m2_M1"]) == 0
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("name", ["g6_m1_M2", "g6_m2_M2"])
    def test_certificate_computes_curvature_once(self, monkeypatch, name):
        # one curvature pass on integer pairs, and no Matrix product at all
        calls = []
        reports = []
        product = Matrix.__matmul__

        def counted(self, other):
            calls.append(1)
            return product(self, other)

        def counted_report(data):
            reports.append(1)
            return curvature_report(data)

        monkeypatch.setattr(Matrix, "__matmul__", counted)
        monkeypatch.setattr(cli, "curvature_report", counted_report)
        data = builtin(name)
        _, ok = verify_certificate(data)
        assert ok
        assert len(calls) == 0
        assert len(reports) == 1

    def test_timestamp_is_opt_in(self, capsys):
        assert main(["verify", "g6_m1_M1"]) == 0
        assert "timestamp" not in capsys.readouterr().out
        assert main(["verify", "g6_m1_M1", "--timestamp"]) == 0
        assert "timestamp: " in capsys.readouterr().out


class TestSweep:
    def test_symbolic_constant_line(self, capsys):
        assert main(["sweep", "g6_m1_M2", "--mode", "symbolic"]) == 0
        out = capsys.readouterr().out
        assert "constant: l^5 - 10/3*l^3 + l" in out

    def test_numeric_within_tolerance(self, capsys):
        assert main(["sweep", "g6_m2_M1", "--mode", "numeric", "--samples", "200", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max_deviation" in out

    def test_non_constant_spectrum_fails(self, capsys, non_minimal_file):
        assert main(["sweep", non_minimal_file, "--mode", "symbolic"]) == 1
        out = capsys.readouterr().out
        assert "constant: no" in out
        assert "witness" in out
        assert main(["sweep", non_minimal_file, "--mode", "numeric", "--samples", "4"]) == 1

    def test_zero_samples_is_an_input_error(self, capsys):
        assert main(["sweep", "g6_m1_M1", "--mode", "numeric", "--samples", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --samples") and err.count("\n") == 1

    def test_one_sample_is_an_input_error(self, capsys, non_minimal_file):
        # one sample compares a point with itself and would always pass
        assert main(["sweep", non_minimal_file, "--mode", "numeric", "--samples", "1"]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_nan_deviation_fails(self, capsys, monkeypatch):
        monkeypatch.setattr("willmore.sweep.eval_float", lambda coeff, point: float("nan"))
        assert main(["sweep", "g6_m1_M1", "--mode", "numeric", "--samples", "10"]) == 1
        out = capsys.readouterr().out
        assert "max_deviation: nan" in out
        assert "verdict: FAIL" in out

    def test_float_overflow_is_an_input_error(self, capsys, tmp_path):
        huge = "1" + "0" * 400
        path = tmp_path / "huge.dat"
        path.write_text(
            f"dataset huge\ndim 2\ncodim 1\noperator B1\n{huge} 0\n0 -{huge}\n", encoding="utf-8"
        )
        assert main(["sweep", str(path), "--mode", "numeric", "--samples", "4"]) == 2
        err = capsys.readouterr().err
        assert "too large" in err and err.count("\n") == 1

    def test_scaled_constant_data_passes_the_numeric_check(self, capsys, tmp_path):
        path = tmp_path / "scaled.dat"
        path.write_text(serialize_dataset(scaled(builtin("g6_m2_M2"), 10)), encoding="utf-8")
        assert main(["sweep", str(path), "--mode", "numeric"]) == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_mode_is_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "g6_m1_M1"])
        assert info.value.code == 2


class TestTracecheck:
    def test_builtin_rules_close_the_willmore_goal(self, capsys):
        rc = main(
            [
                "tracecheck",
                "--rules",
                "g4",
                "--goal",
                "Tr(A1^3) + Tr(A2^2*A1) + Tr(A3^2*A1)",
                "--indices",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "residual: 0" in out
        assert "verdict: pass" in out

    def test_goal_without_rules_survives(self, capsys, tmp_path):
        rules = tmp_path / "empty.rules"
        rules.write_text("# nothing here\n", encoding="utf-8")
        rc = main(["tracecheck", "--rules", str(rules), "--goal", "Tr(A1*A2)", "--indices", "2"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "residual: Tr(A1*A2)" in out

    def test_scaled_goal_closes(self, capsys, tmp_path):
        rules = tmp_path / "min.rules"
        rules.write_text("Tr(A1) = 0\n", encoding="utf-8")
        assert main(["tracecheck", "--rules", str(rules), "--goal", "2*Tr(A1)", "--indices", "1"]) == 0

    def test_goal_parse_error(self, capsys):
        assert main(["tracecheck", "--rules", "g4", "--goal", "Tr(A0)", "--indices", "2"]) == 2
        assert "goal" in capsys.readouterr().err

    def test_rules_directory_is_an_input_error(self, capsys, tmp_path):
        assert main(["tracecheck", "--rules", str(tmp_path), "--goal", "Tr(A1)", "--indices", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_undecodable_rules_file_is_an_input_error(self, capsys, tmp_path):
        rules = tmp_path / "latin1.rules"
        rules.write_bytes("Tr(A1) = 0 # caf\xe9\n".encode("latin-1"))
        assert main(["tracecheck", "--rules", str(rules), "--goal", "Tr(A1)", "--indices", "1"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("exponent", ["10001", pytest.param("1000000000", marks=NEEDS_WORD_BOUND)])
    def test_word_beyond_the_length_bound_is_an_input_error(self, capsys, exponent):
        goal = f"Tr(A2*A1^{exponent})"
        assert main(["tracecheck", "--rules", "g4", "--goal", goal, "--indices", "2"]) == 2
        err = capsys.readouterr().err
        assert "longer than" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "goal",
        [
            f"Tr(A1^{TOO_MANY_DIGITS})",
            pytest.param(f"Tr(A{TOO_MANY_DIGITS})", marks=NEEDS_INT_DIGIT_LIMIT),
            pytest.param(f"{TOO_MANY_DIGITS}*Tr(A1)", marks=NEEDS_INT_DIGIT_LIMIT),
            pytest.param(f"1/{TOO_MANY_DIGITS}*Tr(A1)", marks=NEEDS_INT_DIGIT_LIMIT),
        ],
        ids=["exponent", "index", "numerator", "denominator"],
    )
    def test_digit_string_beyond_the_int_limit_is_an_input_error(self, capsys, goal):
        assert main(["tracecheck", "--rules", "g4", "--goal", goal, "--indices", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: goal: ") and err.count("\n") == 1

    def test_index_beyond_p(self, capsys):
        assert main(["tracecheck", "--rules", "g4", "--goal", "Tr(A5)", "--indices", "2"]) == 2


class TestPaper:
    def test_full_suite_passes(self, capsys):
        assert main(["paper"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_NAMES:
            assert f"dataset: {name}" in out
        for p in range(1, 11):
            assert f"p{p}: pass" in out
        assert "verified: yes" in out

    def test_non_constant_sweep_fails_the_suite(self, capsys, monkeypatch):
        # the sweep of g6_m2_M1 replaced by that of non-constant data
        lopsided = ShapeOperatorSet("lopsided", 2, 1, (Matrix.diagonal([QuadExt(1), QuadExt(0)]),), ("B1",))

        def sweep(data):
            return symbolic_sweep(lopsided if data.name == "g6_m2_M1" else data)

        monkeypatch.setattr(cli, "symbolic_sweep", sweep)
        assert main(["paper"]) == 1
        out = capsys.readouterr().out
        assert "g6_m2_M1: FAIL (l^" in out
        assert out.endswith("verified: no\n")

    def test_no_arguments_runs_paper_suite(self, capsys):
        assert main([]) == 0
        assert "[g4proof]" in capsys.readouterr().out

    def test_paper_output_is_deterministic(self, capsys):
        assert main(["paper"]) == 0
        first = capsys.readouterr().out
        assert main(["paper"]) == 0
        assert capsys.readouterr().out == first

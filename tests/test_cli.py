import argparse
import functools
import io
import re
import subprocess
import sys
import time
import timeit
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frames import direct_sum, scaled
from g4_rules import g4_rules_text
from nan_injection import inject_one_nan
from stack import deeper, stack_depth
from sweep_inputs import DENSE_8_BY_8, DIAGONAL_9, STEPS_22, dense_file
import willmore
from willmore import catalog, cli, curvature, linalg, sweep, tracealg
from willmore.catalog import BUILTIN_NAMES, ShapeOperatorSet, builtin, serialize_dataset
from willmore.cli import main, verify_certificate
from willmore.curvature import curvature_report
from willmore.exactnum import QuadExt
from willmore.linalg import Matrix
from willmore.sweep import numeric_sweep, symbolic_sweep

# Code without the word bound would expand A1^1000000000 into 8 GB.
NEEDS_WORD_BOUND = pytest.mark.skipif(not hasattr(tracealg, "MAX_WORD_LEN"), reason="no trace-word bound")

# Code without the --indices bound would build about 10^10 g=4 relations.
NEEDS_INDEX_BOUND = pytest.mark.skipif(not hasattr(tracealg, "MAX_G4_INDICES"), reason="no --indices bound")

# int() refuses digit strings longer than this (0: no limit, as before Python 3.11)
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
NEEDS_INT_DIGIT_LIMIT = pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() has no digit limit")
TOO_MANY_DIGITS = "9" * max(INT_DIGIT_LIMIT + 1, 5000)

DATA = Path(__file__).resolve().parent / "data"
# A = diag(1, 0): not minimal
NON_MINIMAL = str(DATA / "lopsided.dat")
# A = diag(1/sqrt3, -1/sqrt3): minimal, and Ric = I - A^2 = 2/3 I is Einstein.
EINSTEIN = str(DATA / "einstein.dat")


# data that varies over the sphere and that the numeric sweep passes: one e >= 0 scales the whole dataset
# (`sweep._scale_exponent`) and the tolerance is absolute
SCALE_GAPS = {
    # a constant 2 x 2 block of entries 1000 t beside the varying 1 x 1 block 10^-8 t1: compared at the
    # large block's scale, the small one drifts by 3.9e-11
    "mixed_scales": "dataset mixed\ndim 3\ncodim 2\noperator B1\n1000 0 0\n0 -1000 0\n0 0 1/100000000\n"
    "operator B2\n0 1000 0\n1000 0 0\n0 0 0\n",
    # B1 = diag(10^-12, 0), B2 = 0: the block 10^-12 t1 drifts by 2e-12, and e >= 0 never scales it up
    "below_unit_scale": "dataset small\ndim 2\ncodim 2\noperator B1\n1/1000000000000 0\n0 0\noperator B2\n0 0\n0 0\n",
}


def deep_codim(entry, codim=500):
    """dim 1 and codim `codim` with every operator `entry`: the coefficient of
    lambda^0 is a linear form in every normal direction."""
    operators = "".join(f"operator B{a}\n{entry}\n" for a in range(1, codim + 1))
    return f"dataset deep\ndim 1\ncodim {codim}\n{operators}"


# Tokens of the trace grammar, for mutating valid inputs token by token.
TRACE_TOKEN = re.compile(r"A\d+|[A-Za-z_]\w*|\d+|\s+|.", re.DOTALL)
GOALS = ("Tr(A1^3) + Tr(A2^2*A1) + Tr(A3^2*A1)", "(1+sqrt3)*Tr(A1*A2) - 2/3*Tr(A3)", "-1*Tr(A2*A1*A2)")
RULE_LINES = ("Tr(A1^3) = Tr(A1)", "Tr(A1) - 3*Tr(A1*A2^2) = 0", "Tr(A2) = 0  # trace-free")
INSERTS = (" ", "0", "00", "9" * 5000, "1000000000", "\x00", "\u00e9", "\u0661", "A0", "^0", "=", "#")


@st.composite
def mutated(draw, texts):
    """A valid text with tokens deleted, duplicated, swapped or inserted."""
    tokens = TRACE_TOKEN.findall(draw(st.sampled_from(texts)))
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(("delete", "duplicate", "swap", "insert")))
        at = draw(st.integers(0, max(len(tokens) - 1, 0)))
        if edit == "insert" or not tokens:
            tokens.insert(at, draw(st.sampled_from(INSERTS)))
        elif edit == "delete":
            del tokens[at]
        elif edit == "duplicate":
            tokens.insert(at, tokens[at])
        else:
            other = draw(st.integers(0, len(tokens) - 1))
            tokens[at], tokens[other] = tokens[other], tokens[at]
    return "".join(tokens)


@pytest.fixture
def words_read(monkeypatch):
    """The canonical words of the terms the rules reader scans, one a term."""
    words = []

    def counting(self, k):
        scan(self, k)
        words.extend(word for word, _ in self._terms[k])

    scan = tracealg.RulesFile._scan
    monkeypatch.setattr(tracealg.RulesFile, "_scan", counting)
    return words


@pytest.fixture
def readers(monkeypatch):
    """The rules readers `cli` makes, to count the relations each builds."""
    made = []

    class Recording(tracealg.RulesFile):
        def __init__(self, text):
            super().__init__(text)
            made.append(self)

    monkeypatch.setattr(cli, "RulesFile", Recording)
    return made


@pytest.fixture
def walks(monkeypatch):
    """The letters (indices) the rules reader walks in each breadth-first round."""
    searches = []

    def counting(self, letters):
        searches.append(set(letters))
        return walk(self, letters)

    walk = tracealg.RulesFile._walk
    monkeypatch.setattr(tracealg.RulesFile, "_walk", counting)
    return searches


@pytest.fixture
def passes(monkeypatch):
    """Each pass the rules reader makes over its whole text: a search's
    pattern, or "read" for the one pass that reads every line not yet read
    (a walk that searches nothing, after which every line has been scanned)."""
    made = []

    def searching(self, pattern):
        made.append(pattern)
        return search(self, pattern)

    def walking(self, letters):
        before = len(made)
        walk(self, letters)
        if len(made) == before:
            assert None not in self._terms
            made.append("read")

    search, walk = tracealg.RulesFile._search, tracealg.RulesFile._walk
    monkeypatch.setattr(tracealg.RulesFile, "_search", searching)
    monkeypatch.setattr(tracealg.RulesFile, "_walk", walking)
    return made


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

    def test_non_minimal_file_fails(self, capsys):
        assert main(["verify", NON_MINIMAL]) == 1
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

    @pytest.mark.parametrize(
        "dim",
        [
            pytest.param("²", id="superscript-two"),
            pytest.param(TOO_MANY_DIGITS, id="5000-digits", marks=NEEDS_INT_DIGIT_LIMIT),
            pytest.param("0", id="zero"),
            pytest.param("-1", id="negative"),
        ],
    )
    def test_dim_that_is_no_positive_integer_is_an_input_error(self, capsys, tmp_path, dim):
        path = tmp_path / "dim.dat"
        path.write_text(f"dataset x\ndim {dim}\ncodim 1\n", encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.count("error:") == 1
        assert "dim must be a positive integer" in err

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("dataset 9x\ndim 1\ncodim 1\noperator B1\n0\n", 1, "bad dataset identifier '9x'"),
            ("dataset x\ndim 1\ncodim 1\noperator B-1\n0\n", 4, "bad operator label 'B-1'"),
            ("dataset x\ndim 2\ncodim 2\noperator B1\n0 0\noperator B2\n0 0\n0 0\n", 6, "operator B1 has 1 rows, expected 2"),
        ],
        ids=["dataset-identifier", "operator-label", "short-operator"],
    )
    def test_dataset_error_names_its_line(self, capsys, tmp_path, text, line, message):
        path = tmp_path / "bad.dat"
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert not out and err == f"error: {path}: line {line}: {message}\n"

    @pytest.mark.parametrize(
        "fmt, expected",
        [
            ("text", ["[einstein]", "proportional: yes", "constant: 2/3", "verified: yes"]),
            ("keyvalue", ["einstein.proportional=yes", "einstein.constant=2/3", "result.verified=yes"]),
        ],
    )
    def test_einstein_dataset_reports_its_constant(self, capsys, fmt, expected):
        assert main(["verify", EINSTEIN, "--format", fmt]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line in lines for line in expected)
        assert not any("witness" in line for line in lines)

    def test_directory_is_an_input_error(self, capsys, tmp_path):
        assert main(["verify", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_undecodable_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.dat"
        path.write_bytes("dataset caf\xe9\n".encode("latin-1"))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @NEEDS_INT_DIGIT_LIMIT
    @pytest.mark.parametrize("command", [["verify"], ["sweep", "--mode", "symbolic"]], ids=["verify", "sweep"])
    def test_value_too_long_to_write_is_an_input_error(self, capsys, tmp_path, command):
        # the entry has fewer digits than int() reads, its square more than str() writes
        big = "1" + "0" * 2198 + "7"
        path = tmp_path / "big.dat"
        path.write_text(f"dataset big\ndim 4\ncodim 1\noperator B1\n0 {big} 0 0\n{big} 0 0 0\n0 0 1 0\n0 0 0 -1\n")
        assert main([command[0], str(path), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"error: a value has more than {INT_DIGIT_LIMIT} digits and cannot be written\n"

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

    def test_constant_product_of_non_constant_blocks_passes(self, capsys, tmp_path):
        # diag(t, -t) splits into the blocks lambda - t and lambda + t, each
        # non-constant on the sphere {1, -1}; the verdict is on their product
        path = tmp_path / "split.dat"
        path.write_text("dataset split\ndim 2\ncodim 1\noperator B1\n1 0\n0 -1\n", encoding="utf-8")
        assert main(["sweep", str(path), "--mode", "symbolic"]) == 0
        out = capsys.readouterr().out
        assert "constant: l^2 - 1\n" in out
        assert "verdict: pass" in out
        # the numeric sweep too: the blocks drift by 2, so it falls back to their product, which drifts by 0
        assert main(["sweep", str(path), "--mode", "numeric", "--samples", "4"]) == 0
        out = capsys.readouterr().out
        assert "max_deviation: 0.0\n" in out
        assert "verdict: pass" in out

    @pytest.mark.parametrize("copies", [3, 4, 5, 6, 7, 8], ids=lambda k: f"n{10 * k}")
    def test_direct_sums_pass_the_numeric_check(self, capsys, tmp_path, copies):
        # the product of the blocks of k copies of g6_m2_M2 has large coefficients that cancel: evaluated as
        # floats it drifted by 1.7e-8 at n = 50, above the tolerance; each distinct block drifts as at n = 10.
        # From n = 60 a step of the product is above the bound on term pairs, and the blocks pass without it
        path = tmp_path / "sum.dat"
        path.write_text(serialize_dataset(functools.reduce(direct_sum, [builtin("g6_m2_M2")] * copies)), encoding="utf-8")
        assert main(["sweep", str(path), "--mode", "numeric", "--samples", "300"]) == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out
        assert main(["sweep", "g6_m2_M2", "--mode", "numeric", "--samples", "300"]) == 0
        single = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("max_deviation")] == [
            line for line in single.splitlines() if line.startswith("max_deviation")
        ]

    @pytest.mark.parametrize("name", sorted(SCALE_GAPS))
    def test_scale_gaps_vary_over_the_sphere(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.dat"
        path.write_text(SCALE_GAPS[name], encoding="utf-8")
        assert main(["sweep", str(path), "--mode", "symbolic"]) == 1
        assert "verdict: FAIL" in capsys.readouterr().out

    @pytest.mark.xfail(strict=True, reason="one scale e >= 0 for the whole dataset and an absolute tolerance")
    @pytest.mark.parametrize("name", sorted(SCALE_GAPS))
    def test_scale_gaps_fail_the_numeric_check(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.dat"
        path.write_text(SCALE_GAPS[name], encoding="utf-8")
        assert main(["sweep", str(path), "--mode", "numeric"]) == 1

    def test_numeric_within_tolerance(self, capsys):
        assert main(["sweep", "g6_m2_M1", "--mode", "numeric", "--samples", "200", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max_deviation" in out

    def test_non_constant_spectrum_fails(self, capsys):
        assert main(["sweep", NON_MINIMAL, "--mode", "symbolic"]) == 1
        out = capsys.readouterr().out
        assert "constant: no" in out
        assert "witness" in out
        assert main(["sweep", NON_MINIMAL, "--mode", "numeric", "--samples", "4"]) == 1

    def test_zero_samples_is_an_input_error(self, capsys):
        assert main(["sweep", "g6_m1_M1", "--mode", "numeric", "--samples", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --samples") and err.count("\n") == 1

    def test_one_sample_is_an_input_error(self, capsys):
        # one sample compares a point with itself and would always pass
        assert main(["sweep", NON_MINIMAL, "--mode", "numeric", "--samples", "1"]) == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("excess", [1, 999_999_999])
    def test_samples_beyond_the_bound_is_an_input_error(self, capsys, monkeypatch, excess):
        # the bound on samples x codim: 10^9 samples would draw 10^9 points
        def undrawn(*args):
            raise AssertionError("sample points drawn past the bound")

        monkeypatch.setattr(sweep, "_distinct_blocks", undrawn)
        monkeypatch.setattr(sweep, "unit_normal_samples", undrawn)
        samples = sweep.MAX_SAMPLE_COORDINATES // builtin("g6_m1_M1").p + excess
        assert main(["sweep", "g6_m1_M1", "--mode", "numeric", "--samples", str(samples)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --samples") and err.count("\n") == 1

    def test_nan_deviation_fails(self, capsys, monkeypatch):
        # one NaN drift, of the fourth coefficient converted, lambda^0 of the second 2 x 2 block, at sample 5 (seed 0)
        hits = inject_one_nan(monkeypatch, list(sweep.unit_normal_samples(2, 10, 0))[5], 3)
        assert main(["sweep", "g6_m1_M1", "--mode", "numeric", "--samples", "10"]) == 1
        out = capsys.readouterr().out
        assert "max_deviation: nan" in out
        assert "verdict: FAIL" in out
        assert len(hits) == 1

    def test_float_overflow_is_an_input_error(self, capsys, tmp_path):
        huge = "1" + "0" * 400
        path = tmp_path / "huge.dat"
        path.write_text(
            f"dataset huge\ndim 2\ncodim 1\noperator B1\n{huge} 0\n0 -{huge}\n", encoding="utf-8"
        )
        assert main(["sweep", str(path), "--mode", "numeric", "--samples", "4"]) == 2
        err = capsys.readouterr().err
        assert "too large" in err and err.count("\n") == 1

    @pytest.mark.parametrize("entry, code", [("0", 0), ("1", 1), ("-2/3*sqrt3", 1)], ids=["zero", "one", "irrational"])
    def test_codim_500_is_decided_in_both_modes(self, capsys, tmp_path, entry, code):
        path = tmp_path / "deep.dat"
        path.write_text(deep_codim(entry), encoding="utf-8")
        for mode in ("numeric", "symbolic"):
            assert main(["sweep", str(path), "--mode", mode, "--samples", "2"]) == code
            out, err = capsys.readouterr()
            assert f"verdict: {'pass' if code == 0 else 'FAIL'}" in out and not err
        assert ("constant: l\n" in out) == (code == 0)

    @pytest.mark.parametrize("entry, code", [("0", 0), ("1", 1), ("-2/3*sqrt3", 1)], ids=["zero", "one", "irrational"])
    def test_codim_256_runs_on_a_deep_stack(self, capsys, tmp_path, entry, code):
        # dim 1: the coefficients are 1 and the linear form -entry*(t1 + ... + tp)
        path = tmp_path / "deep.dat"
        path.write_text(deep_codim(entry, 256), encoding="utf-8")
        args = ["sweep", str(path), "--mode", "numeric", "--samples", "3"]
        # main is entered with at most 60 frames left below the recursion limit
        assert deeper(sys.getrecursionlimit() - 60 - stack_depth(), lambda: main(args)) == code
        out, err = capsys.readouterr()
        assert f"verdict: {'pass' if code == 0 else 'FAIL'}" in out and not err

    @pytest.mark.parametrize("mode", ["symbolic", "numeric"])
    def test_codim_above_the_work_bound_runs_nothing(self, capsys, monkeypatch, tmp_path, mode):
        # dim 1 at codim 894: (894 + 1)^2 = 801,025 units of work
        def refused(*args):
            raise AssertionError("the sweep ran above the work bound")

        monkeypatch.setattr(sweep, "_block_char_poly", refused)
        monkeypatch.setattr(sweep, "float_terms", refused)
        path = tmp_path / "deep.dat"
        path.write_text(deep_codim("1", 894), encoding="utf-8")
        assert main(["sweep", str(path), "--mode", mode, "--samples", "2"]) == 2
        out, err = capsys.readouterr()
        assert not out and err.count("\n") == 1
        assert "801025 units of work" in err and str(sweep.MAX_SWEEP_WORK) in err

    def test_samples_times_codim_at_the_bound_runs(self, capsys, tmp_path):
        codim, samples = 256, 4000
        assert samples * codim == sweep.MAX_SAMPLE_COORDINATES
        path = tmp_path / "deep.dat"
        path.write_text(deep_codim("1", codim), encoding="utf-8")
        assert main(["sweep", str(path), "--mode", "numeric", "--samples", str(samples)]) == 1
        out, err = capsys.readouterr()
        assert f"samples: {samples}\n" in out and "verdict: FAIL" in out and not err

    def test_samples_times_codim_above_the_bound_draws_no_sample(self, capsys, monkeypatch, tmp_path):
        def refused(*args):
            raise AssertionError("the sweep ran above the bound on samples x codim")

        monkeypatch.setattr(sweep, "_distinct_blocks", refused)
        monkeypatch.setattr(sweep, "unit_normal_samples", refused)
        codim, samples = 127, 8063
        assert codim * samples == sweep.MAX_SAMPLE_COORDINATES + 1
        path = tmp_path / "deep.dat"
        path.write_text(deep_codim("1", codim), encoding="utf-8")
        assert main(["sweep", str(path), "--mode", "numeric", "--samples", str(samples)]) == 2
        out, err = capsys.readouterr()
        assert not out and err.count("\n") == 1
        assert err.startswith(f"error: --samples {samples} at codim {codim}")
        assert str(sweep.MAX_SAMPLE_COORDINATES) in err

    def test_samples_times_terms_above_the_bound_draws_no_sample(self, capsys, monkeypatch, tmp_path):
        # a dense 8 x 8 block at p = 6, 1 KB: its char_poly has 1,032 terms and 9 coefficients
        def refused(*args):
            raise AssertionError("the sweep drew samples above the bound on samples x terms")

        monkeypatch.setattr(sweep, "unit_normal_samples", refused)
        path = tmp_path / "dense.dat"
        path.write_text(DENSE_8_BY_8, encoding="utf-8")
        assert main(["sweep", str(path), "--mode", "numeric", "--samples", "100000"]) == 2
        out, err = capsys.readouterr()
        assert not out and err.count("\n") == 1
        assert "100000 samples of the 1041 terms and coefficients" in err and str(sweep.MAX_SAMPLE_TERMS) in err

    def test_each_pass_is_bounded_on_what_it_evaluates(self, capsys, monkeypatch):
        # the varying-block file drifts, so the product is evaluated after the blocks: with the bound at the
        # blocks' count the blocks' pass runs, and the product's pass, with more terms, exits 2 before a sample
        def count(polys):
            return sum(len(terms) + 1 for poly in polys for terms, _ in poly)

        path, samples = str(DATA / "g6_m1_M1_varying_block.dat"), 300
        blocks = sweep._distinct_blocks(catalog.parse_dataset(Path(path).read_text(encoding="utf-8")))
        blocks_count, product_count = count(poly for poly, _ in blocks), count([sweep._multiply(blocks)])
        assert blocks_count < product_count
        draws, draw = [], sweep.unit_normal_samples
        monkeypatch.setattr(sweep, "unit_normal_samples", lambda p, n, seed: draws.append(n) or draw(p, n, seed))
        monkeypatch.setattr(sweep, "MAX_SAMPLE_TERMS", samples * blocks_count)
        assert main(["sweep", path, "--mode", "numeric", "--samples", str(samples)]) == 2
        out, err = capsys.readouterr()
        assert not out and err.count("\n") == 1
        assert f"{samples} samples of the {product_count} terms and coefficients" in err
        assert draws == [samples]
        # at the product's count both passes run, and the product's drift fails
        monkeypatch.setattr(sweep, "MAX_SAMPLE_TERMS", samples * product_count)
        assert main(["sweep", path, "--mode", "numeric", "--samples", str(samples)]) == 1
        assert "verdict: FAIL" in capsys.readouterr().out
        assert draws == [samples, samples, samples]

    @pytest.mark.parametrize("mode", ["symbolic", "numeric"])
    def test_sweep_beyond_the_work_bound_is_an_input_error(self, capsys, monkeypatch, tmp_path, mode):
        # one dense 8 x 8 block in 8 operators: C(16, 8) (8^2 + 8) = 926,640
        # units of work, and no block is run
        path = tmp_path / "wide.dat"
        path.write_text(dense_file(8, 8), encoding="utf-8")
        blocks = []
        monkeypatch.setattr(sweep, "_block_char_poly", lambda *args: blocks.append(args))
        assert main(["sweep", str(path), "--mode", mode]) == 2
        out, err = capsys.readouterr()
        assert not out and not blocks
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "926640 units of work" in err and str(sweep.MAX_SWEEP_WORK) in err

    @pytest.mark.parametrize("mode", ["symbolic", "numeric"])
    def test_partial_product_beyond_the_term_bound_is_an_input_error(self, capsys, monkeypatch, tmp_path, mode):
        # the blocks hold fewer terms than the bound; the term pairs of a step of
        # their product would not, and that step makes no term product
        convolve = sweep._convolve
        degrees = []

        def counted(coeffs, block):
            degrees.append(len(block) - 1)
            return convolve(coeffs, block)

        monkeypatch.setattr(sweep, "_convolve", counted)
        for name, text, steps in [("diagonal", DIAGONAL_9, 6), ("steps", STEPS_22, 10)]:
            degrees.clear()
            path = tmp_path / f"{name}.dat"
            path.write_text(text, encoding="utf-8")
            assert main(["sweep", str(path), "--mode", mode]) == 2
            out, err = capsys.readouterr()
            assert not out and err.count("\n") == 1
            pairs = re.fullmatch(
                rf"error: .* with (\d+) terms times a block with (\d+) terms makes (\d+) term pairs, "
                rf"above the bound of {sweep.MAX_SWEEP_PAIRS}\n",
                err,
            )
            assert pairs and int(pairs[1]) * int(pairs[2]) == int(pairs[3]) > sweep.MAX_SWEEP_PAIRS
            assert len(degrees) <= steps and set(degrees) == {1}

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

    @NEEDS_INT_DIGIT_LIMIT
    def test_goal_too_long_to_write_is_an_input_error(self, capsys):
        # two denominators of 2,501 digits sum to one of about 5,000
        a, b = "1" + "0" * 2499 + "1", "1" + "0" * 2499 + "3"
        goal = f"1/{a}*Tr(A2*A1) + 1/{b}*Tr(A2*A1)"
        assert main(["tracecheck", "--rules", "g4", "--goal", goal, "--indices", "2"]) == 2
        out, err = capsys.readouterr()
        assert not out and err.startswith("error: a value has more than") and err.count("\n") == 1

    def test_syntax_error_comes_before_an_index_error_earlier_in_the_file(self, capsys, tmp_path):
        rules = tmp_path / "order.rules"
        rules.write_text("Tr(A9) = 0\nTr(A1) = 0\nTr(A1 = 0\n", encoding="utf-8")
        assert main(["tracecheck", "--rules", str(rules), "--goal", "Tr(A1)", "--indices", "2"]) == 2
        assert capsys.readouterr().err == f"error: {rules}: line 3: expected ')' (at position 6)\n"

    def test_goal_error_comes_before_a_relation_index_error(self, capsys, tmp_path):
        rules = tmp_path / "order.rules"
        rules.write_text("Tr(A9) = 0\n", encoding="utf-8")
        assert main(["tracecheck", "--rules", str(rules), "--goal", "Tr(A1", "--indices", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: goal: ")
        assert main(["tracecheck", "--rules", str(rules), "--goal", "Tr(A3)", "--indices", "2"]) == 2
        assert capsys.readouterr().err == "error: operator index in Tr(A3) exceeds p=2\n"

    def test_cancelled_word_above_p_passes(self, capsys, tmp_path):
        # the index check reads the words left after cancellation, as before
        rules = tmp_path / "cancel.rules"
        rules.write_text("Tr(A9) = Tr(A9)\nTr(A1) = 0\n", encoding="utf-8")
        assert main(["tracecheck", "--rules", str(rules), "--goal", "Tr(A1)", "--indices", "2"]) == 0
        assert "relations: 2\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "goal, rc, parsed",
        [(" + ".join(f"Tr(A{b}^2*A7)" for b in range(1, 41)), 0, 41), ("Tr(A2*A1^3000)", 1, 0)],
        ids=["willmore", "power"],
    )
    def test_rules_file_parses_only_the_goal_component(self, capsys, tmp_path, readers, goal, rc, parsed):
        rules = tmp_path / "g4.rules"
        rules.write_text(g4_rules_text(40), encoding="utf-8")
        assert main(["tracecheck", "--rules", str(rules), "--goal", goal, "--indices", "40"]) == rc
        [reader] = readers
        assert sum(relation is not None for relation in reader.relations) == parsed <= 41
        assert "relations: 1640\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "goal, rc",
        [(" + ".join(f"Tr(A{b}^2*A7)" for b in range(1, 41)), 0), ("Tr(A2*A1^3000)", 1)],
        ids=["willmore", "power"],
    )
    def test_rules_file_reads_the_words_of_one_letter(self, capsys, tmp_path, words_read, goal, rc):
        # the 80 lines that name A7 (or A2) hold 315 of the file's 6,360 words
        rules = tmp_path / "g4.rules"
        rules.write_text(g4_rules_text(40), encoding="utf-8")
        assert main(["tracecheck", "--rules", str(rules), "--goal", goal, "--indices", "40"]) == rc
        assert len(words_read) <= 315
        assert "relations: 1640\n" in capsys.readouterr().out

    def test_rules_file_reads_each_line_once_on_a_chain(self, words_read, walks):
        # one component of 1,727 lines, each naming A1, A2 and A3: a search
        # that walks a letter's lines once per word walks them 1,728 times
        words = [f"Tr(A1^{a}*A2^{b}*A3^{c})" for a in range(1, 13) for b in range(1, 13) for c in range(1, 13)]
        rules = tracealg.RulesFile("".join(f"{u} = {v}\n" for u, v in zip(words, words[1:])))
        assert len(rules.component(tracealg.parse_trace_expr("Tr(A1*A2*A3)"))) == 1727
        assert len(words_read) == 2 * 1727
        walked = [letter for letters in walks for letter in letters]
        assert len(walked) == len(set(walked)) <= 3

    def test_rules_file_searches_the_text_once_per_round(self, passes, walks):
        # a binary tree of 15 lines over A1..A31, Tr(Ai) = Tr(A2i) + Tr(A2i+1):
        # from Tr(A1) the search takes 5 breadth-first rounds, and round r
        # needs the 2^(r-1) letters of its level (A1 beside A10-A19, A2
        # beside A20-A29, A3 beside A30 and A31); the first two rounds search
        # the text, the third reads every line, and the last two walk nothing
        # and pass over no text
        text = "".join(f"Tr(A{i}) = Tr(A{2 * i}) + Tr(A{2 * i + 1})\n" for i in range(1, 16))
        rules = tracealg.RulesFile(text)
        goal = tracealg.parse_trace_expr("Tr(A1)")
        assert rules.component(goal) == WholeFile(text).component(goal)
        assert walks == [set(range(2 ** r, 2 ** (r + 1))) for r in range(3)]
        assert [set(re.fullmatch(r"A\(\?:(.*)\)\(\?!\[0-9\]\)", pattern)[1].split("|")) for pattern in passes[:2]] == [
            {"1"},
            {"2", "3"},
        ]
        assert passes[2:] == ["read"]

    def test_rules_file_reads_a_deep_chain_in_linear_time(self, passes, words_read):
        # Tr(Ak) = Tr(Ak+1) for k = 1..5000: from Tr(A1), 5,000 rounds of one
        # new letter each.  Two searches and one full read of the text read
        # them all, each line's words once, so the goal-local reader takes
        # about 1.5 times the whole-file parse (it scans and parses every
        # line); a search of the text per round took 12 times as long.
        text = "".join(f"Tr(A{k}) = Tr(A{k + 1})\n" for k in range(1, 5001))
        goal = tracealg.parse_trace_expr("Tr(A1)")
        assert tracealg.RulesFile(text).component(goal) == WholeFile(text).component(goal)
        assert passes[2:] == ["read"]
        assert sorted(words_read) == sorted((k + d,) for k in range(1, 5001) for d in (0, 1))

        def best(read):
            return min(timeit.repeat(read, number=1, repeat=3))

        goal_local = best(lambda: tracealg.RulesFile(text).component(goal))
        whole_file = best(lambda: WholeFile(text).component(goal))
        assert goal_local < 4 * whole_file

    def test_goal_parse_error(self, capsys):
        assert main(["tracecheck", "--rules", "g4", "--goal", "Tr(A0)", "--indices", "2"]) == 2
        assert "goal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rules, p, message",
        [("g4", "0", "--indices must be >= 1"), ("missing.rules", "1", "rules file 'missing.rules' not found")],
        ids=["indices-zero", "missing-rules"],
    )
    def test_unusable_arguments_are_input_errors(self, capsys, monkeypatch, tmp_path, rules, p, message):
        monkeypatch.chdir(tmp_path)
        assert main(["tracecheck", "--rules", rules, "--goal", "Tr(A1)", "--indices", p]) == 2
        out, err = capsys.readouterr()
        assert not out and err == f"error: {message}\n"

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
            # after a well-formed term, which the one-pattern reader reads
            f"Tr(A2) + Tr(A1^{TOO_MANY_DIGITS})",
            pytest.param(f"Tr(A2) + Tr(A{TOO_MANY_DIGITS})", marks=NEEDS_INT_DIGIT_LIMIT),
            pytest.param(f"Tr(A2) - {TOO_MANY_DIGITS}*Tr(A1)", marks=NEEDS_INT_DIGIT_LIMIT),
            pytest.param(f"Tr(A2) + ({TOO_MANY_DIGITS})*Tr(A1)", marks=NEEDS_INT_DIGIT_LIMIT),
        ],
        ids=[
            "exponent", "index", "numerator", "denominator",
            "exponent-after-a-term", "index-after-a-term", "numerator-after-a-term", "parenthesized-after-a-term",
        ],
    )
    def test_digit_string_beyond_the_int_limit_is_an_input_error(self, capsys, goal):
        assert main(["tracecheck", "--rules", "g4", "--goal", goal, "--indices", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: goal: ") and err.count("\n") == 1

    @NEEDS_INDEX_BOUND
    @pytest.mark.parametrize("excess", [1, 99999])
    def test_indices_beyond_the_g4_bound_is_an_input_error(self, capsys, monkeypatch, excess):
        def unbuilt(*args):
            raise AssertionError("g4 relations built past the bound")

        monkeypatch.setattr(cli, "g4_relations", unbuilt)
        p = tracealg.MAX_G4_INDICES + excess
        assert main(["tracecheck", "--rules", "g4", "--goal", "Tr(A1)", "--indices", str(p)]) == 2
        err = capsys.readouterr().err
        assert "--indices" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "goal, rc",
        [
            ("Tr(A3^3) + Tr(A1^2*A3) + Tr(A2^2*A3) + Tr(A4^2*A3) + Tr(A5^2*A3) + Tr(A6^2*A3)", 0),
            ("2*Tr(A2) - 2*Tr(A2^3) + sqrt3*Tr(A4) - 3*sqrt3*Tr(A4*A5^2) + (1/2-sqrt3)*Tr(A6)", 0),
            ("Tr(A2*A1^50) + Tr(A3)", 1),
        ],
        ids=["willmore", "combination", "power"],
    )
    def test_builtin_rules_print_what_the_same_rules_file_prints(self, capsys, tmp_path, goal, rc):
        # the built-in set reads only the goal's blocks, the file all of them
        rules = tmp_path / "g4.rules"
        rules.write_text("".join(f"{relation} = 0\n" for relation in tracealg.g4_relations(6)), encoding="utf-8")
        assert main(["tracecheck", "--rules", "g4", "--goal", goal, "--indices", "6"]) == rc
        builtin_out = capsys.readouterr().out
        assert main(["tracecheck", "--rules", str(rules), "--goal", goal, "--indices", "6"]) == rc
        assert capsys.readouterr().out == builtin_out
        assert "relations: 42\n" in builtin_out

    @pytest.mark.parametrize("p", range(1, 13))
    def test_relation_count_is_that_of_the_full_set(self, capsys, p):
        assert main(["tracecheck", "--rules", "g4", "--goal", "Tr(A1)", "--indices", str(p)]) == 0
        assert f"relations: {len(tracealg.g4_relations(p))}\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "goal, p, rc, built",
        [
            (" + ".join(f"Tr(A{b}^2*A7)" for b in range(1, 41)), 40, 0, 41),
            ("Tr(A2*A1^3000)", tracealg.MAX_G4_INDICES, 1, 0),
        ],
        ids=["willmore", "power"],
    )
    def test_builtin_rules_build_only_the_goal_blocks(self, capsys, monkeypatch, goal, p, rc, built):
        counts = []

        def counting(*args):
            relations = tracealg.g4_relations(*args)
            counts.append(len(relations))
            return relations

        monkeypatch.setattr(cli, "g4_relations", counting)
        assert main(["tracecheck", "--rules", "g4", "--goal", goal, "--indices", str(p)]) == rc
        assert counts == [built]
        assert f"relations: {p * p + p}\n" in capsys.readouterr().out

    def test_rules_file_needs_no_indices_bound(self, capsys, tmp_path):
        rules = tmp_path / "min.rules"
        rules.write_text("Tr(A1) = 0\n", encoding="utf-8")
        assert main(["tracecheck", "--rules", str(rules), "--goal", "Tr(A1)", "--indices", "99999"]) == 0

    def test_a_long_p_builds_a_short_pattern(self, capsys, monkeypatch, tmp_path):
        # the lines above p are found by a pattern built for p, with about as
        # many alternatives as p has digits: capped where the scan's indices
        # stop, so that a p of 4,001 digits does not build 8 million characters
        rules = tmp_path / "min.rules"
        rules.write_text("Tr(A1) = 0\nTr(A2000000000) = 0\n", encoding="utf-8")
        patterns = []
        above = tracealg._above
        monkeypatch.setattr(tracealg, "_above", lambda p: patterns.append(above(p)) or patterns[-1])
        p = "1" + "0" * 4000
        assert main(["tracecheck", "--rules", str(rules), "--goal", "Tr(A1)", "--indices", p]) == 0
        assert len(patterns) == 1 and len(patterns[0]) < 300
        assert main(["tracecheck", "--rules", str(rules), "--goal", "Tr(A1)", "--indices", "1999999999"]) == 2
        assert capsys.readouterr().err == "error: operator index in Tr(A2000000000) exceeds p=1999999999\n"

    def test_index_beyond_p(self, capsys):
        assert main(["tracecheck", "--rules", "g4", "--goal", "Tr(A5)", "--indices", "2"]) == 2

    def test_index_beyond_p_names_the_word_as_the_goal_line_does(self, capsys, tmp_path):
        # one letter per factor would print 10,000 factors here
        assert main(["tracecheck", "--rules", "g4", "--goal", "Tr(A5^10000)", "--indices", "2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: operator index in Tr(A5^10000) exceeds p=2\n"
        assert len(err) == 50
        rules = tmp_path / "high.rules"
        rules.write_text("Tr(A1) = 0\nTr(A2*A3^2*A2) = 0\n", encoding="utf-8")
        assert main(["tracecheck", "--rules", str(rules), "--goal", "Tr(A1)", "--indices", "2"]) == 2
        assert capsys.readouterr().err == "error: operator index in Tr(A2^2*A3^2) exceeds p=2\n"


@pytest.fixture(scope="module")
def fuzz_rules(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "one.rules"


class TestTracecheckFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        st.tuples(mutated(GOALS), st.none()) | st.tuples(st.sampled_from(GOALS), mutated(RULE_LINES)),
        st.integers(2, 4),
    )
    def test_exit_code_contract(self, fuzz_rules, inputs, p):
        # exit 0 or 1 with a verdict, or exit 2 with one error line; never a traceback
        goal, rules = inputs
        if rules is not None:
            fuzz_rules.write_text(rules + "\n", encoding="utf-8")
        argv = ["tracecheck", "--rules", "g4" if rules is None else str(fuzz_rules), f"--goal={goal}", "--indices", str(p)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
        if rc == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not out.getvalue()
        else:
            assert rc in (0, 1) and not err.getvalue()
            assert out.getvalue().endswith(f"verdict: {'pass' if rc == 0 else 'FAIL'}\n")


class WholeFile:
    """The reader the goal-local one replaced: every line parsed, every
    relation index-checked and handed to the elimination."""

    def __init__(self, text):
        self.lines = self.relations = tracealg.parse_identity_file(text)

    def above(self, p):
        return self.relations

    def component(self, goal):
        return self.relations


def rule_inserts(p):
    """Lines to insert into a rules file over 1..p: bad ones, indices above p,
    cancelling pairs, sqrt3 coefficients, text only the parser reads, lines
    that name a goal's letters but share no multiset with its block, and one
    that joins two blocks through their one-letter words."""
    high = p + 1
    return (
        "Tr(A1 = 0",
        "Tr(A1) == 0",
        "Tr(A1)",
        "1/0*Tr(A1) = 0",
        "Tr(A0) = 0",
        "Tr(A1^0) = 0",
        "Tr(A1)$ = 0",
        "Tr(" + "*".join(["A1^99"] * 102) + ") = 0",
        "Tr(A1^5000*A2^5001) = 0",
        f"Tr(A{high}) = 0",
        f"Tr(A0{high}) = 0",
        f"Tr(A1*A{high + 2}^2) = Tr(A1)",
        f"0*Tr(A{high}) = 0",
        f"Tr(A{high}*A1) = Tr(A1*A{high})",
        "Tr(A9) = Tr(A9)",
        "sqrt3*Tr(A1) - Tr(A1^3) = 0",
        f"(1+sqrt3)*Tr(A1*A{p}) = 0",
        "Tr(A01) = 0",
        "Tr(A\u0661) = 0",
        "Tr(A1)\u00a0= 0",
        "Tr(A1 ^ 2) = Tr(A1)",
        "Tr( A1 ) = 0",
        "- 2*Tr(A1) = -2*Tr(A1^3)",
        "Tr(A1) + Tr(A1^3) = Tr(A1^3) + Tr(A1)",
        "# a comment",
        "Tr(A1) = 0  # trace-free",
        "   ",
        "Tr(A1*A2*A3) = 0",
        "Tr(A1^2*A2^2) = 0",
        "Tr(A1) = Tr(A2)",
    )


@st.composite
def mutated_rules(draw):
    """The g=4 relations over 1..p, p in 1..12, as a rules file with lines
    deleted, duplicated, swapped or inserted, and a goal over 1..p or not."""
    p = draw(st.integers(1, 12))
    lines = []
    for relation in tracealg.g4_relations(p):
        # "relation = 0", or its first word alone on the left
        lead = tracealg.TraceExpr.single(min(relation.terms, key=tracealg._order))
        lines.append(draw(st.sampled_from((f"{relation} = 0", f"{lead} = {lead - relation}"))))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("delete", "duplicate", "swap", "insert")))
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if edit == "insert" or not lines:
            lines.insert(at, draw(st.sampled_from(rule_inserts(p))))
        elif edit == "delete":
            del lines[at]
        elif edit == "duplicate":
            lines.insert(at, lines[at])
        else:
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
    alpha = draw(st.integers(1, p))
    goal = draw(
        st.sampled_from(
            (
                " + ".join(f"Tr(A{b}^2*A{alpha})" for b in range(1, p + 1)),
                f"Tr(A{alpha}^3) - Tr(A{alpha})",
                f"Tr(A1*A{p})",
                f"Tr(A{p}*A1^30)",
                f"Tr(A{p + 1})",
                "Tr(A1",
            )
        )
    )
    return p, "\n".join(lines) + "\n", goal


@pytest.fixture(scope="module")
def differential_rules(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "g4.rules"


def tracecheck_outcomes(path, text, goal, p):
    """(exit code, stdout, stderr) of tracecheck with the goal-local reader,
    then with the whole-file one."""
    path.write_text(text, encoding="utf-8")
    argv = ["tracecheck", "--rules", str(path), f"--goal={goal}", "--indices", str(p)]
    outcomes = []
    for reader in (tracealg.RulesFile, WholeFile):
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
            patch.setattr(cli, "RulesFile", reader)
            rc = main(argv)
        outcomes.append((rc, out.getvalue(), err.getvalue()))
    return outcomes


# A space run long enough that a quadratic-time line check takes seconds.
SPACES = " " * 40_000

# Rules files in which one letter's digits start another's.
DIGIT_FILES = {
    "A1-beside-A10": [
        "Tr(A1^3) = Tr(A1)",
        "Tr(A10*A1^2) = Tr(A10)",
        "Tr(A10) - Tr(A11^2*A10) - Tr(A11*A10*A11) - Tr(A10*A11^2) = 0",
        "Tr(A12^3) = Tr(A12)",
        "Tr(A1) = Tr(A11)",
    ],
    "A10-beside-A100": [
        "Tr(A10^3) = Tr(A10)",
        "Tr(A100*A10^2) = 0",
        "Tr(A100) = Tr(A10)",
        "Tr(A100^3) = Tr(A100)",
    ],
}


class TestRulesReaderAgainstWholeFile:
    @settings(max_examples=60, deadline=None)
    @given(mutated_rules())
    def test_same_bytes_as_parsing_the_whole_file(self, differential_rules, case):
        p, text, goal = case
        goal_local, whole_file = tracecheck_outcomes(differential_rules, text, goal, p)
        assert goal_local == whole_file

    @pytest.mark.parametrize("insert", rule_inserts(3))
    @pytest.mark.parametrize("goal", ["Tr(A1^3) + Tr(A2^2*A1) + Tr(A3^2*A1)", "Tr(A2*A3)"], ids=["willmore", "stray"])
    def test_each_insert_reads_as_the_whole_file(self, differential_rules, insert, goal):
        lines = [f"{relation} = 0" for relation in tracealg.g4_relations(3)]
        lines.insert(5, insert)
        goal_local, whole_file = tracecheck_outcomes(differential_rules, "\n".join(lines), goal, 3)
        assert goal_local == whole_file

    @pytest.mark.parametrize("p", [9, 10, 99, 100])
    @pytest.mark.parametrize("name", DIGIT_FILES)
    @pytest.mark.parametrize("kept", ["within-p", "high-line", "all"])
    @pytest.mark.parametrize("goal", ["Tr(A1^3) - Tr(A1)", "Tr(A10^3) + Tr(A1*A10^2)", "Tr(A11*A10^2) + Tr(A100)"])
    def test_letters_across_a_digit_count(self, differential_rules, p, name, kept, goal):
        # a letter and the letters that extend its digits, at p where the
        # digit count changes: the lines that name no letter above p, those
        # and a high line, or every line; the high line, far from the goal in
        # the file and joined to no goal word, names a letter just above p
        lines = DIGIT_FILES[name]
        if kept != "all":
            lines = [line for line in lines if max(map(int, re.findall(r"A([0-9]+)", line))) <= p]
        lines = lines + g4_rules_text(3).splitlines()
        if kept == "high-line":
            lines.append(f"Tr(A{p + 1}) - Tr(A{p + 1}^3) = 0")
        text = "\n".join(lines) + "\n"
        goal_local, whole_file = tracecheck_outcomes(differential_rules, text, goal, p)
        assert goal_local == whole_file
        above = max(map(int, re.findall(r"A([0-9]+)", text + goal))) > p
        assert (goal_local[0] == 2) == above

    @pytest.mark.parametrize(
        "line, goal",
        [
            ("Tr(A01) = 0", "Tr(A1)"),
            ("Tr(A\u0662^3) = Tr(A2)", "Tr(A2^3) - Tr(A2)"),
            ("Tr( A3 ) = 0", "Tr(A3)"),
            ("(1+sqrt3)*Tr(A1*A2^2) = 0", "Tr(A2^2*A1)"),
            ("(1 + sqrt3)*Tr(A1*A2^2) = 0", "Tr(A2^2*A1)"),
        ],
        ids=["leading-zero", "arabic-indic-digit", "spaces", "sqrt3", "spaced-sqrt3"],
    )
    def test_a_line_only_the_parser_reads_joins_by_its_words(self, differential_rules, line, goal):
        # the goal closes only through the middle line, which the line check
        # rejects, but for "sqrt3": a canonical coefficient, which it accepts
        text = f"Tr(A4) = Tr(A5)\n{line}\nTr(A6^3) = Tr(A6)\n"
        goal_local, whole_file = tracecheck_outcomes(differential_rules, text, goal, 6)
        assert goal_local == whole_file
        assert goal_local[0] == 0

    @pytest.mark.parametrize("p", [99, 100, 110])
    @pytest.mark.parametrize("goal", ["Tr(A1) - Tr(A100)", "Tr(A1) - Tr(A12)", "Tr(A10^3)"])
    def test_a_deep_component_across_a_digit_count(self, differential_rules, passes, p, goal):
        # a chain A1 - A2 - A10 - A11 - A100 beside lines that name A1, A10
        # or A100 in other words: from Tr(A1) the third round scans every
        # line, and the words scanned keep A1, A10, A100 and A110 apart
        text = (
            "Tr(A1) = Tr(A2)\nTr(A110) = Tr(A101)\nTr(A2) = Tr(A10)\nTr(A12*A1^2) = 0\n"
            "Tr(A10) = Tr(A11)\nTr(A100*A10^2) = Tr(A12)\nTr(A11) = Tr(A100)\nTr(A100) = Tr(A1^3)\n"
        )
        goal_local, whole_file = tracecheck_outcomes(differential_rules, text, goal, p)
        assert goal_local == whole_file
        assert goal_local[0] == (2 if p < 110 else 0 if goal == "Tr(A1) - Tr(A100)" else 1)
        assert ("read" in passes) == (p == 110 and goal != "Tr(A10^3)")

    @pytest.mark.parametrize(
        "line",
        [
            SPACES + "x = 0",
            "Tr(A1) =" + SPACES + "x",
            "Tr(A1) +" + SPACES + "x = 0",
            "Tr(A1) -" + SPACES + "x = 0",
            "3*" + SPACES + "x = 0",
            "3" + SPACES + "x*Tr(A1) = 0",
            "Tr(A1)" + SPACES + "x = 0",
        ],
        ids=["line-start", "after-equals", "after-plus", "after-minus", "after-star", "before-star", "before-equals"],
    )
    def test_a_long_space_run_is_checked_in_linear_time(self, differential_rules, line):
        # 40,000 spaces, then a token the line check rejects, at each place it
        # reads a space run: a check with two adjacent space runs backtracks in
        # quadratic time, about 16 s here
        start = time.perf_counter()
        goal_local, whole_file = tracecheck_outcomes(differential_rules, f"Tr(A1) = 0\n{line}\n", "Tr(A1)", 1)
        assert time.perf_counter() - start < 1.0
        assert goal_local == whole_file
        assert goal_local[0] == 2 and goal_local[2].startswith(f"error: {differential_rules}: line 2: ")

    def test_one_reader_answers_several_goals(self):
        text = g4_rules_text(5) + "Tr(A1*A2*A3) = 0\nTr(A1) = Tr(A2)\nTr(A6) = 0\n"
        rules = tracealg.RulesFile(text)
        goals = [
            " + ".join(f"Tr(A{b}^2*A1)" for b in range(1, 6)),
            "Tr(A1*A2*A3) + Tr(A4^3)",
            "Tr(A2^2*A1^2)",
            " + ".join(f"Tr(A{b}^2*A2)" for b in range(1, 6)),
            "Tr(A6) - Tr(A3)",
        ]
        for goal in map(tracealg.parse_trace_expr, goals):
            assert rules.component(goal) == tracealg.RulesFile(text).component(goal)
            assert len(rules.above(5)) == 1


class TestOneParser:
    """`main` parses with one parser per process, built on its first call."""

    def test_several_calls_construct_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser()
        one = len(built)  # the parser and its subcommands' parsers
        built.clear()
        cli._parser.cache_clear()
        assert main(["tracecheck", "--rules", "g4", "--goal", "Tr(A1)", "--indices", "1"]) == 0
        assert main(["verify", "g6_m1_M1"]) == 0
        with pytest.raises(SystemExit):
            main(["sweep"])
        assert main(["paper"]) == 0
        assert built.count("willmore") == 1 and len(built) == one

    def test_usage_error_leaves_the_parser_as_it_was(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["paper"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == (Path(__file__).parent / "golden" / "paper.txt").read_bytes()

    def test_import_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]\n"
            "import willmore.cli\n"
            "print(len(built))\n"
        )
        src = str(Path(willmore.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + script],
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout == "0\n"

    def test_goal_with_a_leading_minus_is_passed_with_equals(self, capsys):
        # argparse reads "-1*Tr(A2)" after a space as an option, not as the value
        assert main(["tracecheck", "--rules", "g4", "--goal=-1*Tr(A2)", "--indices", "2"]) == 0
        assert "goal: -1*Tr(A2)\n" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["tracecheck", "--rules", "g4", "--goal", "-1*Tr(A2)", "--indices", "2"])
        assert exc.value.code == 2


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


class TestOneIntegerForm:
    """The exact kernels read the integer pairs each dataset holds: it is
    converted once per process, whatever runs on it."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        calls = []
        # every module that holds `integer_rows` counts, so that a second builder anywhere shows
        for module in (catalog, curvature, linalg, sweep):
            if hasattr(module, "integer_rows"):
                convert = module.integer_rows
                monkeypatch.setattr(module, "integer_rows", lambda ops, f=convert: calls.append(1) or f(ops))
        return calls

    def test_verify_and_both_sweeps_convert_a_parsed_file_once(self, conversions, tmp_path):
        path = tmp_path / "g6_m2_M2.dat"
        path.write_text(serialize_dataset(builtin("g6_m2_M2")), encoding="utf-8")
        data = cli.load_dataset(str(path))
        assert verify_certificate(data)[1]
        assert symbolic_sweep(data).constant
        assert numeric_sweep(data, 16, 0) < cli.NUMERIC_TOLERANCE
        assert len(conversions) == 1

    def test_paper_converts_each_builtin_once_per_process(self, conversions, monkeypatch, capsys):
        for name in BUILTIN_NAMES:  # as a fresh process has them
            monkeypatch.delitem(vars(builtin(name)), "integer_form", raising=False)
        assert main(["paper"]) == 0
        assert len(conversions) == len(BUILTIN_NAMES) == 4
        assert main(["paper"]) == 0
        assert len(conversions) == 4

    @pytest.mark.parametrize("name", ["sum20_g6_m2_M2.dat", "g6_m2_M2_cayley.dat"])
    def test_verify_takes_no_operator_trace_from_the_matrix(self, monkeypatch, name):
        # the report carries Tr A_a from the integer pairs: the certificate's
        # trace.<label> fields, the minimal flag and the consistency check read
        # them, and only the Ricci tensor's trace is taken from a Matrix
        data = cli.load_dataset(str(Path(__file__).parent / "data" / name))
        traced = []
        trace = Matrix.trace
        monkeypatch.setattr(Matrix, "trace", lambda m: traced.append(m) or trace(m))
        cert, ok = verify_certificate(data)
        report = curvature_report(data)
        monkeypatch.undo()
        assert ok and len(traced) == 1 and traced[0] == report.ricci
        assert report.traces == tuple(op.trace() for op in data.operators)
        fields = dict(dict(cert.sections)["minimality"])
        assert [fields[f"trace.{label}"] for label in data.labels] == ["0"] * data.p

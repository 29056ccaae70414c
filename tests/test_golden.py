"""Certificates compared byte for byte with the files under tests/golden/.

Every line of tests/golden/MANIFEST, read by tests/run_manifest.py, runs here
through `cli.main` from the repository root: it must exit with the line's
code and print its golden file byte for byte.  CI runs the same lines through
the installed console script.  The input files the lines read are committed;
those in DATASETS are regenerated here byte for byte, and those in
HAND_WRITTEN are their own source.  Two more golden files pin the package's
fixed data (FIXED_DATA).  Every golden file is pinned, and every file a
line reads is accounted for.  The runner's controls check that it fails on a
wrong byte, a wrong exit code and a wrong dataset.

After an intended change to a certificate, rewrite the files with
    PYTHONPATH=src python tests/test_golden.py
and review the diff; that also rewrites the generated input files.
"""

import contextlib
import io
import os
import random
import re
import sys
from pathlib import Path

import pytest

import run_manifest
from frames import cayley_frame, change_frame, direct_sum, rotate_normals
from g4_rules import g4_rules_text
from sweep_inputs import dense_file
import willmore
from willmore.catalog import BUILTIN_NAMES, ShapeOperatorSet, builtin, serialize_dataset
from willmore.cli import main
from willmore.exactnum import QuadExt, parse_scalar
from willmore.linalg import Matrix
from willmore.tracealg import g4_relations

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
DATA = TESTS / "data"
SRC = Path(willmore.__file__).resolve().parents[1]
CAYLEY = DATA / "g6_m2_M2_cayley.dat"
PADDED = DATA / "g6_m2_M2_padded.dat"
SPACED = DATA / "g4_p8_spaced.rules"
LINES = run_manifest.read_manifest()


def cayley_dataset():
    """g6_m2_M2 in a Cayley frame, then a Cayley normal rotation, from a
    fixed seed: every entry nonzero with 45-51-bit denominators, one block."""
    rng = random.Random(2014)
    data = change_frame(builtin("g6_m2_M2"), cayley_frame(10, rng))
    data = rotate_normals(data, cayley_frame(3, rng))
    return ShapeOperatorSet("g6_m2_M2_cayley", data.n, data.p, data.operators, data.labels)


def sum20_dataset():
    """The direct sum of two g6_m2_M2, n = 20: each of its blocks twice."""
    data = direct_sum(builtin("g6_m2_M2"), builtin("g6_m2_M2"))
    return ShapeOperatorSet("sum20_g6_m2_M2", data.n, data.p, data.operators, data.labels)


def dense14_dataset():
    """Three symmetric 14 x 14 operators with every entry -1 or 1, from a
    fixed seed: one block, not constant on the sphere."""
    rng = random.Random(0)
    n, p = 14, 3
    ops = []
    for _ in range(p):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice((-1, 1))
        ops.append(Matrix([[QuadExt(v) for v in row] for row in rows]))
    return ShapeOperatorSet("dense14_p3", n, p, tuple(ops), tuple(f"B{a + 1}" for a in range(p)))


def raised_cayley_dataset():
    """g6_m2_M2 with 1 added to (0, 1) and (1, 0) of B1, in a Cayley frame,
    then a Cayley normal rotation, from a fixed seed: every entry nonzero, the
    operators' joint rank still 8 of 10 (rows 4 and 5 stay zero before the
    frame change), and not constant on the sphere, first at lambda^2."""
    base = builtin("g6_m2_M2")
    rows = [list(row) for row in base.operators[0].rows]
    rows[0][1] = rows[1][0] = rows[0][1] + 1
    data = ShapeOperatorSet(base.name, base.n, base.p, (Matrix(rows),) + base.operators[1:], base.labels)
    rng = random.Random(2015)
    data = rotate_normals(change_frame(data, cayley_frame(10, rng)), cayley_frame(3, rng))
    return ShapeOperatorSet("g6_m2_M2_raised_cayley", data.n, data.p, data.operators, data.labels)


def varying_block_dataset():
    """g6_m1_M1 (blocks {0, 4}, {1, 3} and {2}, each constant on the sphere)
    direct-summed with the block B1 = [[1/2, sqrt3], [sqrt3, -1/3]], B2 =
    diag(2/3, -sqrt3), whose determinant varies: the verdict is taken on the
    product of four distinct blocks, first failing at lambda^1."""
    block = [[["1/2", "sqrt3"], ["sqrt3", "-1/3"]], [["2/3", "0"], ["0", "-sqrt3"]]]
    ops = tuple(Matrix([[parse_scalar(e) for e in row] for row in rows]) for rows in block)
    data = direct_sum(builtin("g6_m1_M1"), ShapeOperatorSet("block", 2, 2, ops, ("B1", "B2")))
    return ShapeOperatorSet("g6_m1_M1_varying_block", data.n, data.p, data.operators, data.labels)


def spaced_rules_text():
    """The g=4 relations at p = 8 with no comment line, the lines in every
    other pair spelled with a space inside 'Tr( )': runs of lines the line
    check accepts between pairs it rejects, which the parser reads."""
    lines = g4_rules_text(8).splitlines()[1:]
    return "".join((line.replace("Tr(", "Tr( ") if k % 4 in (1, 2) else line) + "\n" for k, line in enumerate(lines))


def diagonal_dataset(name, label, entries):
    """One operator, `label`, diagonal with the given entries."""
    n = len(entries)
    op = Matrix([[parse_scalar(entries[i]) if i == j else QuadExt(0) for j in range(n)] for i in range(n)])
    return ShapeOperatorSet(name, n, 1, (op,), (label,))


# committed input file -> the generator of its text
DATASETS = {
    CAYLEY: lambda: serialize_dataset(cayley_dataset()),
    DATA / "sum20_g6_m2_M2.dat": lambda: serialize_dataset(sum20_dataset()),
    DATA / "dense14_p3.dat": lambda: serialize_dataset(dense14_dataset()),
    DATA / "dense60_p1.dat": lambda: dense_file(60, 1),
    DATA / "g6_m2_M2_raised_cayley.dat": lambda: serialize_dataset(raised_cayley_dataset()),
    DATA / "g6_m1_M1_varying_block.dat": lambda: serialize_dataset(varying_block_dataset()),
    # every denominator written with a leading zero
    PADDED: lambda: re.sub(r"/(\d)", r"/0\1", serialize_dataset(builtin("g6_m2_M2"))),
    DATA / "lopsided.dat": lambda: serialize_dataset(diagonal_dataset("lopsided", "B1", ["1", "0"])),
    DATA / "einstein.dat": lambda: serialize_dataset(diagonal_dataset("einstein", "A1", ["1/3*sqrt3", "-1/3*sqrt3"])),
    DATA / "g4_p4.rules": lambda: g4_rules_text(4),
    SPACED: spaced_rules_text,
}

# committed input files written by hand, each its own source
HAND_WRITTEN = (DATA / "coefficients.rules", DATA / "mixed.rules")

# golden file -> the generator of the fixed data it pins
FIXED_DATA = {
    "builtins.dat": lambda: "".join(serialize_dataset(builtin(name)) for name in BUILTIN_NAMES),
    "g4_relations_p4.txt": lambda: "".join(f"{relation}\n" for relation in g4_relations(4)),
}


def render(line):
    """(exit code, stdout) of the line's command through `cli.main`, run from
    the repository root."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(line.argv)
    return code, out.getvalue()


def line_ids(lines):
    """Each line's golden file, with its manifest line number where an
    earlier line pins the same file."""
    ids, seen = [], set()
    for line in lines:
        ids.append(f"{line.golden.name}:{line.number}" if line.golden in seen else line.golden.name)
        seen.add(line.golden)
    return ids


@pytest.mark.parametrize("line", LINES, ids=line_ids(LINES))
def test_certificate_matches_golden_file(line, monkeypatch):
    monkeypatch.chdir(run_manifest.ROOT)
    code, out = render(line)
    assert code == line.code
    assert out.encode("utf-8") == line.golden.read_bytes()


@pytest.mark.parametrize("path", sorted(DATASETS), ids=lambda path: path.name)
def test_dataset_is_the_generated_one(path):
    assert DATASETS[path]().encode("utf-8") == path.read_bytes()


@pytest.mark.parametrize("name", sorted(FIXED_DATA))
def test_fixed_data_matches_golden_file(name):
    assert FIXED_DATA[name]().encode("utf-8") == (GOLDEN / name).read_bytes()


def test_every_golden_file_is_pinned_and_every_input_is_accounted_for():
    assert sorted(path.name for path in GOLDEN.iterdir() if path.name != "MANIFEST") == sorted(
        {line.golden.name for line in LINES} | set(FIXED_DATA)
    )
    named = {line.dataset for line in LINES if line.dataset}
    named |= {run_manifest.ROOT / arg for line in LINES for arg in line.argv if Path(arg).suffix in (".dat", ".rules")}
    made = {*DATASETS, *HAND_WRITTEN, *(GOLDEN / name for name in FIXED_DATA)}
    for path in sorted(named):
        assert path.is_relative_to(TESTS) and path.is_file() and path in made, path
    assert all(line.reason for line in LINES)
    assert "/0" in PADDED.read_text(encoding="utf-8")
    assert sum("Tr( " in line for line in SPACED.read_text(encoding="utf-8").splitlines()) == 36


# three real lines for the runner's controls: a sweep, a tracecheck that
# exits 1 and a certificate with its checker
CONTROLS = ("sweep_g6_m1_M1.txt", "tracecheck_g4_fail.txt", "verify_einstein_text.txt")


def run_controls(tmp_path, capsys, monkeypatch, target=None, fault=None):
    """(exit code, stderr, lines) of the runner with `python -m willmore` on
    a manifest of the CONTROLS lines, `fault` applied to the target's line."""
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    lines = [next(line for line in LINES if line.golden.name == name) for name in CONTROLS]
    lines = [fault(line, tmp_path) if line.golden.name == target else line for line in lines]
    manifest = tmp_path / "MANIFEST"
    manifest.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    code = run_manifest.main([sys.executable, "-m", "willmore"], manifest)
    return code, capsys.readouterr().err, run_manifest.read_manifest(manifest)


def test_the_runner_passes_the_untouched_lines(tmp_path, capsys, monkeypatch):
    code, err, lines = run_controls(tmp_path, capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert [line.golden.name for line in lines] == list(CONTROLS)


def flipped_byte(line, tmp_path):
    copy = tmp_path / line.golden.name
    data = bytearray(line.golden.read_bytes())
    data[len(data) // 2] ^= 1
    copy.write_bytes(bytes(data))
    return line._replace(golden=copy)


@pytest.mark.parametrize(
    "target, fault, message",
    [
        ("sweep_g6_m1_M1.txt", flipped_byte, "stdout differs from the golden file"),
        ("tracecheck_g4_fail.txt", lambda line, _: line._replace(code=line.code + 1), "exit 1, expected 2"),
        ("verify_einstein_text.txt", lambda line, _: line._replace(dataset=CAYLEY),
         "checker: dataset: 'einstein' is not in the dataset text"),
    ],
    ids=["golden-byte", "exit-code", "checker-dataset"],
)
def test_the_runner_names_the_line_of_each_fault(tmp_path, capsys, monkeypatch, target, fault, message):
    code, err, lines = run_controls(tmp_path, capsys, monkeypatch, target, fault)
    number = next(line.number for line in lines if line.golden.name == target)
    assert code == 1
    assert err.startswith(f"MANIFEST:{number}: {target}: {message}")
    assert err.count("MANIFEST:") == 1


def test_the_runner_refuses_a_manifest_with_no_lines(tmp_path, capsys):
    manifest = tmp_path / "MANIFEST"
    manifest.write_text("# a comment, no line\n", encoding="utf-8")
    assert run_manifest.main([sys.executable, "-m", "willmore"], manifest) == 2
    assert "no lines" in capsys.readouterr().err


if __name__ == "__main__":
    os.chdir(run_manifest.ROOT)
    for path, generate in DATASETS.items():
        path.write_bytes(generate().encode("utf-8"))
    for name, generate in FIXED_DATA.items():
        (GOLDEN / name).write_bytes(generate().encode("utf-8"))
    for line in LINES:
        line.golden.write_bytes(render(line)[1].encode("utf-8"))

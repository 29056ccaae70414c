"""Certificates compared byte for byte with the files under tests/golden/.

The determinism tests compare two runs of the same build; these pin the
bytes across changes to the code.  Four numeric sweeps are pinned too, so
that a change to the samples or to the float evaluation shows: their
`max_deviation` is float output of a seeded draw, which a platform with
another libm may round otherwise in its last bits.  The built-ins split
into sparse blocks, so one sweep runs on tests/data/g6_m2_M2_cayley.dat, a dense
10 x 10 block generated by `cayley_dataset`, and one on
tests/data/sum20_g6_m2_M2.dat, two copies of each block of g6_m2_M2
generated by `sum20_dataset`.  One sweep fails: on
tests/data/dense14_p3.dat, random symmetric +-1 operators generated by
`dense14_dataset`, whose witness is a long polynomial of degree 14 in three
variables, and one on tests/data/g6_m2_M2_raised_cayley.dat, generated by
`raised_cayley_dataset`: dense, yet its operators share a 2-dimensional
kernel, and its witness is the lowest coefficient that the kernel's rank
leaves nonzero.  One more fails on the product of several distinct blocks:
tests/data/g6_m1_M1_varying_block.dat, generated by `varying_block_dataset`,
is g6_m1_M1 with a 2 x 2 block of sqrt3 and fractional entries whose
determinant varies over the sphere.  The widest digits of the sweep's packed
rows come at p = 1, where the entries of the powers grow fastest: one sweep
fails on the dense +-1 60 x 60 block of `sweep_inputs.dense_file(60, 1)`,
its witness at lambda^37.  One tracecheck reads tests/data/g4_p4.rules,
the g=4 relations at p=4 in the form the benchmark writes, whose every line
the rules reader's line check (terms of `tracealg._TERM`) accepts, and one reads
the hand-written tests/data/coefficients.rules, whose coefficients have sqrt3
and fractional parts and repeat on a line.  One more tracecheck uses the built-in g=4 relations at
p=12, on a goal over the blocks of the two-digit letters A10-A12 with
fractional and sqrt3 coefficients and a word in no block.  Two more files pin the package's
fixed data: the four built-ins as `serialize_dataset` writes them, and the
g=4 relations at p=4 as `str` renders them, one per line, in order.

After an intended change to a certificate, rewrite the files with
    PYTHONPATH=src python tests/test_golden.py
and review the diff; that also rewrites the committed input files.
"""

import contextlib
import io
import random
from pathlib import Path

import pytest

from frames import cayley_frame, change_frame, direct_sum, rotate_normals
from g4_rules import g4_rules_text
from sweep_inputs import dense_file
from willmore.catalog import BUILTIN_NAMES, ShapeOperatorSet, builtin, serialize_dataset
from willmore.cli import main
from willmore.exactnum import QuadExt, parse_scalar
from willmore.linalg import Matrix
from willmore.tracealg import g4_relations

GOLDEN = Path(__file__).parent / "golden"
CAYLEY = Path(__file__).parent / "data" / "g6_m2_M2_cayley.dat"
SUM20 = Path(__file__).parent / "data" / "sum20_g6_m2_M2.dat"
DENSE14 = Path(__file__).parent / "data" / "dense14_p3.dat"
RAISED = Path(__file__).parent / "data" / "g6_m2_M2_raised_cayley.dat"
VARYING = Path(__file__).parent / "data" / "g6_m1_M1_varying_block.dat"
G4_P4 = Path(__file__).parent / "data" / "g4_p4.rules"
COEFFICIENTS = Path(__file__).parent / "data" / "coefficients.rules"


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


# committed input file -> the generator of its text
DATASETS = {
    CAYLEY: lambda: serialize_dataset(cayley_dataset()),
    SUM20: lambda: serialize_dataset(sum20_dataset()),
    DENSE14: lambda: serialize_dataset(dense14_dataset()),
    RAISED: lambda: serialize_dataset(raised_cayley_dataset()),
    VARYING: lambda: serialize_dataset(varying_block_dataset()),
    G4_P4: lambda: g4_rules_text(4),
}

# golden file -> the generator of the fixed data it pins
FIXED_DATA = {
    "builtins.dat": lambda: "".join(serialize_dataset(builtin(name)) for name in BUILTIN_NAMES),
    "g4_relations_p4.txt": lambda: "".join(f"{relation}\n" for relation in g4_relations(4)),
}


NON_MINIMAL = """\
dataset lopsided
dim 2
codim 1
operator B1
1 0
0 0
"""

MIXED_RULES = """\
# coefficients with rational and sqrt3 parts
(1+sqrt3)*Tr(A1*A2) - 2/3*sqrt3*Tr(A1^3) = 0
Tr(A1^3) = 1-sqrt3*Tr(A2^2*A1)   # scalar "1-sqrt3" times a trace
-1/2*Tr(A2) + sqrt3 * Tr(A1) = 0
"""

# golden file name -> (argv, expected exit code); "{lopsided}", "{mixed}" and
# "{dense60}" stand for files written from NON_MINIMAL, MIXED_RULES and
# dense_file(60, 1), "{cayley}",
# "{sum20}", "{dense14}", "{raised}", "{varying}", "{g4_p4}" and "{coefficients}" for the committed
# input files
CASES = {
    **{
        f"verify_{name}_{fmt}.txt": (["verify", name, "--format", fmt], 0)
        for name in BUILTIN_NAMES
        for fmt in ("text", "keyvalue")
    },
    **{f"sweep_{name}.txt": (["sweep", name, "--mode", "symbolic"], 0) for name in BUILTIN_NAMES},
    "sweep_lopsided.txt": (["sweep", "{lopsided}", "--mode", "symbolic"], 1),
    "sweep_g6_m2_M2_cayley.txt": (["sweep", "{cayley}", "--mode", "symbolic"], 0),
    "sweep_sum20_g6_m2_M2.txt": (["sweep", "{sum20}", "--mode", "symbolic"], 0),
    "sweep_dense14_p3.txt": (["sweep", "{dense14}", "--mode", "symbolic"], 1),
    "sweep_dense60_p1.txt": (["sweep", "{dense60}", "--mode", "symbolic"], 1),
    "sweep_g6_m2_M2_raised_cayley.txt": (["sweep", "{raised}", "--mode", "symbolic"], 1),
    "sweep_g6_m1_M1_varying_block.txt": (["sweep", "{varying}", "--mode", "symbolic"], 1),
    # numeric sweeps at p = 2 and p = 3, passing, and at p = 1 and over four blocks, failing
    "sweep_g6_m1_M1_numeric.txt": (["sweep", "g6_m1_M1", "--mode", "numeric"], 0),
    "sweep_g6_m2_M2_numeric.txt": (["sweep", "g6_m2_M2", "--mode", "numeric"], 0),
    "sweep_lopsided_numeric.txt": (["sweep", "{lopsided}", "--mode", "numeric"], 1),
    "sweep_g6_m1_M1_varying_block_numeric.txt": (["sweep", "{varying}", "--mode", "numeric", "--samples", "300"], 1),
    "verify_g6_m2_M2_cayley_text.txt": (["verify", "{cayley}"], 0),
    "verify_g6_m2_M2_cayley_keyvalue.txt": (["verify", "{cayley}", "--format", "keyvalue"], 0),
    "verify_sum20_g6_m2_M2_text.txt": (["verify", "{sum20}"], 0),
    "paper.txt": (["paper"], 0),
    "tracecheck_g4_pass.txt": (
        ["tracecheck", "--rules", "g4", "--goal", "Tr(A1^3) + Tr(A2^2*A1) + Tr(A3^2*A1)", "--indices", "3"],
        0,
    ),
    "tracecheck_g4_fail.txt": (
        ["tracecheck", "--rules", "g4", "--goal", "Tr(A1^3) + Tr(A2^3) + 2*Tr(A1*A2) - Tr(A2^2*A1*A2)",
         "--indices", "2"],
        1,
    ),
    "tracecheck_mixed.txt": (
        ["tracecheck", "--rules", "{mixed}", "--goal", "Tr(A2*A1) + (2-1/3*sqrt3)*Tr(A1*A2*A2) - Tr(A2)",
         "--indices", "2"],
        1,
    ),
    # a goal in the blocks of A2 and A3
    "tracecheck_g4_p4_rules.txt": (
        ["tracecheck", "--rules", "{g4_p4}", "--goal",
         "Tr(A2^3) + Tr(A1^2*A2) + Tr(A3^2*A2) + Tr(A4^2*A2) - 3*Tr(A1^2*A3)", "--indices", "4"],
        0,
    ),
    # a goal over the blocks of A10, A11 and A12 and one word in no block
    "tracecheck_g4_p12.txt": (
        ["tracecheck", "--rules", "g4", "--goal",
         "Tr(A10^3) + 1/2*Tr(A11^2*A10) + (2-sqrt3)*Tr(A12^2*A11) - sqrt3*Tr(A10^2*A12) + 3/4*Tr(A12)"
         " - 2/3*Tr(A11*A12) + Tr(A1^2*A11)", "--indices", "12"],
        1,
    ),
    "tracecheck_coefficients_rules.txt": (
        ["tracecheck", "--rules", "{coefficients}", "--goal",
         "Tr(A1^2*A2) + 4*sqrt3*Tr(A1*A3^2) - 3*Tr(A2*A3^2) + Tr(A1^3) + 2/3*Tr(A2*A1*A3)"
         " + (1-sqrt3)*Tr(A2^2*A3) - Tr(A1*A2^2)", "--indices", "3"],
        1,
    ),
}


def render(name, directory):
    """stdout of the case's command; its exit code is checked too."""
    lopsided = Path(directory) / "lopsided.dat"
    lopsided.write_text(NON_MINIMAL, encoding="utf-8")
    mixed = Path(directory) / "mixed.rules"
    mixed.write_text(MIXED_RULES, encoding="utf-8")
    dense60 = Path(directory) / "dense60.dat"
    dense60.write_text(dense_file(60, 1), encoding="utf-8")
    paths = {
        "lopsided": lopsided, "mixed": mixed, "dense60": dense60, "cayley": CAYLEY, "sum20": SUM20, "dense14": DENSE14, "raised": RAISED,
        "varying": VARYING, "g4_p4": G4_P4, "coefficients": COEFFICIENTS,
    }
    argv, code = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([arg.format(**paths) for arg in argv]) == code
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_matches_golden_file(name, tmp_path):
    assert render(name, tmp_path).encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("path", sorted(DATASETS), ids=lambda path: path.name)
def test_dataset_is_the_generated_one(path):
    assert DATASETS[path]().encode("utf-8") == path.read_bytes()


@pytest.mark.parametrize("name", sorted(FIXED_DATA))
def test_fixed_data_matches_golden_file(name):
    assert FIXED_DATA[name]().encode("utf-8") == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    CAYLEY.parent.mkdir(exist_ok=True)
    for path, generate in DATASETS.items():
        path.write_bytes(generate().encode("utf-8"))
    for name, generate in FIXED_DATA.items():
        (GOLDEN / name).write_bytes(generate().encode("utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / case).write_bytes(render(case, tmp).encode("utf-8"))

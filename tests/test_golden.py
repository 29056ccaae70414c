"""Certificates compared byte for byte with the files under tests/golden/.

The determinism tests compare two runs of the same build; these pin the
bytes across changes to the code.  Numeric sweeps are left out: their
deviations are platform float output.

After an intended change to a certificate, rewrite the files with
    PYTHONPATH=src python tests/test_golden.py
and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from willmore.catalog import BUILTIN_NAMES
from willmore.cli import main

GOLDEN = Path(__file__).parent / "golden"

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

# golden file name -> (argv, expected exit code); "{lopsided}" and "{mixed}"
# stand for files written from NON_MINIMAL and MIXED_RULES
CASES = {
    **{
        f"verify_{name}_{fmt}.txt": (["verify", name, "--format", fmt], 0)
        for name in BUILTIN_NAMES
        for fmt in ("text", "keyvalue")
    },
    **{f"sweep_{name}.txt": (["sweep", name, "--mode", "symbolic"], 0) for name in BUILTIN_NAMES},
    "sweep_lopsided.txt": (["sweep", "{lopsided}", "--mode", "symbolic"], 1),
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
}


def render(name, directory):
    """stdout of the case's command; its exit code is checked too."""
    lopsided = Path(directory) / "lopsided.dat"
    lopsided.write_text(NON_MINIMAL, encoding="utf-8")
    mixed = Path(directory) / "mixed.rules"
    mixed.write_text(MIXED_RULES, encoding="utf-8")
    argv, code = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([arg.format(lopsided=lopsided, mixed=mixed) for arg in argv]) == code
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_matches_golden_file(name, tmp_path):
    assert render(name, tmp_path).encode("utf-8") == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / case).write_bytes(render(case, tmp).encode("utf-8"))

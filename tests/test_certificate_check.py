"""The independent certificate checker (`certificate_check`): it passes every
`verify` certificate the golden files hold, on the dataset each line of
tests/golden/MANIFEST names for it, and
every certificate `willmore verify` writes for minimal, non-minimal,
non-Willmore and Einstein data; it names the first field of a certificate
that differs from what it recomputes; its scalar text is the package's."""

import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certificate_check
import run_manifest
from willmore.catalog import builtin, serialize_dataset
from willmore.cli import main
from willmore.exactnum import QuadExt, format_scalar, parse_scalar

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
VERIFY_GOLDEN = sorted(GOLDEN.glob("verify_*.txt"))
BUILTINS = GOLDEN / "builtins.dat"
# golden file -> the (dataset file, exit code) of each manifest line that checks it
CHECKED = {}
for line in run_manifest.read_manifest():
    if line.dataset:
        CHECKED.setdefault(line.golden, []).append((line.dataset, line.code))


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def test_the_golden_files_hold_thirteen_verify_certificates():
    assert len(VERIFY_GOLDEN) == 13
    assert set(VERIFY_GOLDEN) <= set(CHECKED)


@pytest.mark.parametrize("certificate", sorted(CHECKED), ids=lambda path: path.stem)
def test_every_golden_verify_certificate_checks(certificate):
    for dataset, code in CHECKED[certificate]:
        values = certificate_check.check_certificate(read(dataset), read(certificate))
        assert values["verified"] == (code == 0)


def test_the_four_certificates_of_paper_check():
    text = read(GOLDEN / "paper.txt").partition("\n\n[sweep]\n")[0] + "\n"
    certificates = re.split(r"\n(?=tool: )", text)
    builtins = read(BUILTINS)
    for cert in certificates:
        certificate_check.check_certificate(builtins, cert)
    names = [cert.splitlines()[1] for cert in certificates]
    assert names == ["dataset: g6_m1_M1", "dataset: g6_m1_M2", "dataset: g6_m2_M1", "dataset: g6_m2_M2"]


def verify(tmp_path, text, *flags):
    """(exit code, certificate) of `willmore verify` on a dataset text."""
    path = tmp_path / "data.dat"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(path), *flags])
    return code, out.getvalue()


def diagonal(name, entries):
    n = len(entries)
    rows = [" ".join(entries[i] if i == j else "0" for j in range(n)) for i in range(n)]
    return f"dataset {name}\ndim {n}\ncodim 1\noperator B1\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "text, code, lines",
    [
        (diagonal("lopsided", ["1", "0"]), 1, ["verdict: FAIL", "value: 1", "verified: no"]),
        (diagonal("cubic", ["2", "-1", "-1"]), 1, ["cubic.B1: 6", "ricci_form.B1: -6", "ricci_form_verdict: FAIL"]),
        (diagonal("einstein", ["1/3*sqrt3", "-1/3*sqrt3"]), 0, ["proportional: yes", "constant: 2/3"]),
        (diagonal("flat", ["0"]), 0, ["quadruples: 1", "verified: yes"]),
    ],
    ids=["non-minimal", "minimal-not-willmore", "einstein", "one-dimensional"],
)
@pytest.mark.parametrize("fmt", ["text", "keyvalue"])
def test_certificates_of_every_branch_check(tmp_path, text, code, lines, fmt):
    got, certificate = verify(tmp_path, text, "--format", fmt, "--timestamp")
    assert got == code
    values = certificate_check.check_certificate(text, certificate)
    assert values["verified"] == (code == 0)
    if fmt == "text":
        assert set(lines) <= set(certificate.splitlines())


EDITS = [
    ("n: 10", "n: 11", "n"),
    ("trace.A12: 0", "trace.A12: 1", "minimality.trace.A12"),
    ("value: 40", "value: 40+sqrt3", "square_norm.value"),
    ("row4: 0 0 0 0 9 0 0 0 0 0", "row4: 0 0 0 0 9 0 0 0 0 1/2", "ricci.row4"),
    ("trace: 50", "trace: 49", "ricci.trace"),
    ("proportional: no", "proportional: yes", "einstein.proportional"),
    ("(4,4) = 9", "(5,5) = 9", "einstein.witness"),
    ("verdict: pass\ncubic", "verdict: FAIL\ncubic", "willmore.verdict"),
    ("cubic.A13: 0", "cubic.A13: -sqrt3", "willmore.cubic.A13"),
    ("ricci_form.A11: 0", "ricci_form.A11: 2", "willmore.ricci_form.A11"),
    ("consistency: pass", "consistency: FAIL", "willmore.consistency"),
    ("quadruples: 625", "quadruples: 10000", "riemann.quadruples"),
    ("bianchi: pass", "bianchi: FAIL", "riemann.bianchi"),
    ("contraction: pass", "contraction: FAIL", "riemann.contraction"),
    ("verified: yes", "verified: no", "result.verified"),
    ("\n[einstein]\n", "\n[Einstein]\n", "einstein"),
    ("verified: yes\n", "verified: yes\nextra: 1\n", "result.verified"),
    ("\nconsistency: pass", "", "willmore.consistency"),
]


@pytest.mark.parametrize("old, new, field", EDITS, ids=[edit[2] + "-" + str(k) for k, edit in enumerate(EDITS)])
def test_a_changed_line_names_its_field(old, new, field):
    certificate = read(GOLDEN / "verify_g6_m2_M2_text.txt")
    assert certificate.count(old) == 1
    with pytest.raises(AssertionError) as info:
        certificate_check.check_certificate(read(BUILTINS), certificate.replace(old, new))
    assert str(info.value).startswith(f"{field}: ")


def test_a_changed_keyvalue_line_names_its_field():
    certificate = read(GOLDEN / "verify_g6_m1_M2_keyvalue.txt")
    line = "ricci.row3=2/3*sqrt3 0 0 4/3 0"
    entries = line.partition("=")[2].split()
    entries[0] = format_scalar(parse_scalar(entries[0]) + QuadExt(0, Fraction(1, 7)))
    with pytest.raises(AssertionError) as info:
        certificate_check.check_certificate(read(BUILTINS), certificate.replace(line, "ricci.row3=" + " ".join(entries)))
    assert str(info.value) == (
        "ricci.row3: the certificate has 'ricci.row3=17/21*sqrt3 0 0 4/3 0', "
        "recomputed 'ricci.row3=2/3*sqrt3 0 0 4/3 0'"
    )


def test_a_certificate_of_another_dataset_is_refused():
    certificate = read(GOLDEN / "verify_sum20_g6_m2_M2_text.txt")
    with pytest.raises(AssertionError) as info:
        certificate_check.check_certificate(read(BUILTINS), certificate)
    assert str(info.value).startswith("dataset: 'sum20_g6_m2_M2' is not in the dataset text")


def test_the_command_line(tmp_path, capsys):
    good = GOLDEN / "verify_g6_m1_M1_keyvalue.txt"
    bad = tmp_path / "bad.txt"
    bad.write_text(read(good).replace("value=40/3", "value=13"), encoding="utf-8")
    assert certificate_check.main([str(BUILTINS), str(good), str(GOLDEN / "verify_g6_m2_M1_text.txt")]) == 0
    assert certificate_check.main([str(BUILTINS), str(good), str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"{bad}: square_norm.value: the certificate has 'square_norm.value=13', recomputed 'square_norm.value=40/3'\n"
    )
    assert certificate_check.main([str(BUILTINS)]) == 2


rational = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rational, rational)
def test_scalar_text_is_the_packages(a, b):
    value = QuadExt(a, b)
    text = format_scalar(value)
    assert certificate_check.render((a, b)) == text
    assert certificate_check.scalar(text) == (a, b)


@pytest.mark.parametrize("name", ["g6_m1_M2", "g6_m2_M1"])
def test_the_serialized_builtin_is_read_as_its_entries(name):
    data = builtin(name)
    (n, labels, operators), = certificate_check.read_datasets(serialize_dataset(data)).values()
    assert (n, tuple(labels)) == (data.n, data.labels)
    for op, rows in zip(data.operators, operators):
        assert [[rows[i].get(j, (0, 0)) for j in range(n)] for i in range(n)] == [
            [(e.a, e.b) for e in row] for row in op.rows
        ]

"""What a cold process imports.  No passing command needs `polyring`, which
serves a failing sweep's witness and the tests, nor `fractions` and
`decimal`, which no command reads, nor `dataclasses` and what it pulls in
(`inspect`, `ast`, `dis`, `tokenize`), a third of a cold import:
`import willmore` and each command of the benchmark's workloads leave them
unloaded, while every public name still resolves on first access.  Each
case runs in a fresh interpreter that writes no bytecode, as a cold
console-script process does."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import willmore

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(willmore.__file__).resolve().parents[1]
UNNEEDED = {"willmore.polyring", "fractions", "decimal", "dataclasses", "inspect", "ast", "dis", "tokenize"}

# `python -m willmore <args>`, reporting on stderr's last line the modules it loaded
RUN_MAIN = (
    "import runpy, sys\n"
    "before = set(sys.modules)\n"
    "try:\n"
    "    runpy.run_module('willmore', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    sys.stderr.write('\\nloaded: ' + ' '.join(sorted(set(sys.modules) - before)))\n"
)


def cold(script: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=120,
                          env=env, cwd=ROOT)


def loaded(done: subprocess.CompletedProcess) -> set[str]:
    return set(done.stderr.rpartition("\nloaded: ")[2].split())


def test_import_loads_no_unneeded_module():
    done = cold("import sys\nbefore = set(sys.modules)\nimport willmore\nprint(*set(sys.modules) - before)")
    modules = set(done.stdout.split())
    assert "willmore.sweep" in modules and not UNNEEDED & modules


@pytest.mark.parametrize(
    "argv",
    [
        ["paper"],
        ["verify", "g6_m2_M2"],
        ["sweep", "g6_m2_M2", "--mode", "symbolic"],
        ["sweep", "g6_m2_M2", "--mode", "numeric", "--samples", "300"],
        ["sweep", "tests/data/sum20_g6_m2_M2.dat", "--mode", "symbolic"],
        ["sweep", "tests/data/sum20_g6_m2_M2.dat", "--mode", "numeric", "--samples", "300"],
        ["tracecheck", "--rules", "g4", "--goal", "Tr(A1^3) + Tr(A2^2*A1) + Tr(A3^2*A1)", "--indices", "3"],
    ],
    ids=" ".join,
)
def test_a_command_loads_no_unneeded_module(argv):
    done = cold(RUN_MAIN, *argv)
    modules = loaded(done)
    assert done.returncode == 0, done.stderr
    assert "willmore.cli" in modules and not UNNEEDED & modules


def test_a_failing_sweep_loads_polyring_for_its_witness():
    done = cold(RUN_MAIN, "sweep", "tests/data/g6_m1_M1_varying_block.dat", "--mode", "symbolic")
    assert done.returncode == 1
    assert "willmore.polyring" in loaded(done)
    assert done.stdout == (ROOT / "tests" / "golden" / "sweep_g6_m1_M1_varying_block.txt").read_text(encoding="utf-8")


def test_deferred_names_resolve_in_a_fresh_interpreter():
    script = (
        "import willmore\n"
        "print(willmore.MultiPoly.__module__, willmore.Rational.__module__, willmore.polyring.__name__)\n"
        "print(sorted(set(willmore.__all__) - set(dir(willmore))))\n"
        "from willmore import eval_float, reduce_mod_sphere\n"
        "print(reduce_mod_sphere is willmore.polyring.reduce_mod_sphere, eval_float is willmore.eval_float)\n"
    )
    assert cold(script).stdout == "willmore.polyring fractions willmore.polyring\n[]\nTrue True\n"


def test_dir_lists_every_public_name_and_polyring():
    assert set(dir(willmore)) >= {*willmore.__all__, "polyring"}


def test_the_certificate_checker_loads_no_willmore_module():
    # the tests' reference shares no code with the package it checks; its
    # own run on a golden certificate counts too
    script = (
        "import runpy, sys\n"
        "sys.argv = ['certificate_check.py', 'tests/golden/builtins.dat', 'tests/golden/verify_g6_m2_M2_text.txt']\n"
        "try:\n"
        "    runpy.run_path('tests/certificate_check.py', run_name='__main__')\n"
        "finally:\n"
        "    print(sorted(name for name in sys.modules if name.partition('.')[0] == 'willmore'))\n"
    )
    done = cold(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "tests/golden/verify_g6_m2_M2_text.txt: checked\n[]\n"


def test_the_manifest_runner_loads_no_willmore_module(tmp_path):
    # nor does the runner of the pinned certificates, on a line with a
    # checker dataset; its command runs in a process of its own
    manifest = tmp_path / "MANIFEST"
    golden = shlex.quote(str(ROOT / "tests" / "golden" / "verify_g6_m1_M1_text.txt"))
    manifest.write_text(f"{golden} 0 tests/golden/builtins.dat verify g6_m1_M1\n", encoding="utf-8")
    script = (
        "import sys\n"
        "sys.path.insert(0, 'tests')\n"
        "import run_manifest\n"
        "try:\n"
        "    print(run_manifest.main([sys.executable, '-m', 'willmore'], run_manifest.Path(sys.argv[1])))\n"
        "finally:\n"
        "    print(sorted(name for name in sys.modules if name.partition('.')[0] == 'willmore'))\n"
    )
    done = cold(script, str(manifest))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "MANIFEST:1: verify_g6_m1_M1_text.txt: ok\n1 of 1 lines pass\n0\n[]\n"

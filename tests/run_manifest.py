"""The one reader of tests/golden/MANIFEST, the list of pinned certificates,
and a runner of its lines through a command.

Each line of the manifest holds, in shell quoting,

    GOLDEN EXIT DATASET ARGV...

GOLDEN is a file in the manifest's folder that pins the command's stdout
byte for byte, EXIT the expected exit code, DATASET the dataset file against
which `certificate_check` checks the output, or `-` for none, and ARGV the
command's arguments.  Paths are relative to the repository root.  The `#`
lines above a line, in its paragraph, give the reason it exists.

    python tests/run_manifest.py COMMAND...

runs COMMAND ARGV for every line, from the repository root and under a 10 s
timeout, and checks its exit code, its stdout against the golden file (with a
unified diff on a mismatch) and, where the line names a dataset, its stdout
with the checker.  COMMAND is the command under test: `willmore` for the
installed console script, or `python -m willmore`.  Each failure is reported
on stderr with the manifest line it comes from; the exit code is 0 when every
line passes, 1 when one fails, and 2 on a manifest with no lines, which would
pass vacuously.

It uses the standard library only and imports nothing from `willmore`.
"""

from __future__ import annotations

import difflib
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import certificate_check

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "MANIFEST"
TIMEOUT_S = 10


class Line(NamedTuple):
    number: int  # in the manifest, from 1
    golden: Path
    code: int
    dataset: Path | None
    argv: list[str]
    reason: str

    def __str__(self) -> str:
        """The line as a manifest holds it, with absolute paths."""
        return shlex.join([str(self.golden), str(self.code), str(self.dataset or "-"), *self.argv])


def read_manifest(path: Path = MANIFEST) -> list[Line]:
    lines, reason, after_line = [], [], False
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        text = raw.strip()
        if not text or (text.startswith("#") and after_line):
            reason, after_line = [], False
        if text.startswith("#"):
            reason.append(text.lstrip("#").strip())
        elif text:
            fields = shlex.split(text)
            if len(fields) < 4 or not fields[1].isdigit():
                raise ValueError(f"{path}:{number}: expected GOLDEN EXIT DATASET ARGV..., got {text!r}")
            golden, code, dataset, *argv = fields
            lines.append(Line(number, path.parent / golden, int(code), None if dataset == "-" else ROOT / dataset,
                              argv, " ".join(reason)))
            after_line = True
    return lines


def failures(line: Line, command: list[str]) -> list[str]:
    """What is wrong with the line's run of the command; [] if nothing."""
    try:
        done = subprocess.run([*command, *line.argv], cwd=ROOT, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"no exit within {TIMEOUT_S} s"]
    found = []
    if done.returncode != line.code:
        stderr = done.stderr.decode("utf-8", "replace").strip().splitlines()
        found.append(f"exit {done.returncode}, expected {line.code}" + (f" ({stderr[-1]})" if stderr else ""))
    golden = line.golden.read_bytes()
    stdout = done.stdout.decode("utf-8", "replace")
    if done.stdout != golden:
        diff = difflib.unified_diff(golden.decode("utf-8", "replace").splitlines(keepends=True),
                                    stdout.splitlines(keepends=True), str(line.golden), "stdout")
        found.append("stdout differs from the golden file\n" + "".join(diff).rstrip("\n"))
    if line.dataset is not None:
        try:
            certificate_check.check_certificate(line.dataset.read_text(encoding="utf-8"), stdout)
        except AssertionError as exc:
            found.append(f"checker: {exc}")
    return found


def main(command: list[str], manifest: Path = MANIFEST) -> int:
    if not command:
        print("usage: run_manifest.py COMMAND...", file=sys.stderr)
        return 2
    lines = read_manifest(manifest)
    if not lines:
        print(f"{manifest}: no lines to run", file=sys.stderr)
        return 2
    failed = 0
    for line in lines:
        where = f"{manifest.name}:{line.number}: {line.golden.name}"
        found = failures(line, command)
        for problem in found:
            print(f"{where}: {problem}", file=sys.stderr)
        if not found:
            print(f"{where}: ok", flush=True)
        failed += bool(found)
    print(f"{len(lines) - failed} of {len(lines)} lines pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

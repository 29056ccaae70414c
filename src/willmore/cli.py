"""Command-line front end emitting deterministic verification certificates.

Exit codes: 0 = everything verified, 1 = a mathematical check failed,
2 = input or usage error.  Certificates are byte-identical across runs for
identical inputs and flags; every exact value is rendered in the scalar
grammar, and floats appear only as numeric-sweep deviations.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import time
from pathlib import Path

from . import __version__
from .catalog import (
    BUILTIN_NAMES,
    ShapeOperatorSet,
    builtin,
    parse_dataset,
)
from .curvature import CurvatureReport, curvature_report, einstein_violation, riemann_suite
from .exactnum import ScalarRenderError, format_scalar
from .sweep import NUMERIC_TOLERANCE, SweepTooLarge, numeric_sweep, symbolic_sweep
from .tracealg import (
    MAX_G4_INDICES,
    RulesFile,
    TraceParseError,
    _word_str,
    g4_block,
    g4_relations,
    parse_trace_expr,
    reduce_goal_with_steps,
    verify_g4,
)


class InputError(Exception):
    pass


class Certificate:
    def __init__(
        self,
        header: list[tuple[str, str]] | None = None,
        sections: list[tuple[str, list[tuple[str, str]]]] | None = None,
    ) -> None:
        self.header = [] if header is None else header
        self.sections = [] if sections is None else sections

    def __repr__(self) -> str:
        return f"Certificate(header={self.header!r}, sections={self.sections!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.header, self.sections) == (other.header, other.sections)

    def add(self, key: str, value: str) -> None:
        self.header.append((key, value))

    def section(self, name: str) -> list[tuple[str, str]]:
        fields: list[tuple[str, str]] = []
        self.sections.append((name, fields))
        return fields

    def render(self, fmt: str = "text") -> str:
        lines: list[str] = []
        if fmt == "keyvalue":
            for key, value in self.header:
                lines.append(f"{key}={value}")
            for name, fields in self.sections:
                for key, value in fields:
                    lines.append(f"{name}.{key}={value}")
        else:
            for key, value in self.header:
                lines.append(f"{key}: {value}")
            for name, fields in self.sections:
                lines.append("")
                lines.append(f"[{name}]")
                for key, value in fields:
                    lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read: {exc}") from exc


def load_dataset(name_or_path: str) -> ShapeOperatorSet:
    if name_or_path in BUILTIN_NAMES:
        return builtin(name_or_path)
    path = Path(name_or_path)
    if path.exists():
        text = _read_text(path)
        try:
            return parse_dataset(text)
        except ValueError as exc:
            raise InputError(f"{name_or_path}: {exc}") from exc
    raise InputError(
        f"unknown dataset {name_or_path!r} (not a built-in name or an existing file); "
        f"built-ins: {', '.join(BUILTIN_NAMES)}"
    )


def _riemann_spot_suite(data: ShapeOperatorSet, report: CurvatureReport) -> tuple[dict[str, bool], int]:
    """The certificate's Riemann spot suite: `riemann_suite` against the
    report's Ricci tensor.  A step of its own, so that the benchmark's tracer
    (perfbench/tracing.py) times it apart from the curvature pass."""
    return riemann_suite(data, report.ricci)


def _matrix_rows(fields: list[tuple[str, str]], matrix) -> None:
    for i, row in enumerate(matrix.rows):
        fields.append((f"row{i}", " ".join(format_scalar(e) for e in row)))


def verify_certificate(data: ShapeOperatorSet, timestamp: bool = False) -> tuple[Certificate, bool]:
    cert = Certificate()
    cert.add("tool", f"willmore {__version__}")
    cert.add("dataset", data.name)
    cert.add("n", str(data.n))
    cert.add("p", str(data.p))
    cert.add("operators", " ".join(data.labels))
    if timestamp:
        cert.add("timestamp", time.strftime("%Y-%m-%dT%H:%M:%S%z"))

    report: CurvatureReport = curvature_report(data)

    fields = cert.section("minimality")
    fields.append(("verdict", "pass" if report.minimal else "FAIL"))
    for label, trace in zip(data.labels, report.traces):
        fields.append((f"trace.{label}", format_scalar(trace)))

    fields = cert.section("square_norm")
    fields.append(("value", format_scalar(report.square_norm)))
    fields.append(("assumption", "constant over the submanifold (homogeneous point datum)"))

    ok = report.verified
    if report.ricci is not None:
        fields = cert.section("ricci")
        _matrix_rows(fields, report.ricci)
        fields.append(("trace", format_scalar(report.ricci.trace())))

        fields = cert.section("einstein")
        if report.einstein is not None:
            fields.append(("proportional", "yes"))
            fields.append(("constant", format_scalar(report.einstein)))
        else:
            fields.append(("proportional", "no"))
            fields.append(("witness", _einstein_witness(report.ricci)))

        willmore = report.willmore
        fields = cert.section("willmore")
        fields.append(("verdict", "pass" if willmore.willmore else "FAIL"))
        for label, value in zip(data.labels, willmore.cubic_traces):
            fields.append((f"cubic.{label}", format_scalar(value)))
        for label, value in zip(data.labels, willmore.ricci_traces):
            fields.append((f"ricci_form.{label}", format_scalar(value)))
        fields.append(("ricci_form_verdict", "pass" if willmore.willmore_ricci_form else "FAIL"))
        fields.append(("consistency", "pass" if willmore.consistent else "FAIL"))

        checks, count = _riemann_spot_suite(data, report)
        fields = cert.section("riemann")
        fields.append(("quadruples", str(count)))
        for name, passed in checks.items():
            fields.append((name, "pass" if passed else "FAIL"))
        ok = ok and all(checks.values())

    fields = cert.section("result")
    fields.append(("verified", "yes" if ok else "no"))
    return cert, ok


def _einstein_witness(ric) -> str:
    i, j = einstein_violation(ric)
    if i != j:
        return f"entry ({i},{j}) = {format_scalar(ric[i, j])} is nonzero"
    return f"entries (0,0) = {format_scalar(ric[0, 0])} and ({i},{i}) = {format_scalar(ric[i, i])} differ"


def cmd_verify(args) -> int:
    data = load_dataset(args.dataset)
    cert, ok = verify_certificate(data, timestamp=args.timestamp)
    sys.stdout.write(cert.render(args.format))
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    data = load_dataset(args.dataset)
    cert = Certificate()
    cert.add("tool", f"willmore {__version__}")
    cert.add("dataset", data.name)
    fields = cert.section("sweep")
    fields.append(("mode", args.mode))
    if args.mode == "symbolic":
        verdict = symbolic_sweep(data)
        if verdict.constant:
            fields.append(("constant", str(verdict.char_poly)))
        else:
            fields.append(("constant", "no"))
            fields.append(("witness_power", str(verdict.witness_power)))
            fields.append(("witness", str(verdict.witness)))
        ok = verdict.constant
    else:
        if args.samples < 2:
            raise InputError("--samples must be >= 2 (one sample has nothing to compare with)")
        fields.append(("samples", str(args.samples)))
        fields.append(("seed", str(args.seed)))
        try:
            deviation = numeric_sweep(data, args.samples, args.seed)
        except OverflowError as exc:
            raise InputError(f"{args.dataset}: a coefficient is too large for a float: {exc}") from exc
        fields.append(("max_deviation", repr(deviation)))
        fields.append(("tolerance", repr(NUMERIC_TOLERANCE)))
        ok = deviation < NUMERIC_TOLERANCE
    fields.append(("verdict", "pass" if ok else "FAIL"))
    sys.stdout.write(cert.render("text"))
    return 0 if ok else 1


def _check_indices(words, p: int) -> None:
    for word in words:
        if max(word) > p:
            raise InputError(f"operator index in Tr({_word_str(word)}) exceeds p={p}")


def cmd_tracecheck(args) -> int:
    p = args.indices
    if p < 1:
        raise InputError("--indices must be >= 1")
    builtin_rules = args.rules == "g4"
    if builtin_rules:
        if p > MAX_G4_INDICES:
            raise InputError(f"--indices must be <= {MAX_G4_INDICES} for --rules g4")
    else:
        path = Path(args.rules)
        if not path.exists():
            raise InputError(f"rules file {args.rules!r} not found")
        text = _read_text(path)
        try:
            rules = RulesFile(text)
        except TraceParseError as exc:
            raise InputError(f"{args.rules}: {exc}") from exc
    try:
        goal = parse_trace_expr(args.goal)
    except TraceParseError as exc:
        raise InputError(f"goal: {exc}") from exc
    _check_indices(goal.terms, p)
    if builtin_rules:
        # only the blocks the goal's words meet: together they are its block
        relations = g4_relations(p, sorted({g4_block(word) for word in goal.terms} - {None}))
        count = p * p + p
    else:
        # a line can only fail the index check if it names a letter above p
        _check_indices(itertools.chain(*(relation.terms for relation in rules.above(p))), p)
        relations = rules.component(goal)  # the goal's block
        count = len(rules.lines)

    cert = Certificate([("tool", f"willmore {__version__}"), ("relations", str(count)), ("goal", str(goal))])
    residual, steps = reduce_goal_with_steps(goal, relations)
    for step in steps:
        cert.add("step", str(step))
    cert.add("residual", str(residual))
    cert.add("verdict", "FAIL" if residual else "pass")
    sys.stdout.write(cert.render("text"))
    return 1 if residual else 0


def cmd_paper(args) -> int:
    ok = True
    certificates: list[str] = []
    for name in BUILTIN_NAMES:
        cert, good = verify_certificate(builtin(name))
        ok = ok and good
        certificates.append(cert.render("text"))
    summary = Certificate()
    fields = summary.section("sweep")
    for name in BUILTIN_NAMES:
        verdict = symbolic_sweep(builtin(name))
        if verdict.constant:
            fields.append((name, f"pass (constant {verdict.char_poly})"))
        else:
            fields.append((name, f"FAIL (l^{verdict.witness_power} coefficient {verdict.witness})"))
        ok = ok and verdict.constant
    fields = summary.section("g4proof")
    for p in range(1, 11):
        report = verify_g4(p)
        fields.append((f"p{p}", f"{'pass' if report.verdict else 'FAIL'} ({report.relation_count} relations)"))
        ok = ok and report.verdict
    summary.section("summary").append(("verified", "yes" if ok else "no"))
    # each section opens with a blank line, which also ends the last certificate
    sys.stdout.write("\n".join(certificates) + summary.render("text"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="willmore",
        description=(
            "Exact verification of minimality, Willmore, Einstein and "
            "spectral-invariance properties of shape-operator data."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    verify = sub.add_parser("verify", help="run the full pointwise check suite on a dataset")
    verify.add_argument("dataset", help="built-in name or dataset file path")
    verify.add_argument("--format", choices=("text", "keyvalue"), default="text")
    verify.add_argument("--timestamp", action="store_true", help="include a timestamp header")

    swp = sub.add_parser("sweep", help="certify spectral invariance over the normal sphere")
    swp.add_argument("dataset", help="built-in name or dataset file path")
    swp.add_argument("--mode", choices=("symbolic", "numeric"), required=True)
    swp.add_argument("--samples", type=int, default=1000)
    swp.add_argument("--seed", type=int, default=0)

    trace = sub.add_parser("tracecheck", help="reduce a trace-expression goal against relations")
    trace.add_argument("--rules", required=True, help="identity file path, or 'g4' for the built-in set")
    trace.add_argument(
        "--goal",
        required=True,
        help="trace expression, e.g. 'Tr(A1^3)+Tr(A2^2*A1)'; one that starts with '-' goes after '=', "
        "as in --goal=-1*Tr(A2)",
    )
    trace.add_argument("--indices", type=int, required=True, metavar="P", help="number of operator indices")

    sub.add_parser("paper", help="verify all built-in datasets and replay the trace proof")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in the process, built on the first."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "sweep": cmd_sweep,
        "tracecheck": cmd_tracecheck,
        "paper": cmd_paper,
        None: cmd_paper,
    }
    try:
        return handlers[args.command](args)
    except (InputError, ScalarRenderError, SweepTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console() -> None:
    sys.exit(main())

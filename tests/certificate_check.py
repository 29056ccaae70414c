"""An independent checker of `willmore verify` certificates.

From a dataset text and a certificate that `willmore verify` printed for one
of its datasets, in the text or the keyvalue format, it recomputes every
number the certificate prints and checks every line:

- the header (dataset, n, p, operators);
- the traces Tr A_a and the minimality verdict;
- the square norm sum_a Tr(A_a^2);
- the Ricci rows (n - 1) I - sum_a A_a^2 and their trace;
- the Einstein result: its constant, or the witness, the first nonzero
  off-diagonal entry in row order, else the first diagonal entry that
  differs from entry (0, 0);
- the cubic traces Tr((sum_b A_b^2) A_a) and the Ricci-form traces
  Tr(Ric A_a), with the Willmore, Ricci-form and consistency verdicts;
- the Riemann quadruple count m^4, m the indices 0, s, 2s, ... < n with the
  stride s = 1 for n <= 6 and ceil(n / 6) beyond, and its four checks:
  antisymmetry, pair symmetry and the first Bianchi identity on every
  sampled quadruple, and the contraction sum_k R_ikjk = Ric_ij for every
  (i, j);
- `verified`.

Non-minimal data gets only the minimality, square-norm and result sections.
The first line that differs raises AssertionError naming its field.

It uses the standard library only and imports nothing from `willmore`, so it
shares no arithmetic, parser or renderer with the code it checks.  A value
a + b*sqrt3 of Q(sqrt3) is the pair (a, b) of Fractions; an operator is one
dict per row of its nonzero entries; each quantity is summed from its
defining formula, R_ijkl from the Gauss equation
R_ijkl = d_ik d_jl - d_il d_jk + sum_a (A_ik A_jl - A_il A_jk).

    python tests/certificate_check.py DATASET_FILE CERTIFICATE_FILE...

checks each certificate against the dataset it names in the file, which may
hold several datasets; it exits 0 when all check, else 1 with the first
field that differs.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache

ZERO = (Fraction(0), Fraction(0))
ASSUMPTION = "constant over the submanifold (homogeneous point datum)"
RIEMANN_CHECKS = ("antisymmetry", "pair_symmetry", "bianchi", "contraction")


def require(condition: bool, message: str) -> None:
    """Raise AssertionError with the message unless the condition holds; not
    an assert statement, which `python -O` would skip."""
    if not condition:
        raise AssertionError(message)


def add(u, v):
    return u[0] + v[0], u[1] + v[1]


def sub(u, v):
    return u[0] - v[0], u[1] - v[1]


def mul(u, v):
    return u[0] * v[0] + 3 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def scalar(text: str):
    """The pair of a scalar written "r", "s*sqrt3", "r+s*sqrt3" or "r-s*sqrt3",
    with r and s integers or fractions, a coefficient 1 of sqrt3 left out."""
    if not text.endswith("sqrt3"):
        return Fraction(text), Fraction(0)
    head = text[: -len("sqrt3")].removesuffix("*")
    cut = max(head.rfind("+"), head.rfind("-"), 0)  # the sign of sqrt3's coefficient, past a leading one
    rational, coefficient = head[:cut], head[cut:]
    if coefficient in ("", "+", "-"):
        coefficient += "1"
    return Fraction(rational or 0), Fraction(coefficient)


def render(value) -> str:
    """The canonical text of a pair: "a", "a+b*sqrt3", "a-sqrt3", "-b*sqrt3", ..."""
    a, b = value
    if not b:
        return str(a)
    magnitude = "sqrt3" if abs(b) == 1 else f"{abs(b)}*sqrt3"
    sign = "-" if b < 0 else "+"
    if not a:
        return magnitude if b > 0 else f"-{magnitude}"
    return f"{a}{sign}{magnitude}"


@cache
def read_datasets(text: str) -> dict:
    """Every dataset of a dataset file by name: (n, labels, operators), each
    operator a list of n dicts {column: pair} of its nonzero entries."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    datasets = {}
    pos = 0

    def keyword(word):
        nonlocal pos
        key, _, value = lines[pos].partition(" ")
        require(key == word, f"dataset file: expected {word!r}, got {lines[pos]!r}")
        pos += 1
        return value.strip()

    while pos < len(lines):
        name = keyword("dataset")
        n, p = int(keyword("dim")), int(keyword("codim"))
        labels, operators = [], []
        for _ in range(p):
            labels.append(keyword("operator"))
            rows = []
            for i in range(n):
                tokens = lines[pos + i].split()
                require(len(tokens) == n, f"dataset {name}: a row of {labels[-1]} has {len(tokens)} entries")
                rows.append({j: value for j, token in enumerate(tokens) if (value := scalar(token)) != ZERO})
            pos += n
            operators.append(rows)
        datasets[name] = (n, labels, operators)
    return datasets


def riemann(operators, i, j, k, l):
    """R_ijkl by the Gauss equation, over the nonzero products only."""
    value = (Fraction((i == k and j == l) - (i == l and j == k)), Fraction(0))
    for rows in operators:
        ik, jl, il, jk = rows[i].get(k), rows[j].get(l), rows[i].get(l), rows[j].get(k)
        if ik and jl:
            value = add(value, mul(ik, jl))
        if il and jk:
            value = sub(value, mul(il, jk))
    return value


def contraction(operators, traces, n, i, j):
    """sum_k R_ikjk, the Gauss equation summed over k: (n - 1) d_ij from the
    sphere's terms, and sum_a (A_ij Tr A_a - sum_k A_ik A_kj) over the
    nonzero products."""
    total = (Fraction(n - 1 if i == j else 0), Fraction(0))
    for rows, trace in zip(operators, traces):
        a_ij = rows[i].get(j)
        if a_ij and trace != ZERO:
            total = add(total, mul(a_ij, trace))
        for k, a_ik in rows[i].items():
            a_kj = rows[k].get(j)
            if a_kj:
                total = sub(total, mul(a_ik, a_kj))
    return total


def recompute(n: int, operators: list) -> dict:
    """Every quantity a certificate prints, by name; the Ricci, Einstein,
    Willmore and Riemann ones only for minimal data."""
    traces = []
    for rows in operators:
        trace = ZERO
        for i in range(n):
            trace = add(trace, rows[i].get(i, ZERO))
        traces.append(trace)
    squares = [[ZERO] * n for _ in range(n)]  # sum_a A_a^2
    for rows in operators:
        for i in range(n):
            for k, a_ik in rows[i].items():
                for j, a_kj in rows[k].items():
                    squares[i][j] = add(squares[i][j], mul(a_ik, a_kj))
    norm = ZERO
    for rows in operators:
        for row in rows:
            for value in row.values():
                norm = add(norm, mul(value, value))
    minimal = all(trace == ZERO for trace in traces)
    result = {"minimal": minimal, "traces": traces, "square_norm": norm}
    if not minimal:
        result["verified"] = False
        return result
    edge = (Fraction(n - 1), Fraction(0))
    ricci = [[sub(edge if i == j else ZERO, squares[i][j]) for j in range(n)] for i in range(n)]

    def paired_trace(matrix, rows):  # Tr(M A) = sum_ij M_ij A_ji, A symmetric
        total = ZERO
        for i, row in enumerate(rows):
            for j, value in row.items():
                total = add(total, mul(matrix[i][j], value))
        return total

    cubic = [paired_trace(squares, rows) for rows in operators]
    ricci_form = [paired_trace(ricci, rows) for rows in operators]
    off_diagonal = next(((i, j) for i in range(n) for j in range(n) if i != j and ricci[i][j] != ZERO), None)
    unequal = next(((i, i) for i in range(1, n) if ricci[i][i] != ricci[0][0]), None)
    witness = off_diagonal or unequal
    indices = range(0, n, 1 if n <= 6 else -(-n // 6))
    table = {
        (i, j, k, l): riemann(operators, i, j, k, l)
        for i in indices for j in indices for k in indices for l in indices
    }
    negated = {quad: sub(ZERO, value) for quad, value in table.items()}
    riemann_checks = {
        "antisymmetry": all(
            table[j, i, k, l] == negated[i, j, k, l] == table[i, j, l, k] for i, j, k, l in table
        ),
        "pair_symmetry": all(table[k, l, i, j] == table[i, j, k, l] for i, j, k, l in table),
        "bianchi": all(
            add(add(table[i, j, k, l], table[i, k, l, j]), table[i, l, j, k]) == ZERO for i, j, k, l in table
        ),
        "contraction": all(
            contraction(operators, traces, n, i, j) == ricci[i][j] for i in range(n) for j in range(n)
        ),
    }
    willmore = all(value == ZERO for value in cubic)
    ricci_form_verdict = all(value == ZERO for value in ricci_form)
    consistency = all(
        rf == sub(mul(edge, trace), c) for rf, c, trace in zip(ricci_form, cubic, traces)
    )
    result.update(
        ricci=ricci,
        einstein=None if witness else ricci[0][0],
        witness=witness,
        cubic=cubic,
        ricci_form=ricci_form,
        willmore=willmore,
        ricci_form_verdict=ricci_form_verdict,
        consistency=consistency,
        quadruples=len(table),
        riemann=riemann_checks,
        verified=willmore and ricci_form_verdict and consistency and all(riemann_checks.values()),
    )
    return result


@cache
def recomputed(dataset_text: str, name: str) -> dict:
    """`recompute` on a dataset of a text, once per text and name: a text
    and keyvalue certificate of one dataset share it, so callers must not
    change the result."""
    n, _, operators = read_datasets(dataset_text)[name]
    return recompute(n, operators)


def verdict(passed: bool) -> str:
    return "pass" if passed else "FAIL"


def expected_sections(name: str, n: int, labels: list, values: dict) -> list:
    """The certificate's sections as (section, [(key, value), ...]); the
    header is the section None."""
    header = [("dataset", name), ("n", str(n)), ("p", str(len(labels))), ("operators", " ".join(labels))]
    sections = [(None, header)]
    fields = [("verdict", verdict(values["minimal"]))]
    fields += [(f"trace.{label}", render(t)) for label, t in zip(labels, values["traces"])]
    sections.append(("minimality", fields))
    sections.append(("square_norm", [("value", render(values["square_norm"])), ("assumption", ASSUMPTION)]))
    if values["minimal"]:
        ricci = values["ricci"]
        fields = [(f"row{i}", " ".join(map(render, row))) for i, row in enumerate(ricci)]
        trace = ZERO
        for i in range(n):
            trace = add(trace, ricci[i][i])
        sections.append(("ricci", fields + [("trace", render(trace))]))
        i, j = values["witness"] or (0, 0)
        if values["witness"] is None:
            fields = [("proportional", "yes"), ("constant", render(values["einstein"]))]
        elif i != j:
            fields = [("proportional", "no"), ("witness", f"entry ({i},{j}) = {render(ricci[i][j])} is nonzero")]
        else:
            text = f"entries (0,0) = {render(ricci[0][0])} and ({i},{i}) = {render(ricci[i][i])} differ"
            fields = [("proportional", "no"), ("witness", text)]
        sections.append(("einstein", fields))
        fields = [("verdict", verdict(values["willmore"]))]
        fields += [(f"cubic.{label}", render(v)) for label, v in zip(labels, values["cubic"])]
        fields += [(f"ricci_form.{label}", render(v)) for label, v in zip(labels, values["ricci_form"])]
        fields += [("ricci_form_verdict", verdict(values["ricci_form_verdict"]))]
        sections.append(("willmore", fields + [("consistency", verdict(values["consistency"]))]))
        fields = [("quadruples", str(values["quadruples"]))]
        sections.append(("riemann", fields + [(check, verdict(values["riemann"][check])) for check in RIEMANN_CHECKS]))
    sections.append(("result", [("verified", "yes" if values["verified"] else "no")]))
    return sections


def expected_lines(sections: list, keyvalue: bool) -> list:
    """(field, line) for every line of the certificate, as `willmore verify`
    lays it out in either format."""
    lines = []
    for section, fields in sections:
        if section is not None and not keyvalue:
            lines += [(section, ""), (section, f"[{section}]")]
        for key, value in fields:
            field = key if section is None else f"{section}.{key}"
            lines.append((field, f"{field}={value}" if keyvalue else f"{key}: {value}"))
    return lines


def check_certificate(dataset_text: str, certificate_text: str) -> dict:
    """Check a `verify` certificate against the dataset it names in
    `dataset_text`; return the recomputed quantities (see `recompute`).
    A timestamp header line, if any, is not checked."""
    lines = certificate_text.splitlines()
    require(bool(lines), "the certificate is empty")
    keyvalue = lines[0].startswith("tool=")
    tool = lines[0].partition("=" if keyvalue else ": ")
    require(tool[0] == "tool" and tool[2].startswith("willmore "), f"tool: {lines[0]!r}")
    del lines[0]
    if len(lines) > 4 and lines[4].startswith("timestamp=" if keyvalue else "timestamp: "):
        del lines[4]
    name = lines[0].partition("=" if keyvalue else ": ")[2] if lines else ""
    datasets = read_datasets(dataset_text)
    require(name in datasets, f"dataset: {name!r} is not in the dataset text ({', '.join(datasets)})")
    n, labels, _ = datasets[name]
    values = recomputed(dataset_text, name)
    expected = expected_lines(expected_sections(name, n, labels, values), keyvalue)
    for (field, want), got in zip(expected, lines):
        require(got == want, f"{field}: the certificate has {got!r}, recomputed {want!r}")
    if len(lines) > len(expected):
        raise AssertionError(f"{expected[-1][0]}: the certificate goes on with {lines[len(expected)]!r}")
    if len(lines) < len(expected):
        raise AssertionError(f"{expected[len(lines)][0]}: missing from the certificate")
    return values


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: certificate_check.py DATASET_FILE CERTIFICATE_FILE...", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        dataset_text = handle.read()
    for path in argv[1:]:
        with open(path, encoding="utf-8") as handle:
            try:
                check_certificate(dataset_text, handle.read())
            except AssertionError as exc:
                print(f"{path}: {exc}", file=sys.stderr)
                return 1
        print(f"{path}: checked")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

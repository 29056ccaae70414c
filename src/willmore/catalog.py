"""Built-in shape-operator datasets and the textual dataset format.

The four built-ins are the focal submanifolds of the isoparametric families
of S^7 and S^13 with six distinct principal curvatures (multiplicity 1 and 2),
each given pointwise by its shape operators in a fixed orthonormal frame.
Each m = 2 operator is the Kronecker product of an m = 1 pattern with a
2 x 2 cell: A11 = A6 (x) I, A12 = A7^ (x) J with J = [[0, -1], [1, 0]] and
A7^ the antisymmetric matrix with A7's upper triangle, and A13 = +A7 (x) I
for M1, -A7 (x) I for M2.  Entries are stored with rationalized
denominators: 1/sqrt(3) is (1/3)*sqrt3, -2/sqrt(3) is -2/3*sqrt3.

Dataset file format (line-oriented, UTF-8, '#' starts a comment line):

    dataset <identifier>
    dim <n>
    codim <p>
    operator <label>
    <n rows of n whitespace-separated scalars>
    ... (p operator blocks in total)

Scalars inside rows use the scalar grammar of `exactnum` and must not contain
internal whitespace.  The serializer emits canonical scalar text, so
serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import re
from functools import cache, cached_property

from ._record import Record
from .exactnum import QuadExt, ScalarParseError, format_scalar, parse_scalar
from .linalg import Matrix, Row, integer_rows

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class DatasetFormatError(ValueError):
    """Malformed or invalid dataset text; `line` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class ShapeOperatorSet(Record):
    """A named point-datum: p symmetric n x n shape operators over Q(sqrt(3))."""

    def __init__(
        self,
        name: str,
        n: int,
        p: int,
        operators: tuple[Matrix, ...],
        labels: tuple[str, ...],
        g_tag: int | None = None,
        m_tag: int | None = None,
    ) -> None:
        self._set(name, n, p, operators, labels, g_tag, m_tag)
        if len(self.operators) != self.p:
            raise ValueError(f"expected {self.p} operators, got {len(self.operators)}")
        if len(self.labels) != self.p:
            raise ValueError(f"expected {self.p} labels, got {len(self.labels)}")
        for label, op in zip(self.labels, self.operators):
            if op.nrows != self.n or op.ncols != self.n:
                raise ValueError(f"operator {label} is {op.nrows}x{op.ncols}, expected {self.n}x{self.n}")
            if not op.is_symmetric():
                raise ValueError(f"operator {label} is not symmetric")

    def _key(self) -> tuple:
        # the tags say where a dataset came from: a parsed built-in equals the built-in
        return self.name, self.n, self.p, self.operators, self.labels

    @cached_property
    def integer_form(self) -> tuple[tuple[tuple[Row, ...], ...], int]:
        """`integer_rows` of the operators, for every exact kernel: built on first use, not at import, and kept."""
        return integer_rows(self.operators)


def _tensor(upper: dict[tuple[int, int], QuadExt], mirror: int, cell: tuple[tuple[int, int, int], ...]) -> Matrix:
    """The 5 x 5 pattern with the upper-triangle entries `upper` and the lower
    triangle `mirror` times their mirror image (1 symmetric, -1
    antisymmetric), tensored with the cell, given by its nonzero entries
    (row, column, sign), one in each row; only nonzero cells are written."""
    b = len(cell)
    zero = QuadExt(0)
    rows = [[zero] * (5 * b) for _ in range(5 * b)]
    for (i, j), value in upper.items():
        for r, c, sign in cell:
            rows[i * b + r][j * b + c] = value if sign > 0 else -value
            rows[j * b + r][i * b + c] = value if sign * mirror > 0 else -value
    return Matrix(rows)


def _build_builtins() -> tuple[ShapeOperatorSet, ...]:
    """The four built-ins.  A6 = diag(sqrt3, 1/3*sqrt3, 0, -1/3*sqrt3, -sqrt3)
    and A7 of M1 or M2 are the m = 1 sets; each m = 2 operator is an m = 1
    pattern tensored with a 2 x 2 cell: A11 = A6 (x) I, A12 = A7^ (x) J, where
    A7^ is A7's upper triangle minus its lower triangle, and A13 = A7 (x) I
    for M1, -A7 (x) I for M2."""
    s3 = parse_scalar("sqrt3")
    u = parse_scalar("1/3*sqrt3")
    one = parse_scalar("1")
    # the cells 1, I, -I and J = [[0, -1], [1, 0]] by their nonzero entries
    cell_1, cell_i = ((0, 0, 1),), ((0, 0, 1), (1, 1, 1))
    cell_minus_i, cell_j = ((0, 0, -1), (1, 1, -1)), ((0, 1, -1), (1, 0, 1))
    diagonal = {(0, 0): s3, (1, 1): u, (3, 3): -u, (4, 4): -s3}
    a7_M1 = {(0, 4): s3, (1, 3): u}
    a7_M2 = {(0, 1): one, (1, 3): parse_scalar("-2/3*sqrt3"), (3, 4): one}
    a6, a11 = _tensor(diagonal, 1, cell_1), _tensor(diagonal, 1, cell_i)
    m1, m2 = ("A6", "A7"), ("A11", "A12", "A13")
    return (
        ShapeOperatorSet("g6_m1_M1", 5, 2, (a6, _tensor(a7_M1, 1, cell_1)), m1, g_tag=6, m_tag=1),
        ShapeOperatorSet("g6_m1_M2", 5, 2, (a6, _tensor(a7_M2, 1, cell_1)), m1, g_tag=6, m_tag=1),
        ShapeOperatorSet(
            "g6_m2_M1", 10, 3, (a11, _tensor(a7_M1, -1, cell_j), _tensor(a7_M1, 1, cell_i)), m2, g_tag=6, m_tag=2
        ),
        ShapeOperatorSet(
            "g6_m2_M2", 10, 3, (a11, _tensor(a7_M2, -1, cell_j), _tensor(a7_M2, 1, cell_minus_i)), m2, g_tag=6, m_tag=2
        ),
    )


_BUILTINS = {s.name: s for s in _build_builtins()}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> ShapeOperatorSet:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}") from None


def serialize_dataset(data: ShapeOperatorSet) -> str:
    lines = [f"dataset {data.name}", f"dim {data.n}", f"codim {data.p}"]
    for label, op in zip(data.labels, data.operators):
        lines.append(f"operator {label}")
        for row in op.rows:
            lines.append(" ".join(format_scalar(e) for e in row))
    return "\n".join(lines) + "\n"


class _Lines:
    def __init__(self, text: str) -> None:
        self.items = [
            (number, line)
            for number, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.strip()) and not line.startswith("#")
        ]
        self.pos = 0
        self.last = self.items[-1][0] if self.items else 1

    def next(self, what: str) -> tuple[int, str]:
        if self.pos >= len(self.items):
            raise DatasetFormatError(f"unexpected end of file, expected {what}", self.last)
        item = self.items[self.pos]
        self.pos += 1
        return item

    def done(self) -> bool:
        return self.pos >= len(self.items)


def _keyword_line(lines: _Lines, keyword: str) -> tuple[int, str]:
    number, line = lines.next(f"'{keyword} ...'")
    parts = line.split(None, 1)
    if len(parts) != 2 or parts[0] != keyword:
        raise DatasetFormatError(f"expected '{keyword} ...', got {line!r}", number)
    return number, parts[1].strip()


def _int_field(lines: _Lines, keyword: str) -> int:
    number, value = _keyword_line(lines, keyword)
    try:
        # ASCII digits only: str.isdigit also passes '²', which int() refuses
        result = int(value) if value.isascii() and value.isdigit() else 0
    except ValueError:  # more digits than int() converts
        result = 0
    if result < 1:
        raise DatasetFormatError(f"{keyword} must be a positive integer, got {value!r}", number)
    return result


def parse_dataset(text: str) -> ShapeOperatorSet:
    lines = _Lines(text)
    number, name = _keyword_line(lines, "dataset")
    if not _IDENT_RE.match(name):
        raise DatasetFormatError(f"bad dataset identifier {name!r}", number)
    n = _int_field(lines, "dim")
    p = _int_field(lines, "codim")
    parse = cache(parse_scalar)  # once per distinct token; equal tokens share one value
    operators: list[Matrix] = []
    labels: list[str] = []
    for _ in range(p):
        number, label = _keyword_line(lines, "operator")
        if not _IDENT_RE.match(label):
            raise DatasetFormatError(f"bad operator label {label!r}", number)
        rows: list[list[QuadExt]] = []
        row_lines: list[int] = []
        for _ in range(n):
            number, line = lines.next(f"a row of operator {label}")
            tokens = line.split()
            if tokens[0] in ("dataset", "dim", "codim", "operator"):
                raise DatasetFormatError(
                    f"operator {label} has {len(rows)} rows, expected {n}", number
                )
            if len(tokens) != n:
                raise DatasetFormatError(
                    f"row has {len(tokens)} scalars, expected {n}", number
                )
            try:
                rows.append([parse(tok) for tok in tokens])
            except ScalarParseError as exc:
                raise DatasetFormatError(f"bad scalar: {exc}", number) from exc
            row_lines.append(number)
        operator = Matrix(rows)
        if not operator.is_symmetric():
            # the first asymmetric entry in row-major order names the error
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j] != rows[j][i])
            raise DatasetFormatError(f"operator {label} is not symmetric at ({i},{j})", row_lines[i])
        operators.append(operator)
        labels.append(label)
    if not lines.done():
        number, line = lines.next("")
        raise DatasetFormatError(f"unexpected trailing content {line!r}", number)
    return ShapeOperatorSet(name, n, p, tuple(operators), tuple(labels))

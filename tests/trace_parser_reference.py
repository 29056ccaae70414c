"""The token-stream trace parser that `tracealg.parse_trace_expr` used
before its single-pass parser: the whole text is tokenized first, then a
recursive descent makes a method call per token.  The tests hold the
single-pass parser to it on every input, results and errors alike: the same
`TraceExpr`, or the same message at the same position."""

import itertools
import re

from willmore.exactnum import ONE, QuadExt, ScalarParseError, accumulate, scan_scalar
from willmore.tracealg import MAX_WORD_LEN, TraceExpr, TraceParseError, Word, canonicalize_cyclic

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<gen>A\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<op>[-+*/^()])|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise TraceParseError(f"unexpected character {match.group()!r}", match.start())
        if kind != "ws":
            tokens.append((kind, match.group(), match.start()))
    return tokens


class _TraceParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise TraceParseError("unexpected end of expression", len(self.text))
        self.pos += 1
        return token

    def where(self) -> int:
        """Text position of the next token."""
        token = self.peek()
        return token[2] if token else len(self.text)

    def expect_op(self, op: str) -> None:
        if not self.at_op(op):
            raise TraceParseError(f"expected {op!r}", self.where())
        self.pos += 1

    def at_op(self, *ops: str) -> bool:
        token = self.peek()
        return token is not None and token[0] == "op" and token[1] in ops

    def at_name(self, name: str) -> bool:
        token = self.peek()
        return token is not None and token[0] == "name" and token[1] == name

    def parse_factor(self, room: int) -> Word:
        """A_i or A_i^k with k <= room, the letters the word has left."""
        token = self.take()
        if token[0] != "gen":
            raise TraceParseError("expected an operator like 'A1'", token[2])
        try:
            index = int(token[1][1:].lstrip("0") or "0")
        except ValueError:  # more digits than int() converts
            raise TraceParseError("operator index has too many digits", token[2]) from None
        if index == 0:
            raise TraceParseError("operator index must be positive", token[2])
        exponent = 1
        if self.at_op("^"):
            self.pos += 1
            exp_token = self.take()
            if exp_token[0] != "num":
                raise TraceParseError("expected digits after '^'", exp_token[2])
            digits = exp_token[1].lstrip("0")
            if len(digits) > len(str(MAX_WORD_LEN)):
                raise TraceParseError(f"trace word longer than {MAX_WORD_LEN} letters", token[2])
            exponent = int(digits or "0")
            if exponent < 1:
                raise TraceParseError("exponent must be positive", exp_token[2])
        if exponent > room:
            raise TraceParseError(f"trace word longer than {MAX_WORD_LEN} letters", token[2])
        return (index,) * exponent

    def parse_word(self) -> Word:
        factors = [self.parse_factor(MAX_WORD_LEN)]
        room = MAX_WORD_LEN - len(factors[0])
        while self.at_op("*"):
            self.pos += 1
            factors.append(self.parse_factor(room))
            room -= len(factors[-1])
        return tuple(itertools.chain.from_iterable(factors))

    def parse_coefficient(self) -> QuadExt:
        """A scalar of the `exactnum` grammar, read from the text at the next token."""
        try:
            value, end = scan_scalar(self.text, self.where())
        except ScalarParseError as exc:
            raise TraceParseError(exc.message, exc.position) from exc
        # the scalar grammar ends every scalar at a token boundary
        while self.pos < len(self.tokens) and self.tokens[self.pos][2] < end:
            self.pos += 1
        return value

    def parse_term(self) -> tuple[Word, QuadExt]:
        """(canonical word, coefficient) of one term c*Tr(w)."""
        if self.at_name("Tr"):
            coeff = ONE
        else:
            # optionally parenthesized, so canonical renderings re-parse
            parens = self.at_op("(")
            if parens:
                self.pos += 1
            coeff = self.parse_coefficient()
            if parens:
                self.expect_op(")")
            self.expect_op("*")
            if not self.at_name("Tr"):
                raise TraceParseError("expected 'Tr'", self.where())
        self.pos += 1  # consume 'Tr'
        self.expect_op("(")
        word = self.parse_word()
        self.expect_op(")")
        return canonicalize_cyclic(word), coeff

    def parse_expr(self) -> TraceExpr:
        terms = [self.parse_term()]
        while self.at_op("+", "-"):
            negative = self.take()[1] == "-"
            word, coeff = self.parse_term()
            terms.append((word, -coeff if negative else coeff))
        token = self.peek()
        if token is not None:
            raise TraceParseError(f"unexpected token {token[1]!r}", token[2])
        return TraceExpr._of(accumulate({}, terms))


def parse_trace_expr(text: str) -> TraceExpr:
    """Parse e.g. "Tr(A1) - 3*Tr(A2*A1*A2)" into a canonical TraceExpr."""
    return _TraceParser(text).parse_expr()


def parse_identity_file(text: str) -> list[TraceExpr]:
    """One relation per line, "lhs = 0" or "lhs = rhs"; '#' comments."""
    relations = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("=")
        if len(parts) != 2:
            raise TraceParseError(f"line {number}: expected exactly one '='")
        try:
            lhs = parse_trace_expr(parts[0])
            rhs = TraceExpr() if parts[1].strip() == "0" else parse_trace_expr(parts[1])
        except TraceParseError as exc:
            raise TraceParseError(f"line {number}: {exc}") from exc
        relations.append(lhs - rhs)
    return relations

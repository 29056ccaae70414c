"""Noncommutative trace-word algebra with cyclic canonicalization.

Linear combinations of trace words Sum c_w * Tr(w), where a word is a product
of abstract symmetric operators A1..Ap and trace cyclicity identifies each
word with its rotations.  Schematic operator identities are instantiated over
concrete indices, traced term-wise, and used as linear relations; exact
Gaussian elimination over the canonical word basis then decides whether a
goal trace expression is a consequence.

The built-in relation set encodes the hypotheses available for the focal
submanifolds with four distinct principal curvatures: every shape operator
satisfies A = A^3, any two distinct normal directions satisfy
A_a = A_b^2 A_a + A_b A_a A_b + A_a A_b^2, and every operator is trace-free.
`verify_g4` eliminates the Willmore goals Sum_b Tr(A_b^2 A_a) against them.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .exactnum import ONE, QuadExt, ScalarParseError, accumulate, scan_scalar

Word = tuple[int, ...]

# Longest trace word a parsed expression may hold, checked before a power
# A_i^k is expanded, so that a short text cannot ask for a huge word.
MAX_WORD_LEN = 10_000

# Largest p for which the built-in g=4 relations are built: there are about
# p^2 of them, so a short --indices must not ask for an unbounded set.
MAX_G4_INDICES = 300

# A concrete matrix identity: a formal combination sum c_i * word_i == 0.
MatrixIdentity = tuple[tuple[QuadExt, Word], ...]


class TraceParseError(ValueError):
    def __init__(self, message: str, position: int | None = None) -> None:
        suffix = f" (at position {position})" if position is not None else ""
        super().__init__(f"{message}{suffix}")
        self.position = position


def canonicalize_cyclic(word: Iterable[int]) -> Word:
    """Lexicographically smallest rotation; the trace-invariant key of a word."""
    word = tuple(word)
    if not word:
        raise ValueError("empty trace word")
    if any(not isinstance(i, int) or i < 1 for i in word):
        raise ValueError(f"operator indices must be positive integers: {word}")
    start = _least_rotation(word)
    return word[start:] + word[:start]


def _least_rotation(word: Word) -> int:
    """Start of the lexicographically least rotation, in linear time (Booth,
    Inf. Process. Lett. 10, 1980): a failure function over word + word."""
    doubled = word + word
    fail = [-1] * len(doubled)
    start = 0
    for j in range(1, len(doubled)):
        letter = doubled[j]
        i = fail[j - start - 1]
        while i != -1 and letter != doubled[start + i + 1]:
            if letter < doubled[start + i + 1]:
                start = j - i - 1
            i = fail[i]
        if letter != doubled[start + i + 1]:  # here i == -1
            if letter < doubled[start]:
                start = j
            fail[j - start] = -1
        else:
            fail[j - start] = i + 1
    return start


def _coefficient(value) -> QuadExt:
    coeff = QuadExt._coerce(value)
    if coeff is None:
        raise TypeError(f"bad coefficient {value!r}")
    return coeff


def _order(word: Word) -> tuple[int, Word]:
    return (len(word), word)


def _word_str(word: Word) -> str:
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        parts.append(f"A{word[i]}" + (f"^{j - i}" if j - i > 1 else ""))
        i = j
    return "*".join(parts)


class TraceExpr:
    """Finite combination sum c_w * Tr(w) over cyclically-canonical words."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Iterable[int], object] | None = None) -> None:
        items = ((canonicalize_cyclic(word), _coefficient(coeff)) for word, coeff in (terms or {}).items())
        self.terms = accumulate({}, items)

    @staticmethod
    def _of(terms: dict[Word, QuadExt]) -> TraceExpr:
        """Trusted constructor: canonical words, nonzero coefficients."""
        expr = object.__new__(TraceExpr)
        expr.terms = terms
        return expr

    @classmethod
    def single(cls, word: Iterable[int], coeff=1) -> TraceExpr:
        return cls({tuple(word): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceExpr):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self) -> TraceExpr:
        return TraceExpr._of({w: -c for w, c in self.terms.items()})

    def __add__(self, other: TraceExpr) -> TraceExpr:
        if not isinstance(other, TraceExpr):
            return NotImplemented
        return TraceExpr._of(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other: TraceExpr) -> TraceExpr:
        if not isinstance(other, TraceExpr):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> TraceExpr:
        value = QuadExt._coerce(scalar)
        if value is None:
            return NotImplemented
        return TraceExpr._of({w: c * value for w, c in self.terms.items()} if value else {})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"TraceExpr({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for word in sorted(self.terms, key=_order):
            coeff = self.terms[word]
            trace = f"Tr({_word_str(word)})"
            if coeff.x and coeff.y:
                # mixed coefficient: keep the sign inside the parentheses
                term = f"({coeff})*{trace}"
                parts.append(term if not parts else f"+ {term}")
                continue
            negative = coeff.sign() < 0
            mag = -coeff if negative else coeff
            term = trace if mag == 1 else f"{mag}*{trace}"
            if not parts:
                # a leading bare minus is not a scalar; spell the -1 out
                if negative:
                    parts.append(f"-{term}" if mag != 1 else f"-1*{trace}")
                else:
                    parts.append(term)
            else:
                parts.append(f"- {term}" if negative else f"+ {term}")
        return " ".join(parts)


@dataclass(frozen=True)
class SchematicIdentity:
    """A matrix identity schema over index variables, asserted zero.

    `terms` are (coefficient, word-of-variable-symbols); `distinct` lists
    variable pairs that an instantiation must keep different.
    """

    name: str
    variables: tuple[str, ...]
    terms: tuple[tuple[int, tuple[str, ...]], ...]
    distinct: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        symbols = set(self.variables)
        for _, word in self.terms:
            unknown = set(word) - symbols
            if unknown:
                raise ValueError(f"identity {self.name}: unlisted variables {sorted(unknown)}")
        for a, b in self.distinct:
            if a not in symbols or b not in symbols:
                raise ValueError(f"identity {self.name}: distinctness on unlisted variables")


def cube_identity() -> SchematicIdentity:
    """A_a - A_a^3 = 0 for every a (operators with eigenvalues 1, 0, -1)."""
    return SchematicIdentity("cube", ("a",), ((1, ("a",)), (-1, ("a", "a", "a"))))


def conjugation_identity() -> SchematicIdentity:
    """A_a - A_b^2 A_a - A_b A_a A_b - A_a A_b^2 = 0 for all a != b."""
    return SchematicIdentity(
        "conjugation",
        ("a", "b"),
        ((1, ("a",)), (-1, ("b", "b", "a")), (-1, ("b", "a", "b")), (-1, ("a", "b", "b"))),
        distinct=(("a", "b"),),
    )


def instantiate(identity: SchematicIdentity, p: int) -> list[MatrixIdentity]:
    """All concrete instances over indices 1..p honoring the side conditions."""
    if p < 1:
        raise ValueError("p must be >= 1")
    terms = [(QuadExt(coeff), word) for coeff, word in identity.terms]
    instances: list[MatrixIdentity] = []
    for assignment in itertools.product(range(1, p + 1), repeat=len(identity.variables)):
        env = dict(zip(identity.variables, assignment))
        if any(env[a] == env[b] for a, b in identity.distinct):
            continue
        instances.append(tuple((coeff, tuple(env[s] for s in word)) for coeff, word in terms))
    return instances


def trace_of(identity: MatrixIdentity) -> TraceExpr:
    """Apply Tr term-wise; cyclic canonicalization merges rotated words."""
    return TraceExpr._of(accumulate({}, ((canonicalize_cyclic(word), coeff) for coeff, word in identity)))


def _echelon(relations: Iterable[TraceExpr]) -> dict[Word, dict[Word, QuadExt]]:
    """Reduced row echelon form of the relation span.

    Pivots are the smallest words (length, then lex) of monic rows; after
    back-substitution no row contains another row's pivot.  That form of a
    span is unique, so the result does not depend on the input order, and
    the relations are taken sparsest first: the short rows such as Tr(a)
    become pivots early and reduce the longer rows in one step each.
    """
    pivots: dict[Word, dict[Word, QuadExt]] = {}
    for relation in sorted(relations, key=lambda relation: len(relation.terms)):
        row = dict(relation.terms)
        while row:
            lead = min(row, key=_order)
            pivot_row = pivots.get(lead)
            if pivot_row is None:
                break
            accumulate(row, pivot_row.items(), -row[lead])
        if not row:
            continue
        inverse = row[lead].inverse()
        pivots[lead] = {w: c * inverse for w, c in row.items()}
    for lead in sorted(pivots, key=_order, reverse=True):
        row = pivots[lead]
        for word in [w for w in row if w != lead and w in pivots]:
            accumulate(row, pivots[word].items(), -row[word])
    return pivots


def _normal_form(
    goal_terms: Mapping[Word, QuadExt], pivots: Mapping[Word, dict[Word, QuadExt]]
) -> tuple[dict[Word, QuadExt], list[str]]:
    residual = dict(goal_terms)
    steps: list[str] = []
    for word in sorted((w for w in residual if w in pivots), key=_order):
        if word not in residual:
            continue
        row = pivots[word]
        accumulate(residual, row.items(), -residual[word])
        steps.append(f"eliminate Tr({_word_str(word)}) using {TraceExpr._of(row)} = 0")
    return residual, steps


def reduce_goal(goal: TraceExpr, relations: Iterable[TraceExpr]) -> TraceExpr:
    """Residual of the goal modulo the linear span of the relations."""
    return reduce_goal_with_steps(goal, relations)[0]


def reduce_goal_with_steps(
    goal: TraceExpr, relations: Iterable[TraceExpr]
) -> tuple[TraceExpr, tuple[str, ...]]:
    """Residual plus a rendering of each elimination step taken."""
    residual, steps = _normal_form(goal.terms, _echelon(relations))
    return TraceExpr._of(residual), tuple(steps)


def minimality_relations(p: int) -> list[TraceExpr]:
    return [TraceExpr.single((a,)) for a in range(1, p + 1)]


def g4_relations(p: int) -> list[TraceExpr]:
    """Traced cube and conjugation instances plus trace-freeness, for 1..p."""
    relations = [trace_of(inst) for inst in instantiate(cube_identity(), p)]
    relations += [trace_of(inst) for inst in instantiate(conjugation_identity(), p)]
    relations += minimality_relations(p)
    return relations


@dataclass(frozen=True)
class GoalReduction:
    alpha: int
    goal: TraceExpr
    steps: tuple[str, ...]
    residual: TraceExpr

    @property
    def closed(self) -> bool:
        return not self.residual


@dataclass(frozen=True)
class ProofReport:
    p: int
    relation_count: int
    goals: tuple[GoalReduction, ...]

    @property
    def verdict(self) -> bool:
        return all(goal.closed for goal in self.goals)


def verify_g4(p: int) -> ProofReport:
    """Reduce every Willmore goal Sum_b Tr(A_b^2 A_a) against the g=4 relations."""
    if p < 1:
        raise ValueError("p must be >= 1")
    relations = g4_relations(p)
    pivots = _echelon(relations)
    goals = []
    for alpha in range(1, p + 1):
        goal = TraceExpr({(b, b, alpha): 1 for b in range(1, p + 1)})
        residual, steps = _normal_form(goal.terms, pivots)
        goals.append(GoalReduction(alpha, goal, tuple(steps), TraceExpr._of(residual)))
    return ProofReport(p, len(relations), tuple(goals))


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
            index = int(token[1][1:])
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

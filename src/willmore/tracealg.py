"""Noncommutative trace-word algebra with cyclic canonicalization.

Linear combinations of trace words Sum c_w * Tr(w), where a word is a product
of abstract symmetric operators A1..Ap and trace cyclicity identifies each
word with its rotations.  An operator identity becomes a linear relation by
writing its untraced words into a `TraceExpr`, whose canonicalization traces
them; exact Gaussian elimination over the canonical word basis then decides
whether a goal trace expression is a consequence.

The built-in relation set encodes the hypotheses available for the focal
submanifolds with four distinct principal curvatures: every shape operator
satisfies A = A^3, any two distinct normal directions satisfy
A_a = A_b^2 A_a + A_b A_a A_b + A_a A_b^2, and every operator is trace-free.
`verify_g4` eliminates the Willmore goals Sum_b Tr(A_b^2 A_a) against them.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from functools import cache
from typing import Iterable, Mapping

from ._record import Record
from .exactnum import _SPACE, ONE, QuadExt, ScalarParseError, accumulate, scan_scalar

Word = tuple[int, ...]

# Longest trace word a parsed expression may hold, checked before a power
# A_i^k is expanded, so that a short text cannot ask for a huge word.
MAX_WORD_LEN = 10_000

# Largest p for which the built-in g=4 relations are built: there are about
# p^2 of them, so a short --indices must not ask for an unbounded set.
MAX_G4_INDICES = 300

class TraceParseError(ValueError):
    def __init__(self, message: str, position: int | None = None) -> None:
        suffix = f" (at position {position})" if position is not None else ""
        super().__init__(f"{message}{suffix}")
        self.position = position


def canonicalize_cyclic(word: Iterable[int], *, least: int | None = None) -> Word:
    """Lexicographically smallest rotation; the trace-invariant key of a word:
    one- and three-letter words are checked and rotated inline, a word whose
    least letter fills one run takes its start (`_run_start`), others go
    through `_least_rotation`.  Every letter must be a positive int; a reader
    that built the word from letters it has checked passes the least one,
    which skips the check of every letter."""
    word = tuple(word)
    # most traced words are this short: check the letters and compare the
    # rotations inline; a bad word falls through to the general check
    if len(word) == 3:
        a, b, c = word
        if isinstance(a, int) and isinstance(b, int) and isinstance(c, int) and a >= 1 and b >= 1 and c >= 1:
            return min(word, (b, c, a), (c, a, b))
    elif len(word) == 1:
        if isinstance(word[0], int) and word[0] >= 1:
            return word
    elif not word:
        raise ValueError("empty trace word")
    # the letters' types first, at C speed, so that min() compares ints only
    if least is None and (not all(map(isinstance, word, itertools.repeat(int))) or (least := min(word)) < 1):
        raise ValueError(f"operator indices must be positive integers: {word}")
    start = _run_start(word, least)
    return word[start:] + word[:start]


def _run_start(word: Word, least: int) -> int:
    """Start of a word's least rotation: that of the least letter's run if it
    is the one run and does not wrap round the end (a power word A_j*A_i^k),
    in O(1) Python steps; else the scan's."""
    start = word.index(least)
    end = start + word[start : start + 4].count(least)  # a short run's end
    if end == start + 4:  # a longer run's, if it holds every such letter
        end = start + word.count(least)
    if word[start:end] == (least,) * (end - start) and least not in word[end:]:
        return start
    return _least_rotation(word)


def _least_rotation(word: Word) -> int:
    """Start of the lexicographically least rotation, by a two-pointer scan
    in linear time: candidate starts i < j agree on k letters; where they
    first differ, the start with the larger letter and the k after it are
    ruled out, so it moves past them.  Every start below j but i is ruled
    out, so the scan ends when j passes the word or the rotations agree."""
    n = len(word)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = word[(i + k) % n], word[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return i


def _coefficient(value) -> QuadExt:
    coeff = QuadExt._coerce(value)
    if coeff is None:
        raise TypeError(f"bad coefficient {value!r}")
    return coeff


def _order(word: Word) -> tuple[int, Word]:
    return (len(word), word)


def _word_str(word: Word) -> str:
    """A word's text, each run of a letter as one power: 'A2^2*A1' for (2, 2, 1).
    A run is read letter by letter up to its fourth letter, the rest of a
    longer one in slices (`_run_length`)."""
    parts, i, n = [], 0, len(word)
    while i < n:
        letter, j = word[i], i + 1
        if j < n and word[j] == letter:
            j += 1
            while j < n and word[j] == letter:
                j += 1
                if j - i == 4:
                    j = i + _run_length(word, i)
                    break
            parts.append(f"A{letter}^{j - i}")
        else:  # a letter alone, as most are
            parts.append(f"A{letter}")
        i = j
    return "*".join(parts)


def _run_length(word: Word, i: int) -> int:
    """Length of the run at word[i], known to hold 4 letters: the block after
    the known run is compared with the run's start, doubling while it
    matches, then halving back: O(log k) slice comparisons, O(k) letters in all."""
    n, k = len(word), 4
    while i + 2 * k <= n and word[i + k : i + 2 * k] == word[i : i + k]:
        k *= 2
    step = k  # the run is shorter than k + step
    while step > 1:
        step //= 2
        if i + k + step <= n and word[i + k : i + k + step] == word[i : i + step]:
            k += step
    return k


def _render(terms: Mapping[Word, QuadExt], words: Iterable[Word], parts: list[str]) -> str:
    """The terms of `words`, in that order, joined after the text in `parts`."""
    for word in words:
        coeff = terms[word]
        trace = f"Tr({_word_str(word)})"
        if coeff.x and coeff.y:
            # mixed coefficient: keep the sign inside the parentheses
            term = f"({coeff})*{trace}"
            parts.append(f"+ {term}" if parts else term)
            continue
        negative = coeff.sign() < 0
        mag = -coeff if negative else coeff
        term = trace if mag == ONE else f"{mag}*{trace}"
        if parts:
            parts.append(f"- {term}" if negative else f"+ {term}")
        else:  # a leading bare minus is not a scalar; spell the -1 out
            parts.append(term if not negative else f"-{term}" if mag != ONE else f"-1*{trace}")
    return " ".join(parts)


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

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

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
        return _render(self.terms, sorted(self.terms, key=_order), []) if self.terms else "0"


def _eliminate(row: dict[Word, QuadExt], lead: Word, pivot_row: dict[Word, QuadExt]) -> None:
    """row -= row[lead] * pivot_row, in place, for a monic pivot row led by its
    first word: the lead cancels, so it is popped, and only the tail added."""
    coeff = row.pop(lead)
    if len(pivot_row) > 1:
        accumulate(row, itertools.islice(pivot_row.items(), 1, None), -coeff)


def _echelon(relations: Iterable[TraceExpr]) -> dict[Word, dict[Word, QuadExt]]:
    """Reduced row echelon form of the relation span.

    Pivots are the smallest words (length, then lex) of monic rows, each the
    first word of its row; after back-substitution no row contains another
    row's pivot.  That form of a span is unique, so the result does not
    depend on the input order, and the relations are taken sparsest first:
    the short rows such as Tr(a) become pivots early and reduce the longer
    rows in one step each, and a row of one term or of lead 1 needs no inverse.
    """
    pivots: dict[Word, dict[Word, QuadExt]] = {}
    for relation in sorted(relations, key=lambda relation: len(relation.terms)):
        row = dict(relation.terms)
        while row:
            lead = min(row, key=_order) if len(row) > 1 else next(iter(row))
            pivot_row = pivots.get(lead)
            if pivot_row is None:
                break
            _eliminate(row, lead, pivot_row)
        if not row:
            continue
        coeff = row.pop(lead)
        pivots[lead] = accumulate({lead: ONE}, row.items(), coeff.inverse() if row and coeff != ONE else None)
    for lead in sorted(pivots, key=_order, reverse=True):
        row = pivots[lead]
        if len(row) > 1:
            for word in [w for w in itertools.islice(row, 1, None) if w in pivots]:
                _eliminate(row, word, pivots[word])
    return pivots


def _normal_form(
    goal_terms: Mapping[Word, QuadExt], pivots: Mapping[Word, dict[Word, QuadExt]]
) -> tuple[dict[Word, QuadExt], list[str]]:
    residual = dict(goal_terms)
    steps: list[str] = []
    for word in sorted((w for w in residual if w in pivots), key=_order):
        row = pivots[word]
        _eliminate(residual, word, row)
        trace = f"Tr({_word_str(word)})"
        text = _render(row, sorted(itertools.islice(row, 1, None), key=_order), [trace]) if len(row) > 1 else trace
        steps.append(f"eliminate {trace} using {text} = 0")
    return residual, steps


def reduce_goal_with_steps(
    goal: TraceExpr, relations: Iterable[TraceExpr]
) -> tuple[TraceExpr, tuple[str, ...]]:
    """Residual plus a rendering of each elimination step taken, against
    every relation given: the callers hand over the goal's block, cut where
    the relations are built (`g4_block`, `RulesFile.component`)."""
    residual, steps = _normal_form(goal.terms, _echelon(relations))
    return TraceExpr._of(residual), tuple(steps)


# The coefficients of the g=4 relations, shared by all of them.
_MINUS_ONE = QuadExt._make(-1, 0, 1)
_MINUS_THREE = QuadExt._make(-3, 0, 1)


def g4_relations(p: int, letters: Iterable[int] | None = None) -> list[TraceExpr]:
    """The traces of A_a - A_a^3 for every a, of A_a - A_b^2 A_a - A_b A_a A_b
    - A_a A_b^2 for every a and b != a, and Tr(A_a) for every a, in 1..p.

    Given `letters`, only the blocks of those letters (see `g4_block`), in
    the order the full set lists them when the letters are ascending; None
    means every letter, p^2 + p relations.

    The relations are written in canonical form: the three rotations of
    A_a A_b^2 trace to one word, (a, b, b) if a < b and (b, b, a) if not,
    with coefficient -3.  So
    TraceExpr({(1,): 1, (2, 2, 1): -1, (2, 1, 2): -1, (1, 2, 2): -1}), the
    untraced words of (a, b) = (1, 2), is the relation Tr(A1) - 3*Tr(A1*A2^2)
    listed here.  Each relation holds (a,) first; the coefficients are
    shared constants.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if letters is None:
        letters = range(1, p + 1)
    else:
        letters = list(letters)
        if any(not isinstance(a, int) or not 1 <= a <= p for a in letters):
            raise ValueError(f"block letters must lie in 1..{p}: {letters}")
    of = TraceExpr._of
    cubes = [of({(a,): ONE, (a, a, a): _MINUS_ONE}) for a in letters]
    conjugations = [
        of({(a,): ONE, (a, b, b) if a < b else (b, b, a): _MINUS_THREE})
        for a in letters
        for b in range(1, p + 1)
        if b != a
    ]
    return cubes + conjugations + [of({(a,): ONE}) for a in letters]


def g4_block(word: Word) -> int | None:
    """The letter a whose block of `g4_relations` holds the word, or None.

    The relations of block a are the cube of a, the conjugation instances
    (a, b) for every b != a, and Tr(a) = 0: p + 1 relations, and each
    relation of the full set lies in exactly one block.  Their words are
    (a), (a, a, a) and the rotations of (a, b, b) for b != a, in which a is
    the letter that occurs once.  So no word lies in two blocks, every
    relation of block a holds the word (a), and the blocks are exactly the
    connected components of the relations joined through shared words.  A
    word lies in block a iff it is (a), (a, a, a), or has three letters of
    which exactly two are equal and a is the odd one out; any other word
    lies in no block.  Each block of a goal's words is joined to the goal
    through such a word, so together they are exactly the goal's block (see
    `RulesFile.component`), which the elimination is handed.
    """
    if len(word) == 1:
        return word[0]
    if len(word) == 3:
        a, b, c = word
        if b == c:
            return a
        if a == c:
            return b
        if a == b:
            return c
    return None


class GoalReduction(Record):
    def __init__(self, alpha: int, goal: TraceExpr, steps: tuple[str, ...], residual: TraceExpr) -> None:
        self._set(alpha, goal, steps, residual)

    @property
    def closed(self) -> bool:
        return not self.residual


class ProofReport(Record):
    def __init__(self, p: int, relation_count: int, goals: tuple[GoalReduction, ...]) -> None:
        self._set(p, relation_count, goals)

    @property
    def verdict(self) -> bool:
        return all(goal.closed for goal in self.goals)


def verify_g4(p: int) -> ProofReport:
    """Reduce every Willmore goal Sum_b Tr(A_b^2 A_a), its words canonical as
    `g4_relations` writes them, against block a of the g=4 relations, which
    holds all its words (see `g4_block`)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    goals, count = [], 0
    for alpha in range(1, p + 1):
        goal = TraceExpr._of({(alpha, b, b) if alpha < b else (b, b, alpha): ONE for b in range(1, p + 1)})
        relations = g4_relations(p, [alpha])
        count += len(relations)
        residual, steps = reduce_goal_with_steps(goal, relations)
        goals.append(GoalReduction(alpha, goal, steps, residual))
    return ProofReport(p, count, tuple(goals))


# The patterns of the trace grammar are texts, compiled by `_compiled`.
# Characters that can start or continue a token; the first one outside them
# is reported before any other error in the text.
_OUTSIDE = r"[^\s\dA-Za-z_()*/^+\-]"
_TOKEN_RE = (
    r"(?s)(?P<ws>\s+)|(?P<gen>A\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<op>[-+*/^()])|(?P<bad>.)"
)
# 'Tr' as a whole name, then its '(' if there is one
_TRACE = r"Tr(?![A-Za-z0-9_])\s*(\()?\s*"
# A factor A_i or A_i^k, and the '*' after it if another factor follows.  A
# '^' without digits ends a factor, so that it fails in its turn.
_FACTOR = r"A(\d+)(?:\s*\^\s*(\d*))?(\s*\*\s*(?=A\d))?"


@cache
def _compiled(pattern: str) -> re.Pattern:
    """A pattern of this module, compiled on first use rather than at import,
    which keeps its milliseconds out of `import willmore` (only `tracecheck`
    reads them), and kept whatever re's own cache drops."""
    return re.compile(pattern)


def _missing(expected: str, text: str, at: int) -> TraceParseError:
    """The error for a token that should start at text[at]."""
    return TraceParseError("unexpected end of expression" if at == len(text) else expected, at)


def _read_word(text: str, pos: int) -> tuple[list[int], int, int]:
    """The word of a Tr( ) whose '(' ends before pos, its least letter, and the
    end of its ')'.  Errors come in text order: those of the factors read, then
    the token at which the run of factors stops short of the ')'.  Each factor
    is checked, its letters counted, then expanded, in one pass."""
    read = _compiled(_FACTOR).match
    letters: list[int] = []
    factor, end = read(text, pos), pos
    while factor:
        start = factor.start()
        try:
            index = int(factor[1].lstrip("0") or "0")  # int() refuses thousands of leading zeros
        except ValueError:  # more digits than int() converts
            raise TraceParseError("operator index has too many digits", start) from None
        if index == 0:
            raise TraceParseError("operator index must be positive", start)
        exponent = 1
        if factor[2] is not None:
            if not factor[2]:
                raise _missing("expected digits after '^'", text, factor.start(2))
            digits = factor[2].lstrip("0")
            # more digits than the bound has fail its check below: int() may refuse them
            exponent = int(digits or "0") if len(digits) <= len(str(MAX_WORD_LEN)) else MAX_WORD_LEN + 1
            if exponent < 1:
                raise TraceParseError("exponent must be positive", factor.start(2))
        if exponent > MAX_WORD_LEN - len(letters):
            raise TraceParseError(f"trace word longer than {MAX_WORD_LEN} letters", start)
        least = min(least, index) if letters else index
        letters += [index] * exponent
        end = factor.end()
        factor = read(text, end) if factor[3] else None
    end = _SPACE.match(text, end).end()
    if not letters:  # no first factor
        raise _missing("expected an operator like 'A1'", text, end)
    if text.startswith("*", end):  # no factor after it
        raise _missing("expected an operator like 'A1'", text, _SPACE.match(text, end + 1).end())
    if not text.startswith(")", end):
        raise TraceParseError("expected ')'", end)
    return letters, least, end + 1


# A well-formed term in one spelling, that of the g=4 relations and of
# `TraceExpr`'s text, as one pattern text: the parser's one-pass path and
# the rules reader's line check are built on it.  An optional coefficient, a
# plain or parenthesized scalar in its canonical spelling (rationals of at
# most 20 digits, a denominator with a nonzero first digit, at most one
# sqrt3), then '*'; then Tr(word) with no space inside the parentheses, no
# A0 or ^0, an index below 10^9 and at most 100 factors below ^100; then
# the spaces after it, which do not cross a line's end.  So every match
# parses without error, and no word it admits reaches MAX_WORD_LEN.  No
# group captures, and a term that starts with 'Tr(' takes the first
# alternative, before any coefficient is tried: both keep the line check
# fast.  So do the possessive quantifiers, on every run that no backtracking
# could make match; the coefficient's alternatives backtrack, since in
# '(1-2/3*sqrt3)' the rational '2/3' must give way to '2/3*sqrt3'.
_RATIONAL = r"[0-9]{1,20}+(?:/[1-9][0-9]{0,19}+)?"
_SQRT3 = rf"(?:{_RATIONAL}\*)?sqrt3"
_SCALAR = rf"-?+(?:{_RATIONAL}(?:[-+](?:{_RATIONAL}|{_SQRT3}))?|{_SQRT3}(?:[-+]{_RATIONAL})?)"
_POWER = r"A[1-9][0-9]{0,8}+(?:\^[1-9][0-9]?+)?+"
_TERM = rf"(?:Tr\(|(?:{_SCALAR}|\({_SCALAR}\))[ \t]*+\*[ \t]*+Tr\(){_POWER}(?:\*{_POWER}){{0,99}}+\)[ \t]*+"
# Terms joined by '+'/'-': a whole expression the parser scans in one pass,
# and each side of a rules line, one '=' and a lone 0 on the right allowed
# (`_LINES`, over a run of lines joined by '\n').
_SIDE = rf"[ \t]*+{_TERM}(?:[-+][ \t]*+{_TERM})*+"
_LINES = rf"(?:{_SIDE}=(?:[ \t]*+0[ \t]*+|{_SIDE})(?:\n|\Z))*+"
# A term of an accepted text: coefficient spelling through 'Tr(', word text, and the '+', '-' or '=' after it.
_SCAN_TERM = r"\s*([^T]*Tr\()([^)]*)\)\s*([-+=]?)"


def _factors(word: str) -> list[int]:
    """The letters of a word's text, exponents expanded: [2, 2, 1] for 'A2^2*A1'."""
    if "^" not in word:
        return list(map(int, word[1:].split("*A")))
    letters: list[int] = []
    for factor in word[1:].split("*A"):
        if "^" in factor:
            index, _, exponent = factor.partition("^")
            letters += [int(index)] * int(exponent)
        else:
            letters.append(int(factor))
    return letters


def _term(coefficients: dict[str, QuadExt], spelling: str, word: str) -> tuple[Word, QuadExt]:
    """(canonical word, coefficient) of a term of `_TERM` from its coefficient's
    spelling through 'Tr(' and its word's text; each spelling is scanned once."""
    coeff = coefficients.get(spelling)
    if coeff is None:
        coeff = coefficients[spelling] = scan_scalar(spelling, 1 if spelling[0] == "(" else 0)[0]
    return canonicalize_cyclic(_factors(word)), coeff


def _scan_terms(coefficients: dict[str, QuadExt], text: str) -> list[tuple[Word, QuadExt]]:
    """(canonical word, coefficient) of each term of a text `_SIDE` or a line
    `_LINES` accepts, the right side's negated: one findall, each term through
    `_term`, and the sign carried across '+', '-' and '='."""
    terms, rhs, negative = [], False, False
    for spelling, word, after in _compiled(_SCAN_TERM).findall(text):
        word, coeff = _term(coefficients, spelling, word)
        terms.append((word, (_MINUS_ONE if coeff is ONE else -coeff) if negative else coeff))
        rhs = rhs or after == "="
        negative = rhs != (after == "-")
    return terms


def _read_term(text: str, pos: int) -> tuple[Word, QuadExt, int]:
    """(canonical word, coefficient, end) of the term at text[pos], read step
    by step: each step of the grammar is a compiled pattern matched at the
    current position, and an error names the token found there."""
    read_trace = _compiled(_TRACE).match
    trace = read_trace(text, pos)
    if trace is not None:
        coeff = ONE
    else:
        # optionally parenthesized, so canonical renderings re-parse
        parens = text.startswith("(", pos)
        try:
            coeff, pos = scan_scalar(text, _SPACE.match(text, pos + 1).end() if parens else pos)
        except ScalarParseError as exc:
            raise TraceParseError(exc.message, exc.position) from exc
        pos = _SPACE.match(text, pos).end()
        if parens:
            if not text.startswith(")", pos):
                raise TraceParseError("expected ')'", pos)
            pos = _SPACE.match(text, pos + 1).end()
        if not text.startswith("*", pos):
            raise TraceParseError("expected '*'", pos)
        pos = _SPACE.match(text, pos + 1).end()
        trace = read_trace(text, pos)
        if trace is None:
            raise TraceParseError("expected 'Tr'", pos)
    if trace[1] is None:
        raise TraceParseError("expected '('", trace.end())
    word, least, pos = _read_word(text, trace.end())
    return canonicalize_cyclic(word, least=least), coeff, pos


def parse_trace_expr(text: str) -> TraceExpr:
    """Parse e.g. "Tr(A1) - 3*Tr(A2*A1*A2)" into a canonical TraceExpr.

    The single parser of the trace grammar, on one of two paths.  A text
    whose every term is spelled as `g4_relations` and `TraceExpr`'s text
    spell it (`Tr(A1)`, `3 * Tr(A2^2*A1)`, `(1/2+sqrt3)*Tr(A1*A2)`: no space
    inside the parentheses, exponents below 100), which one compiled pattern
    (`_SIDE`) accepts whole, is read by the rules reader's scan
    (`_scan_terms`); it parses without error.  Any other text, a power word
    such as `Tr(A2*A1^3000)` included, is read term by term by the stepwise
    reader (`_read_term`): a character outside the token alphabet is
    reported first, then the message of the first failing token at its
    position.  Both paths give the terms of a token-by-token reading, summed
    by `accumulate`, which drops those that cancel.
    """
    if _compiled(_SIDE).fullmatch(text):
        return TraceExpr._of(accumulate({}, _scan_terms({"Tr(": ONE}, text)))
    bad = _compiled(_OUTSIDE).search(text)
    if bad is not None:
        raise TraceParseError(f"unexpected character {bad.group()!r}", bad.start())
    terms = []
    negative = False
    pos = _SPACE.match(text).end()
    while True:
        word, coeff, pos = _read_term(text, pos)
        pos = _SPACE.match(text, pos).end()
        if negative:
            coeff = _MINUS_ONE if coeff is ONE else -coeff
        terms.append((word, coeff))
        if pos == len(text):
            return TraceExpr._of(accumulate({}, terms))
        if text[pos] not in "+-":
            token = _compiled(_TOKEN_RE).match(text, pos).group()
            raise TraceParseError(f"unexpected token {token!r}", pos)
        negative = text[pos] == "-"
        pos = _SPACE.match(text, pos + 1).end()


def _rule_lines(text: str) -> list[tuple[int, str]]:
    """(number, text) of each relation line: '#' comments cut, blank lines dropped."""
    return [(number, line) for number, raw in enumerate(text.splitlines(), 1) if (line := raw.partition("#")[0].strip())]


def _parse_rule(number: int, line: str) -> TraceExpr:
    """The relation lhs - rhs of one line, "lhs = 0" or "lhs = rhs"."""
    parts = line.split("=")
    if len(parts) != 2:
        raise TraceParseError(f"line {number}: expected exactly one '='")
    try:
        lhs = parse_trace_expr(parts[0])
        if parts[1].strip() == "0":
            return lhs
        rhs = parse_trace_expr(parts[1])
    except TraceParseError as exc:
        raise TraceParseError(f"line {number}: {exc}") from exc
    return TraceExpr._of(accumulate(lhs.terms, rhs.terms.items(), _MINUS_ONE))


def parse_identity_file(text: str) -> list[TraceExpr]:
    """One relation per line, "lhs = 0" or "lhs = rhs"; '#' comments."""
    return [_parse_rule(number, line) for number, line in _rule_lines(text)]


def _above(p: int) -> str:
    """A pattern for the factor names A<i> with i > p, no leading zero."""
    digits = str(p)
    # more digits than p, or as many with a larger digit after a common prefix
    larger = [f"[1-9][0-9]{{{len(digits)},}}"] + [
        f"{digits[:i]}[{int(digit) + 1}-9][0-9]{{{len(digits) - i - 1}}}"
        for i, digit in enumerate(digits)
        if digit != "9"
    ]
    return f"A(?:{'|'.join(larger)})(?![0-9])"


# Rounds of a reader's walks that each search the whole text; the next round
# reads every line not yet read, and no later round walks, so that a deep
# component costs time linear in the text.
_SEARCHED_ROUNDS = 2


class RulesFile:
    """A rules file read goal-locally, in three steps.

    1. Reading checks the lines in file order against terms of `_TERM`
       joined by '+'/'-' on each side of one '=', or a lone 0 on the right
       (`_LINES`): one match of the joined text passes a whole run of lines
       it accepts, which cannot fail `_parse_rule`; the line the run stops
       at goes through it at once, and the next match starts after it.
    2. `component` walks the goal's block word by word.  A letter's lines
       are found when the walk first needs it, by one regex search of the
       joined text a round, and each is scanned once (`_scan_terms`, the
       parser's one-pass path): its words canonicalized, and the line indexed by them.
    3. A line the walk looks up is built into its relation from its scan,
       once; it joins the block only if the relation holds the word."""

    def __init__(self, text: str) -> None:
        self.lines = _rule_lines(text)
        texts = [line for _, line in self.lines]
        self._text = joined = "\n".join(texts)
        self._starts = starts = list(itertools.accumulate([len(line) + 1 for line in texts], initial=0))
        run = _compiled(_LINES).match
        self.relations: list[TraceExpr | None] = [None] * len(texts)
        pos = 0
        # each match passes a run of accepted lines; the line it stops at is parsed
        while (pos := run(joined, pos).end()) < len(joined):
            k = bisect_right(starts, pos) - 1
            self.relations[k] = _parse_rule(*self.lines[k])
            pos = starts[k + 1]
        # filled as letters are walked: each line's terms, and each word's lines
        self._terms: list[list[tuple[Word, QuadExt]] | None] = [None] * len(texts)
        self._holders: dict[Word, list[int]] = {}
        self._coefficients = {"Tr(": ONE}
        self._walked: set[int] = set()
        self._rounds = 0  # rounds walked; the one past _SEARCHED_ROUNDS scans every line
        self._rejected = [k for k, relation in enumerate(self.relations) if relation is not None]
        for k in self._rejected:
            self._terms[k] = []
            for word in self.relations[k].terms:
                self._holders.setdefault(word, []).append(k)

    def _scan(self, k: int) -> None:
        """Read line k's terms once (`_scan_terms`) and index the line by their words."""
        self._terms[k] = terms = _scan_terms(self._coefficients, self.lines[k][1])
        for word in dict.fromkeys(word for word, _ in terms):
            self._holders.setdefault(word, []).append(k)

    def _parsed(self, ks: list[int]) -> list[TraceExpr]:
        """The lines' relations, each built once, from the line's scan, and kept."""
        relations = self.relations
        for k in ks:
            if relations[k] is None:
                if self._terms[k] is None:
                    self._scan(k)
                relations[k] = TraceExpr._of(accumulate({}, self._terms[k]))
        return [relations[k] for k in ks]

    def _search(self, pattern: str) -> list[int]:
        """The lines in which the pattern matches, ascending: one search of
        the joined text, each match run on to the end of its line."""
        starts = self._starts
        matches = re.finditer(pattern + r"[^\n]*", self._text)
        return [bisect_right(starts, match.start()) - 1 for match in matches]

    def _walk(self, letters: set[int]) -> None:
        """Scan every line that names one of the letters, found by one search
        of the joined text; past `_SEARCHED_ROUNDS` rounds, every line."""
        self._walked |= letters
        self._rounds += 1
        if self._rounds <= _SEARCHED_ROUNDS:
            lines = self._search(f"A(?:{'|'.join(map(str, letters))})(?![0-9])")
        else:
            lines = range(len(self.lines))
        for k in lines:
            if self._terms[k] is None:
                self._scan(k)

    def above(self, p: int) -> list[TraceExpr]:
        """The relations of the lines that name a letter above p, in file
        order (a parsed line by the words of its relation)."""
        # The scan accepts no index of ten digits, so a larger p needs no
        # longer pattern: the lines it finds beyond are checked after parsing.
        high = set(self._search(_above(min(p, 10**9))))
        high.update(k for k in self._rejected if max(map(max, self.relations[k].terms), default=0) > p)
        return self._parsed(sorted(high))

    def component(self, goal: TraceExpr) -> list[TraceExpr]:
        """The goal's block, in file order: the relations joined to the goal's
        words through shared words (Pothen & Fan, ACM TOMS 16, 1990).  The
        relations' span is the direct sum of the blocks' spans, on disjoint
        words, so the goal reduces against its block as against the file.

        One breadth-first walk over canonical words, from the goal's.  A
        line that holds a word names its letters, so one letter's lines hold
        them all: the odd one out of a three-letter word (a g=4 word's block
        letter), else the first.  The walk goes on from the words of the
        relations that hold the word, not where it cancels.  Each line is
        scanned and built at most once and each letter walked once, in at
        most `_SEARCHED_ROUNDS` searches of the text: linear in the file."""
        frontier = list(goal.terms)
        seen = set(frontier)
        block: set[int] = set()
        while frontier:
            if self._rounds <= _SEARCHED_ROUNDS:  # past it every line is scanned
                letters = {word[2] if len(word) == 3 and word[0] == word[1] else word[0] for word in frontier}
                if letters := letters - self._walked:
                    self._walk(letters)
            fresh = []
            for word in frontier:
                for k in self._holders.get(word, ()):
                    if k not in block and word in self._parsed([k])[0].terms:
                        block.add(k)
                        fresh += (other for other in self.relations[k].terms if other not in seen)
                        seen.update(self.relations[k].terms)
            frontier = fresh
        return self._parsed(sorted(block))

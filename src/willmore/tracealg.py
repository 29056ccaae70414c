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

import re
from collections import Counter
from typing import Iterable, Mapping

from ._record import Record
from .exactnum import _SPACE, ONE, QuadExt, ScalarParseError, accumulate, scan_scalar
from .linalg import components

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


def canonicalize_cyclic(word: Iterable[int]) -> Word:
    """Lexicographically smallest rotation; the trace-invariant key of a word."""
    word = tuple(word)
    # most traced words are this short: check the letters and compare the
    # rotations inline; a bad word falls through to the general check
    if len(word) == 3:
        a, b, c = word
        if isinstance(a, int) and isinstance(b, int) and isinstance(c, int) and a >= 1 and b >= 1 and c >= 1:
            return min(word, (b, c, a), (c, a, b))
    elif not word:
        raise ValueError("empty trace word")
    if any(not isinstance(i, int) or i < 1 for i in word):
        raise ValueError(f"operator indices must be positive integers: {word}")
    if len(word) < 3:
        return word if len(word) == 1 or word[0] <= word[1] else word[::-1]
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
    """Residual plus a rendering of each elimination step taken.

    Only the goal's block is eliminated: the relations joined to the goal's
    words through shared words, as in the block decomposition of sparse
    systems (Pothen & Fan, ACM TOMS 16, 1990).  The span of all relations is
    the direct sum of the block spans, on disjoint sets of words, so its
    reduced row echelon form is the union of the blocks' forms, and reducing
    the goal looks up no pivot outside its block: the residual and the steps
    are those of the full elimination.
    """
    relations = list(relations)
    block = next(components([goal.terms, *(relation.terms for relation in relations)]))
    residual, steps = _normal_form(goal.terms, _echelon([relations[k - 1] for k in block[1:]]))
    return TraceExpr._of(residual), tuple(steps)


def g4_relations(p: int, letters: Iterable[int] | None = None) -> list[TraceExpr]:
    """The traces of A_a - A_a^3 for every a, of A_a - A_b^2 A_a - A_b A_a A_b
    - A_a A_b^2 for every a and b != a, and Tr(A_a) for every a, in 1..p.

    Given `letters`, only the blocks of those letters (see `g4_block`), in
    the order the full set lists them when the letters are ascending; None
    means every letter, p^2 + p relations.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if letters is None:
        letters = range(1, p + 1)
    else:
        letters = list(letters)
        if any(not 1 <= a <= p for a in letters):
            raise ValueError(f"block letters must lie in 1..{p}: {letters}")
    # The untraced words of each identity: TraceExpr's cyclic canonicalization
    # traces them, and the three rotations in a conjugation add up to -3.
    cubes = [TraceExpr({(a,): 1, (a, a, a): -1}) for a in letters]
    conjugations = [
        TraceExpr({(a,): 1, (b, b, a): -1, (b, a, b): -1, (a, b, b): -1})
        for a in letters
        for b in range(1, p + 1)
        if b != a
    ]
    return cubes + conjugations + [TraceExpr({(a,): 1}) for a in letters]


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
    lies in no block.  The blocks of a goal's words therefore hold the
    goal's whole component, and `reduce_goal_with_steps` eliminates the same
    relations, in the same order, as against the full set.
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
    """Reduce every Willmore goal Sum_b Tr(A_b^2 A_a) against block a of the
    g=4 relations, which holds all its words (see `g4_block`)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    goals = []
    count = 0
    for alpha in range(1, p + 1):
        goal = TraceExpr({(b, b, alpha): 1 for b in range(1, p + 1)})
        relations = g4_relations(p, [alpha])
        count += len(relations)
        residual, steps = reduce_goal_with_steps(goal, relations)
        goals.append(GoalReduction(alpha, goal, steps, residual))
    return ProofReport(p, count, tuple(goals))


# Characters that can start or continue a token; the first one outside them
# is reported before any other error in the text.
_OUTSIDE = re.compile(r"[^\s\dA-Za-z_()*/^+\-]")
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<gen>A\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<op>[-+*/^()])|(?P<bad>.)",
    re.DOTALL,
)
# 'Tr' as a whole name, then its '(' if there is one
_TRACE = re.compile(r"Tr(?![A-Za-z0-9_])\s*(\()?\s*")
# The longest run of factors A_i or A_i^k joined by '*'; _FACTOR reads them.
# A '^' without digits ends a factor, so that it fails in its turn.
_WORD = re.compile(r"A\d+(?:\s*\^\s*\d*)?(?:\s*\*\s*A\d+(?:\s*\^\s*\d*)?)*")
_FACTOR = re.compile(r"A(\d+)(?:\s*\^\s*(\d*))?")


def _missing(expected: str, text: str, at: int) -> TraceParseError:
    """The error for a token that should start at text[at]."""
    return TraceParseError("unexpected end of expression" if at == len(text) else expected, at)


def _read_word(text: str, pos: int) -> tuple[Word, int]:
    """The word of a Tr( ) whose '(' ends before pos, and the end of its ')'.

    Errors come in text order: those of the factors read, then the token at
    which the run of factors stops short of the ')'.
    """
    run = _WORD.match(text, pos)
    end = run.end() if run else pos
    letters: list[int] = []
    for factor in _FACTOR.finditer(text, pos, end):
        start = factor.start()
        try:
            index = int(factor[1])
        except ValueError:  # more digits than int() converts
            raise TraceParseError("operator index has too many digits", start) from None
        if index == 0:
            raise TraceParseError("operator index must be positive", start)
        exponent = 1
        if factor[2] is not None:
            if not factor[2]:
                raise _missing("expected digits after '^'", text, factor.start(2))
            digits = factor[2].lstrip("0")
            if len(digits) > len(str(MAX_WORD_LEN)):
                raise TraceParseError(f"trace word longer than {MAX_WORD_LEN} letters", start)
            exponent = int(digits or "0")
            if exponent < 1:
                raise TraceParseError("exponent must be positive", factor.start(2))
        if exponent > MAX_WORD_LEN - len(letters):
            raise TraceParseError(f"trace word longer than {MAX_WORD_LEN} letters", start)
        letters += [index] * exponent
    end = _SPACE.match(text, end).end()
    if run is None:  # no first factor
        raise _missing("expected an operator like 'A1'", text, end)
    if text.startswith("*", end):  # no factor after it
        raise _missing("expected an operator like 'A1'", text, _SPACE.match(text, end + 1).end())
    if not text.startswith(")", end):
        raise TraceParseError("expected ')'", end)
    return tuple(letters), end + 1


def parse_trace_expr(text: str) -> TraceExpr:
    """Parse e.g. "Tr(A1) - 3*Tr(A2*A1*A2)" into a canonical TraceExpr.

    One pass: each step of the grammar is a compiled pattern matched at the
    current position, and an error names the token found there.
    """
    bad = _OUTSIDE.search(text)
    if bad is not None:
        raise TraceParseError(f"unexpected character {bad.group()!r}", bad.start())
    terms = []
    negative = False
    pos = _SPACE.match(text).end()
    while True:
        trace = _TRACE.match(text, pos)
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
            trace = _TRACE.match(text, pos)
            if trace is None:
                raise TraceParseError("expected 'Tr'", pos)
        if trace[1] is None:
            raise TraceParseError("expected '('", trace.end())
        word, pos = _read_word(text, trace.end())
        terms.append((canonicalize_cyclic(word), -coeff if negative else coeff))
        pos = _SPACE.match(text, pos).end()
        if pos == len(text):
            return TraceExpr._of(accumulate({}, terms))
        if text[pos] not in "+-":
            raise TraceParseError(f"unexpected token {_TOKEN_RE.match(text, pos).group()!r}", pos)
        negative = text[pos] == "-"
        pos = _SPACE.match(text, pos + 1).end()


def _rule_lines(text: str) -> list[tuple[int, str]]:
    """(number, text) of each relation line: '#' comments cut, blank lines dropped."""
    return [(number, line) for number, raw in enumerate(text.splitlines(), 1) if (line := raw.split("#", 1)[0].strip())]


def _parse_rule(number: int, line: str) -> TraceExpr:
    """The relation lhs - rhs of one line, "lhs = 0" or "lhs = rhs"."""
    parts = line.split("=")
    if len(parts) != 2:
        raise TraceParseError(f"line {number}: expected exactly one '='")
    try:
        lhs = parse_trace_expr(parts[0])
        rhs = TraceExpr() if parts[1].strip() == "0" else parse_trace_expr(parts[1])
    except TraceParseError as exc:
        raise TraceParseError(f"line {number}: {exc}") from exc
    return lhs - rhs


def parse_identity_file(text: str) -> list[TraceExpr]:
    """One relation per line, "lhs = 0" or "lhs = rhs"; '#' comments."""
    return [_parse_rule(number, line) for number, line in _rule_lines(text)]


# A line `_parse_rule` accepts, read without it: terms [-digits*]Tr(word)
# joined by '+'/'-' on each side of one '=', or a lone 0 on the right; ASCII,
# no space in a word, no A0 or ^0, an index below 10^9 and at most 100
# factors below ^100, so that no word reaches MAX_WORD_LEN.  Compiled on
# first use (re caches it), which keeps its 1 ms out of `import willmore`.
_SCAN_FACTOR = r"A[1-9][0-9]{0,8}(?:\^[1-9][0-9]?)?"
_SCAN_TERM = rf"\s*(?:-?\s*[0-9]{{1,20}}\s*\*\s*)?Tr\({_SCAN_FACTOR}(?:\*{_SCAN_FACTOR}){{0,99}}\)\s*"
_SCAN_SIDE = rf"{_SCAN_TERM}(?:[-+]{_SCAN_TERM})*"
_SCAN_RULE = rf"{_SCAN_SIDE}=(?:\s*0\s*|{_SCAN_SIDE})"
_SCAN_WORD = re.compile(r"Tr\(([^)]*)\)")


def _multiset(word: Word) -> tuple[str, ...]:
    """The sorted factor names 'A<i>' of a word, as `_letters` reads its text."""
    return tuple(sorted(map("A{}".format, word)))


def _letters(word: str) -> tuple[str, ...]:
    """The factors 'A<i>' of a word's text, each repeated by its exponent,
    sorted: the same for every rotation of the word."""
    if "^" not in word:
        return tuple(sorted(word.split("*")))
    letters: list[str] = []
    for factor in word.split("*"):
        name, _, exponent = factor.partition("^")
        letters += [name] * int(exponent or 1)
    return tuple(sorted(letters))


class RulesFile:
    """A rules file read goal-locally.  Every line is checked in file order:
    one the scan pattern accepts cannot fail `_parse_rule`, and any other goes
    through it.  Relations that share a canonical word share its letter
    multiset, so the lines joined to the goal through shared multisets hold
    the goal's block, and only they are parsed.  Reading the file indexes
    each line by the letters it names; a line's multisets are read only when
    a search first needs one of those letters."""

    def __init__(self, text: str) -> None:
        self.lines = _rule_lines(text)
        scan = re.compile(_SCAN_RULE, re.ASCII)
        names = re.compile(r"A[0-9]+").findall
        self.relations: list[TraceExpr | None] = []
        self.index: dict[str, list[int]] = {}  # letter -> the lines that name it, ascending
        for k, (number, line) in enumerate(self.lines):
            relation = None if scan.fullmatch(line) else _parse_rule(number, line)
            self.relations.append(relation)
            letters = names(line) if relation is None else map("A{}".format, set().union(*relation.terms))
            for letter in set(letters):
                self.index.setdefault(letter, []).append(k)
        # Filled as letters are walked: each line's multisets, read once, and
        # for each multiset the lines read that hold it.  Once one letter of a
        # multiset is walked, every line that holds it has been read.
        self._multisets: list[list[tuple[str, ...]] | None] = [None] * len(self.lines)
        self._holders: dict[tuple[str, ...], list[int]] = {}
        self._walked: set[str] = set()

    def _parsed(self, ks: Iterable[int]) -> list[TraceExpr]:
        return [self.relations[k] or _parse_rule(*self.lines[k]) for k in ks]

    def _walk(self, letter: str) -> None:
        """Read the multisets of every line that names the letter, once."""
        self._walked.add(letter)
        for k in self.index.get(letter, ()):
            if self._multisets[k] is None:
                relation = self.relations[k]
                if relation is None:
                    keys = map(_letters, _SCAN_WORD.findall(self.lines[k][1]))
                else:
                    keys = map(_multiset, relation.terms)
                self._multisets[k] = list(dict.fromkeys(keys))
                for key in self._multisets[k]:
                    self._holders.setdefault(key, []).append(k)

    def above(self, p: int) -> list[TraceExpr]:
        """The relations of the lines that name a letter above p, in file order."""
        high = [lines for letter, lines in self.index.items() if int(letter[1:]) > p]
        return self._parsed(sorted(set().union(*high)))

    def component(self, goal: TraceExpr) -> list[TraceExpr]:
        """The relations of the lines joined to the goal's words through
        shared multisets, in file order.

        Breadth-first over multisets.  Every line that holds a multiset names
        each of its letters, so walking one letter's lines finds them all; the
        letter walked has the fewest lines, then is held the fewest times (the
        block letter of a g=4 word).  Each line is read and each letter walked
        at most once, so the search is linear in the lines it reads."""
        queue = list(dict.fromkeys(map(_multiset, goal.terms)))
        seen = set(queue)
        block: set[int] = set()
        for key in queue:  # grows while the loop runs, until the component is closed
            counts = Counter(key)
            letter = min(counts, key=lambda name: (len(self.index.get(name, ())), counts[name]))
            if letter not in self._walked:
                self._walk(letter)
            for k in self._holders.get(key, ()):
                if k not in block:
                    block.add(k)
                    fresh = [other for other in self._multisets[k] if other not in seen]
                    seen.update(fresh)
                    queue += fresh
        return self._parsed(sorted(block))

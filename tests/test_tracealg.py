import itertools
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import line_check_reference
import trace_parser_reference
from g4_rules import g4_relations_untraced
from willmore import tracealg
from willmore.exactnum import QuadExt, accumulate, scan_scalar
from willmore.linalg import Matrix
from willmore.tracealg import (
    TraceExpr,
    TraceParseError,
    canonicalize_cyclic,
    g4_relations,
    parse_identity_file,
    parse_trace_expr,
    reduce_goal_with_steps,
    verify_g4,
)


# Code without the word bound would expand A1^1000000000 into 8 GB.
NEEDS_WORD_BOUND = pytest.mark.skipif(not hasattr(tracealg, "MAX_WORD_LEN"), reason="no trace-word bound")


def rand_symmetric(rng, n=4, span=2):
    entries = [[QuadExt(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = QuadExt(rng.randint(-span, span), rng.randint(-span, span))
            entries[i][j] = v
            entries[j][i] = v
    return Matrix(entries)


def eval_trace_word(word, matrices):
    prod = matrices[word[0] - 1]
    for index in word[1:]:
        prod = prod @ matrices[index - 1]
    return prod.trace()


def reference_rref(relations):
    """Dense Gauss-Jordan over the words of the relations, in word order:
    {pivot word: monic row} of the reduced row echelon form."""
    columns = sorted({word for relation in relations for word in relation.terms}, key=tracealg._order)
    rows = [[relation.terms.get(word, QuadExt(0)) for word in columns] for relation in relations]
    rank = 0
    for col in range(len(columns)):
        found = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        inverse = rows[rank][col].inverse()
        rows[rank] = [entry * inverse for entry in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [entry - factor * pivot for entry, pivot in zip(rows[r], rows[rank])]
        rank += 1
    result = {}
    for row in rows[:rank]:
        terms = {word: entry for word, entry in zip(columns, row) if entry}
        result[min(terms, key=tracealg._order)] = terms
    return result


WORD = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple)
RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
COEFF = st.builds(QuadExt, RATIONAL, RATIONAL)


@st.composite
def relation_with_repeats(draw, words=WORD):
    """A relation summed from terms that may repeat a word, rotate it, or
    cancel an earlier term outright."""
    terms = draw(st.lists(st.tuples(words, COEFF), min_size=1, max_size=5))
    for word, coeff in draw(st.lists(st.sampled_from(terms), max_size=2)):
        shift = draw(st.integers(0, len(word) - 1))
        terms.append((word[shift:] + word[:shift], -coeff))
    return sum((TraceExpr.single(word, coeff) for word, coeff in terms), TraceExpr())


# Words over two letters per block: blocks share no letter, so no word.
BLOCK_WORDS = tuple(
    st.lists(st.sampled_from((2 * block + 1, 2 * block + 2)), min_size=1, max_size=4).map(tuple) for block in range(4)
)


@st.composite
def blocks_and_goal(draw):
    """Relations in up to three disconnected blocks, with repeated and negated
    rows, and a goal over words of several blocks and words in no relation."""
    blocks = draw(st.integers(1, 3))
    relations = []
    for block in range(blocks):
        relations += draw(st.lists(relation_with_repeats(BLOCK_WORDS[block]), min_size=1, max_size=4))
    relations += draw(st.lists(st.sampled_from(relations), max_size=2))
    relations += [-relation for relation in draw(st.lists(st.sampled_from(relations), max_size=2))]
    relations = draw(st.permutations(relations))
    # the words of one more block are in no relation
    goal = draw(relation_with_repeats(st.one_of(BLOCK_WORDS[: blocks + 1])))
    for relation, coeff in draw(st.lists(st.tuples(st.sampled_from(relations), COEFF), max_size=3)):
        goal = goal + relation * coeff
    return relations, goal


def reference_block(goal, relations):
    """The relations joined to the goal's words through shared words, in
    their order: a fixed point of one scan after another."""
    words, block = set(goal.terms), set()
    while True:
        joined = {k for k, relation in enumerate(relations) if k not in block and words & relation.terms.keys()}
        if not joined:
            return [relations[k] for k in sorted(block)]
        block |= joined
        words.update(*(relations[k].terms for k in joined))


@st.composite
def g4_goals(draw):
    """p in 1..8 and a goal over the words of g4 blocks of random letters and
    over stray words in no block, with rational and sqrt3 coefficients, plus
    multiples of built-in relations so that some goals close."""
    p = draw(st.integers(1, 8))
    letter = st.integers(1, p)
    words = [
        letter.map(lambda a: (a,)),
        letter.map(lambda a: (a, a, a)),
        st.tuples(letter, letter),
        st.lists(letter, min_size=4, max_size=9).map(tuple),
        st.tuples(letter, letter, st.integers(4, 60)).map(lambda t: (t[0],) + (t[1],) * t[2]),
    ]
    if p >= 2:
        # a rotation of (a, b, b) with a != b
        odd_and_pair = st.lists(letter, min_size=2, max_size=2, unique=True).map(lambda ab: (ab[0], ab[1], ab[1]))
        words.append(st.tuples(odd_and_pair, st.integers(0, 2)).map(lambda t: t[0][t[1] :] + t[0][: t[1]]))
    if p >= 3:
        words.append(st.lists(letter, min_size=3, max_size=3, unique=True).map(tuple))
    coeff = COEFF | st.builds(QuadExt, st.just(0), RATIONAL.filter(bool))
    goal = sum((TraceExpr.single(word, c) for word, c in draw(st.lists(st.tuples(st.one_of(words), coeff), max_size=6))), TraceExpr())
    for relation, c in draw(st.lists(st.tuples(st.sampled_from(g4_relations(p)), coeff), max_size=3)):
        goal = goal + relation * c
    return p, goal


class LetterReads(tuple):
    """A word that counts the letters read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestCanonicalize:
    def test_minimal_rotation(self):
        assert canonicalize_cyclic((2, 2, 1)) == (1, 2, 2)
        assert canonicalize_cyclic((2, 1)) == (1, 2)

    def test_already_minimal(self):
        assert canonicalize_cyclic((1, 2, 1, 2)) == (1, 2, 1, 2)

    def test_three_letters(self):
        assert canonicalize_cyclic((3, 1, 2)) == (1, 2, 3)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_cyclic(())

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_cyclic((1, 0))

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=8), st.integers(0, 7))
    def test_rotation_invariance(self, letters, k):
        word = tuple(letters)
        k %= len(word)
        rotated = word[k:] + word[:k]
        assert canonicalize_cyclic(rotated) == canonicalize_cyclic(word)

    @given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=40))
    def test_least_rotation_equals_min_over_all_rotations(self, letters):
        word = tuple(letters)
        assert canonicalize_cyclic(word) == min(word[k:] + word[:k] for k in range(len(word)))

    @pytest.mark.parametrize(
        "word",
        [
            *((j,) + (i,) * length for i, j in ((1, 2), (2, 1)) for length in (200, 3000)),
            (1, 2) * 1500,
            (5,) * 3000,
            tuple(random.Random(25).choice((1, 2)) for _ in range(3000)),
        ],
        ids=["power-2-1x200", "power-2-1x3000", "power-1-2x200", "power-1-2x3000", "period-2", "one-letter", "random"],
    )
    def test_least_rotation_of_long_words_equals_min_over_all_rotations(self, word):
        # in linear time: each comparison of two letters raises i + j + k,
        # which stays below 3n, so the scan reads at most 6n letters
        counted = LetterReads(word)
        start = tracealg._least_rotation(counted)
        assert counted.reads <= 6 * len(word)
        assert word[start:] + word[:start] == min(word[k:] + word[:k] for k in range(len(word)))

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            # power words (j,) + (i,)*L in both letter orders, rotated
            st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3000), st.integers(0, 3000)).map(
                lambda t: ((t[0],) + (t[1],) * t[2], t[3])
            ),
            # random runs of random letters, up to MAX_WORD_LEN letters
            st.tuples(
                st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3000)), min_size=1, max_size=8).map(
                    lambda runs: tuple(itertools.chain.from_iterable((a,) * k for a, k in runs))[: tracealg.MAX_WORD_LEN]
                ),
                st.integers(0, tracealg.MAX_WORD_LEN),
            ),
            # one letter, and periodic words
            st.tuples(
                st.tuples(st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple), st.integers(1, 500)).map(
                    lambda t: t[0] * t[1]
                ),
                st.integers(0, 2000),
            ),
        )
    )
    def test_canonical_rotation_is_the_scans_rotation(self, case):
        # the run shortcut against the two-pointer scan, on every rotation
        word, turn = case
        word = word[turn % len(word) :] + word[: turn % len(word)]
        start = tracealg._least_rotation(word)
        assert canonicalize_cyclic(word) == word[start:] + word[:start]

    @pytest.mark.parametrize(
        "word", [*((a,) for a in range(1, 5)), *itertools.product(range(1, 5), repeat=2), (7, 3)]
    )
    def test_one_and_two_letter_words(self, word):
        expected = (min(word), max(word)) if len(word) == 2 else word
        assert canonicalize_cyclic(word) == canonicalize_cyclic(list(word)) == expected

    def test_short_words_rotate_as_the_scan_does(self):
        # words of three letters are rotated by tuple comparison, longer ones
        # by the run shortcut where it holds, not by the scan
        for size in range(1, 7):
            for word in itertools.product(range(1, 5), repeat=size):
                start = tracealg._least_rotation(word)
                assert canonicalize_cyclic(word) == word[start:] + word[:start]
                assert canonicalize_cyclic(list(word)) == word[start:] + word[:start]

    @pytest.mark.parametrize(
        "word, message",
        [
            ((), "empty trace word"),
            ((0,), "operator indices must be positive integers: (0,)"),
            ((1, "a"), "operator indices must be positive integers: (1, 'a')"),
            ((2, 1.0, 1), "operator indices must be positive integers: (2, 1.0, 1)"),
            # three-letter words are checked inline: a bad letter at each position
            ((0, 1, 2), "operator indices must be positive integers: (0, 1, 2)"),
            ((1, "a", 2), "operator indices must be positive integers: (1, 'a', 2)"),
            ((1, 2, 1.0), "operator indices must be positive integers: (1, 2, 1.0)"),
            ((1, 2, -3), "operator indices must be positive integers: (1, 2, -3)"),
            # and so are one-letter words
            ((-1,), "operator indices must be positive integers: (-1,)"),
            (("a",), "operator indices must be positive integers: ('a',)"),
            ((1.0,), "operator indices must be positive integers: (1.0,)"),
        ],
    )
    def test_short_words_are_validated_first(self, word, message):
        with pytest.raises(ValueError) as info:
            canonicalize_cyclic(word)
        assert str(info.value) == message

    @pytest.mark.parametrize("at", [0, 1500, 2999], ids=["start", "middle", "end"])
    @pytest.mark.parametrize("letter", [1.0, 0, -1, True, "a"], ids=repr)
    def test_every_letter_of_a_long_word_is_checked(self, letter, at):
        word = [2] * 3000
        word[at] = letter
        word = tuple(word)
        if letter is True:
            # an int equal to 1, as bool is: the word rotates to start there
            assert canonicalize_cyclic((True,)) == (True,)
            assert canonicalize_cyclic(word) == word[at:] + word[:at]
            return
        with pytest.raises(ValueError) as info:
            canonicalize_cyclic(word)
        assert str(info.value) == f"operator indices must be positive integers: {word}"

    @pytest.mark.parametrize(
        "text", ["Tr(A21*A23^2088)", "Tr(A23^2088*A21)", "Tr(A5^200*A3*A7^150)", "Tr( A2 * A1^3 )", "Tr(A9^101*A9)"]
    )
    def test_a_word_read_step_by_step_hands_over_its_least_letter(self, monkeypatch, text):
        # the stepwise reader checked every index, so the hooked name is
        # called with the least letter and checks no letter again
        calls, canonical = [], tracealg.canonicalize_cyclic
        monkeypatch.setattr(tracealg, "canonicalize_cyclic", lambda word, **kw: calls.append((word, kw)) or canonical(word, **kw))
        expr = parse_trace_expr(text)
        monkeypatch.undo()
        [(word, kw)] = calls
        assert kw == {"least": min(word)}
        assert list(expr.terms) == [canonicalize_cyclic(word)]


class TestInstantiate:
    """g4_relations instantiates the identities over the letters 1..p."""

    def test_cube_over_two_indices(self):
        cubes = g4_relations(2)[:2]
        assert cubes == [TraceExpr({(1,): 1, (1, 1, 1): -1}), TraceExpr({(2,): 1, (2, 2, 2): -1})]

    def test_conjugation_over_two_indices_gives_ordered_pairs(self):
        relations = g4_relations(2)
        assert len(relations) == 6
        # (a, b) = (1, 2), then (2, 1)
        assert relations[2:4] == [TraceExpr({(1,): 1, (1, 2, 2): -3}), TraceExpr({(2,): 1, (2, 1, 1): -3})]

    def test_conjugation_needs_two_distinct_indices(self):
        assert g4_relations(1) == [TraceExpr({(1,): 1, (1, 1, 1): -1}), TraceExpr({(1,): 1})]

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            g4_relations(0)

    def test_unlisted_variable_rejected(self):
        with pytest.raises(ValueError) as info:
            g4_relations(2, [1, 3])
        assert str(info.value) == "block letters must lie in 1..2: [1, 3]"


class TestG4RelationsAgainstUntraced:
    """g4_relations writes canonical words; the untraced construction is the reference."""

    @staticmethod
    def assert_same(relations, reference):
        # equal terms in the same order, and equal lists in the same order
        assert [list(relation.terms.items()) for relation in relations] == [
            list(relation.terms.items()) for relation in reference
        ]

    @pytest.mark.parametrize("p", range(1, 13))
    def test_full_set(self, p):
        self.assert_same(g4_relations(p), g4_relations_untraced(p))

    @pytest.mark.parametrize("p", range(1, 13))
    def test_subsets_of_letters(self, p):
        rng = random.Random(p)
        subsets = [[], [p], [1, p], list(range(p, 0, -1)), [1, 1]]
        subsets += [rng.sample(range(1, p + 1), rng.randint(1, p)) for _ in range(5)]
        for letters in subsets:
            self.assert_same(g4_relations(p, letters), g4_relations_untraced(p, letters))

    @pytest.mark.parametrize(
        "args", [(0,), (-3,), (0, []), (2, [0]), (2, [3]), (4, [1, 5]), (4, [-1]), (12, [13])]
    )
    def test_errors(self, args):
        with pytest.raises(ValueError) as expected:
            g4_relations_untraced(*args)
        with pytest.raises(ValueError) as info:
            g4_relations(*args)
        assert str(info.value) == str(expected.value)


class TestTraceOf:
    """TraceExpr traces untraced words: its canonicalization merges rotations."""

    def test_conjugation_collapses_to_coefficient_three(self):
        untraced = TraceExpr({(2,): 1, (3, 3, 2): -1, (3, 2, 3): -1, (2, 3, 3): -1})
        assert untraced == TraceExpr({(2,): 1, (2, 3, 3): -3})
        assert untraced.terms == {(2,): QuadExt(1), (2, 3, 3): QuadExt(-3)}

    def test_cube_traces_termwise(self):
        cube = TraceExpr({(1,): 1, (1, 1, 1): -1})
        assert cube.terms == {(1,): QuadExt(1), (1, 1, 1): QuadExt(-1)}

    def test_zero_identity(self):
        assert TraceExpr({}) == TraceExpr()
        # two rotations of one word with opposite signs cancel
        cancelled = TraceExpr({(1, 2, 2): 1, (2, 1, 2): -1})
        assert not cancelled and cancelled == TraceExpr()

    def test_equal_expressions_hash_alike(self):
        # the same terms in another order and in another rotation of a word
        first = TraceExpr({(1,): 1, (1, 2, 2): -3})
        second = TraceExpr({(2, 1, 2): -3, (1,): QuadExt(1)})
        assert first == second and hash(first) == hash(second)
        assert len({first, second, TraceExpr({(1,): 1})}) == 2

    def test_cyclicity_soundness_on_random_matrices(self):
        rng = random.Random(101)
        for _ in range(100):
            matrices = [rand_symmetric(rng) for _ in range(3)]
            word = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6)))
            assert eval_trace_word(word, matrices) == eval_trace_word(
                canonicalize_cyclic(word), matrices
            )


def groupby_word_str(word):
    """A word's text by itertools.groupby, one list per run."""
    runs = [(letter, len(list(run))) for letter, run in itertools.groupby(word)]
    return "*".join(f"A{letter}^{k}" if k > 1 else f"A{letter}" for letter, k in runs)


class TestWordText:
    def test_runs_become_powers(self):
        assert tracealg._word_str((2, 2, 1)) == "A2^2*A1"
        assert tracealg._word_str((10, 1, 10)) == "A10*A1*A10"
        assert tracealg._word_str((7,)) == "A7"

    # runs of 1 to 300 letters over two-digit letters too
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from([1, 2, 3, 12]), st.one_of(st.integers(1, 3), st.integers(100, 300))),
                    min_size=1, max_size=6))
    def test_equals_the_groupby_form(self, runs):
        word = tuple(letter for letter, k in runs for _ in range(k))
        assert tracealg._word_str(word) == groupby_word_str(word)

    def test_long_power_words(self):
        for word in [(2,) + (1,) * 3000, (1,) * 100, (1, 2) * 150, (5,) * 10_000]:
            assert tracealg._word_str(word) == groupby_word_str(word)

    def test_every_run_length_at_the_start_middle_and_end(self):
        # runs past the fourth letter are measured in slices: every length
        # across the doublings, where a run ends the word and where it does not
        for k in range(1, 70):
            for word in [(3,) * k, (3,) * k + (1,), (1,) + (3,) * k, (1,) + (3,) * k + (1, 1), (3,) * k + (1,) + (3,) * k]:
                assert tracealg._word_str(word) == groupby_word_str(word)


# Coefficients that take the elimination's fast paths: a lead of 1 needs no
# inverse, -1 and -3 are those of the g=4 relations, and sqrt3 is irrational;
# the other half are any coefficient of COEFF.
FAST_COEFF = st.one_of(st.sampled_from([QuadExt(1), QuadExt(-1), QuadExt(-3), QuadExt(0, 1)]), COEFF)
FAST_WORD = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)


@st.composite
def fast_path_cases(draw):
    """Relations with many one-term rows and leads of 1, -1, -3 and sqrt3,
    and a goal over their words and words in none of them, plus multiples of
    the relations."""
    terms = st.lists(st.tuples(FAST_WORD, FAST_COEFF), min_size=1, max_size=4)
    one_term = st.tuples(FAST_WORD, FAST_COEFF).map(lambda term: [term])
    relations = [TraceExpr(dict(row)) for row in draw(st.lists(st.one_of(one_term, terms), max_size=8))]
    goal = TraceExpr(dict(draw(st.lists(st.tuples(FAST_WORD, FAST_COEFF), max_size=6))))
    multiples = st.lists(st.tuples(st.sampled_from(relations), FAST_COEFF), max_size=3) if relations else st.just([])
    for relation, coeff in draw(multiples):
        goal = goal + relation * coeff
    return relations, goal


def reference_normal_form(goal, relations):
    """Residual and step texts of the goal reduced by `reference_rref`, each
    step subtracting a whole pivot row and rendering it with `str`."""
    pivots = reference_rref(relations)
    residual, steps = goal, []
    for word in sorted((w for w in goal.terms if w in pivots), key=tracealg._order):
        if word in residual.terms:
            row = TraceExpr._of(pivots[word])
            steps.append(f"eliminate {TraceExpr.single(word)} using {row} = 0")
            residual = residual - row * residual.terms[word]
    return residual, tuple(steps)


class TestReduceGoal:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(fast_path_cases())
    def test_fast_paths_match_a_reference_normal_form(self, case):
        relations, goal = case
        assert reduce_goal_with_steps(goal, relations) == reference_normal_form(goal, relations)

    def test_direct_relation(self):
        goal = TraceExpr({(1,): 1})
        assert not reduce_goal_with_steps(goal, [TraceExpr({(1,): 1})])[0]

    def test_willmore_goal_for_three_indices(self):
        goal = TraceExpr({(1, 1, 1): 1, (2, 2, 1): 1, (3, 3, 1): 1})
        assert not reduce_goal_with_steps(goal, g4_relations(3))[0]

    def test_unrelated_goal_unchanged(self):
        goal = TraceExpr({(1, 2, 2): 1})
        assert reduce_goal_with_steps(goal, [])[0] == goal

    def test_scaling(self):
        goal = TraceExpr({(1,): 2})
        assert not reduce_goal_with_steps(goal, [TraceExpr({(1,): 1})])[0]

    def test_g4_elimination_reduces_each_relation_at_most_once(self, monkeypatch):
        # Sparsest rows first: the Tr(a) pivots come before the rows that
        # lead with Tr(a), so each of those needs a single reduction.
        relations = g4_relations(40)
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return accumulate(*args)

        monkeypatch.setattr(tracealg, "accumulate", counting)
        tracealg._echelon(relations)
        assert calls <= len(relations) == 1640

    @given(st.lists(relation_with_repeats(), max_size=8))
    def test_echelon_is_the_reduced_row_echelon_form(self, relations):
        pivots = tracealg._echelon(relations)
        assert pivots == reference_rref(relations)
        for lead, row in pivots.items():
            assert min(row, key=tracealg._order) == lead == next(iter(row)) and row[lead] == 1
            assert not any(word in pivots for word in row if word != lead)
        for relation in relations:
            assert not tracealg._normal_form(relation.terms, pivots)[0]

    @settings(max_examples=30, deadline=None)
    @given(blocks_and_goal())
    def test_block_reduction_equals_the_full_elimination(self, case):
        # the fact behind every caller's cut: the goal's block alone gives
        # the residual and the steps of all the relations
        relations, goal = case
        residual, steps = tracealg._normal_form(goal.terms, tracealg._echelon(relations))
        block = reference_block(goal, relations)
        assert reduce_goal_with_steps(goal, block) == (TraceExpr._of(residual), tuple(steps))

    def test_residual_independent_of_relation_order(self):
        rng = random.Random(7)
        relations = g4_relations(4)
        goal = TraceExpr({(1, 1, 2): 1, (1,): Fraction(1, 2), (1, 2, 3): 5})
        reference = reduce_goal_with_steps(goal, relations)[0]
        for _ in range(10):
            shuffled = relations[:]
            rng.shuffle(shuffled)
            assert reduce_goal_with_steps(goal, shuffled)[0] == reference


class TestG4Blocks:
    @pytest.mark.parametrize("p", range(1, 9))
    def test_the_full_set_holds_every_block_once(self, p):
        blocks = [relation for a in range(1, p + 1) for relation in g4_relations(p, [a])]
        assert sorted(map(str, blocks)) == sorted(map(str, g4_relations(p)))
        assert g4_relations(p, range(1, p + 1)) == g4_relations(p)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_each_block_holds_the_words_mapped_to_its_letter(self, p):
        for a in range(1, p + 1):
            relations = g4_relations(p, [a])
            assert len(relations) == p + 1
            assert {tracealg.g4_block(word) for relation in relations for word in relation.terms} == {a}

    def test_stray_words_lie_in_no_block(self):
        for word in [(1, 2), (1, 1), (1, 2, 3), (1, 1, 1, 1), (2,) + (1,) * 3000]:
            assert tracealg.g4_block(word) is None

    @pytest.mark.parametrize("letters", [[0], [5], [1, 5]])
    def test_letters_outside_one_to_p_rejected(self, letters):
        with pytest.raises(ValueError):
            g4_relations(4, letters)

    @pytest.mark.parametrize("args", [(0, []), (-1, None)])
    def test_p_below_one_rejected(self, args):
        with pytest.raises(ValueError, match="p must be >= 1"):
            g4_relations(*args)

    @settings(max_examples=150, deadline=None)
    @given(g4_goals())
    @example((1, TraceExpr()))
    @example((3, TraceExpr()))
    def test_blocks_of_the_goal_reduce_as_the_full_set(self, case):
        p, goal = case
        letters = sorted({tracealg.g4_block(word) for word in goal.terms} - {None})
        assert reduce_goal_with_steps(goal, g4_relations(p, letters)) == reduce_goal_with_steps(goal, g4_relations(p))


class TestVerifyG4:
    def test_two_normal_directions(self):
        report = verify_g4(2)
        assert report.verdict
        assert len(report.goals) == 2
        assert all(goal.closed for goal in report.goals)
        assert all(goal.steps for goal in report.goals)

    def test_single_direction_uses_cube_and_minimality(self):
        report = verify_g4(1)
        assert report.verdict
        assert report.relation_count == 2
        assert report.goals[0].goal == TraceExpr({(1, 1, 1): 1})

    def test_relation_count_grows_quadratically(self):
        report = verify_g4(7)
        assert report.relation_count == 7 + 7 * 6 + 7
        assert report.verdict

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            verify_g4(0)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_block_replay_equals_the_whole_set_elimination(self, p):
        pivots = tracealg._echelon(g4_relations(p))
        report = verify_g4(p)
        assert [goal.alpha for goal in report.goals] == list(range(1, p + 1))
        for reduction in report.goals:
            assert reduction.goal == TraceExpr({(b, b, reduction.alpha): 1 for b in range(1, p + 1)})
            residual, steps = tracealg._normal_form(reduction.goal.terms, pivots)
            assert (reduction.residual, reduction.steps) == (TraceExpr._of(residual), tuple(steps))
        assert report.relation_count == p * p + p

    @pytest.mark.parametrize("p", range(1, 13))
    def test_goals_are_written_as_the_canonicalizing_constructor_writes_them(self, p):
        # verify_g4 writes each goal's canonical words itself; the report is the
        # one built from goals that TraceExpr canonicalizes and coerces
        goals = [TraceExpr({(b, b, alpha): 1 for b in range(1, p + 1)}) for alpha in range(1, p + 1)]
        report = verify_g4(p)
        assert [reduction.goal for reduction in report.goals] == goals
        reductions = []
        for alpha, goal in enumerate(goals, 1):
            residual, steps = reduce_goal_with_steps(goal, g4_relations(p, [alpha]))
            reductions.append(tracealg.GoalReduction(alpha, goal, steps, residual))
        assert report == tracealg.ProofReport(p, p * p + p, tuple(reductions))

    @pytest.mark.parametrize("p", [1, 2, 5, 12])
    def test_each_goal_eliminates_only_its_block(self, monkeypatch, p):
        eliminated = []
        full_echelon = tracealg._echelon

        def counting(rows):
            rows = list(rows)
            eliminated.append(len(rows))
            return full_echelon(rows)

        monkeypatch.setattr(tracealg, "_echelon", counting)
        assert verify_g4(p).verdict
        assert eliminated == [p + 1] * p


class TestParse:
    def test_power_word(self):
        assert parse_trace_expr("Tr(A2^2*A1)") == TraceExpr({(1, 2, 2): 1})

    def test_linear_combination(self):
        expr = parse_trace_expr("Tr(A1) - 3*Tr(A2*A1*A2)")
        assert expr == TraceExpr({(1,): 1, (1, 2, 2): -3})

    def test_cyclic_cancellation(self):
        assert not parse_trace_expr("Tr(A1*A2) - Tr(A2*A1)")

    @pytest.mark.parametrize(
        "text, scans",
        [
            ("0*Tr(A1) + Tr(A2)", 1),  # the zero term is dropped
            ("(1/2)*Tr(A1) - (1/2)*Tr(A1)", 1),  # parses to 0
            ("(1)*Tr(A1) - (1)*Tr(A2) + (1)*Tr(A3)", 1),  # the sign is applied to a copy
            ("2*Tr(A1) + 2 * Tr(A2)", 2),  # one value in two spellings
        ],
    )
    def test_each_coefficient_spelling_is_scanned_once_per_call(self, monkeypatch, text, scans):
        expected = trace_parser_reference.parse_trace_expr(text)
        scanned = []
        monkeypatch.setattr(tracealg, "scan_scalar", lambda *args: scanned.append(args) or scan_scalar(*args))
        for calls in (1, 2):  # no value outlives its call: a second parse scans again
            expr = parse_trace_expr(text)
            assert expr == expected and all(expr.terms.values())
            assert len(scanned) == calls * scans

    def test_a_rule_line_is_lhs_minus_rhs(self):
        line = "Tr(A1^3) = Tr(A1)"
        assert parse_identity_file(line) == trace_parser_reference.parse_identity_file(line)
        assert parse_identity_file(line) == [TraceExpr({(1, 1, 1): 1, (1,): -1})]

    def test_quadratic_field_coefficients(self):
        expr = parse_trace_expr("2/3*sqrt3*Tr(A1) + 1+1*sqrt3*Tr(A2)")
        assert expr == TraceExpr({(1,): QuadExt(0, Fraction(2, 3)), (2,): QuadExt(1, 1)})

    @pytest.mark.parametrize(
        "text",
        ["", "Tr(A0)", "Tr()", "2*", "Tr(A1^0)", "Tr(A1)+", "Foo(A1)", "Tr(A1*)", "3 Tr(A1)"],
    )
    def test_malformed_expressions(self, text):
        with pytest.raises(TraceParseError):
            parse_trace_expr(text)

    def test_scalar_error_is_a_trace_error_at_its_position(self):
        with pytest.raises(TraceParseError) as info:
            parse_trace_expr("Tr(A1) + 2/0*Tr(A2)")
        assert info.value.position == 11
        assert "zero denominator" in str(info.value)

    def test_word_at_the_length_bound(self):
        expr = parse_trace_expr("Tr(A2*A1^9999)")
        assert [len(word) for word in expr.terms] == [10_000]

    @pytest.mark.parametrize(
        "text",
        [
            "Tr(A2*A1^10000)",
            "Tr(A1^5000*A2^5000*A1)",
            "Tr(" + "A1*" * 10_000 + "A2)",
            "Tr(A1) + Tr(" + "A1^9999*" * 100 + "A2)",
            pytest.param("Tr(A2*A1^1000000000)", marks=NEEDS_WORD_BOUND),
        ],
    )
    def test_word_beyond_the_length_bound(self, text):
        with pytest.raises(TraceParseError) as info:
            parse_trace_expr(text)
        assert "longer than 10000" in str(info.value)

    @pytest.mark.parametrize(
        "text, char, position",
        [
            ("$Tr(A1)", "$", 0),
            ("Tr(A1) $ Tr(A2)", "$", 7),
            ("Tr(A1)$", "$", 6),
            ("Tr(A1)\u00b7Tr(A2)", "\u00b7", 6),
        ],
        ids=["start", "middle", "end", "non-ascii"],
    )
    def test_unexpected_character(self, text, char, position):
        with pytest.raises(TraceParseError) as info:
            parse_trace_expr(text)
        assert str(info.value) == f"unexpected character {char!r} (at position {position})"
        assert info.value.position == position

    def test_error_carries_position(self):
        with pytest.raises(TraceParseError) as info:
            parse_trace_expr("Tr(A1) - 3*Tr(A0)")
        assert info.value.position == 14

    def test_roundtrip_of_rendering(self):
        rng = random.Random(3)
        for _ in range(50):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                word = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
                terms[word] = QuadExt(rng.randint(-3, 3), rng.randint(-3, 3))
            expr = TraceExpr(terms)
            if not expr:
                continue  # "0" is not a trace term, only a residual rendering
            assert parse_trace_expr(str(expr)) == expr


# Pieces of trace text, valid and not: the grammar's tokens, scalars, digit
# strings past int()'s limit, a non-ASCII digit (A\u0661 reads as A1) and
# characters outside the token alphabet.
FRAGMENTS = (
    " ", "\t", "Tr", "Trx", "(", ")", "A0", "A12", "A", "^", "^0", "^2", "*", "+", "-", "/", "sqrt3", "2",
    "3/4", "(2+sqrt3)", "(-1/2*sqrt3)", "1-sqrt3", "9" * 5000, "A\u0661", "\u0661", "$", "\u00e9", "_",
)
TERMS = ("Tr(A1)", "3*Tr(A2*A1^2)", "(1+sqrt3)*Tr(A1*A2*A3)", "-2/3*sqrt3*Tr(A2^3)", "Tr( A1 ^ 2 * A2 )")


@st.composite
def trace_texts(draw):
    """A sum of valid terms edited by inserting fragments, deleting spans and
    truncating, or a string of fragments alone."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(FRAGMENTS), max_size=10)))
    text = draw(st.sampled_from(TERMS))
    for term in draw(st.lists(st.sampled_from(TERMS), max_size=2)):
        text += draw(st.sampled_from((" + ", "-", " - "))) + term
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "truncate")))
        if edit == "insert":
            text = text[:at] + draw(st.sampled_from(FRAGMENTS)) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
        else:
            text = text[:at]
    return text


def parse_outcome(parse, text):
    """The parse result, or the error's message and positions."""
    try:
        return parse(text)
    except TraceParseError as exc:
        cause = exc.__cause__
        return str(exc), exc.position, getattr(cause, "position", None)


class TestParserAgainstReference:
    def test_characters_outside_the_alphabet_are_the_tokenizers_bad_ones(self):
        every = "".join(map(chr, range(0x110000)))
        tokens = trace_parser_reference._TOKEN_RE.finditer(every)
        assert [m.start() for m in tracealg._compiled(tracealg._OUTSIDE).finditer(every)] == [
            m.start() for m in tokens if m.lastgroup == "bad"
        ]

    @settings(max_examples=400, deadline=None)
    @given(trace_texts())
    def test_expression_equals_the_token_parser(self, text):
        outcome = parse_outcome(parse_trace_expr, text)
        assert outcome == parse_outcome(trace_parser_reference.parse_trace_expr, text)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                trace_texts(),
                st.sampled_from(("=", " = ", " == ", "")),
                trace_texts() | st.just(" 0"),
                st.sampled_from(("", " # a comment")),
            ),
            max_size=3,
        )
    )
    def test_identity_file_equals_the_token_parser(self, lines):
        text = "\n".join("".join(line) for line in lines)
        outcome = parse_outcome(parse_identity_file, text)
        assert outcome == parse_outcome(trace_parser_reference.parse_identity_file, text)

    @pytest.mark.parametrize(
        "text",
        [
            "Tr(A2^10000*A1^-1)",  # the missing digits fail before the word's length
            "Tr(A1^2^3)",
            "Tr(A0*x)",
            "Tr(A1*)",
            "Tr(A1^)",
            "Tr(A1^ ",
            "Tr\u0661(A1)",
            "Tr(A\u0661) - Tr(A1)",
            "(2*Tr(A1))",
            "2 Tr(A1)",
            "Tr(A1) Tr(A2)",
            "Tr(A1)+",
            "   ",
        ],
    )
    def test_edge_cases_equal_the_token_parser(self, text):
        assert parse_outcome(parse_trace_expr, text) == parse_outcome(trace_parser_reference.parse_trace_expr, text)


# Canonical texts, which the one-pass pattern (`_SIDE`) accepts whole; with a
# space after each 'Tr(' the same text goes to the stepwise reader.
CANONICAL_TEXTS = [
    "Tr(A1) - 3*Tr(A2*A1*A2)",
    "sqrt3*Tr(A1) + 2/3*sqrt3*Tr(A2^2*A1) - 1-sqrt3*Tr(A3) + (1-2/3*sqrt3)*Tr(A3^2*A1)",
    "1/2*Tr(A1^3) + (3/4)*Tr(A2) - 5/7 * Tr(A1*A2) + (1/2+sqrt3) *Tr(A2*A1^2)",
    "-3*Tr(A1) + Tr(A2) - -1/2*Tr(A3)",
    "-1*Tr(A2) - Tr(A1)",
    "Tr(A1*A2) - Tr(A2*A1) + 2*Tr(A1^2*A3) - 2*Tr(A3*A1*A1) + (1/2)*Tr(A2)",
    "Tr(A1) + 2*Tr(" + "*".join(f"A{k % 7 + 1}^{k % 99 + 1}" for k in range(100)) + ")",
]


class TestReadersAgree:
    @pytest.mark.parametrize(
        "text", CANONICAL_TEXTS, ids=["plain", "sqrt3", "fractions", "leading-minus", "minus-one", "cancel", "100-factors"]
    )
    def test_one_pass_and_stepwise_readers_give_the_token_parsers_terms(self, text):
        stepwise = text.replace("Tr(", "Tr( ")
        side = tracealg._compiled(tracealg._SIDE)
        assert side.fullmatch(text) and not side.fullmatch(stepwise)
        expected = trace_parser_reference.parse_trace_expr(text)
        assert parse_trace_expr(text) == parse_trace_expr(stepwise) == expected
        assert trace_parser_reference.parse_trace_expr(stepwise) == expected

    def test_an_exponents_leading_zeros_are_read_past_ints_digit_limit(self):
        text = "Tr(A2*A1^" + "0" * 5_000 + "3)"
        assert parse_trace_expr(text) == trace_parser_reference.parse_trace_expr(text) == TraceExpr({(1, 1, 1, 2): 1})

    # an index and an exponent, each behind 5,000 leading zeros, read as the numbers they spell
    LEADING_ZEROS = {
        "Tr(A" + "0" * 5_000 + "1)": TraceExpr({(1,): 1}),
        "Tr(A1^" + "0" * 5_000 + "5)": TraceExpr({(1,) * 5: 1}),
    }

    @pytest.mark.parametrize("text", LEADING_ZEROS, ids=["index", "exponent"])
    def test_leading_zeros_of_an_index_or_exponent_are_read_past_ints_digit_limit(self, text):
        assert parse_trace_expr(text) == trace_parser_reference.parse_trace_expr(text) == self.LEADING_ZEROS[text]

    @pytest.mark.parametrize("text", LEADING_ZEROS, ids=["index", "exponent"])
    def test_leading_zeros_in_a_rules_file_line(self, text):
        # not the canonical spelling, so the line check rejects the line and `_parse_rule` reads it
        line = f"{text} = Tr(A2)"
        assert not line_check_reference.accepts(line)
        expected = TraceExpr({**self.LEADING_ZEROS[text].terms, (2,): -1})
        assert tracealg._parse_rule(1, line) == expected
        assert trace_parser_reference.parse_identity_file(line) == [expected]
        rules = tracealg.RulesFile(line + "\n")
        assert rules.relations == [expected]
        assert rules.component(TraceExpr({(2,): 1})) == [expected]


# Before Python 3.11 int() reads any number of digits.
NEEDS_INT_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")


def malformed(term, message, marks=()):
    return pytest.param(term, message, id=message, marks=marks)


# A malformed term for each error the token parser raises, and the message;
# each follows one or more well-formed terms.
MALFORMED_TERMS = [
    malformed("Tr(A2$)", "unexpected character '$'"),
    malformed("Tr(", "unexpected end of expression"),
    malformed("Tr(B1)", "expected an operator like 'A1'"),
    malformed("Tr(A2*)", "expected an operator like 'A1'"),
    malformed("Tr(A" + "9" * 5000 + ")", "operator index has too many digits", NEEDS_INT_DIGIT_LIMIT),
    malformed("Tr(A0)", "operator index must be positive"),
    malformed("Tr(A2^)", "expected digits after '^'"),
    malformed("Tr(A2^10001)", "trace word longer than 10000 letters"),
    malformed("Tr(A2^5000*A1^5001)", "trace word longer than 10000 letters"),
    malformed("Tr(A2^0)", "exponent must be positive"),
    malformed("Tr A2", "expected '('"),
    malformed("Tr(A2 A3)", "expected ')'"),
    malformed("(2*Tr(A2)", "expected ')'"),
    malformed("2 Tr(A2)", "expected '*'"),
    malformed("2*Foo(A2)", "expected 'Tr'"),
    malformed("x*Tr(A2)", "expected a rational or 'sqrt3'"),
    malformed("1/0*Tr(A2)", "zero denominator"),
    malformed("(1/)*Tr(A2)", "expected digits after '/'"),
    malformed("9" * 5000 + "*Tr(A2)", "number has too many digits", NEEDS_INT_DIGIT_LIMIT),
    malformed("(sqrt3+sqrt3)*Tr(A2)", "'sqrt3' may appear at most once"),
    malformed("Tr(A2) Tr(A3)", "unexpected token 'Tr'"),
]
WELL_FORMED = ["Tr(A1) + ", "(1/2)*Tr(A2^2*A1) - ", "3*Tr(A1*A2*A3) + (1+sqrt3)*Tr(A2) - ", "Tr( A1 ^ 2 ) + "]


class TestTermAfterAWellFormedOne:
    """A malformed term after well-formed ones sends the text to the stepwise
    reader, which raises the token parser's message at its position."""

    @pytest.mark.parametrize("head", WELL_FORMED, ids=range(len(WELL_FORMED)))
    @pytest.mark.parametrize("term, message", MALFORMED_TERMS)
    def test_same_error_as_the_token_parser(self, head, term, message):
        text = head + term
        outcome = parse_outcome(parse_trace_expr, text)
        assert outcome == parse_outcome(trace_parser_reference.parse_trace_expr, text)
        assert message in outcome[0]
        assert outcome[1] >= len(head)  # in the malformed term

    @pytest.mark.parametrize(
        "text",
        [
            "(" + " " * 2_000 + "1",
            "(" + " " * 2_000 + "1" + " " * 2_000 + ")*Tr(A1)",
            "Tr(A1) + (1" + " " * 2_000 + "*Tr(A1)",
            "Tr(" + " " * 2_000 + "A1" + " " * 2_000,
            "Tr(A1" + "*A1" * 3_000 + " x",
        ],
        ids=["open-parenthesis", "parenthesized", "unclosed", "word", "long-word"],
    )
    def test_long_runs_read_in_linear_time(self, text):
        # a pattern whose space runs overlap backtracks in cubic time here: seconds at 2,000 spaces
        start = time.perf_counter()
        outcome = parse_outcome(parse_trace_expr, text)
        assert time.perf_counter() - start < 2.0
        assert outcome == parse_outcome(trace_parser_reference.parse_trace_expr, text)

    def test_a_long_word_is_refused_before_it_is_built(self):
        # 1,000 factors A1^9999 in 8 KB of text would expand to 10 million letters
        tracemalloc.start()
        try:
            with pytest.raises(TraceParseError, match="longer than 10000"):
                parse_trace_expr("Tr(A1) + Tr(" + "A1^9999*" * 1_000 + "A2)")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    @pytest.mark.parametrize("head", WELL_FORMED, ids=range(len(WELL_FORMED)))
    def test_well_formed_terms_read_as_the_token_parser_reads_them(self, head):
        for tail in ("Tr(A3)", "(-2/3*sqrt3)*Tr(A2*A1^2)", "7*Tr(A1*A2^9999)", "Tr( A1*A2 )"):
            text = head + tail
            assert parse_trace_expr(text) == trace_parser_reference.parse_trace_expr(text)


class TestIdentityFile:
    def test_rules_with_comments(self):
        text = """
        # trace-freeness and the cube rule
        Tr(A1) = 0
        Tr(A1^3) = Tr(A1)   # traced cube identity
        """
        relations = parse_identity_file(text)
        assert relations == [
            TraceExpr({(1,): 1}),
            TraceExpr({(1, 1, 1): 1, (1,): -1}),
        ]

    def test_bad_line_reports_number(self):
        with pytest.raises(TraceParseError) as info:
            parse_identity_file("Tr(A1) = 0\nTr(A2) == 0\n")
        assert "line 2" in str(info.value)

    def test_bad_scalar_reports_line_number(self):
        with pytest.raises(TraceParseError) as info:
            parse_identity_file("Tr(A1) = 0\n1/0*Tr(A2) = 0\n")
        assert "line 2" in str(info.value) and "zero denominator" in str(info.value)

    def test_unexpected_character_keeps_the_line_number(self):
        with pytest.raises(TraceParseError) as info:
            parse_identity_file("Tr(A1) = 0\nTr(A2) = Tr(A1)$\n")
        assert str(info.value) == "line 2: unexpected character '$' (at position 7)"
        assert info.value.__cause__.position == 7

    def test_missing_equals(self):
        with pytest.raises(TraceParseError):
            parse_identity_file("Tr(A1)\n")


# Pieces of rules-file lines on both sides of the line check's bounds: an
# index of nine digits and one of ten, exponents 99 and 100, numbers of 20
# digits and of 21, zero and leading-zero spellings, 100 and 101 factors,
# spaces inside the parentheses, and scalars with two sqrt3 or a signed
# second term.
def mostly(good, bad):
    """One of the values, a bad one rarely."""
    return st.sampled_from(good * 8 + bad + good * 8)


INDEX = mostly(("1", "2", "7", "12", "999999999"), ("1000000000", "0", "01"))
EXPONENT = mostly(("", "", "^2", "^3", "^99"), ("^100", "^0", "^02")) | st.integers(2, 99).map("^{}".format)
NUMBER = mostly(("1", "2", "3", "0", "007", "9" * 20), ("1" + "0" * 20,))
DENOMINATOR = mostly(("2", "3", "9" * 20), ("0", "07", "1" + "0" * 20))
LONG_WORDS = (["A1^99"] * 100, ["A1^99"] * 101, ["A2"] * 101, ["A2", "A1^99"] * 50)


@st.composite
def scalar_texts(draw):
    """One scalar term, or two joined by '+' or '-': a rational, sqrt3 or a
    rational times sqrt3, each with an optional minus."""

    def term():
        rational = draw(NUMBER)
        if draw(st.booleans()):
            rational += "/" + draw(DENOMINATOR)
        body = draw(st.sampled_from((rational,) * 4 + ("sqrt3", f"{rational}*sqrt3")))
        return draw(st.sampled_from(("", "", "-"))) + body

    text = term()
    if draw(st.booleans()):
        text += draw(st.sampled_from(("+", "-", "+", "-", " + "))) + term()
    return text


@st.composite
def term_texts(draw):
    factors = draw(st.sampled_from((None,) * 12 + LONG_WORDS))
    if factors is None:
        factors = draw(st.lists(st.builds("A{}{}".format, INDEX, EXPONENT), min_size=1, max_size=3))
    inner = draw(st.sampled_from(("",) * 7 + (" ",)))
    trace = f"Tr({inner}{'*'.join(factors)}{inner})"
    coefficient = draw(st.sampled_from(("none", "plain", "parenthesized", "negative")))
    if coefficient == "none":
        return trace
    if coefficient == "negative":  # as in -1/2*Tr(A1), which may lead a side
        return f"-{draw(NUMBER)}{draw(st.sampled_from(('', '/2', '/' + '9' * 20)))}*{trace}"
    scalar = draw(scalar_texts())
    if coefficient == "parenthesized":
        scalar = f"({scalar})"
    return scalar + draw(st.sampled_from(("*", "*", " * "))) + trace


@st.composite
def side_texts(draw):
    first, *rest = draw(st.lists(term_texts(), min_size=1, max_size=3))
    return first + "".join(draw(st.sampled_from((" + ", " - ", "+", "-", " -"))) + term for term in rest)


def spelled(word, powers):
    """A word's text, each run of a letter as one power or letter by letter."""
    runs = [(letter, len(list(run))) for letter, run in itertools.groupby(word)]
    return "*".join(f"A{a}^{k}" if powers and k > 1 else "*".join([f"A{a}"] * k) for a, k in runs)


@st.composite
def rotated_lines(draw):
    """A line whose terms spell rotations of one word, in powers or letter by
    letter, with coefficients 1..3 on both sides: the same word read several
    times, which cancels when the coefficients do."""
    word = tuple(draw(st.lists(st.sampled_from((1, 2, 12)), min_size=1, max_size=5)))

    def term():
        turn = draw(st.integers(0, len(word) - 1))
        coefficient = draw(st.sampled_from(("", "2*", "3 * ", "-1*")))
        return f"{coefficient}Tr({spelled(word[turn:] + word[:turn], draw(st.booleans()))})"

    def side():
        return term() + "".join(draw(st.sampled_from((" + ", " - "))) + term() for _ in range(draw(st.integers(0, 2))))

    return f"{side()} = {side()}"


RULE_LINES = st.one_of(
    st.builds("{}{}{}".format, side_texts(), st.sampled_from((" = ", "=")), side_texts() | st.just("0")),
    rotated_lines(),
)

# Lines that break a line check made possessive everywhere: a coefficient
# whose rational must give way to a sqrt3 form, rationals at and past 20
# digits, a right-hand side that starts with 0 and goes on, factor counts
# about the bound of 100, and tabs between tokens.
FACTORS = ["Tr(" + "*".join(["A1^99"] * k) + ")" for k in (99, 100, 101)]
POSSESSIVE_TRAPS = {
    "sqrt3-after-rational": "(1-2/3*sqrt3)*Tr(A1) = 0",
    "sqrt3-forms-on-the-right": "Tr(A1) = (2/3+2/3*sqrt3)*Tr(A2) - (1-sqrt3)*Tr(A3)",
    "rational-times-sqrt3": "2*sqrt3*Tr(A1) = Tr(A2)",
    "signed-sqrt3-forms": "-2/3*sqrt3*Tr(A1) + 2*sqrt3-1*Tr(A2) = 0",
    "20-digits": "9" * 20 + "*Tr(A1) = " + "9" * 20 + "/" + "9" * 20 + "*Tr(A2)",
    "21-digits": "9" * 21 + "*Tr(A1) = 0",
    "21-digit-denominator": "(1/" + "9" * 21 + ")*Tr(A1) = 0",
    "rhs-0-times": "Tr(A1) = 0*Tr(A2)",
    "rhs-0-times-spaced": "Tr(A1) = 0 * Tr(A2) + Tr(A3)",
    "rhs-0-space": "Tr(A1) = 0 ",
    "rhs-00": "Tr(A1) = 00",
    **{f"{k}-factors": f"{word} = 0" for k, word in zip((99, 100, 101), FACTORS)},
    "rhs-100-factors": f"Tr(A1) = {FACTORS[1]}",
    "rhs-101-factors": f"Tr(A1) = {FACTORS[2]}",
    "tabs": "Tr(A1)\t=\t0",
    "tabs-around-coefficients": "2\t*\tTr(A1)\t+\t(1/2+sqrt3)\t*Tr(A2) =\t Tr(A3)",
    "tab-at-the-end": "Tr(A1) -\t2*Tr(A2)\t= 0\t",
    "tab-and-no-rhs": "Tr(A1) =\t",
}

# Lines the check rejects that parse, and lines that fail to parse.
REJECTED_LINES = ["Tr( A1 ) = 0", "- 2*Tr(A1) = 0", "Tr(A2*A1^100) = Tr(A1)", "(1/02)*Tr(A1) = 0", "Tr(A01) = Tr(A1)"]
FAILING_LINES = ["Tr(A1 = 0", "(1/0)*Tr(A7*A8) = 0", "Tr(A1) = Tr(A2) = 0", "Tr(A1) = x"]


def reader_outcome(reader, text):
    """The lines and relations of `reader`'s reading of the text, or its error."""
    try:
        return tracealg._rule_lines(text), reader(text)
    except TraceParseError as exc:
        return str(exc)


def one_pass_relations(text):
    return tracealg.RulesFile(text).relations


def rejected_but_parses(line):
    if line_check_reference.accepts(line):
        return False
    try:
        tracealg._parse_rule(1, line)
    except TraceParseError:
        return False
    return True


@st.composite
def mixed_rules_files(draw):
    """Rules files of runs of accepted lines and runs of rejected lines that
    parse, now and then a line that fails, and comments and blank lines, so
    that line numbers are not positions in the list."""
    lines = {
        "accepted": RULE_LINES.filter(line_check_reference.accepts),
        "rejected": st.sampled_from(REJECTED_LINES) | RULE_LINES.filter(rejected_but_parses),
        "other": st.sampled_from(("", "# a comment", "  ", "Tr(A1) = 0  # a trailing comment")),
    }
    runs = []
    for kind in draw(st.lists(st.sampled_from(("accepted", "accepted", "rejected", "rejected", "other")), min_size=1, max_size=5)):
        runs.append(draw(st.lists(lines[kind], min_size=1, max_size=3)))
    if draw(st.sampled_from((False, False, False, True))):  # a line that fails, anywhere
        runs.insert(draw(st.integers(0, len(runs))), [draw(st.sampled_from(FAILING_LINES))])
    return "\n".join(itertools.chain.from_iterable(runs)) + draw(st.sampled_from(("", "\n")))


class TestLineCheck:
    """The rules reader's line check, terms of `_TERM` on each side of one
    '=': a line it accepts is parsed only when a goal's component needs it,
    and must then parse, to the relation a whole-file parse gives; any other
    line is parsed at read time, in file order."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(RULE_LINES, min_size=1, max_size=3))
    def test_an_unparsed_line_parses_to_the_whole_file_relation(self, lines):
        text = "\n".join(lines)
        outcome = parse_outcome(parse_identity_file, text)
        assert outcome == parse_outcome(trace_parser_reference.parse_identity_file, text)
        if not isinstance(outcome, list):  # an error, which reading raises too
            with pytest.raises(TraceParseError) as info:
                tracealg.RulesFile(text)
            assert str(info.value) == outcome[0]
            return
        rules = tracealg.RulesFile(text)
        for k, ((number, line), relation, expected) in enumerate(zip(rules.lines, rules.relations, outcome)):
            if relation is not None:
                assert relation == expected
                continue
            assert tracealg._parse_rule(number, line) == expected
            # the reader's one scan reads every term of the line, indexes the
            # line by each word left after cancellation, and builds the relation
            rules._scan(k)
            assert len(rules._terms[k]) == line.count("Tr")
            assert all(k in rules._holders[word] for word in expected.terms)
            assert rules._parsed([k]) == [expected]

    @pytest.mark.parametrize(
        "line, accepted",
        [
            ("Tr(" + "*".join(["A1^99"] * 100) + ") = 0", True),
            ("Tr(" + "*".join(["A1^99"] * 101) + ") = 0", False),
            ("Tr(A2*A1^99) = Tr(A2*A1^100)", False),
            ("Tr(A999999999) = Tr(A1)", True),
            ("Tr(A1000000000) = Tr(A1)", False),
            ("9" * 20 + "*Tr(A1) = -" + "9" * 20 + "/" + "9" * 20 + "*Tr(A2)", True),
            ("1" + "0" * 20 + "*Tr(A1) = 0", False),
            ("(1/" + "1" + "0" * 20 + ")*Tr(A1) = 0", False),
            ("(1/2+sqrt3)*Tr(A7*A8) = 2/3*sqrt3-1*Tr(A1) - sqrt3*Tr(A2)", True),
            ("Tr( A1 ) = 0", False),
            ("- 2*Tr(A1) = 0", False),
            ("(1/02)*Tr(A1) = 0", False),
        ],
        ids=[
            "100-factors", "101-factors", "exponent-100", "index-999999999", "index-10-digits", "20-digits",
            "21-digits", "21-digit-denominator", "sqrt3", "spaces-in-parentheses", "spaced-minus", "leading-zero",
        ],
    )
    def test_bounds(self, line, accepted):
        rules = tracealg.RulesFile(line)
        assert (rules.relations[0] is None) == accepted
        assert rules._parsed([0]) == parse_identity_file(line)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(RULE_LINES | RULE_LINES.map(lambda line: line.replace(" ", "\t")))
    def test_accepts_the_lines_the_per_line_check_accepts(self, line):
        accepted = re.compile(tracealg._LINES).match(line).end() == len(line)
        assert accepted == line_check_reference.accepts(line)

    @pytest.mark.parametrize("line", POSSESSIVE_TRAPS.values(), ids=POSSESSIVE_TRAPS.keys())
    def test_a_possessive_trap_is_checked_as_the_per_line_check_checks_it(self, line):
        accepted = re.compile(tracealg._LINES).match(line).end() == len(line)
        assert accepted == line_check_reference.accepts(line)
        assert reader_outcome(one_pass_relations, line) == reader_outcome(line_check_reference.relations, line)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mixed_rules_files())
    @example("Tr( A1 ) = 0\nTr(A1) = 0\nTr(A2) = Tr(A1)")
    @example("Tr(A1) = 0\nTr( A1 ) = 0\nTr(A2) = Tr(A1)")
    @example("Tr(A1) = 0\nTr(A2) = Tr(A1)\nTr( A1 ) = 0")
    @example("Tr(A1) = 0\n- 2*Tr(A1) = 0\nTr( A2 ) = 0\n(1/02)*Tr(A1) = 0\nTr(A2) = 0\n")
    @example("Tr( A1 ) = 0\n\n- 2*Tr(A1) = 0\n# comment\nTr(A2*A1^100) = 0")
    @example("Tr(A1) = 0")
    @example("Tr( A1 ) = 0")
    @example("Tr(A1 = 0")
    @example("Tr(A1) = 0\nTr( A1 ) = 0\nTr(A1 = 0\n(1/0)*Tr(A1) = 0")
    @example("")
    @example("# only a comment\n\n")
    def test_relations_and_errors_equal_the_per_line_readers(self, text):
        assert reader_outcome(one_pass_relations, text) == reader_outcome(line_check_reference.relations, text)

    @pytest.mark.parametrize(
        "line, message",
        [("(1/0)*Tr(A7*A8) = 0", "zero denominator"), ("(sqrt3+sqrt3)*Tr(A1) = 0", "'sqrt3' may appear at most once")],
        ids=["zero-denominator", "two-sqrt3"],
    )
    def test_a_line_that_fails_is_parsed_at_read_time_in_file_order(self, line, message):
        text = f"Tr(A1) = 0\n{line}\nTr(A1 = 0\n"
        with pytest.raises(TraceParseError) as info:
            tracealg.RulesFile(text)
        assert str(info.value) == parse_outcome(parse_identity_file, text)[0]
        assert str(info.value).startswith("line 2: ") and message in str(info.value)


def built(rules):
    """The lines of a rules reader whose relations are built, ascending."""
    return [k for k, relation in enumerate(rules.relations) if relation is not None]


def dense_rules(k, head, first):
    """The line `head`, then k dense lines over the k words `first` and
    Tr(A4)..Tr(A(k+2)), with coefficients 1..99."""
    words = [first] + [f"Tr(A{j})" for j in range(4, k + 3)]
    lines = [" + ".join(f"{pow(i * k + j + 2, 5, 1009) % 99 + 1}*{word}" for j, word in enumerate(words)) for i in range(k)]
    return f"{head}\n" + "".join(f"{line} = 0\n" for line in lines)


def shared_multiset_rules(k):
    """`Tr(A1*A2*A3) = 0`, then k dense lines over Tr(A1*A3*A2), which shares
    that word's multiset but is another word, and Tr(A4)..Tr(A(k+2))."""
    return dense_rules(k, "Tr(A1*A2*A3) = 0", "Tr(A1*A3*A2)")


def bridge_rules(k):
    """`Tr(A1) + Tr(A2) = Tr(A2)`, whose word Tr(A2) cancels, then k dense
    lines over Tr(A2) and Tr(A4)..Tr(A(k+2))."""
    return dense_rules(k, "Tr(A1) + Tr(A2) = Tr(A2)", "Tr(A2)")


# Words over 1..3 of which several share a multiset: (1, 2, 3) and (1, 3, 2),
# (1, 1, 2, 2) and (1, 2, 1, 2), (1, 1, 2) alone; each written in any rotation.
SHARED_MULTISET_WORDS = ((1, 2, 3), (1, 3, 2), (1, 1, 2, 2), (1, 2, 1, 2), (1, 1, 2), (1,), (2,), (3,))


@st.composite
def shared_multiset_files(draw):
    """A rules file and a goal over `SHARED_MULTISET_WORDS`, rotated.  Each
    line is over letters 1..3 or, shifted, 4..6, with words on both sides,
    which may cancel; the goal is over 1..3.  Planted among them are one to
    three bridges `a*Tr(u) + b*Tr(w) = c*Tr(w')`, u over 1..3 and w' a
    rotation of w over 4..6: mostly c = b, so w cancels and the line joins
    u's block only."""

    def rotated(word, turn):
        return word[turn % len(word) :] + word[: turn % len(word)]

    def words(shift):
        return st.builds(rotated, st.sampled_from(SHARED_MULTISET_WORDS), st.integers(0, 3)).map(
            lambda word: tuple(x + shift for x in word)
        )

    def tr(word):
        return "Tr(" + "*".join(f"A{x}" for x in word) + ")"

    def lines(shift):
        term = st.builds("{}*{}".format, st.integers(1, 3), words(shift).map(tr))
        side = st.lists(term, min_size=1, max_size=3).map(" + ".join)
        return st.builds("{} = {}".format, side, side | st.just("0"))

    @st.composite
    def bridges(draw):
        a, b, u, w = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(words(0)), draw(words(3))
        c = draw(st.sampled_from((b, b, b, b + 1)))
        return f"{a}*{tr(u)} + {b}*{tr(w)} = {c}*{tr(rotated(w, draw(st.integers(1, 3))))}"

    planted = draw(st.lists(lines(0) | lines(3), min_size=1, max_size=8)) + draw(st.lists(bridges(), min_size=1, max_size=3))
    goal = sum((TraceExpr.single(w, c) for w, c in draw(st.lists(st.tuples(words(0), COEFF), max_size=3))), TraceExpr())
    return "\n".join(draw(st.permutations(planted))) + "\n", goal


class TestRulesFileComponent:
    """`RulesFile.component` hands the elimination exactly the goal's block."""

    def test_a_shared_multiset_without_a_shared_word_is_cut(self):
        # the k dense lines share the goal's multiset (1, 2, 3), and no word:
        # they are scanned, since they name A1, and none is built
        text = shared_multiset_rules(20)
        goal = parse_trace_expr("Tr(A1*A2*A3)")
        rules = tracealg.RulesFile(text)
        assert rules.component(goal) == [goal]
        assert built(rules) == [0]
        assert len(parse_identity_file(text)) == 21

    def test_a_word_that_cancels_on_its_line_joins_nothing(self):
        text = "Tr(A1) + Tr(A2) = Tr(A2)\nTr(A3) + Tr(A2) = 0\n"
        rules = tracealg.RulesFile(text)
        assert rules.component(parse_trace_expr("Tr(A1)")) == [parse_trace_expr("Tr(A1)")]
        assert rules.component(parse_trace_expr("Tr(A2)")) == [parse_trace_expr("Tr(A3) + Tr(A2)")]

    def test_the_walk_parses_only_the_lines_of_the_block(self, monkeypatch):
        # Tr(A2) cancels on line 1, so the k dense lines over it are not read
        # into the goal's block, and not built; line 1 is built from its scan
        text = bridge_rules(20)
        calls, parse_rule = [], tracealg._parse_rule
        monkeypatch.setattr(tracealg, "_parse_rule", lambda number, line: calls.append(number) or parse_rule(number, line))
        goal = parse_trace_expr("Tr(A1)")
        rules = tracealg.RulesFile(text)
        assert rules.component(goal) == [goal]
        monkeypatch.undo()
        assert calls == []
        assert built(rules) == [0]
        assert len(parse_identity_file(text)) == 21

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shared_multiset_files())
    def test_component_is_the_goals_block_in_file_order(self, case):
        text, goal = case
        rules = tracealg.RulesFile(text)
        assert rules.component(goal) == reference_block(goal, parse_identity_file(text))

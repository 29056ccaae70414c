"""Verdicts do not depend on the orthonormal frame or the normal basis.

A random orthogonal frame change (Cayley or signed permutation) and a random
rotation of the normals must leave every verdict of `verify`, the square
norm, the Einstein result and the symbolic sweep's char_poly as they are on
the built-in data; a direct sum of built-ins must stay minimal, Willmore and
spectrally constant.

`tracecheck`, through `cli.main` with `--rules g4` and with the same
relations as a rules file, keeps its exit code when a goal word is written
in another rotation, when the goal is scaled by a nonzero rational, when a
rational multiple of a g=4 relation is added to it, and when its letters are
relabelled by a permutation of 1..p, which maps the residual's words too.
"""

import io
import re
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frames import cayley_frame, change_frame, direct_sum, rotate_normals, signed_permutation
from g4_rules import g4_rules_text
from willmore.catalog import BUILTIN_NAMES, builtin
from willmore.cli import main, verify_certificate
from willmore.curvature import curvature_report
from willmore.sweep import symbolic_sweep
from willmore.tracealg import TraceExpr, g4_relations, parse_trace_expr


def invariants(data):
    cert, _ = verify_certificate(data)
    fields = dict(line.split("=", 1) for line in cert.render("keyvalue").splitlines())
    verdicts = {key: value for key, value in fields.items() if value in ("pass", "FAIL", "yes", "no")}
    return verdicts, fields["square_norm.value"], fields.get("einstein.constant"), symbolic_sweep(data).char_poly


@cache
def builtin_invariants(name):
    return invariants(builtin(name))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(max_examples=3, deadline=None)
@given(cayley=st.booleans(), rng=st.randoms(use_true_random=False))
def test_frame_change_and_normal_rotation_keep_every_verdict(name, cayley, rng):
    data = builtin(name)
    orthogonal = cayley_frame if cayley else signed_permutation
    moved = rotate_normals(change_frame(data, orthogonal(data.n, rng)), orthogonal(data.p, rng))
    verdicts, square_norm, einstein, char_poly = invariants(moved)
    assert verdicts["result.verified"] == "yes"
    assert (verdicts, square_norm, einstein, char_poly) == builtin_invariants(name)


@settings(max_examples=3, deadline=None)
@given(
    st.sampled_from([("g6_m1_M1", "g6_m1_M2"), ("g6_m2_M1", "g6_m2_M2")]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_direct_sum_stays_minimal_willmore_and_spectrally_constant(names, swap, rng):
    first, second = (builtin(name) for name in (names[::-1] if swap else names))
    data = direct_sum(change_frame(first, signed_permutation(first.n, rng)), second)
    report = curvature_report(data)
    assert report.minimal
    assert report.willmore.willmore and report.willmore.willmore_ricci_form
    assert symbolic_sweep(data).constant


@pytest.fixture(scope="module", params=["g4", "file"])
def rules(request, tmp_path_factory):
    """The --rules argument for p: the built-in g=4 relations, or the same
    relations written as a rules file."""
    if request.param == "g4":
        return lambda p: "g4"
    root = tmp_path_factory.mktemp("g4_rules")
    for p in range(1, 5):
        (root / f"g4_p{p}.rules").write_text(g4_rules_text(p), encoding="utf-8")
    return lambda p: str(root / f"g4_p{p}.rules")


def tracecheck(rules, p, terms):
    """(exit code, residual) of tracecheck on the goal sum c * Tr(word)."""
    goal = " + ".join(f"({coeff})*Tr({'*'.join(f'A{i}' for i in word)})" for coeff, word in terms)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["tracecheck", "--rules", rules(p), f"--goal={goal}", "--indices", str(p)])
    residual = re.search(r"^residual: (.*)$", out.getvalue(), re.MULTILINE)[1]
    return rc, TraceExpr() if residual == "0" else parse_trace_expr(residual)


def rotated(word, k):
    k %= len(word)
    return word[k:] + word[:k]


nonzero_rationals = st.fractions(-9, 9, max_denominator=5).filter(bool)
tracecheck_settings = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def goals(draw):
    """(p, terms) of a goal over 1..p: nonzero rational coefficients on words
    that are about half in a g=4 block (A_a, A_a^3 and the rotations of
    A_a*A_b^2), so that some goals close and some do not."""
    p = draw(st.integers(1, 4))
    letter = st.integers(1, p)
    block_word = st.builds(lambda a, b, k: rotated((a, b, b), k), letter, letter, st.integers(0, 2))
    word = st.one_of(block_word, st.lists(letter, min_size=1, max_size=4).map(tuple))
    return p, draw(st.lists(st.tuples(nonzero_rationals, word), min_size=1, max_size=4))


@tracecheck_settings
@given(goals(), st.data())
def test_tracecheck_keeps_its_outcome_when_a_goal_word_is_rotated(rules, goal, data):
    p, terms = goal
    at = data.draw(st.integers(0, len(terms) - 1))
    coeff, word = terms[at]
    moved = terms[:at] + [(coeff, rotated(word, data.draw(st.integers(1, 3))))] + terms[at + 1:]
    outcome = tracecheck(rules, p, terms)
    assert outcome[0] in (0, 1)
    assert tracecheck(rules, p, moved) == outcome


@tracecheck_settings
@given(goals(), nonzero_rationals)
def test_tracecheck_keeps_its_exit_code_when_the_goal_is_scaled(rules, goal, scale):
    p, terms = goal
    rc, residual = tracecheck(rules, p, terms)
    assert rc in (0, 1)
    assert tracecheck(rules, p, [(scale * coeff, word) for coeff, word in terms]) == (rc, residual * scale)


@tracecheck_settings
@given(goals(), st.data(), nonzero_rationals)
def test_tracecheck_keeps_its_outcome_when_a_relation_is_added(rules, goal, data, multiple):
    p, terms = goal
    relation = data.draw(st.sampled_from(g4_relations(p)))
    added = [(multiple * coeff.a, word) for word, coeff in relation.terms.items()]
    outcome = tracecheck(rules, p, terms)
    assert outcome[0] in (0, 1)
    assert tracecheck(rules, p, terms + added) == outcome


@tracecheck_settings
@given(goals(), st.data())
def test_tracecheck_relabelling_maps_the_residual(rules, goal, data):
    p, terms = goal
    sigma = dict(zip(range(1, p + 1), data.draw(st.permutations(range(1, p + 1)))))
    rc, residual = tracecheck(rules, p, terms)
    assert rc in (0, 1)
    relabelled = tracecheck(rules, p, [(coeff, tuple(sigma[i] for i in word)) for coeff, word in terms])
    assert relabelled == (rc, TraceExpr({tuple(sigma[i] for i in word): c for word, c in residual.terms.items()}))

"""Verdicts do not depend on the orthonormal frame or the normal basis.

A random orthogonal frame change (Cayley, signed permutation, or a rotation
with sqrt3 entries) and a random rotation of the normals must leave every
verdict of `verify`, the square norm and the Einstein result as they are on
the built-in data, and the symbolic sweep's constant and verdict lines as in
its golden file; a direct sum of built-ins must stay minimal, Willmore and
spectrally constant, and the max_deviation of its numeric sweep must be the
larger of its summands', bit for bit.  `verify` and both sweeps run through
`cli.main` on the moved data's serialized text, and the independent checker
(`certificate_check`) passes each certificate of `verify`.

`tracecheck`, through `cli.main` with `--rules g4` and with the same
relations as a rules file, keeps its exit code when a goal word is written
in another rotation, when the goal is scaled by a nonzero rational, when a
rational multiple of a g=4 relation is added to it, and when its letters are
relabelled by a permutation of 1..p, which maps the residual's words too.
"""

import io
import random
import re
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import certificate_check
from frames import cayley_frame, change_frame, direct_sum, rotate_normals, signed_permutation, sqrt3_rotation
from g4_rules import g4_rules_text
from willmore.catalog import BUILTIN_NAMES, builtin, serialize_dataset
from willmore.cli import main, verify_certificate
from willmore.sweep import symbolic_sweep
from willmore.tracealg import TraceExpr, g4_relations, parse_trace_expr


GOLDEN = Path(__file__).parent / "golden"


def invariants(fields):
    verdicts = {key: value for key, value in fields.items() if value in ("pass", "FAIL", "yes", "no")}
    return verdicts, fields["square_norm.value"], fields.get("einstein.constant")


@cache
def builtin_invariants(name):
    cert, _ = verify_certificate(builtin(name))
    return invariants(dict(line.split("=", 1) for line in cert.render("keyvalue").splitlines()))


def sweep_lines(text):
    """The constant: and verdict: lines of a symbolic sweep's certificate."""
    return [line for line in text.splitlines() if line.startswith(("constant: ", "verdict: "))]


def symbolic_sweep_lines(workdir, data):
    """The `sweep_lines` of `sweep --mode symbolic` through cli.main on the
    data's serialized text, which must exit 0."""
    path = workdir / "swept.dat"
    path.write_text(serialize_dataset(data), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["sweep", str(path), "--mode", "symbolic"])
    assert rc == 0
    return sweep_lines(out.getvalue())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("moved")


def checked_verify(workdir, data):
    """(exit code, fields) of `verify --format keyvalue` through cli.main on
    the data's serialized text, once the checker has passed the certificate."""
    text = serialize_dataset(data)
    path = workdir / "moved.dat"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["verify", str(path), "--format", "keyvalue"])
    certificate_check.check_certificate(text, out.getvalue())
    return rc, dict(line.split("=", 1) for line in out.getvalue().splitlines())


FRAMES = {"cayley": cayley_frame, "signed_permutation": signed_permutation, "sqrt3_rotation": sqrt3_rotation}
# Derandomized, and never shrunk: a smaller seed is no simpler frame, and
# each try checks a certificate of dense data
moved_settings = settings(max_examples=1, deadline=None, derandomize=True, phases=[Phase.generate])


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
@moved_settings
@given(seed=st.integers(0, 2**32 - 1))
def test_frame_change_and_normal_rotation_keep_every_verdict(workdir, name, frame, seed):
    # a seeded Random, not st.randoms(): the simplest st.randoms() draws give
    # the identity frame, which a derandomized run would try first
    rng = random.Random(seed)
    data = builtin(name)
    orthogonal = FRAMES[frame]
    moved = rotate_normals(change_frame(data, orthogonal(data.n, rng)), orthogonal(data.p, rng))
    rc, fields = checked_verify(workdir, moved)
    assert rc == 0 and fields["result.verified"] == "yes"
    assert invariants(fields) == builtin_invariants(name)
    # dense Cayley and sqrt3-rotation entries through the packed kernels: the built-in's polynomial and verdict
    golden = (GOLDEN / f"sweep_{name}.txt").read_text(encoding="utf-8")
    assert symbolic_sweep_lines(workdir, moved) == sweep_lines(golden)


@settings(moved_settings, max_examples=3)
@given(
    st.sampled_from([("g6_m1_M1", "g6_m1_M2"), ("g6_m2_M1", "g6_m2_M2")]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_direct_sum_stays_minimal_willmore_and_spectrally_constant(workdir, names, swap, seed):
    rng = random.Random(seed)
    first, second = (builtin(name) for name in (names[::-1] if swap else names))
    data = direct_sum(change_frame(first, signed_permutation(first.n, rng)), second)
    rc, fields = checked_verify(workdir, data)
    assert rc == 0
    assert fields["minimality.verdict"] == fields["willmore.verdict"] == fields["willmore.ricci_form_verdict"] == "pass"
    assert symbolic_sweep(data).constant


def numeric_deviation(workdir, data, samples, seed):
    """The max_deviation line of a passing `sweep --mode numeric` through
    cli.main on the data's serialized text."""
    path = workdir / "summand.dat"
    path.write_text(serialize_dataset(data), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["sweep", str(path), "--mode", "numeric", "--samples", str(samples), "--seed", str(seed)])
    assert rc == 0
    (line,) = (line for line in out.getvalue().splitlines() if line.startswith("max_deviation: "))
    return float(line.removeprefix("max_deviation: "))


@pytest.mark.parametrize(
    "names", [(a, b) for a, b in combinations_with_replacement(BUILTIN_NAMES, 2) if builtin(a).p == builtin(b).p]
)
@moved_settings
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1))
def test_numeric_deviation_of_a_direct_sum_is_the_larger_of_its_summands(workdir, names, frames_seed, seed):
    # each summand in a signed-permutation frame with its normals permuted: the sum's blocks are the
    # summands', each evaluated at the same points, so the sum drifts by exactly the larger drift
    rng = random.Random(frames_seed)
    first, second = (
        rotate_normals(change_frame(data, signed_permutation(data.n, rng)), signed_permutation(data.p, rng))
        for data in map(builtin, names)
    )
    summands = [numeric_deviation(workdir, data, 300, seed) for data in (first, second)]
    assert repr(numeric_deviation(workdir, direct_sum(first, second), 300, seed)) == repr(max(summands))


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

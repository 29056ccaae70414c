"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import random
import time
from fractions import Fraction

from willmore.catalog import BUILTIN_NAMES, builtin, parse_dataset, serialize_dataset
from willmore.cli import main
from willmore.curvature import curvature_report, einstein_check, riemann
from willmore.exactnum import QuadExt, parse_scalar
from willmore.linalg import Matrix, UniPoly
from willmore.sweep import numeric_sweep, symbolic_sweep
from willmore.tracealg import (
    TraceExpr,
    canonicalize_cyclic,
    g4_relations,
    verify_g4,
)

S = parse_scalar


def report(number, label, passed):
    print(f"acceptance {number} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({label}) failed"


def squares_sum(data):
    acc = data.operators[0] @ data.operators[0]
    for op in data.operators[1:]:
        acc = acc + op @ op
    return acc


def diag(values):
    return Matrix.diagonal([S(v) for v in values.split()])


PRINTED_SUMS = {
    "g6_m1_M1": diag("6 2/3 0 2/3 6"),
    "g6_m1_M2": Matrix(
        [
            [S("4"), S("0"), S("0"), S("-2/3*sqrt3"), S("0")],
            [S("0"), S("8/3"), S("0"), S("0"), S("-2/3*sqrt3")],
            [S("0"), S("0"), S("0"), S("0"), S("0")],
            [S("-2/3*sqrt3"), S("0"), S("0"), S("8/3"), S("0")],
            [S("0"), S("-2/3*sqrt3"), S("0"), S("0"), S("4")],
        ]
    ),
    "g6_m2_M1": diag("9 9 1 1 0 0 1 1 9 9"),
    "g6_m2_M2": diag("5 5 5 5 0 0 5 5 5 5"),
}


def test_criterion_1_matrix_reproduction():
    start = time.perf_counter()
    exact = all(squares_sum(builtin(name)) == PRINTED_SUMS[name] for name in BUILTIN_NAMES)
    elapsed = time.perf_counter() - start
    report(1, "matrix reproduction", exact and elapsed < 1.0)


def test_criterion_2_willmore_certification():
    ok = True
    for name in BUILTIN_NAMES:
        result = curvature_report(builtin(name)).willmore
        ok = ok and result.willmore and result.willmore_ricci_form and result.consistent
        ok = ok and all(not t for t in result.cubic_traces)
        ok = ok and all(not t for t in result.ricci_traces)
    report(2, "willmore certification", ok)


def test_criterion_3_minimality():
    ok = all(
        not op.trace()
        for name in BUILTIN_NAMES
        for op in builtin(name).operators
    ) and all(curvature_report(builtin(name)).minimal for name in BUILTIN_NAMES)
    report(3, "minimality", ok)


def test_criterion_4_derived_scalars():
    expected_ricci = {
        "g6_m1_M1": diag("-2 10/3 4 10/3 -2"),
        "g6_m2_M2": diag("4 4 4 4 9 9 4 4 4 4"),
    }
    ok = True
    for name in BUILTIN_NAMES:
        data = builtin(name)
        m1_family = data.n == 5
        result = curvature_report(data)
        ok = ok and result.square_norm == (QuadExt(Fraction(40, 3)) if m1_family else QuadExt(40))
        ric = result.ricci
        ok = ok and ric.trace() == (QuadExt(Fraction(20, 3)) if m1_family else QuadExt(50))
        ok = ok and einstein_check(ric) is result.einstein is None
        # every Ricci tensor equals (n-1)*I minus the printed sum
        derived = Matrix.identity(data.n, QuadExt(data.n - 1)) + PRINTED_SUMS[name] * -1
        ok = ok and ric == derived
        if name in expected_ricci:
            ok = ok and ric == expected_ricci[name]
    report(4, "derived scalar values", ok)


def test_criterion_5_spectral_invariance():
    factors = {
        1: UniPoly([QuadExt(0), QuadExt(1)]),
        3: UniPoly([QuadExt(-3), QuadExt(0), QuadExt(1)]),
        13: UniPoly([QuadExt(Fraction(-1, 3)), QuadExt(0), QuadExt(1)]),
    }
    ok = True
    for name in BUILTIN_NAMES:
        data = builtin(name)
        start = time.perf_counter()
        verdict = symbolic_sweep(data)
        deviation = numeric_sweep(data, 1000, 0)
        elapsed = time.perf_counter() - start
        ok = ok and verdict.constant and deviation < 1e-9
        if data.n == 10:
            ok = ok and elapsed < 10.0
        poly = verdict.char_poly
        ok = ok and poly.degree() == data.n
        ok = ok and poly == math.prod(list(factors.values()) * data.m_tag, start=UniPoly([QuadExt(1)]))
    report(5, "spectral invariance", ok)


def test_criterion_6_trace_proof_replay():
    ok = True
    for p in range(1, 41):
        start = time.perf_counter()
        result = verify_g4(p)
        elapsed = time.perf_counter() - start
        ok = ok and result.verdict and elapsed < 1.0
        ok = ok and all(not goal.residual for goal in result.goals)
    # the untraced words of the conjugation identity at (a, b) = (1, 2),
    # A1 - A2^2 A1 - A2 A1 A2 - A1 A2^2, trace to the exact coefficient 3
    traced = TraceExpr({(1,): 1, (2, 2, 1): -1, (2, 1, 2): -1, (1, 2, 2): -1})
    ok = ok and traced == TraceExpr({(1,): 1, (1, 2, 2): -3})
    ok = ok and traced in g4_relations(2)
    report(6, "trace proof replay", ok)


def _riemann_suite(data):
    n = data.n
    table = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    table[i, j, k, l] = riemann(data, i, j, k, l)
    for (i, j, k, l), value in table.items():
        if value != -table[j, i, k, l] or value != -table[i, j, l, k]:
            return False
        if value != table[k, l, i, j]:
            return False
        if value + table[i, k, l, j] + table[i, l, j, k]:
            return False
    ric = curvature_report(data).ricci
    for i in range(n):
        for j in range(n):
            total = table[i, 0, j, 0]
            for k in range(1, n):
                total = total + table[i, k, j, k]
            if total != ric[i, j]:
                return False
    return True


def _rand_symmetric(rng, n, span=2):
    entries = [[QuadExt(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = QuadExt(rng.randint(-span, span), rng.randint(-span, span))
            entries[i][j] = v
            entries[j][i] = v
    return Matrix(entries)


def test_criterion_7a_gauss_symmetries_all_quadruples():
    ok = all(_riemann_suite(builtin(name)) for name in BUILTIN_NAMES)
    report("7a", "curvature tensor symmetries", ok)


def test_criterion_7b_trace_cyclicity_soundness():
    rng = random.Random(20260810)
    ok = True
    for _ in range(1000):
        matrices = [_rand_symmetric(rng, 4) for _ in range(3)]
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6)))
        rotated = canonicalize_cyclic(word)
        prod = matrices[word[0] - 1]
        for idx in word[1:]:
            prod = prod @ matrices[idx - 1]
        prod_rot = matrices[rotated[0] - 1]
        for idx in rotated[1:]:
            prod_rot = prod_rot @ matrices[idx - 1]
        ok = ok and prod.trace() == prod_rot.trace()
    report("7b", "trace cyclicity soundness", ok)


def test_criterion_7c_cayley_hamilton():
    rng = random.Random(77)
    ok = True
    for n in range(1, 7):
        for _ in range(3):
            a = _rand_symmetric(rng, n)
            poly = a.char_poly()
            acc = Matrix.filled(n, n, QuadExt(0))
            power = Matrix.identity(n, QuadExt(1))
            for c in poly.coeffs:
                acc = acc + power * c
                power = power @ a
            ok = ok and acc == Matrix.filled(n, n, QuadExt(0))
    report("7c", "cayley-hamilton", ok)


def test_criterion_7d_dataset_roundtrip():
    ok = True
    for name in BUILTIN_NAMES:
        text = serialize_dataset(builtin(name))
        ok = ok and parse_dataset(text) == builtin(name)
        ok = ok and serialize_dataset(parse_dataset(text)) == text
    report("7d", "dataset format round-trip", ok)


def test_criterion_7e_certificate_determinism(capsys):
    outputs = []
    for _ in range(2):
        assert main(["verify", "g6_m2_M2", "--format", "keyvalue"]) == 0
        assert main(["paper"]) == 0
        assert main(["sweep", "g6_m1_M1", "--mode", "numeric", "--samples", "100"]) == 0
        outputs.append(capsys.readouterr().out)
    with capsys.disabled():
        report("7e", "certificate determinism", outputs[0] == outputs[1])

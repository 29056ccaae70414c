"""The result records as plain classes: the repr, equality, hash, immutability,
pickling, copying and validation that they had as dataclasses, an import
of the package that loads neither `dataclasses` nor what it pulls in, and
the package's public names."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import willmore
from willmore.catalog import ShapeOperatorSet, builtin, parse_dataset, serialize_dataset
from willmore.cli import Certificate
from willmore.curvature import CurvatureReport, WillmoreReport, curvature_report
from willmore.exactnum import QuadExt
from willmore.linalg import Matrix, UniPoly
from willmore.sweep import SweepVerdict, symbolic_sweep
from willmore.tracealg import GoalReduction, ProofReport, verify_g4


def certificate(*fields):
    cert = Certificate([("tool", "willmore 0.1.0")])
    cert.section("verdict").extend(fields)
    return cert


# class -> (an instance, its repr as a dataclass, a different instance, the
# constructor's parameters); equality and the hash compare every field but
# the tags of a ShapeOperatorSet
RECORDS = {
    ShapeOperatorSet: (
        lambda: builtin("g6_m1_M1"),
        "ShapeOperatorSet(name='g6_m1_M1', n=5, p=2, operators=(Matrix[sqrt3 0 0 0 0; 0 1/3*sqrt3 0 0 0; "
        "0 0 0 0 0; 0 0 0 -1/3*sqrt3 0; 0 0 0 0 -sqrt3], Matrix[0 0 0 0 sqrt3; 0 0 0 1/3*sqrt3 0; "
        "0 0 0 0 0; 0 1/3*sqrt3 0 0 0; sqrt3 0 0 0 0]), labels=('A6', 'A7'), g_tag=6, m_tag=1)",
        lambda: builtin("g6_m1_M2"),
        ("name", "n", "p", "operators", "labels", "g_tag", "m_tag"),
    ),
    WillmoreReport: (
        lambda: curvature_report(builtin("g6_m1_M1")).willmore,
        "WillmoreReport(willmore=True, cubic_traces=(QuadExt(0, 0), QuadExt(0, 0)), "
        "ricci_traces=(QuadExt(0, 0), QuadExt(0, 0)), consistent=True)",
        lambda: curvature_report(builtin("g6_m2_M2")).willmore,
        ("willmore", "cubic_traces", "ricci_traces", "consistent"),
    ),
    CurvatureReport: (
        lambda: curvature_report(builtin("g6_m1_M1")),
        "CurvatureReport(minimal=True, traces=(QuadExt(0, 0), QuadExt(0, 0)), square_norm=QuadExt(40/3, 0), "
        "ricci=Matrix[-2 0 0 0 0; "
        "0 10/3 0 0 0; 0 0 4 0 0; 0 0 0 10/3 0; 0 0 0 0 -2], einstein=None, "
        "willmore=WillmoreReport(willmore=True, cubic_traces=(QuadExt(0, 0), QuadExt(0, 0)), "
        "ricci_traces=(QuadExt(0, 0), QuadExt(0, 0)), consistent=True))",
        lambda: curvature_report(builtin("g6_m2_M2")),
        ("minimal", "traces", "square_norm", "ricci", "einstein", "willmore"),
    ),
    SweepVerdict: (
        lambda: symbolic_sweep(builtin("g6_m1_M1")),
        "SweepVerdict(constant=True, char_poly=UniPoly([QuadExt(0, 0), QuadExt(1, 0), QuadExt(0, 0), "
        "QuadExt(-10/3, 0), QuadExt(0, 0), QuadExt(1, 0)]), witness=None, witness_power=None)",
        lambda: symbolic_sweep(builtin("g6_m2_M2")),
        ("constant", "char_poly", "witness", "witness_power"),
    ),
    GoalReduction: (
        lambda: verify_g4(2).goals[0],
        "GoalReduction(alpha=1, goal=TraceExpr(Tr(A1^3) + Tr(A1*A2^2)), steps=('eliminate Tr(A1^3) "
        "using Tr(A1^3) = 0', 'eliminate Tr(A1*A2^2) using Tr(A1*A2^2) = 0'), residual=TraceExpr(0))",
        lambda: verify_g4(2).goals[1],
        ("alpha", "goal", "steps", "residual"),
    ),
    ProofReport: (
        lambda: verify_g4(2),
        "ProofReport(p=2, relation_count=6, goals=(GoalReduction(alpha=1, goal=TraceExpr(Tr(A1^3) + "
        "Tr(A1*A2^2)), steps=('eliminate Tr(A1^3) using Tr(A1^3) = 0', 'eliminate Tr(A1*A2^2) using "
        "Tr(A1*A2^2) = 0'), residual=TraceExpr(0)), GoalReduction(alpha=2, goal=TraceExpr(Tr(A1^2*A2) + "
        "Tr(A2^3)), steps=('eliminate Tr(A1^2*A2) using Tr(A1^2*A2) = 0', 'eliminate Tr(A2^3) using "
        "Tr(A2^3) = 0'), residual=TraceExpr(0))))",
        lambda: verify_g4(3),
        ("p", "relation_count", "goals"),
    ),
    # mutable, so unhashable, and its fields may be assigned
    Certificate: (
        lambda: certificate(("verified", "yes")),
        "Certificate(header=[('tool', 'willmore 0.1.0')], sections=[('verdict', [('verified', 'yes')])])",
        lambda: certificate(("verified", "no")),
        ("header", "sections"),
    ),
}


def formed(name):
    """A new copy of a built-in, whose integer form is computed and kept."""
    data = builtin(name)
    data = ShapeOperatorSet(*(getattr(data, field) for field in ShapeOperatorSet.__match_args__))
    data.integer_form
    return data


# the ShapeOperatorSet entry again, with the integer form computed before use
CASES = {cls.__name__: (cls, *entry) for cls, entry in RECORDS.items()}
CASES["ShapeOperatorSet-formed"] = (
    ShapeOperatorSet, lambda: formed("g6_m1_M1"), RECORDS[ShapeOperatorSet][1], lambda: formed("g6_m1_M2"),
    RECORDS[ShapeOperatorSet][3],
)


@pytest.mark.parametrize("case", CASES)
def test_record_behaves_as_its_dataclass_did(case):
    cls, make, text, make_other, fields = CASES[case]
    record = make()
    assert type(record) is cls and repr(record) == text
    assert cls(**{name: getattr(record, name) for name in fields}) == record == make() != make_other()
    assert record != object()
    compared = fields[:5] if cls is ShapeOperatorSet else fields
    if cls is Certificate:
        with pytest.raises(TypeError):
            hash(record)
        mutable = make()
        mutable.header = []
        del mutable.sections
        assert not hasattr(mutable, "sections")
    else:
        assert hash(record) == hash(tuple(getattr(record, name) for name in compared))
        assert cls.__match_args__ == fields  # positional class patterns in `match`
        derived = ["integer_form"] if cls is ShapeOperatorSet else []
        for name in [*fields, "extra", *derived]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text
        if case == "ShapeOperatorSet-formed":
            ops, den = form = record.integer_form
            assert record.integer_form is form and den == 3  # kept, not built again
            assert {type(ops), *map(type, ops), *(type(row) for rows in ops for row in rows)} == {tuple}

    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(make())):
        assert type(clone) is cls and clone == make() and repr(clone) == text
        if cls is not Certificate:
            assert hash(clone) == hash(make())
            with pytest.raises(AttributeError):
                setattr(clone, fields[0], None)
        if case == "ShapeOperatorSet-formed":
            assert clone.integer_form == record.integer_form


def test_shape_operator_set_tags_are_not_compared():
    data = builtin("g6_m2_M2")
    untagged = ShapeOperatorSet(data.name, data.n, data.p, data.operators, data.labels)
    assert (untagged.g_tag, untagged.m_tag, data.g_tag, data.m_tag) == (None, None, 6, 2)
    assert untagged == data and hash(untagged) == hash(data)
    assert parse_dataset(serialize_dataset(data)) == data
    renamed = ShapeOperatorSet("other", data.n, data.p, data.operators, data.labels, 6, 2)
    assert renamed != data


ONE = Matrix([[QuadExt(1)]])
ASYMMETRIC = Matrix([[QuadExt(0), QuadExt(1)], [QuadExt(0), QuadExt(0)]])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ShapeOperatorSet("bad", 1, 2, (ONE,), ("B1", "B2")), "expected 2 operators, got 1"),
        (lambda: ShapeOperatorSet("bad", 1, 1, (ONE,), ("B1", "B2")), "expected 1 labels, got 2"),
        (lambda: ShapeOperatorSet("bad", 2, 1, (ONE,), ("B1",)), "operator B1 is 1x1, expected 2x2"),
        (lambda: ShapeOperatorSet("bad", 2, 1, (ASYMMETRIC,), ("B1",)), "operator B1 is not symmetric"),
        (lambda: SweepVerdict(True, None, None, None), "verdict fields do not match the constant flag"),
        (lambda: SweepVerdict(False, UniPoly([QuadExt(1)]), None, 0), "verdict fields do not match the constant flag"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_import_loads_no_dataclasses():
    # dataclasses imports inspect, which imports ast, dis and tokenize: about a
    # third of a cold `import willmore`, paid by every console-script process
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import willmore, willmore.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & (set(sys.modules) - before)))\n"
    )
    src = str(Path(willmore.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + script],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


def test_public_names_are_the_star_import():
    assert len(set(willmore.__all__)) == len(willmore.__all__)
    missing = [name for name in willmore.__all__ if not hasattr(willmore, name)]
    assert not missing
    namespace = {}
    exec("from willmore import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(willmore.__all__)

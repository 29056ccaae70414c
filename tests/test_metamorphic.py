"""Verdicts do not depend on the orthonormal frame or the normal basis.

A random orthogonal frame change (Cayley or signed permutation) and a random
rotation of the normals must leave every verdict of `verify`, the square
norm, the Einstein result and the symbolic sweep's char_poly as they are on
the built-in data; a direct sum of built-ins must stay minimal, Willmore and
spectrally constant.
"""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frames import cayley_frame, change_frame, direct_sum, rotate_normals, signed_permutation
from willmore.catalog import BUILTIN_NAMES, builtin
from willmore.cli import verify_certificate
from willmore.curvature import curvature_report
from willmore.sweep import symbolic_sweep


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

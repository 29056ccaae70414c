import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horner_reference import _horner
from willmore.catalog import builtin
from willmore.exactnum import ZERO, QuadExt
from willmore.polyring import (
    MultiPoly,
    eval_float,
    eval_plan_columns,
    horner_plan,
    reduce_mod_sphere,
    sphere_constant,
)


def rand_poly(rng, nvars, max_terms=6, max_exp=4, span=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[exps] = QuadExt(rng.randint(-span, span), rng.randint(-span, span))
    return MultiPoly(nvars, terms)


def sphere_relation(p):
    terms = {tuple(2 if i == j else 0 for i in range(p)): QuadExt(1) for j in range(p)}
    terms[(0,) * p] = QuadExt(-1)
    return MultiPoly(p, terms)


def rand_sphere_point(rng, p):
    while True:
        coords = [rng.gauss(0.0, 1.0) for _ in range(p)]
        norm = math.sqrt(sum(c * c for c in coords))
        if norm > 1e-6:
            return tuple(c / norm for c in coords)


class TestArithmetic:
    def test_binomial_square(self):
        t1 = MultiPoly.variable(2, 0)
        t2 = MultiPoly.variable(2, 1)
        got = (t1 + t2) * (t1 + t2)
        expected = MultiPoly(
            2, {(2, 0): QuadExt(1), (1, 1): QuadExt(2), (0, 2): QuadExt(1)}
        )
        assert got == expected

    def test_sqrt3_coefficient_squares_to_three(self):
        f = MultiPoly.monomial(2, (1, 0), QuadExt(0, 1))
        assert f * f == MultiPoly.monomial(2, (2, 0), QuadExt(3))

    def test_multiplication_by_zero(self):
        t1 = MultiPoly.variable(2, 0)
        assert not t1 * 0
        assert t1 * MultiPoly(2) == MultiPoly(2)

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            MultiPoly.variable(2, 0) + MultiPoly.variable(3, 0)

    def test_scalar_coercion(self):
        t1 = MultiPoly.variable(2, 0)
        assert (t1 + 1) - 1 == t1
        assert t1 * Fraction(1, 2) == t1 / 2


class TestReduceModSphere:
    def test_sum_of_squares_is_one(self):
        f = sphere_relation(2) + 1
        assert reduce_mod_sphere(f) == MultiPoly.constant(2, 1)

    def test_cube_of_first_variable(self):
        f = MultiPoly.monomial(2, (3, 0), QuadExt(1))
        expected = MultiPoly(2, {(1, 0): QuadExt(1), (1, 2): QuadExt(-1)})
        assert reduce_mod_sphere(f) == expected

    def test_lambda_cubed_coefficient_of_normal_operator(self):
        # numeric oracle first: the coefficient is constant -10/3 on the circle
        data = builtin("g6_m1_M1")
        a6f = np.array([[e.to_float() for e in row] for row in data.operators[0].rows])
        a7f = np.array([[e.to_float() for e in row] for row in data.operators[1].rows])
        rng = random.Random(99)
        for _ in range(100):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            coeffs = np.poly(math.cos(theta) * a6f + math.sin(theta) * a7f)
            assert abs(coeffs[2] - (-10.0 / 3.0)) < 1e-9
        # then the symbolic reduction must reproduce it exactly
        t1 = MultiPoly.variable(2, 0)
        t2 = MultiPoly.variable(2, 1)
        a = data.operators[0].map(lambda c: t1 * c) + data.operators[1].map(lambda c: t2 * c)
        coeff = a.char_poly().coeffs[3]
        assert reduce_mod_sphere(coeff) == MultiPoly.constant(2, Fraction(-10, 3))

    def test_idempotent_on_random_polynomials(self):
        rng = random.Random(5)
        for _ in range(200):
            p = rng.randint(1, 3)
            f = rand_poly(rng, p)
            once = reduce_mod_sphere(f)
            assert reduce_mod_sphere(once) == once

    def test_multiples_of_relation_reduce_to_zero(self):
        rng = random.Random(17)
        for _ in range(100):
            p = rng.randint(1, 3)
            f = rand_poly(rng, p)
            assert not reduce_mod_sphere(f * sphere_relation(p))

    def test_agrees_with_original_on_sphere_points(self):
        rng = random.Random(23)
        for _ in range(30):
            p = rng.randint(1, 3)
            f = rand_poly(rng, p)
            reduced = reduce_mod_sphere(f)
            for _ in range(100):
                point = rand_sphere_point(rng, p)
                a = eval_float(f, point)
                b = eval_float(reduced, point)
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=6)
SCALAR = st.builds(QuadExt, RATIONAL, st.one_of(st.just(Fraction(0)), RATIONAL))
COORDINATE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0))


@st.composite
def polys_and_points(draw):
    """Sparse polynomials with exponent gaps (the zero polynomial too) and
    points with zero and negative coordinates."""
    p = draw(st.integers(0, 4), label="p")
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 6)] * p), SCALAR, max_size=8), label="terms")
    return MultiPoly(p, terms), draw(st.tuples(*[COORDINATE] * p), label="point")


# zeros of both signs, units, and coordinates that are or whose powers
# overflow to inf, where inf * 0 and inf - inf give nan
WIDE_COORDINATE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e160, -1e160, 1e300, -1e300, math.inf, -math.inf]),
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def polys_and_columns(draw):
    """Polynomials in 1-4 variables with absent powers: sparse term tables, a
    single homogeneous term, zero and a constant; 1-12 points as columns."""
    p = draw(st.integers(1, 4), label="p")
    exps = st.tuples(*[st.integers(0, 6)] * p)
    terms = draw(
        st.one_of(
            st.dictionaries(exps, SCALAR, max_size=8),
            st.builds(lambda e, c: {e: c}, exps, SCALAR),
            st.just({}),
            st.builds(lambda c: {(0,) * p: c}, SCALAR),
        ),
        label="terms",
    )
    points = draw(st.lists(st.tuples(*[WIDE_COORDINATE] * p), min_size=1, max_size=12), label="points")
    return MultiPoly(p, terms), points


class TestEvalFloat:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(polys_and_columns())
    def test_columns_are_bit_identical_to_the_plan_at_each_point(self, case):
        f, points = case
        plan = horner_plan(f)
        together = [repr(v) for v in eval_plan_columns(plan, list(zip(*points)))]  # repr tells -0.0 from 0.0
        assert together == [repr(eval_plan_columns(plan, [(x,) for x in point])[0]) for point in points]
        # at an infinite coordinate a constant coefficient adds c where 0.0 * inf + c is nan
        for point, value in zip(points, together):
            if all(map(math.isfinite, point)):
                assert value == repr(_horner(f.terms, point))

    @settings(max_examples=300, deadline=None)
    @given(polys_and_points())
    def test_plan_is_bit_identical_to_recursive_horner(self, case):
        f, point = case
        assert repr(eval_float(f, point)) == repr(_horner(f.terms, point))  # repr tells -0.0 from 0.0


    def test_unit_circle_point(self):
        f = sphere_relation(2) + 1
        assert abs(eval_float(f, (0.6, 0.8)) - 1.0) < 1e-15

    def test_constant(self):
        f = MultiPoly.constant(3, Fraction(10, 3))
        assert eval_float(f, (0.1, 0.2, 0.3)) == 3.3333333333333335

    def test_sqrt3_times_variable(self):
        f = MultiPoly.monomial(2, (1, 0), QuadExt(0, 1))
        assert eval_float(f, (1.0, 0.0)) == 1.7320508075688772

    def test_point_length_mismatch(self):
        with pytest.raises(ValueError):
            eval_float(MultiPoly.variable(2, 0), (1.0,))


class TestSphereConstant:
    def test_power_of_the_square_norm(self):
        norm2 = sphere_relation(3) + 1
        f = norm2 * norm2 * QuadExt(Fraction(5, 3), 1)
        assert sphere_constant(f, 4) == QuadExt(Fraction(5, 3), 1)

    def test_stray_lower_degree_term_is_rejected(self):
        # the exact degree-2 table of 2*(t1^2 + t2^2) plus a constant: it is
        # constant on the sphere, but not homogeneous of degree 2
        f = (sphere_relation(2) + 1) * 2
        assert sphere_constant(f, 2) == QuadExt(2)
        assert sphere_constant(f + 1, 2) is None
        assert reduce_mod_sphere(f + 1) == MultiPoly.constant(2, 3)

    def test_same_term_count_with_a_wrong_monomial_is_rejected(self):
        f = MultiPoly(2, {(2, 0): QuadExt(1), (1, 1): QuadExt(1)})
        assert sphere_constant(f, 2) is None

    def test_odd_degree_is_constant_only_when_zero(self):
        assert sphere_constant(MultiPoly(2), 3) == ZERO
        assert sphere_constant(MultiPoly.monomial(2, (1, 2), QuadExt(1)), 3) is None

    def test_single_variable(self):
        # the p=1 sphere is {1, -1}: c*t1^k is constant iff k is even or c = 0
        assert sphere_constant(MultiPoly.monomial(1, (4,), QuadExt(0, 1)), 4) == QuadExt(0, 1)
        assert sphere_constant(MultiPoly.monomial(1, (3,), QuadExt(0, 1)), 3) is None

    def test_zero_value_at_e1_with_other_terms_is_rejected(self):
        assert sphere_constant(MultiPoly.monomial(2, (0, 2), QuadExt(1)), 2) is None

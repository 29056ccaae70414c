import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_reference import sphere_constant
from stack import deeper, stack_depth
from willmore import polyring
from willmore.catalog import builtin
from willmore.exactnum import ZERO, QuadExt
from willmore.polyring import MultiPoly, eval_float, eval_terms, float_terms, reduce_mod_sphere


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

    @pytest.mark.parametrize("degree", [30, 40])
    def test_each_monomial_is_expanded_once(self, monkeypatch, degree):
        # every monomial of a dense homogeneous polynomial at p = 2; expanding a
        # monomial before the others that reach it have merged costs about
        # 2^(degree/2) calls (98,302 at degree 30)
        rng = random.Random(degree)
        coeffs = [QuadExt(rng.choice((-9, -1, 1, 9)), rng.randint(-3, 3)) for _ in range(degree + 1)]
        f = MultiPoly(2, {(e, degree - e): coeff for e, coeff in enumerate(coeffs)})
        accumulate, calls = polyring.accumulate, []

        def counted(*args):
            calls.append(None)
            return accumulate(*args)

        monkeypatch.setattr(polyring, "accumulate", counted)
        reduced = reduce_mod_sphere(f)
        monkeypatch.undo()
        assert len(calls) <= len(f.terms) * degree
        assert max(e for e, _ in reduced.terms) <= 1
        assert not reduce_mod_sphere(f - reduced)

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


RATIONAL = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6))  # in [-24, 24]
SCALAR = st.builds(QuadExt, RATIONAL, st.one_of(st.just(Fraction(0)), RATIONAL))
# k/q for |k| <= q <= 64, with 0 and +-1 drawn often
UNIT_RATIONAL = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(lambda k, q: Fraction(k % (2 * q + 1) - q, q), st.integers(0, 128), st.integers(1, 64)),
)


@st.composite
def exponents(draw, p, degree):
    """An exponent vector in p variables of total degree at most `degree`."""
    left, exps = draw(st.integers(0, degree)), []
    for _ in range(p):
        exps.append(draw(st.integers(0, left)))
        left -= exps[-1]
    return tuple(exps)


@st.composite
def polys_and_rational_points(draw):
    """Polynomials in 1-4 variables of degree at most 8 (zero too), and points
    with rational coordinates in [-1, 1], 0 and +-1 among them."""
    p = draw(st.integers(1, 4), label="p")
    terms = dict(draw(st.lists(st.tuples(exponents(p, 8), SCALAR), max_size=8), label="terms"))
    return MultiPoly(p, terms), draw(st.tuples(*[UNIT_RATIONAL] * p), label="point")


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
    @given(polys_and_rational_points())
    def test_within_rounding_of_the_exact_value(self, case):
        # each term is its coefficient, rounded once, times at most 8 rounded
        # coordinates, each product rounded; then the terms are added up
        f, point = case
        exact, magnitude = ZERO, 0.0
        for exps, coeff in f.terms.items():
            monomial = math.prod(x**e for x, e in zip(point, exps))
            exact = exact + coeff * monomial
            magnitude += abs(coeff.to_float() * monomial)
        slack = 4 * sys.float_info.epsilon * (max(f.degree(), 0) + len(f.terms) + 2) * magnitude
        assert abs(eval_float(f, map(float, point)) - exact.to_float()) <= slack

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(polys_and_columns())
    def test_columns_are_bit_identical_to_each_point_alone(self, case):
        f, points = case
        terms = float_terms(f)
        columns = [[None, column] for column in zip(*points)]
        together = [repr(v) for v in eval_terms(terms, columns, len(points))]  # repr tells -0.0 from 0.0
        assert together == [repr(eval_terms(terms, [[None, (x,)] for x in point], 1)[0]) for point in points]
        assert together == [repr(eval_float(f, point)) for point in points]

    def test_terms_are_added_in_exponent_order(self):
        # 1e16 + 1 + 1 is 1e16 in floats, 1 + 1 + 1e16 is 1e16 + 2: the value
        # depends on the polynomial, not on the order its table was built in
        big, one = QuadExt(10**16), QuadExt(1)
        tables = [{(2,): big, (1,): one, (0,): one}, {(0,): one, (1,): one, (2,): big}]
        assert [eval_float(MultiPoly(1, t), (1.0,)) for t in tables] == [1e16, 1e16]

    def test_a_high_power_needs_no_stack(self):
        # t1^1500, entered with at most 60 frames left below the recursion limit
        f = MultiPoly.monomial(1, (1500,), QuadExt(1))
        frames = sys.getrecursionlimit() - 60 - stack_depth()
        assert deeper(frames, lambda: eval_float(f, (-1.0,))) == 1.0
        assert deeper(frames, lambda: eval_float(f, (1.001,))) == pytest.approx(1.001**1500, rel=1e-12)

    def test_no_variable(self):
        assert eval_float(MultiPoly.constant(0, Fraction(1, 3)), ()) == 1 / 3
        assert eval_float(MultiPoly(0), ()) == 0.0

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

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from willmore.exactnum import QuadExt, ScalarParseError, format_scalar, parse_scalar


def rand_quadext(rng, span=20):
    return QuadExt(
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
    )


class TestArithmetic:
    def test_difference_of_squares(self):
        assert QuadExt(1, 1) * QuadExt(1, -1) == -2

    def test_inverse_of_sqrt3_rationalizes(self):
        assert QuadExt(1) / QuadExt(0, 1) == QuadExt(0, Fraction(1, 3))
        assert QuadExt(1) / QuadExt(0, 1) == parse_scalar("1/3*sqrt3")

    def test_square_of_two_thirds_sqrt3(self):
        # cross-check against the 8/3 diagonal entry: 1/3 + 4/3 + 1 = 8/3
        assert parse_scalar("2/3*sqrt3") ** 2 == QuadExt(Fraction(4, 3))
        assert Fraction(1, 3) + Fraction(4, 3) + 1 == Fraction(8, 3)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 2) / QuadExt(0)
        with pytest.raises(ZeroDivisionError):
            QuadExt(0).inverse()

    def test_int_and_fraction_coercion(self):
        v = QuadExt(Fraction(1, 2), 1)
        assert v + 1 == QuadExt(Fraction(3, 2), 1)
        assert 1 + v == QuadExt(Fraction(3, 2), 1)
        assert 2 * v == QuadExt(1, 2)
        assert v - Fraction(1, 2) == QuadExt(0, 1)
        assert v / 2 == QuadExt(Fraction(1, 4), Fraction(1, 2))

    def test_negative_power_uses_inverse(self):
        v = QuadExt(0, 1)
        assert v ** -2 == QuadExt(Fraction(1, 3))

    def test_sign_is_exact(self):
        assert QuadExt(26, -15).sign() == 1    # 26 > 15*sqrt(3) ~ 25.98
        assert QuadExt(25, -15).sign() == -1
        assert QuadExt(-26, 15).sign() == -1
        assert QuadExt(0, 0).sign() == 0
        assert QuadExt(0, -1).sign() == -1

    def test_canonical_form_is_unique(self):
        assert QuadExt(Fraction(2, 4), Fraction(-3, 6)) == QuadExt(Fraction(1, 2), Fraction(-1, 2))
        assert hash(QuadExt(Fraction(2, 4))) == hash(QuadExt(Fraction(1, 2)))


def test_field_axioms_on_random_triples():
    rng = random.Random(20260810)
    one = QuadExt(1)
    for _ in range(10_000):
        x = rand_quadext(rng)
        y = rand_quadext(rng)
        z = rand_quadext(rng)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inverse() == one


class TestParse:
    def test_generator(self):
        assert parse_scalar("sqrt3") == QuadExt(0, 1)

    def test_rationalized_entry(self):
        assert parse_scalar("-2/3*sqrt3") == QuadExt(0, Fraction(-2, 3))

    def test_plain_rational(self):
        assert parse_scalar("8/3") == QuadExt(Fraction(8, 3))

    def test_mixed_terms_and_whitespace(self):
        assert parse_scalar(" 2 - 1/3 * sqrt3 ") == QuadExt(2, Fraction(-1, 3))
        assert parse_scalar("-sqrt3 + 1") == QuadExt(1, -1)
        assert parse_scalar("- sqrt3") == QuadExt(0, -1)

    @pytest.mark.parametrize(
        "text",
        ["", "sqrt", "2/3*", "1//2", "sqrt3*2", "2**sqrt3", "1 + ", "x", "1/0", "sqrt3 + sqrt3", "1.5"],
    )
    def test_malformed_text_raises_with_position(self, text):
        with pytest.raises(ScalarParseError) as info:
            parse_scalar(text)
        assert info.value.position >= 0

    def test_error_position_points_at_offence(self):
        with pytest.raises(ScalarParseError) as info:
            parse_scalar("2/3*spam")
        assert info.value.position == 4


@given(st.fractions(), st.fractions())
def test_parse_is_left_inverse_of_formatter(a, b):
    value = QuadExt(a, b)
    assert parse_scalar(format_scalar(value)) == value


class TestFloat:
    def test_zero(self):
        assert QuadExt(0, 0).to_float() == 0.0

    def test_sqrt3(self):
        assert QuadExt(0, 1).to_float() == 1.7320508075688772

    def test_ten_thirds(self):
        assert QuadExt(Fraction(10, 3)).to_float() == 3.3333333333333335

    def test_survives_catastrophic_cancellation(self):
        # 26 - 15*sqrt(3) ~ 0.0192; a naive float sum is ~1e5 ulps off
        got = QuadExt(26, -15).to_float()
        want = float(Fraction(26) - 15 * Fraction(math.isqrt(3 * 4**100), 2**100))
        assert abs(got - want) <= math.ulp(want)

    def test_product_agreement_within_four_ulps(self):
        rng = random.Random(7)
        for _ in range(2_000):
            x = rand_quadext(rng, span=30)
            y = rand_quadext(rng, span=30)
            lhs = (x * y).to_float()
            rhs = x.to_float() * y.to_float()
            if lhs == rhs:
                continue
            assert abs(lhs - rhs) <= 4 * math.ulp(max(abs(lhs), abs(rhs)))


class TestHash:
    @pytest.mark.parametrize(
        "value", [0, 1, -2, 10**30, Fraction(1, 3), Fraction(-7, 2), Fraction(10**20, 3)]
    )
    def test_rational_values_hash_like_int_and_fraction(self, value):
        q = QuadExt(value)
        assert q == value
        assert hash(q) == hash(value) == hash(Fraction(value))
        assert q in {value} and value in {q}
        assert len({q, value, Fraction(value)}) == 1

    def test_irrational_values_hash_by_value(self):
        q = QuadExt(Fraction(2, 4), Fraction(-1, 3))
        same = parse_scalar("1/2-1/3*sqrt3")
        assert q == same and hash(q) == hash(same)
        assert len({q, same, QuadExt(Fraction(1, 2))}) == 2


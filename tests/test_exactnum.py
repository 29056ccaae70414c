import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frames import direct_sum
from render_reference import format_scalar as reference_format, multipoly_str, unipoly_render
from willmore import exactnum
from willmore.catalog import BUILTIN_NAMES, builtin, parse_dataset, serialize_dataset
from willmore.cli import verify_certificate
from willmore.exactnum import QuadExt, ScalarParseError, ScalarRenderError, format_scalar, parse_scalar, scan_scalar
from willmore.linalg import UniPoly
from willmore.polyring import MultiPoly


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


FRACTIONS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


@given(FRACTIONS, FRACTIONS)
def test_constructor_is_canonical(a, b):
    value = QuadExt(a, b)
    assert value.d > 0 and math.gcd(value.x, value.y, value.d) == 1
    assert Fraction(value.x, value.d) == a and Fraction(value.y, value.d) == b


@given(FRACTIONS, FRACTIONS)
def test_parse_is_left_inverse_of_formatter(a, b):
    value = QuadExt(a, b)
    assert parse_scalar(format_scalar(value)) == value


# Parts of 40 digits, zero parts and parts of +-1, whose sqrt3 part is
# written "sqrt3" or "-sqrt3" alone.
TEXT_PART = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(max_denominator=50),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)
TEXT_VALUES = st.builds(QuadExt, TEXT_PART, TEXT_PART)


def triple(value: QuadExt) -> tuple[int, int, int]:
    return value.x, value.y, value.d


def reference_parse(text: str) -> QuadExt:
    """The scanner alone, then the trailing-text check: how parse_scalar
    read every text before it had its one-match path for canonical text."""
    value, end = scan_scalar(text)
    end = exactnum._SPACE.match(text, end).end()
    if end == len(text):
        return value
    if text[end] in "+-*/":
        raise ScalarParseError(f"unexpected text after {text[end]!r}", exactnum._SPACE.match(text, end + 1).end())
    raise ScalarParseError("unexpected trailing text", end)


def outcome(parse, text: str):
    """The triple that parse reads from text, or its error's message and position."""
    try:
        return triple(parse(text))
    except ScalarParseError as exc:
        return exc.message, exc.position


class TestScalarTextAgainstReferences:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(TEXT_VALUES)
    @example(QuadExt(0, 1))
    @example(QuadExt(0, -1))
    @example(QuadExt(Fraction(-1, 2), -1))
    @example(QuadExt(0))
    def test_format_matches_the_fraction_renderer(self, value):
        assert format_scalar(value) == reference_format(value)

    def test_a_part_beyond_the_digit_limit_raises_render_error(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("int to text has no digit limit in this interpreter")
        value = QuadExt(1, Fraction(1, 10**limit))
        with pytest.raises(ScalarRenderError) as info:
            format_scalar(value)
        with pytest.raises(ScalarRenderError) as reference:
            reference_format(value)
        assert str(info.value) == str(reference.value)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(TEXT_VALUES)
    def test_parse_of_canonical_text_matches_the_scanner(self, value):
        text = format_scalar(value)
        assert outcome(parse_scalar, text) == outcome(reference_parse, text) == triple(value)

    @pytest.mark.parametrize(
        "text",
        [
            "007", "-007", "1/03", "007/0010", "2/4", "-6/4+10/4*sqrt3", "4/2-sqrt3", "3/6*sqrt3", "1*sqrt3",
            "0-sqrt3", "0/7", "-0", "sqrt3+2", "sqrt3-1/2", "1 - sqrt3", "2/ 3", "- sqrt3", " 1", "1 ",
            "\u0663", "1/\u0663", "\u0663*sqrt3", "+1", "+sqrt3", "1++sqrt3", "", "1/0", "-1/0*sqrt3", "1/",
            "1*", "1+sqrt3*", "sqrt3*", "1+2", "1sqrt3", "1+sqrt3x", "sqrt3+sqrt3", "1/2/3", "1.5",
            "1" * 639, "1" * 640, "1" * 4301, "-" + "1" * 4301, "1/" + "2" * 4301, "1+" + "3" * 4301 + "*sqrt3",
        ],
    )
    def test_parse_of_respellings_matches_the_scanner(self, text):
        assert outcome(parse_scalar, text) == outcome(reference_parse, text)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(["0", "1", "07", "12", "/", "*", "sqrt3", "+", "-", " ", "\u0663", "x"]), max_size=8))
    def test_parse_of_any_text_from_its_pieces_matches_the_scanner(self, pieces):
        text = "".join(pieces)
        assert outcome(parse_scalar, text) == outcome(reference_parse, text)


# ratios of two ints of about 40 digits, which no float holds exactly
FORTY_DIGITS = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(10**39, 10**40))
QUADS = st.builds(QuadExt, FRACTIONS, FRACTIONS)
INTS = st.integers(-20, 20) | st.integers(-(10**40), 10**40)
# (a + b*sqrt3) op (c + e*sqrt3) as the pair of its rational parts; the
# quotient is the product with (c - e*sqrt3) / (c^2 - 3e^2)
OPERATIONS = {
    "+": (operator.add, lambda a, b, c, e: (a + c, b + e)),
    "-": (operator.sub, lambda a, b, c, e: (a - c, b - e)),
    "*": (operator.mul, lambda a, b, c, e: (a * c + 3 * b * e, a * e + b * c)),
    "/": (operator.truediv, lambda a, b, c, e: tuple(t / (c * c - 3 * e * e) for t in (a * c - 3 * b * e, b * c - a * e))),
}
# an int or a Fraction on the left reaches the reflected operations
OPERANDS = (
    st.tuples(QUADS, QUADS) | st.tuples(QUADS, INTS) | st.tuples(INTS, QUADS) | st.tuples(QUADS, FRACTIONS)
    | st.tuples(FRACTIONS, QUADS)
)


def rational_parts(value) -> tuple[Fraction, Fraction]:
    """(a, b) of a + b*sqrt3, for a QuadExt, an int or a Fraction."""
    if isinstance(value, QuadExt):
        return Fraction(value.x, value.d), Fraction(value.y, value.d)
    return Fraction(value), Fraction(0)


def assert_canonical(value) -> None:
    assert type(value) is QuadExt
    assert value.d > 0 and math.gcd(value.x, value.y, value.d) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(OPERANDS, st.sampled_from(sorted(OPERATIONS)))
@example((1, QuadExt(Fraction(1, 3), 2)), "-")
@example((Fraction(1, 2), QuadExt(Fraction(1, 3), 2)), "/")
@example((7, QuadExt(0)), "/")
def test_binary_operations_match_a_pair_of_fractions(operands, op):
    left, right = operands
    function, reference = OPERATIONS[op]
    (a, b), (c, e) = rational_parts(left), rational_parts(right)
    assert (left == right) is (right == left) is ((a, b) == (c, e))
    if op == "/" and not (c or e):
        with pytest.raises(ZeroDivisionError):
            function(left, right)
        return
    result = function(left, right)
    assert_canonical(result)
    assert rational_parts(result) == reference(a, b, c, e)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(QUADS)
def test_negation_and_inverse_match_a_pair_of_fractions(value):
    a, b = rational_parts(value)
    negated = -value
    assert_canonical(negated)
    assert rational_parts(negated) == (-a, -b)
    if not value:
        with pytest.raises(ZeroDivisionError):
            value.inverse()
        return
    inverse = value.inverse()
    assert_canonical(inverse)
    assert rational_parts(inverse) == (a / (a * a - 3 * b * b), -b / (a * a - 3 * b * b))


@pytest.mark.parametrize("foreign", [1.5, 2.0, "1", None, 1j, object()], ids=repr)
def test_a_foreign_operand_raises_type_error_and_compares_unequal(foreign):
    value = QuadExt(2)
    for function in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            function(value, foreign)
        with pytest.raises(TypeError):
            function(foreign, value)
    assert (value == foreign) is False and (foreign == value) is False


@pytest.fixture
def fractions_made(monkeypatch):
    """The arguments of every Fraction that exactnum constructs from here on."""
    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(exactnum, "Fraction", CountingFraction)
    return made


COUNTED_DATASETS = pytest.mark.parametrize(
    "data",
    [builtin(name) for name in BUILTIN_NAMES] + [direct_sum(builtin("g6_m2_M2"), builtin("g6_m2_M2"))],
    ids=list(BUILTIN_NAMES) + ["n20_sum"],
)


@COUNTED_DATASETS
def test_parsing_a_dataset_constructs_no_fraction(fractions_made, data):
    parsed = parse_dataset(serialize_dataset(data))
    assert fractions_made == []
    assert parsed.operators == data.operators


@COUNTED_DATASETS
def test_rendering_a_certificate_constructs_no_fraction(fractions_made, data):
    cert, ok = verify_certificate(data)
    texts = cert.render("text"), cert.render("keyvalue")
    assert fractions_made == []
    assert ok and all("ricci" in text for text in texts)


# Parts of either sign give coefficients such as 1 - sqrt3, which is negative
# although its rational part is positive; also +-1, 0 (left out of the text)
# and fractions.
RENDER_PART = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-2, 3)]) | st.fractions(max_denominator=9)
RENDER_COEFF = st.builds(QuadExt, RENDER_PART, RENDER_PART)


@st.composite
def multipolys(draw, nvars=None):
    p = draw(st.integers(1, 3)) if nvars is None else nvars
    exps = st.tuples(*[st.integers(0, 3)] * p)
    return MultiPoly(p, draw(st.dictionaries(exps, RENDER_COEFF, max_size=6)))


class TestFormatSum:
    @given(st.lists(RENDER_COEFF, max_size=7))
    def test_unipoly_text_matches_the_old_renderer(self, coeffs):
        poly = UniPoly(coeffs)
        assert str(poly) == unipoly_render(poly)

    @given(st.lists(multipolys(nvars=2), max_size=4))
    def test_unipoly_over_multipoly_text_matches_the_old_renderer(self, coeffs):
        poly = UniPoly(coeffs)
        assert str(poly) == unipoly_render(poly)

    @given(multipolys())
    def test_multipoly_text_matches_the_old_renderer(self, poly):
        assert str(poly) == multipoly_str(poly)

    def test_mixed_sign_coefficients(self):
        one_minus_root = QuadExt(1, -1)
        assert str(UniPoly([one_minus_root, one_minus_root])) == "-(-1+sqrt3)*l - (-1+sqrt3)"
        assert str(MultiPoly(2, {(1, 0): QuadExt(1, 1), (0, 1): -QuadExt(1)})) == "(1+sqrt3)*t1 - t2"


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(FRACTIONS | FORTY_DIGITS, FRACTIONS | FORTY_DIGITS | st.just(Fraction(0)))
    def test_equals_rounding_through_fraction(self, a, b):
        # the same refinement of sqrt(3), each quotient rounded by float(Fraction(...))
        value = QuadExt(a, b)
        x, y, d = value.x, value.y, value.d
        if y == 0:
            want = float(Fraction(x, d))
        else:
            bits, values = 128, [None]
            while len(values) < 3 or values[-1] != values[-2]:
                scale = 1 << bits
                root = math.isqrt(3 * y * y * scale * scale)
                values.append(float(Fraction(x * scale + (root if y > 0 else -root), d * scale)))
                bits *= 2
            want = values[-1]
        assert value.to_float() == want

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


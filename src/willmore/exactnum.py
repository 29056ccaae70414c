"""Exact scalars: arbitrary-precision rationals and the real quadratic field Q(sqrt(3)).

Every quantity this package computes with lives in Q(sqrt(3)).  Elements are
kept in a canonical form so that exact equality is plain field-wise equality;
radicals are never stored in denominators (1/sqrt(3) is held as (1/3)*sqrt(3)).
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction


class ScalarParseError(ValueError):
    """Malformed scalar text; `position` is the offending character index."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class QuadExt:
    """An element a + b*sqrt(3) of Q(sqrt(3)) with rational a, b.

    Internally stored as (x + y*sqrt(3)) / d with integers x, y and d > 0,
    gcd(x, y, d) = 1, so equal values always have identical representations.
    Arithmetic coerces int and Fraction operands.
    """

    __slots__ = ("x", "y", "d", "_float")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0) -> None:
        a = Fraction(a)
        b = Fraction(b)
        d = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
        x = a.numerator * (d // a.denominator)
        y = b.numerator * (d // b.denominator)
        g = math.gcd(math.gcd(x, y), d)
        if g > 1:
            x //= g
            y //= g
            d //= g
        self.x = x
        self.y = y
        self.d = d

    @classmethod
    def _make(cls, x: int, y: int, d: int) -> QuadExt:
        if d < 0:
            x, y, d = -x, -y, -d
        if d != 1:
            g = math.gcd(math.gcd(x, y), d)
            if g > 1:
                x //= g
                y //= g
                d //= g
        obj = object.__new__(cls)
        obj.x = x
        obj.y = y
        obj.d = d
        return obj

    @classmethod
    def _coerce(cls, value) -> QuadExt | None:
        if isinstance(value, QuadExt):
            return value
        if isinstance(value, int):
            return cls._make(value, 0, 1)
        if isinstance(value, Fraction):
            return cls._make(value.numerator, 0, value.denominator)
        return None

    @property
    def a(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.y, self.d)

    def __repr__(self) -> str:
        return f"QuadExt({self.a}, {self.b})"

    def __str__(self) -> str:
        return format_scalar(self)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.d == other.d

    def __hash__(self) -> int:
        # a rational value hashes like the int or Fraction it equals
        if not self.y:
            return hash(Fraction(self.x, self.d))
        return hash((self.x, self.y, self.d))

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def __neg__(self) -> QuadExt:
        return self._make(-self.x, -self.y, self.d)

    def __add__(self, other) -> QuadExt:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.d == other.d:
            return self._make(self.x + other.x, self.y + other.y, self.d)
        return self._make(
            self.x * other.d + other.x * self.d,
            self.y * other.d + other.y * self.d,
            self.d * other.d,
        )

    __radd__ = __add__

    def __sub__(self, other) -> QuadExt:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.d == other.d:
            return self._make(self.x - other.x, self.y - other.y, self.d)
        return self._make(
            self.x * other.d - other.x * self.d,
            self.y * other.d - other.y * self.d,
            self.d * other.d,
        )

    def __rsub__(self, other) -> QuadExt:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> QuadExt:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._make(
            self.x * other.x + 3 * self.y * other.y,
            self.x * other.y + self.y * other.x,
            self.d * other.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> QuadExt:
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(3))")
        # 1 / ((x + y*sqrt3)/d) = d*(x - y*sqrt3) / (x^2 - 3*y^2)
        n = self.x * self.x - 3 * self.y * self.y
        return self._make(self.d * self.x, -self.d * self.y, n)

    def __truediv__(self, other) -> QuadExt:
        if isinstance(other, int):
            if other == 0:
                raise ZeroDivisionError("division by zero in Q(sqrt(3))")
            return self._make(self.x, self.y, self.d * other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> QuadExt:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> QuadExt:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self._make(1, 0, 1)
        base = self
        n = exponent
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(3): -1, 0 or +1."""
        x, y = self.x, self.y
        if y == 0:
            return 0 if x == 0 else (1 if x > 0 else -1)
        if x == 0:
            return 1 if y > 0 else -1
        if x > 0 and y > 0:
            return 1
        if x < 0 and y < 0:
            return -1
        # mixed signs: compare x^2 against 3*y^2
        if x > 0:
            return 1 if x * x > 3 * y * y else -1
        return -1 if x * x > 3 * y * y else 1

    def is_rational(self) -> bool:
        return self.y == 0

    def to_float(self) -> float:
        """Correctly rounded to within 1 ulp (naive float(a) + float(b)*sqrt(3)
        loses arbitrarily many digits to cancellation).

        sqrt(3) is replaced by an integer square root at increasing precision
        until the rounded double is stable; the result is cached.
        """
        try:
            return self._float
        except AttributeError:
            pass
        if self.y == 0:
            value = float(Fraction(self.x, self.d))
        else:
            bits = 128
            previous = None
            while True:
                scale = 1 << bits
                root = math.isqrt(3 * self.y * self.y * scale * scale)
                numerator = self.x * scale + (root if self.y > 0 else -root)
                value = float(Fraction(numerator, self.d * scale))
                if value == previous:
                    break
                previous = value
                bits *= 2
        self._float = value
        return value

    def __float__(self) -> float:
        return self.to_float()


ZERO = QuadExt(0, 0)
ONE = QuadExt(1, 0)
SQRT3 = QuadExt(0, 1)


def format_scalar(value: QuadExt) -> str:
    """Canonical text form, re-readable by parse_scalar."""
    a, b = value.a, value.b
    if b == 0:
        return str(a)
    mag = "sqrt3" if abs(b) == 1 else f"{abs(b)}*sqrt3"
    if a == 0:
        return mag if b > 0 else f"-{mag}"
    return f"{a}+{mag}" if b > 0 else f"{a}-{mag}"


class _Cursor:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, message: str) -> ScalarParseError:
        return ScalarParseError(message, self.pos)

    def expect_sqrt3(self) -> None:
        if self.text.startswith("sqrt3", self.pos):
            self.pos += 5
        else:
            raise self.error("expected 'sqrt3'")

    def take_digits(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected digits")
        return int(self.text[start : self.pos])


def _parse_rational(cur: _Cursor) -> Fraction:
    cur.skip_ws()
    negative = False
    if cur.peek() == "-":
        negative = True
        cur.pos += 1
        cur.skip_ws()
    numerator = cur.take_digits()
    cur.skip_ws()
    if cur.peek() == "/":
        cur.pos += 1
        cur.skip_ws()
        at = cur.pos
        denominator = cur.take_digits()
        if denominator == 0:
            raise ScalarParseError("zero denominator", at)
    else:
        denominator = 1
    value = Fraction(numerator, denominator)
    return -value if negative else value


def _parse_term(cur: _Cursor) -> tuple[QuadExt, bool]:
    """One grammar term; returns (value, term_contains_sqrt3)."""
    cur.skip_ws()
    ch = cur.peek()
    if ch == "s":
        cur.expect_sqrt3()
        return SQRT3, True
    if ch == "-":
        ahead = cur.pos + 1
        while ahead < len(cur.text) and cur.text[ahead].isspace():
            ahead += 1
        if cur.text.startswith("sqrt3", ahead):
            cur.pos = ahead + 5
            return -SQRT3, True
    if not (ch.isdigit() or ch == "-"):
        raise cur.error("expected a rational or 'sqrt3'")
    r = _parse_rational(cur)
    cur.skip_ws()
    if cur.peek() == "*":
        cur.pos += 1
        cur.skip_ws()
        cur.expect_sqrt3()
        return QuadExt(0, r), True
    return QuadExt(r, 0), False


def parse_scalar(text: str) -> QuadExt:
    """Parse scalar text (e.g. "8/3", "-2/3*sqrt3", "2-sqrt3") into QuadExt.

    Whitespace-insensitive; 'sqrt3' may appear at most once.
    """
    cur = _Cursor(text)
    value, used_sqrt3 = _parse_term(cur)
    cur.skip_ws()
    if cur.peek() in ("+", "-"):
        sign_pos = cur.pos
        negative = cur.peek() == "-"
        cur.pos += 1
        second, second_sqrt3 = _parse_term(cur)
        if used_sqrt3 and second_sqrt3:
            raise ScalarParseError("'sqrt3' may appear at most once", sign_pos)
        value = value - second if negative else value + second
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise cur.error("unexpected trailing text")
    return value

"""Exact scalars: arbitrary-precision rationals and the real quadratic field Q(sqrt(3)).

Every quantity this package computes with lives in Q(sqrt(3)).  Elements are
kept in a canonical form so that exact equality is plain field-wise equality;
radicals are never stored in denominators (1/sqrt(3) is held as (1/3)*sqrt(3)).
The module also holds the one parser of the scalar grammar and `accumulate`,
the one helper for sparse linear combinations {key: coefficient}.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Hashable, Iterable

Rational = Fraction


class ScalarParseError(ValueError):
    """Malformed scalar text; `position` is the offending character index."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.message = message
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


# One term: "sqrt3", a rational "p" or "p/q", or "p*sqrt3" / "p/q*sqrt3",
# each with an optional leading minus; whitespace may separate the parts.
# "sqrt3" must end a word, so "sqrt3x" is no term.  The digits after a '/' may
# match empty so that _term_value can report them missing.
_TERM = re.compile(r"\s*(-\s*)?(?:(sqrt3(?!\w))|(\d+)(?:\s*/\s*(\d*))?(?:\s*\*\s*(sqrt3(?!\w)))?)")
_SPACE = re.compile(r"\s*")
_SIGN = re.compile(r"\s*(?:-\s*)?")


def _digits(text: str, position: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ScalarParseError("number has too many digits", position) from None


def _term_value(match: re.Match) -> QuadExt:
    negative, root, numerator, denominator, times_root = match.groups()
    if root:
        value = SQRT3
    else:
        if denominator == "":
            raise ScalarParseError("expected digits after '/'", match.start(4))
        denominator = _digits(denominator or "1", match.start(4))
        if denominator == 0:
            raise ScalarParseError("zero denominator", match.start(4))
        rational = Fraction(_digits(numerator, match.start(3)), denominator)
        value = QuadExt(0, rational) if times_root else QuadExt(rational)
    return -value if negative else value


def scan_scalar(text: str, pos: int = 0) -> tuple[QuadExt, int]:
    """Read the longest scalar that starts at text[pos]; return (value, end).

    The scalar is one term or two terms joined by '+' or '-'.  It stops before
    a '*' that is not followed by 'sqrt3' and before a '+' or '-' that does
    not start a term, so a caller can read on from `end`.
    """
    first = _TERM.match(text, pos)
    if first is None:
        raise ScalarParseError("expected a rational or 'sqrt3'", _SIGN.match(text, pos).end())
    value, end = _term_value(first), first.end()
    sign = _SPACE.match(text, end).end()
    second = _TERM.match(text, sign + 1) if text.startswith(("+", "-"), sign) else None
    if second is not None:
        if "sqrt3" in first.group() and "sqrt3" in second.group():
            raise ScalarParseError("'sqrt3' may appear at most once", sign)
        term = _term_value(second)
        value = value - term if text[sign] == "-" else value + term
        end = second.end()
    return value, end


def parse_scalar(text: str) -> QuadExt:
    """Parse scalar text (e.g. "8/3", "-2/3*sqrt3", "2-sqrt3") into QuadExt.

    Whitespace-insensitive; 'sqrt3' may appear at most once.
    """
    value, end = scan_scalar(text)
    end = _SPACE.match(text, end).end()
    if end == len(text):
        return value
    if text[end] in "+-*/":
        # the operator is not the offence, what follows it is
        raise ScalarParseError(f"unexpected text after {text[end]!r}", _SPACE.match(text, end + 1).end())
    raise ScalarParseError("unexpected trailing text", end)


def accumulate(table: dict, items: Iterable[tuple[Hashable, QuadExt]], factor: QuadExt | None = None) -> dict:
    """table += factor * items, in place, for a sparse linear combination.

    `table` maps keys to nonzero coefficients and `items` yields (key,
    coefficient) pairs; a key whose sum cancels to zero is dropped.  A missing
    factor means 1.  Returns `table`.
    """
    for key, coeff in items:
        if factor is not None:
            coeff = factor * coeff
        acc = table.get(key)
        if acc is not None:
            coeff = acc + coeff
        if coeff:
            table[key] = coeff
        elif acc is not None:
            del table[key]
    return table

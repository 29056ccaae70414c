"""Exact scalars: arbitrary-precision rationals and the real quadratic field Q(sqrt(3)).

Every quantity this package computes with lives in Q(sqrt(3)).  Elements are
kept in a canonical form so that exact equality is plain field-wise equality;
radicals are never stored in denominators (1/sqrt(3) is held as (1/3)*sqrt(3)).
The module also holds the scalar text layer, which works on the canonical
triple (x + y*sqrt(3))/d: `format_scalar` writes it without a Fraction, and
`parse_scalar` reads the canonical spelling in one match, leaving every other
spelling and every error to the scanner `scan_scalar`.  And `accumulate`,
the one helper for sparse linear combinations {key: coefficient}.
"""

from __future__ import annotations

import math
import re
import sys
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
    gcd(x, y, d) = 1, so equal values always have identical representations;
    every result but a negation goes through the one normalizer `_reduced`.
    Arithmetic coerces int and Fraction operands; a QuadExt is used as it is.
    """

    __slots__ = ("x", "y", "d", "_float")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0) -> None:
        if type(a) is int and type(b) is int:  # not bool: x would keep True
            q = _reduced(a, b, 1)
        else:
            a = Fraction(a)
            b = Fraction(b)
            q = self._make(a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator)
        self.x, self.y, self.d = q.x, q.y, q.d

    @classmethod
    def _make(cls, x: int, y: int, d: int) -> QuadExt:
        """(x + y*sqrt(3)) / d in canonical form, for any nonzero d."""
        if d < 0:
            x, y, d = -x, -y, -d
        return _reduced(x, y, d)

    @classmethod
    def _coerce(cls, value) -> QuadExt | None:
        if isinstance(value, QuadExt):
            return value
        if isinstance(value, int):
            return _reduced(value, 0, 1)
        if isinstance(value, Fraction):
            return _reduced(value.numerator, 0, value.denominator)
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
        if other.__class__ is not QuadExt:
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
        # negation keeps the form reduced: no gcd
        obj = object.__new__(QuadExt)
        obj.x, obj.y, obj.d = -self.x, -self.y, self.d
        return obj

    def __add__(self, other) -> QuadExt:
        if other.__class__ is not QuadExt:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.d == other.d:
            return _reduced(self.x + other.x, self.y + other.y, self.d)
        return _reduced(
            self.x * other.d + other.x * self.d,
            self.y * other.d + other.y * self.d,
            self.d * other.d,
        )

    __radd__ = __add__

    def __sub__(self, other) -> QuadExt:
        if other.__class__ is not QuadExt:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.d == other.d:
            return _reduced(self.x - other.x, self.y - other.y, self.d)
        return _reduced(
            self.x * other.d - other.x * self.d,
            self.y * other.d - other.y * self.d,
            self.d * other.d,
        )

    def __rsub__(self, other) -> QuadExt:
        other = self._coerce(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other) -> QuadExt:
        if other.__class__ is not QuadExt:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _reduced(
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
        return NotImplemented if other is None else other * self.inverse()

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
            value = self.x / self.d  # int true division rounds correctly
        else:
            bits = 128
            previous = None
            while True:
                scale = 1 << bits
                root = math.isqrt(3 * self.y * self.y * scale * scale)
                numerator = self.x * scale + (root if self.y > 0 else -root)
                value = numerator / (self.d * scale)
                if value == previous:
                    break
                previous = value
                bits *= 2
        self._float = value
        return value

    def __float__(self) -> float:
        return self.to_float()


def _reduced(x: int, y: int, d: int) -> QuadExt:
    """(x + y*sqrt(3)) / d divided by gcd(x, y, d), for d > 0: the one
    normalizer of the canonical form."""
    g = math.gcd(d, x, y)  # d first: math.gcd skips the rest once it reads 1
    if g != 1:
        x, y, d = x // g, y // g, d // g
    obj = object.__new__(QuadExt)
    obj.x, obj.y, obj.d = x, y, d
    return obj


ZERO = QuadExt(0, 0)
ONE = QuadExt(1, 0)
SQRT3 = QuadExt(0, 1)


class ScalarRenderError(ValueError):
    """A value with more digits than Python converts from int to text."""


def _ratio(n: int, d: int) -> str:
    """Text of n/d, d > 0, in lowest terms: "n" or "n/d", as str(Fraction(n, d))."""
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def format_scalar(value: QuadExt) -> str:
    """Canonical text form, re-readable by parse_scalar: "a", "a+b*sqrt3",
    "-b*sqrt3" or "a-sqrt3", with a and b in lowest terms, each written from
    the triple (x, y, d) with one gcd."""
    x, y, d = value.x, value.y, value.d
    try:
        if not y:
            return _ratio(x, d)
        mag = "sqrt3" if y == d or y == -d else f"{_ratio(abs(y), d)}*sqrt3"
        if not x:
            return mag if y > 0 else f"-{mag}"
        return f"{_ratio(x, d)}+{mag}" if y > 0 else f"{_ratio(x, d)}-{mag}"
    except ValueError:  # an int with more digits than str() writes
        digits = sys.get_int_max_str_digits()
        raise ScalarRenderError(f"a value has more than {digits} digits and cannot be written") from None


def format_sum(terms: Iterable[tuple[object, str]]) -> str:
    """Text of the sum of coeff*factor over (nonzero coeff, factor text) pairs,
    in the given order, as "-c*f + f - c"; "0" for no pairs.  A magnitude
    with a sign in its text is parenthesized, and a coefficient without
    `sign` (a MultiPoly) is never negative."""
    parts: list[str] = []
    for coeff, factor in terms:
        negative = coeff.sign() < 0 if hasattr(coeff, "sign") else False
        mag = -coeff if negative else coeff
        text = str(mag)
        if "+" in text or (text.count("-") and not text.startswith("-")):
            text = f"({text})"
        if not factor:
            term = text
        else:
            term = factor if mag == 1 else f"{text}*{factor}"
        if not parts:
            parts.append(f"-{term}" if negative else term)
        else:
            parts.append(f"- {term}" if negative else f"+ {term}")
    return " ".join(parts) or "0"


# One term: "sqrt3", a rational "p" or "p/q", or "p*sqrt3" / "p/q*sqrt3",
# each with an optional leading minus; whitespace may separate the parts.
# "sqrt3" must end a word, so "sqrt3x" is no term.  The digits after a '/' may
# match empty so that _term_value can report them missing.
_TERM = re.compile(r"\s*(-\s*)?(?:(sqrt3(?!\w))|(\d+)(?:\s*/\s*(\d*))?(?:\s*\*\s*(sqrt3(?!\w)))?)")
_SPACE = re.compile(r"\s*")
_SIGN = re.compile(r"\s*(?:-\s*)?")
# The canonical spelling that format_scalar writes, read by parse_scalar in
# one full match: "r", "r+s*sqrt3", "r-sqrt3", "-r*sqrt3", "sqrt3", where r
# and s are "p" or "p/q".  The first number is read once, whether it turns
# out a rational or a factor of sqrt3, so a canonical text matches without
# backtracking.  Runs of ASCII digits only, below the 640 digits that int()
# converts at its smallest limit, and denominators start with 1-9: every
# match converts without error.  Any other text goes to scan_scalar.
_PART = r"([0-9]{1,639})(?:/([1-9][0-9]{0,638}))?"
_CANONICAL = re.compile(rf"(-)?(?:{_PART}(?:([-+])(?:{_PART}\*)?sqrt3|(\*sqrt3))?|sqrt3)")


def _digits(text: str, position: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ScalarParseError("number has too many digits", position) from None


def _term_value(match: re.Match) -> QuadExt:
    negative, root, numerator, denominator, times_root = match.groups()
    if root:
        return -SQRT3 if negative else SQRT3
    if denominator == "":
        raise ScalarParseError("expected digits after '/'", match.start(4))
    denominator = _digits(denominator or "1", match.start(4))
    if denominator == 0:
        raise ScalarParseError("zero denominator", match.start(4))
    numerator = _digits(numerator, match.start(3))
    if negative:
        numerator = -numerator
    return QuadExt._make(0, numerator, denominator) if times_root else QuadExt._make(numerator, 0, denominator)


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

    Whitespace-insensitive; 'sqrt3' may appear at most once.  Canonical text
    is read in one match into one `_reduced` call; every other spelling, and
    every error, goes through `scan_scalar`.
    """
    match = _CANONICAL.fullmatch(text)
    if match is not None:
        negative, p, q, op, s, t, times_root = match.groups()
        if p is None:
            return -SQRT3 if negative else SQRT3
        x = -int(p) if negative else int(p)
        q = int(q) if q else 1
        if times_root:
            return _reduced(0, x, q)
        if op is None:
            return _reduced(x, 0, q)
        y = int(s) * q if s else q
        t = int(t) if t else 1
        return _reduced(x * t, -y if op == "-" else y, q * t)
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

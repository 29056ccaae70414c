"""Multivariate polynomials over Q(sqrt(3)) in normal-direction variables t1..tp.

The unit-normal constraint t1^2 + ... + tp^2 = 1 is handled by canonical
reduction modulo the single relation polynomial r = t1^2 + ... + tp^2 - 1
(lex order, t1 highest, leading monomial t1^2).  A polynomial is constant on
the unit sphere exactly when its remainder is a constant: the complex quadric
cut out by r is irreducible and the real sphere is Zariski-dense in it, so no
nonconstant remainder can vanish on every unit normal.  The remainder both
decides constancy and, when it is not constant, is the witness.  Floating
evaluation takes the terms with every coefficient converted to float once
(`float_terms`) and adds them up at many points at once (`eval_terms`), in
loops, with no recursion; the caller holds the points' power columns, so
that several polynomials at the same points share them.  `MultiPoly.__mul__`
is the reference for the packed product of the sweep's blocks.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul
from typing import Iterable, Mapping

from .exactnum import QuadExt, ZERO, accumulate, format_sum


class MultiPoly:
    """Polynomial as a map from exponent vectors to nonzero QuadExt coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], QuadExt] | None = None) -> None:
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: dict[tuple[int, ...], QuadExt] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(f"exponent vector {exps} has wrong length for {nvars} variables")
                if coeff:
                    clean[exps] = coeff
        self.terms = clean

    @staticmethod
    def _of(nvars: int, terms: dict[tuple[int, ...], QuadExt]) -> MultiPoly:
        """Trusted constructor: exponent vectors of length nvars, nonzero coefficients."""
        out = object.__new__(MultiPoly)
        out.nvars = nvars
        out.terms = terms
        return out

    @classmethod
    def constant(cls, nvars: int, value) -> MultiPoly:
        value = QuadExt._coerce(value)
        if value is None:
            raise TypeError("constant must be a QuadExt, int or Fraction")
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> MultiPoly:
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: QuadExt(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Iterable[int], coeff) -> MultiPoly:
        coeff = QuadExt._coerce(coeff)
        if coeff is None:
            raise TypeError("coefficient must be a QuadExt, int or Fraction")
        return cls(nvars, {tuple(exps): coeff})

    def _coerce(self, other) -> MultiPoly | None:
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")
            return other
        scalar = QuadExt._coerce(other)
        if scalar is None:
            return None
        return MultiPoly.constant(self.nvars, scalar)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        scalar = QuadExt._coerce(other)
        if scalar is None:
            return NotImplemented
        return self == MultiPoly.constant(self.nvars, scalar)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self})"

    def __neg__(self) -> MultiPoly:
        return MultiPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._of(self.nvars, accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            scalar = QuadExt._coerce(other)
            if scalar is None:
                return NotImplemented
            return MultiPoly._of(self.nvars, {e: c * scalar for e, c in self.terms.items()} if scalar else {})
        other = self._coerce(other)
        product: dict[tuple[int, ...], QuadExt] = {}
        for e1, c1 in self.terms.items():
            shifted = ((tuple(a + b for a, b in zip(e1, e2)), c2) for e2, c2 in other.terms.items())
            accumulate(product, shifted, c1)
        return MultiPoly._of(self.nvars, product)

    __rmul__ = __mul__

    def __truediv__(self, other) -> MultiPoly:
        scalar = QuadExt._coerce(other)
        if scalar is None:
            return NotImplemented
        return self * scalar.inverse()

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    def is_constant(self) -> bool:
        return self.degree() <= 0

    def constant_value(self) -> QuadExt:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get((0,) * self.nvars, ZERO)

    def __str__(self) -> str:
        return format_sum(
            (self.terms[m], "*".join(f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}" for i, e in enumerate(m) if e))
            for m in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        )


def reduce_mod_sphere(f: MultiPoly) -> MultiPoly:
    """Canonical remainder of f modulo t1^2 + ... + tp^2 - 1.

    Substitutes t1^2 -> 1 - t2^2 - ... - tp^2 level by level, from the
    highest exponent of t1 down, expanding each monomial once, after every
    contribution to its level has merged.  Levels 1 and 0 are the unique
    remainder of division by the relation, alone a Groebner basis of its
    ideal: f is constant c on the unit sphere iff the result is the constant c.
    """
    p = f.nvars
    if p < 1:
        raise ValueError("need at least one variable")
    levels: dict[int, dict[tuple[int, ...], QuadExt]] = {}  # exponent of t1 -> terms
    for exps, coeff in f.terms.items():
        levels.setdefault(exps[0], {})[exps] = coeff
    for e in range(max(levels, default=0), 1, -1):
        below = levels.setdefault(e - 2, {})
        for exps, coeff in levels.pop(e, {}).items():
            base = (e - 2,) + exps[1:]
            raised = [(base[:j] + (base[j] + 2,) + base[j + 1 :], -coeff) for j in range(1, p)]
            accumulate(below, [(base, coeff)] + raised)
    return MultiPoly._of(p, {**levels.get(1, {}), **levels.get(0, {})})


def eval_float(f: MultiPoly, point: Iterable[float]) -> float:
    """Floating evaluation at one point, by `eval_terms`."""
    point = tuple(point)
    if len(point) != f.nvars:
        raise ValueError(f"point has {len(point)} coordinates, expected {f.nvars}")
    return eval_terms(float_terms(f), [[None, (x,)] for x in point], 1)[0]


def float_terms(f: MultiPoly) -> list[tuple[float, tuple[tuple[int, int], ...]]]:
    """The terms of f for `eval_terms`, exponent vectors descending: each
    coefficient converted to float once, with the (variable, exponent) pairs
    of its nonzero exponents."""
    return [
        (coeff.to_float(), tuple((d, e) for d, e in enumerate(exps) if e))
        for exps, coeff in sorted(f.terms.items(), reverse=True)
    ]


def eval_terms(terms, powers, size: int) -> list[float]:
    """`float_terms` at `size` points at once: each term is its coefficient
    times its power columns, one map chain over the points, and the terms are
    added in their order.  powers[d] = [None, x_d, x_d^2, ...] holds the power
    columns of coordinate d at the points, x^e = x^(e-1) * x, and is extended in
    place, in a loop, up to the powers the terms read: term lists evaluated at
    the same points with the same `powers` build each column once."""
    total = [0.0] * size
    for coeff, factors in terms:
        value = repeat(coeff, size)
        for d, e in factors:
            ladder = powers[d]
            while len(ladder) <= e:
                ladder.append(list(map(mul, ladder[-1], ladder[1])))
            value = map(mul, value, ladder[e])
        total = list(map(add, total, value))
    return total

"""Spectral invariance over the normal sphere.

For a unit normal with coordinates (t1..tp) the shape operator is
A(t) = sum_a t_a A_a.  Both sweeps take its characteristic polynomial, with
coefficients in the polynomial ring, from `normal_char_poly`: a
Faddeev-LeVerrier kernel for A(t) alone, on integer pairs over a common
denominator, that skips zero entries and zero monomials.  The generic
`Matrix.char_poly` of `normal_shape_operator(data)` gives the same
polynomial and serves as its reference.

The symbolic sweep reduces every lambda-coefficient modulo the unit-sphere
relation; the spectrum is direction-independent exactly when every reduced
coefficient is a constant.  The symbolic verdict is authoritative; the
numeric sweep is a seeded floating cross-check meant to catch implementation
bugs, never to decide.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress
from operator import or_

from .catalog import ShapeOperatorSet
from .exactnum import QuadExt
from .linalg import Matrix, Row, UniPoly, integer_rows
from .polyring import MultiPoly, eval_float, reduce_mod_sphere


@dataclass(frozen=True)
class SweepVerdict:
    constant: bool
    char_poly: UniPoly | None          # over QuadExt, set iff constant
    witness: MultiPoly | None          # first non-constant reduced coefficient
    witness_power: int | None          # lambda-power of the witness

    def __post_init__(self) -> None:
        if self.constant != (self.char_poly is not None) or self.constant != (self.witness is None):
            raise ValueError("verdict fields do not match the constant flag")


def normal_shape_operator(data: ShapeOperatorSet) -> Matrix:
    """The matrix A(t) = sum_a t_a A_a over MultiPoly in p variables."""
    p = data.p
    acc = data.operators[0].map(lambda c: MultiPoly.monomial(p, _unit(p, 0), c))
    for a in range(1, p):
        acc = acc + data.operators[a].map(lambda c, a=a: MultiPoly.monomial(p, _unit(p, a), c))
    return acc


def _unit(p: int, index: int) -> tuple[int, ...]:
    return tuple(1 if i == index else 0 for i in range(p))


def normal_char_poly(data: ShapeOperatorSet) -> UniPoly:
    """char_poly of A(t) = sum_a t_a A_a, with MultiPoly coefficients.

    Faddeev-LeVerrier on A(t) as a polynomial with matrix coefficients:
    P_1 = A and P_(k+1) = A P_k + c_(n-k) A with c_(n-k) = -Tr(P_k) / k.
    P_k(t) = sum_m t^m P_m is kept as {monomial m: sparse rows of P_m} in
    integer pairs over one common denominator, and each product A_a P_m runs
    over the nonzero entries of the rows of A_a and P_m only.  Each step ends
    with one gcd normalisation; zero entries and zero monomials are never
    stored, and one dense n x n accumulator is alive at a time.  The result
    equals normal_shape_operator(data).char_poly() exactly.
    """
    n, p = data.n, data.p
    ops, op_den = integer_rows(data.operators)
    active = [(ops[a], _unit(p, a)) for a in range(p) if any(ops[a])]
    product = {unit: rows for rows, unit in active}  # P_1 = A
    den = op_den
    coeffs = [MultiPoly(p)] * n + [MultiPoly.constant(p, 1)]
    traces = {m: _trace(rows) for m, rows in product.items()}
    for k in range(1, n + 1):
        coeffs[n - k] = MultiPoly(
            p, {m: QuadExt._make(-tx, -ty, k * den) for m, (tx, ty) in traces.items() if tx or ty}
        )
        if k == n:
            break
        # P_(k+1) = (k A N - Tr(N) A) / (k op_den den) for P_k = N / den;
        # the terms of the monomial t^m' are the (A_a, N_m) with m + e_a = m'.
        sources: dict[tuple[int, ...], list] = {}
        for m, rows in product.items():
            for a_rows, unit in active:
                target = tuple(e + f for e, f in zip(m, unit))
                sources.setdefault(target, []).append((a_rows, rows, traces[m]))
        den *= k * op_den
        g = den
        product = {}
        for target, terms in sources.items():
            rows = _product(terms, n, k)
            if any(rows):
                product[target] = rows
                for row in rows:
                    if g == 1:
                        break
                    for _, x, y in row:
                        g = math.gcd(g, x, y)
        if g != 1:
            product = {
                m: [[(l, x // g, y // g) for l, x, y in row] for row in rows]
                for m, rows in product.items()
            }
            den //= g
        traces = {m: _trace(rows) for m, rows in product.items()}
    return UniPoly(coeffs)


def _trace(rows: list[Row]) -> tuple[int, int]:
    tx = ty = 0
    for i, row in enumerate(rows):
        for l, x, y in row:
            if l == i:
                tx += x
                ty += y
    return tx, ty


def _product(terms, n: int, k: int) -> list[Row]:
    """Sparse rows of the sum of k A_a N_m - Tr(N_m) A_a over the terms
    (A_a, N_m, Tr(N_m)).  The sum is symmetric, so only its lower triangle
    is accumulated (rows are sorted by column), then mirrored."""
    accx = [[0] * n for _ in range(n)]
    accy = [[0] * n for _ in range(n)]
    for a_rows, m_rows, (tx, ty) in terms:
        for i, (a_row, rx, ry) in enumerate(zip(a_rows, accx, accy)):
            for j, ax, ay in a_row:
                if j <= i and (tx or ty):
                    rx[j] -= ax * tx + 3 * ay * ty
                    ry[j] -= ax * ty + ay * tx
                ax *= k
                ay *= k
                ay3 = 3 * ay
                for l, mx, my in m_rows[j]:
                    if l > i:
                        break
                    rx[l] += ax * mx + ay3 * my
                    ry[l] += ax * my + ay * mx
    rows: list[Row] = []
    for i, (rx, ry) in enumerate(zip(accx, accy)):
        row = [(l, rx[l], ry[l]) for l in compress(range(i + 1), map(or_, rx, ry))]
        for l, x, y in row:
            if l < i:
                rows[l].append((i, x, y))
        rows.append(row)
    return rows


def symbolic_sweep(data: ShapeOperatorSet) -> SweepVerdict:
    """Exact verdict: is char_poly(A(t)) the same for every unit normal t?"""
    poly = normal_char_poly(data)
    reduced = [reduce_mod_sphere(c) for c in poly.coeffs]
    for power, coeff in enumerate(reduced):
        if not coeff.is_constant():
            return SweepVerdict(False, None, coeff, power)
    constants = UniPoly(c.constant_value() for c in reduced)
    return SweepVerdict(True, constants, None, None)


def unit_normal_samples(p: int, samples: int, seed: int) -> list[tuple[float, ...]]:
    """Deterministic unit normals: alternating signs (p=1), jittered angles
    (p=2), normalized Gaussian deviates (p>=3)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    points: list[tuple[float, ...]] = []
    if p == 1:
        for i in range(samples):
            points.append((1.0 if i % 2 == 0 else -1.0,))
    elif p == 2:
        step = 2.0 * math.pi / samples
        for i in range(samples):
            theta = i * step + rng.uniform(0.0, step)
            points.append((math.cos(theta), math.sin(theta)))
    else:
        while len(points) < samples:
            coords = [rng.gauss(0.0, 1.0) for _ in range(p)]
            norm = math.sqrt(math.fsum(c * c for c in coords))
            if norm < 1e-9:
                continue
            points.append(tuple(c / norm for c in coords))
    return points


def _scale_exponent(data: ShapeOperatorSet) -> int:
    """Smallest e >= 0 that brings every |entry| / 2^e below 2, in floats
    (OverflowError for an entry beyond the float range)."""
    e = 0
    for op in data.operators:
        for row in op.rows:
            for entry in row:
                e = max(e, math.frexp(entry.to_float())[1] - 1)
    return e


def numeric_sweep(data: ShapeOperatorSet, samples: int, seed: int = 0) -> float:
    """Max absolute drift of any char_poly coefficient across sampled normals.

    The drift is that of A(t) / 2^e, with e from _scale_exponent: constancy
    does not depend on scale, and an absolute tolerance then means the same
    at every scale.  Data whose entries are all below 2 is not scaled.

    NaN as soon as one drift is NaN (an evaluation overflowed both ways), so
    that no tolerance test can pass it.  At least two samples are needed:
    one sample has nothing to be compared with.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    coeffs = normal_char_poly(data).coeffs
    e = _scale_exponent(data)
    if e:
        # char_poly(A / 2^e) has the coefficient of lambda^j divided by 2^(e(n-j))
        coeffs = [c / (1 << e * (data.n - j)) for j, c in enumerate(coeffs)]
    points = unit_normal_samples(data.p, samples, seed)
    baseline = [eval_float(c, points[0]) for c in coeffs]
    deviation = 0.0
    for point in points[1:]:
        for base, coeff in zip(baseline, coeffs):
            drift = abs(eval_float(coeff, point) - base)
            if math.isnan(drift):
                return drift
            deviation = max(deviation, drift)
    return deviation

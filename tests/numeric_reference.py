"""The numeric sweep evaluated the plain way, without packed integer pairs,
shared power columns or the skipping of coefficients that are zero or one
constant: each distinct block's polynomial made a UniPoly over MultiPoly
(`sweep._poly`) and its coefficients evaluated with power ladders of their
own; only if one drifts by the tolerance or more, the blocks multiplied by
`MultiPoly.__mul__` and their product evaluated alike.  The tests hold
`numeric_sweep` to it repr for repr, so every float bit of the cross-check
is pinned."""

import math
from itertools import islice, repeat
from operator import add, mul

from willmore import sweep
from willmore.exactnum import accumulate
from willmore.linalg import UniPoly
from willmore.polyring import MultiPoly, float_terms


def reference_product(blocks):
    """The product of the (polynomial, copies) blocks, lowest power of lambda
    first: the partial products of each power accumulate into one term table,
    one `MultiPoly.__mul__` for each pair of coefficients."""
    coeffs = None
    for poly, copies in blocks:
        for _ in range(copies):
            if coeffs is None:
                coeffs = poly.coeffs
                continue
            out = [{} for _ in range(len(coeffs) + poly.degree())]
            for i, a in enumerate(coeffs):
                for j, b in enumerate(poly.coeffs):
                    accumulate(out[i + j], (a * b).terms.items())
            coeffs = [MultiPoly._of(a.nvars, terms) for terms in out]
    return UniPoly(coeffs)


def reference_eval_terms(terms, columns, size):
    """`float_terms` at `size` points, columns[d] holding coordinate d of
    every point, with power ladders built afresh for this call."""
    powers = [[None, column] for column in columns]
    total = [0.0] * size
    for coeff, factors in terms:
        value = repeat(coeff, size)
        for d, e in factors:
            ladder = powers[d]
            while len(ladder) <= e:
                ladder.append(list(map(mul, ladder[-1], columns[d])))
            value = map(mul, value, ladder[e])
        total = list(map(add, total, value))
    return total


def blockwise(data, drift):
    """The deviation as `numeric_sweep` takes it, `drift` giving that of a list
    of MultiPoly coefficients of A(t) / 2^e, e read from every entry: the
    drift of every distinct block's coefficients, or of their product's when
    that is the tolerance or more and the product is not a single block.  The
    coefficient of lambda^j of a polynomial of degree b is divided by 2^(e(b - j))."""
    blocks = [(sweep._poly(poly, data.n + 1, data.p), copies) for poly, copies in sweep._distinct_blocks(data)]
    e = 0
    for op in data.operators:
        for row in op.rows:
            for entry in row:
                e = max(e, math.frexp(entry.to_float())[1] - 1)

    def scaled(poly):
        coeffs = poly.coeffs
        return [c / (1 << e * (len(coeffs) - 1 - j)) for j, c in enumerate(coeffs)] if e else list(coeffs)

    deviation = drift([c for poly, _ in blocks for c in scaled(poly)])
    if deviation >= sweep.NUMERIC_TOLERANCE and (len(blocks) > 1 or blocks[0][1] > 1):
        deviation = drift(scaled(reference_product(blocks)))
    return deviation


def reference_numeric_sweep(data, samples, seed):
    """`numeric_sweep` on `reference_product` and `reference_eval_terms`, the
    drifts taken one by one."""

    def drift(coeffs):
        terms = [float_terms(c) for c in coeffs]
        points = sweep.unit_normal_samples(data.p, 2 if data.p == 1 else samples, seed)
        first = [(x,) for x in next(points)]
        baseline = [reference_eval_terms(t, first, 1)[0] for t in terms]
        deviation = 0.0
        while columns := list(zip(*islice(points, sweep.CHUNK_POINTS))):
            for base, t in zip(baseline, terms):
                drifts = [abs(v - base) for v in reference_eval_terms(t, columns, len(columns[0]))]
                total = sum(drifts)
                if total != total:
                    return total
                deviation = max(deviation, max(drifts))
        return deviation

    return blockwise(data, drift)

"""The numeric sweep as it was evaluated before the blocks were multiplied in
packed integer pairs, the power columns were shared and the coefficients
that are zero or one constant were skipped: each block's polynomial made a
UniPoly over MultiPoly (`sweep._poly`) and the blocks multiplied by
`MultiPoly.__mul__`, and every coefficient's terms evaluated with power
ladders of their own.  The tests hold `numeric_sweep` to it repr for repr, so
every float bit of the cross-check stays as it was."""

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


def reference_numeric_sweep(data, samples, seed):
    """`numeric_sweep` on `reference_product` and `reference_eval_terms`,
    every entry read by the scale exponent, the drifts taken one by one."""
    blocks = [(sweep._poly(poly, data.n + 1, data.p), copies) for poly, copies in sweep._distinct_blocks(data)]
    coeffs = reference_product(blocks).coeffs
    e = 0
    for op in data.operators:
        for row in op.rows:
            for entry in row:
                e = max(e, math.frexp(entry.to_float())[1] - 1)
    if e:
        coeffs = [c / (1 << e * (data.n - j)) for j, c in enumerate(coeffs)]
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

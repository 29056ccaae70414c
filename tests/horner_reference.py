"""The recursive Horner evaluation that `polyring.eval_float` used before
Horner plans: the groups of each variable are rebuilt and every coefficient
is converted to float at each call.  The tests hold the plans to it bit for
bit, since the golden files leave numeric sweeps out (libm differs between
platforms) and a same-machine reference is the only exact one."""

import math

from willmore.catalog import ShapeOperatorSet
from willmore.sweep import _scale_exponent, normal_char_poly, unit_normal_samples


def _horner(terms, point):
    """The MultiPoly term table `terms` at `point`."""
    return _horner_from(list(terms.items()), point, 0) if terms else 0.0


def _horner_from(terms, point, d):
    """Horner's rule in point[d] over the (exponents, coefficient) pairs
    `terms`, whose exponents agree before d: its coefficients grouped by
    exps[d], each by Horner's rule in the later coordinates."""
    if d == len(point):
        return terms[0][1].to_float()
    groups = {}
    for term in terms:
        groups.setdefault(term[0][d], []).append(term)
    x = point[d]
    acc = 0.0
    for e in range(max(groups), -1, -1):
        acc *= x
        sub = groups.get(e)
        if sub is not None:
            acc += _horner_from(sub, point, d + 1)
    return acc


def reference_numeric_sweep(data: ShapeOperatorSet, samples: int, seed: int) -> float:
    """`sweep.numeric_sweep` with every coefficient evaluated by `_horner`."""
    coeffs = normal_char_poly(data).coeffs
    e = _scale_exponent(data)
    if e:
        coeffs = [c / (1 << e * (data.n - j)) for j, c in enumerate(coeffs)]
    points = list(unit_normal_samples(data.p, samples, seed))
    baseline = [_horner(c.terms, points[0]) for c in coeffs]
    deviation = 0.0
    for point in points[1:]:
        for base, coeff in zip(baseline, coeffs):
            drift = abs(_horner(coeff.terms, point) - base)
            if math.isnan(drift):
                return drift
            deviation = max(deviation, drift)
    return deviation

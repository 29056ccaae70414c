"""An independent test of constancy on the unit sphere, for homogeneous
polynomials, that reads the term table and rewrites nothing: the tests
compare `polyring.reduce_mod_sphere`, which decides in the package, with it."""

import math
from itertools import combinations_with_replacement

from willmore.exactnum import ZERO, QuadExt
from willmore.polyring import MultiPoly


def sphere_constant(f: MultiPoly, degree: int) -> QuadExt | None:
    """f(e1) if f = f(e1) * (t1^2 + ... + tp^2)^(degree/2), else None.

    For f homogeneous of degree k this is exactly constancy on the unit
    sphere, at p = 1 too: f(t) = |t|^k f(t/|t|), so f is constant c on the
    sphere iff f = c |t|^k.  For odd k that is a polynomial only if c = 0; for
    k = 2h the multinomial expansion of (sum t_a^2)^h gives t^(2m) the
    coefficient c h! / prod m_a! for |m| = h, and no other monomial.  The
    whole term table is compared, so a polynomial that is not homogeneous of
    degree k is never reported constant.
    """
    if not f.terms:
        return ZERO
    lead = f.terms.get((degree,) + (0,) * (f.nvars - 1))
    if degree % 2 or lead is None:
        return None
    half = degree // 2
    expected = {}
    for combo in combinations_with_replacement(range(f.nvars), half):
        m = [combo.count(a) for a in range(f.nvars)]
        expected[tuple(2 * e for e in m)] = lead * (math.factorial(half) // math.prod(map(math.factorial, m)))
    return lead if f.terms == expected else None

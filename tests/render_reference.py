"""Renderers that the package's text layer replaced, kept as references.

The two renderers of signed sums that `exactnum.format_sum` replaces, as
`UniPoly.render` and `MultiPoly.__str__` had them, with `self` the
polynomial, and `exactnum.format_scalar` as it was when it wrote each part
through a `Fraction`.  The tests hold the package's text to them character
for character."""

import sys
from fractions import Fraction

from willmore.exactnum import ScalarRenderError


def format_scalar(value) -> str:
    """Canonical text of a + b*sqrt3, each part written by str(Fraction)."""
    a, b = Fraction(value.x, value.d), Fraction(value.y, value.d)
    try:
        if b == 0:
            return str(a)
        mag = "sqrt3" if abs(b) == 1 else f"{abs(b)}*sqrt3"
        if a == 0:
            return mag if b > 0 else f"-{mag}"
        return f"{a}+{mag}" if b > 0 else f"{a}-{mag}"
    except ValueError:  # an int with more digits than str() writes
        digits = sys.get_int_max_str_digits()
        raise ScalarRenderError(f"a value has more than {digits} digits and cannot be written") from None


def unipoly_render(self, var: str = "l") -> str:
    """Canonical text, highest degree first; coefficients in scalar grammar."""
    if not self.coeffs:
        return "0"
    parts: list[str] = []
    for k in range(self.degree(), -1, -1):
        c = self.coeffs[k]
        if not c:
            continue
        negative = c.sign() < 0 if hasattr(c, "sign") else False
        mag = -c if negative else c
        text = str(mag)
        if "+" in text or (text.count("-") and not text.startswith("-")):
            text = f"({text})"
        if k == 0:
            term = text
        else:
            power = var if k == 1 else f"{var}^{k}"
            term = power if mag == 1 else f"{text}*{power}"
        if not parts:
            parts.append(f"-{term}" if negative else term)
        else:
            parts.append(f"- {term}" if negative else f"+ {term}")
    return " ".join(parts)


def multipoly_str(self) -> str:
    if not self.terms:
        return "0"
    parts: list[str] = []
    for exps in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
        coeff = self.terms[exps]
        negative = coeff.sign() < 0
        mag = -coeff if negative else coeff
        factors = [
            f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}"
            for i, e in enumerate(exps)
            if e
        ]
        text = str(mag)
        if "+" in text or (text.count("-") and not text.startswith("-")):
            text = f"({text})"
        if not factors:
            term = text
        elif mag == 1:
            term = "*".join(factors)
        else:
            term = "*".join([text] + factors)
        if not parts:
            parts.append(f"-{term}" if negative else term)
        else:
            parts.append(f"- {term}" if negative else f"+ {term}")
    return " ".join(parts)

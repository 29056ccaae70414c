"""The g=4 relations as rules-file text, and as untraced words, shared by
the tests."""

from willmore.tracealg import TraceExpr


def g4_rules_text(p):
    """The g=4 relations as a rules file in the form the benchmark writes:
    cubes as `lhs = rhs`, powers compressed, the rest `= 0`."""
    lines = [f"Tr(A{a}^3) = Tr(A{a})" for a in range(1, p + 1)]
    lines += [
        f"Tr(A{a}) - Tr(A{b}^2*A{a}) - Tr(A{b}*A{a}*A{b}) - Tr(A{a}*A{b}^2) = 0"
        for a in range(1, p + 1)
        for b in range(1, p + 1)
        if a != b
    ]
    lines += [f"Tr(A{a}) = 0" for a in range(1, p + 1)]
    return "# g=4 hypotheses\n" + "\n".join(lines) + "\n"


def g4_relations_untraced(p, letters=None):
    """The g=4 relations as `tracealg.g4_relations` lists them, built from the
    untraced words of each identity: `TraceExpr`'s cyclic canonicalization
    traces them, and the three rotations in a conjugation add up to -3."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if letters is None:
        letters = range(1, p + 1)
    else:
        letters = list(letters)
        if any(not 1 <= a <= p for a in letters):
            raise ValueError(f"block letters must lie in 1..{p}: {letters}")
    cubes = [TraceExpr({(a,): 1, (a, a, a): -1}) for a in letters]
    conjugations = [
        TraceExpr({(a,): 1, (b, b, a): -1, (b, a, b): -1, (a, b, b): -1})
        for a in letters
        for b in range(1, p + 1)
        if b != a
    ]
    return cubes + conjugations + [TraceExpr({(a,): 1}) for a in letters]

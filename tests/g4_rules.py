"""The g=4 relations as rules-file text, shared by the tests."""


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

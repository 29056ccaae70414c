"""The rules reader's line check as it stood while the package ran on Python
3.10, without possessive quantifiers: one `fullmatch` per line of the
whole-line pattern, every quantifier backtracking.  The tests hold the
one-pass check over the joined text (`tracealg._LINES`) to it: the same
lines accepted, and the same relations and errors read."""

import re

from willmore.tracealg import _parse_rule, _rule_lines

_RATIONAL = r"[0-9]{1,20}(?:/[1-9][0-9]{0,19})?"
_SQRT3 = rf"(?:{_RATIONAL}\*)?sqrt3"
_SCALAR = rf"-?(?:{_RATIONAL}(?:[-+](?:{_RATIONAL}|{_SQRT3}))?|{_SQRT3}(?:[-+]{_RATIONAL})?)"
_POWER = r"A[1-9][0-9]{0,8}(?:\^[1-9][0-9]?)?"
_TERM = rf"(?:(?=[-(0-9s])(?:{_SCALAR}|\({_SCALAR}\))\s*\*\s*)?Tr\({_POWER}(?:\*{_POWER}){{0,99}}\)\s*"
_SIDE = rf"\s*{_TERM}(?:[-+]\s*{_TERM})*"
_LINE = re.compile(rf"{_SIDE}=(?:\s*0\s*|{_SIDE})", re.ASCII)


def accepts(line: str) -> bool:
    return _LINE.fullmatch(line) is not None


def relations(text: str) -> list:
    """A rules reader's relations after reading, checked line by line: None
    for a line the check accepts, else the line's relation, parsed in file
    order, so that the first line that fails raises."""
    return [None if accepts(line) else _parse_rule(number, line) for number, line in _rule_lines(text)]

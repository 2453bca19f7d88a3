"""Reference oracle: the number literal codec as it stood over ``Fraction``.

This is the ``Fraction`` parser and printer that ``ietlab.field``'s
``parse_number`` and ``format_number`` used before they moved to the
literal's integers.  ``parse_literal`` returns the normal form
``(p, q, den, d)`` of the value ``(p + q*sqrt(d)) / den``; it reads ASCII
digits only and the whole text (no trailing newline), and it rejects a
literal with ``ValueError``, or with ``ZeroDivisionError`` from
``Fraction`` when a denominator is zero.  ``format_literal`` prints a
normal form back as ``p/q`` or ``p/q+r/s*sqrt(d)``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional

_RAT = r"[+-]?[0-9]+(?:/[0-9]+)?"
_LIT_RE = re.compile(
    rf"(?P<rat>{_RAT})(?:(?P<root>[+-][0-9]+(?:/[0-9]+)?)\*sqrt\((?P<d1>[0-9]+)\))?"
    rf"|(?P<root2>{_RAT})\*sqrt\((?P<d2>[0-9]+)\)"
)


def parse_literal(text: str, d: Optional[int] = None) -> tuple[int, int, int, int]:
    m = _LIT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"bad number literal: {text!r}")
    if m.group("root2") is not None:
        a = Fraction(0)
        b = Fraction(m.group("root2"))
        lit_d = int(m.group("d2"))
    else:
        a = Fraction(m.group("rat"))
        if m.group("root") is not None:
            b = Fraction(m.group("root"))
            lit_d = int(m.group("d1"))
        else:
            b = Fraction(0)
            lit_d = 0
    if b != 0:
        if lit_d <= 0 or math.isqrt(lit_d) ** 2 == lit_d:
            raise ValueError(f"sqrt argument must be a positive non-square: {text!r}")
        if d is not None and lit_d != d:
            raise ValueError(f"literal {text!r} is not in the sqrt({d}) field")
    den = math.lcm(a.denominator, b.denominator)
    p = a.numerator * (den // a.denominator)
    q = b.numerator * (den // b.denominator)
    return p, q, den, lit_d if q else 0


def format_literal(p: int, q: int, den: int, d: int) -> str:
    a, b = Fraction(p, den), Fraction(q, den)
    rat = f"{a.numerator}/{a.denominator}"
    if b == 0:
        return rat
    sgn = "+" if b > 0 else "-"
    return f"{rat}{sgn}{abs(b).numerator}/{abs(b).denominator}*sqrt({d})"

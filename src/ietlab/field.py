"""Exact arithmetic in Q and in a fixed real quadratic field Q(sqrt(d)).

Every exact value the package takes or returns is a :class:`QuadNum`, an
exact value ``(p + q*sqrt(d)) / den`` held as four integers with a fixed
positive non-square ``d``; inside a map, values are the integer pairs of a
:class:`Frame`, which adds, subtracts and compares them as pairs over one
denominator.  Arithmetic, signs, comparisons, floors and the text
literals (:func:`parse_number` reads a literal's integers straight into
that form, :func:`format_number` prints it back from them) work on these
integers alone: no ``Fraction`` is built on any of those paths and no
floating point is ever consulted.

The module also provides exact rational linear programming
(:func:`lp_rational_point`): given affine equalities and strict
inequalities with rational coefficients that admit any real solution, it
produces a rational solution.  Its elimination is fraction-free: rows of
integers over a positive per-row denominator, with no ``Fraction`` built
inside the elimination loops.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

DEFAULT_FIELD = 2
_HASH_MOD = sys.hash_info.modulus

RationalLike = Union[int, Fraction]


class FieldMismatchError(ValueError):
    """Raised when values from different quadratic fields meet."""


class LiteralError(ValueError):
    """Raised when a number literal fails to parse."""


def is_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


def _join_fields(d1: int, d2: int) -> int:
    if d1 and d2 and d1 != d2:
        raise FieldMismatchError(f"cannot mix sqrt({d1}) and sqrt({d2}) values")
    return d1 or d2


def _sign(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d) for integers p, q and non-square d."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0 or (p > 0) == (q > 0):
        return 1 if q > 0 else -1
    # opposite signs: |p| against |q|sqrt(d), squared; never equal
    return 1 if (p * p > q * q * d) == (p > 0) else -1


def order_key(d: int, bits: int) -> tuple[int, int]:
    """(K, r) such that the integer key P*K + Q*r of a pair of integers
    orders the values P + Q*sqrt(d) exactly, equality included, over the
    box |P|, |Q| < 2**bits.

    K is a power of two and r = isqrt(d K^2), so theta = sqrt(d) K - r
    lies in (0, 1); with d = 0 every Q is 0, and K = 1, r = 0.

    Lemma.  If |Q| < B_Q, |P| < B_P and K > 4 B_Q (2 B_P + 2 B_Q sqrt(d)),
    keys compare as values.  Proof: take two pairs of the box, and write
    D = dP + dQ sqrt(d) for the difference of their values, with |dP| <
    2 B_P and |dQ| < 2 B_Q.  Their keys differ by K D - theta dQ.  If dQ =
    0 that is K dP, of the sign of D.  Otherwise D is not 0, as d is not a
    square, and D (dP - dQ sqrt(d)) is a nonzero integer, so |D| >= 1 /
    (|dP| + |dQ| sqrt(d)) > 1 / (2 B_P + 2 B_Q sqrt(d)).  Then |K D| >
    4 B_Q > |dQ| > |theta dQ|, and the keys differ with the sign of D.

    Here B_P = B_Q = 2**bits, and K = 2**(2 bits + s + 4) with sqrt(d) <
    2**s: 2 B_P + 2 B_Q sqrt(d) < 2**(bits + s + 2).
    """
    if not d:
        return 1, 0
    shift = 2 * bits + (math.isqrt(d) + 1).bit_length() + 4
    return 1 << shift, math.isqrt(d << 2 * shift)


class QuadNum:
    """Exact number (p + q*sqrt(d)) / den over the integers.

    The representation is normalized: ``den > 0``, ``gcd(p, q, den) = 1``
    and ``d = 0`` whenever ``q = 0``, so equal values have equal integers
    and rational values compare and hash alike whichever field they came
    from (and hash like the equal ``Fraction``).  ``a`` and ``b`` read the
    value as ``a + b*sqrt(d)`` with ``Fraction`` parts.  Instances are
    immutable by convention.  A ``float`` part raises ``TypeError``: it
    would be read as its binary value (``0.01`` as ``5764607523034235 /
    576460752303423488``), never as the decimal it was written as.

    ``+``, ``-``, the comparisons and ``==`` read a ``QuadNum`` operand's
    integers directly, skip the cross-multiplication when the denominators
    are equal, and take an ``int`` k without converting it:
    ``(p ± k*den, q, den)`` is already normalized, so it needs no gcd.  A
    ``Fraction`` operand is converted by :func:`_coerce` first.  No operator
    calls another one, so each operation is one call.
    """

    __slots__ = ("p", "q", "den", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 0):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("QuadNum takes int or Fraction parts, not float")
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        if b == 0:
            d = 0
        elif d <= 0 or is_square(d):
            raise ValueError(f"field index must be a positive non-square, got {d}")
        # over the lcm of two reduced denominators, gcd(p, q, den) is 1
        den = math.lcm(a.denominator, b.denominator)
        self.p = a.numerator * (den // a.denominator)
        self.q = b.numerator * (den // b.denominator)
        self.den = den
        self.d = d

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def of(x: "QuadNum | RationalLike") -> "QuadNum":
        if isinstance(x, QuadNum):
            return x
        return QuadNum(x)

    @staticmethod
    def sqrt(d: int, scale: RationalLike = 1) -> "QuadNum":
        """scale * sqrt(d)."""
        return QuadNum(0, scale, d)

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return Fraction(self.p, self.den)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(d)."""
        return Fraction(self.q, self.den)

    def is_rational(self) -> bool:
        return self.q == 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not QuadNum:
            if isinstance(other, int):
                return _raw(self.p + other * self.den, self.q, self.den, self.d)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d = self.d
        if d != other.d:
            d = _join_fields(d, other.d)
        den = self.den
        if den == other.den:
            return _quad(self.p + other.p, self.q + other.q, den, d)
        oden = other.den
        return _quad(self.p * oden + other.p * den, self.q * oden + other.q * den, den * oden, d)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not QuadNum:
            if isinstance(other, int):
                return _raw(self.p - other * self.den, self.q, self.den, self.d)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d = self.d
        if d != other.d:
            d = _join_fields(d, other.d)
        den = self.den
        if den == other.den:
            return _quad(self.p - other.p, self.q - other.q, den, d)
        oden = other.den
        return _quad(self.p * oden - other.p * den, self.q * oden - other.q * den, den * oden, d)

    def __rsub__(self, other):
        if isinstance(other, int):
            return _raw(other * self.den - self.p, -self.q, self.den, self.d)
        o = _coerce(other)
        if o is None:
            return NotImplemented
        d = _join_fields(self.d, o.d)
        return _quad(
            o.p * self.den - self.p * o.den, o.q * self.den - self.q * o.den, self.den * o.den, d
        )

    def __neg__(self):
        return _raw(-self.p, -self.q, self.den, self.d)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        d = _join_fields(self.d, o.d)
        p1, q1, p2, q2 = self.p, self.q, o.p, o.q
        return _quad(p1 * p2 + q1 * q2 * d, p1 * q2 + q1 * p2, self.den * o.den, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _divide(self, o)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _divide(o, self)

    # -- order ---------------------------------------------------------------

    def sign(self) -> int:
        """Sign of the value, by integer arithmetic (never floats)."""
        return _sign(self.p, self.q, self.d)

    def _cmp(self, other) -> Optional[int]:
        if other.__class__ is not QuadNum:
            if isinstance(other, int):
                return _sign(self.p - other * self.den, self.q, self.d)
            other = _coerce(other)
            if other is None:
                return None
        d = self.d
        if d != other.d:
            d = _join_fields(d, other.d)
        den = self.den
        if den == other.den:
            p, q = self.p - other.p, self.q - other.q
        else:
            oden = other.den
            p, q = self.p * oden - other.p * den, self.q * oden - other.q * den
        # the sign of p + q*sqrt(d), as in _sign
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0 or (p > 0) == (q > 0):
            return 1 if q > 0 else -1
        return 1 if (p * p > q * q * d) == (p > 0) else -1

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __eq__(self, other):
        if other.__class__ is not QuadNum:
            if isinstance(other, int):
                return self.den == 1 and self.q == 0 and self.p == other
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return (
            self.p == other.p and self.q == other.q and self.den == other.den and self.d == other.d
        )

    _equal = __eq__  # for __ne__: a wrapped __eq__ would count twice

    def __ne__(self, other):
        r = self._equal(other)
        return r if r is NotImplemented else not r

    def __hash__(self):
        if self.q == 0:
            return hash(self.p) if self.den == 1 else hash(Fraction(self.p, self.den))
        return hash((self.p, self.q, self.den, self.d))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __abs__(self):
        return _raw(-self.p, -self.q, self.den, self.d) if self.sign() < 0 else self

    # -- integer parts -------------------------------------------------------

    def floor(self) -> int:
        # floor((p + x) / den) = floor((p + floor(x)) / den) for integer p and
        # den > 0; floor(q*sqrt(d)) is exact from isqrt since q*q*d is never
        # a square for q != 0
        q = self.q
        if q == 0:
            return self.p // self.den
        s = math.isqrt(q * q * self.d)
        return (self.p + (s if q > 0 else -s - 1)) // self.den

    def mod(self, length: "QuadNum") -> "QuadNum":
        """Reduce into [0, length) for length > 0."""
        return self - length * (self / length).floor()

    # -- formatting ----------------------------------------------------------

    def __repr__(self):
        return f"QuadNum({format_number(self)!r})"

    def __str__(self):
        return format_number(self)


def _quad(p: int, q: int, den: int, d: int) -> QuadNum:
    """Normalized (p + q*sqrt(d)) / den from integers with den > 0."""
    g = math.gcd(p, q, den)
    if g != 1:
        p, q, den = p // g, q // g, den // g
    x = object.__new__(QuadNum)
    x.p, x.q, x.den, x.d = p, q, den, d if q else 0
    return x


def _raw(p: int, q: int, den: int, d: int) -> QuadNum:
    """(p + q*sqrt(d)) / den from integers that are already normalized."""
    x = object.__new__(QuadNum)
    x.p, x.q, x.den, x.d = p, q, den, d
    return x


def _divide(x: QuadNum, y: QuadNum) -> QuadNum:
    d = _join_fields(x.d, y.d)
    p1, q1, p2, q2 = x.p, x.q, y.p, y.q
    # multiply through by the conjugate p2 - q2*sqrt(d); its norm is
    # zero only for y == 0 because d is not a square
    norm = p2 * p2 - q2 * q2 * d
    if norm == 0:
        raise ZeroDivisionError("division by zero")
    p = (p1 * p2 - q1 * q2 * d) * y.den
    q = (q1 * p2 - p1 * q2) * y.den
    den = x.den * norm
    if den < 0:
        p, q, den = -p, -q, -den
    return _quad(p, q, den, d)


def _coerce(x) -> Optional[QuadNum]:
    if isinstance(x, QuadNum):
        return x
    if isinstance(x, int):
        return _quad(x, 0, 1, 0)
    if isinstance(x, Fraction):
        return _quad(x.numerator, 0, x.denominator, 0)
    return None


class Frame:
    """Exact values as integer pairs over one denominator in one field.

    A value x of the frame is ``(P + Q*sqrt(d)) / den`` with ``coord(x) =
    (P, Q)``: ``den`` is the lcm of the values' denominators and ``d`` their
    field (0 when all are rational), so their integer combinations add and
    subtract as pairs and compare by the sign ``_sign(P, Q, d)``, and
    ``value((P, Q))`` is the ``QuadNum`` back.  Two fields raise
    :class:`FieldMismatchError`.

    ``coord``, ``value``, ``add``, ``sub``, ``sign``, ``cmp`` and ``join``
    are the frame protocol that :class:`ietlab.core.Iet` computes with;
    ``ietlab.approx.TraceRecorder`` is the other frame that follows it.
    """

    __slots__ = ("d", "den")

    def __init__(self, values: Sequence[QuadNum]):
        d = 0
        for v in values:
            if v.d and v.d != d:
                d = _join_fields(d, v.d)
        self.d = d
        # a list, not a generator: lcm(*generator) leaves odd-sized tuples
        # on CPython's free lists, which only a full collection clears
        self.den = math.lcm(*[v.den for v in values])

    def coord(self, x: QuadNum) -> tuple[int, int]:
        s = self.den // x.den
        return x.p * s, x.q * s

    def value(self, c: tuple[int, int]) -> QuadNum:
        return _quad(c[0], c[1], self.den, self.d)

    def meet(self, x: QuadNum) -> tuple["Frame", int, tuple[int, int]]:
        """The frame of this frame's values and x, the factor m by which
        its coordinates are this frame's, and x's coordinate on it: this
        frame itself, with m = 1, when x lies on it."""
        if not self.den % x.den and (x.d == self.d or not x.d):
            return self, 1, self.coord(x)
        out = object.__new__(Frame)
        out.d = _join_fields(self.d, x.d)
        out.den = math.lcm(self.den, x.den)
        return out, out.den // self.den, out.coord(x)

    @staticmethod
    def add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        return x[0] + y[0], x[1] + y[1]

    @staticmethod
    def sub(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        return x[0] - y[0], x[1] - y[1]

    def sign(self, c: tuple[int, int]) -> int:
        return _sign(c[0], c[1], self.d)

    def cmp(self, x: tuple[int, int], y: tuple[int, int]) -> int:
        """The sign of x - y, as ``_sign`` gives it (inlined: the kernel's
        most frequent call)."""
        p = x[0] - y[0]
        q = x[1] - y[1]
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0 or (p > 0) == (q > 0):
            return 1 if q > 0 else -1
        return 1 if (p * p > q * q * self.d) == (p > 0) else -1

    def join(self, other: "Frame") -> "Frame":
        """The frame of both frames' values: this one when the two agree,
        else a new one over the lcm of the denominators."""
        if other is self:
            return self
        if other.__class__ is not Frame:
            raise TypeError("an exact frame cannot meet a traced one")
        if other.den == self.den and other.d == self.d:
            return self
        out = object.__new__(Frame)
        out.d = _join_fields(self.d, other.d)
        out.den = math.lcm(self.den, other.den)
        return out

    def lift(self, pieces: list[tuple], frame: "Frame") -> list[tuple]:
        """Pieces (src, a, length, dst, b) on ``frame``, a frame this one
        joins, on this one."""
        s = self.den // frame.den
        return [
            (src, (a[0] * s, a[1] * s), (n[0] * s, n[1] * s), dst, (b[0] * s, b[1] * s))
            for src, a, n, dst, b in pieces
        ]

    def keys(self, coords: Sequence[tuple[int, int]]) -> list:
        """A key of each coordinate's value that no frame changes: P and Q
        over den taken modulo the hash modulus, so equal values key alike on
        any two frames.  A value whose own denominator the modulus divides
        keys as its normal form (never met in practice)."""
        if self.den % _HASH_MOD:
            inv = pow(self.den, -1, _HASH_MOD)
            return [(p * inv % _HASH_MOD, q * inv % _HASH_MOD) for p, q in coords]
        out = []
        for x in map(self.value, coords):
            if x.den % _HASH_MOD:
                inv = pow(x.den, -1, _HASH_MOD)
                out.append((x.p * inv % _HASH_MOD, x.q * inv % _HASH_MOD))
            else:
                out.append((x.p, x.q, x.den))
        return out


# -- literals ------------------------------------------------------------------
#
# Grammar (whitespace-free): RAT | RAT SIGN RAT*sqrt(D) | [SIGN]RAT*sqrt(D)
# with RAT = [+-]?digits[/digits] and a nonzero denominator; digits are the
# ASCII 0-9, and the literal is the whole text (no trailing newline).
# Serialization always emits the full "p/q" and "p/q+r/s*sqrt(d)" forms, so
# files are bit-exact round-trippers.  Both directions work on the literal's integers.

_RAT = r"[+-]?[0-9]+(?:/[0-9]+)?"
_LIT_RE = re.compile(
    rf"(?P<rat>{_RAT})(?:(?P<root>[+-][0-9]+(?:/[0-9]+)?)\*sqrt\((?P<d1>[0-9]+)\))?"
    rf"|(?P<root2>{_RAT})\*sqrt\((?P<d2>[0-9]+)\)"
)


def _ratio(rat: str) -> tuple[int, int]:
    num, _, den = rat.partition("/")
    return int(num), int(den or 1)


def parse_number(text: str, d: Optional[int] = None) -> QuadNum:
    """Parse a number literal; ``d`` (if given) pins the allowed field.

    The literal's integers go straight into the normal form: both parts
    over the lcm of their denominators, reduced by one gcd in :func:`_quad`.
    """
    m = _LIT_RE.fullmatch(text)
    if m is None:
        raise LiteralError(f"bad number literal: {text!r}")
    rat, root, lit_d = m.group("rat", "root", "d1")
    if rat is None:
        rat, root, lit_d = "0", m.group("root2"), m.group("d2")
    an, ad = _ratio(rat)
    bn, bd = _ratio(root) if root else (0, 1)
    if ad == 0 or bd == 0:
        raise LiteralError(f"zero denominator in number literal: {text!r}")
    den = math.lcm(ad, bd)
    q = bn * (den // bd)
    if q:
        lit_d = int(lit_d)
        if lit_d <= 0 or is_square(lit_d):
            raise LiteralError(f"sqrt argument must be a positive non-square: {text!r}")
        if d is not None and lit_d != d:
            raise LiteralError(f"literal {text!r} is not in the sqrt({d}) field")
    return _quad(an * (den // ad), q, den, lit_d if q else 0)


def format_number(x: QuadNum | RationalLike) -> str:
    """The literal ``p/q`` or ``p/q+r/s*sqrt(d)`` in lowest terms."""
    x = QuadNum.of(x)
    g = math.gcd(x.p, x.den)
    rat = f"{x.p // g}/{x.den // g}"
    if not x.q:
        return rat
    g = math.gcd(x.q, x.den)
    return f"{rat}{'+' if x.q > 0 else '-'}{abs(x.q) // g}/{x.den // g}*sqrt({x.d})"


# -- linear constraints ---------------------------------------------------------


class Rel(Enum):
    ZERO = "=0"
    POSITIVE = ">0"


@dataclass(frozen=True)
class LinConstraint:
    """Affine condition  coeffs . x + const  (= 0 | > 0)  over rational
    unknowns, with ``int`` or ``Fraction`` coefficients and constant.  The
    trace records coprime integers."""

    coeffs: tuple[RationalLike, ...]
    const: RationalLike
    relation: Rel

    def evaluate(self, x: Sequence[QuadNum | RationalLike]) -> QuadNum | Fraction:
        """Exact value at a rational or quadratic point."""
        if len(x) != len(self.coeffs):
            raise ValueError("dimension mismatch")
        return sum((c * v for c, v in zip(self.coeffs, x)), self.const)

    def satisfied_by(self, x: Sequence[QuadNum | RationalLike]) -> bool:
        v = self.evaluate(x)
        return v == 0 if self.relation is Rel.ZERO else v > 0


@dataclass(frozen=True)
class ConstraintSystem:
    dimension: int
    constraints: tuple[LinConstraint, ...]

    def __post_init__(self):
        for c in self.constraints:
            if len(c.coeffs) != self.dimension:
                raise ValueError(
                    f"constraint arity {len(c.coeffs)} != system dimension {self.dimension}"
                )

    def satisfied_by(self, x: Sequence[Fraction]) -> bool:
        return all(c.satisfied_by(x) for c in self.constraints)


class LpInternalError(RuntimeError):
    """The solver contradicted itself; indicates a bug, not unsolvability."""




# -- exact linear programming --------------------------------------------------
#
# Every elimination step works on integer rows: the row (v, den) stands for
# the rational vector v / den, with den > 0 and gcd(*v, den) = 1.  A step is
# one multiply-subtract per entry and one gcd per row: fraction-free like
# Bareiss's elimination, but each row is divided by its gcd rather than by
# the previous pivot.  Every entry keeps its exact value, so pivot choices
# are those of the textbook rational algorithm.

Row = tuple[list[int], int]


def _reduced(v: list[int], den: int) -> Row:
    g = math.gcd(den, *v)
    if g == 1:
        return v, den
    return [x // g for x in v], den // g


def _int_row(values: Sequence[RationalLike]) -> Row:
    """The rationals ``values`` as one reduced integer row."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _dot(a: Iterable[int], b: Iterable[int]) -> int:
    """Integer dot product over the shorter of the two."""
    return sum(map(operator.mul, a, b))


def _pivot(rows: list[Row], r: int, col: int) -> None:
    """Scale row ``r`` to 1 at ``col`` and clear ``col`` from every other row.

    This is the one elimination step behind the equality solve, both simplex
    phases and the shadow-price solve.
    """
    v, _ = rows[r]
    p = v[col]
    if p < 0:
        v, p = [-x for x in v], -p
    rows[r] = (pv, pd) = _reduced(v, p)
    for i, (w, d) in enumerate(rows):
        f = w[col]
        if f and i != r:
            # w/d - (f/d) * (pv/pd), since pv/pd is 1 at col
            rows[i] = _reduced([a * pd - f * b for a, b in zip(w, pv)], d * pd)


def _row_reduce(rows: list[Row], ncols: int) -> list[int]:
    """Bring ``rows`` to reduced row echelon form over the first ``ncols``
    columns, in place; returns the pivot column of each leading row (the
    remaining rows are zero in those columns)."""
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][0][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        _pivot(rows, r, col)
        pivots.append(col)
    return pivots


def _simplex_min(rows: list[Row], cost: Row) -> Optional[tuple[Fraction, list[int]]]:
    """Two-phase exact simplex, Bland's rule:  min cost . y  s.t.  A y = b,
    y >= 0, where row i of ``rows`` holds A's row i followed by b_i >= 0.

    Returns (optimal value, basis column indices) or None when infeasible.
    Unboundedness is impossible for the programs built here and raises
    LpInternalError.
    """
    m, n = len(rows), len(cost[0])
    # tableau with artificial variables n..n+m-1; row m holds the reduced costs
    tab = [
        (v[:n] + [d if j == i else 0 for j in range(m)] + v[n:], d) for i, (v, d) in enumerate(rows)
    ]
    tab.append(([], 1))
    basis = list(range(n, n + m))

    def run(c: list[int], cden: int, allowed: int) -> tuple[int, int]:
        tab[m] = (c + [0] * (n + m + 1 - len(c)), cden)
        # pivoting on each basic column again clears it from the cost row
        # alone: the tableau rows are already reduced against the basis
        for i, b in enumerate(basis):
            _pivot(tab, i, b)
        while True:
            zv, zd = tab[m]
            col = next((j for j in range(allowed) if zv[j] < 0), None)
            if col is None:
                return -zv[-1], zd
            # Bland: smallest ratio b_i / a_i over a_i > 0 (the row denominator
            # cancels), ties by smallest basis variable index
            row = None
            for i in range(m):
                a = tab[i][0][col]
                if a > 0:
                    rhs = tab[i][0][-1]
                    if row is None or rhs * best_a < best_rhs * a or (
                        rhs * best_a == best_rhs * a and basis[i] < basis[row]
                    ):
                        row, best_a, best_rhs = i, a, rhs
            if row is None:
                raise LpInternalError("unbounded program (cannot happen: objective capped)")
            _pivot(tab, row, col)
            basis[row] = col

    # phase 1: minimize the sum of artificials
    if run([0] * n + [1] * m, 1, n + m)[0] > 0:
        return None
    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][0][j]), None)
            if col is not None:
                _pivot(tab, i, col)
                basis[i] = col
    # rows whose basis is still artificial are identically zero; keep them inert
    val = run(cost[0], cost[1], n)
    return Fraction(*val), basis


def lp_rational_point(system: ConstraintSystem) -> Optional[tuple[Fraction, ...]]:
    """Rational point satisfying every constraint (equalities exactly,
    strict inequalities strictly), or None when no real solution exists.

    Method: eliminate the equalities, then maximize a slack t subject to
    every strict form >= t and t <= 1 by a two-phase simplex with
    deterministic (Bland) pivoting; success iff the optimum satisfies
    t* > 0.  The program is solved through its dual, whose row count is the
    number of free unknowns plus one.  All of it is fraction-free: rows are
    integers over a positive per-row denominator, so each step is exact and
    picks the pivots exact rational arithmetic would.  The returned point is
    re-substituted into the original system, as integer dot products over a
    common denominator, before being returned.
    """
    n = system.dimension
    rows = [
        (_int_row(c.coeffs + (c.const,)), c.relation is Rel.ZERO) for c in system.constraints
    ]

    # equalities  coeffs . x = -const,  in reduced row echelon form
    eqs = [(v[:n] + [-v[n]], d) for (v, d), is_eq in rows if is_eq]
    pivots = _row_reduce(eqs, n)
    if any(v[n] for v, _ in eqs[len(pivots) :]):
        return None  # 0 = nonzero
    # solutions are (x0 + sum_k y_k basis_k) / den over the free coordinates y
    den = math.lcm(*(d for _, d in eqs[: len(pivots)]))
    x0 = [0] * n
    for (v, d), col in zip(eqs, pivots):
        x0[col] = v[n] * (den // d)
    basis = []
    for fc in sorted(set(range(n)) - set(pivots)):
        bv = [0] * n
        bv[fc] = den
        for (v, d), col in zip(eqs, pivots):
            bv[col] = -v[fc] * (den // d)
        basis.append(bv)
    f = len(basis)

    # strict rows over the free coordinates, alpha . y + gamma > 0, each held
    # as the integer row (alpha, gamma) over its denominator
    reduced: dict[tuple, Row] = {}
    for (v, d), is_eq in rows:
        if is_eq:
            continue
        gamma = _dot(v[:n], x0) + v[n] * den
        alpha = [_dot(v, bv) for bv in basis]
        if not any(alpha):
            if gamma <= 0:
                return None
            continue
        # same direction twice: keep the binding (smallest constant) copy
        dir_v, dir_d = _reduced(alpha, d * den)
        key = (tuple(dir_v), dir_d)
        row = _reduced(alpha + [gamma], d * den)
        prev = reduced.get(key)
        if prev is None or row[0][f] * prev[1] < prev[0][f] * row[1]:
            reduced[key] = row

    def finish(y: list[tuple[int, int]]) -> tuple[Fraction, ...]:
        yden = math.lcm(*(yd for _, yd in y))
        x = [xi * yden for xi in x0]
        for (yn, yd), bv in zip(y, basis):
            s = yn * (yden // yd)
            x = [xi + s * bi for xi, bi in zip(x, bv)]
        xden = den * yden
        for (v, _), is_eq in rows:
            s = _dot(v, x) + v[n] * xden
            if (s != 0) if is_eq else (s <= 0):
                raise LpInternalError("solver returned a point violating the system")
        return tuple(Fraction(xi, xden) for xi in x)

    if not reduced:
        return finish([])

    strict = list(reduced.values())
    mcnt = len(strict)
    lcm = math.lcm(*(d for _, d in strict))
    scale = [lcm // d for _, d in strict]

    # dual of  max t  s.t.  t - alpha_j.y <= gamma_j,  t <= 1:
    #   min  y0 + sum gamma_j yj   s.t.  y0 + sum yj = 1,  sum yj alpha_j = 0,  y >= 0
    a_rows = [([1] * (mcnt + 2), 1)]
    for i in range(f):
        a_rows.append(_reduced([0] + [-v[i] * s for (v, _), s in zip(strict, scale)] + [0], lcm))
    cost = _reduced([lcm] + [v[f] * s for (v, _), s in zip(strict, scale)], lcm)

    res = _simplex_min(a_rows, cost)
    if res is None:
        raise LpInternalError("dual infeasible (cannot happen: primal is bounded)")
    t_star, dbasis = res
    if t_star <= 0:
        return None

    # primal maximizer = shadow prices of the dual: solve B^T pi = c_B on the
    # original dual columns for the final basis, one row per basic column
    bt: list[Row] = []
    for bi in dbasis:
        if bi == 0:
            bt.append(([1] + [0] * f + [1], 1))
        elif bi <= mcnt:
            v, d = strict[bi - 1]
            bt.append(([d] + [-a for a in v[:f]] + [v[f]], d))
        else:
            # inert artificial row (redundant dual constraint): pins nothing
            unit = [0] * (f + 2)
            unit[bi - mcnt - 1] = 1
            bt.append((unit, 1))
    if _row_reduce(bt, f + 1) != list(range(f + 1)):
        raise LpInternalError("degenerate dual basis")
    pi = [(v[f + 1], d) for v, d in bt]
    if Fraction(*pi[0]) != t_star:
        raise LpInternalError("dual/primal objective mismatch")
    return finish(pi[1:])

"""Exact arithmetic in Q and in a fixed real quadratic field Q(sqrt(d)).

Every coordinate in this package is a :class:`QuadNum`, an exact value
``(p + q*sqrt(d)) / den`` held as four integers with a fixed positive
non-square ``d``.  Arithmetic, signs, comparisons and floors work on these
integers alone: no ``Fraction`` is built on any of those paths and no
floating point is ever consulted.

The module also provides exact rational linear programming
(:func:`lp_rational_point`): given affine equalities and strict
inequalities with rational coefficients that admit any real solution, it
produces a rational solution.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

DEFAULT_FIELD = 2

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


class QuadNum:
    """Exact number (p + q*sqrt(d)) / den over the integers.

    The representation is normalized: ``den > 0``, ``gcd(p, q, den) = 1``
    and ``d = 0`` whenever ``q = 0``, so equal values have equal integers
    and rational values compare and hash alike whichever field they came
    from (and hash like the equal ``Fraction``).  ``a`` and ``b`` read the
    value as ``a + b*sqrt(d)`` with ``Fraction`` parts.  Instances are
    immutable by convention.
    """

    __slots__ = ("p", "q", "den", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 0):
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
        o = _coerce(other)
        if o is None:
            return NotImplemented
        d = _join_fields(self.d, o.d)
        return _quad(
            self.p * o.den + o.p * self.den, self.q * o.den + o.q * self.den, self.den * o.den, d
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        d = _join_fields(self.d, o.d)
        return _quad(
            self.p * o.den - o.p * self.den, self.q * o.den - o.q * self.den, self.den * o.den, d
        )

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _quad(-self.p, -self.q, self.den, self.d)

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
        d = _join_fields(self.d, o.d)
        p1, q1, p2, q2 = self.p, self.q, o.p, o.q
        # multiply through by the conjugate p2 - q2*sqrt(d); its norm is
        # zero only for o == 0 because d is not a square
        norm = p2 * p2 - q2 * q2 * d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        p = (p1 * p2 - q1 * q2 * d) * o.den
        q = (q1 * p2 - p1 * q2) * o.den
        den = self.den * norm
        if den < 0:
            p, q, den = -p, -q, -den
        return _quad(p, q, den, d)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- order ---------------------------------------------------------------

    def sign(self) -> int:
        """Sign of the value, by integer arithmetic (never floats)."""
        return _sign(self.p, self.q, self.d)

    def _cmp(self, other) -> Optional[int]:
        o = _coerce(other)
        if o is None:
            return None
        d = _join_fields(self.d, o.d)
        return _sign(self.p * o.den - o.p * self.den, self.q * o.den - o.q * self.den, d)

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
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.p == o.p and self.q == o.q and self.den == o.den and self.d == o.d

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def __hash__(self):
        if self.q == 0:
            return hash(self.p) if self.den == 1 else hash(Fraction(self.p, self.den))
        return hash((self.p, self.q, self.den, self.d))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        # approximation only; all decisions in this package are made by the
        # exact sign() path
        out = float(self.a)
        if self.q:
            out += float(self.b) * math.sqrt(self.d)
        return out

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


def _coerce(x) -> Optional[QuadNum]:
    if isinstance(x, QuadNum):
        return x
    if isinstance(x, int):
        return _quad(x, 0, 1, 0)
    if isinstance(x, Fraction):
        return _quad(x.numerator, 0, x.denominator, 0)
    return None


def quad_sign(x: QuadNum | RationalLike) -> int:
    """Sign (-1, 0, +1) of an exact quadratic number."""
    return QuadNum.of(x).sign()


# -- literals ------------------------------------------------------------------
#
# Grammar (whitespace-free): RAT | RAT SIGN RAT*sqrt(D) | [SIGN]RAT*sqrt(D)
# with RAT = [+-]?digits[/digits].  Serialization always emits the full
# "p/q" and "p/q+r/s*sqrt(d)" forms, so files are bit-exact round-trippers.

_RAT = r"[+-]?\d+(?:/\d+)?"
_LIT_RE = re.compile(
    rf"^(?:(?P<rat>{_RAT})(?:(?P<root>[+-]\d+(?:/\d+)?)\*sqrt\((?P<d1>\d+)\))?"
    rf"|(?P<root2>{_RAT})\*sqrt\((?P<d2>\d+)\))$"
)


def parse_number(text: str, d: Optional[int] = None) -> QuadNum:
    """Parse a number literal; ``d`` (if given) pins the allowed field."""
    m = _LIT_RE.match(text)
    if m is None:
        raise LiteralError(f"bad number literal: {text!r}")
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
        if lit_d <= 0 or is_square(lit_d):
            raise LiteralError(f"sqrt argument must be a positive non-square: {text!r}")
        if d is not None and lit_d != d:
            raise LiteralError(f"literal {text!r} is not in the sqrt({d}) field")
    return QuadNum(a, b, lit_d if b != 0 else 0)


def format_number(x: QuadNum | RationalLike) -> str:
    x = QuadNum.of(x)
    rat = f"{x.a.numerator}/{x.a.denominator}"
    if x.b == 0:
        return rat
    sgn = "+" if x.b > 0 else "-"
    babs = abs(x.b)
    return f"{rat}{sgn}{babs.numerator}/{babs.denominator}*sqrt({x.d})"


# -- linear constraints ---------------------------------------------------------


class Rel(Enum):
    ZERO = "=0"
    POSITIVE = ">0"


@dataclass(frozen=True)
class LinConstraint:
    """Affine condition  coeffs . x + const  (= 0 | > 0)  over rational unknowns."""

    coeffs: tuple[Fraction, ...]
    const: Fraction
    relation: Rel

    @staticmethod
    def make(coeffs: Iterable[RationalLike], const: RationalLike, relation: Rel) -> "LinConstraint":
        return LinConstraint(tuple(Fraction(c) for c in coeffs), Fraction(const), relation)

    def evaluate(self, x: Sequence[Fraction]) -> Fraction:
        if len(x) != len(self.coeffs):
            raise ValueError("dimension mismatch")
        return sum((c * v for c, v in zip(self.coeffs, x)), self.const)

    def satisfied_by(self, x: Sequence[Fraction]) -> bool:
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


def _gauss_solve_equalities(
    eqs: list[LinConstraint], n: int
) -> Optional[tuple[list[Fraction], list[list[Fraction]]]]:
    """Solve the equality subsystem exactly.

    Returns (particular solution x0, basis of the homogeneous space) or None
    when inconsistent.
    """
    rows = [list(c.coeffs) + [-c.const] for c in eqs]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][n] != 0:
            return None  # 0 = nonzero
    free_cols = [c for c in range(n) if c not in pivots]
    x0 = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x0[col] = rows[i][n]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -rows[i][fc]
        basis.append(v)
    return x0, basis


def _simplex_min(
    a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]
) -> Optional[tuple[Fraction, list[int], list[list[Fraction]], list[Fraction]]]:
    """Two-phase exact simplex, Bland's rule:  min c.y  s.t.  a y = b, y >= 0.

    Returns (optimal value, basis column indices, final row space of the
    constraint part, final rhs) or None when infeasible.  Unboundedness is
    impossible for the programs built here and raises LpInternalError.
    """
    m, n = len(a), len(c)
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]
    # tableau with artificial variables n..n+m-1
    tab = [a[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))

    def pivot(row: int, col: int) -> None:
        pv = tab[row][col]
        tab[row] = [v / pv for v in tab[row]]
        for i in range(len(tab)):
            if i != row and tab[i][col] != 0:
                f = tab[i][col]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
        basis[row] = col

    def run(cost: list[Fraction], allowed: int) -> Fraction:
        # maintain the reduced-cost row explicitly
        z = [Fraction(0)] * (len(tab[0]))
        for j in range(len(z)):
            z[j] = (cost[j] if j < len(cost) else Fraction(0)) - sum(
                (cost[basis[i]] if basis[i] < len(cost) else Fraction(0)) * tab[i][j]
                for i in range(m)
            )
        while True:
            col = next((j for j in range(allowed) if z[j] < 0), None)
            if col is None:
                obj = -z[-1]
                return obj
            ratios = [
                (tab[i][-1] / tab[i][col], basis[i], i)
                for i in range(m)
                if tab[i][col] > 0
            ]
            if not ratios:
                raise LpInternalError("unbounded program (cannot happen: objective capped)")
            # Bland: smallest ratio, ties by smallest basis variable index
            _, _, row = min(ratios, key=lambda t: (t[0], t[1]))
            pv = tab[row][col]
            fz = z[col]
            tab[row] = [v / pv for v in tab[row]]
            for i in range(m):
                if i != row and tab[i][col] != 0:
                    g = tab[i][col]
                    tab[i] = [x - g * y for x, y in zip(tab[i], tab[row])]
            z = [x - fz * y for x, y in zip(z, tab[row])]
            basis[row] = col

    # phase 1: minimize the sum of artificials
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    if run(cost1, n + m) > 0:
        return None
    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
    # rows whose basis is still artificial are identically zero; keep them inert
    val = run(list(c), n)
    rhs = [tab[i][-1] for i in range(m)]
    rows = [tab[i][:n] for i in range(m)]
    return val, basis, rows, rhs


def _solve_square(mat: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Gaussian solve of a square system; None when singular/inconsistent."""
    n = len(rhs)
    m = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        pr = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pr is None:
            return None
        m[col], m[pr] = m[pr], m[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def lp_rational_point(system: ConstraintSystem) -> Optional[tuple[Fraction, ...]]:
    """Rational point satisfying every constraint (equalities exactly,
    strict inequalities strictly), or None when no real solution exists.

    Method: eliminate the equalities by exact Gaussian elimination, then
    maximize a slack t subject to every strict form >= t and t <= 1 by an
    exact rational simplex with deterministic (Bland) pivoting; success iff
    the optimum satisfies t* > 0.  The program is solved through its dual,
    whose row count is the number of free unknowns plus one.  The returned
    point is re-substituted into the original system before being returned.
    """
    n = system.dimension
    eqs = [c for c in system.constraints if c.relation is Rel.ZERO]
    strict = [c for c in system.constraints if c.relation is Rel.POSITIVE]

    solved = _gauss_solve_equalities(eqs, n)
    if solved is None:
        return None
    x0, basis = solved
    f = len(basis)

    # strict rows over the free coordinates: alpha . y + gamma > 0
    reduced: dict[tuple[Fraction, ...], Fraction] = {}
    for cst in strict:
        gamma = cst.evaluate(x0)
        alpha = tuple(
            sum(cst.coeffs[i] * bv[i] for i in range(n)) for bv in basis
        )
        if all(v == 0 for v in alpha):
            if gamma <= 0:
                return None
            continue
        # same direction twice: keep the binding (smallest constant) copy
        prev = reduced.get(alpha)
        if prev is None or gamma < prev:
            reduced[alpha] = gamma

    def finish(y: list[Fraction]) -> Optional[tuple[Fraction, ...]]:
        x = list(x0)
        for k, bv in enumerate(basis):
            x = [xi + y[k] * bi for xi, bi in zip(x, bv)]
        pt = tuple(x)
        if not system.satisfied_by(pt):
            raise LpInternalError("solver returned a point violating the system")
        return pt

    if not reduced:
        return finish([Fraction(0)] * f)

    alphas = list(reduced.keys())
    gammas = [reduced[a] for a in alphas]
    mcnt = len(alphas)

    # dual of  max t  s.t.  t - alpha_j.y <= gamma_j,  t <= 1:
    #   min  y0 + sum gamma_j yj   s.t.  y0 + sum yj = 1,  sum yj alpha_j = 0,  y >= 0
    a_rows: list[list[Fraction]] = []
    a_rows.append([Fraction(1)] + [Fraction(1)] * mcnt)
    for i in range(f):
        a_rows.append([Fraction(0)] + [-alphas[j][i] for j in range(mcnt)])
    b_vec = [Fraction(1)] + [Fraction(0)] * f
    c_vec = [Fraction(1)] + list(gammas)

    res = _simplex_min(a_rows, b_vec, c_vec)
    if res is None:
        raise LpInternalError("dual infeasible (cannot happen: primal is bounded)")
    t_star, dbasis, _, _ = res
    if t_star <= 0:
        return None

    # primal maximizer = shadow prices of the dual: solve B^T pi = c_B on the
    # original dual columns for the final basis
    ncols = 1 + mcnt
    bt = []
    cb = []
    for bi in dbasis:
        if bi < ncols:
            bt.append([a_rows[r][bi] for r in range(f + 1)])
            cb.append(c_vec[bi])
        else:
            # inert artificial row (redundant dual constraint): pins nothing
            bt.append([Fraction(1) if r == bi - ncols else Fraction(0) for r in range(f + 1)])
            cb.append(Fraction(0))
    pi = _solve_square(bt, cb)
    if pi is None:
        raise LpInternalError("degenerate dual basis")
    t_val, y = pi[0], pi[1:]
    if t_val != t_star:
        raise LpInternalError("dual/primal objective mismatch")
    return finish(y)


def lp_nearby_points(
    system: ConstraintSystem, base: Sequence[Fraction], count: int, seed: int = 0
) -> list[tuple[Fraction, ...]]:
    """Further rational solutions near a known one: perturb inside the
    equality subspace and keep candidates that re-verify exactly, shrinking
    the perturbation until the strict inequalities hold."""
    if not system.satisfied_by(tuple(base)):
        raise ValueError("base point does not satisfy the system")
    rng = random.Random(seed)
    eqs = [c for c in system.constraints if c.relation is Rel.ZERO]
    solved = _gauss_solve_equalities(eqs, system.dimension)
    if solved is None:
        raise ValueError("inconsistent equalities")  # pragma: no cover
    _, basis = solved
    out: list[tuple[Fraction, ...]] = []
    for _ in range(count):
        chosen = tuple(base)
        for shift in range(4, 80, 4):
            delta = [Fraction(rng.randint(-3, 3), 2 ** shift) for _ in basis]
            cand = list(base)
            for d, bv in zip(delta, basis):
                cand = [x + d * v for x, v in zip(cand, bv)]
            if system.satisfied_by(tuple(cand)):
                chosen = tuple(cand)
                break
        out.append(chosen)
    return out

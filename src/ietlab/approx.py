"""Orbit growth, piecewise-linear traces, and finite rational quotients.

Because translations commute, the orbit of a point under words in finitely
many interval exchanges grows polynomially; :func:`orbit_ball` enumerates it
exactly.  More is true: with the permutations frozen, every comparison that
steers the composition of words is affine in the unknown piece lengths with
rational coefficients.  :func:`pl_trace` replays every freely reduced word
of bounded length on the frame of a :class:`TraceRecorder`, whose
coordinates are affine forms, through the same map kernel as exact maps,
and records every comparison as a linear constraint, so any rational solution
of the recorded system reproduces the exact trivial/nontrivial pattern of
the traced words.  That is the pattern of the whole marked ball: a word
that is not freely reduced names the same map as its free reduction, for
every choice of lengths.  Each comparison is decided on integers, once per
distinct difference form.
:func:`rationalize` solves that system, yielding rational generators with
the same marked ball; rational generators act on a finite grid, so the group
they generate is finite, and :func:`permutation_group_order` gives its exact
order from the cell permutations.  Most such groups are the whole symmetric
or alternating group of the grid; the giant test of Seress, *Permutation
Group Algorithms* (2003), §10.2, recognises them (a transitive group with
a cycle of prime length p, n/2 < p < n - 2, contains A_n) and returns n!
or n!/2 at once.  Every other group, and every group on fewer than 8
cells, gets its order from a Schreier–Sims stabilizer chain; checked mode
re-computes each giant answer by the chain.
"""

from __future__ import annotations

import math
import operator
import random
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from ietlab import core
from ietlab.core import (
    INTERVAL,
    Domain,
    Iet,
    IetError,
    Point,
    SelfCheckError,
    from_lengths,
    lengths_of,
    permutation_of,
)
from ietlab.field import (
    ConstraintSystem,
    Frame,
    LinConstraint,
    LpInternalError,
    QuadNum,
    Rel,
    _dot,
    _sign,
    lp_rational_point,
)
from ietlab.relations import CapExceededError, Word


class TraceVerificationError(IetError):
    """Rational generators failed to reproduce the traced pattern (a bug)."""


class GridCapError(IetError):
    pass


# -- orbit balls ----------------------------------------------------------------


# two irrational rotations of [0, 1) reach 41,805 points in 1.3 s at radius
# 1,000; two random 8-piece maps over Q(sqrt 2) reach 96,035 in 2.6 s at 12
BALL_RADIUS_CAP = 1_000
BALL_CAP = 10 ** 5


def orbit_ball(generators: Sequence[Iet], x: Point, radius: int) -> set[Point]:
    """Exact set of w(x) over all words of length <= radius in the generators
    and their inverses (breadth-first, exact point hashing).  Raises
    :class:`CapExceededError` before any evaluation when the radius is above
    ``BALL_RADIUS_CAP``, and as soon as the ball holds more than
    ``BALL_CAP`` points."""
    if radius < 0:
        raise IetError("radius must be >= 0")
    if radius > BALL_RADIUS_CAP:
        raise CapExceededError(f"radius {radius} is above the cap {BALL_RADIUS_CAP}")
    for g in generators:
        if g.source != g.target or (generators and g.source != generators[0].source):
            raise IetError("generators must share one domain")
    maps = []
    for g in generators:
        maps.append(g)
        maps.append(~g)
    seen = {x}
    frontier = [x]
    for _ in range(radius):
        nxt = []
        for p in frontier:
            for g in maps:
                q = g(p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > BALL_CAP:
                        raise CapExceededError(f"the ball holds more than {BALL_CAP} points")
        frontier = nxt
    return seen


def translation_amplitude_count(generators: Sequence[Iet]) -> int:
    """Number of distinct piece translation amounts across all generators
    (component moves are tagged by the component pair)."""
    amps = set()
    for g in generators:
        for p in g.pieces:
            amps.add((p.src, p.dst, p.b - p.a))
    return len(amps)


# -- the trace's frame ----------------------------------------------------------------


class TraceRecorder:
    """The frame of a trace: its coordinates are affine forms over the
    unknown lengths, decided at the realized point, and it collects, as
    affine constraints, the decisions that steered a composition.

    A form ``v . x + c`` is one integer tuple, the coefficients and then
    the constant.  Forms add and subtract as tuples, and the only constants
    are integers (``coord``), as a trace meets no other.  The realized
    lengths are held once, as the integer pairs of their
    :class:`~ietlab.field.Frame`: length i is ``(P_i + Q_i*sqrt(d)) / D``,
    and ``value`` evaluates a form there.  A form then has the sign of the
    integer pair ``(v . P + c*D, v . Q)``, so a comparison's outcome depends
    on its difference form alone: each form, scaled to coprime integers
    with a positive leading coefficient, is decided once and recorded once,
    in the order it was first met.  A dict keeps the sign of every form
    met, scaled or not, so a repeated comparison is one lookup.  In checked
    mode (``IETLAB_CHECK=1``) every sign, those read from the dict included,
    is re-derived as the ``QuadNum`` sign of the form evaluated at the
    realized point, and a mismatch raises :class:`SelfCheckError`.
    ``decide`` is this frame's sign, so :class:`~ietlab.core.Iet` runs
    traced maps through the same kernel as exact ones.  ``value`` reads a
    form at the realized point and decides nothing, so checked mode
    rebuilds a traced product from its values through ``Iet(...)`` and
    leaves the recorded system as it is.
    """

    def __init__(self, realized: Sequence):
        point = tuple(QuadNum.of(x) for x in realized)
        frame = Frame(point)
        pairs = [frame.coord(x) for x in point]
        self.dim = len(point)
        self.point = point
        self.frame = frame
        # D last, where a form keeps its constant
        self.rational = [p for p, _ in pairs] + [frame.den]
        self.irrational = [q for _, q in pairs]
        self._signs: dict[tuple[int, ...], int] = {}
        self._constants: dict[int, tuple[int, ...]] = {}
        self.constraints: list[LinConstraint] = []

    def unknown(self, index: int) -> tuple[int, ...]:
        """The form of unknown length ``index``."""
        return tuple([1 if i == index else 0 for i in range(self.dim + 1)])

    def coord(self, x) -> tuple[int, ...]:
        """The constant form of an integer; any other constant raises
        ``TypeError``."""
        x = QuadNum.of(x)
        if x.q or x.den != 1:
            raise TypeError(f"a trace takes integer constants only, not {x}")
        vec = self._constants.get(x.p)
        if vec is None:
            vec = self._constants[x.p] = (0,) * self.dim + (x.p,)
        return vec

    def value(self, vec: tuple[int, ...]) -> QuadNum:
        """The form at the realized point."""
        return self.frame.value((_dot(vec, self.rational), _dot(vec, self.irrational)))

    @staticmethod
    def add(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(operator.add, x, y))

    @staticmethod
    def sub(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(operator.sub, x, y))

    def cmp(self, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        """The decided sign of x - y."""
        return self.decide(tuple(map(operator.sub, x, y)))

    def join(self, other) -> "TraceRecorder":
        if other is not self:
            raise TypeError("a traced map meets only maps of its own trace")
        return self

    def decide(self, vec: tuple[int, ...]) -> int:
        """Sign of the form ``vec[:-1] . x + vec[-1]`` at the realized point;
        a form met for the first time is recorded, a constant pins nothing
        down."""
        s = self._signs.get(vec)
        if s is None:
            if not any(vec[:-1]):
                c = vec[-1]
                return (c > 0) - (c < 0)
            g = math.gcd(*vec)
            if next(v for v in vec if v) < 0:
                g = -g
            form = tuple([v // g for v in vec])
            s = self._signs.get(form)
            if s is None:
                s = _sign(_dot(form, self.rational), _dot(form, self.irrational), self.frame.d)
                self._signs[form] = s
                if s == 0:
                    self.record(form, Rel.ZERO)
                else:
                    self.record(form if s > 0 else tuple(map(operator.neg, form)), Rel.POSITIVE)
            if g < 0:
                s = -s
            self._signs[vec] = s
        if core.CHECKED:
            value = vec[-1]
            for c, x in zip(vec, self.point):
                value = x * c + value
            if value.sign() != s:
                raise SelfCheckError(f"traced sign {s} of {vec} disagrees with its value {value}")
        return s

    sign = decide  # the frame protocol's name for it

    def record(self, vec: tuple[int, ...], rel: Rel) -> None:
        """Record ``vec[:-1] . x + vec[-1]`` (= 0 | > 0), a form in coprime
        integers."""
        self.constraints.append(LinConstraint(vec[:-1], vec[-1], rel))


# -- the trace ------------------------------------------------------------------


@dataclass(frozen=True)
class PlTrace:
    """Constraint system steering every freely reduced word of bounded
    length, the real point that realized it, and the trivial/nontrivial
    pattern of those words (nontrivial words carry a witness piece index
    with nonzero translation).  The pattern covers the whole marked ball:
    any other word names the same map as its free reduction, at every
    choice of lengths, and an empty reduction names the identity."""

    system: ConstraintSystem
    realized_point: tuple[QuadNum, ...]
    word_pattern: dict[Word, Optional[int]]


def _tracked_generators(generators: Sequence[Iet], rec: TraceRecorder) -> list[Iet]:
    """The generators on the recorder: their lengths are the unknowns.

    Each generator's unknowns are first decided to be positive and to sum
    to 1, the constraints of its lengths, then its map is built and
    validated on the recorder."""
    dom = Domain.interval(1)
    tracked = []
    offset = 0
    for g in generators:
        sigma = permutation_of(g)
        n = len(g.pieces)
        tls = [rec.unknown(offset + j) for j in range(n)]
        offset += n
        total = rec.coord(0)
        for x in tls:
            rec.decide(x)
        for x in tls:
            total = rec.add(x, total)
        rec.cmp(total, rec.coord(1))
        tracked.append(core._from_lengths(rec, sigma, tls, dom))
    return tracked


def _on_unit_interval(g: Iet) -> bool:
    comps = g.source.components
    if len(comps) != 1 or comps[0].kind != INTERVAL:
        return False
    length = QuadNum.of(comps[0].length)
    return length.is_rational() and length.a == 1


def _classify(w_iet: Iet) -> Optional[int]:
    """None when the map is the identity; else a witness piece index whose
    translation is nonzero (the comparison lands in the recorder)."""
    pieces, cmp = w_iet._pieces, w_iet.frame.cmp
    if len(pieces) == 1 and cmp(pieces[0][4], pieces[0][1]) == 0:
        return None
    for idx, p in enumerate(pieces):
        if cmp(p[4], p[1]) != 0:
            return idx
    raise IetError("several pieces yet no translation: canonical form broken")  # pragma: no cover


def pl_trace(generators: Sequence[Iet], radius: int) -> PlTrace:
    """Replay every freely reduced word of length <= radius, recording each
    combinatorial decision as an affine constraint over the unknown lengths.

    Those words cover the marked ball: a word with a factor x x^-1 names the
    same map as the word without it, whatever the lengths, so its pattern
    is that of its free reduction.  With k generators there are
    2k (2k - 1)^(n - 1) reduced words of length n.  Raises
    :class:`CapExceededError`, before tracing anything, when there are more
    than ``WORD_CAP`` of them in all.  The recorded system is the same in
    checked mode (``IETLAB_CHECK=1``), where every recorded constraint is
    then evaluated exactly at the realized point, and a violation raises
    :class:`TraceVerificationError`.
    """
    if not generators:
        raise IetError("at least one generator required")
    if radius < 0:
        raise IetError("radius must be >= 0")
    for g in generators:
        if not _on_unit_interval(g):
            raise IetError("tracing needs generators of the unit interval [0, 1)")
        if g.source != g.target:
            raise IetError("tracing needs automorphisms")
    words, layer = 0, 2 * len(generators)
    for _ in range(radius):
        words += layer
        if words > WORD_CAP:
            raise CapExceededError(f"radius {radius} traces more than {WORD_CAP} words")
        layer *= 2 * len(generators) - 1
    realized = [x for g in generators for x in lengths_of(g)]
    rec = TraceRecorder(realized)
    letters = []  # the inverse of letter j is letter j ^ 1
    for i, g in enumerate(_tracked_generators(generators, rec)):
        letters.append(((i, 1), g))
        letters.append(((i, -1), ~g))

    # only the words of the last length are extended, so only they keep
    # their maps, and the longest words keep none
    pattern: dict[Word, Optional[int]] = {}
    frontier = []
    if radius:
        for j, (letter, lmap) in enumerate(letters):
            pattern[Word((letter,))] = _classify(lmap)
            frontier.append(((letter,), j, lmap))
    for depth in range(2, radius + 1):
        nxt = []
        for w, last, base in frontier:
            for j, (letter, lmap) in enumerate(letters):
                if j == last ^ 1:
                    continue
                w2 = w + (letter,)
                iet2 = base * lmap
                pattern[Word(w2)] = _classify(iet2)
                if depth < radius:
                    nxt.append((w2, j, iet2))
        frontier = nxt

    system = ConstraintSystem(rec.dim, tuple(rec.constraints))
    if core.CHECKED and not system.satisfied_by(realized):
        raise TraceVerificationError("the realized point violates its own trace")
    return PlTrace(system=system, realized_point=tuple(realized), word_pattern=pattern)


# -- rationalization ----------------------------------------------------------------


@dataclass(frozen=True)
class FiniteQuotient:
    """Generators of a finite group acting on the uniform grid of [0, 1)."""

    grid: int
    generators: tuple[tuple[int, ...], ...]
    group_size: int


GRID_WARN = 10 ** 6
GRID_CAP = 10 ** 7
WORD_CAP = 10 ** 5  # two generators: radius 9 traces 39,364 words, radius 10 118,096


def _cell_permutation(g: Iet, grid: int) -> tuple[int, ...]:
    """Where a rational map of [0, 1) sends each cell [j/grid, (j+1)/grid):
    a piece moves its whole range of cells by one whole number of cells."""
    out: list[int] = []
    for p in g.pieces:  # sorted by start, so the cells come in order
        n, b = p.length * grid, p.b * grid
        if not (n.q == b.q == 0 and n.den == b.den == 1):
            raise IetError("map does not permute the grid cells")
        out.extend(range(b.p, b.p + n.p))
    return tuple(out)


def rationalize(generators: Sequence[Iet], radius: int) -> tuple[list[Iet], FiniteQuotient]:
    """Rational generators with the same permutations and the same marked
    ball of radius ``radius``, plus the finite quotient they generate.

    The recorded trace always contains its own realized point (checked mode
    verifies this), so the linear program is feasible by construction; the
    triviality pattern of every traced word is re-verified exactly on the
    rational generators.
    """
    trace = pl_trace(generators, radius)
    sol = lp_rational_point(trace.system)
    if sol is None:
        raise LpInternalError("trace system lost its realized point")  # pragma: no cover
    rat_gens: list[Iet] = []
    offset = 0
    for g in generators:
        sigma = permutation_of(g)
        n = len(sigma)
        rat_gens.append(from_lengths(sigma, sol[offset : offset + n]))
        offset += n
    for word, witness in trace.word_pattern.items():
        if (witness is None) != word.evaluate(rat_gens).is_identity():
            raise TraceVerificationError(f"pattern mismatch at {word.format()}")
    grid = math.lcm(*(x.denominator for x in sol))
    if grid > GRID_CAP:
        raise GridCapError(f"grid needs {grid} cells (cap {GRID_CAP})")
    if grid > GRID_WARN:
        warnings.warn(f"finite quotient grid has {grid} cells", RuntimeWarning)
    perms = tuple(_cell_permutation(g, grid) for g in rat_gens)
    size = permutation_group_order(perms)
    return rat_gens, FiniteQuotient(grid=grid, generators=perms, group_size=size)


# -- finite groups from rational maps -------------------------------------------------

GIANT_WARMUP = 30  # product-replacement steps before the first draw
GIANT_DRAWS = 64  # elements tried before falling back to the chain


def permutation_group_order(perms: Sequence[tuple[int, ...]]) -> int:
    """Exact order of the permutation group G the inputs generate on
    range(n), with no element listing and no caps.

    Giant test first (Seress, *Permutation Group Algorithms*, 2003, §10.2,
    after Jordan 1873): if G is transitive and some element has a cycle of
    prime length p with n/2 < p < n - 2, then G contains A_n.  The other
    cycles of that element have total length below p, so its power by their
    lcm is a p-cycle; a transitive group with a p-cycle, p > n/2, is
    primitive; and a primitive group with a p-cycle, p <= n - 3, contains
    A_n (Jordan).  The order is then n! when a generator is odd and n!/2
    otherwise.  Candidates are ``GIANT_DRAWS`` elements drawn by product
    replacement from a fixed seed, so runs repeat exactly.  For n < 8 (the
    interval holds no prime), for intransitive groups and when no draw has
    such a cycle, a deterministic Schreier–Sims stabilizer chain gives the
    order, so it is exact on every path.  In checked mode
    (``IETLAB_CHECK=1``) every giant answer is re-computed by the chain, and
    a disagreement raises :class:`SelfCheckError`.  Raises :class:`IetError`
    unless every input is a bijection of one range(n).
    """
    perms = [tuple(p) for p in perms]
    if not perms:
        return 1
    n = len(perms[0])
    points = list(range(n))
    for p in perms:
        if sorted(p) != points:
            raise IetError(f"not a permutation of range({n}): {p}")
    ident = tuple(range(n))
    gens = [p for p in perms if p != ident]
    if not gens:
        return 1
    order = _giant_order(gens, n)
    if order is None:
        return _chain_order(gens, n)
    if core.CHECKED and _chain_order(gens, n) != order:
        raise SelfCheckError(f"giant test gave order {order}; the stabilizer chain disagrees")
    return order


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:  # apply b first
    # from a list: tuple(iterator) resizes a 10-slot tuple to len(b), so each
    # product moves one tuple onto the size-len(b) free list, which only a
    # full collection clears
    return tuple([a[i] for i in b])


def _giant_order(gens: list[tuple[int, ...]], n: int) -> Optional[int]:
    """n! or n!/2 when the giant test proves G >= A_n, else None."""
    if n < 8 or _largest_orbit(gens, n) != n:
        return None
    rng = random.Random(0)
    state = [gens[i % len(gens)] for i in range(max(10, len(gens)))]
    acc = tuple(range(n))
    for step in range(GIANT_WARMUP + GIANT_DRAWS):
        i = rng.randrange(len(state))
        j = rng.randrange(len(state) - 1)
        if j >= i:
            j += 1
        if rng.randrange(2):
            state[i] = _mul(state[i], state[j])
        else:
            state[i] = _mul(state[j], state[i])
        acc = _mul(acc, state[i])
        if step >= GIANT_WARMUP:
            p = max(_cycle_lengths(acc))
            if 2 * p > n and p < n - 2 and _is_prime(p):
                odd = any((n - len(_cycle_lengths(g))) % 2 for g in gens)
                return math.factorial(n) // (1 if odd else 2)
    return None


def _cycle_lengths(g: tuple[int, ...]) -> list[int]:
    seen = bytearray(len(g))
    lengths = []
    for start in range(len(g)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = 1
            x = g[x]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _chain_order(gens: list[tuple[int, ...]], n: int) -> int:
    """Order of the group the non-identity gens generate, by a
    deterministic Schreier–Sims stabilizer chain."""
    ident = tuple(range(n))
    base: list[int] = []
    strong: list[list[tuple[int, ...]]] = []
    inverse: dict[tuple[int, ...], tuple[int, ...]] = {}  # of each strong generator
    # per level: point -> transversal element carrying the base point there,
    # and point -> its inverse
    trans: list[dict[int, tuple[int, ...]]] = []
    trans_inv: list[dict[int, tuple[int, ...]]] = []

    def add_strong(i: int, g) -> None:
        if g not in inverse:
            inverse[g] = tuple(sorted(range(n), key=g.__getitem__))
        strong[i].append(g)

    def extend_base_for(g):
        mv = next(p for p in range(n) if g[p] != p)
        base.append(mv)
        strong.append([])
        trans.append({})
        trans_inv.append({})

    def register(g, upto: int) -> None:
        # g stabilizes base[:upto]; it belongs to every level <= upto
        for i in range(upto + 1):
            if i >= len(base):
                extend_base_for(g)
            add_strong(i, g)

    def rebuild(i: int) -> None:
        b = base[i]
        t = {b: ident}
        ti = {b: ident}
        gens = [(g, inverse[g]) for g in strong[i]]
        frontier = [b]
        while frontier:
            x = frontier.pop()
            tx, txi = t[x], ti[x]
            for g, gi in gens:
                y = g[x]
                if y not in t:
                    t[y] = _mul(g, tx)
                    ti[y] = _mul(txi, gi)
                    frontier.append(y)
        trans[i] = t
        trans_inv[i] = ti

    def strip(g, i: int) -> tuple[tuple[int, ...], int]:
        while i < len(base):
            rep_inv = trans_inv[i].get(g[base[i]])
            if rep_inv is None:
                return g, i
            g = _mul(rep_inv, g)
            i += 1
        return g, len(base)

    for g in gens:
        lvl = 0
        while lvl < len(base) and g[base[lvl]] == base[lvl]:
            lvl += 1
        register(g, lvl if lvl < len(base) else len(base))
    for i in range(len(base)):
        rebuild(i)

    i = len(base) - 1
    while i >= 0:
        rebuild(i)
        ok = True
        for x in list(trans[i].keys()):
            tx = trans[i][x]
            for g in strong[i]:
                y = g[x]
                sg = _mul(trans_inv[i][y], _mul(g, tx))
                if sg == ident:
                    continue
                res, j = strip(sg, i + 1)
                if res != ident:
                    if j == len(base):
                        extend_base_for(res)
                    for lvl in range(i + 1, j + 1):
                        add_strong(lvl, res)
                        rebuild(lvl)
                    i = j
                    ok = False
                    break
            if not ok:
                break
        if ok:
            i -= 1
    order = 1
    for t in trans:
        order *= len(t)
    return order


def common_grid(generators: Sequence[Iet]) -> int:
    """Least q making every generator q-rational; errors on irrational jumps."""
    q = 1
    for g in generators:
        if not _on_unit_interval(g):
            raise IetError("finite enumeration needs maps of the unit interval [0, 1)")
        for pt in g.discontinuities():
            if not isinstance(pt.x, QuadNum) or not pt.x.is_rational():
                raise IetError("a generator has an irrational jump; not q-rational")
            q = math.lcm(q, pt.x.a.denominator)
    return q


def _largest_orbit(perms: Sequence[tuple[int, ...]], n: int) -> int:
    """Size of the largest orbit on range(n) of the group the perms generate."""
    seen, largest = set(), 0
    for start in range(n):
        if start not in seen:
            orbit, frontier = {start}, [start]
            while frontier:
                x = frontier.pop()
                new = {p[x] for p in perms} - orbit
                orbit |= new
                frontier.extend(new)
            seen |= orbit
            largest = max(largest, len(orbit))
    return largest


def enumerate_finite_group(generators: Sequence[Iet], cap: int = 10 ** 6) -> int:
    """Exact order of the group generated by q-rational maps of [0, 1), from
    their grid-cell permutations by :func:`permutation_group_order`; raises
    :class:`GridCapError` when the grid exceeds ``GRID_CAP`` cells (before
    any cell is computed) or the order exceeds ``cap`` (an orbit of more
    than ``cap`` cells is caught before the stabilizer chain is built)."""
    grid = common_grid(generators)
    if grid > GRID_CAP:
        raise GridCapError(f"grid needs {grid} cells (cap {GRID_CAP})")
    perms = [_cell_permutation(g, grid) for g in generators]
    orbit = _largest_orbit(perms, grid)
    if orbit > cap:  # the order is a multiple of every orbit's size
        raise GridCapError(f"group order exceeds cap {cap}: an orbit has {orbit} cells")
    order = permutation_group_order(perms)
    if order > cap:
        raise GridCapError(f"group order {order} exceeds cap {cap}")
    return order

"""Domains, points, subdomains and interval exchange maps in canonical form.

A domain is a finite disjoint union of circles R/lZ and half-open intervals
[0, l).  An interval exchange map between two domains of equal total length
is a bijection that is piecewise a translation, orientation preserving and
continuous on the right.  Maps are stored as a canonical list of pieces:
pieces partition the source, their images partition the target, and any two
source-adjacent pieces whose images are contiguous have been merged, so
interior piece boundaries are genuine features of the map.  The one case a
piece list cannot merge away is continuity across a target circle's
coordinate cut; discontinuity detection therefore compares exact one-sided
limits, with wrap-around on circles.

``Iet(...)`` is the one validating constructor: it sorts the pieces and
checks that they partition both domains.  Products and inverses of maps in
canonical form are partitions by construction and skip those checks; with
``IETLAB_CHECK=1`` in the environment when this module is imported, they
are rebuilt through ``Iet(...)`` as well and must come out the same, or
:class:`SelfCheckError` is raised.

Coordinates are QuadNum values (or any exactly ordered number type with the
same arithmetic protocol, which the piecewise-linear tracing in
:mod:`ietlab.approx` exploits).
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from ietlab.field import QuadNum

CHECKED = os.environ.get("IETLAB_CHECK") == "1"


class IetError(ValueError):
    pass


class PartitionError(IetError):
    """Pieces do not partition the source, or images the target."""


class SelfCheckError(RuntimeError):
    """A checked-mode (``IETLAB_CHECK=1``) re-validation of a fast path
    disagreed with the slow definition: a bug, never a property of the
    input, so it is not an :class:`IetError`."""


class DomainMismatchError(IetError):
    pass


class PointError(IetError):
    pass


def _num(x):
    """Coerce plain rationals to QuadNum; pass exotic number types through."""
    if isinstance(x, (int, Fraction)):
        return QuadNum(x)
    return x


# -- domains ---------------------------------------------------------------------

CIRCLE = "circle"
INTERVAL = "interval"


@dataclass(frozen=True)
class Component:
    kind: str
    cid: str
    length: object  # exact number, > 0

    def __post_init__(self):
        if self.kind not in (CIRCLE, INTERVAL):
            raise IetError(f"unknown component kind {self.kind!r}")
        if not self.length > 0:
            raise IetError(f"component {self.cid!r} must have positive length")


@dataclass(frozen=True)
class Domain:
    components: tuple[Component, ...]

    def __post_init__(self):
        ids = [c.cid for c in self.components]
        if len(set(ids)) != len(ids):
            raise IetError(f"duplicate component ids: {ids}")

    @staticmethod
    def of(*components: Component) -> "Domain":
        return Domain(tuple(components))

    @staticmethod
    def interval(length=1, cid: str = "I") -> "Domain":
        return Domain((Component(INTERVAL, cid, _num(length)),))

    @staticmethod
    def circle(length=1, cid: str = "C") -> "Domain":
        return Domain((Component(CIRCLE, cid, _num(length)),))

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i: int) -> Component:
        return self.components[i]

    def index_of(self, cid: str) -> int:
        for i, c in enumerate(self.components):
            if c.cid == cid:
                return i
        raise IetError(f"no component {cid!r}")


@dataclass(frozen=True)
class Point:
    """A point of a domain: component index plus exact coordinate."""

    comp: int
    x: object

    def key(self):
        return (self.comp, self.x)


def make_point(domain: Domain, comp: int, x) -> Point:
    """Build a point, reducing circle coordinates into [0, length)."""
    c = domain.components[comp]
    x = _num(x)
    if c.kind == CIRCLE:
        if x < 0 or x >= c.length:
            x = x.mod(c.length)
    elif x < 0 or x >= c.length:
        raise PointError(f"coordinate {x} outside component {c.cid!r}")
    return Point(comp, x)


# -- permutations ----------------------------------------------------------------


def perm_validate(images: Sequence[int]) -> tuple[int, ...]:
    p = tuple(images)
    n = len(p)
    if sorted(p) != list(range(1, n + 1)):
        raise IetError(f"not a permutation of 1..{n}: {p}")
    return p


def perm_inverse(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def perm_is_realizable(p: Sequence[int]) -> bool:
    """Whether some interval exchange has this as its genuine permutation
    (no i with p(i+1) = p(i) + 1, which would merge two pieces)."""
    return all(p[i + 1] != p[i] + 1 for i in range(len(p) - 1))


# -- subdomains ------------------------------------------------------------------


@dataclass(frozen=True)
class Subdomain:
    """Finite union of half-open coordinate intervals inside a domain.

    Parts are (component index, start, end) with 0 <= start < end <= length,
    sorted and merged, so equal sets have equal representations.  A full
    circle appears as the single part (ci, 0, length).
    """

    domain: Domain
    parts: tuple[tuple[int, object, object], ...]

    @staticmethod
    def make(domain: Domain, parts: Iterable[tuple[int, object, object]]) -> "Subdomain":
        by_comp: dict[int, list] = {}
        for ci, s, e in parts:
            s, e = _num(s), _num(e)
            length = domain.components[ci].length
            if s < 0 or e > length or not s < e:
                raise IetError(f"bad subdomain part ({ci}, {s}, {e})")
            by_comp.setdefault(ci, []).append((s, e))
        out = []
        for ci in sorted(by_comp):
            ivs = sorted(by_comp[ci])
            merged = [list(ivs[0])]
            for s, e in ivs[1:]:
                if s <= merged[-1][1]:
                    if e > merged[-1][1]:
                        merged[-1][1] = e
                else:
                    merged.append([s, e])
            out.extend((ci, s, e) for s, e in merged)
        return Subdomain(domain, tuple(out))

    def is_empty(self) -> bool:
        return not self.parts

    def measure(self):
        t = 0
        for _, s, e in self.parts:
            t = (e - s) + t
        return t

    def union(self, other: "Subdomain") -> "Subdomain":
        self._check(other)
        return Subdomain.make(self.domain, self.parts + other.parts)

    def intersection(self, other: "Subdomain") -> "Subdomain":
        self._check(other)
        out = []
        for ci, s, e in self.parts:
            for cj, s2, e2 in other.parts:
                if ci != cj:
                    continue
                lo = s if s > s2 else s2
                hi = e if e < e2 else e2
                if lo < hi:
                    out.append((ci, lo, hi))
        return Subdomain.make(self.domain, out)

    def complement(self) -> "Subdomain":
        out = []
        for ci, comp in enumerate(self.domain.components):
            cursor = _num(0)
            for cj, s, e in self.parts:
                if cj != ci:
                    continue
                if cursor < s:
                    out.append((ci, cursor, s))
                cursor = e
            if cursor < comp.length:
                out.append((ci, cursor, comp.length))
        return Subdomain.make(self.domain, out)

    def covers(self, other: "Subdomain") -> bool:
        """Whether other is a subset of self."""
        return other.intersection(self.complement()).is_empty()

    def _check(self, other: "Subdomain") -> None:
        if other.domain != self.domain:
            raise DomainMismatchError("subdomains of different domains")


# -- interval exchange maps ------------------------------------------------------


class Piece(NamedTuple):
    src: int
    a: object
    length: object
    dst: int
    b: object


class Iet:
    """Interval exchange map between two domains, in canonical form."""

    __slots__ = ("source", "target", "pieces", "_starts", "_by_comp", "_hash")

    def __init__(self, source: Domain, target: Domain, pieces: Iterable[tuple]):
        raw = [Piece(int(p[0]), _num(p[1]), _num(p[2]), int(p[3]), _num(p[4])) for p in pieces]
        for p in raw:
            if not p.length > 0:
                raise PartitionError(f"piece with non-positive length: {p}")
            if not (0 <= p.src < len(source.components)):
                raise IetError(f"bad source component index {p.src}")
            if not (0 <= p.dst < len(target.components)):
                raise IetError(f"bad target component index {p.dst}")
            if p.a < 0 or p.a + p.length > source.components[p.src].length:
                raise PartitionError(f"piece leaves its source component: {p}")
            if p.b < 0 or p.b + p.length > target.components[p.dst].length:
                raise PartitionError(f"piece image leaves its target component: {p}")
        raw.sort(key=lambda p: (p.src, p.a))
        _check_partition(source, [(p.src, p.a, p.length) for p in raw], "source")
        _check_partition(target, sorted((p.dst, p.b, p.length) for p in raw), "target")
        self._fill(source, target, raw)

    def _fill(self, source: Domain, target: Domain, pieces: list[Piece]) -> None:
        """Merge pieces sorted by (src, a) into canonical form and index them."""
        merged: list[Piece] = []
        for p in pieces:
            if merged:
                q = merged[-1]
                # pieces of one source component are adjacent: they partition it
                if q.src == p.src and q.dst == p.dst and q.b + q.length == p.b:
                    merged[-1] = Piece(q.src, q.a, q.length + p.length, q.dst, q.b)
                    continue
            merged.append(p)
        self.source = source
        self.target = target
        self.pieces = tuple(merged)
        by_comp: dict[int, list[Piece]] = {}
        for p in self.pieces:
            by_comp.setdefault(p.src, []).append(p)
        self._by_comp = by_comp
        self._starts = {ci: [p.a for p in ps] for ci, ps in by_comp.items()}
        self._hash = None

    @staticmethod
    def _trusted(source: Domain, target: Domain, pieces: list[Piece]) -> "Iet":
        """Map from pieces that are sorted by (src, a) and partition both
        domains by construction: merges only, skipping the checks of
        ``Iet(...)``, which stays the entry point for every other caller."""
        h = object.__new__(Iet)
        h._fill(source, target, pieces)
        if CHECKED:
            try:
                checked = Iet(source, target, pieces)
            except PartitionError as e:
                raise SelfCheckError(f"trusted construction is not a partition: {e}") from e
            if h.pieces != checked.pieces:
                raise SelfCheckError("trusted construction disagrees with validation")
        return h

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def identity(domain: Domain) -> "Iet":
        return Iet(domain, domain, [(i, 0, c.length, i, 0) for i, c in enumerate(domain.components)])

    # -- basics ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Iet):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.pieces == other.pieces
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target, self.pieces))
        return self._hash

    def __repr__(self):
        return f"<Iet {len(self.pieces)} pieces on {len(self.source.components)} components>"

    def is_identity(self) -> bool:
        return self.source == self.target and all(
            p.src == p.dst and p.a == p.b for p in self.pieces
        )

    # -- evaluation ----------------------------------------------------------------

    def _piece_at(self, comp: int, x) -> Piece:
        starts = self._starts[comp]
        i = bisect.bisect_right(starts, x) - 1
        return self._by_comp[comp][i]

    def __call__(self, pt: Point) -> Point:
        c = self.source.components[pt.comp] if pt.comp < len(self.source.components) else None
        if c is None or pt.x < 0 or pt.x >= c.length:
            raise PointError(f"point {pt} outside the source domain")
        p = self._piece_at(pt.comp, pt.x)
        return Point(p.dst, p.b + (pt.x - p.a))

    def left_limit(self, comp: int, x) -> tuple[int, object]:
        """One-sided limit of the map approaching coordinate ``x`` from below.

        ``x`` ranges over (0, length]; the result is (component, coordinate)
        with coordinate in (0, length] of the target component, i.e. a point
        of the metric completion.  On a source circle, x = length stands for
        approaching 0 from below.
        """
        comp_len = self.source.components[comp].length
        if not (0 < x <= comp_len):
            raise PointError(f"left limit needs a coordinate in (0, length], got {x}")
        starts = self._starts[comp]
        i = bisect.bisect_left(starts, x) - 1
        p = self._by_comp[comp][i]
        return (p.dst, p.b + (x - p.a))

    # -- group structure -------------------------------------------------------------

    def __mul__(self, other: "Iet") -> "Iet":
        """Composition self o other (apply ``other`` first)."""
        if not isinstance(other, Iet):
            return NotImplemented
        if other.target != self.source:
            raise DomainMismatchError("composition needs matching middle domain")
        out = []
        for p in other.pieces:
            lo = p.b
            hi = lo + p.length
            starts = self._starts[p.dst]
            gps = self._by_comp[p.dst]
            last = len(gps) - 1
            i = bisect.bisect_right(starts, lo) - 1
            g = gps[i]
            b = g.b + (lo - g.a)
            # self's pieces partition their component: piece i ends where
            # piece i + 1 starts, so [lo, hi) is cut at the starts inside it
            if i == last or hi <= starts[i + 1]:
                out.append(Piece(p.src, p.a, p.length, g.dst, b))
                continue
            ln = starts[i + 1] - lo
            out.append(Piece(p.src, p.a, ln, g.dst, b))
            a = p.a + ln
            i += 1
            while i < last and starts[i + 1] < hi:
                g = gps[i]
                out.append(Piece(p.src, a, g.length, g.dst, g.b))
                a = a + g.length
                i += 1
            g = gps[i]
            out.append(Piece(p.src, a, hi - g.a, g.dst, g.b))
        # other's pieces run in (src, a) order and each is cut left to right
        return Iet._trusted(other.source, self.target, out)

    def __invert__(self) -> "Iet":
        flipped = sorted(self.pieces, key=lambda p: (p.dst, p.b))
        return Iet._trusted(
            self.target, self.source, [Piece(p.dst, p.b, p.length, p.src, p.a) for p in flipped]
        )

    def __pow__(self, n: int) -> "Iet":
        if self.source != self.target:
            raise DomainMismatchError("powers need an automorphism")
        if n < 0:
            return (~self) ** (-n)
        if n == 0:
            return Iet.identity(self.source)
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        # the lowest set bit's power starts the product: no product with the identity
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = base * result
            n >>= 1
        return result

    # -- discontinuities ---------------------------------------------------------

    def discontinuities(self) -> tuple[Point, ...]:
        """Points where the map is discontinuous, sorted.

        Left endpoints of interval components never appear (the map is
        right-continuous there by convention); circle coordinates are fully
        interior, including 0.
        """
        out = []
        for ci, comp in enumerate(self.source.components):
            ps = self._by_comp[ci]
            candidates = list(range(1, len(ps)))
            if comp.kind == CIRCLE:
                candidates.append(0)
            for k in candidates:
                p = ps[k]
                q = ps[k - 1]  # piece just to the left, wrapping when k = 0
                lim_comp, lim_x = q.dst, q.b + q.length
                tgt = self.target.components[p.dst]
                if lim_comp == p.dst:
                    if lim_x == p.b:
                        continue  # merged pieces cannot reach here, but wrap k=0 can
                    if tgt.kind == CIRCLE and lim_x == tgt.length and p.b == 0:
                        continue  # continuous across the target circle's cut
                out.append(Point(ci, p.a))
        out.sort(key=Point.key)
        return tuple(out)

    def d(self) -> int:
        return len(self.discontinuities())

    # -- structure readers ---------------------------------------------------------

    def support(self) -> Subdomain:
        if self.source != self.target:
            raise DomainMismatchError("support needs an automorphism")
        moving = [
            (p.src, p.a, p.a + p.length)
            for p in self.pieces
            if p.src != p.dst or p.a != p.b
        ]
        return Subdomain.make(self.source, moving)

    def image_of(self, sub: Subdomain) -> Subdomain:
        if sub.domain != self.source:
            raise DomainMismatchError("subdomain not in the source domain")
        out = []
        for ci, s, e in sub.parts:
            for p in self._by_comp[ci]:
                lo = s if s > p.a else p.a
                hi = e if e < p.a + p.length else p.a + p.length
                if lo < hi:
                    out.append((p.dst, p.b + (lo - p.a), p.b + (hi - p.a)))
        return Subdomain.make(self.target, out)

    def restrict(self, sub: Subdomain) -> "Iet":
        """Restriction to an invariant subdomain, as a map of its own domain.

        Part j of the subdomain becomes component j of the new domain (a
        circle when the part is a whole circle component, an interval
        otherwise), with coordinates shifted to start at 0.
        """
        if self.source != self.target:
            raise DomainMismatchError("restriction needs an automorphism")
        if self.image_of(sub) != sub:
            raise IetError("subdomain is not invariant")
        subdom = subdomain_as_domain(sub)
        parts = sub.parts

        def locate(ci, x):
            for j, (cj, s, e) in enumerate(parts):
                if cj == ci and s <= x < e:
                    return j, x - s
            raise IetError("image escaped the invariant subdomain")  # pragma: no cover

        pieces = []
        for j, (ci, s, e) in enumerate(parts):
            for p in self._by_comp[ci]:
                lo = s if s > p.a else p.a
                hi = e if e < p.a + p.length else p.a + p.length
                if lo < hi:
                    img_lo = p.b + (lo - p.a)
                    k, off = locate(p.dst, img_lo)
                    pieces.append((j, lo - s, hi - lo, k, off))
        return Iet(subdom, subdom, pieces)

    def is_q_rational(self, q: int) -> bool:
        """Whether every discontinuity of this one-interval map sits on the
        grid (1/q)N."""
        if q < 1:
            raise IetError("q must be >= 1")
        if len(self.source.components) != 1 or self.source.components[0].kind != INTERVAL:
            raise IetError("q-rationality is about maps of a single interval")
        for pt in self.discontinuities():
            x = pt.x
            if not isinstance(x, QuadNum) or not x.is_rational():
                return False
            if (x.a * q).denominator != 1:
                return False
        return True


def _check_partition(domain: Domain, triples, which: str) -> None:
    """triples: sorted (comp, start, length); must tile every component."""
    seen: dict[int, object] = {}
    for ci, a, ln in triples:
        cursor = seen.get(ci)
        if cursor is None:
            if a != 0:
                raise PartitionError(f"{which} component {ci} not covered from 0")
        elif a != cursor:
            raise PartitionError(
                f"{which} component {ci}: gap or overlap at {a} (expected {cursor})"
            )
        seen[ci] = a + ln
    for ci, comp in enumerate(domain.components):
        if seen.get(ci) != comp.length:
            raise PartitionError(f"{which} component {ci} not exactly covered")


def subdomain_as_domain(sub: Subdomain) -> Domain:
    """Stand-alone domain whose components are the parts of a subdomain."""
    comps = []
    for j, (ci, s, e) in enumerate(sub.parts):
        parent = sub.domain.components[ci]
        whole_circle = parent.kind == CIRCLE and s == 0 and e == parent.length
        kind = CIRCLE if whole_circle else INTERVAL
        comps.append(Component(kind, f"{parent.cid}:{j}", e - s))
    return Domain(tuple(comps))


# -- convenient builders -----------------------------------------------------------


def from_lengths(sigma: Sequence[int], lengths: Sequence, domain: Optional[Domain] = None) -> Iet:
    """Interval exchange of [0, 1) with continuity intervals of the given
    lengths, the i-th being sent to position sigma(i) in the target order."""
    sigma = perm_validate(sigma)
    if not perm_is_realizable(sigma):
        raise IetError(f"{sigma} maps adjacent intervals adjacently; pieces would merge")
    lengths = [_num(x) for x in lengths]
    if len(lengths) != len(sigma):
        raise IetError("one length per interval required")
    for x in lengths:
        if not x > 0:
            raise IetError("lengths must be positive")
    total = 0
    for x in lengths:
        total = x + total
    if total != 1:
        raise IetError("lengths must sum to 1")
    if domain is None:
        domain = Domain.interval(1)
    sigma_inv = perm_inverse(sigma)
    img_starts = []
    acc = 0
    for k in range(len(sigma)):
        img_starts.append(acc)
        acc = acc + lengths[sigma_inv[k] - 1]
    pieces = []
    a = 0
    for i, ln in enumerate(lengths):
        pieces.append((0, a, ln, 0, img_starts[sigma[i] - 1]))
        a = a + ln
    return Iet(domain, domain, pieces)


def lengths_of(h: Iet) -> tuple:
    """Continuity interval lengths of a one-interval map, in source order."""
    if len(h.source.components) != 1:
        raise IetError("lengths are read off single-interval maps")
    return tuple(p.length for p in h.pieces)


def permutation_of(h: Iet) -> tuple[int, ...]:
    """Underlying permutation of a one-interval map."""
    ps = h.pieces
    order = sorted(range(len(ps)), key=lambda i: ps[i].b)
    sigma = [0] * len(ps)
    for rank, i in enumerate(order):
        sigma[i] = rank + 1
    return tuple(sigma)


def interval_rotation(angle) -> Iet:
    """Rotation by ``angle`` of [0, 1), realized on the interval (2 pieces)."""
    t = _num(angle).mod(QuadNum(1))
    if t == 0:
        return Iet.identity(Domain.interval(1))
    return from_lengths((2, 1), [1 - t, t])


def circle_rotation(length, angle, cid: str = "C") -> Iet:
    """Rotation by ``angle`` on a circle R/(length)Z."""
    length = _num(length)
    dom = Domain.circle(length, cid)
    t = _num(angle).mod(length)
    if t == 0:
        return Iet.identity(dom)
    return Iet(dom, dom, [(0, 0, length - t, 0, t), (0, length - t, t, 0, 0)])

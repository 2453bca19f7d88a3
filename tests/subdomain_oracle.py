"""Reference oracle: subdomains as they stood over ``QuadNum``.

This is the ``Subdomain`` class that ``ietlab.core`` used before it moved
onto a frame, with its ``QuadNum`` algebra: parts (component index, start,
end) of ``QuadNum``, sorted and merged, and ``union``, ``intersection``,
``complement`` and ``covers`` built from pairwise comparisons.  Beside it
are the support and image of a map read off its ``QuadNum`` pieces, and
the closed eps-balls of ``ietlab.relations`` built in ``QuadNum``.  The
tests require the package's subdomains to give exactly these sets and
verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ietlab.core import CIRCLE, INTERVAL, Domain, DomainMismatchError, Iet, IetError, Point
from ietlab.field import QuadNum

_ZERO = QuadNum(0)


@dataclass(frozen=True)
class QuadSubdomain:
    """Finite union of half-open coordinate intervals inside a domain.

    Parts are (component index, start, end) with 0 <= start < end <= length,
    sorted and merged, so equal sets have equal representations.  A full
    circle appears as the single part (ci, 0, length).
    """

    domain: Domain
    parts: tuple[tuple[int, QuadNum, QuadNum], ...]

    @staticmethod
    def make(domain: Domain, parts: Iterable[tuple[int, object, object]]) -> "QuadSubdomain":
        by_comp: dict[int, list] = {}
        for ci, s, e in parts:
            s, e = QuadNum.of(s), QuadNum.of(e)
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
        return QuadSubdomain(domain, tuple(out))

    def is_empty(self) -> bool:
        return not self.parts

    def measure(self):
        t = _ZERO
        for _, s, e in self.parts:
            t = (e - s) + t
        return t

    def union(self, other: "QuadSubdomain") -> "QuadSubdomain":
        self._check(other)
        return QuadSubdomain.make(self.domain, self.parts + other.parts)

    def intersection(self, other: "QuadSubdomain") -> "QuadSubdomain":
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
        return QuadSubdomain.make(self.domain, out)

    def complement(self) -> "QuadSubdomain":
        out = []
        for ci, comp in enumerate(self.domain.components):
            cursor = _ZERO
            for cj, s, e in self.parts:
                if cj != ci:
                    continue
                if cursor < s:
                    out.append((ci, cursor, s))
                cursor = e
            if cursor < comp.length:
                out.append((ci, cursor, comp.length))
        return QuadSubdomain.make(self.domain, out)

    def covers(self, other: "QuadSubdomain") -> bool:
        """Whether other is a subset of self."""
        return other.intersection(self.complement()).is_empty()

    def disjoint(self, other: "QuadSubdomain") -> bool:
        return self.intersection(other).is_empty()

    def _check(self, other: "QuadSubdomain") -> None:
        if other.domain != self.domain:
            raise DomainMismatchError("subdomains of different domains")


def oracle_of(sub) -> QuadSubdomain:
    """A package subdomain as an oracle one, by its QuadNum parts."""
    return QuadSubdomain.make(sub.domain, sub.parts)


def support_of(h: Iet) -> QuadSubdomain:
    """The union of the pieces that move their points, from the pieces."""
    moving = [(p.src, p.a, p.a + p.length) for p in h.pieces if p.src != p.dst or p.a != p.b]
    return QuadSubdomain.make(h.source, moving)


def image_of(h: Iet, sub: QuadSubdomain) -> QuadSubdomain:
    out = []
    for ci, s, e in sub.parts:
        for p in h.pieces:
            if p.src != ci:
                continue
            lo = s if s > p.a else p.a
            hi = e if e < p.a + p.length else p.a + p.length
            if lo < hi:
                out.append((p.dst, p.b + (lo - p.a), p.b + (hi - p.a)))
    return QuadSubdomain.make(h.target, out)


def jump_marks(s: Iet) -> list[Point]:
    """Jumps of the map and of its inverse, as one list of points."""
    return list(s.discontinuities()) + list((~s).discontinuities())


def eps_cover(domain: Domain, pts: Iterable[Point], eps) -> QuadSubdomain:
    """The closed eps-balls around pts and around the ends of interval
    components, as half-open parts: [s, e) lies in a finite union of closed
    intervals exactly when it lies in the union of their half-open versions.
    A ball on a circle is cut at 0 by its copies one turn either way."""
    eps = QuadNum.of(eps)
    centers = [(p.comp, p.x) for p in pts]
    for ci, comp in enumerate(domain.components):
        if comp.kind == INTERVAL:
            centers += [(ci, _ZERO), (ci, comp.length)]
    parts = []
    for ci, x in centers:
        comp = domain.components[ci]
        for turn in (-comp.length, _ZERO, comp.length) if comp.kind == CIRCLE else (_ZERO,):
            lo, hi = x + turn - eps, x + turn + eps
            if lo < comp.length and hi > 0:
                parts.append((ci, lo if lo > 0 else _ZERO, hi if hi < comp.length else comp.length))
    return QuadSubdomain.make(domain, parts)

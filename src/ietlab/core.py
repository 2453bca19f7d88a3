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

Maps live on a frame.  A frame holds coordinates and supplies their
addition, subtraction and sign, and an ``Iet`` keeps each piece as a tuple
(src, a, length, dst, b) of its frame's coordinates.  Composition,
inversion, merging and the jump search use nothing else, in one code path
for the two frames:

* :class:`ietlab.field.Frame`: a coordinate is an integer pair (P, Q), the
  value (P + Q*sqrt(d)) / den, and its sign is ``field._sign``;
* :class:`ietlab.approx.TraceRecorder`: a coordinate is an affine form over
  the unknown lengths, and its sign is ``decide``, which records the
  comparison as a constraint.

A product of maps on two exact frames rescales once, to the frame over the
lcm of their denominators; two fields raise
:class:`~ietlab.field.FieldMismatchError`.  ``QuadNum`` values appear only
at the edge.  ``pieces``, built once on first use, is the one ``QuadNum``
view of a map: :class:`Piece` values for :class:`Subdomain` and the text
format.  Evaluation (``__call__``, ``left_limit``) of an exact map puts
the point and the piece starts on one denominator and finds the piece by
one bisect over the starts' integer keys (:func:`ietlab.field.order_key`),
built once per map; the only ``QuadNum`` it builds is the image.

``Iet(...)`` is the one validating constructor: it puts its numbers on a
``Frame``, then sorts the pieces and checks that they partition both
domains, the same check that builds the traced generators on the recorder.
Products and inverses of maps in canonical form are partitions by
construction and skip those checks.  With ``IETLAB_CHECK=1`` in the
environment when this module is imported, each of them is rebuilt from its
pieces' ``QuadNum`` values through ``Iet(...)``, and the two maps must be
equal, or :class:`SelfCheckError` is raised.  A frame's ``value`` reads a
coordinate and decides nothing, so the rebuild of a traced map records
nothing on the trace; equality compares an exact map with a traced one by
their ``pieces``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import os
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from ietlab.field import FieldMismatchError, Frame, QuadNum, order_key

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


_ZERO = QuadNum(0)


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
        return Domain((Component(INTERVAL, cid, QuadNum.of(length)),))

    @staticmethod
    def circle(length=1, cid: str = "C") -> "Domain":
        return Domain((Component(CIRCLE, cid, QuadNum.of(length)),))

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i: int) -> Component:
        return self.components[i]

    def index_of(self, cid: str) -> int:
        for i, c in enumerate(self.components):
            if c.cid == cid:
                return i
        raise IetError(f"no component {cid!r}")


@dataclass(frozen=True, slots=True)
class Point:
    """A point of a domain: component index plus exact coordinate."""

    comp: int
    x: object

    def key(self):
        return (self.comp, self.x)


_new_point = object.__new__
_set_comp, _set_x = Point.comp.__set__, Point.x.__set__


def make_point(domain: Domain, comp: int, x) -> Point:
    """Build a point, reducing circle coordinates into [0, length)."""
    if not 0 <= comp < len(domain.components):
        raise PointError(f"no component {comp} in the domain")
    c = domain.components[comp]
    x = QuadNum.of(x)
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
            cursor = _ZERO
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


def _order(cmp, at: int, *coords: int):
    """Sort key of pieces: by the integer slot ``at``, then by the
    coordinate slots in turn, each by the frame's sign of a difference."""

    def order(x, y) -> int:
        c = (x[at] > y[at]) - (x[at] < y[at])
        for k in coords:
            if c:
                break
            c = cmp(x[k], y[k])
        return c

    return functools.cmp_to_key(order)


def _check_partition(frame, lengths: list, triples, which: str) -> None:
    """triples: sorted (comp, start, length) on frame; must tile every
    component of the given lengths."""
    cmp, add, value = frame.cmp, frame.add, frame.value
    seen: dict[int, object] = {}
    for ci, a, ln in triples:
        cursor = seen.get(ci)
        if cursor is None:
            if frame.sign(a) != 0:
                raise PartitionError(f"{which} component {ci} not covered from 0")
        elif cmp(a, cursor) != 0:
            raise PartitionError(
                f"{which} component {ci}: gap or overlap at {value(a)} (expected {value(cursor)})"
            )
        seen[ci] = add(a, ln)
    for ci, length in enumerate(lengths):
        end = seen.get(ci)
        if end is None or cmp(end, length) != 0:
            raise PartitionError(f"{which} component {ci} not exactly covered")


def _validate(frame, source: Domain, target: Domain, raw: list) -> None:
    """Check that pieces (src, a, length, dst, b) on frame partition both
    domains, and sort them by (src, a) in place."""
    sign, cmp, add = frame.sign, frame.cmp, frame.add
    src_len = [frame.coord(QuadNum.of(c.length)) for c in source.components]
    dst_len = [frame.coord(QuadNum.of(c.length)) for c in target.components]
    for p in raw:
        src, a, ln, dst, b = p
        if sign(ln) <= 0:
            raise PartitionError(f"piece with non-positive length: {_edge_piece(frame, p)}")
        if not 0 <= src < len(src_len):
            raise IetError(f"bad source component index {src}")
        if not 0 <= dst < len(dst_len):
            raise IetError(f"bad target component index {dst}")
        if sign(a) < 0 or cmp(add(a, ln), src_len[src]) > 0:
            raise PartitionError(f"piece leaves its source component: {_edge_piece(frame, p)}")
        if sign(b) < 0 or cmp(add(b, ln), dst_len[dst]) > 0:
            where = _edge_piece(frame, p)
            raise PartitionError(f"piece image leaves its target component: {where}")
    raw.sort(key=_order(cmp, 0, 1))
    _check_partition(frame, src_len, [(p[0], p[1], p[2]) for p in raw], "source")
    by_image = sorted(raw, key=_order(cmp, 3, 4, 2))
    _check_partition(frame, dst_len, [(p[3], p[4], p[2]) for p in by_image], "target")


def _edge_piece(frame, p: tuple) -> Piece:
    """A piece on frame as a Piece of QuadNum values."""
    value = frame.value
    return Piece(p[0], value(p[1]), value(p[2]), p[3], value(p[4]))


class Iet:
    """Interval exchange map between two domains, in canonical form.

    The map lives on a frame (see the module docstring): ``frame`` holds
    its coordinates, and its pieces are tuples (src, a, length, dst, b) of
    that frame's coordinates, sorted by (src, a).  ``pieces`` reads them as
    :class:`Piece` values of ``QuadNum``, built once on first use; it is
    the map's only ``QuadNum`` view.
    """

    __slots__ = ("source", "target", "frame", "_pieces", "_comps", "_edge", "_keys", "_hash")

    def __init__(self, source: Domain, target: Domain, pieces: Iterable[tuple]):
        raw = [
            (int(p[0]), QuadNum.of(p[1]), QuadNum.of(p[2]), int(p[3]), QuadNum.of(p[4]))
            for p in pieces
        ]
        values = [QuadNum.of(c.length) for c in source.components + target.components]
        for p in raw:
            values += (p[1], p[2], p[4])
        frame = Frame(values)
        coord = frame.coord
        raw = [(s, coord(a), coord(n), d, coord(b)) for s, a, n, d, b in raw]
        _validate(frame, source, target, raw)
        self._fill(frame, source, target, raw)

    @staticmethod
    def _make(frame, source: Domain, target: Domain, pieces: list) -> "Iet":
        """The map of pieces on frame, validated as ``Iet(...)`` validates:
        how :func:`from_lengths` builds a map on an exact frame and the
        trace builds its generators on the recorder."""
        _validate(frame, source, target, pieces)
        h = object.__new__(Iet)
        h._fill(frame, source, target, pieces)
        return h

    def _fill(self, frame, source: Domain, target: Domain, pieces: list) -> None:
        """Merge pieces sorted by (src, a) into canonical form and hold them."""
        cmp, add = frame.cmp, frame.add
        merged: list[tuple] = []
        for p in pieces:
            if merged:
                q = merged[-1]
                # pieces of one source component are adjacent: they partition it
                if q[0] == p[0] and q[3] == p[3] and cmp(add(q[4], q[2]), p[4]) == 0:
                    merged[-1] = (q[0], q[1], add(q[2], p[2]), q[3], q[4])
                    continue
            merged.append(p)
        self._hold(frame, source, target, merged)

    def _hold(self, frame, source: Domain, target: Domain, pieces: list) -> None:
        """Hold canonical pieces on frame; every cache starts empty."""
        self.source = source
        self.target = target
        self.frame = frame
        self._pieces = tuple(pieces)
        self._comps = None
        self._edge = None
        self._keys = None
        self._hash = None

    def _per_component(self) -> tuple[dict, dict]:
        """The pieces of each source component and their starts, built
        once, on first use: a product read only as the inner factor of the
        next one never needs them."""
        if self._comps is None:
            by_comp = {
                ci: list(ps) for ci, ps in itertools.groupby(self._pieces, operator.itemgetter(0))
            }
            self._comps = by_comp, {ci: [p[1] for p in ps] for ci, ps in by_comp.items()}
        return self._comps

    @staticmethod
    def _trusted(frame, source: Domain, target: Domain, pieces: list) -> "Iet":
        """Map from pieces on frame that are sorted by (src, a) and partition
        both domains by construction: merges only, skipping the checks of
        ``Iet(...)``, which stays the entry point for every other caller."""
        h = object.__new__(Iet)
        h._fill(frame, source, target, pieces)
        if CHECKED:
            try:
                checked = Iet(source, target, [_edge_piece(frame, p) for p in pieces])
            except PartitionError as e:
                raise SelfCheckError(f"trusted construction is not a partition: {e}") from e
            if checked != h:
                raise SelfCheckError("trusted construction disagrees with validation")
        return h

    def _on(self, frame) -> "Iet":
        """This map with its coordinates on frame, which joins its own."""
        own = self.frame
        if frame is own or frame.den == own.den:
            return self
        h = object.__new__(Iet)
        h._hold(frame, self.source, self.target, frame.lift(self._pieces, own))
        return h

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def identity(domain: Domain) -> "Iet":
        return Iet(domain, domain, [(i, 0, c.length, i, 0) for i, c in enumerate(domain.components)])

    # -- basics ------------------------------------------------------------------

    @property
    def pieces(self) -> tuple[Piece, ...]:
        """The pieces as Pieces of QuadNum, built once, on first use."""
        if self._edge is None:
            frame = self.frame
            self._edge = tuple([_edge_piece(frame, p) for p in self._pieces])
        return self._edge

    def __eq__(self, other):
        if not isinstance(other, Iet):
            return NotImplemented
        if (
            self.source != other.source
            or self.target != other.target
            or len(self._pieces) != len(other._pieces)
        ):
            return False
        try:
            frame = self.frame.join(other.frame)
        except (FieldMismatchError, TypeError):  # two fields, or exact and traced
            return self.pieces == other.pieces
        return self._on(frame)._pieces == other._on(frame)._pieces

    def __hash__(self):
        if self._hash is None:
            ps = self._pieces
            keys = self.frame.keys([p[1] for p in ps] + [p[4] for p in ps])
            ends = tuple([(p[0], p[3]) for p in ps])
            self._hash = hash((self.source, self.target, ends, tuple(keys)))
        return self._hash

    def __repr__(self):
        return f"<Iet {len(self._pieces)} pieces on {len(self.source.components)} components>"

    def is_identity(self) -> bool:
        cmp = self.frame.cmp
        return self.source == self.target and all(
            p[0] == p[3] and cmp(p[1], p[4]) == 0 for p in self._pieces
        )

    # -- evaluation ----------------------------------------------------------------

    def __call__(self, pt: Point) -> Point:
        at = self._locate(pt.comp, pt.x, False)
        if at is None:
            raise PointError(f"point {pt} outside the source domain")
        # the point's slots set directly: the frozen __init__ costs a quarter
        # of an evaluation
        out = _new_point(Point)
        _set_comp(out, at[0])
        _set_x(out, at[1])
        return out

    def left_limit(self, comp: int, x) -> tuple[int, object]:
        """One-sided limit of the map approaching coordinate ``x`` from below.

        ``x`` ranges over (0, length]; the result is (component, coordinate)
        with coordinate in (0, length] of the target component, i.e. a point
        of the metric completion.  On a source circle, x = length stands for
        approaching 0 from below.
        """
        at = self._locate(comp, x, True)
        if at is None:
            raise PointError(f"left limit needs a coordinate in (0, length], got {x}")
        return at

    def _locate(self, comp: int, x, left: bool) -> Optional[tuple[int, QuadNum]]:
        """The image (component, coordinate) of coordinate x of source
        component comp, or with ``left`` of the left limit at x; None when
        comp is no component or x lies outside [0, length), or (0, length]
        with ``left``.

        x and the map's coordinates meet over the lcm of their
        denominators, where the coordinates are m times the frame's.  Their
        keys by :func:`~ietlab.field.order_key` order them exactly, so one
        bisect of k / m, with k the key of x, over the keys of the starts
        finds the piece (rounded down for the value, whose start may equal
        x, and up for the left limit, whose start lies below x)."""
        if not 0 <= comp < len(self.source.components):
            return None
        if x.__class__ is not QuadNum:
            x = QuadNum.of(x)
        den, m, d, (P, Q) = self.frame.meet(x)
        box = self._keys
        if (
            box is None
            or box[0] != d
            or d and not (-box[1] < P < box[1] and -box[1] < Q < box[1] and m < box[2])
        ):
            box = self._order(d, P, Q, m)
        _, _, _, K, r, keyed, _ = box
        at = keyed.get(comp)
        if at is None:
            pieces = self._per_component()[0][comp]
            length = self.frame.coord(QuadNum.of(self.source.components[comp].length))
            at = keyed[comp] = (
                [a[0] * K + a[1] * r for _, a, _, _, _ in pieces],
                length[0] * K + length[1] * r,
                [(dst, b[0] - a[0], b[1] - a[1]) for _, a, _, dst, b in pieces],
            )
        keys, end, moves = at
        k = P * K + Q * r
        if left:
            if k <= 0 or k > m * end:
                return None
            i = bisect.bisect_left(keys, -(-k // m))
        else:
            if k < 0 or k >= m * end:
                return None
            i = bisect.bisect_right(keys, k // m)
        dst, sp, sq = moves[i - 1]
        return dst, Frame.value_over(P + m * sp, Q + m * sq, den, d)

    def _order(self, d: int, P: int, Q: int, m: int) -> tuple:
        """The box of ``order_key(d, bits)`` for the field d that holds the
        pair (P, Q) and the map's source coordinates times m: (d, 2**bits,
        2**(bits - own), K, r, keyed, own), where own is the bits of the
        map's largest coordinate and keyed holds, per component, the keys
        of the starts and of the length and each piece's target and shift,
        built on first use.  Made again only for a larger box or another
        field."""
        own = self._keys[6] if self._keys else self._own_bits()
        if d:
            # 32 more bits: room for the next points of an orbit
            bits = max(abs(P).bit_length(), abs(Q).bit_length(), own + m.bit_length()) + 32
        else:
            bits = 0  # every Q is 0, and the key is P
        K, r = order_key(d, bits)
        self._keys = box = (d, 1 << bits, 1 << (bits - own) if d else 0, K, r, {}, own)
        return box

    def _own_bits(self) -> int:
        """The bits of the largest |P| or |Q| of a source coordinate."""
        frame = self.frame
        coords = [p[1] for p in self._pieces]
        coords += [frame.coord(QuadNum.of(c.length)) for c in self.source.components]
        return max(abs(v).bit_length() for c in coords for v in c)

    # -- group structure -------------------------------------------------------------

    def __mul__(self, other: "Iet") -> "Iet":
        """Composition self o other (apply ``other`` first)."""
        if not isinstance(other, Iet):
            return NotImplemented
        if other.target != self.source:
            raise DomainMismatchError("composition needs matching middle domain")
        frame = self.frame
        if other.frame is not frame:
            frame = frame.join(other.frame)
        pieces_of, starts_of = self._on(frame)._per_component()
        inner = other._pieces
        if other.frame is not frame and other.frame.den != frame.den:
            inner = frame.lift(inner, other.frame)
        add, sub, cmp = frame.add, frame.sub, frame.cmp
        out = []
        for src, a, ln, dst, lo in inner:
            hi = add(lo, ln)
            starts = starts_of[dst]
            gps = pieces_of[dst]
            last = len(gps) - 1
            # the last start <= lo, found as bisect.bisect_right finds it
            i, j = 0, last + 1
            while i < j:
                mid = (i + j) >> 1
                if cmp(lo, starts[mid]) < 0:
                    j = mid
                else:
                    i = mid + 1
            i -= 1
            g = gps[i]
            b = add(g[4], sub(lo, g[1]))
            # self's pieces partition their component: piece i ends where
            # piece i + 1 starts, so [lo, hi) is cut at the starts inside it
            if i == last or cmp(hi, starts[i + 1]) <= 0:
                out.append((src, a, ln, g[3], b))
                continue
            n = sub(starts[i + 1], lo)
            out.append((src, a, n, g[3], b))
            a = add(a, n)
            i += 1
            while i < last and cmp(starts[i + 1], hi) < 0:
                g = gps[i]
                out.append((src, a, g[2], g[3], g[4]))
                a = add(a, g[2])
                i += 1
            g = gps[i]
            out.append((src, a, sub(hi, g[1]), g[3], g[4]))
        # other's pieces run in (src, a) order and each is cut left to right
        return Iet._trusted(frame, other.source, self.target, out)

    def __invert__(self) -> "Iet":
        frame = self.frame
        flipped = sorted(self._pieces, key=_order(frame.cmp, 3, 4))
        return Iet._trusted(
            frame, self.target, self.source, [(p[3], p[4], p[2], p[0], p[1]) for p in flipped]
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

    def _jumps(self) -> list[tuple[int, object]]:
        """(component, start on the frame) of each jump, sorted."""
        frame = self.frame
        cmp, add = frame.cmp, frame.add
        by_comp = self._per_component()[0]
        out = []
        for ci, comp in enumerate(self.source.components):
            ps = by_comp[ci]
            # piece k against the piece just to its left, which wraps round
            # to the last piece at k = 0 on a circle
            for k in range(0 if comp.kind == CIRCLE else 1, len(ps)):
                p = ps[k]
                q = ps[k - 1]
                if q[3] == p[3]:
                    lim = add(q[4], q[2])
                    if cmp(lim, p[4]) == 0:
                        continue  # merged pieces cannot reach here, but wrap k=0 can
                    tgt = self.target.components[p[3]]
                    if (
                        tgt.kind == CIRCLE
                        and cmp(lim, frame.coord(QuadNum.of(tgt.length))) == 0
                        and frame.sign(p[4]) == 0
                    ):
                        continue  # continuous across the target circle's cut
                out.append((ci, p[1]))
        return out

    def discontinuities(self) -> tuple[Point, ...]:
        """Points where the map is discontinuous, sorted.

        Left endpoints of interval components never appear (the map is
        right-continuous there by convention); circle coordinates are fully
        interior, including 0.
        """
        value = self.frame.value
        return tuple([Point(ci, value(x)) for ci, x in self._jumps()])

    def d(self) -> int:
        return len(self._jumps())

    # -- structure readers ---------------------------------------------------------

    def support(self) -> Subdomain:
        if self.source != self.target:
            raise DomainMismatchError("support needs an automorphism")
        frame = self.frame
        value, add, cmp = frame.value, frame.add, frame.cmp
        moving = [
            (p[0], value(p[1]), value(add(p[1], p[2])))
            for p in self._pieces
            if p[0] != p[3] or cmp(p[1], p[4]) != 0
        ]
        return Subdomain.make(self.source, moving)

    def image_of(self, sub: Subdomain) -> Subdomain:
        if sub.domain != self.source:
            raise DomainMismatchError("subdomain not in the source domain")
        out = []
        for ci, s, e in sub.parts:
            for p in self.pieces:
                if p.src != ci:
                    continue
                lo = s if s > p.a else p.a
                hi = e if e < p.a + p.length else p.a + p.length
                if lo < hi:
                    out.append((p.dst, p.b + (lo - p.a), p.b + (hi - p.a)))
        return Subdomain.make(self.target, out)

    def is_q_rational(self, q: int) -> bool:
        """Whether every discontinuity of this one-interval map sits on the
        grid (1/q)N."""
        if q < 1:
            raise IetError("q must be >= 1")
        if len(self.source.components) != 1 or self.source.components[0].kind != INTERVAL:
            raise IetError("q-rationality is about maps of a single interval")
        for pt in self.discontinuities():
            x = pt.x
            if not x.is_rational():
                return False
            if (x.a * q).denominator != 1:
                return False
        return True


# -- convenient builders -----------------------------------------------------------


def from_lengths(sigma: Sequence[int], lengths: Sequence, domain: Optional[Domain] = None) -> Iet:
    """Interval exchange of [0, 1) with continuity intervals of the given
    lengths, the i-th being sent to position sigma(i) in the target order."""
    sigma = perm_validate(sigma)
    if not perm_is_realizable(sigma):
        raise IetError(f"{sigma} maps adjacent intervals adjacently; pieces would merge")
    lengths = [QuadNum.of(x) for x in lengths]
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
    frame = Frame(lengths + [QuadNum.of(c.length) for c in domain.components])
    return _from_lengths(frame, sigma, [frame.coord(x) for x in lengths], domain)


def _from_lengths(frame, sigma: tuple[int, ...], lengths: list, domain: Domain) -> Iet:
    """The map of :func:`from_lengths` from coordinates of frame, an exact
    frame or the trace's recorder, validated as ``Iet(...)`` validates."""
    add = frame.add
    zero = frame.coord(_ZERO)
    sigma_inv = perm_inverse(sigma)
    img_starts = []
    acc = zero
    for k in range(len(sigma)):
        img_starts.append(acc)
        acc = add(acc, lengths[sigma_inv[k] - 1])
    pieces = []
    a = zero
    for i, ln in enumerate(lengths):
        pieces.append((0, a, ln, 0, img_starts[sigma[i] - 1]))
        a = add(a, ln)
    return Iet._make(frame, domain, domain, pieces)


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
    t = QuadNum.of(angle).mod(QuadNum(1))
    if t == 0:
        return Iet.identity(Domain.interval(1))
    return from_lengths((2, 1), [1 - t, t])


def circle_rotation(length, angle, cid: str = "C") -> Iet:
    """Rotation by ``angle`` on a circle R/(length)Z."""
    length = QuadNum.of(length)
    dom = Domain.circle(length, cid)
    t = QuadNum.of(angle).mod(length)
    if t == 0:
        return Iet.identity(dom)
    return Iet(dom, dom, [(0, 0, length - t, 0, t), (0, length - t, t, 0, 0)])

"""Minimal models for discontinuity growth.

For an interval exchange automorphism h, d(h^n) is subadditive in n, so the
growth rate |h| = lim d(h^n)/n exists.  Cutting and regluing the domain
conjugates h to a model h_m whose count is meant to be exactly linear,
d(h_m^n) = n d(h_m) for every n, which would pin |h| = d(h_m) as an integer
(Novak, "Discontinuity growth of interval exchange maps", J. Mod. Dyn. 2009).

Two moves build the model.  Each is one domain map, built by ``_regroup``
from the parts of the old domain that make each new component, and one
conjugation:

* cutting the domain at every point where both h and its inverse jump
  (each cut lowers that count by one); when there is none, cutting along
  the whole forward orbit of the shortest "boundary connection", which
  starts at a jump of the inverse and ends at a jump of h (this lowers d
  by one);
* regluing component endpoints along the pair of one-sided orbit tracks of
  a jump x of h whose k-th power is nevertheless continuous at x (a "fake
  boundary"; gluing may turn an interval chain into a circle).

What a certificate proves and what it only verifies:

* proven: |h| <= d(h_m), since conjugation keeps the rate and the rate of
  h_m is at most d(h_m) by subadditivity;
* verified up to N: d(h_m^n) = n d(h_m) for every n <= N, decided by
  walking the orbits of h_m's jumps for N steps (see
  :func:`verify_linear_growth`).

Linear growth for all n is not proven: a boundary connection longer than
the search depth and than N goes unseen.  ``long_connection_map`` of the
tests has one of 2,469 steps; its depth-64 model has d(h_m^n) = 3n up to
n = 2,048 but not at n = 2,500, and its growth rate is 0.  With N = 2,500
(``--check 2500``) the retry at depth 4,096 cuts the whole connection in
one move and certifies norm 0, with 2,471 components.

The connection and fake-boundary searches and the growth check walk orbits
on integers.  Every coordinate of h is an integer pair (P, Q) of its own
:class:`~ietlab.field.Frame`, ``h.frame``, and a step adds to a point's
pair the translation of the piece that holds it, read off h's own pieces,
so every orbit point is again a pair of that frame and the walk is exact:
it visits the very values ``Iet.__call__`` and ``Iet.left_limit`` give,
with no ``QuadNum`` built.  Each point also carries one integer key, which
orders the pairs of a box that every walk stays in exactly, so a step
finds its piece by one ``bisect`` over the keys of the piece starts and
moves the key with the pair.  The keys and moves are h's keyed piece
table, the one that evaluation reads, with its box sized by the one box
rule, :func:`~ietlab.field.box_key`.  The searches refuse a depth or a
growth check beyond the caps that size the box.  The kernel and the jump
sets of h and h^-1 are built once per map and shared by the searches of a
surgery pass and by the growth check of its last map.  With
``IETLAB_CHECK=1`` every walk is run again through ``Iet.__call__`` and
``Iet.left_limit`` and must agree, and the growth check must agree with
the power h_m^N, or :class:`SelfCheckError` is raised.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from ietlab import core
from ietlab.core import (
    CIRCLE,
    INTERVAL,
    Component,
    Domain,
    DomainMismatchError,
    Iet,
    IetError,
    Point,
    SelfCheckError,
)
from ietlab.field import QuadNum
from ietlab.relations import CapExceededError


class MinimalModelError(IetError):
    """Linear-growth verification failed at the retry cap."""

    def __init__(self, failing_n: int, model: Iet, depth: int):
        super().__init__(f"d(h_m^{failing_n}) < {failing_n} * d(h_m) at search depth {depth}")
        self.failing_n = failing_n
        self.model = model
        self.depth = depth


# -- domain surgery -----------------------------------------------------------------


def _regroup(domain: Domain, groups: Sequence[tuple]) -> Iet:
    """The map from domain onto new components made of its parts.

    groups lists the new components in order as (kind, id, parts); a part
    is (component, start, length) of the old domain, and the parts of a
    group are laid end to end.  An id already taken gets primes."""
    comps: list[Component] = []
    pieces = []
    used: set[str] = set()
    for k, (kind, cid, parts) in enumerate(groups):
        while cid in used:
            cid += "'"
        used.add(cid)
        off = QuadNum(0)
        for c, start, length in parts:
            pieces.append((c, start, length, k, off))
            off = off + length
        comps.append(Component(kind, cid, off))
    return Iet(domain, Domain(tuple(comps)), pieces)


def _split_domain(domain: Domain, cuts: Sequence[Point]) -> Iet:
    """The map old -> new that cuts the domain at every listed point at
    once.  An interval is cut at its sorted points; a circle opens at the
    first of its points in the order given, is cut at the others and keeps
    its wrap-around part.  The parts of component c are intervals c.0, c.1,
    ... in order."""
    at: dict[int, list] = {}
    for pt in cuts:
        at.setdefault(pt.comp, []).append(pt.x)
    groups = []
    for i, cc in enumerate(domain.components):
        if i not in at:
            groups.append((cc.kind, cc.cid, [(i, 0, cc.length)]))
            continue
        first = at[i][0] if cc.kind == CIRCLE else QuadNum(0)
        xs = sorted({first, *at[i]})
        k = xs.index(first)
        xs = xs[k:] + xs[:k]  # from the point where the component opens
        for j, (lo, hi) in enumerate(zip(xs, xs[1:] + xs[:1])):
            if lo < hi:
                parts = [(i, lo, hi - lo)]
            else:  # the last part, across a circle's coordinate 0 when hi > 0
                parts = [(i, lo, cc.length - lo)] + ([(i, 0, hi)] if hi > 0 else [])
            groups.append((INTERVAL, f"{cc.cid}.{j}", parts))
    return _regroup(domain, groups)


def _split_map(h: Iet, cuts: Sequence[Point]) -> tuple[Iet, Iet]:
    """Split the domain of an automorphism at a list of interior points,
    all with one conjugation.

    Returns (h', fwd) with fwd : old -> new and h' = fwd h fwd^-1.
    """
    if any(h.source[pt.comp].kind == INTERVAL and pt.x == 0 for pt in cuts):
        raise IetError("cannot split at a non-interior point")
    fwd = _split_domain(h.source, cuts)
    return fwd * h * ~fwd, fwd


def _glue_domain(domain: Domain, joins: list[tuple[int, int]]) -> Iet:
    """The map old -> new that glues the missing right endpoint of interval
    e onto the left endpoint of interval s, for each (e, s).  Open chains
    start at their heads; cycles start at their least member and become
    circles."""
    comps = domain.components
    nxt: dict[int, int] = {}
    has_pred = set()
    for e, s in joins:
        if comps[e].kind != INTERVAL or comps[s].kind != INTERVAL:
            raise IetError("only interval components can be glued")
        if e in nxt or s in has_pred:
            raise IetError("conflicting gluing instructions")
        nxt[e] = s
        has_pred.add(s)
    chains: dict[int, list[int]] = {}  # by first member
    seen: set[int] = set()
    # chains from their heads (a lone component is its own chain), then
    # what is left, the cycles, from their least member
    for i in [i for i in range(len(comps)) if i not in has_pred] + sorted(has_pred):
        if i not in seen:
            chain = [i]
            while chain[-1] in nxt and nxt[chain[-1]] != i:
                chain.append(nxt[chain[-1]])
            seen.update(chain)
            chains[i] = chain
    groups = []
    for i, chain in sorted(chains.items()):
        kind = CIRCLE if chain[-1] in nxt else comps[i].kind
        parts = [(j, 0, comps[j].length) for j in chain]
        groups.append((kind, "+".join(comps[j].cid for j in chain), parts))
    return _regroup(domain, groups)


# -- suspension combinatorics -------------------------------------------------------


@dataclass(frozen=True)
class BoundaryConnection:
    """Forward orbit from a jump of h^-1 to a jump of h, endpoints included."""

    x: Point
    k: int
    orbit: tuple[Point, ...]  # x, h(x), ..., h^k(x)


@dataclass(frozen=True)
class FakeBoundary:
    """Jump x of h with h^k(x-) = h^k(x); the two one-sided tracks between.

    right_track holds h^i(x) for i = 1..k-1 (left endpoints of interval
    components); left_track holds the completion points h^i(x-) as
    (component index, component length).
    """

    x: Point
    k: int
    right_track: tuple[Point, ...]
    left_track: tuple[tuple[int, object], ...]


# -- the orbit kernel ---------------------------------------------------------------


class _Orbits:
    """Orbits of an automorphism by its definition: points are (component,
    coordinate) pairs stepped by ``Iet.__call__`` and ``Iet.left_limit``.

    ``points`` and ``inv_points`` are the jumps of h and of h^-1 as
    :class:`Point`; ``jumps`` and ``inv_jumps`` are the same jumps as this
    class's points, and ``marks`` tags each with 1 (a jump of h), 2 (of
    h^-1) or 3 (of both).  ``zero[c]`` and ``end[c]`` are coordinate 0 and
    the length of component c; the searches below only ever test those for
    equality, since a left limit lies in (0, length].
    """

    def __init__(self, h: Iet):
        if h.source != h.target:
            raise DomainMismatchError("needs an automorphism")
        self.h = h
        comps = h.source.components
        self.circle = [c.kind == CIRCLE for c in comps]
        self.zero = [self.key(i, QuadNum(0)) for i in range(len(comps))]
        self.end = [self.key(i, c.length) for i, c in enumerate(comps)]
        self.points = h.discontinuities()
        self.inv_points = (~h).discontinuities()
        self.jumps = [self.key(p.comp, p.x) for p in self.points]
        self.inv_jumps = [self.key(p.comp, p.x) for p in self.inv_points]
        self.marks = dict.fromkeys(self.jumps, 1)
        for y in self.inv_jumps:
            self.marks[y] = self.marks.get(y, 0) | 2

    def key(self, comp: int, x):
        return comp, x

    def value(self, y):
        return y[1]

    def point(self, y) -> Point:
        return Point(y[0], self.value(y))

    def genuine(self, y):
        """The point a left limit y stands for: y itself below the end of
        its component, coordinate 0 at the end of a circle, and None at the
        missing right end of an interval."""
        c = y[0]
        if y != self.end[c]:
            return y
        return self.zero[c] if self.circle[c] else None

    def image(self, y):
        z = self.h(Point(*y))
        return z.comp, z.x

    def left_limit(self, y):
        return self.h.left_limit(*y)


class _IntOrbits(_Orbits):
    """The same orbits on integers (see the module docstring), read off
    h's keyed piece table (``Iet._keyed``).  A point is (comp, k, P, Q):
    (P, Q) is its pair in ``frame`` and k = P K + Q r its key in the
    table's box.  The piece of comp holding a point is then the last one
    whose start key is at most k, one ``bisect_right`` over
    ``keys[comp]``, and the piece just below it, for a left limit, the
    last one whose start key is below k, one ``bisect_left``.  The key is
    linear in (P, Q), so the piece's move (dst, dk, dP, dQ), from its start
    a to its image start b, carries the key along with the pair: a step is
    one bisect and three integer additions.

    The box holds every point a walk can reach.  A walk starts at 0, at the
    length of a component, or at a piece start or image start, and takes
    at most ``steps`` steps: the caps bound the connection search by
    ``DEPTH_CAP * 4 ** _RETRIES + 1`` steps and the growth check by
    ``CHECK_CAP``, and a fake-boundary walk is shorter than the components
    and pieces together.  Each step adds one move b - a, so a point s steps
    in is a sum or difference of 2 s + 1 of the table's coordinates: the
    table is read with reach 2 steps + 1 (:func:`ietlab.field.box_key`)."""

    def __init__(self, h: Iet):
        self.frame = h.frame
        steps = max(DEPTH_CAP * 4 ** _RETRIES + 1, CHECK_CAP, len(h.source) + len(h._pieces) + 1)
        table = h._keyed(h.frame.d, 2 * steps + 1)
        _, self.bits, _, self.K, self.r, self.keys, _, self.moves = table
        super().__init__(h)

    def key(self, comp: int, x):
        p, q = self.frame.coord(x)
        return comp, p * self.K + q * self.r, p, q

    def value(self, y):
        return self.frame.value(y[2:])

    def image(self, y):
        c, k, P, Q = y
        dst, dk, dp, dq = self.moves[c][bisect.bisect_right(self.keys[c], k) - 1]
        return dst, k + dk, P + dp, Q + dq

    def left_limit(self, y):
        c, k, P, Q = y
        dst, dk, dp, dq = self.moves[c][bisect.bisect_left(self.keys[c], k) - 1]
        return dst, k + dk, P + dp, Q + dq


@functools.lru_cache(maxsize=1)
def _kernel(h: Iet) -> _IntOrbits:
    """The integer orbit kernel of h, kept for the next search on the same
    map: one surgery pass runs up to four searches on one map."""
    return _IntOrbits(h)


def _checked(search, h: Iet, *args):
    """search on the integer kernel of h; in checked mode also on the
    definition, which must give the same result."""
    out = search(_kernel(h), *args)
    if core.CHECKED and out != search(_Orbits(h), *args):
        raise SelfCheckError(f"{search.__name__}: integer orbit walk disagrees with Iet evaluation")
    return out


# -- the searches -------------------------------------------------------------------


def singular_points(h: Iet) -> tuple[Point, ...]:
    """Jumps of h that are jumps of h^-1 too."""
    o = _kernel(h)
    return tuple([p for p, y in zip(o.points, o.jumps) if o.marks[y] == 3])


def _boundary_connections(o: _Orbits, depth: int) -> tuple[BoundaryConnection, ...]:
    marks, image = o.marks, o.image
    out = []
    for x in o.inv_jumps:
        y = x
        for k in range(depth + 1):
            m = marks.get(y)
            if m is not None:
                if k and m & 2:
                    break  # a shorter connection starts at y
                if m & 1:
                    orbit = [x]
                    for _ in range(k):
                        orbit.append(image(orbit[-1]))
                    out.append(BoundaryConnection(o.point(x), k, tuple(map(o.point, orbit))))
                    break
            y = image(y)
    return tuple(out)


def find_boundary_connections(h: Iet, depth: int) -> tuple[BoundaryConnection, ...]:
    """All depth-bounded orbits x, h(x), ..., h^k(x) with x a jump of h^-1,
    h^k(x) a jump of h, and no other jump of either map along the way.  A
    depth above the deepest retry of :func:`minimal_model`, ``DEPTH_CAP *
    4 ** _RETRIES``, raises :class:`~ietlab.relations.CapExceededError`."""
    if depth > DEPTH_CAP * 4 ** _RETRIES:
        raise CapExceededError(f"depth {depth} is above the cap {DEPTH_CAP * 4 ** _RETRIES}")
    return _checked(_boundary_connections, h, depth)


def _fake_boundary_walk(o: _Orbits, x: Point) -> Optional[FakeBoundary]:
    plus = o.key(x.comp, x.x)
    minus = o.end[x.comp] if plus == o.zero[x.comp] else plus
    right_track = []
    left_track = []
    right_seen = set()  # the components of each track
    left_seen = set()
    for _ in range(len(o.circle) + len(o.jumps) + 1):
        plus = o.image(plus)
        minus = o.left_limit(minus)
        mc = minus[0]
        genuine = o.genuine(minus)
        if genuine == plus:
            k = len(right_track) + 1
            if k < 2:
                raise IetError("walk met at the first step from a genuine jump")  # pragma: no cover
            left = tuple((y[0], o.value(y)) for y in left_track)
            return FakeBoundary(x, k, tuple(map(o.point, right_track)), left)
        # intermediates must look like a boundary circle: the forward point a
        # left endpoint, the limit point a missing right endpoint
        pc = plus[0]
        if o.circle[pc] or plus != o.zero[pc] or genuine is not None:
            return None
        if mc in left_seen or pc in right_seen:
            return None  # tracks must not revisit a component end
        right_track.append(plus)
        left_track.append(minus)
        right_seen.add(pc)
        left_seen.add(mc)
    return None


def fake_boundary_walk(h: Iet, x: Point) -> Optional[FakeBoundary]:
    """Track (h^i(x), h^i(x-)) from a jump x of h until the two sides meet;
    None when the walk exceeds len(components) + d(h) + 1 steps or leaves
    the gluable pattern (intermediate points must be interval endpoints)."""
    if x not in _kernel(h).points:
        raise IetError(f"{x} is not a jump of the map")
    return _checked(_fake_boundary_walk, h, x)


def _fake_boundaries(o: _Orbits) -> tuple[FakeBoundary, ...]:
    walks = [_fake_boundary_walk(o, x) for x in o.points]
    return tuple([fb for fb in walks if fb is not None])


def fake_boundaries(h: Iet) -> tuple[FakeBoundary, ...]:
    return _checked(_fake_boundaries, h)


def glue_fake_boundary(h: Iet, fb: FakeBoundary) -> tuple[Iet, Iet]:
    """Perform the gluing move of a fake boundary record.

    Returns (h', j) with j : old domain -> new domain and h' = j h j^-1; the
    record is revalidated against h first.
    """
    check = fake_boundary_walk(h, fb.x)
    if check != fb:
        raise IetError("fake boundary record is not valid for this map")
    joins = [(mc, p.comp) for (mc, _), p in zip(fb.left_track, fb.right_track)]
    fwd = _glue_domain(h.source, joins)
    return fwd * h * ~fwd, fwd


# -- the pipeline -------------------------------------------------------------------


@dataclass(frozen=True)
class NormCertificate:
    """Conjugacy to a model whose discontinuity growth is linear up to N.

    conjugator maps the original domain to the model domain and
    conjugator o h o conjugator^-1 = h_m, with norm = d(h_m).  ``norm`` is
    the proven upper bound: |h| <= norm, not the rate itself.  Verified by
    walking the orbits of h_m's jumps (see :func:`verify_linear_growth`):
    d(h_m^n) = n * norm for every n <= verified_up_to.  Not proven: that
    equality for all n, which would make |h| = norm; the module docstring
    names a map where it fails.  The ``minimal-model`` report names the two
    ``upper`` and ``linear_up_to``.
    """

    h_m: Iet
    conjugator: Iet
    norm: int
    verified_up_to: int
    search_depth: int


_MAX_PIPELINE_STEPS = 10_000
_RETRIES = 3  # deeper searches after the first failed verification


def _reduce(h: Iet, depth: int) -> tuple[Iet, Iet]:
    cur = h
    conj = Iet.identity(h.source)
    for _ in range(_MAX_PIPELINE_STEPS):
        cuts = singular_points(cur)
        bcs = () if cuts else find_boundary_connections(cur, depth)
        if bcs:
            # the whole orbit; none of it is an interval's left end, as the
            # point before would be a jump of h, where the connection ends
            cuts = min(bcs, key=lambda b: (b.k, b.x.key())).orbit
        if cuts:
            cur, fwd = _split_map(cur, cuts)
        else:
            fbs = fake_boundaries(cur)
            if not fbs:
                return cur, conj
            cur, fwd = glue_fake_boundary(cur, fbs[0])
        conj = fwd * conj
    raise IetError("surgery pipeline did not stabilize")  # pragma: no cover


def _linear_growth(o: _Orbits, n: int) -> bool:
    image, left_limit, genuine, marks = o.image, o.left_limit, o.genuine, o.marks
    for y in o.jumps:
        plus = y
        minus = o.end[y[0]] if y == o.zero[y[0]] else y
        for s in range(1, n + 1):
            plus, minus = image(plus), left_limit(minus)
            if genuine(minus) == plus or (s < n and marks.get(plus, 0) & 1):
                return False  # (b), or (a) from a jump
    ends = {zero for zero, circle in zip(o.zero, o.circle) if not circle}
    for z in ends:
        for _ in range(n - 1):
            z = image(z)
            if z in ends:
                break  # not a jump, and its own walk covers the rest
            if marks.get(z, 0) & 1:
                return False  # (a) from the left end of an interval
    return True


def verify_linear_growth(h_m: Iet, n_check: int) -> bool:
    """Whether d(h_m^n) = n d(h_m) for every n <= n_check, by walking the
    orbits of the jumps of h_m for n_check steps.

    Write h = h_m, N = n_check, J for the jumps of h and E for the left
    ends of its interval components.  A point x has a right track h^s(x)
    and a left track h^s(x-), the left limits, which lie in the completion
    (c, t) with 0 < t <= length: on a circle (c, length) is the point
    (c, 0), on an interval it is a missing right end and equals no point.
    h^N jumps at x, a point not in E, iff its tracks differ at step N.

    Lemma.  d(h^N) = N d(h) iff both of these hold:
    (a) no orbit h(z), ..., h^(N-1)(z) with z in J or E meets J;
    (b) for every y in J and every s = 1..N, h^s(y) differs from h^s(y-).

    Proof.  Let x be a jump of h^N.  Its tracks agree at step 0, and if
    they agree at step j and h^j(x) is not in J, they agree at step j + 1
    (so h^(j+1)(x) is not in E, which has no left neighbourhood).  Hence
    the orbit of x meets J before step N; let y = h^k(x) be its first
    point in J.  From step k on the tracks of x are those of y, so they
    differ at step N iff those of y differ at step N - k.  The map
    x -> (y, k) is injective, as x = h^-k(y), so d(h^N) <= N d(h), and
    equality holds iff every pair (y, k) in J x {0, ..., N-1} is met: iff
    h^-k(y) is not in E, no h^-i(y) with 0 < i <= k is in J, and the
    tracks of y differ at step N - k.  Over all pairs this is (b) and,
    read forward, (a).

    (a) and (b) for N imply them for every n <= N, so the one walk
    decides every n <= N.  A walk from E stops at the first point of E it
    meets: that point is no jump, and its own walk covers the remaining
    steps.  The walk takes at most N (2 d(h) + |E|) steps on the integer
    kernel of h, which the last surgery pass has built, and no product.
    In checked mode the walk runs on the definition too, and the power
    h^N must agree, or :class:`SelfCheckError` is raised.  An n_check above
    ``CHECK_CAP`` raises :class:`~ietlab.relations.CapExceededError`.
    """
    if n_check < 1:
        raise IetError("n_check >= 1 required")
    if n_check > CHECK_CAP:
        raise CapExceededError(f"n_check {n_check} is above the cap {CHECK_CAP}")
    linear = _checked(_linear_growth, h_m, n_check)
    if core.CHECKED and linear != ((h_m ** n_check).d() == n_check * h_m.d()):
        raise SelfCheckError("verify_linear_growth: the orbit walk disagrees with the power h_m^N")
    return linear


# a random 8-piece map over Q(sqrt 2) takes about 0.1 s per search at depth
# 10,000 (three retries walk up to 85 times as far) and 3 s at n_check 100,000
DEPTH_CAP = 10_000
CHECK_CAP = 100_000


def minimal_model(h: Iet, depth: int = 64, n_check: int = 20) -> NormCertificate:
    """Certified minimal model of an automorphism.

    Splits at every singular point, then along every boundary connection
    found within ``depth``, then glues all fake boundaries; the result is
    accepted only if d(h_m^n) = n d(h_m) holds exactly for n <= n_check,
    retrying up to three times with a deeper search (x4 each time)
    otherwise.  A depth above ``DEPTH_CAP`` or an n_check above
    ``CHECK_CAP`` raises :class:`~ietlab.relations.CapExceededError` before
    any search.
    """
    if depth < 1 or n_check < 2:
        raise IetError("depth >= 1 and n_check >= 2 required")
    if depth > DEPTH_CAP or n_check > CHECK_CAP:
        raise CapExceededError(
            f"depth {depth} or n_check {n_check} is above its cap ({DEPTH_CAP}, {CHECK_CAP})"
        )
    if h.source != h.target:
        raise DomainMismatchError("needs an automorphism")
    for cur_depth in (depth * 4 ** i for i in range(_RETRIES + 1)):
        h_m, conj = _reduce(h, cur_depth)
        if verify_linear_growth(h_m, n_check):
            if conj * h * ~conj != h_m:
                raise IetError("conjugator bookkeeping failed")  # pragma: no cover
            return NormCertificate(
                h_m=h_m,
                conjugator=conj,
                norm=len(_kernel(h_m).points),
                verified_up_to=n_check,
                search_depth=cur_depth,
            )
    raise MinimalModelError(n_check, h_m, cur_depth)


NMAX_CAP = 1_000  # a random 8-piece map takes about 8 s at n_max = 1,000


def norm_bounds(h: Iet, n_max: int) -> tuple[int, int]:
    """Bracket the growth rate |h| from d(h^n), n <= n_max.

    upper = floor(min d(h^n)/n) is always valid (the rate is the infimum
    and an integer).  lower is 0: finitely many terms of a subadditive
    sequence bound its limit only from above, so they prove no positive
    lower bound.  The pieces of h^n, and with them the cost of each
    product, grow with n, so an n_max above ``NMAX_CAP`` raises
    :class:`~ietlab.relations.CapExceededError` before any product.
    """
    if n_max < 1:
        raise IetError("n_max must be >= 1")
    if n_max > NMAX_CAP:
        raise CapExceededError(f"n_max {n_max} is above the cap {NMAX_CAP}")
    if h.source != h.target:
        raise DomainMismatchError("needs an automorphism")
    upper = h.d()
    g = h
    for n in range(2, n_max + 1):
        g = g * h
        upper = min(upper, g.d() // n)
    return 0, upper

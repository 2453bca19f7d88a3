"""Minimal models for discontinuity growth.

For an interval exchange automorphism h, d(h^n) is subadditive in n, so the
growth rate |h| = lim d(h^n)/n exists.  Cutting and regluing the domain
conjugates h to a model h_m whose count is meant to be exactly linear,
d(h_m^n) = n d(h_m) for every n, which would pin |h| = d(h_m) as an integer
(Novak, "Discontinuity growth of interval exchange maps", J. Mod. Dyn. 2009).

Three moves build the model:

* splitting the domain at a point where both h and its inverse jump
  (each such split lowers that count by one);
* splitting along a forward orbit that starts at a jump of the inverse and
  ends at a jump of h (a "boundary connection"; the split lowers d by one);
* regluing component endpoints along the pair of one-sided orbit tracks of
  a jump x of h whose k-th power is nevertheless continuous at x (a "fake
  boundary"; gluing may turn an interval chain into a circle).

What a certificate proves and what it only verifies:

* proven: |h| <= d(h_m), since conjugation keeps the rate and the rate of
  h_m is at most d(h_m) by subadditivity;
* verified up to N: d(h_m^n) = n d(h_m) for every n <= N, decided by the
  one power h_m^N (see :func:`verify_linear_growth`).

Linear growth for all n is not proven: a boundary connection longer than
the search depth and than N goes unseen.  ``long_connection_map`` of the
tests has one of 2,469 steps; its model has d(h_m^n) = 3n up to n = 2,048
but not at n = 2,500, and its growth rate is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ietlab.core import (
    CIRCLE,
    INTERVAL,
    Component,
    Domain,
    DomainMismatchError,
    Iet,
    IetError,
    Point,
)
from ietlab.field import QuadNum


class MinimalModelError(IetError):
    """Linear-growth verification failed at the retry cap."""

    def __init__(self, failing_n: int, model: Iet, depth: int):
        super().__init__(f"d(h_m^{failing_n}) < {failing_n} * d(h_m) at search depth {depth}")
        self.failing_n = failing_n
        self.model = model
        self.depth = depth


# -- domain surgery -----------------------------------------------------------------


def _fresh_id(base: str, used: set[str]) -> str:
    cand = base
    while cand in used:
        cand += "'"
    used.add(cand)
    return cand


def _split_domain(domain: Domain, comp: int, x) -> tuple[Domain, Iet]:
    """Cut one component at coordinate x; returns (new domain, map old -> new)."""
    comps: list[Component] = []
    pieces = []
    used: set[str] = set()
    for i, cc in enumerate(domain.components):
        if i != comp:
            pieces.append((i, 0, cc.length, len(comps), 0))
            comps.append(Component(cc.kind, _fresh_id(cc.cid, used), cc.length))
            continue
        if cc.kind == INTERVAL:
            j = len(comps)
            comps.append(Component(INTERVAL, _fresh_id(cc.cid + ".a", used), x))
            comps.append(Component(INTERVAL, _fresh_id(cc.cid + ".b", used), cc.length - x))
            pieces.append((i, 0, x, j, 0))
            pieces.append((i, x, cc.length - x, j + 1, 0))
        else:
            # circle opened into an interval based at x
            j = len(comps)
            comps.append(Component(INTERVAL, _fresh_id(cc.cid + ".o", used), cc.length))
            if x == 0:
                pieces.append((i, 0, cc.length, j, 0))
            else:
                pieces.append((i, x, cc.length - x, j, 0))
                pieces.append((i, 0, x, j, cc.length - x))
    newdom = Domain(tuple(comps))
    return newdom, Iet(domain, newdom, pieces)


def _split_map(h: Iet, pt: Point) -> tuple[Iet, Iet]:
    """Split the domain of an automorphism at an interior point.

    Returns (h', fwd) with fwd : old -> new and h' = fwd h fwd^-1.
    """
    comp = h.source.components[pt.comp]
    if comp.kind == INTERVAL and pt.x == 0:
        raise IetError("cannot split at a non-interior point")
    _, fwd = _split_domain(h.source, pt.comp, pt.x)
    return fwd * h * ~fwd, fwd


def _glue_domain(domain: Domain, joins: list[tuple[int, int]]) -> tuple[Domain, Iet]:
    """Glue the missing right endpoint of interval e onto the left endpoint of
    interval s, for each (e, s); a chain closing on itself becomes a circle.

    Returns (new domain, map old -> new).
    """
    nxt = dict()
    has_pred = set()
    for e, s in joins:
        for i in (e, s):
            if domain.components[i].kind != INTERVAL:
                raise IetError("only interval components can be glued")
        if e in nxt or s in has_pred:
            raise IetError("conflicting gluing instructions")
        nxt[e] = s
        has_pred.add(s)
    involved = set(nxt) | has_pred
    chains: list[tuple[list[int], bool]] = []
    visited: set[int] = set()
    for i in sorted(involved):
        if i in has_pred or i in visited:
            continue
        chain = [i]
        visited.add(i)
        while chain[-1] in nxt:
            chain.append(nxt[chain[-1]])
            visited.add(chain[-1])
        chains.append((chain, False))
    for i in sorted(involved - visited):
        if i in visited:
            continue
        chain = [i]
        visited.add(i)
        j = nxt[i]
        while j != i:
            chain.append(j)
            visited.add(j)
            j = nxt[j]
        chains.append((chain, True))
    head = {chain[0]: (chain, cyc) for chain, cyc in chains}

    comps: list[Component] = []
    pieces = []
    used: set[str] = set()
    for i, cc in enumerate(domain.components):
        if i in involved and i not in head:
            continue
        if i not in involved:
            pieces.append((i, 0, cc.length, len(comps), 0))
            comps.append(Component(cc.kind, _fresh_id(cc.cid, used), cc.length))
            continue
        chain, cyc = head[i]
        total = QuadNum(0)
        for j in chain:
            total = total + domain.components[j].length
        kind = CIRCLE if cyc else INTERVAL
        cid = _fresh_id("+".join(domain.components[j].cid for j in chain), used)
        k = len(comps)
        comps.append(Component(kind, cid, total))
        off = QuadNum(0)
        for j in chain:
            pieces.append((j, 0, domain.components[j].length, k, off))
            off = off + domain.components[j].length
    newdom = Domain(tuple(comps))
    return newdom, Iet(domain, newdom, pieces)


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


def singular_points(h: Iet) -> tuple[Point, ...]:
    inv = set((~h).discontinuities())
    return tuple(p for p in h.discontinuities() if p in inv)


def find_boundary_connections(h: Iet, depth: int) -> tuple[BoundaryConnection, ...]:
    """All depth-bounded orbits x, h(x), ..., h^k(x) with x a jump of h^-1,
    h^k(x) a jump of h, and no other jump of either map along the way."""
    delta_h = set(h.discontinuities())
    delta_inv = (~h).discontinuities()
    delta_inv_set = set(delta_inv)
    out = []
    for x in delta_inv:
        y = x
        orbit = [x]
        for k in range(depth + 1):
            if k >= 1 and y in delta_inv_set:
                break  # a shorter connection starts at y
            if y in delta_h:
                out.append(BoundaryConnection(x, k, tuple(orbit)))
                break
            y = h(y)
            orbit.append(y)
    return tuple(out)


def fake_boundary_walk(h: Iet, x: Point) -> Optional[FakeBoundary]:
    """Track (h^i(x), h^i(x-)) until the two sides meet; None when the walk
    exceeds len(components) + d(h) + 1 steps or leaves the gluable pattern
    (intermediate points must be interval endpoints)."""
    comps = h.source.components
    plus = x
    minus = (x.comp, x.x if x.x > 0 else comps[x.comp].length)
    right_track: list[Point] = []
    left_track: list[tuple[int, object]] = []
    for _ in range(len(comps) + h.d() + 1):
        plus = h(plus)
        minus = h.left_limit(*minus)
        mc, mx = minus
        genuine_pt = None
        if mx < comps[mc].length:
            genuine_pt = Point(mc, mx)
        elif comps[mc].kind == CIRCLE:
            genuine_pt = Point(mc, QuadNum(0))  # circle closes up at its cut
        if genuine_pt is not None and genuine_pt == plus:
            k = len(right_track) + 1
            if k < 2:
                raise IetError("walk met at the first step from a genuine jump")  # pragma: no cover
            return FakeBoundary(x, k, tuple(right_track), tuple(left_track))
        # intermediates must look like a boundary circle: the forward point a
        # left endpoint, the limit point a missing right endpoint
        if not (comps[plus.comp].kind == INTERVAL and plus.x == 0):
            return None
        if genuine_pt is not None:
            return None
        if any(t[0] == mc for t in left_track) or any(p.comp == plus.comp for p in right_track):
            return None  # tracks must not revisit a component end
        right_track.append(plus)
        left_track.append((mc, mx))
    return None


def fake_boundaries(h: Iet) -> tuple[FakeBoundary, ...]:
    out = []
    for x in h.discontinuities():
        fb = fake_boundary_walk(h, x)
        if fb is not None:
            out.append(fb)
    return tuple(out)


def glue_fake_boundary(h: Iet, fb: FakeBoundary) -> tuple[Iet, Iet]:
    """Perform the gluing move of a fake boundary record.

    Returns (h', j) with j : old domain -> new domain and h' = j h j^-1; the
    record is revalidated against h first.
    """
    check = fake_boundary_walk(h, fb.x)
    if check != fb:
        raise IetError("fake boundary record is not valid for this map")
    joins = [(mc, p.comp) for (mc, _), p in zip(fb.left_track, fb.right_track)]
    _, fwd = _glue_domain(h.source, joins)
    return fwd * h * ~fwd, fwd


# -- the pipeline -------------------------------------------------------------------


@dataclass(frozen=True)
class NormCertificate:
    """Conjugacy to a model whose discontinuity growth is linear up to N.

    conjugator maps the original domain to the model domain and
    conjugator o h o conjugator^-1 = h_m, with norm = d(h_m).  Proven:
    |h| <= norm.  Verified by one power: d(h_m^n) = n * norm for every
    n <= verified_up_to.  Not proven: that equality for all n, which would
    make |h| = norm; the module docstring names a map where it fails.
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
        sing = singular_points(cur)
        if sing:
            cur, fwd = _split_map(cur, sing[0])
            conj = fwd * conj
            continue
        bcs = find_boundary_connections(cur, depth)
        if bcs:
            bc = min(bcs, key=lambda b: (b.k, b.x.key()))
            pts = list(dict.fromkeys(bc.orbit))
            done_one = False
            i = 0
            while i < len(pts):
                pt = pts[i]
                comp = cur.source.components[pt.comp]
                if comp.kind == INTERVAL and pt.x == 0:
                    i += 1
                    continue  # already an endpoint
                cur, fwd = _split_map(cur, pt)
                conj = fwd * conj
                pts = [fwd(q) for q in pts]  # carry the rest into the new domain
                done_one = True
                i += 1
            if done_one:
                continue
            # a connection's endpoints are genuine jumps, hence interior
            raise IetError("boundary connection with no interior point")  # pragma: no cover
        fbs = fake_boundaries(cur)
        if fbs:
            cur, fwd = glue_fake_boundary(cur, fbs[0])
            conj = fwd * conj
            continue
        return cur, conj
    raise IetError("surgery pipeline did not stabilize")  # pragma: no cover


def verify_linear_growth(h_m: Iet, n_check: int) -> bool:
    """Whether d(h_m^n) = n d(h_m) for every n <= n_check, by one power.

    Lemma: d is subadditive, d(g h) <= d(g) + d(h), so d(h^n) <= n d(h).
    If d(h^N) = N d(h) with d = d(h), then for every n <= N,
    N d = d(h^N) <= d(h^n) + d(h^(N-n)) <= d(h^n) + (N - n) d,
    hence d(h^n) >= n d, and d(h^n) = n d.  So h_m ** n_check (repeated
    squaring) decides exactly what the n_check - 1 successive products do.
    """
    return (h_m ** n_check).d() == n_check * h_m.d()


def minimal_model(h: Iet, depth: int = 64, n_check: int = 20) -> NormCertificate:
    """Certified minimal model of an automorphism.

    Splits at every singular point, then along every boundary connection
    found within ``depth``, then glues all fake boundaries; the result is
    accepted only if d(h_m^n) = n d(h_m) holds exactly for n <= n_check,
    retrying up to three times with a deeper search (x4 each time)
    otherwise.
    """
    if depth < 1 or n_check < 2:
        raise IetError("depth >= 1 and n_check >= 2 required")
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
                norm=h_m.d(),
                verified_up_to=n_check,
                search_depth=cur_depth,
            )
    raise MinimalModelError(n_check, h_m, cur_depth)


def norm_bounds(h: Iet, n_max: int) -> tuple[int, int]:
    """Bracket the growth rate |h| from d(h^n), n <= n_max.

    upper = floor(min d(h^n)/n) is always valid (the rate is the infimum
    and an integer).  lower is 0: finitely many terms of a subadditive
    sequence bound its limit only from above, so they prove no positive
    lower bound.
    """
    if n_max < 1:
        raise IetError("n_max must be >= 1")
    if h.source != h.target:
        raise DomainMismatchError("needs an automorphism")
    upper = h.d()
    g = h
    for n in range(2, n_max + 1):
        g = g * h
        upper = min(upper, g.d() // n)
    return 0, upper

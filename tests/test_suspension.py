import math
import random
import time
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietlab import core, suspension
from ietlab.core import (
    CIRCLE,
    INTERVAL,
    Component,
    Domain,
    Iet,
    IetError,
    Point,
    SelfCheckError,
    circle_rotation,
    from_lengths,
    interval_rotation,
    make_point,
)
from ietlab.field import QuadNum, _sign
from ietlab.relations import CapExceededError
from ietlab.suspension import (
    BoundaryConnection,
    FakeBoundary,
    MinimalModelError,
    _split_map,
    fake_boundaries,
    find_boundary_connections,
    glue_fake_boundary,
    minimal_model,
    norm_bounds,
    singular_points,
    verify_linear_growth,
)

from randgen import (
    cut_and_place,
    long_connection_map,
    random_domain,
    random_iet,
    random_q_rational_iet,
    random_quad_lengths,
    random_realizable_perm,
    sqrt_convergents,
)

R2 = QuadNum.sqrt(2)
ALPHA = R2 - 1
H = Fraction(1, 2)


def test_split_interval():
    ident = Iet.identity(Domain.interval(1))
    h2, fwd = _split_map(ident, [make_point(ident.source, 0, H)])
    kinds = [(c.kind, c.length) for c in h2.source.components]
    assert kinds == [(INTERVAL, QuadNum(H)), (INTERVAL, QuadNum(H))]
    assert fwd.source == ident.source and fwd.target == h2.source
    assert ~fwd * h2 * fwd == ident


def test_split_circle_opens_to_interval():
    r = circle_rotation(2, ALPHA)
    p = make_point(r.source, 0, Fraction(1, 3))
    h2, fwd = _split_map(r, [p])
    assert [c.kind for c in h2.source.components] == [INTERVAL]
    assert h2.source.components[0].length == QuadNum(2)
    assert ~fwd * h2 * fwd == r
    # opening the circle at a point makes the rotation discontinuous
    assert h2.d() == 1


def test_split_at_singular_point_lowers_sing_count():
    h = interval_rotation(H)  # Sing = {1/2}
    sing = singular_points(h)
    assert [pt.x for pt in sing] == [QuadNum(H)]
    h2, _ = _split_map(h, [sing[0]])
    assert len(singular_points(h2)) == 0
    assert h2.d() == h.d() - 1


def test_split_requires_interior():
    h = interval_rotation(H)
    with pytest.raises(IetError):
        _split_map(h, [make_point(h.source, 0, 0)])


def shape(h: Iet):
    """h without its component ids: kinds, lengths and pieces."""
    kinds = [tuple((c.kind, c.length) for c in dom.components) for dom in (h.source, h.target)]
    return kinds, h.pieces


def split_one_at_a_time(h: Iet, cuts: list[Point]) -> tuple[Iet, Iet]:
    """_split_map at each point in turn, the rest carried into the new domain."""
    fwd_all = Iet.identity(h.source)
    for i in range(len(cuts)):
        h, fwd = _split_map(h, [cuts[i]])
        fwd_all = fwd * fwd_all
        cuts = [fwd(p) for p in cuts]
    return h, fwd_all


def test_split_at_several_points_equals_one_at_a_time():
    dom = Domain.of(Component(INTERVAL, "I", QuadNum(H)), Component(CIRCLE, "C", QuadNum(H)))
    phi = cut_and_place(dom)
    h = phi * random_iet(random.Random(5), 6) * ~phi
    # unsorted interval cuts; the circle's first cut is not its smallest
    xs = [(0, Fraction(3, 8)), (1, Fraction(1, 3)), (0, Fraction(1, 8)), (1, Fraction(1, 10))]
    cuts = [make_point(dom, c, x) for c, x in xs + [(1, Fraction(2, 5)), (0, Fraction(1, 4))]]
    h2, fwd = _split_map(h, cuts)
    parts = [(c.kind, c.cid, c.length) for c in h2.source.components]
    lengths = [Fraction(1, 8)] * 3 + [Fraction(1, 15), Fraction(1, 5), Fraction(7, 30)]
    ids = ["I.0", "I.1", "I.2", "I.3", "C.0", "C.1", "C.2"]
    assert parts == [(INTERVAL, i, QuadNum(x)) for i, x in zip(ids, [Fraction(1, 8)] + lengths)]
    assert fwd * h * ~fwd == h2 and ~fwd * h2 * fwd == h
    h1, fwd1 = split_one_at_a_time(h, cuts)
    assert shape(h2) == shape(h1) and shape(fwd) == shape(fwd1)
    # a circle opened at its coordinate 0, and the same point listed twice
    r = circle_rotation(1, ALPHA)
    zero = make_point(r.source, 0, 0)
    h2, fwd = _split_map(r, [zero, zero])
    assert [c.cid for c in h2.source.components] == ["C.0"] and fwd.pieces == ((0, 0, 1, 0, 0),)
    # a circle opened at 1/2 and then cut at its coordinate 0
    h2, fwd = _split_map(r, [make_point(r.source, 0, H), zero])
    assert [(c.cid, c.length) for c in h2.source.components] == [("C.0", H), ("C.1", H)]
    assert fwd.pieces == ((0, 0, H, 1, 0), (0, H, H, 0, 0))
    assert fwd * r * ~fwd == h2 and ~fwd * h2 * fwd == r


def test_analyze_identity():
    for domain in (Domain.interval(1), Domain(())):  # the empty domain has no pieces
        ident = Iet.identity(domain)
        assert ident.discontinuities() == () and (~ident).discontinuities() == ()
        assert singular_points(ident) == ()
        assert find_boundary_connections(ident, 5) == () and fake_boundaries(ident) == ()
        assert verify_linear_growth(ident, 5) and minimal_model(ident).norm == 0


def test_analyze_irrational_rotation():
    h = interval_rotation(ALPHA)
    assert [pt.x for pt in h.discontinuities()] == [1 - ALPHA]
    assert [pt.x for pt in (~h).discontinuities()] == [ALPHA]
    assert singular_points(h) == ()
    # orbit-walk oracle: h^k(alpha) never returns to 1 - alpha within depth
    y = make_point(h.source, 0, ALPHA)
    for _ in range(51):
        assert y.x != 1 - ALPHA
        y = h(y)
    assert find_boundary_connections(h, 50) == ()
    fbs = fake_boundaries(h)
    assert len(fbs) == 1 and fbs[0].k == 2


def test_boundary_connection_constructed_k1():
    # jump of h^-1 at 1/5 maps onto the jump of h at 4/5 in one step
    h = from_lengths((3, 2, 1), [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)])
    assert [pt.x for pt in h.discontinuities()] == [Fraction(2, 5), Fraction(4, 5)]
    assert [pt.x for pt in (~h).discontinuities()] == [Fraction(1, 5), Fraction(3, 5)]
    bcs = find_boundary_connections(h, 10)
    ks = {(bc.x.x, bc.k) for bc in bcs}
    assert (QuadNum(Fraction(1, 5)), 1) in ks
    bc = next(b for b in bcs if b.k == 1)
    assert [p.x for p in bc.orbit] == [Fraction(1, 5), Fraction(4, 5)]


# -- the orbit searches against Iet evaluation ----------------------------------------


def connections_by_evaluation(h: Iet, depth: int) -> tuple[BoundaryConnection, ...]:
    """The connection search by definition: every step through Iet.__call__."""
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


def fake_walk_by_evaluation(h: Iet, x: Point) -> Optional[FakeBoundary]:
    """The fake-boundary walk by definition, through Iet.__call__ and
    Iet.left_limit."""
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
            genuine_pt = Point(mc, QuadNum(0))
        if genuine_pt is not None and genuine_pt == plus:
            assert len(right_track) >= 1
            return FakeBoundary(x, len(right_track) + 1, tuple(right_track), tuple(left_track))
        if not (comps[plus.comp].kind == INTERVAL and plus.x == 0):
            return None
        if genuine_pt is not None:
            return None
        if any(t[0] == mc for t in left_track) or any(p.comp == plus.comp for p in right_track):
            return None
        right_track.append(plus)
        left_track.append((mc, mx))
    return None


def fake_boundaries_by_evaluation(h: Iet) -> tuple[FakeBoundary, ...]:
    walks = (fake_walk_by_evaluation(h, x) for x in h.discontinuities())
    return tuple(fb for fb in walks if fb is not None)


def irreducible(p) -> bool:
    return all(set(p[:m]) != set(range(1, m + 1)) for m in range(1, len(p)))


def connected_map(rnd, k: int) -> Iet:
    """sigma = (3, 2, 1) with a boundary connection of k = 1 or 2 steps from
    the jump x = l3 of h^-1: l1 = 2 l3 sends it onto the jump l1 + l2 of h;
    2 l1 = l2 + 3 l3 with 2 l3 < l1 sends it to 2 l1 - l3, inside the middle
    piece, and then onto the jump l1.  t = l3 is drawn from Q(sqrt 2)."""
    t = random_quad_lengths(rnd, 2)[0] / (5 + rnd.randrange(20))
    if k == 1:
        lengths = [2 * t, 1 - 3 * t, t]
    else:
        l1 = (1 + 2 * t) / 3
        lengths = [l1, 2 * l1 - 3 * t, t]
    return from_lengths((3, 2, 1), lengths)


def orbit_instance(rnd, kind: str) -> Iet:
    if kind == "irreducible":
        n = rnd.randint(2, 8)
        perm = random_realizable_perm(rnd, n)
        while not irreducible(perm):
            perm = random_realizable_perm(rnd, n)
        return from_lengths(perm, random_quad_lengths(rnd, n))
    if kind == "q-rational":
        return random_q_rational_iet(rnd, rnd.randint(2, 12))
    if kind == "rotation":
        angle = random_quad_lengths(rnd, 2)[0]
        if rnd.randrange(2):
            angle = Fraction(rnd.randint(1, 9), 10)
        return interval_rotation(angle) if rnd.randrange(2) else circle_rotation(1, angle)
    if kind == "mixed":
        phi = cut_and_place(random_domain(rnd))
        return phi * random_iet(rnd, 6) * ~phi
    return connected_map(rnd, 1 if kind == "connection k=1" else 2)


ORBIT_KINDS = ("irreducible", "q-rational", "rotation", "mixed", "connection k=1", "connection k=2")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ORBIT_KINDS), st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2, 5, 64)))
def test_orbit_searches_equal_evaluation(kind, seed, depth):
    h = orbit_instance(random.Random(seed), kind)
    found = find_boundary_connections(h, depth)
    assert found == connections_by_evaluation(h, depth)
    # surgery cuts whole orbits: none holds the left end of an interval
    assert all(p.x != 0 or h.source[p.comp].kind == CIRCLE for bc in found for p in bc.orbit)
    fbs = fake_boundaries(h)
    assert fbs == fake_boundaries_by_evaluation(h)
    inv = set((~h).discontinuities())
    assert singular_points(h) == tuple(p for p in h.discontinuities() if p in inv)
    for fb in fbs:
        assert suspension.fake_boundary_walk(h, fb.x) == fb
    if kind.startswith("connection"):
        k = 1 if kind == "connection k=1" else 2
        assert any(bc.k == k for bc in found) == (depth >= k)


def test_surgery_pass_searches_a_map_once(monkeypatch):
    # one kernel per map: the jump sets of h and h^-1 are found once
    h = interval_rotation(ALPHA)
    calls = []
    original = Iet.discontinuities

    def counted(self):
        calls.append(self)
        return original(self)

    suspension._kernel.cache_clear()
    monkeypatch.setattr(Iet, "discontinuities", counted)
    singular_points(h)
    find_boundary_connections(h, 64)
    fbs = fake_boundaries(h)
    for fb in fbs:
        suspension.fake_boundary_walk(h, fb.x)
    monkeypatch.undo()
    # checked mode (on in the suite) adds two per search: h and h^-1 by definition
    assert len(fbs) == 1
    searches = 2 + len(fbs)
    assert len(calls) == 2 + (2 * searches if core.CHECKED else 0)


def test_long_connection_is_found_at_depth_4096():
    h = long_connection_map()
    found = find_boundary_connections(h, 4096)
    first = (~h).discontinuities()[0]
    bc = next(b for b in found if b.x == first)
    assert bc.k == 2469 and len(bc.orbit) == 2470
    assert found == connections_by_evaluation(h, 4096)
    assert find_boundary_connections(h, 2468) == ()


def test_checked_mode_catches_a_wrong_orbit_step(monkeypatch):
    h = connected_map(random.Random(3), 2)
    step = suspension._IntOrbits.image
    # one step too many from every point: the kernel walks h^2
    monkeypatch.setattr(suspension._IntOrbits, "image", lambda self, y: step(self, step(self, y)))
    monkeypatch.setattr(core, "CHECKED", False)
    assert find_boundary_connections(h, 8) != connections_by_evaluation(h, 8)  # goes unseen
    monkeypatch.setattr(core, "CHECKED", True)
    with pytest.raises(SelfCheckError, match="disagrees"):
        find_boundary_connections(h, 8)


def test_checked_mode_catches_a_wrong_left_limit(monkeypatch):
    h = interval_rotation(ALPHA)
    limit = suspension._IntOrbits.left_limit
    # two left limits per step: the walk from 1 - alpha no longer meets
    monkeypatch.setattr(
        suspension._IntOrbits, "left_limit", lambda self, y: limit(self, limit(self, y))
    )
    monkeypatch.setattr(core, "CHECKED", False)
    assert fake_boundaries(h) == () != fake_boundaries_by_evaluation(h)  # goes unseen
    monkeypatch.setattr(core, "CHECKED", True)
    with pytest.raises(SelfCheckError, match="disagrees"):
        fake_boundaries(h)


def test_kernel_values_equal_the_fraction_construction():
    # value() normalizes (P + Q sqrt(d)) / D by one gcd; the old route went
    # through two Fractions and QuadNum's lcm
    rnd = random.Random(11)
    maps = [orbit_instance(rnd, kind) for kind in ORBIT_KINDS for _ in range(3)]
    maps.append(interval_rotation(Fraction(3, 10)))
    kinds = set()
    for h in maps:
        o = suspension._IntOrbits(h)
        keys = o.jumps + o.inv_jumps + o.zero + o.end
        for c, starts in h._per_component()[1].items():
            keys += [(c, p * o.K + q * o.r, p, q) for p, q in starts]
        for y in keys:
            v = o.value(y)
            old = QuadNum(Fraction(y[2], o.frame.den), Fraction(y[3], o.frame.den), o.frame.d)
            assert (v.p, v.q, v.den, v.d) == (old.p, old.q, old.den, old.d)
            assert v == old and hash(v) == hash(old)
            kinds.add(v.q == 0)
    assert kinds == {True, False}  # rational and irrational points both occur


def step_by_sign(o, y, left: bool) -> tuple:
    """The step of the sign-test search: from the last piece of y's
    component whose start s has x - s >= 0 (> 0 for a left limit), decided
    by field._sign, as (dst, P, Q)."""
    c, _, P, Q = y
    least = 1 if left else 0
    pieces = o.h._per_component()[0][c]
    below = [p for p in pieces if _sign(P - p[1][0], Q - p[1][1], o.frame.d) >= least]
    _, a, _, dst, b = below[-1]
    return dst, P - a[0] + b[0], Q - a[1] + b[1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORBIT_KINDS), st.integers(0, 2 ** 32 - 1))
def test_keyed_steps_equal_the_sign_test(kind, seed):
    # points at each piece start, a near-tie either way for every
    # convergent of sqrt(d), and pairs with |P| at the edge of the box
    h = orbit_instance(random.Random(seed), kind)
    o = suspension._IntOrbits(h)
    d, edge = o.frame.d, 2 ** o.bits - 1
    lengths = [c.length for c in h.source.components]
    met = set()
    for c, starts in h._per_component()[1].items():
        for ps, qs in starts:
            points = [(ps + j, qs) for j in (-1, 0, 1)]
            if d:
                ts = [q for _, q in sqrt_convergents(d, edge)]
                ts.append(math.isqrt((edge - 1 - abs(ps)) ** 2 // d))
                for t in ts + [-t for t in ts]:
                    below = math.isqrt(d * t * t) if t > 0 else -math.isqrt(d * t * t) - 1
                    # P + Q sqrt(d) lies in (j - 1, j) from the start's
                    points += [(ps + below + j, qs - t) for j in (0, 1)]
            for P, Q in points:
                if abs(P) > edge or abs(Q) > edge:
                    continue
                y = (c, P * o.K + Q * o.r, P, Q)
                x = o.value(y)
                for left, step in ((False, o.image), (True, o.left_limit)):
                    if (0 < x <= lengths[c]) if left else (0 <= x < lengths[c]):
                        dst, k, P2, Q2 = step(y)
                        assert (dst, P2, Q2) == step_by_sign(o, y, left)
                        assert k == P2 * o.K + Q2 * o.r
                        met.add((left, "tie" if (P, Q) == (ps, qs) else "near"))
                        if 2 * abs(P) > edge:
                            met.add((left, "edge"))
    ways = {"tie", "near", "edge"} if d else {"tie", "near"}
    assert met >= {(left, way) for left in (False, True) for way in ways}


def assert_steps_by_sign(o) -> None:
    """Every step of the kernel o from a piece start and its two integer
    neighbours equals the sign-test step."""
    lengths = [c.length for c in o.h.source.components]
    for c, starts in o.h._per_component()[1].items():
        for ps, qs in starts:
            for P in (ps - 1, ps, ps + 1):
                y = (c, P * o.K + qs * o.r, P, qs)
                x = o.value(y)
                for left, step in ((False, o.image), (True, o.left_limit)):
                    if (0 < x <= lengths[c]) if left else (0 <= x < lengths[c]):
                        dst, k, P2, Q2 = step(y)
                        assert (dst, P2, Q2) == step_by_sign(o, y, left)
                        assert k == P2 * o.K + Q2 * o.r


def image_by_pieces(h: Iet, pt: Point) -> Point:
    (p, *_) = [p for p in reversed(h.pieces) if p.src == pt.comp and p.a <= pt.x]
    return Point(p.dst, p.b + (pt.x - p.a))


def test_the_kernel_and_evaluation_read_one_table():
    h = orbit_instance(random.Random(29), "irreducible")
    # kernel first: evaluation inside the kernel's box reads its table
    o = suspension._IntOrbits(h)
    table = h._keys
    assert o.keys is table[5] and o.moves is table[7]
    start = Point(0, h.pieces[1].a)
    assert h(start) == image_by_pieces(h, start) and h._keys is table
    # a point outside that box grows the map's table; the kernel keeps its own
    q = 2 ** (o.bits + 8) + 1
    den = h.frame.den
    far = Point(0, QuadNum(Fraction(-math.isqrt(2 * q * q), den), Fraction(q, den), 2))
    assert 0 < far.x < 1 and max(abs(far.x.p), abs(far.x.q)) >= 2 ** o.bits
    assert h(far) == image_by_pieces(h, far)
    assert h._keys is not table and h._keys[2] > table[2]
    assert_steps_by_sign(o)
    assert find_boundary_connections(h, 64) == connections_by_evaluation(h, 64)
    # evaluation first: the kernel reads the table evaluation grew
    h = orbit_instance(random.Random(29), "irreducible")
    assert h(far) == image_by_pieces(h, far)
    o = suspension._IntOrbits(h)
    assert o.keys is h._keys[5] and o.bits == h._keys[1]
    assert_steps_by_sign(o)
    # a rational map read at an irrational point keeps that table for
    # rational points, whose keys it orders too
    h = interval_rotation(Fraction(3, 10))
    root, half = Point(0, QuadNum.sqrt(2) / 4), Point(0, QuadNum(Fraction(1, 2)))
    assert h(root) == image_by_pieces(h, root)
    table = h._keys
    for pt in (half, root, half):
        assert h(pt) == image_by_pieces(h, pt) and h._keys is table
    # the identity of the empty domain: a table with no component, no point
    empty = Iet.identity(Domain(()))
    assert suspension._IntOrbits(empty).keys == [] and empty._keys[1] == 0
    with pytest.raises(IetError, match="outside"):
        empty(Point(0, QuadNum(0)))


def test_glue_fake_boundary_rolls_interval_rotation_into_circle():
    h = interval_rotation(ALPHA)
    fbs = fake_boundaries(h)
    assert len(fbs) == 1
    h2, j = glue_fake_boundary(h, fbs[0])
    assert [c.kind for c in h2.source.components] == [CIRCLE]
    assert h2.d() == 0
    assert j * h * ~j == h2


def test_glue_rejects_invalid_record():
    h = interval_rotation(ALPHA)
    fb = fake_boundaries(h)[0]
    bogus = FakeBoundary(Point(0, QuadNum(Fraction(1, 3))), fb.k, fb.right_track, fb.left_track)
    with pytest.raises(IetError, match="not a jump"):
        glue_fake_boundary(h, bogus)
    # the left end of an interval is no jump either: the walk starts only at jumps
    with pytest.raises(IetError, match="not a jump"):
        suspension.fake_boundary_walk(h, Point(0, QuadNum(0)))
    with pytest.raises(IetError):
        glue_fake_boundary(Iet.identity(Domain.interval(1)), fb)


def test_glue_domain_names_kinds_and_orders_the_new_components():
    eighth = Fraction(1, 8)
    lengths = {"a": 2 * eighth, "b": eighth, "c": 2 * eighth, "d": eighth, "e": eighth}
    lengths.update({"b+a'": eighth, "b+a": eighth})
    dom = Domain(
        tuple(Component(CIRCLE if c == "c" else INTERVAL, c, QuadNum(x)) for c, x in lengths.items())
    )
    # an open chain b -> a headed by b, a cycle d -> e -> d, an untouched
    # circle c, and two untouched intervals b+a' and b+a: the chain takes
    # the id b+a first, so the last interval needs two primes
    j = suspension._glue_domain(dom, [(1, 0), (4, 3), (3, 4)])
    parts = [(c.kind, c.cid, c.length) for c in j.target.components]
    assert parts == [
        (INTERVAL, "b+a", QuadNum(3 * eighth)),
        (CIRCLE, "c", QuadNum(2 * eighth)),
        (CIRCLE, "d+e", QuadNum(2 * eighth)),
        (INTERVAL, "b+a'", QuadNum(eighth)),
        (INTERVAL, "b+a''", QuadNum(eighth)),
    ]
    assert j.source == dom
    assert j.pieces == (
        (0, 0, 2 * eighth, 0, eighth),
        (1, 0, eighth, 0, 0),
        (2, 0, 2 * eighth, 1, 0),
        (3, 0, eighth, 2, 0),
        (4, 0, eighth, 2, eighth),
        (5, 0, eighth, 3, 0),
        (6, 0, eighth, 4, 0),
    )
    with pytest.raises(IetError, match="only interval"):
        suspension._glue_domain(dom, [(2, 0)])
    with pytest.raises(IetError, match="conflicting"):
        suspension._glue_domain(dom, [(0, 1), (0, 3)])
    with pytest.raises(IetError, match="conflicting"):
        suspension._glue_domain(dom, [(0, 1), (3, 1)])


def test_two_stacked_fake_boundaries_glue_in_two_passes():
    # independent rolled rotations on [0, 1/2) and [1/2, 1)
    dom = Domain.interval(1)
    t1, t2 = ALPHA / 4, ALPHA / 8
    h = Iet(
        dom,
        dom,
        [
            (0, 0, H - t1, 0, t1),
            (0, H - t1, t1, 0, 0),
            (0, H, H - t2, 0, H + t2),
            (0, 1 - t2, t2, 0, H),
        ],
    )
    # both halves must first be split apart (the jumps at 1/2 interact), then glued
    cert = minimal_model(h, depth=32, n_check=10)
    assert cert.norm == 0
    kinds = sorted(c.kind for c in cert.h_m.source.components)
    assert kinds == [CIRCLE, CIRCLE]


def reduce_one_point_at_a_time(h: Iet, depth: int) -> tuple[Iet, Iet]:
    """The surgery one cut at a time: the first singular point of each pass,
    or the points of the shortest connection one after another, each carried
    into the domain the previous cuts made."""
    cur = h
    conj = Iet.identity(h.source)
    while True:
        sing = singular_points(cur)
        bcs = () if sing else find_boundary_connections(cur, depth)
        if sing:
            cur, fwd = _split_map(cur, [sing[0]])
        elif bcs:
            orbit = min(bcs, key=lambda b: (b.k, b.x.key())).orbit
            cur, fwd = split_one_at_a_time(cur, list(orbit))
        else:
            fbs = fake_boundaries(cur)
            if not fbs:
                return cur, conj
            cur, fwd = glue_fake_boundary(cur, fbs[0])
        conj = fwd * conj


def test_reduce_matches_cutting_one_point_at_a_time():
    rnd = random.Random(11)
    maps = [random_q_rational_iet(rnd, rnd.randint(4, 12)) for _ in range(12)]
    for _ in range(12):
        phi = cut_and_place(random_domain(rnd))
        maps.append(phi * random_q_rational_iet(rnd, rnd.randint(4, 12)) * ~phi)
    maps += [connected_map(rnd, k) for k in (1, 2) for _ in range(4)]
    assert sum(len(singular_points(h)) > 1 for h in maps) >= 8
    assert all(find_boundary_connections(h, 2) for h in maps[-8:])
    for h in maps:
        h_m, conj = suspension._reduce(h, 64)
        h_o, conj_o = reduce_one_point_at_a_time(h, 64)
        assert shape(h_m) == shape(h_o) and shape(conj) == shape(conj_o)
        assert conj * h * ~conj == h_m


def test_minimal_model_identity():
    cert = minimal_model(Iet.identity(Domain.interval(1)), depth=4, n_check=2)
    assert cert.norm == 0


def test_minimal_model_irrational_rotation():
    h = interval_rotation(ALPHA)
    for n in range(1, 51):
        assert (h ** n).d() == 1
    cert = minimal_model(h, depth=16, n_check=12)
    assert cert.norm == 0
    assert [c.kind for c in cert.h_m.source.components] == [CIRCLE]
    assert cert.conjugator * h * ~cert.conjugator == cert.h_m


def test_minimal_model_matches_direct_slope():
    rng = random.Random(1234)
    for _ in range(6):
        h = random_iet(rng, 6)
        cert = minimal_model(h, depth=64, n_check=12)
        g = h
        d40 = None
        for n in range(1, 41):
            if n == 40:
                d40 = g.d()
            g = g * h
        assert cert.norm == round(d40 / 40)


def test_norm_homogeneity_and_conjugacy_invariance():
    rng = random.Random(77)
    for _ in range(4):
        h = random_iet(rng, 5)
        cert = minimal_model(h, depth=64, n_check=10)
        for k in (2, 3, 4):
            certk = minimal_model(h ** k, depth=64, n_check=10)
            assert certk.norm == k * cert.norm
        for _ in range(3):
            g = random_iet(rng, 5)
            assert minimal_model(g * h * ~g, depth=64, n_check=10).norm == cert.norm


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("mixed", "q-rational", "model")),
    st.integers(0, 2 ** 32 - 1),
    st.integers(2, 30),
)
def test_growth_walk_equals_the_power(kind, seed, n):
    rnd = random.Random(seed)
    if kind == "q-rational":
        h = random_q_rational_iet(rnd, rnd.randint(2, 12))
    else:
        h = orbit_instance(rnd, "mixed")
        if kind == "model":
            h = minimal_model(h, depth=64, n_check=2).h_m
    assert verify_linear_growth(h, n) == ((h ** n).d() == n * h.d())


def test_growth_walk_decides_by_each_condition():
    third = QuadNum(Fraction(1, 3))
    comps = [Component(CIRCLE, "A", third), Component(CIRCLE, "B", third)]
    cycle = Domain(tuple(comps + [Component(INTERVAL, "I", third)]))
    cases = {
        # the tracks of the jump 1 - alpha meet at alpha: (b)
        "tracks meet": interval_rotation(ALPHA),
        # h(0) = 1/2 is a jump, but h^2 is right-continuous at the left end 0: (a)
        "left end meets a jump": from_lengths((3, 2, 1), [H, H / 2, H / 2]),
        # A -> B -> I -> A: the tracks of the jump (B, 0) meet at A's cut,
        # its left track at (A, 1/3) and its right track at (A, 0): (b)
        "tracks meet at a circle's cut": Iet(
            cycle, cycle, [(0, 0, third, 1, 0), (1, 0, third, 2, 0), (2, 0, third, 0, 0)]
        ),
    }
    for name, h in cases.items():
        assert h.d() > 0 and (h ** 2).d() < 2 * h.d(), name
        assert not verify_linear_growth(h, 2), name


def test_checked_mode_catches_a_wrong_growth_step(monkeypatch):
    h = interval_rotation(ALPHA)
    step = suspension._IntOrbits.image
    # two steps at a time: the walk's tracks never meet, so h looks linear
    monkeypatch.setattr(suspension._IntOrbits, "image", lambda self, y: step(self, step(self, y)))
    monkeypatch.setattr(core, "CHECKED", False)
    assert verify_linear_growth(h, 5)  # goes unseen; d(h^5) = 1
    monkeypatch.setattr(core, "CHECKED", True)
    with pytest.raises(SelfCheckError, match="disagrees"):
        verify_linear_growth(h, 5)


def test_checked_mode_holds_the_growth_walk_to_the_power(monkeypatch):
    # a walk wrong on both kernels alike is caught by the power h^N
    h = interval_rotation(ALPHA)
    monkeypatch.setattr(suspension, "_linear_growth", lambda o, n: True)
    monkeypatch.setattr(core, "CHECKED", False)
    assert verify_linear_growth(h, 5)  # goes unseen
    monkeypatch.setattr(core, "CHECKED", True)
    with pytest.raises(SelfCheckError, match="power"):
        verify_linear_growth(h, 5)


def test_minimal_model_counts_each_maps_jumps_once(monkeypatch):
    # the growth check and the norm reuse the kernel of the last surgery
    # pass: h_m's jumps are found once, and no map's twice
    rnd = random.Random(7)
    calls = []
    original = Iet.discontinuities

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(core, "CHECKED", False)
    monkeypatch.setattr(Iet, "discontinuities", counted)
    counts = []
    for h in (interval_rotation(ALPHA), from_lengths((4, 3, 2, 1), random_quad_lengths(rnd, 4))):
        suspension._kernel.cache_clear()
        calls.clear()
        cert = minimal_model(h, depth=64, n_check=20)
        assert calls.count(cert.h_m) == 1
        assert len(calls) == len(set(calls))  # each map of the pipeline and its inverse
        counts.append(len(calls))
    # the rotation is glued into a circle: two maps, each with its inverse
    assert counts == [4, 2]


def test_verify_linear_growth_detects_sublinearity():
    rot = interval_rotation(ALPHA)
    assert not verify_linear_growth(rot, 5)  # d(h^5) = 1 != 5


def first_sublinear_power(h: Iet, n_max: int) -> Optional[int]:
    """The least n <= n_max with d(h^n) != n d(h), by n - 1 successive
    products; None when there is none."""
    base = h.d()
    g = h
    for n in range(2, n_max + 1):
        g = g * h
        if g.d() != n * base:
            return n
    return None


def test_verify_linear_growth_matches_sequential_oracle():
    rng, qrng = random.Random(2024), random.Random(2024)
    angles = (ALPHA, Fraction(1, 3), Fraction(2, 7), ALPHA / 5)
    kinds = {
        "raw": [random_iet(rng, 6) for _ in range(6)],
        # periodic maps, some of which first fail at n = 3
        "q-rational": [random_q_rational_iet(qrng, qrng.randint(6, 12)) for _ in range(8)],
        "rotation": [interval_rotation(a) for a in angles] + [circle_rotation(1, ALPHA)],
        "model": [minimal_model(random_iet(rng, 6), depth=64, n_check=8).h_m for _ in range(6)],
    }
    failures = []
    for kind, maps in kinds.items():
        for h in maps:
            first = first_sublinear_power(h, 24)
            failures.append(first)
            for n in range(2, 25):
                expect = first is None or first > n
                assert verify_linear_growth(h, n) == expect, (kind, n, first)
    # both verdicts occur, and some map first fails past n = 2
    assert None in failures and 2 in failures
    assert any(f is not None and f > 2 for f in failures)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_discontinuity_count_is_subadditive(seed):
    # the premise of verify_linear_growth, on mixed circle/interval domains
    rnd = random.Random(seed)
    phi = cut_and_place(random_domain(rnd))
    g = phi * random_iet(rnd, 6) * ~phi
    h = phi * random_iet(rnd, 6) * ~phi
    for a, b in ((g, h), (h, g), (g, g), (g * h, ~g)):
        assert (a * b).d() <= a.d() + b.d()


def test_long_connection_model_is_linear_to_2048_only(monkeypatch):
    h = long_connection_map()
    cert = minimal_model(h)
    assert cert.norm == 3 and cert.verified_up_to == 20
    # one walk of the jumps' orbits each, neither h_m^N nor N - 1 products
    for n, linear in ((2048, True), (2500, False)):
        start = time.monotonic()
        assert verify_linear_growth(cert.h_m, n) is linear
        assert time.monotonic() - start < 10
    # without the deeper retries the depth-64 model is the last one tried
    monkeypatch.setattr(suspension, "_RETRIES", 0)
    with pytest.raises(MinimalModelError, match=r"d\(h_m\^2500\) < 2500 \* d\(h_m\)") as err:
        minimal_model(h, depth=64, n_check=2500)
    assert err.value.failing_n == 2500 and err.value.depth == 64


def test_long_connection_is_certified_at_rate_0(monkeypatch):
    # the depth-4096 retry cuts the whole 2,470-point orbit in one move
    monkeypatch.setattr(core, "CHECKED", True)
    start = time.monotonic()
    cert = minimal_model(long_connection_map(), depth=64, n_check=2500)
    assert time.monotonic() - start < 60
    assert (cert.norm, cert.verified_up_to, cert.search_depth) == (0, 2500, 4096)
    comps = cert.h_m.source.components
    assert len(comps) == 2471
    # each walk from an interval left end stops at the next left end it meets
    monkeypatch.setattr(core, "CHECKED", False)
    steps = []
    image = suspension._IntOrbits.image
    monkeypatch.setattr(
        suspension._IntOrbits, "image", lambda self, y: steps.append(y) or image(self, y)
    )
    assert verify_linear_growth(cert.h_m, 2500)
    assert len(steps) == sum(c.kind == INTERVAL for c in comps)


def test_norm_bounds_claims_no_lower_bound():
    # the tail slope of d(h^n) is 3 for n <= 40, yet the rate is 0
    assert norm_bounds(long_connection_map(), 40) == (0, 3)


def test_norm_bounds():
    ident = Iet.identity(Domain.interval(1))
    assert norm_bounds(ident, 3) == (0, 0)
    assert norm_bounds(interval_rotation(ALPHA), 5) == (0, 0)
    rng = random.Random(31)
    for _ in range(6):
        h = random_iet(rng, 6)
        lo, up = norm_bounds(h, 14)
        cert = minimal_model(h, depth=64, n_check=10)
        assert lo <= cert.norm <= up


def test_norm_bounds_refuses_n_max_above_its_cap_before_composing(monkeypatch):
    h = interval_rotation(ALPHA)
    monkeypatch.setattr(Iet, "__mul__", lambda a, b: pytest.fail("composed"))
    with pytest.raises(CapExceededError, match="cap"):
        norm_bounds(h, suspension.NMAX_CAP + 1)
    monkeypatch.undo()
    assert norm_bounds(h, suspension.NMAX_CAP) == (0, 0)  # at the cap: allowed


def test_the_walks_refuse_more_steps_than_the_kernel_box_holds(monkeypatch):
    # the box of the integer kernel is sized for these caps: a longer walk
    # could leave it, so it is refused before any step
    h = interval_rotation(ALPHA)
    monkeypatch.setattr(suspension._IntOrbits, "image", lambda self, y: pytest.fail("stepped"))
    deepest = suspension.DEPTH_CAP * 4 ** suspension._RETRIES
    with pytest.raises(CapExceededError, match="above the cap"):
        find_boundary_connections(h, deepest + 1)
    with pytest.raises(CapExceededError, match="above the cap"):
        verify_linear_growth(h, suspension.CHECK_CAP + 1)


def centralizer_orbit_check(h_m: Iet, g: Iet) -> tuple[bool, Optional[Point]]:
    """For commuting g and a linear-growth model h_m, every jump of h_m must
    be carried by g into the h_m-orbit of the jump set; the search is bounded
    by 2 d(g) + 1 images either way.  Returns (ok, violating point or None)."""
    if g * h_m != h_m * g:
        raise IetError("inputs do not commute")
    delta = h_m.discontinuities()
    if not delta:
        return True, None
    bound = 2 * g.d() + 1
    orbit = set(delta)
    fwd = list(delta)
    back = list(delta)
    hinv = ~h_m
    for _ in range(bound):
        fwd = [h_m(p) for p in fwd]
        back = [hinv(p) for p in back]
        orbit.update(fwd)
        orbit.update(back)
    for x in delta:
        if g(x) not in orbit:
            return False, x
    return True, None


def test_centralizer_orbit_check():
    rng = random.Random(9)
    h = random_iet(rng, 6)
    cert = minimal_model(h, depth=64, n_check=10)
    hm = cert.h_m
    ok, wit = centralizer_orbit_check(hm, hm)
    assert ok and wit is None
    ok, wit = centralizer_orbit_check(hm, Iet.identity(hm.source))
    assert ok and wit is None
    ok, wit = centralizer_orbit_check(hm, hm ** 2)
    assert ok and wit is None
    with pytest.raises(IetError):
        g = random_iet(rng, 4)
        gm = cert.conjugator * g * ~cert.conjugator
        if gm * hm == hm * gm:  # pragma: no cover - wildly unlikely
            raise IetError("accidental commuter")
        centralizer_orbit_check(hm, gm)

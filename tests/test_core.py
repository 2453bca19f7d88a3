import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietlab import core
from ietlab.core import (
    CIRCLE,
    Component,
    Domain,
    DomainMismatchError,
    Iet,
    IetError,
    PartitionError,
    Point,
    PointError,
    SelfCheckError,
    Subdomain,
    circle_rotation,
    from_lengths,
    interval_rotation,
    lengths_of,
    make_point,
    perm_is_realizable,
    permutation_of,
)
from ietlab.field import Frame, QuadNum
from ietlab.relations import translation_response
from ietlab.textio import serialize_iet

from randgen import (
    cut_and_place,
    random_domain,
    random_iet,
    random_q_rational_iet,
    random_quad_lengths,
    random_realizable_perm,
)

R2 = QuadNum.sqrt(2)
ALPHA = R2 - 1  # irrational rotation number in (0, 1)
H = Fraction(1, 2)


def test_from_lengths_half_swap_is_rotation():
    h = from_lengths((2, 1), [H, H])
    assert h == interval_rotation(H)
    assert [pt.x for pt in h.discontinuities()] == [QuadNum(H)]
    assert lengths_of(h) == (QuadNum(H), QuadNum(H))
    assert permutation_of(h) == (2, 1)


def test_from_lengths_irrational_rotation():
    h = from_lengths((2, 1), [1 - ALPHA, ALPHA])
    assert h == interval_rotation(ALPHA)
    assert h.d() == 1
    assert lengths_of(h) == (1 - ALPHA, ALPHA)


def translations(h: Iet) -> tuple:
    return tuple(p.b - p.a for p in h.pieces)


def test_from_lengths_reversal_translation_vector():
    # independent oracle (direct image-start evaluation): (3/4, 1/4, -1/2)
    lengths = [Fraction(1, 4), Fraction(1, 4), H]
    h = from_lengths((3, 2, 1), lengths)
    assert translations(h) == (QuadNum(Fraction(3, 4)), QuadNum(Fraction(1, 4)), QuadNum(-H))
    assert translation_response((3, 2, 1), lengths) == translations(h)
    assert h(make_point(h.source, 0, 0)).x == Fraction(3, 4)


def test_from_lengths_rejects_bad_input():
    with pytest.raises(IetError):
        from_lengths((2, 1), [Fraction(3, 4), Fraction(1, 2)])  # sum != 1
    with pytest.raises(IetError):
        from_lengths((2, 1), [Fraction(5, 4), Fraction(-1, 4)])  # negative
    with pytest.raises(IetError):
        from_lengths((1, 2), [H, H])  # adjacent images merge
    with pytest.raises(IetError):
        from_lengths((2, 2), [H, H])  # not a permutation


def test_translation_vector_trivial_and_rotation():
    assert translations(Iet.identity(Domain.interval(1))) == (QuadNum(0),)
    assert translation_response((1,), [1]) == (0,)
    assert translations(interval_rotation(H)) == (QuadNum(H), QuadNum(-H))
    assert translation_response((2, 1), [H, H]) == (H, -H)


def test_compose_basics():
    h = from_lengths((2, 1, 3), random_quad_lengths(random.Random(1), 3))
    ident = Iet.identity(h.source)
    assert ident * h == h
    assert h * ident == h
    assert h * ~h == ident
    assert ~h * h == ident


def test_compose_rotations():
    third = Fraction(1, 3)
    r = interval_rotation(third)
    assert r * r == interval_rotation(Fraction(2, 3))
    assert (r * r).d() == 1
    assert r * r * r == Iet.identity(r.source)


def test_compose_domain_mismatch():
    r = interval_rotation(H)
    c = circle_rotation(1, H)
    with pytest.raises(DomainMismatchError):
        r * c


def test_invert():
    assert ~Iet.identity(Domain.interval(1)) == Iet.identity(Domain.interval(1))
    assert ~interval_rotation(ALPHA) == interval_rotation(1 - ALPHA)
    rng = random.Random(2)
    for _ in range(100):
        h = random_iet(rng, 6)
        assert ~(~h) == h


def test_apply():
    ident = Iet.identity(Domain.interval(1))
    p = make_point(ident.source, 0, Fraction(2, 7))
    assert ident(p) == p
    r = interval_rotation(Fraction(1, 3))
    assert r(make_point(r.source, 0, 0)).x == Fraction(1, 3)
    h = from_lengths((2, 1), [H, H])
    assert h(make_point(h.source, 0, Fraction(3, 4))).x == Fraction(1, 4)
    with pytest.raises(PointError):
        r(Point(0, QuadNum(2)))


def test_apply_respects_composition():
    rng = random.Random(3)
    for _ in range(50):
        g = random_iet(rng, 5)
        h = random_iet(rng, 5)
        x = make_point(h.source, 0, random_quad_lengths(rng, 2)[0])
        assert (g * h)(x) == g(h(x))


def test_bijectivity_on_random_points():
    rng = random.Random(4)
    h = random_iet(rng, 8)
    for _ in range(100):
        x = make_point(h.source, 0, random_quad_lengths(rng, 2)[0])
        assert (~h)(h(x)) == x


def test_discontinuities_id_and_rotation():
    assert Iet.identity(Domain.interval(1)).discontinuities() == ()
    r = interval_rotation(ALPHA)
    assert [pt.x for pt in r.discontinuities()] == [1 - ALPHA]
    assert circle_rotation(1, ALPHA).discontinuities() == ()
    assert circle_rotation(1, ALPHA).d() == 0


def test_circle_opening_is_discontinuous_at_cut():
    # one-piece map from a circle onto an interval: discontinuous exactly at 0
    dom_c = Domain.circle(1)
    dom_i = Domain.interval(1)
    cut = Iet(dom_c, dom_i, [(0, 0, 1, 0, 0)])
    assert [ (pt.comp, pt.x) for pt in cut.discontinuities() ] == [(0, QuadNum(0))]


def test_support():
    ident = Iet.identity(Domain.interval(1))
    assert ident.support().is_empty()
    # translation by tau on [0, l - tau), wrap on [l - tau, l), identity above l
    l, tau = Fraction(3, 4), Fraction(1, 4)
    h = Iet(
        Domain.interval(1),
        Domain.interval(1),
        [(0, 0, l - tau, 0, tau), (0, l - tau, tau, 0, 0), (0, l, 1 - l, 0, l)],
    )
    assert h.support().parts == ((0, QuadNum(0), QuadNum(l)),)
    swap = from_lengths((2, 1, 3), [Fraction(1, 4), Fraction(1, 4), H])
    assert swap.support().parts == ((0, QuadNum(0), QuadNum(H)),)


def test_support_is_conjugation_natural():
    rng = random.Random(5)
    for _ in range(50):
        g = random_iet(rng, 6)
        h = random_iet(rng, 6)
        assert (g * h * ~g).support() == g.image_of(h.support())


def test_power():
    r = interval_rotation(Fraction(1, 3))
    assert r ** 0 == Iet.identity(r.source)
    assert r ** 3 == Iet.identity(r.source)
    assert r ** -1 == ~r
    rng = random.Random(6)
    for _ in range(20):
        h = random_iet(rng, 5)
        acc = Iet.identity(h.source)
        for n in range(9):
            assert h ** n == acc
            acc = h * acc


def test_subadditivity_small():
    rng = random.Random(7)
    for _ in range(200):
        g = random_iet(rng, 8)
        h = random_iet(rng, 8)
        assert (g * h).d() <= g.d() + h.d()


def test_conjugation_growth_bound():
    rng = random.Random(8)
    for _ in range(20):
        g = random_iet(rng, 5)
        h = random_iet(rng, 5)
        conj = g * h * ~g
        bound = g.d() + (~g).d()
        for n in range(1, 11):
            assert abs((conj ** n).d() - (h ** n).d()) <= bound


def test_is_q_rational():
    r3 = interval_rotation(Fraction(1, 3))
    assert r3.is_q_rational(3)
    assert not r3.is_q_rational(2)
    assert r3 ** 6 == Iet.identity(r3.source)
    assert not interval_rotation(ALPHA).is_q_rational(97)
    assert Iet.identity(Domain.interval(1)).is_q_rational(1)


def test_equality_and_canonical_merge():
    r = interval_rotation(Fraction(1, 3))
    assert r * Iet.identity(r.source) == r
    assert r != interval_rotation(Fraction(2, 3))
    # a redundant split of the same rotation canonicalizes to the merged form
    split = Iet(
        Domain.interval(1),
        Domain.interval(1),
        [
            (0, 0, Fraction(1, 3), 0, Fraction(1, 3)),
            (0, Fraction(1, 3), Fraction(1, 3), 0, Fraction(2, 3)),
            (0, Fraction(2, 3), Fraction(1, 3), 0, 0),
        ],
    )
    assert split == r
    assert len(split.pieces) == 2
    assert hash(split) == hash(r)


def test_partition_validation():
    dom = Domain.interval(1)
    with pytest.raises(PartitionError):
        Iet(dom, dom, [(0, 0, H, 0, 0)])  # gap
    with pytest.raises(PartitionError):
        Iet(dom, dom, [(0, 0, H, 0, 0), (0, Fraction(1, 4), Fraction(3, 4), 0, H)])  # overlap
    with pytest.raises(PartitionError):
        Iet(dom, dom, [(0, 0, 1, 0, H)])  # image leaves component


def test_circle_rotation_wrap_continuity():
    c = circle_rotation(2, ALPHA)
    assert c.d() == 0
    assert c.support().parts == ((0, QuadNum(0), QuadNum(2)),)
    assert (c ** 5).d() == 0
    assert c * ~c == Iet.identity(c.source)


def test_point_normalization_on_circles():
    dom = Domain.circle(Fraction(3, 2))
    p = make_point(dom, 0, Fraction(7, 4))
    assert p.x == Fraction(1, 4)
    with pytest.raises(PointError):
        make_point(Domain.interval(1), 0, Fraction(3, 2))


@pytest.mark.parametrize("comp", [-1, -2, 2])
def test_a_component_index_outside_the_domain_is_a_point_error(comp):
    # a negative index must not reach a component from the end
    dom = Domain.of(Component("interval", "I", QuadNum(1)), Component(CIRCLE, "C", QuadNum(1)))
    third = Fraction(1, 3)
    h = Iet(dom, dom, [(0, 0, 2 * third, 0, third), (0, 2 * third, third, 0, 0), (1, 0, 1, 1, 0)])
    x = QuadNum(Fraction(1, 2))
    with pytest.raises(PointError):
        h(Point(comp, x))
    with pytest.raises(PointError):
        h.left_limit(comp, x)
    with pytest.raises(PointError):
        make_point(h.source, comp, x)


def full(domain: Domain) -> Subdomain:
    """The whole domain as a subdomain."""
    return Subdomain.make(domain, [(i, 0, c.length) for i, c in enumerate(domain.components)])


def test_subdomain_algebra():
    dom = Domain.of(Component(CIRCLE, "C", QuadNum(2)), Component("interval", "J", QuadNum(1)))
    a = Subdomain.make(dom, [(0, 0, 1), (1, 0, H)])
    b = Subdomain.make(dom, [(0, H, Fraction(3, 2))])
    assert a.union(b).parts == ((0, QuadNum(0), QuadNum(Fraction(3, 2))), (1, QuadNum(0), QuadNum(H)))
    assert a.intersection(b).parts == ((0, QuadNum(H), QuadNum(1)),)
    assert a.complement().union(a) == full(dom)
    assert a.covers(a.intersection(b))
    assert not a.intersection(b).covers(a)
    assert full(dom).measure() == 3
    touching = Subdomain.make(dom, [(0, 0, 1), (0, 1, 2)])
    assert touching.parts == ((0, QuadNum(0), QuadNum(2)),)


def test_realizable_perm_check():
    assert perm_is_realizable((2, 1))
    assert perm_is_realizable((3, 2, 1))
    assert perm_is_realizable((1, 3, 2))  # fixes 1, yet genuinely 3 pieces
    assert not perm_is_realizable((2, 3, 1))
    assert not perm_is_realizable((3, 1, 2))
    assert not perm_is_realizable((1, 2, 3))


def random_mixed_conjugate(rng):
    """Random automorphism of a random mixed circle/interval domain, made by
    repackaging a random map of [0, 1) through a random cut-and-place map."""
    g = random_iet(rng, 6)
    k = rng.randint(1, 3)
    lengths = random_quad_lengths(rng, k)
    comps = tuple(
        Component(CIRCLE if rng.random() < 0.5 else "interval", f"M{i}", lengths[i])
        for i in range(k)
    )
    target = Domain(comps)
    pieces = []
    acc = QuadNum(0)
    for i, ln in enumerate(lengths):
        pieces.append((0, acc, ln, i, 0))
        acc = acc + ln
    phi = Iet(g.source, target, pieces)
    return phi * g * ~phi


def left_limit_oracle(h, ci, x):
    """One-sided limit at coordinate x of component ci via a genuine nearby
    point: step halfway back to the previous piece boundary and push the
    image forward again."""
    comps = h.source.components
    starts = [p.a for p in h.pieces if p.src == ci]
    length = comps[ci].length
    below = [s for s in starts if s < x]
    if below:
        prev = max(below)
    else:
        prev = max(starts) - length  # wrap on a circle
    delta = (x - prev) / 2
    probe_coord = x - delta
    if probe_coord < 0:
        probe_coord = probe_coord + length
    y = h(Point(ci, probe_coord))
    return (y.comp, y.x + delta)


def test_discontinuities_match_one_sided_limit_oracle():
    rng = random.Random(271828)
    for _ in range(40):
        h = random_mixed_conjugate(rng)
        jumps = set(h.discontinuities())
        for ci, comp in enumerate(h.source.components):
            candidates = [p.a for p in h.pieces if p.src == ci and p.a > 0]
            if comp.kind == CIRCLE:
                candidates.append(QuadNum(0))
            for x in candidates:
                lc, lx = left_limit_oracle(h, ci, x)
                val = h(Point(ci, x))
                tgt = h.source.components[lc]
                same = lc == val.comp and (
                    lx == val.x or (tgt.kind == CIRCLE and lx == tgt.length and val.x == 0)
                )
                assert (Point(ci, x) in jumps) == (not same), (ci, x)


def test_compose_associativity_on_mixed_domains():
    rng = random.Random(314159)
    for _ in range(25):
        base = random_mixed_conjugate(rng)
        lengths = [c.length for c in base.source.components]
        pieces = []
        acc = QuadNum(0)
        for i, ln in enumerate(lengths):
            pieces.append((0, acc, ln, i, 0))
            acc = acc + ln
        phi = Iet(Domain.interval(1), base.source, pieces)
        g, h, k = (phi * random_iet(rng, 6) * ~phi for _ in range(3))
        assert (g * h) * k == g * (h * k)
        assert ~(g * h) == ~h * ~g


def test_support_conjugation_on_mixed_domains():
    rng = random.Random(161803)
    for _ in range(25):
        h = random_iet(rng, 6)
        g = random_mixed_conjugate(rng)
        # repackage h onto g's domain with a fresh cut-and-place map
        lengths = [c.length for c in g.source.components]
        pieces = []
        acc = QuadNum(0)
        for i, ln in enumerate(lengths):
            pieces.append((0, acc, ln, i, 0))
            acc = acc + ln
        phi = Iet(h.source, g.source, pieces)
        hd = phi * h * ~phi
        assert (g * hd * ~g).support() == g.image_of(hd.support())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_group_laws_on_mixed_domains(seed):
    rnd = random.Random(seed)
    phi = cut_and_place(random_domain(rnd))
    g, h, k = (phi * random_iet(rnd, 6) * ~phi for _ in range(3))
    ident = Iet.identity(phi.target)
    assert (g * h) * k == g * (h * k)
    assert g * ~g == ident == ~g * g
    assert ident * g == g == g * ident


# -- the trusted kernel: products and inverses ---------------------------------------


def fixed_pieces(*spans):
    """Pieces of [0, 1), on one frame, that do not move their points."""
    values = [QuadNum(x) for span in spans for x in span] + [QuadNum(1)]
    frame = Frame(values)
    coord = frame.coord
    pieces = [(0, coord(QuadNum(a)), coord(QuadNum(n)), 0, coord(QuadNum(a))) for a, n in spans]
    return frame, pieces


def test_checked_mode_rejects_overlapping_trusted_pieces(monkeypatch):
    dom = Domain.interval(1)
    frame, overlap = fixed_pieces((0, H), (Fraction(1, 4), Fraction(3, 4)))
    monkeypatch.setattr(core, "CHECKED", False)
    Iet._trusted(frame, dom, dom, overlap)  # trusted: nothing is checked
    monkeypatch.setattr(core, "CHECKED", True)
    with pytest.raises(SelfCheckError, match="not a partition") as caught:
        Iet._trusted(frame, dom, dom, overlap)
    assert isinstance(caught.value.__cause__, PartitionError)
    # a valid piece set out of (src, a) order would merge differently
    frame, unsorted = fixed_pieces((H, H), (0, H))
    with pytest.raises(SelfCheckError, match="disagrees"):
        Iet._trusted(frame, dom, dom, unsorted)


def corrupt_trusted(monkeypatch, how):
    """Turn checked mode on and feed the trusted constructor the pieces of
    every product and inverse after ``how`` has rearranged them."""
    real = Iet._trusted
    monkeypatch.setattr(
        Iet, "_trusted", staticmethod(lambda f, s, t, ps: real(f, s, t, how(ps)))
    )
    monkeypatch.setattr(core, "CHECKED", True)


@pytest.mark.parametrize(
    "how, match",
    [(lambda ps: ps[::-1], "disagrees"), (lambda ps: ps[:-1], "not a partition")],
    ids=["unsorted", "gap"],
)
def test_a_failed_kernel_self_check_is_a_self_check_error(monkeypatch, how, match):
    r = interval_rotation(Fraction(1, 3))
    corrupt_trusted(monkeypatch, how)
    for op in (lambda: r * r, lambda: ~r):
        with pytest.raises(SelfCheckError, match=match):
            op()
    assert not issubclass(SelfCheckError, IetError)  # never mistaken for bad input


def compose_by_cuts(a: Iet, b: Iet, rnd) -> Iet:
    """a o b from scratch: cut b's source at b's piece starts and at the
    preimages of a's piece starts, evaluate at each left end, and let the
    validating constructor sort, check and merge the pieces."""
    cuts = {ci: {QuadNum(0)} for ci in range(len(b.source))}
    for p in b.pieces:
        cuts[p.src].add(p.a)
        for g in a.pieces:
            if g.src == p.dst and p.b <= g.a < p.b + p.length:
                cuts[p.src].add(p.a + (g.a - p.b))
    pieces = []
    for ci, comp in enumerate(b.source.components):
        xs = sorted(cuts[ci]) + [comp.length]
        for x, y in zip(xs, xs[1:]):
            img = a(b(Point(ci, x)))
            pieces.append((ci, x, y - x, img.comp, img.x))
    rnd.shuffle(pieces)
    return Iet(b.source, a.target, pieces)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_trusted_products_and_inverses_match_validating_constructor(seed):
    rnd = random.Random(seed)
    h = random_iet(rnd, 6)
    phi = cut_and_place(random_domain(rnd))  # source and target differ
    m = phi * random_iet(rnd, 6) * ~phi  # automorphism of a mixed domain
    for a, b in ((h, random_iet(rnd, 6)), (phi, h), (m, phi), (m, m)):
        assert a * b == compose_by_cuts(a, b, rnd)
    for a in (h, phi, m):
        flipped = [(p.dst, p.b, p.length, p.src, p.a) for p in a.pieces]
        rnd.shuffle(flipped)
        assert ~a == Iet(a.target, a.source, flipped)


def on_circle(h: Iet) -> Iet:
    """A map of [0, 1) read as a map of the circle R/Z, cut at 0."""
    dom = Domain.circle(1)
    return Iet(dom, dom, h.pieces)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_products_with_coinciding_breakpoints_match_validating_constructor(seed):
    # a piece image that starts at, or ends at, a piece start of the outer map:
    # inverse pairs, powers on a rational grid, circle maps meeting at the cut
    rnd = random.Random(seed)
    h = random_iet(rnd, 6)
    phi = cut_and_place(random_domain(rnd))
    m = phi * random_iet(rnd, 6) * ~phi
    q = rnd.randint(2, 12)
    g, k = random_q_rational_iet(rnd, q), random_q_rational_iet(rnd, q)
    powers = [g ** n for n in range(1, 5)]
    rot = circle_rotation(1, Fraction(rnd.randint(1, q - 1), q))
    cg, ck = on_circle(g), on_circle(k)
    pairs = [(h, ~h), (~h, h), (m, ~m), (~m, m), (g, k), (cg, ck), (cg, ~cg), (rot, cg)]
    pairs += [(a, b) for a in powers for b in powers]
    pairs += [(rot ** i, rot ** j) for i in range(q) for j in (1, q - 1)]
    for a, b in pairs:
        assert a * b == compose_by_cuts(a, b, rnd)
    assert all(a * ~a == Iet.identity(a.source) for a in (h, m, cg, rot) + tuple(powers))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_refined_pieces_give_the_same_canonical_map(seed):
    # the canonical form is unique: cutting pieces further changes nothing
    rnd = random.Random(seed)
    phi = cut_and_place(random_domain(rnd))  # source and target differ
    m = phi * random_iet(rnd, 6) * ~phi  # automorphism of a mixed domain
    for h in (random_iet(rnd, 6), phi, m):
        pieces = []
        for p in h.pieces:
            cuts = sorted({Fraction(rnd.randint(1, 9), 10) for _ in range(rnd.randint(0, 3))})
            for lo, hi in zip([0] + cuts, cuts + [1]):
                off = p.length * lo
                pieces.append((p.src, p.a + off, p.length * (hi - lo), p.dst, p.b + off))
        rnd.shuffle(pieces)
        g = Iet(h.source, h.target, pieces)
        assert g == h and hash(g) == hash(h)
        assert serialize_iet(g) == serialize_iet(h)

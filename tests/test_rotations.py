import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ietlab import core, rotations
from ietlab.core import (
    CIRCLE,
    INTERVAL,
    Component,
    Domain,
    DomainMismatchError,
    Iet,
    IetError,
    SelfCheckError,
    Subdomain,
    circle_rotation,
    from_lengths,
    interval_rotation,
)
from ietlab.field import QuadNum
from ietlab.menagerie import example_2_3
from ietlab.relations import ShrinkConfig, commutator, shrink_support
from ietlab.rotations import (
    circle_angles,
    irrational_circles,
    is_multi_rotation,
    multi_rotation_power,
)
from ietlab.suspension import minimal_model

from randgen import random_iet, random_quad_lengths

R2 = QuadNum.sqrt(2)
ALPHA = R2 - 1


def rolled_rotation(l, tau):
    """Translation by tau on [0, l - tau), wrap on [l - tau, l), identity on [l, 1)."""
    l, tau = QuadNum.of(Fraction(l) if isinstance(l, (int, str)) else l), QuadNum.of(tau)
    dom = Domain.interval(1)
    pieces = [(0, 0, l - tau, 0, tau), (0, l - tau, tau, 0, 0)]
    if l < 1:
        pieces.append((0, l, 1 - l, 0, l))
    return Iet(dom, dom, pieces)


def model_circles(h: Iet) -> list[tuple[QuadNum, QuadNum]]:
    """(length, angle) of each irrational circle that the minimal model of
    h names, sorted."""
    cert = minimal_model(h)
    m = cert.h_m
    assert cert.conjugator * h * ~cert.conjugator == m
    angles = circle_angles(m) if is_multi_rotation(m) else {}
    return sorted((m.source.components[ci].length, angles[ci]) for ci in irrational_circles(m))


def test_virtual_multi_rotation_flags():
    assert circle_rotation(1, ALPHA).d() == 0
    assert is_multi_rotation(circle_rotation(1, ALPHA))
    assert interval_rotation(ALPHA).d() == 1
    assert not is_multi_rotation(interval_rotation(ALPHA))
    ident = Iet.identity(Domain.interval(1))
    assert ident.d() == 0
    assert is_multi_rotation(ident)
    cut = Iet(Domain.circle(1), Domain.interval(1), [(0, 0, 1, 0, 0)])
    with pytest.raises(DomainMismatchError):
        is_multi_rotation(cut)


def test_continuous_but_not_multi_rotation():
    # swapping two equal intervals wholesale is continuous yet moves intervals
    dom = Domain.of(
        Component("interval", "A", QuadNum(1)), Component("interval", "B", QuadNum(1))
    )
    swap = Iet(dom, dom, [(0, 0, 1, 1, 0), (1, 0, 1, 0, 0)])
    assert swap.d() == 0
    assert not is_multi_rotation(swap)
    assert irrational_circles(swap) == ()


def test_verify_irrational_circle_accepts_rolled_rotation():
    # the model rolls [0, 3/4) up into a circle turned by sqrt(2)/4
    h = rolled_rotation(Fraction(3, 4), R2 / 4)
    assert irrational_circles(h) == ()  # h itself jumps
    assert model_circles(h) == [(QuadNum(Fraction(3, 4)), R2 / 4)]


def test_verify_irrational_circle_rejects_rational_ratio():
    # tau / l = (1/4) / (3/4) = 1/3: [0, 3/4) has order 3
    h = rolled_rotation(Fraction(3, 4), Fraction(1, 4))
    assert (h ** 3).is_identity()
    assert model_circles(h) == []


def test_verify_irrational_circle_rejects_identity():
    ident = Iet.identity(Domain.interval(1))
    assert irrational_circles(ident) == ()
    assert model_circles(ident) == []
    assert irrational_circles(Iet.identity(Domain.circle(Fraction(1, 2)))) == ()


def test_roll_up_full_interval():
    assert model_circles(interval_rotation(ALPHA)) == [(QuadNum(1), ALPHA)]


def test_decompose_multi_rotation():
    dom = Domain.of(Component(CIRCLE, "C1", QuadNum(1)), Component(CIRCLE, "C2", QuadNum(1)))
    a1, a2 = ALPHA, ALPHA / 2
    r = Iet(
        dom,
        dom,
        [
            (0, 0, 1 - a1, 0, a1),
            (0, 1 - a1, a1, 0, 0),
            (1, 0, 1 - a2, 1, a2),
            (1, 1 - a2, a2, 1, 0),
        ],
    )
    assert irrational_circles(r) == (0, 1)
    assert model_circles(r) == sorted([(QuadNum(1), a1), (QuadNum(1), a2)])
    assert circle_angles(r) == {0: a1, 1: a2}


def test_decompose_identity_and_non_rotation():
    assert irrational_circles(Iet.identity(Domain.circle(1))) == ()
    h = from_lengths((3, 2, 1), [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    assert not is_multi_rotation(h)
    assert irrational_circles(h) == ()
    assert model_circles(h) == []  # rational lengths: h has finite order


def test_decompose_kills_rational_circles_by_power():
    dom = Domain.of(Component(CIRCLE, "C1", QuadNum(1)), Component(CIRCLE, "C2", QuadNum(1)))
    r = Iet(
        dom,
        dom,
        [
            (0, 0, Fraction(2, 3), 0, Fraction(1, 3)),
            (0, Fraction(2, 3), Fraction(1, 3), 0, 0),
            (1, 0, 1 - ALPHA, 1, ALPHA),
            (1, 1 - ALPHA, ALPHA, 1, 0),
        ],
    )
    # C1 turns by a third of its length: only C2 is an irrational circle
    assert irrational_circles(r) == (1,)
    assert model_circles(r) == [(QuadNum(1), ALPHA)]
    r3 = multi_rotation_power(r, 3)
    assert circle_angles(r3)[0] == 0
    assert irrational_circles(r3) == (1,)


def test_commuting_with_irrational_rotation_forces_continuity():
    # on a circle, anything commuting with an irrational rotation is a rotation
    r = circle_rotation(1, ALPHA)
    for k in (1, 2, 5, -3):
        r2 = r ** k
        assert r2 * r == r * r2
        assert r2.d() == 0
    # contrapositive on a discontinuous automorphism of the circle
    dom = r.source
    s = Iet(
        dom,
        dom,
        [
            (0, 0, Fraction(1, 4), 0, Fraction(1, 4)),
            (0, Fraction(1, 4), Fraction(1, 4), 0, 0),
            (0, Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 2)),
        ],
    )
    assert s.d() > 0
    assert s * r != r * s


def test_conjugation_criterion_for_rotations():
    # if s r s^-1 commutes with r (r irrational rotation), s is a rotation
    r = circle_rotation(1, ALPHA)
    s = circle_rotation(1, Fraction(1, 3))
    assert (s * r * ~s) * r == r * (s * r * ~s)
    assert s.d() == 0
    dom = r.source
    t = Iet(
        dom,
        dom,
        [
            (0, 0, Fraction(1, 4), 0, Fraction(1, 4)),
            (0, Fraction(1, 4), Fraction(1, 4), 0, 0),
            (0, Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 2)),
        ],
    )
    conj = t * r * ~t
    assert conj * r != r * conj  # t is not a rotation, criterion detects it


def test_power_conjugation_commuting_oracle():
    """If s^n t s^-n commutes with t for all tested n, then s commutes with t
    (both conjugate to irrational multi-rotations); exercised both ways."""
    n_test = 12
    # commuting pair: rotations of one circle
    s = circle_rotation(1, ALPHA)
    t = circle_rotation(1, ALPHA / 3)
    for n in range(1, n_test + 1):
        c = (s ** n) * t * (s ** -n)
        assert c * t == t * c
    assert s * t == t * s
    # non-commuting pair: conjugated interval rotations; some n must witness it
    g = from_lengths((3, 2, 1), [Fraction(1, 8), Fraction(3, 8), Fraction(1, 2)])
    s2 = interval_rotation(ALPHA)
    t2 = g * s2 * ~g
    assert s2 * t2 != t2 * s2
    witnessed = any(
        ((s2 ** n) * t2 * (s2 ** -n)) * t2 != t2 * ((s2 ** n) * t2 * (s2 ** -n))
        for n in range(1, n_test + 1)
    )
    assert witnessed


def test_irrational_circles_disjoint_or_coincide():
    # two rolled circles inside [0, 1): [0, 1/2) and [1/2, 1)
    t1, t2 = ALPHA / 4, ALPHA / 8
    half = Fraction(1, 2)
    dom = Domain.interval(1)
    h = Iet(
        dom,
        dom,
        [
            (0, 0, half - t1, 0, t1),
            (0, half - t1, t1, 0, 0),
            (0, half, half - t2, 0, half + t2),
            (0, 1 - t2, t2, 0, half),
        ],
    )
    assert model_circles(h) == sorted([(QuadNum(half), t1), (QuadNum(half), t2)])
    # the conjugator pulls the two circles back onto the two halves
    cert = minimal_model(h)
    m, back = cert.h_m, ~cert.conjugator
    halves = [
        back.image_of(Subdomain.make(m.source, [(ci, 0, m.source.components[ci].length)]))
        for ci in irrational_circles(m)
    ]
    assert sorted(sub.parts for sub in halves) == [
        ((0, QuadNum(0), QuadNum(half)),),
        ((0, QuadNum(half), QuadNum(1)),),
    ]
    assert halves[0].disjoint(halves[1])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_model_names_the_irrational_circles_of_random_maps(seed):
    """The rolled-out rotation of example 2.3 and a random multi-rotation
    whose circles turn by an irrational or a rational fraction of their
    quadratic lengths, between fixed intervals: the model names exactly the
    circles built irrational."""
    rnd = random.Random(seed)
    l = Fraction(rnd.randint(2, 99), 100)
    tau = (R2 * rnd.randint(1, 50)).mod(l)  # tau / l is irrational
    assert model_circles(example_2_3(l, tau)) == [(QuadNum(l), tau)]
    lengths = random_quad_lengths(rnd, rnd.randint(1, 4))
    comps, pieces, expected = [], [], []
    for i, x in enumerate(lengths):
        kind = rnd.choice((CIRCLE, CIRCLE, INTERVAL))
        comps.append(Component(kind, f"M{i}", x))
        t = 0
        if kind == CIRCLE and rnd.randrange(3):
            t = x * (R2 * rnd.randint(1, 50)).mod(1)  # t / x is irrational
            expected.append((x, t))
        elif kind == CIRCLE:
            t = x * Fraction(rnd.randrange(12), 12)
        if t == 0:
            pieces.append((i, 0, x, i, 0))
        else:
            pieces += [(i, 0, x - t, i, t), (i, x - t, t, i, 0)]
    dom = Domain(tuple(comps))
    m = Iet(dom, dom, pieces)
    assert [dom.components[ci].length for ci in irrational_circles(m)] == [x for x, _ in expected]
    assert model_circles(m) == sorted(expected)


# -- powers of multi-rotations in closed form ----------------------------------------


def random_multi_rotation(rnd) -> Iet:
    """One to three circles and up to two fixed intervals, in random order,
    with rational or quadratic lengths.  A circle turns by a rational
    fraction of its length with denominator dividing 12 (so a multiple of 12
    turns it by 0), by a rational angle, or by a quadratic one."""
    kinds = [CIRCLE] * rnd.randint(1, 3) + ["interval"] * rnd.randint(0, 2)
    rnd.shuffle(kinds)
    comps, pieces = [], []
    for ci, kind in enumerate(kinds):
        length = QuadNum(Fraction(rnd.randint(1, 12), rnd.randint(1, 12)))
        if rnd.randrange(2):
            length = length + R2 * Fraction(rnd.randint(-5, 5), 100)  # stays positive
        comps.append(Component(kind, f"M{ci}", length))
        way = rnd.randrange(3) if kind == CIRCLE else None
        if way is None:
            angle = QuadNum(0)
        elif way == 0:
            angle = length * Fraction(rnd.randrange(12), 12)
        else:
            irrational = Fraction(rnd.randint(1, 9), 1000) if way == 2 else 0
            angle = QuadNum(Fraction(rnd.randint(1, 99), 100), irrational, 2).mod(length)
        if angle == 0:
            pieces.append((ci, 0, length, ci, 0))
        else:
            pieces += [(ci, 0, length - angle, ci, angle), (ci, length - angle, angle, ci, 0)]
    dom = Domain(tuple(comps))
    return Iet(dom, dom, pieces)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(-10 ** 5, 10 ** 5))
@example(seed=0, n=0)
def test_multi_rotation_power_matches_repeated_squaring(seed, n):
    h = random_multi_rotation(random.Random(seed))
    assert is_multi_rotation(h)
    # a multiple of 12 turns every circle whose angle is a k/12 fraction of it by 0
    twelves = 12 * (n // 12) if n >= 0 else -12 * (-n // 12)
    for m in (n, twelves, 0, 1, -1):
        assert multi_rotation_power(h, m) == h ** m, m


def test_multi_rotation_power_needs_a_multi_rotation():
    with pytest.raises(IetError):
        multi_rotation_power(interval_rotation(ALPHA), 3)


def test_checked_mode_catches_a_wrong_closed_form(monkeypatch):
    r = circle_rotation(1, ALPHA)
    monkeypatch.setattr(rotations, "circle_angles", lambda h: {0: ALPHA / 2})
    monkeypatch.setattr(core, "CHECKED", False)
    assert multi_rotation_power(r, 5) != r ** 5  # the wrong form goes unseen
    monkeypatch.setattr(core, "CHECKED", True)
    with pytest.raises(SelfCheckError, match="disagrees"):
        multi_rotation_power(r, 5)


def shrink_input(rnd, circles: int):
    """R turning each unit circle by a quadratic angle, and S an interval
    exchange on each circle, with the two circles swapped half the time."""
    dom = Domain(tuple(Component(CIRCLE, f"C{i}", QuadNum(1)) for i in range(circles)))
    r_pieces, s_pieces = [], []
    for ci in range(circles):
        ang = QuadNum(Fraction(rnd.randint(1, 99), 100), Fraction(rnd.randint(1, 9), 1000), 2)
        r_pieces += [(ci, 0, 1 - ang, ci, ang), (ci, 1 - ang, ang, ci, 0)]
        s_pieces += [(ci, p.a, p.length, ci, p.b) for p in random_iet(rnd, 5).pieces]
    r, s = Iet(dom, dom, r_pieces), Iet(dom, dom, s_pieces)
    if circles == 2 and rnd.randrange(2):
        s = Iet(dom, dom, [(0, 0, 1, 1, 0), (1, 0, 1, 0, 0)]) * s
    return r, s


def test_shrink_support_matches_the_commutator_of_repeated_squaring():
    rnd = random.Random(2718)
    cfg = ShrinkConfig(QuadNum(Fraction(1, 100)))
    for circles in (1, 1, 1, 2, 2, 2, 2, 2):
        r, s = shrink_input(rnd, circles)
        n, u = shrink_support(r, s, cfg)
        rn = r ** n
        assert u == commutator(commutator(s, rn), rn), (circles, n)

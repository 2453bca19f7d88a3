"""Property tests of the map kernel across frames.

Maps live on frames of their own: a rational map on one denominator, a
Q(sqrt 2) map on another, circles and intervals, several components.
Products, inverses, powers, ``discontinuities`` and ``support`` of such
maps must equal what the validating ``Iet(...)`` builds and what pointwise
evaluation by ``Iet.__call__`` gives.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietlab.cli import EXIT_INPUT, main
from ietlab.core import (
    CIRCLE,
    INTERVAL,
    Component,
    Domain,
    Iet,
    Point,
    Subdomain,
    interval_rotation,
)
from ietlab.field import FieldMismatchError, QuadNum
from ietlab.textio import serialize_iet

from randgen import random_iet, random_q_rational_iet
from test_core import compose_by_cuts

R2 = QuadNum.sqrt(2)


def placement(rnd, q: int) -> Iet:
    """[0, 1) laid out along one to three circles and intervals whose
    lengths are multiples of 1/q, so rational maps can live on them."""
    k = rnd.randint(1, 3)
    cuts = sorted(rnd.sample(range(1, q), k - 1))
    marks = [0] + cuts + [q]
    comps, pieces = [], []
    for i in range(k):
        length = QuadNum(Fraction(marks[i + 1] - marks[i], q))
        comps.append(Component(rnd.choice((CIRCLE, INTERVAL)), f"M{i}", length))
        pieces.append((0, Fraction(marks[i], q), length, i, 0))
    return Iet(Domain.interval(1), Domain(tuple(comps)), pieces)


def maps_on_many_frames(rnd) -> tuple[Iet, list[Iet]]:
    """A placement phi and automorphisms of its target: rational maps over
    two grids and Q(sqrt 2) maps, each on a frame of its own."""
    q = rnd.choice((6, 12))
    phi = placement(rnd, q)
    inner = [random_q_rational_iet(rnd, q), random_q_rational_iet(rnd, 2 * q)]
    inner += [random_iet(rnd, 5), random_iet(rnd, 4)]
    return phi, [phi * g * ~phi for g in inner]


def probes(h: Iet, rnd) -> list[Point]:
    """Every piece start of h and a few points inside its components."""
    pts = [Point(p.src, p.a) for p in h.pieces]
    for ci, comp in enumerate(h.source.components):
        for _ in range(3):
            pts.append(Point(ci, comp.length * Fraction(rnd.randint(0, 999), 1000)))
    return pts


def rebuilt(h: Iet, rnd) -> Iet:
    """h through the validating constructor, from shuffled pieces."""
    pieces = [tuple(p) for p in h.pieces]
    rnd.shuffle(pieces)
    return Iet(h.source, h.target, pieces)


def jumps_by_evaluation(h: Iet) -> tuple[Point, ...]:
    """The piece starts where the left limit differs from the value."""
    out = []
    for ci, comp in enumerate(h.source.components):
        for x in sorted(p.a for p in h.pieces if p.src == ci):
            if x == 0 and comp.kind == INTERVAL:
                continue
            lc, lx = h.left_limit(ci, x if x != 0 else comp.length)
            tgt = h.target.components[lc]
            if tgt.kind == CIRCLE and lx == tgt.length:
                lx = QuadNum(0)
            if h(Point(ci, x)) != Point(lc, lx):
                out.append(Point(ci, x))
    return tuple(out)


def support_by_evaluation(h: Iet) -> Subdomain:
    moving = []
    for p in h.pieces:
        if h(Point(p.src, p.a)) != Point(p.src, p.a):
            moving.append((p.src, p.a, p.a + p.length))
    return Subdomain.make(h.source, moving)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_kernel_agrees_with_validation_across_frames(seed):
    rnd = random.Random(seed)
    phi, maps = maps_on_many_frames(rnd)
    frames = {(m.frame.den, m.frame.d) for m in maps}
    assert len(frames) > 1 and {d for _, d in frames} == {0, 2}
    for a in maps + [phi]:
        b = maps[rnd.randrange(len(maps))]
        if a.source != b.target:
            a, b = b, a  # phi: apply the automorphism first
        ab = a * b
        assert ab == rebuilt(ab, rnd) == compose_by_cuts(a, b, rnd)
        for x in probes(b, rnd):
            assert ab(x) == a(b(x))
        inv = ~a
        flipped = [(p.dst, p.b, p.length, p.src, p.a) for p in a.pieces]
        assert inv == Iet(a.target, a.source, flipped)
        for x in probes(a, rnd):
            assert inv(a(x)) == x
    for m in maps:
        power = m
        for n in range(2, 5):
            power = power * m
            assert m**n == power == rebuilt(power, rnd)
            assert m**-n == ~power
        assert m.discontinuities() == jumps_by_evaluation(m)
        assert m.d() == len(jumps_by_evaluation(m))
        assert m.support() == support_by_evaluation(m)


def test_one_map_on_two_denominators_is_one_map():
    rnd = random.Random(5)
    h = random_iet(rnd, 6)
    g = interval_rotation(Fraction(1, 10007))
    wide = h * g * ~g  # h's values on a frame over 10,007 times the denominator
    assert wide.frame.den != h.frame.den
    assert wide == h and h == wide and hash(wide) == hash(h)
    assert serialize_iet(wide) == serialize_iet(h)
    # a rational map on a Q(sqrt 2) frame
    r = interval_rotation(Fraction(1, 3))
    on_r2 = r * h * ~h
    assert (on_r2.frame.d, r.frame.d) == (2, 0)
    assert on_r2 == r and hash(on_r2) == hash(r)
    assert len({h, wide, r, on_r2}) == 2
    # keys read P and Q over den modulo the hash modulus; a denominator the
    # modulus divides keys by the normal form, on every frame alike
    m = sys.hash_info.modulus
    big = interval_rotation(Fraction(1, m))
    fifth = interval_rotation(Fraction(1, 5))
    assert (big * fifth * ~fifth).frame.den != big.frame.den
    assert big * fifth * ~fifth == big and hash(big * fifth * ~fifth) == hash(big)
    small = interval_rotation(Fraction(1, m + 2))
    on_m = small * big * ~big  # a value without m in its denominator, on a frame with it
    assert on_m.frame.den % m == 0 != small.frame.den % m
    assert on_m == small and hash(on_m) == hash(small)


def test_two_fields_do_not_compose(tmp_path, capsys):
    a = interval_rotation(R2 - 1)
    b = interval_rotation(QuadNum.sqrt(3) - 1)
    with pytest.raises(FieldMismatchError):
        a * b
    with pytest.raises(FieldMismatchError):
        ~b * a
    assert a != b  # comparing maps of two fields is no error
    fa, fb = tmp_path / "a.iet", tmp_path / "b.iet"
    fa.write_text(serialize_iet(a))
    fb.write_text(serialize_iet(b))
    assert main(["compose", str(fa), str(fb), "-o", str(tmp_path / "c.iet")]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: cannot mix sqrt(2) and sqrt(3)")


# -- evaluation at points off the map's frame --------------------------------------


def by_piece_scan(h: Iet, comp: int, x, left: bool = False) -> tuple:
    """The definition: the piece of comp holding x, in [a, a + length) for
    the value and in (a, a + length] for the left limit."""
    for p in h.pieces:
        end = p.a + p.length
        if p.src == comp and (p.a < x <= end if left else p.a <= x < end):
            return p.dst, p.b + (x - p.a)
    raise AssertionError(f"no piece of component {comp} holds {x}")


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evaluation_off_the_frame_is_the_piece_scan(seed):
    rnd = random.Random(seed)
    _, maps = maps_on_many_frames(rnd)
    assert {m.frame.d for m in maps} == {0, 2}  # rational maps meet irrational points
    for h in maps:
        for ci, comp in enumerate(h.source.components):
            starts = [p.a for p in h.pieces if p.src == ci]
            # a prime grid no frame denominator is a multiple of
            off = [comp.length * Fraction(rnd.randrange(10007), 10007) for _ in range(3)]
            assert all(h.frame.den % x.den for x in off if x != 0)
            irrational = [comp.length * (R2 - 1) / k for k in (1, 3, 7)]
            for x in starts + off + irrational:
                assert h(Point(ci, x)) == Point(*by_piece_scan(h, ci, x))
            for x in [x for x in starts + off + irrational if x != 0] + [comp.length]:
                assert h.left_limit(ci, x) == by_piece_scan(h, ci, x, left=True)


def test_a_point_of_another_field_is_refused():
    h = interval_rotation(R2 - 1)
    x = QuadNum.sqrt(3) - 1
    with pytest.raises(FieldMismatchError):
        h(Point(0, x))
    with pytest.raises(FieldMismatchError):
        h.left_limit(0, x)


def test_evaluating_a_product_builds_no_quadnum_pieces():
    rnd = random.Random(3)
    g = random_iet(rnd, 8, 6) * random_iet(rnd, 8, 6)
    x = QuadNum(Fraction(1, 3))
    value, limit = g(Point(0, x)), g.left_limit(0, x)
    assert g._edge is None  # the map's other pieces stay on its frame
    assert value == Point(*by_piece_scan(g, 0, x))
    assert limit == by_piece_scan(g, 0, x, left=True)

"""Subdomains on a frame against the QuadNum oracle of ``subdomain_oracle``."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietlab.core import CIRCLE, Component, Domain, IetError, Subdomain
from ietlab.field import QuadNum

from randgen import cut_and_place, random_domain, random_iet
from subdomain_oracle import QuadSubdomain, image_of, support_of

R2 = QuadNum.sqrt(2)
# fractions of a component's length that the parts' ends are drawn from:
# rational and in Q(sqrt 2), so that parts touch, overlap and nest
GRID = (0, Fraction(1, 5), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), (R2 - 1) / 2, R2 - 1, 1)


def draw_parts(data, domain: Domain) -> list:
    """Up to five parts (component, start, end) with ends on the grid, in
    any order, overlapping or not."""
    parts = []
    for _ in range(data.draw(st.integers(0, 5))):
        ci = data.draw(st.integers(0, len(domain.components) - 1))
        length = domain.components[ci].length
        ends = data.draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True))
        a, e = sorted(length * x for x in ends)
        parts.append((ci, a, e))
    return parts


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_subdomains_agree_with_the_quadnum_oracle(seed, data):
    rnd = random.Random(seed)
    domain = random_domain(rnd)
    raw_a, raw_b = draw_parts(data, domain), draw_parts(data, domain)
    a, b = Subdomain.make(domain, raw_a), Subdomain.make(domain, raw_b)
    oa, ob = QuadSubdomain.make(domain, raw_a), QuadSubdomain.make(domain, raw_b)
    assert a.parts == oa.parts and b.parts == ob.parts
    assert a.is_empty() == oa.is_empty()
    assert a.measure() == oa.measure()
    assert a.union(b).parts == oa.union(ob).parts
    for x, y, ox, oy in ((a, b, oa, ob), (b, a, ob, oa), (a, a, oa, oa)):
        assert x.covers(y) == ox.covers(oy)
        assert x.disjoint(y) == ox.disjoint(oy)
    assert (a == b) == (oa == ob) and (a != b or hash(a) == hash(b))
    # a map of the domain: its support, and images of subdomains on
    # another frame than the map's
    phi = cut_and_place(domain)
    h = phi * random_iet(rnd, 5) * ~phi
    assert h.support().parts == support_of(h).parts
    assert h.image_of(a).parts == image_of(h, oa).parts
    assert (~h).image_of(h.image_of(a)) == a


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_equal_sets_on_two_frames_are_equal_and_hash_alike(seed, data):
    rnd = random.Random(seed)
    domain = random_domain(rnd)
    raw = draw_parts(data, domain)
    a = Subdomain.make(domain, raw)
    # a part inside the set with a new denominator puts the same set on a
    # finer frame, most of the time
    inner = [(ci, s, s + (e - s) / 7) for ci, s, e in raw[:1]]
    b = Subdomain.make(domain, raw + inner)
    assert a == b and hash(a) == hash(b)
    assert a.union(b) == a == b.union(a)
    assert a.covers(b) and b.covers(a)


def test_make_refuses_a_component_outside_the_domain():
    domain = Domain((Component(CIRCLE, "C", QuadNum(1)), Component("interval", "I", QuadNum(1))))
    for ci in (2, 3, -1):
        with pytest.raises(IetError):
            Subdomain.make(domain, [(ci, 0, Fraction(1, 2))])
    for bad in ((0, Fraction(1, 2), Fraction(1, 2)), (0, -1, Fraction(1, 2)), (1, 0, 2)):
        with pytest.raises(IetError):
            Subdomain.make(domain, [bad])

import random
import time
from fractions import Fraction

import pytest

from ietlab import menagerie
from ietlab.core import CIRCLE, Component, Domain, Iet, IetError, make_point
from ietlab.field import QuadNum
from ietlab.menagerie import (
    ConstructionError,
    ExampleGroup,
    build_example_group,
    default_lambda,
    example_2_3,
    free_semigroup_check,
    sigma_involution,
    symmetric_embedding,
)
from ietlab.relations import CapExceededError
from ietlab.rotations import circle_angles, irrational_circles, is_multi_rotation
from ietlab.suspension import minimal_model

R2 = QuadNum.sqrt(2)


def test_example_2_3_irrational_circle():
    # the model rolls [0, 3/4) up into one circle, turned by tau
    m = minimal_model(example_2_3(Fraction(3, 4), R2 / 4)).h_m
    (ci,) = irrational_circles(m)
    assert m.source.components[ci].length == Fraction(3, 4)
    assert circle_angles(m)[ci] == R2 / 4


def test_example_2_3_rational_ratio_has_finite_order():
    h = example_2_3(Fraction(3, 4), Fraction(1, 4))
    assert (h ** 3).is_identity()
    assert irrational_circles(minimal_model(h).h_m) == ()


def test_example_2_3_support():
    h = example_2_3(Fraction(1, 2), Fraction(1, 4))
    assert h.support().parts == ((0, QuadNum(0), QuadNum(Fraction(1, 2))),)


def test_example_2_3_parameter_errors():
    with pytest.raises(IetError):
        example_2_3(Fraction(1, 4), Fraction(1, 2))  # tau > l
    with pytest.raises(IetError):
        example_2_3(1, Fraction(1, 4))  # l = 1 leaves no fixed part


def test_build_example_group():
    g = build_example_group(R2 - 1)
    assert (g.s * g.s).is_identity()
    assert is_multi_rotation(g.r)
    assert g.r.d() == 0
    # r and s do not commute: watch a point of the swapped-in arc
    p = make_point(g.domain, g.CIRCLE_INDEX, Fraction(1, 3))
    assert (g.r * g.s)(p) != (g.s * g.r)(p)


def test_build_example_group_rejects_rational():
    with pytest.raises(IetError):
        build_example_group(Fraction(1, 2))
    with pytest.raises(IetError):
        build_example_group(R2)  # not in (0, 1)


def test_default_lambda():
    for n in (1, 3, 10):
        lam = default_lambda(n)
        assert 0 < lam and lam < Fraction(1, 10 * n)
        assert not lam.is_rational()


def test_sigma_involution_checks():
    g = build_example_group((R2 - 1) / 8)
    sc = sigma_involution(g)
    assert (sc.sigma * sc.sigma).is_identity()
    assert sc.sigma.support() == sc.block_e.union(sc.block_f)
    assert sc.sigma.image_of(sc.block_e) == sc.block_f
    assert sc.sigma.image_of(sc.block_f) == sc.block_e


def test_sigma_involution_random_lambdas():
    rng = random.Random(99)
    for _ in range(5):
        lam = (R2 - 1) * Fraction(rng.randint(1, 20), 512)
        assert lam < Fraction(1, 10)
        sc = sigma_involution(build_example_group(lam))
        assert (sc.sigma * sc.sigma).is_identity()


def test_sigma_requires_small_lambda():
    g = build_example_group(R2 - 1)  # about 0.414, too large
    with pytest.raises(IetError):
        sigma_involution(g)


def test_words_reevaluate_to_elements():
    g = build_example_group(default_lambda(2))
    sc = sigma_involution(g)
    gens = [g.r, g.s]
    named = {
        "r_prime": sc.r_prime,
        "r_double_prime": sc.r_double_prime,
        "t": sc.t,
        "t_prime": sc.t_prime,
        "t_double_prime": sc.t_double_prime,
        "sigma": sc.sigma,
    }
    for name, elem in named.items():
        assert sc.words[name].evaluate(gens) == elem
    emb = symmetric_embedding(g, 2)
    for word, gen in zip(emb.words, emb.generators):
        assert word.evaluate(gens) == gen


def test_symmetric_embedding_orders():
    assert symmetric_embedding(build_example_group(default_lambda(1)), 1).order == 6
    assert symmetric_embedding(build_example_group(default_lambda(3)), 3).order == 120
    # 10! = 3,628,800 elements: the order comes from a stabilizer chain, never a listing
    start = time.monotonic()
    assert symmetric_embedding(build_example_group(default_lambda(8)), 8).order == 3_628_800
    assert time.monotonic() - start < 30


def test_symmetric_embedding_block_structure():
    emb = symmetric_embedding(build_example_group(default_lambda(2)), 2)
    assert len(emb.blocks) == 4
    for i in range(len(emb.blocks)):
        for j in range(i + 1, len(emb.blocks)):
            assert emb.blocks[i].disjoint(emb.blocks[j])
    # each generator is the transposition (0, j+1) on blocks
    for j, perm in enumerate(emb.block_permutations):
        expect = list(range(4))
        expect[0], expect[j + 1] = j + 1, 0
        assert perm == tuple(expect)


def test_symmetric_embedding_lambda_too_large():
    g = build_example_group((R2 - 1) / 8)  # fine for n = 1, too big for n = 4
    with pytest.raises(IetError):
        symmetric_embedding(g, 4)


def test_free_semigroup_small_depths():
    g = build_example_group(default_lambda(1))
    assert free_semigroup_check(g, 1)  # r != s r s
    assert free_semigroup_check(g, 3)  # 14 words, pairwise distinct
    assert free_semigroup_check(g, 6)


def test_free_semigroup_word_cap(monkeypatch):
    g = build_example_group(default_lambda(1))
    with pytest.raises(CapExceededError):
        free_semigroup_check(g, 16)  # 131,070 words
    with pytest.raises(CapExceededError):
        free_semigroup_check(g, 10 ** 9)
    monkeypatch.setattr(menagerie, "WORD_CAP", 14)  # 2 + 4 + 8 words at depth 3
    assert free_semigroup_check(g, 3)
    monkeypatch.setattr(menagerie, "WORD_CAP", 13)
    with pytest.raises(CapExceededError):
        free_semigroup_check(g, 3)


def test_free_semigroup_check_finds_a_repeat_and_a_broken_criterion():
    g = build_example_group(default_lambda(1))
    dom, half = g.domain, QuadNum(Fraction(1, 2))
    # a rational r of order 4: the word r^4 is the identity, which fixes the base point
    r = Iet(dom, dom, [(0, 0, 2 - half, 0, half), (0, 2 - half, half, 0, 0), (1, 0, 1, 1, 0)])
    rational = ExampleGroup(dom, r, g.s, half)
    assert free_semigroup_check(rational, 3) and not free_semigroup_check(rational, 4)
    # s swaps two circles, so r' = s r s commutes with r: the map r r' repeats as r' r
    two = Domain.of(Component(CIRCLE, "C", QuadNum(2)), Component(CIRCLE, "D", QuadNum(2)))
    r2 = Iet(two, two, [(0, 0, 2 - half, 0, half), (0, 2 - half, half, 0, 0), (1, 0, 2, 1, 0)])
    swap = Iet(two, two, [(0, 0, 2, 1, 0), (1, 0, 2, 0, 0)])
    commuting = ExampleGroup(two, r2, swap, half)
    assert free_semigroup_check(commuting, 1) and not free_semigroup_check(commuting, 2)
    # s swaps the interval with the second half of the circle, so r' moves the
    # base point: distinct maps, but the fixed-point criterion fails
    s = Iet(dom, dom, [(0, 0, 1, 0, 0), (0, 1, 1, 1, 0), (1, 0, 1, 0, 1)])
    assert s * s == Iet.identity(dom) and s * g.r * s != g.r
    assert not free_semigroup_check(ExampleGroup(dom, g.r, s, g.lam), 1)


def test_free_semigroup_verdicts_match_evaluating_each_word():
    # the check reads the base point's image off each word's pieces; here
    # every word is evaluated at the point instead, on the example group,
    # on a rational r of order 4, on an s under which r' moves the point,
    # and on an r that carries it to 0 of the interval
    g = build_example_group(default_lambda(1))
    dom, half = g.domain, QuadNum(Fraction(1, 2))
    turn = [(0, 0, 2 - half, 0, half), (0, 2 - half, half, 0, 0), (1, 0, 1, 1, 0)]
    rational = Iet(dom, dom, turn)
    moved = Iet(dom, dom, [(0, 0, 1, 0, 0), (0, 1, 1, 1, 0), (1, 0, 1, 0, 1)])
    half_turn = Iet(dom, dom, [(0, 0, 1, 0, 1), (0, 1, 1, 0, 0), (1, 0, 1, 1, 0)])
    p = make_point(dom, g.CIRCLE_INDEX, 0)
    groups = [g, ExampleGroup(dom, rational, g.s, half), ExampleGroup(dom, g.r, moved, g.lam)]
    for group in groups + [ExampleGroup(dom, g.s, half_turn, g.lam)]:
        gens = ((False, group.r), (True, group.s * group.r * group.s))
        words, layer = [], [(True, Iet.identity(dom))]
        for depth in range(1, 6):
            layer = [(only and rp, m * gen) for only, m in layer for rp, gen in gens]
            words += layer
            expect = len(set(m for _, m in words)) == len(words)
            expect = expect and all((m(p) == p) == only for only, m in words)
            assert free_semigroup_check(group, depth) == expect


def test_free_semigroup_fixed_point_criterion():
    g = build_example_group(default_lambda(1))
    r, s = g.r, g.s
    r_prime = s * r * s
    p = make_point(g.domain, g.CIRCLE_INDEX, 0)
    assert (r_prime ** 5)(p) == p
    assert (r)(p) != p
    assert (r_prime * r)(p) != p

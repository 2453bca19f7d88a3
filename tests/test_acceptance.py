"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints an explicit summary line.
"""

import math
import random
from fractions import Fraction
from itertools import permutations, product

from ietlab.approx import (
    enumerate_finite_group,
    orbit_ball,
    pl_trace,
    rationalize,
    translation_amplitude_count,
)
from ietlab.core import (
    CIRCLE,
    Component,
    Domain,
    Iet,
    from_lengths,
    interval_rotation,
    lengths_of,
    make_point,
    permutation_of,
)
from ietlab.field import QuadNum
from ietlab.menagerie import (
    build_example_group,
    default_lambda,
    free_semigroup_check,
    sigma_involution,
    symmetric_embedding,
)
from ietlab.relations import (
    ShrinkConfig,
    Word,
    drift_direction,
    drifted,
    free_reduce,
    is_admissible,
    lcm_up_to,
    relation_certificate,
    shrink_support,
    vanishing_coordinate_certificate,
)
from ietlab.suspension import minimal_model

from randgen import (
    random_iet,
    random_q_rational_iet,
    random_quad_lengths,
    random_realizable_perm,
)

R2 = QuadNum.sqrt(2)
ALPHA = R2 - 1


def test_criterion_01_subadditivity_1000_pairs():
    rng = random.Random(101)
    for _ in range(1000):
        g = random_iet(rng, 8)
        h = random_iet(rng, 8)
        assert (g * h).d() <= g.d() + h.d()
    print("criterion 1 PASS: d(g h) <= d(g) + d(h) on 1000 random pairs, exact")


def test_criterion_02_minimal_model_certificates_100_instances():
    rng = random.Random(102)
    for _ in range(100):
        h = random_iet(rng, 8)
        cert = minimal_model(h, depth=64, n_check=20)  # verifies d(h_m^n) = n d(h_m), n <= 20
        ds = []
        g = h
        for _ in range(40):
            ds.append(g.d())
            g = g * h
        for n in range(30, 41):
            assert round(ds[n - 1] / n) == cert.norm
    print("criterion 2 PASS: 100 certificates, linear growth to n=20 and slope 30..40 match")


def test_criterion_03_norm_integrality_homogeneity_conjugacy():
    rng = random.Random(103)
    for _ in range(30):
        h = random_iet(rng, 5)
        cert = minimal_model(h, depth=64, n_check=8)
        assert isinstance(cert.norm, int) and cert.norm >= 0
        assert minimal_model(h ** 2, depth=64, n_check=8).norm == 2 * cert.norm
        assert minimal_model(h ** 3, depth=64, n_check=8).norm == 3 * cert.norm
        for _ in range(10):
            g = random_iet(rng, 5)
            assert minimal_model(g * h * ~g, depth=64, n_check=8).norm == cert.norm
    print("criterion 3 PASS: integral norms, |h^k| = k |h| for k=2,3, conjugacy-invariant (30 x 10)")


def test_criterion_04_rotation_degeneracy():
    h = interval_rotation(ALPHA)
    g = h
    for _ in range(50):
        assert g.d() == 1
        g = g * h
    cert = minimal_model(h, depth=16, n_check=20)
    assert cert.norm == 0
    assert [c.kind for c in cert.h_m.source.components] == [CIRCLE]
    print("criterion 4 PASS: d(h^n) = 1 for n <= 50; certified norm 0 on a circle model")


def test_criterion_05_drift_exhaustive_up_to_6():
    checked = 0
    for n in range(1, 7):
        for p in permutations(range(1, n + 1)):
            dd = drift_direction(p)
            if is_admissible(p):
                assert dd is not None
                assert all(c >= 1 for c in dd.dr)
            else:
                assert dd is None
                m, ok = vanishing_coordinate_certificate(p)
                assert ok and p[m - 1] == m
            checked += 1
    assert checked == sum(math.factorial(n) for n in range(1, 7))
    print(f"criterion 5 PASS: driftable iff admissible on all {checked} permutations, n <= 6")


def _random_circle_instance(rng):
    ncirc = rng.randint(1, 2)
    comps = [Component(CIRCLE, f"C{i}", QuadNum(1)) for i in range(ncirc)]
    dom = Domain(tuple(comps))
    # R: rotation by a random quadratic angle on each circle
    pieces = []
    for ci in range(ncirc):
        ang = random_quad_lengths(rng, 2)[0]
        pieces.append((ci, 0, 1 - ang, ci, ang))
        pieces.append((ci, 1 - ang, ang, ci, 0))
    r = Iet(dom, dom, pieces)
    # S: a random interval exchange bent onto each circle, optionally followed
    # by the swap of the two circles
    pieces = []
    for ci in range(ncirc):
        inner = random_iet(rng, 5)
        for p in inner.pieces:
            pieces.append((ci, p.a, p.length, ci, p.b))
    s = Iet(dom, dom, pieces)
    if ncirc == 2 and rng.random() < 0.5:
        swap = Iet(dom, dom, [(0, 0, 1, 1, 0), (1, 0, 1, 0, 0)])
        s = swap * s
    return r, s


def test_criterion_06_support_shrinking_200_pairs():
    rng = random.Random(106)
    eps = QuadNum(Fraction(1, 100))
    for _ in range(200):
        r, s = _random_circle_instance(rng)
        n, u = shrink_support(r, s, ShrinkConfig(eps))  # raises if containment fails
        assert n >= 1
        # external spot check: support parts have endpoints eps-close to marks
        marks = set(s.discontinuities()) | set((~s).discontinuities())
        for ci, a, b in u.support().parts:
            length = s.source.components[ci].length
            ok = False
            for p in marks:
                if p.comp != ci:
                    continue
                for x in (a, b):
                    d = (x - p.x).mod(length)
                    dist = d if 2 * d <= length else length - d
                    if dist <= eps:
                        ok = True
            assert ok
    print("criterion 6 PASS: supp([[S,R^n],R^n]) inside the eps-neighbourhood, 200 pairs, exact")


def test_criterion_07_relation_certificate_q2_instance():
    s = from_lengths((2, 1), [Fraction(1, 2), Fraction(1, 2)])
    t0 = from_lengths((3, 2, 1), [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    t = drifted(t0, Fraction(1, 64), drift_direction((3, 2, 1)))
    cert = relation_certificate(s, t, 2, k_cap=8)
    assert cert is not None
    assert cert.word.evaluate([s, t]).is_identity()
    assert free_reduce(cert.word).letters != ()
    print("criterion 7 PASS: q=2 constructed instance certifies; w(S,T) = id exactly")


def test_criterion_08_rationalization_radius_4():
    g1 = interval_rotation(ALPHA)  # lengths (2 - sqrt2, sqrt2 - 1)
    g2 = from_lengths((3, 2, 1), [Fraction(1, 4), ALPHA / 4, Fraction(3, 4) - ALPHA / 4])
    rats, quot = rationalize([g1, g2], 4)
    trace = pl_trace([g1, g2], 4)
    assert len(trace.word_pattern) == 160  # the freely reduced words
    letters = [(0, 1), (0, -1), (1, 1), (1, -1)]
    words = [Word(w) for n in range(1, 5) for w in product(letters, repeat=n)]
    assert len(words) == 340
    for word in words:
        # a word names the map of its free reduction; the empty one is the identity
        reduced = free_reduce(word)
        witness = trace.word_pattern[reduced] if reduced.letters else None
        assert (witness is None) == word.evaluate(rats).is_identity()
    assert quot.group_size is not None and quot.group_size >= 1
    assert all(x.is_rational() for g in rats for x in lengths_of(g))
    print(
        "criterion 8 PASS: marked ball of 340 words (160 freely reduced) matches exactly; "
        f"quotient on {quot.grid} cells has order {quot.group_size}"
    )


def test_criterion_09_q_rational_finiteness():
    rng = random.Random(109)
    for q in range(2, 7):
        e = lcm_up_to(q)
        for _ in range(4):
            h = random_q_rational_iet(rng, q)
            assert h.is_q_rational(q)
            assert (h ** e).is_identity()
        g1 = random_q_rational_iet(rng, q)
        g2 = random_q_rational_iet(rng, q)
        size = enumerate_finite_group([g1, g2], cap=10 ** 6)
        assert 1 <= size <= math.factorial(q)
    print("criterion 9 PASS: h^lcm(1..q) = id and finite enumeration for q <= 6")


def test_criterion_10_example_group():
    g = build_example_group(default_lambda(1))
    sc = sigma_involution(g)  # raises unless sigma^2 = id and supp = E u F exactly
    assert (sc.sigma * sc.sigma).is_identity()
    assert sc.sigma.support() == sc.block_e.union(sc.block_f)
    assert symmetric_embedding(g, 1).order == 6
    g3 = build_example_group(default_lambda(3))
    assert symmetric_embedding(g3, 3).order == 120
    assert free_semigroup_check(g, 10)  # 2046 words pairwise distinct
    print("criterion 10 PASS: sigma checks, orders 6 and 120, 2046 distinct positive words")


def test_criterion_11_orbit_growth_bound():
    rng = random.Random(111)
    for _ in range(100):
        k = rng.randint(1, 2)
        gens = [random_iet(rng, 5) for _ in range(k)]
        radius = rng.randint(1, 6)
        x = make_point(gens[0].source, 0, Fraction(rng.randint(0, 999), 1000))
        ball = orbit_ball(gens, x, radius)
        m = translation_amplitude_count(gens)
        assert len(ball) <= (2 * radius + 1) ** m
    print("criterion 11 PASS: |B_R.x| <= (2R+1)^M on 100 random instances, R <= 6")

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietlab import core
from ietlab import approx
from ietlab.approx import (
    FiniteQuotient,
    GridCapError,
    TraceRecorder,
    TraceVerificationError,
    common_grid,
    enumerate_finite_group,
    orbit_ball,
    permutation_group_order,
    pl_trace,
    rationalize,
    translation_amplitude_count,
)
from ietlab.core import (
    Domain,
    Iet,
    IetError,
    Point,
    SelfCheckError,
    from_lengths,
    interval_rotation,
    lengths_of,
    make_point,
    permutation_of,
)
from ietlab.field import FieldMismatchError, QuadNum, Rel, lp_rational_point
from ietlab.menagerie import build_example_group, default_lambda, symmetric_embedding
from ietlab.relations import CapExceededError, Word, commutator_word, free_reduce, lcm_up_to

from lp_oracle import lp_nearby_points
from randgen import random_iet, random_q_rational_iet, random_realizable_perm
from test_core import corrupt_trusted

R2 = QuadNum.sqrt(2)
ALPHA = R2 - 1


# -- orbit balls ------------------------------------------------------------------


def test_orbit_ball_rational_rotation():
    r = interval_rotation(Fraction(1, 3))
    ball = orbit_ball([r], make_point(r.source, 0, 0), 2)
    assert {p.x for p in ball} == {QuadNum(0), QuadNum(Fraction(1, 3)), QuadNum(Fraction(2, 3))}


def test_orbit_ball_identity():
    ident = Iet.identity(Domain.interval(1))
    x = make_point(ident.source, 0, Fraction(1, 7))
    assert orbit_ball([ident], x, 5) == {x}


def test_orbit_ball_irrational_rotation():
    r = interval_rotation(ALPHA)
    ball = orbit_ball([r], make_point(r.source, 0, 0), 4)
    assert len(ball) == 9  # n*alpha mod 1 for |n| <= 4


def test_orbit_ball_polynomial_bound():
    rng = random.Random(17)
    for _ in range(40):
        gens = [random_iet(rng, 4) for _ in range(rng.randint(1, 2))]
        radius = rng.randint(1, 5)
        x = make_point(gens[0].source, 0, Fraction(rng.randint(0, 99), 100))
        ball = orbit_ball(gens, x, radius)
        m = translation_amplitude_count(gens)
        assert len(ball) <= (2 * radius + 1) ** m


# -- the PL trace -----------------------------------------------------------------


def system_holds_at(system, values):
    for c in system.constraints:
        acc = QuadNum(c.const)
        for coef, v in zip(c.coeffs, values):
            acc = acc + QuadNum(coef) * v
        if c.relation is Rel.ZERO:
            if acc != 0:
                return False
        elif not acc > 0:
            return False
    return True


def test_pl_trace_single_rotation():
    g = interval_rotation(ALPHA)
    tr = pl_trace([g], 1)
    s = Word.gen(0)
    assert tr.word_pattern[s] is not None  # nontrivial, with a witness piece
    assert tr.word_pattern[s.inverse()] is not None
    assert system_holds_at(tr.system, tr.realized_point)
    # positivity of both unknown lengths is part of the system
    kinds = {(c.relation, c.coeffs) for c in tr.system.constraints}
    assert (Rel.POSITIVE, (Fraction(1), Fraction(0))) in kinds
    assert (Rel.POSITIVE, (Fraction(0), Fraction(1))) in kinds


def test_pl_trace_identity_generator():
    g = from_lengths((1,), [1])
    tr = pl_trace([g], 3)
    assert all(w is None for w in tr.word_pattern.values())


def test_pl_trace_commuting_rotations():
    g1 = interval_rotation(Fraction(1, 3))
    g2 = interval_rotation(Fraction(1, 5))
    tr = pl_trace([g1, g2], 4)
    com = commutator_word(Word.gen(0), Word.gen(1))
    assert tr.word_pattern[com] is None  # [s, t] trivial
    assert tr.word_pattern[Word.gen(0) * Word.gen(1)] is not None


def test_pl_trace_rejects_negative_radius():
    with pytest.raises(IetError, match="radius"):
        pl_trace([interval_rotation(ALPHA)], -1)
    with pytest.raises(IetError, match="radius"):
        rationalize([interval_rotation(ALPHA)], -1)


def test_pl_trace_word_cap_is_checked_before_tracing(monkeypatch):
    g1 = interval_rotation(ALPHA)
    g2 = from_lengths((3, 2, 1), [Fraction(1, 4), ALPHA / 4, Fraction(3, 4) - ALPHA / 4])
    for radius in (10, 12, 10 ** 9):  # radius 9 traces 39,364 words, radius 10 118,096
        with pytest.raises(CapExceededError, match="words"):
            pl_trace([g1, g2], radius)
        with pytest.raises(CapExceededError):
            rationalize([g1, g2], radius)
    monkeypatch.setattr(approx, "WORD_CAP", 160)  # 4 + 12 + 36 + 108 reduced words at radius 4
    pattern = pl_trace([g1, g2], 4).word_pattern
    assert len(pattern) == 160 and all(free_reduce(w) == w for w in pattern)
    assert pl_trace([g1, g2], 0).word_pattern == {}
    monkeypatch.setattr(approx, "WORD_CAP", 159)
    with pytest.raises(CapExceededError):
        pl_trace([g1, g2], 4)


def test_maps_off_the_unit_interval_are_rejected():
    dom = Domain.interval(2)
    swap = Iet(dom, dom, [(0, 0, 1, 0, 1), (0, 1, 1, 0, 0)])  # two swapped halves of [0, 2)
    for call in (common_grid, enumerate_finite_group, lambda gens: pl_trace(gens, 1)):
        with pytest.raises(IetError, match="unit interval"):
            call([swap])


def test_cell_permutation_equals_evaluating_each_cell():
    rng = random.Random(41)
    for _ in range(30):
        q = rng.randint(2, 24)
        g = random_q_rational_iet(rng, q)
        grid = q * rng.randint(1, 3)
        cells = [g(Point(0, QuadNum(Fraction(j, grid)))).x.a * grid for j in range(grid)]
        assert approx._cell_permutation(g, grid) == tuple(cells)
    with pytest.raises(IetError, match="grid cells"):
        approx._cell_permutation(interval_rotation(Fraction(1, 3)), 2)


def test_pl_trace_checked_mode_rejects_a_constraint_its_point_violates(monkeypatch):
    record = TraceRecorder.record

    def flipped(self, vec, rel):  # record every strict outcome the wrong way round
        record(self, tuple(-v for v in vec) if rel is Rel.POSITIVE else vec, rel)

    monkeypatch.setattr(TraceRecorder, "record", flipped)
    monkeypatch.setattr(core, "CHECKED", True)
    g = interval_rotation(ALPHA)
    with pytest.raises(TraceVerificationError):
        pl_trace([g], 1)
    monkeypatch.setattr(core, "CHECKED", False)
    assert not system_holds_at(pl_trace([g], 1).system, lengths_of(g))


def test_checked_mode_rejects_a_wrong_remembered_sign(monkeypatch):
    monkeypatch.setattr(core, "CHECKED", True)
    rec = TraceRecorder([Fraction(1, 3), Fraction(2, 3)])
    x, zero = rec.unknown(0), rec.coord(0)
    assert rec.cmp(x, zero) > 0  # decided, remembered and recorded
    assert len(rec._signs) == 1 and len(rec.constraints) == 1
    form = next(iter(rec._signs))
    rec._signs[form] = -rec._signs[form]  # corrupt the one memo entry
    with pytest.raises(SelfCheckError, match="sign"):
        rec.cmp(x, zero)
    monkeypatch.setattr(core, "CHECKED", False)
    assert not rec.cmp(x, zero) > 0  # unchecked, the memo is believed


def test_pl_trace_records_the_same_system_in_checked_mode(monkeypatch):
    rng = random.Random(12)
    for _ in range(4):
        gens = [random_iet(rng, 4) for _ in range(2)]
        monkeypatch.setattr(core, "CHECKED", True)
        checked = pl_trace(gens, 2)
        monkeypatch.setattr(core, "CHECKED", False)
        unchecked = pl_trace(gens, 2)
        assert checked.system == unchecked.system
        assert checked.word_pattern == unchecked.word_pattern


@pytest.mark.parametrize(
    "how, match",
    [(lambda ps: ps[::-1], "disagrees"), (lambda ps: ps[:-1], "not a partition")],
    ids=["unsorted", "gap"],
)
def test_checked_mode_guards_traced_products(monkeypatch, how, match):
    rng = random.Random(12)
    gens = [random_iet(rng, 4, 3) for _ in range(2)]
    corrupt_trusted(monkeypatch, how)
    with pytest.raises(SelfCheckError, match=match):
        pl_trace(gens, 2)


def test_pl_trace_rejects_generators_over_two_fields():
    g3 = interval_rotation(QuadNum.sqrt(3) - 1)
    with pytest.raises(FieldMismatchError):  # before tracing, at any radius
        pl_trace([interval_rotation(ALPHA), g3], 1)


def test_traced_maps_run_through_the_exact_kernel():
    # the traced generators are maps on the recorder's frame; reading their
    # QuadNum pieces (the benchmark's len(r.pieces) hook) decides nothing
    g = interval_rotation(ALPHA)
    h = from_lengths((3, 2, 1), [Fraction(1, 4), ALPHA / 4, Fraction(3, 4) - ALPHA / 4])
    rec = TraceRecorder(lengths_of(g) + lengths_of(h))
    tg, th = approx._tracked_generators([g, h], rec)
    assert tg.frame is rec and th.frame is rec
    product = th * ~tg
    before = list(rec.constraints)
    assert len(product.pieces) == len((h * ~g).pieces)
    assert [p.length for p in product.pieces] == [p.length for p in (h * ~g).pieces]
    assert rec.constraints == before
    with pytest.raises(TypeError):
        tg * g  # a traced map meets only maps of its own trace
    with pytest.raises(TypeError):
        g * tg


TRACK_CONSTANTS = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(QuadNum))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tracked_arithmetic_keeps_its_affine_form(data):
    # the recorder's forms add and subtract as tuples, and each evaluates to
    # its value at the realized point
    dim = data.draw(st.integers(1, 4))
    frac = st.fractions(min_value=0, max_value=1, max_denominator=12)
    parts = data.draw(st.lists(st.tuples(frac, frac), min_size=dim, max_size=dim))
    realized = [QuadNum(a, b, 2) for a, b in parts]
    rec = TraceRecorder(realized)
    pool = [rec.unknown(i) for i in range(dim)]
    zero = rec.coord(0)
    for _ in range(data.draw(st.integers(1, 12))):
        x = data.draw(st.sampled_from(pool))
        y = data.draw(st.sampled_from(pool) | TRACK_CONSTANTS.map(rec.coord))
        op = data.draw(st.sampled_from(["x+y", "y+x", "x-y", "y-x", "-x"]))
        z = {
            "x+y": rec.add(x, y),
            "y+x": rec.add(y, x),
            "x-y": rec.sub(x, y),
            "y-x": rec.sub(y, x),
            "-x": rec.sub(zero, x),
        }[op]
        assert isinstance(z, tuple) and len(z) == dim + 1
        pool.append(z)
        rec.cmp(x, z)  # comparisons record constraints that hold at the realized point
    for t in pool:
        form = QuadNum(t[-1])
        for c, v in zip(t, realized):
            form = form + v * c
        assert rec.value(t) == form
    assert system_holds_at(rec, realized)


def test_tracked_numbers_refuse_a_fractional_constant():
    rec = TraceRecorder([Fraction(1, 3), Fraction(2, 3)])
    for c in (Fraction(1, 2), QuadNum(Fraction(1, 2)), QuadNum.sqrt(2)):
        with pytest.raises(TypeError):
            rec.coord(c)
    assert rec.constraints == []
    x = rec.unknown(0)
    assert rec.add(x, rec.coord(QuadNum(2))) == (1, 0, 2)
    assert rec.sub(x, rec.coord(1)) == (1, 0, -1)


def test_pl_trace_soundness_at_sampled_solutions():
    g1 = interval_rotation(ALPHA)
    g2 = from_lengths((3, 2, 1), [Fraction(1, 4), ALPHA / 4, Fraction(3, 4) - ALPHA / 4])
    tr = pl_trace([g1, g2], 3)
    base = lp_rational_point(tr.system)
    assert base is not None
    sigmas = [permutation_of(g) for g in (g1, g2)]
    for pt in lp_nearby_points(tr.system, base, 10, seed=3):
        gens = []
        offset = 0
        for sigma in sigmas:
            gens.append(from_lengths(sigma, pt[offset : offset + len(sigma)]))
            offset += len(sigma)
        for word, witness in tr.word_pattern.items():
            assert (witness is None) == word.evaluate(gens).is_identity()


# -- rationalization ----------------------------------------------------------------


def test_rationalize_irrational_rotation():
    g = interval_rotation(ALPHA)  # lengths (2 - sqrt2, sqrt2 - 1)
    rats, quot = rationalize([g], 2)
    (g2,) = rats
    ls = lengths_of(g2)
    assert all(x.is_rational() for x in ls)
    # pattern {s, s^2 nontrivial} forces a rational rotation of order > 2
    assert not g2.is_identity() and not (g2 * g2).is_identity()
    assert quot.group_size is not None and quot.group_size > 2
    assert quot.grid >= 3


def test_rationalize_identity():
    g = from_lengths((1,), [1])
    rats, quot = rationalize([g], 2)
    assert rats[0].is_identity()
    assert quot.grid == 1 and quot.group_size == 1


def test_rationalize_fixes_rational_input():
    g = interval_rotation(Fraction(1, 2))
    rats, quot = rationalize([g], 3)
    assert rats[0] == g  # s^2 = id is traced as an equality, pinning 1/2
    assert quot.group_size == 2


def test_rationalize_mixed_pair_preserves_pattern():
    g1 = interval_rotation(ALPHA)
    g2 = from_lengths((3, 2, 1), [Fraction(1, 4), ALPHA / 4, Fraction(3, 4) - ALPHA / 4])
    rats, quot = rationalize([g1, g2], 3)
    tr = pl_trace([g1, g2], 3)
    for word, witness in tr.word_pattern.items():
        assert (witness is None) == word.evaluate(rats).is_identity()
    assert quot.group_size is not None and quot.group_size >= 1


# -- finite groups ------------------------------------------------------------------


def test_enumerate_cyclic():
    assert enumerate_finite_group([interval_rotation(Fraction(1, 3))]) == 3


def test_enumerate_symmetric_on_four_cells():
    r4 = interval_rotation(Fraction(1, 4))
    swap = from_lengths((2, 1, 3), [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    size = enumerate_finite_group([r4, swap])
    assert size == 24  # a 4-cycle and a transposition generate everything
    assert enumerate_finite_group([r4, swap], cap=24) == 24
    with pytest.raises(GridCapError, match="order 24"):  # orbits of 4 cells, order 24
        enumerate_finite_group([r4, swap], cap=23)


def test_enumerate_identity_and_errors():
    ident = from_lengths((1,), [1])
    assert enumerate_finite_group([ident]) == 1
    with pytest.raises(IetError):
        enumerate_finite_group([interval_rotation(ALPHA)])
    with pytest.raises(GridCapError, match="orbit has 97 cells"):
        enumerate_finite_group([interval_rotation(Fraction(1, 97))], cap=10)
    assert enumerate_finite_group([interval_rotation(Fraction(1, 97))], cap=97) == 97
    cycle = from_lengths((1, 3, 2), [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    with pytest.raises(GridCapError, match="orbit has 3 cells"):  # cell 0 is fixed
        enumerate_finite_group([cycle], cap=2)
    start = time.monotonic()  # the grid is refused before any of its cells is built
    with pytest.raises(GridCapError, match="grid"):
        enumerate_finite_group([interval_rotation(Fraction(1, 10 ** 9 + 7))], cap=10)
    assert time.monotonic() - start < 5


def test_common_grid():
    assert common_grid([interval_rotation(Fraction(1, 4))]) == 4
    assert (
        common_grid(
            [interval_rotation(Fraction(1, 4)), interval_rotation(Fraction(1, 6))]
        )
        == 12
    )


def test_q_rational_power_identity():
    rng = random.Random(23)
    for q in range(2, 7):
        for _ in range(5):
            h = random_q_rational_iet(rng, q)
            assert h.is_q_rational(q)
            assert (h ** lcm_up_to(q)).is_identity()


def bfs_order(perms):
    """Reference group order: list every element by breadth-first closure."""
    n = len(perms[0])
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for el in frontier:
            for p in perms:
                q = tuple(el[p[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def test_permutation_group_order_matches_bfs():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 8)  # n = 8 reaches the giant test
        perms = []
        for _ in range(rng.randint(1, 3)):
            p = list(range(n))
            rng.shuffle(p)
            perms.append(tuple(p))
        assert permutation_group_order(perms) == bfs_order(perms)
    for n in range(1, 6):
        perms = symmetric_embedding(build_example_group(default_lambda(n)), n).block_permutations
        assert permutation_group_order(perms) == bfs_order(perms) == math.factorial(n + 2)


def test_permutation_group_order_known_groups():
    assert permutation_group_order([]) == 1
    assert permutation_group_order([(1, 2, 3, 0), (1, 0, 2, 3)]) == 24
    assert permutation_group_order([tuple(range(10))]) == 1


@pytest.mark.parametrize(
    "perms",
    [[(1, 1, 0)], [(1, 2, 0, 0)], [(1, 0, 2), (1, 0)], [(0, 1, 2), (2, 0, 1, 3)]],
    ids=["repeat", "repeat-4", "mixed-lengths", "mixed-lengths-identity-first"],
)
def test_permutation_group_order_refuses_non_permutations(perms):
    with pytest.raises(IetError, match="not a permutation"):
        permutation_group_order(perms)


def random_giant_test_input(rng, n):
    """Generators of a random group on range(n): whole symmetric or
    alternating groups, block-preserving (imprimitive) groups, groups that
    fix a point, and small cyclic groups."""
    kind = rng.randrange(4)

    def shuffled(points):
        p = list(range(n))
        images = list(points)
        rng.shuffle(images)
        for x, y in zip(points, images):
            p[x] = y
        return tuple(p)

    if kind == 0:  # usually S_n or A_n; squares are even
        gens = [shuffled(range(n)) for _ in range(rng.randint(2, 3))]
        return [g if rng.randrange(2) else tuple(g[x] for x in g) for g in gens]
    if kind == 1:  # permutes the blocks {0, 1}, {2, 3}, ... (n even) or fixes n - 1
        half = n // 2
        blocks = list(range(half))
        gens = []
        for _ in range(rng.randint(1, 3)):
            rng.shuffle(blocks)
            flips = [rng.randrange(2) for _ in range(half)]
            p = list(range(n))
            for b in range(half):
                p[2 * b] = 2 * blocks[b] + flips[b]
                p[2 * b + 1] = 2 * blocks[b] + 1 - flips[b]
            gens.append(tuple(p))
        return gens
    if kind == 2:  # fixes the last point
        return [shuffled(range(n - 1)) for _ in range(rng.randint(1, 2))]
    shift = rng.randint(1, n - 1)
    return [tuple((x + shift) % n for x in range(n))]


def test_giant_test_agrees_with_the_chain(monkeypatch):
    rng = random.Random(7)
    real = approx._giant_order
    answered = []

    def giant(gens, n):
        order = real(gens, n)
        answered.append(order is not None)
        return order

    monkeypatch.setattr(core, "CHECKED", False)  # the chain runs once, below
    for _ in range(24):
        n = rng.randint(8, 40)
        perms = random_giant_test_input(rng, n)
        monkeypatch.setattr(approx, "_giant_order", giant)
        order = permutation_group_order(perms)
        monkeypatch.setattr(approx, "_giant_order", lambda gens, n: None)
        assert order == permutation_group_order(perms), n
    assert 6 <= sum(answered) < len(answered)  # both paths ran


def cycle_perm(n, *cycles):
    p = list(range(n))
    for c in cycles:
        for x, y in zip(c, c[1:] + c[:1]):
            p[x] = y
    return tuple(p)


def psl_2_8():
    """PSL(2, 8) = PGL(2, 8) on the 9 points of the projective line over
    GF(8) = GF(2)[t]/(t^3 + t + 1); the point 8 is infinity."""

    def gf_mul(a, b):
        r = 0
        for i in range(3):
            if b >> i & 1:
                r ^= a << i
        for i in (4, 3):
            if r >> i & 1:
                r ^= 0b1011 << (i - 3)
        return r

    inverse = {a: next(b for b in range(1, 8) if gf_mul(a, b) == 1) for a in range(1, 8)}
    shift = tuple(x ^ 1 if x < 8 else 8 for x in range(9))
    scale = tuple(gf_mul(2, x) if x < 8 else 8 for x in range(9))
    invert = tuple(8 if x == 0 else 0 if x == 8 else inverse[x] for x in range(9))
    return [shift, scale, invert]


def test_giant_test_falls_back_on_its_boundary_cases(monkeypatch):
    calls = []
    real = approx._chain_order

    def chain(gens, n):
        calls.append(n)
        return real(gens, n)

    monkeypatch.setattr(core, "CHECKED", False)
    monkeypatch.setattr(approx, "_chain_order", chain)
    # transitive with 7-cycles, but p = 7 = n - 2
    assert permutation_group_order(psl_2_8()) == 504
    # transitive with 7-cycles, but imprimitive: p = 7 = n / 2
    s7_wr_s2 = [
        cycle_perm(14, tuple(range(7))),
        cycle_perm(14, (0, 1)),
        cycle_perm(14, *((i, i + 7) for i in range(7))),
    ]
    assert permutation_group_order(s7_wr_s2) == 2 * math.factorial(7) ** 2
    # S_11 has 7-cycles (12/2 < 7 < 12 - 2) but fixes the point 11 of 12
    s11 = [cycle_perm(12, tuple(range(11))), cycle_perm(12, (0, 1))]
    assert permutation_group_order(s11) == math.factorial(11)
    assert calls == [9, 14, 12]
    # S_12 and A_12 need no chain
    s12 = [cycle_perm(12, tuple(range(12))), cycle_perm(12, (0, 1))]
    assert permutation_group_order(s12) == math.factorial(12)
    a12 = [cycle_perm(12, tuple(range(11))), cycle_perm(12, (9, 10, 11))]
    assert permutation_group_order(a12) == math.factorial(12) // 2
    assert calls == [9, 14, 12]


def test_giant_test_recognises_many_transpositions(monkeypatch):
    # the block transpositions (0, j) of example sym: n + 1 generators, so
    # the product-replacement state needs a warm-up that grows with it
    def chain(gens, n):
        raise AssertionError(f"the chain ran on {n} points")

    monkeypatch.setattr(core, "CHECKED", False)  # checked mode re-runs the chain
    monkeypatch.setattr(approx, "_chain_order", chain)
    for n in (39, 118, 160):
        points = n + 2
        perms = [cycle_perm(points, (0, j)) for j in range(1, points)]
        assert permutation_group_order(perms) == math.factorial(points), n


def test_checked_mode_catches_a_wrong_giant_answer(monkeypatch):
    s9 = [cycle_perm(9, tuple(range(9))), cycle_perm(9, (0, 1))]
    monkeypatch.setattr(approx, "_giant_order", lambda gens, n: math.factorial(n) // 2)
    monkeypatch.setattr(core, "CHECKED", False)
    assert permutation_group_order(s9) == math.factorial(9) // 2  # unchecked, it is believed
    monkeypatch.setattr(core, "CHECKED", True)
    with pytest.raises(SelfCheckError, match="chain disagrees"):
        permutation_group_order(s9)

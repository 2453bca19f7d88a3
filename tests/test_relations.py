import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietlab import core, relations
from ietlab.core import (
    CIRCLE,
    Component,
    Domain,
    Iet,
    IetError,
    SelfCheckError,
    Subdomain,
    circle_rotation,
    from_lengths,
    interval_rotation,
    lengths_of,
    make_point,
)
from ietlab.field import QuadNum
from ietlab.relations import (
    CapExceededError,
    _first_hits,
    ShrinkConfig,
    Word,
    commutator,
    commutator_word,
    drift_direction,
    drifted,
    free_reduce,
    is_admissible,
    lcm_up_to,
    relation_certificate,
    small_rotation_power,
    shrink_support,
    translation_response,
    vanishing_coordinate_certificate,
)

from randgen import random_iet, random_realizable_perm

R2 = QuadNum.sqrt(2)
ALPHA = R2 - 1
S_, T_ = Word.gen(0), Word.gen(1)


# -- words ---------------------------------------------------------------------


def test_free_reduce_cancellation():
    w = S_ * T_ * T_.inverse() * S_.inverse()
    assert free_reduce(w).letters == ()


def test_free_reduce_keeps_reduced_commutator():
    w = commutator_word(S_ ** 2, T_ * S_ ** 2 * T_.inverse())
    assert len(w) == 12
    assert free_reduce(w) == w


def test_free_reduce_nested_conjugate_commutator():
    u = commutator_word(commutator_word(T_, S_), S_)
    k = 2
    w = commutator_word(T_ ** k * u * T_ ** -k, u)
    r = free_reduce(w)
    assert r.letters != ()
    assert free_reduce(r) == r


def test_word_evaluate_and_format():
    r = interval_rotation(Fraction(1, 3))
    w = S_ ** 3
    assert w.evaluate([r]).is_identity()
    assert (S_ * T_.inverse()).format() == "s t^-1"
    assert Word().format() == "1"


def test_word_runs_never_merge_opposite_signs():
    w = Word(((0, 1), (0, 1), (0, -1), (1, 2), (1, 3)))
    assert w.letters == ((0, 2), (0, -1), (1, 5))
    assert len(w) == 8
    assert w.format() == "s^2 s^-1 t^5"
    assert free_reduce(w).letters == ((0, 1), (1, 5))
    with pytest.raises(IetError):
        Word(((0, 0),))


def test_huge_power_stays_small():
    e = lcm_up_to(20)
    w = commutator_word(S_ ** e, T_ * S_ ** e * T_.inverse())
    assert len(w) == 4 * e + 4
    assert len(w.letters) == 8
    assert free_reduce(w) == w
    assert (S_ ** 2 * T_ * S_) ** 3 == Word(((0, 2), (1, 1), (0, 3), (1, 1), (0, 3), (1, 1), (0, 1)))


# letter-by-letter oracles for run-length words; a letter is (generator, +-1)


def expand(w: Word) -> tuple:
    return tuple((g, 1 if e > 0 else -1) for g, e in w.letters for _ in range(abs(e)))


def letters_inverse(letters):
    return tuple((g, -e) for g, e in reversed(letters))


def letters_reduce(letters):
    stack = []
    for let in letters:
        if stack and stack[-1][0] == let[0] and stack[-1][1] == -let[1]:
            stack.pop()
        else:
            stack.append(let)
    return tuple(stack)


def letters_format(letters, names=("s", "t", "u", "v")):
    if not letters:
        return "1"
    out, i = [], 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        gen, e = letters[i]
        count = (j - i) * e
        out.append(names[gen] if count == 1 else f"{names[gen]}^{count}")
        i = j
    return " ".join(out)


def letters_evaluate(letters, gens):
    result = Iet.identity(gens[0].source)
    for i, e in letters:
        result = result * (gens[i] if e > 0 else ~gens[i])
    return result


WORD_GENS = [
    interval_rotation(Fraction(1, 3)),
    from_lengths((3, 2, 1), [Fraction(1, 4), ALPHA / 2, Fraction(3, 4) - ALPHA / 2]),
    from_lengths((2, 1), [Fraction(1, 5), Fraction(4, 5)]),
]

# chunks (generator, sign * size); neighbouring chunks of one letter make a
# longer run, so the same letters arrive in different groupings
CHUNKS = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from([1, -1]), st.integers(1, 4)).map(
        lambda c: (c[0], c[1] * c[2])
    ),
    max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(CHUNKS, st.integers(-3, 3))
def test_run_length_word_matches_letter_oracle(chunks, n):
    letters = tuple((g, 1 if e > 0 else -1) for g, e in chunks for _ in range(abs(e)))
    w = Word(tuple(chunks))
    assert expand(w) == letters
    assert Word(letters) == w and hash(Word(letters)) == hash(w)
    assert all(
        a[0] != b[0] or (a[1] > 0) != (b[1] > 0) for a, b in zip(w.letters, w.letters[1:])
    )  # runs are maximal
    assert len(w) == len(letters)
    assert w.format() == letters_format(letters)
    assert expand(w.inverse()) == letters_inverse(letters)
    assert expand(free_reduce(w)) == letters_reduce(letters)
    powered = letters * n if n >= 0 else letters_inverse(letters) * -n
    assert expand(w ** n) == powered
    assert w.evaluate(WORD_GENS) == letters_evaluate(letters, WORD_GENS)


# -- small powers of rotations ----------------------------------------------------


def brute_small_power(r, eps, cap=2000):
    """Oracle: iterate the map, measuring the move of every circle's basepoint
    and of a second sample point."""
    half = QuadNum.of(eps) / 2
    g = Iet.identity(r.source)
    for n in range(1, cap + 1):
        g = r * g
        ok = True
        for ci, comp in enumerate(r.source.components):
            for frac in (0, Fraction(1, 3)):
                x = make_point(r.source, ci, comp.length * Fraction(frac))
                y = g(x)
                assert y.comp == ci
                move = (y.x - x.x).mod(comp.length)
                dist = move if 2 * move <= comp.length else comp.length - move
                if dist > half:
                    ok = False
        if ok:
            return n
    raise RuntimeError("cap hit")


def test_small_rotation_power_identity():
    assert small_rotation_power(Iet.identity(Domain.circle(1)), Fraction(1, 100)) == 1


def test_small_rotation_power_sqrt2_minus_1():
    r = circle_rotation(1, ALPHA)
    n = brute_small_power(r, Fraction(1, 100))
    assert n == 169  # frozen from the brute-force oracle
    assert small_rotation_power(r, Fraction(1, 100)) == n


def test_small_rotation_power_fifth():
    r = circle_rotation(1, Fraction(1, 5))
    n = brute_small_power(r, Fraction(1, 2))
    assert n == 1  # moving by 1/5 <= 1/4 already
    assert small_rotation_power(r, Fraction(1, 2)) == n
    # an exact return to the identity shows up as movement zero
    assert small_rotation_power(r, Fraction(1, 1000)) == 5


def test_small_rotation_power_cap():
    with pytest.raises(CapExceededError):
        small_rotation_power(circle_rotation(1, ALPHA), Fraction(1, 100), cap=10)


def test_small_rotation_power_needs_a_multi_rotation():
    for h in (interval_rotation(Fraction(1, 3)), from_lengths((3, 2, 1), [Fraction(1, 3)] * 3)):
        with pytest.raises(IetError, match="not a multi-rotation"):
            small_rotation_power(h, Fraction(1, 100))


def scan_small_power(circles, eps, cap):
    """Oracle: scan n = 1..cap for the first n with (ang*n) mod length within
    eps/2 of 0 on every circle; None past the cap."""
    half = QuadNum.of(eps) / 2
    for n in range(1, cap + 1):
        ok = True
        for length, ang in circles:
            c = (ang * n).mod(length)
            if min(c, length - c) > half:
                ok = False
                break
        if ok:
            return n
    return None


def multi_rotation(circles) -> Iet:
    dom = Domain(tuple(Component(CIRCLE, f"C{i}", length) for i, (length, _) in enumerate(circles)))
    pieces = []
    for ci, (length, ang) in enumerate(circles):
        if ang == 0:
            pieces.append((ci, 0, length, ci, 0))
        else:
            pieces += [(ci, 0, length - ang, ci, ang), (ci, length - ang, ang, ci, 0)]
    return Iet(dom, dom, pieces)


# an angle is a fraction of its circle: rational, or in Q(sqrt 2) reduced mod 1
TURNS = st.one_of(
    st.builds(lambda p, q: QuadNum(Fraction(p % q, q)), st.integers(0, 60), st.integers(1, 40)),
    st.builds(
        lambda a, b: QuadNum(Fraction(a, 7), Fraction(b, 5), 2).mod(QuadNum(1)),
        st.integers(-30, 30),
        st.integers(1, 30) | st.integers(-30, -1),
    ),
)
CIRCLES = st.lists(
    st.tuples(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3)]), TURNS).map(
        lambda c: (QuadNum(c[0]), c[1] * c[0])
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(
    CIRCLES,
    st.sampled_from([Fraction(4), Fraction(1, 3), Fraction(1, 10), Fraction(1, 50), Fraction(1, 300)]),
    st.sampled_from([1, 3, 400, 3000, 3000]),
)
def test_small_rotation_power_matches_scan(circles, eps, cap):
    expected = scan_small_power(circles, eps, cap)
    r = multi_rotation(circles)
    if expected is None:
        with pytest.raises(CapExceededError):
            small_rotation_power(r, eps, cap)
    else:
        assert small_rotation_power(r, eps, cap) == expected


def window_returns(beta: QuadNum, delta: QuadNum):
    """Oracle: the three-gap walk in ``QuadNum``.  Every n >= 1 with
    ||n beta|| <= delta, in increasing order, for 0 < beta < 1 and
    0 < 2*delta < 1: y = {n beta + delta} returns to W = [0, 2 delta] by
    the shortest step of :func:`_first_hits` that keeps it in W."""
    w = 2 * delta
    plus, minus, period = _first_hits(beta, w)
    zero = QuadNum(0)
    steps = []  # (gap, shift, lo, hi): possible from y in [lo, hi]
    if plus:
        steps.append((plus[0], plus[1], zero, w - plus[1]))
    if minus:
        steps.append((minus[0], minus[1], -minus[1], w))
    if plus and minus:
        steps.append((plus[0] + minus[0], plus[1] + minus[1], zero, w))
    else:
        steps.append((period, zero, zero, w))
    steps.sort(key=lambda s: s[0])
    n, y = 0, delta
    while True:
        for gap, shift, lo, hi in steps:
            if lo <= y <= hi:
                break
        n += gap
        y += shift
        yield n


def near_zero(x: QuadNum, delta: QuadNum) -> bool:
    frac = x - x.floor()
    return frac <= delta or 1 - frac <= delta


def three_gap_power(circles, eps, cap) -> Optional[int]:
    """Oracle: the least n <= cap with ||n ang/length|| <= (eps/2)/length on
    every circle, walking the circle with the smallest bound by
    :func:`window_returns` and testing the others in ``QuadNum`` at each
    return; None past the cap."""
    half = QuadNum.of(eps) / 2
    moving = [(ang / length, half / length) for length, ang in circles if ang != 0]
    moving = [(beta, delta) for beta, delta in moving if 2 * delta < 1]
    if not moving:
        return 1 if cap >= 1 else None
    beta, delta = min(moving, key=lambda c: c[1])
    moving.remove((beta, delta))
    for n in window_returns(beta, delta):
        if n > cap:
            return None
        if all(near_zero(b * n, d) for b, d in moving):
            return n


def random_circles(rng: random.Random) -> list:
    """1-3 circles of lengths 1, 1/2 and 3, turned by a rational or a
    Q(sqrt 2) fraction of a turn."""
    out = []
    for _ in range(rng.randint(1, 3)):
        length = QuadNum(rng.choice([Fraction(1), Fraction(1, 2), Fraction(3)]))
        if rng.random() < 0.4:
            q = rng.randint(1, 20_000)
            turn = QuadNum(Fraction(rng.randrange(q), q))
        else:
            a, b = rng.randint(-300, 300), rng.choice([1, -1]) * rng.randint(1, 300)
            turn = QuadNum(Fraction(a, rng.randint(1, 97)), Fraction(b, rng.randint(1, 89)), 2)
            turn = turn.mod(QuadNum(1))
        out.append((length, turn * length))
    return out


def test_integer_walk_matches_the_quadnum_three_gap_walk():
    rng = random.Random("three-gap oracle")
    found = []
    for _ in range(150):
        circles = random_circles(rng)
        eps = rng.choice([Fraction(1, 10), Fraction(1, 50), Fraction(1, 100), Fraction(1, 400)])
        expected = three_gap_power(circles, eps, 200_000)
        r = multi_rotation(circles)
        if expected is None:
            with pytest.raises(CapExceededError):
                small_rotation_power(r, eps, 200_000)
        else:
            assert small_rotation_power(r, eps, 200_000) == expected
            found.append(expected)
    # the walk reaches far past the brute-force scan's cap of 3,000
    assert sum(n > 3000 for n in found) >= 20 and max(found) > 50_000


def test_small_rotation_power_on_window_edges():
    # rational turns p/q with bounds j/q: returns land exactly on the edges
    # of the driver's window and of the other circles' bounds
    for q in range(2, 13):
        for p in range(1, q):
            for j in range(1, (q + 1) // 2):
                eps = Fraction(2 * j, q)
                turn = QuadNum(Fraction(p, q))
                for circles in (
                    [(QuadNum(1), turn)],
                    [(QuadNum(1), ALPHA), (QuadNum(1), turn)],
                    [(QuadNum(1), QuadNum(Fraction(1, q))), (QuadNum(1), turn)],
                ):
                    expected = scan_small_power(circles, eps, 3000)
                    assert small_rotation_power(multi_rotation(circles), eps, 3000) == expected


def test_small_rotation_power_cap_edges():
    cases = [
        ([(QuadNum(1), ALPHA)], Fraction(1, 400)),
        ([(QuadNum(1), ALPHA), (QuadNum(3), 3 * (R2 - 1) / 5)], Fraction(1, 100)),
        ([(QuadNum(Fraction(1, 2)), QuadNum(Fraction(123, 794)))], Fraction(1, 400)),  # period 397
    ]
    for circles, eps in cases:
        r = multi_rotation(circles)
        n = small_rotation_power(r, eps)
        assert n > 100
        assert small_rotation_power(r, eps, cap=n) == n
        with pytest.raises(CapExceededError):
            small_rotation_power(r, eps, cap=n - 1)


def test_checked_mode_rejects_a_wrong_power(monkeypatch):
    r = circle_rotation(1, Fraction(1, 5))
    eps = Fraction(1, 1000)  # n = 5, 10, 15, ... move by zero
    monkeypatch.setattr(core, "CHECKED", True)
    for wrong, cap in ((6, 100), (10, 7)):  # off the bound; within it, past the cap
        monkeypatch.setattr(relations, "_common_return", lambda circles, cap, n=wrong: n)
        with pytest.raises(SelfCheckError):
            small_rotation_power(r, eps, cap)
    monkeypatch.setattr(core, "CHECKED", False)
    assert small_rotation_power(r, eps, 7) == 10  # only checked mode looks


def test_shrink_config_rejects_float_epsilon():
    with pytest.raises(TypeError):
        ShrinkConfig(0.01)


def test_small_rotation_power_rejects_non_multi_rotation():
    with pytest.raises(IetError):
        small_rotation_power(interval_rotation(ALPHA), Fraction(1, 10))


# -- support shrinking -------------------------------------------------------------


def circle_swap_first_quarters() -> Iet:
    """On the unit circle: swap [0, 1/4) and [1/4, 1/2), fix the rest."""
    dom = Domain.circle(1)
    q = Fraction(1, 4)
    return Iet(
        dom,
        dom,
        [(0, 0, q, 0, q), (0, q, q, 0, 0), (0, Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 2))],
    )


def test_shrink_support_continuous_s_gives_identity():
    r = circle_rotation(1, ALPHA)
    s = circle_rotation(1, Fraction(1, 7))
    n, u = shrink_support(r, s, ShrinkConfig(QuadNum(Fraction(1, 10))))
    assert u.is_identity()
    assert n >= 1


def test_shrink_support_swap_on_circle():
    r = circle_rotation(1, ALPHA)
    s = circle_swap_first_quarters()
    eps = QuadNum(Fraction(1, 100))
    n, u = shrink_support(r, s, ShrinkConfig(eps))
    assert not u.is_identity()
    marks = list(s.discontinuities()) + list((~s).discontinuities())
    # every support part sits within eps of some mark (circle distance)
    for ci, a, b in u.support().parts:
        length = s.source.components[ci].length
        good = False
        for p in marks:
            if p.comp != ci:
                continue
            for x in (a, b):
                diff = (x - p.x).mod(length)
                dist = diff if 2 * diff <= length else length - diff
                if dist <= eps:
                    good = True
        assert good
    assert len(set(marks)) <= 4


def test_shrink_support_part_count_bounded_by_marks():
    rng = random.Random(11)
    dom = Domain.circle(1)
    s3 = Iet(
        dom,
        dom,
        [
            (0, 0, Fraction(1, 8), 0, Fraction(3, 8)),
            (0, Fraction(1, 8), Fraction(1, 4), 0, 0),
            (0, Fraction(3, 8), Fraction(1, 8), 0, Fraction(1, 4)),
            (0, Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 2)),
        ],
    )
    assert s3.d() == 3
    r = circle_rotation(1, ALPHA)
    n, u = shrink_support(r, s3, ShrinkConfig(QuadNum(Fraction(1, 100))))
    nmarks = len(set(s3.discontinuities()) | set((~s3).discontinuities()))
    assert nmarks <= 6
    assert len(u.support().parts) <= 2 * nmarks


# -- drift -------------------------------------------------------------------------


def test_admissibility_examples():
    assert is_admissible((2, 1))
    assert not is_admissible((1, 3, 2))  # fixes 1
    assert is_admissible((3, 2, 1))


def test_drift_direction_swap():
    dd = drift_direction((2, 1))
    assert dd.dl == (Fraction(-1), Fraction(1))
    assert dd.dr == (Fraction(1), Fraction(1))


def test_drift_direction_reversal():
    dd = drift_direction((3, 2, 1))
    assert dd.dl == (Fraction(-2), Fraction(0), Fraction(2))
    assert dd.dr == (Fraction(2), Fraction(4), Fraction(2))
    assert dd.dr_min == 2 and dd.dr_max == 4


def test_drift_direction_non_admissible():
    assert drift_direction((1, 3, 2)) is None
    m, checked = vanishing_coordinate_certificate((1, 3, 2))
    assert m == 1 and checked


def test_drift_exhaustive_small():
    from itertools import permutations

    for n in range(1, 6):
        for p in permutations(range(1, n + 1)):
            dd = drift_direction(p)
            if is_admissible(p):
                assert dd is not None
                assert all(c >= 1 for c in dd.dr)
            else:
                assert dd is None
                m, checked = vanishing_coordinate_certificate(p)
                assert checked and p[m - 1] == m


def test_drifted():
    t0 = from_lengths((3, 2, 1), [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    dd = drift_direction((3, 2, 1))
    assert drifted(t0, 0, dd) == t0
    theta = Fraction(1, 100)
    t = drifted(t0, theta, dd)
    assert lengths_of(t) == (
        QuadNum(Fraction(1, 4) - Fraction(2, 100)),
        QuadNum(Fraction(1, 4)),
        QuadNum(Fraction(1, 2) + Fraction(2, 100)),
    )
    shifts = tuple((q.b - q.a) - (p.b - p.a) for p, q in zip(t0.pieces, t.pieces))
    assert shifts == (QuadNum(2 * theta), QuadNum(4 * theta), QuadNum(2 * theta))
    with pytest.raises(IetError):
        drifted(t0, Fraction(1, 4), dd)  # first length would hit 0


# -- relation certificates -----------------------------------------------------------


def test_relation_certificate_commuting_rotations():
    s = interval_rotation(Fraction(1, 2))
    cert = relation_certificate(s, s, 2, k_cap=4)
    assert cert is not None
    assert cert.k == 0 and cert.exponent == 2
    assert cert.u.is_identity()
    assert free_reduce(cert.word).letters != ()
    assert cert.word.evaluate([s, s]).is_identity()


def test_relation_certificate_half_swap_with_drifted_reversal():
    # S = the half swap exactly; T = reversal drifted by theta = 1/64
    s = from_lengths((2, 1), [Fraction(1, 2), Fraction(1, 2)])
    t0 = from_lengths((3, 2, 1), [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    t = drifted(t0, Fraction(1, 64), drift_direction((3, 2, 1)))
    cert = relation_certificate(s, t, 2, k_cap=8)
    assert cert is not None
    assert cert.word.evaluate([s, t]).is_identity()
    assert free_reduce(cert.word).letters != ()
    assert cert.u.is_identity()  # S^2 = id makes u collapse


def test_relation_certificate_with_genuine_conjugate_search():
    # S perturbs the 4-rational quarter swap, T drifts the reversal: the
    # commutator is not the identity and a conjugating power is needed
    delta = (R2 - 1) / 2 ** 11
    theta = QuadNum(Fraction(1, 2 ** 9))
    s = from_lengths((2, 1, 3), [Fraction(1, 4) + delta, Fraction(1, 4) - delta, Fraction(1, 2)])
    t0 = from_lengths((3, 2, 1), [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    t = drifted(t0, theta, drift_direction((3, 2, 1)))
    cert = relation_certificate(s, t, 4, k_cap=16)
    assert cert is not None
    assert cert.k >= 1
    assert not cert.u.is_identity()
    assert cert.supp_u == cert.u.support()
    tk = t ** cert.k
    assert (tk * cert.u * ~tk).support().intersection(cert.supp_u).is_empty()
    assert cert.word.evaluate([s, t]).is_identity()
    assert free_reduce(cert.word).letters != ()
    assert cert.exponent == 12 and cert.epsilon == Fraction(1, 800)


def test_relation_certificate_soft_failure():
    s = interval_rotation(ALPHA)
    t = from_lengths((3, 2, 1), [ALPHA / 2, Fraction(1, 3), 1 - ALPHA / 2 - Fraction(1, 3)])
    cert = relation_certificate(s, t, 2, k_cap=3)
    if cert is not None:  # the contract allows either; any answer must verify
        assert cert.word.evaluate([s, t]).is_identity()
    else:
        assert cert is None


# -- commutators of near-translations: exact behaviour checks ------------------------


def translation_amplitude_on(h: Iet, comp: int, start, end) -> Optional[QuadNum]:
    """If h maps [start, end) of a component into the same component by one
    translation, its amount; None otherwise."""
    start, end = QuadNum.of(start), QuadNum.of(end)
    for p in h.pieces:
        if p.src == comp and p.a <= start and end <= p.a + p.length:
            if p.dst != comp:
                return None
            return p.b - p.a
    return None


def shrink(sub: Subdomain, eps) -> Subdomain:
    """Points whose closed eps-ball stays inside, part by part (a full
    circle stays full; partial parts lose eps at either end)."""
    eps = QuadNum.of(eps)
    out = []
    for ci, s, e in sub.parts:
        comp = sub.domain.components[ci]
        if comp.kind == CIRCLE and s == 0 and e == comp.length:
            out.append((ci, s, e))
            continue
        lo, hi = s + eps, e - eps
        if lo < hi:
            out.append((ci, lo, hi))
    return Subdomain.make(sub.domain, out)


def test_commutator_of_shared_translations_is_identity_inside():
    # g, h translate each component of E by a small amount; [g, h] = id on
    # the eps-shrunk interior of E
    a = (R2 - 1) / 32
    b = (R2 - 1) / 64
    dom = Domain.interval(1)
    half = Fraction(1, 2)
    g = Iet(dom, dom, [(0, 0, half - a, 0, a), (0, half - a, a, 0, 0), (0, half, half, 0, half)])
    three_q = Fraction(3, 4)
    h = Iet(dom, dom, [(0, 0, three_q - b, 0, b), (0, three_q - b, b, 0, 0), (0, three_q, 1 - three_q, 0, three_q)])
    assert g * h != h * g
    e_sub = Subdomain.make(dom, [(0, 0, half - a)])
    eps = a  # both amplitudes lie in [-eps, eps] on E
    c = commutator(g, h)
    for ci, s0, e0 in shrink(e_sub, eps).parts:
        assert translation_amplitude_on(c, ci, s0, e0) == 0


def test_commutator_of_block_translations_is_small_translation():
    # g translates E; h translates E and g(E) by different small amounts;
    # [g, h] is a translation of amplitude at most 2 eps on the 2eps-interior
    b = (R2 - 1) / 64
    c_amp = (R2 - 1) / 128
    q = Fraction(1, 4)
    dom = Domain.interval(1)
    g = Iet(
        dom,
        dom,
        [
            (0, 0, q, 0, Fraction(1, 2)),
            (0, q, q, 0, q),
            (0, Fraction(1, 2), q, 0, 0),
            (0, Fraction(3, 4), q, 0, Fraction(3, 4)),
        ],
    )
    half = Fraction(1, 2)
    h = Iet(
        dom,
        dom,
        [
            (0, 0, half - b, 0, b),
            (0, half - b, b, 0, 0),
            (0, half, half - c_amp, 0, half + c_amp),
            (0, 1 - c_amp, c_amp, 0, half),
        ],
    )
    eps = b
    com = commutator(g, h)
    e_sub = Subdomain.make(dom, [(0, 0, q)])
    for ci, s0, e0 in shrink(e_sub, 2 * eps).parts:
        amp = translation_amplitude_on(com, ci, s0, e0)
        assert amp is not None
        assert abs(amp) <= 2 * eps
    # and the amplitude is the difference of the two h-amplitudes
    mid = make_point(dom, 0, Fraction(1, 8))
    assert com(mid).x - mid.x == b - c_amp


def test_lcm_up_to():
    assert lcm_up_to(2) == 2
    assert lcm_up_to(4) == 12
    assert lcm_up_to(6) == 60
    s = from_lengths((2, 1, 3), [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    assert s.is_q_rational(4)
    assert (s ** lcm_up_to(4)).is_identity()


def test_translation_response_is_linear():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 6)
        sigma = random_realizable_perm(rng, n)
        u = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        v = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        lhs = translation_response(sigma, [a + b for a, b in zip(u, v)])
        rhs = tuple(a + b for a, b in zip(translation_response(sigma, u), translation_response(sigma, v)))
        assert lhs == rhs

import bisect
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ietlab.field import (
    ConstraintSystem,
    FieldMismatchError,
    Frame,
    LinConstraint,
    LiteralError,
    QuadNum,
    Rel,
    _sign,
    box_key,
    format_number,
    lp_rational_point,
    order_key,
    parse_number,
)

import literal_oracle
import lp_oracle
from randgen import sqrt_convergents


def interval_sign(a: Fraction, b: Fraction, d: int, bits: int = 128) -> int:
    """Oracle: sign of a + b*sqrt(d) by interval arithmetic, refining as needed."""
    if b == 0:
        return -1 if a < 0 else (1 if a > 0 else 0)
    while True:
        s = math.isqrt(d << (2 * bits))
        lo, hi = Fraction(s, 1 << bits), Fraction(s + 1, 1 << bits)
        if b > 0:
            vlo, vhi = a + b * lo, a + b * hi
        else:
            vlo, vhi = a + b * hi, a + b * lo
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        bits *= 2  # straddles zero at this precision; a+b*sqrt(d) != 0 for non-square d


def test_quad_sign_examples():
    assert QuadNum(0, 0).sign() == 0
    assert QuadNum(-1, 1, 2).sign() == 1  # sqrt(2) > 1
    assert QuadNum(3, -2, 2).sign() == 1  # 9 > 8


def test_quad_sign_against_interval_oracle():
    rng = random.Random(20240211)
    for _ in range(1000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        d = rng.choice([2, 3, 5, 7])
        x = QuadNum(a, b, d)
        y = QuadNum(
            Fraction(rng.randint(-50, 50), rng.randint(1, 40)),
            Fraction(rng.randint(-50, 50), rng.randint(1, 40)),
            d,
        )
        diff = x - y
        assert diff.sign() == interval_sign(diff.a, diff.b, d)


def test_arithmetic_and_order():
    r2 = QuadNum.sqrt(2)
    assert r2 * r2 == 2
    x = QuadNum(1, 1, 2)  # 1 + sqrt(2)
    assert (x * (1 - r2)) == -1  # (1+sqrt2)(1-sqrt2) = -1
    assert (1 / x) == r2 - 1
    assert QuadNum(Fraction(1, 3)) < QuadNum(Fraction(1, 2))
    assert r2 - 1 > 0
    assert 1 - r2 < 0
    assert abs(1 - r2) == r2 - 1


def test_field_mixing_is_an_error():
    r2, r3 = QuadNum.sqrt(2), QuadNum(1, Fraction(1, 3), 3)
    for op in (
        operator.add,
        operator.sub,
        operator.mul,
        operator.truediv,
        operator.lt,
        operator.le,
        operator.gt,
        operator.ge,
    ):
        with pytest.raises(FieldMismatchError):
            op(r2, r3)
        with pytest.raises(FieldMismatchError):
            op(r3, r2)
    # sqrt(2) and sqrt(3) share p, q and den, yet differ: == is False, not an error
    assert (r2 == QuadNum.sqrt(3), r2 != QuadNum.sqrt(3)) == (False, True)
    # rationals interoperate with every field
    assert QuadNum(1) + QuadNum.sqrt(2) == QuadNum(1, 1, 2)


def test_rational_values_hash_and_compare_across_fields():
    assert QuadNum(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(QuadNum(Fraction(1, 2))) == hash(Fraction(1, 2))
    z = QuadNum.sqrt(2) - QuadNum.sqrt(2)
    assert z.d == 0 and z == 0


def test_floats_are_rejected():
    # a float would enter as its binary value, 0.01 as 5764607523034235/2**59
    with pytest.raises(TypeError):
        QuadNum(0.01)
    with pytest.raises(TypeError):
        QuadNum(1, 0.5, 2)
    with pytest.raises(TypeError):
        QuadNum.of(0.25)
    with pytest.raises(TypeError):
        QuadNum(1) < 0.5


@pytest.mark.parametrize("other", [0.5, "1", None], ids=["float", "str", "None"])
def test_foreign_operands_are_type_errors(other):
    for x in (QuadNum(1), QuadNum(1, 1, 2)):
        for op in (operator.add, operator.sub, operator.lt, operator.ge):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
        assert x != other and not x == other


def test_floor_and_mod():
    r2 = QuadNum.sqrt(2)
    assert r2.floor() == 1
    assert (-r2).floor() == -2
    assert (3 * r2).floor() == 4
    assert QuadNum(Fraction(7, 2)).floor() == 3
    assert QuadNum(Fraction(-7, 2)).floor() == -4
    x = 3 * r2  # 4.2426...
    m = x.mod(QuadNum(1))
    assert 0 <= m.sign() and (m - 1).sign() < 0
    assert m == 3 * r2 - 4
    rng = random.Random(7)
    for _ in range(200):
        v = QuadNum(
            Fraction(rng.randint(-400, 400), rng.randint(1, 30)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 30)),
            2,
        )
        n = v.floor()
        assert (v - n).sign() >= 0 and (v - (n + 1)).sign() < 0


def test_literal_round_trip():
    cases = [
        QuadNum(Fraction(1, 2)),
        QuadNum(Fraction(-3, 4), Fraction(1, 2), 2),
        QuadNum(0, Fraction(-5, 7), 3),
        QuadNum(7),
    ]
    for x in cases:
        assert parse_number(format_number(x), x.d or None) == x


def test_literal_forms():
    assert parse_number("3") == 3
    assert parse_number("-4/6") == Fraction(-2, 3)
    assert parse_number("1/2+1/4*sqrt(2)", 2) == QuadNum(Fraction(1, 2), Fraction(1, 4), 2)
    assert parse_number("1/2-1/4*sqrt(2)") == QuadNum(Fraction(1, 2), Fraction(-1, 4), 2)
    assert parse_number("-1/2*sqrt(5)") == QuadNum(0, Fraction(-1, 2), 5)
    with pytest.raises(LiteralError):
        parse_number("1/2 + 1/4*sqrt(2)")  # embedded whitespace
    with pytest.raises(LiteralError):
        parse_number("sqrt(2)")
    with pytest.raises(LiteralError):
        parse_number("1/2+1/4*sqrt(4)")  # square radicand
    with pytest.raises(LiteralError):
        parse_number("1/2+1/4*sqrt(3)", d=2)  # wrong field


def gt(coeffs, const):
    return LinConstraint(tuple(coeffs), const, Rel.POSITIVE)


def eq(coeffs, const):
    return LinConstraint(tuple(coeffs), const, Rel.ZERO)


def test_lp_forced_equality():
    sys = ConstraintSystem(1, (eq([1], Fraction(-1, 2)),))
    assert lp_rational_point(sys) == (Fraction(1, 2),)


def test_lp_strict_chain():
    # x1 > 0, x1 < 1, 2 x1 - x2 = 0, x2 > 1
    sys = ConstraintSystem(
        2,
        (
            gt([1, 0], 0),
            gt([-1, 0], 1),
            eq([2, -1], 0),
            gt([0, 1], -1),
        ),
    )
    pt = lp_rational_point(sys)
    assert pt is not None
    assert sys.satisfied_by(pt)


def test_lp_contradiction():
    sys = ConstraintSystem(1, (gt([1], 0), gt([-1], 0)))
    assert lp_rational_point(sys) is None


def test_lp_inconsistent_equalities():
    sys = ConstraintSystem(2, (eq([1, 1], 0), eq([1, 1], -1)))
    assert lp_rational_point(sys) is None


def test_lp_zero_row_handling():
    sys = ConstraintSystem(1, (gt([0], 1), eq([1], -2)))
    assert lp_rational_point(sys) == (Fraction(2),)
    sys = ConstraintSystem(1, (gt([0], 0), eq([1], -2)))
    assert lp_rational_point(sys) is None


def test_lp_succeeds_when_strictly_satisfiable_at_quadratic_point():
    # systems built to hold strictly at a known quadratic witness must be solvable
    rng = random.Random(99)
    r2 = QuadNum.sqrt(2)
    for trial in range(50):
        nvars = rng.randint(1, 4)
        witness = [
            QuadNum(Fraction(rng.randint(-9, 9), 10)) + r2 * Fraction(rng.randint(-9, 9), 20)
            for _ in range(nvars)
        ]
        constraints = []
        for _ in range(rng.randint(1, 8)):
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(nvars)]
            val = sum((QuadNum(c) * w for c, w in zip(coeffs, witness)), QuadNum(0))
            s = val.sign()
            if s > 0:
                constraints.append(gt(coeffs, 0))
            elif s < 0:
                constraints.append(gt([-c for c in coeffs], 0))
            else:
                constraints.append(eq(coeffs, 0))
        sys = ConstraintSystem(nvars, tuple(constraints))
        pt = lp_rational_point(sys)
        assert pt is not None, f"trial {trial}: solvable system reported infeasible"
        assert sys.satisfied_by(pt)


def test_lp_solution_substitutes_exactly():
    rng = random.Random(5)
    for _ in range(30):
        nvars = rng.randint(1, 5)
        cs = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(nvars)]
            const = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            cs.append(gt(coeffs, const) if rng.random() < 0.7 else eq(coeffs, const))
        sys = ConstraintSystem(nvars, tuple(cs))
        pt = lp_rational_point(sys)
        if pt is not None:
            assert sys.satisfied_by(pt)  # zero tolerance by construction


# -- property tests against a (Fraction, Fraction) oracle ------------------------------
#
# The oracle holds a + b*sqrt(d) as two Fractions and shares no code with the
# integer representation.

FRACS = st.fractions(min_value=-60, max_value=60, max_denominator=80)
FIELDS = st.sampled_from([2, 3, 5, 7, 10])
PROPS = settings(max_examples=200, deadline=None)


def o_sign(a: Fraction, b: Fraction, d: int) -> int:
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    return sa if a * a > b * b * d else sb


def o_mul(x, y, d):
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def o_div(x, y, d):
    norm = y[0] * y[0] - y[1] * y[1] * d
    return o_mul(x, (y[0] / norm, -y[1] / norm), d)


def o_floor(a: Fraction, b: Fraction, d: int) -> int:
    r = Fraction(math.isqrt(d << 64), 1 << 32)  # sqrt(d) to 2**-32
    n = math.floor(a + b * r)
    while o_sign(a - (n + 1), b, d) >= 0:
        n += 1
    while o_sign(a - n, b, d) < 0:
        n -= 1
    return n


def pair(x: QuadNum) -> tuple[Fraction, Fraction]:
    return (x.a, x.b)


def assert_normalized(x: QuadNum) -> None:
    assert x.den > 0
    assert math.gcd(x.p, x.q, x.den) == 1
    assert (x.q == 0) == (x.d == 0)
    assert QuadNum(x.a, x.b, x.d) == x  # the .a/.b round trip


@PROPS
@given(FRACS, FRACS, FRACS, FRACS, FIELDS)
def test_arithmetic_matches_oracle(a1, b1, a2, b2, d):
    x, y = QuadNum(a1, b1, d), QuadNum(a2, b2, d)
    assert pair(x) == (a1, b1) and x.d == (d if b1 else 0)
    assert pair(x + y) == (a1 + a2, b1 + b2)
    assert pair(x - y) == (a1 - a2, b1 - b2)
    assert pair(-x) == (-a1, -b1)
    assert pair(x * y) == o_mul((a1, b1), (a2, b2), d)
    results = [x + y, x - y, x * y, -x, abs(x)]
    if a2 or b2:
        assert pair(x / y) == o_div((a1, b1), (a2, b2), d)
        results.append(x / y)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for r in results:
        assert_normalized(r)


@PROPS
@given(FRACS, FRACS, FRACS, FIELDS)
def test_mixed_operands_match_oracle(a1, b1, f, d):
    x = QuadNum(a1, b1, d)
    k = math.floor(f)
    assert pair(x + f) == pair(f + x) == (a1 + f, b1)
    assert pair(x - k) == (a1 - k, b1)
    assert pair(f - x) == (f - a1, -b1)
    assert pair(x * f) == pair(f * x) == (a1 * f, b1 * f)
    if f:
        assert pair(x / f) == (a1 / f, b1 / f)
    if a1 or b1:
        assert pair(f / x) == o_div((f, Fraction(0)), (a1, b1), d)


@PROPS
@given(FRACS, FRACS, FRACS, FRACS, FIELDS)
def test_order_matches_oracle(a1, b1, a2, b2, d):
    x, y = QuadNum(a1, b1, d), QuadNum(a2, b2, d)
    assert x.sign() == o_sign(a1, b1, d)
    s = o_sign(a1 - a2, b1 - b2, d)
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (x == y) == (s == 0) == ((a1, b1) == (a2, b2))
    assert (x != y) == (s != 0)
    assert (x < a2) == (o_sign(a1 - a2, b1, d) < 0)
    assert (a2 < x) == (o_sign(a1 - a2, b1, d) > 0)


CMP = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


def signs_compare(s: int) -> tuple[bool, ...]:
    """What the six comparisons of a value with sign s against 0 give."""
    return tuple(op(s, 0) for op in CMP)


NUMERATORS = st.integers(-300, 300)


@PROPS
@given(NUMERATORS, NUMERATORS, NUMERATORS, NUMERATORS, st.sampled_from([1, 2, 3, 7, 97]), FIELDS)
def test_shared_denominator_operands_match_oracle(p1, q1, p2, q2, den, d):
    a1, b1, a2, b2 = (Fraction(v, den) for v in (p1, q1, p2, q2))
    x, y = QuadNum(a1, b1, d), QuadNum(a2, b2, d)
    assume(x.den == y.den)
    assert pair(x + y) == (a1 + a2, b1 + b2)
    assert pair(x - y) == (a1 - a2, b1 - b2)
    assert pair(y - x) == (a2 - a1, b2 - b1)
    for r in (x + y, x - y, y - x):
        assert_normalized(r)
    s = o_sign(a1 - a2, b1 - b2, d)
    assert tuple(op(x, y) for op in CMP) == signs_compare(s)
    assert tuple(op(y, x) for op in CMP) == signs_compare(-s)


@PROPS
@given(FRACS, FRACS, st.integers(-60, 60), FIELDS)
def test_int_operands_match_oracle(a1, b1, k, d):
    x = QuadNum(a1, b1, d)
    s = o_sign(a1 - k, b1, d)
    assert tuple(op(x, k) for op in CMP) == signs_compare(s)
    assert tuple(op(k, x) for op in CMP) == signs_compare(-s)
    for r, want in (
        (x + k, (a1 + k, b1)),
        (k + x, (a1 + k, b1)),
        (x - k, (a1 - k, b1)),
        (k - x, (k - a1, -b1)),
        (abs(x), (a1, b1) if o_sign(a1, b1, d) >= 0 else (-a1, -b1)),
    ):
        assert pair(r) == want
        assert_normalized(r)


@PROPS
@given(FRACS, FRACS, FRACS, FRACS, FIELDS)
def test_floor_and_mod_match_oracle(a1, b1, a2, b2, d):
    x = QuadNum(a1, b1, d)
    assert x.floor() == o_floor(a1, b1, d)
    length = QuadNum(a2, b2, d)
    assume(length > 0)
    r = x.mod(length)
    assert o_sign(r.a, r.b, d) >= 0 and o_sign(r.a - a2, r.b - b2, d) < 0
    n = o_floor(*o_div((a1, b1), (a2, b2), d), d)
    assert pair(r) == (a1 - n * a2, b1 - n * b2)


@PROPS
@given(FRACS, FIELDS)
def test_rationals_hash_and_compare_like_fractions(f, d):
    x = QuadNum(f)
    assert x == f and f == x and hash(x) == hash(f)
    assert {f: 1}[x] == 1
    k = math.floor(f)
    assert QuadNum(k) == k and hash(QuadNum(k)) == hash(k)
    # a rational reached through the field drops back to d = 0
    y = QuadNum(f, 1, d) - QuadNum.sqrt(d)
    assert y.d == 0 and y == x and hash(y) == hash(f)


# -- the LP against the Fraction oracle ------------------------------------------------
#
# lp_oracle is the Fraction LP the package used before its rows became
# integers; both pivot by Bland's rule on exact values, so the points agree
# bit for bit.

LP_COEFS = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6)
)


@st.composite
def lp_systems(draw):
    """Small systems; those drawn around a rational witness are feasible."""
    n = draw(st.integers(0, 4))
    witness = draw(st.none() | st.lists(LP_COEFS, min_size=n, max_size=n))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        coeffs = draw(st.lists(LP_COEFS, min_size=n, max_size=n))
        rel = draw(st.sampled_from(Rel))
        if witness is None:
            const = draw(LP_COEFS)
        else:
            slack = draw(LP_COEFS.filter(lambda v: v > 0)) if rel is Rel.POSITIVE else 0
            const = slack - sum((c * w for c, w in zip(coeffs, witness)), Fraction(0))
        rows.append(LinConstraint(tuple(coeffs), const, rel))
    return witness, ConstraintSystem(n, tuple(rows))


@settings(max_examples=300, deadline=None)
@given(lp_systems())
def test_lp_matches_fraction_oracle(drawn):
    witness, system = drawn
    pt = lp_rational_point(system)
    assert pt == lp_oracle.lp_rational_point(system)
    if witness is not None:
        assert pt is not None
    if pt is not None:
        assert system.satisfied_by(pt)


# -- the integer frame ------------------------------------------------------------------

FRAME_VALUES = st.lists(FRACS.map(QuadNum), min_size=1, max_size=6) | st.lists(
    st.builds(QuadNum, FRACS, FRACS, st.just(2)), min_size=1, max_size=6
)


@PROPS
@given(FRAME_VALUES)
def test_frame_pairs_are_exact(values):
    frame = Frame(values)
    assert frame.d == (2 if any(v.q for v in values) else 0)
    for x in values:
        px = frame.coord(x)
        assert frame.value(px) == x
        assert _sign(*px, frame.d) == x.sign()
        assert frame.sign(px) == x.sign()
        for y in values:
            py = frame.coord(y)
            assert frame.coord(x + y) == (px[0] + py[0], px[1] + py[1]) == frame.add(px, py)
            assert frame.coord(x - y) == (px[0] - py[0], px[1] - py[1]) == frame.sub(px, py)
            assert frame.cmp(px, py) == (x > y) - (x < y)


@PROPS
@given(FRAME_VALUES, FRAME_VALUES)
def test_frames_join_and_lift(xs, ys):
    f, g = Frame(xs), Frame(ys)
    joined = f.join(g)
    assert joined.den == math.lcm(f.den, g.den) and joined.d == max(f.d, g.d)
    same = Frame(xs)
    assert f.join(f) is f and same.join(f) is same  # no new frame when the two agree
    for frame, values in ((f, xs), (g, ys)):
        pieces = [(0, frame.coord(x), frame.coord(x), 1, frame.coord(x)) for x in values]
        for (_, a, n, _, b), x in zip(joined.lift(pieces, frame), values):
            assert a == n == b == joined.coord(x)
            assert joined.value(a) == x


def test_frame_fields():
    assert Frame([QuadNum(Fraction(1, 3)), QuadNum(2)]).d == 0
    assert Frame([QuadNum(1), QuadNum(Fraction(1, 2), 1, 5)]).d == 5
    with pytest.raises(FieldMismatchError):
        Frame([QuadNum.sqrt(2), QuadNum(1), QuadNum.sqrt(3)])


# -- the order key -------------------------------------------------------------


def test_sqrt_convergents_are_near_ties():
    assert sqrt_convergents(2, 100) == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70)]
    assert all(abs(p * p - 13 * q * q) <= 4 * 13 for p, q in sqrt_convergents(13, 10 ** 30))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 13, 991)), st.integers(1, 96), st.data())
def test_order_key_orders_the_box_as_the_sign(d, bits, data):
    K, r = order_key(d, bits)
    assert order_key(0, bits) == (1, 0)
    edge = 2 ** bits - 1
    coord = st.integers(-edge, edge) | st.sampled_from((edge, -edge, edge - 1, 1 - edge, 0))
    base = (data.draw(coord), data.draw(coord))
    # around base: base itself, a near-tie either way for every convergent
    # that fits the box, the box's corners and a few pairs anywhere in it
    near = [base]
    for p, q in sqrt_convergents(d, 2 ** bits):
        near += [(base[0] + p, base[1] - q), (base[0] - p, base[1] + q)]
    near += [(x, y) for x in (edge, -edge) for y in (edge, -edge)]
    near += data.draw(st.lists(st.tuples(coord, coord), max_size=8))
    box = [y for y in near if abs(y[0]) <= edge and abs(y[1]) <= edge]
    kx = base[0] * K + base[1] * r
    keys, signs = [], []
    for y in box:
        ky = y[0] * K + y[1] * r
        sign = _sign(y[0] - base[0], y[1] - base[1], d)
        assert (ky > kx) - (ky < kx) == sign
        keys.append(ky)
        signs.append(sign)
    # both bisect modes: the keys below base's, and those not above it
    keys.sort()
    assert bisect.bisect_left(keys, kx) == signs.count(-1)
    assert bisect.bisect_right(keys, kx) == signs.count(-1) + signs.count(0)


BIG = st.integers(-(10**12), 10**12)
PAIRS = st.lists(st.tuples(BIG, BIG), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((0, 2, 3, 13)), PAIRS, st.integers(1, 9), st.data())
def test_box_key_holds_every_sum_of_reach_coordinates(d, coords, reach, data):
    bits, K, r = box_key(d, coords, reach)
    assert (K, r) == order_key(d, bits)
    top = max((abs(v) for c in coords for v in c), default=0)
    # the least box: reach times the largest coordinate, and no more
    assert reach * top < 2**bits and (not top or 2 ** (bits - 1) <= reach * top)
    if coords:
        signed = st.tuples(st.sampled_from(coords), st.sampled_from((1, -1)))
        terms = data.draw(st.lists(signed, min_size=1, max_size=reach))
        P, Q = (sum(s * c[i] for c, s in terms) for i in (0, 1))
        assert abs(P) < 2**bits and abs(Q) < 2**bits


# -- the literal codec against its Fraction oracle ------------------------------


def padded(numbers, zeros: int):
    """Decimal strings of the numbers, with up to ``zeros`` leading zeros."""
    return st.builds(lambda z, n: "0" * z + str(n), st.integers(0, zeros), numbers)


SIGNS = st.sampled_from(["", "+", "-"])
DIGITS = padded(st.integers(0, 3) | st.integers(0, 10**15), 2)  # zero, small and large
DENOMINATORS = st.just("") | DIGITS.map("/".__add__)
RATS = st.builds(lambda s, n, den: s + n + den, SIGNS, DIGITS, DENOMINATORS)
# zero, one, squares and non-squares
RADICANDS = padded(
    st.sampled_from([2, 3, 5, 7])
    | st.integers(0, 12)
    | st.sampled_from([16, 49, 10**6, 10**6 + 1]),
    1,
)
ROOTS = st.builds(lambda r, rad: f"{r}*sqrt({rad})", RATS, RADICANDS)
LITERALS = st.one_of(
    RATS,
    ROOTS,
    st.builds(lambda a, s, r: a + s + r, RATS, SIGNS, ROOTS),  # a missing sign is a near-literal
    # near-literals: spaces, underscores, a trailing newline, non-ASCII digits
    st.text(alphabet="0123456789+-/*sqrt() _\n\u0661\u0662\u0663", max_size=24),
    st.builds("{}\n".format, RATS),
)


@settings(max_examples=1000, deadline=None)
@given(LITERALS, st.none() | st.sampled_from([2, 3, 5, 7]))
def test_parse_number_matches_the_fraction_oracle(text, d):
    try:
        expected = literal_oracle.parse_literal(text, d)
    except (ValueError, ZeroDivisionError):
        expected = None
    try:
        x = parse_number(text, d)
    except LiteralError:
        assert expected is None
        return
    assert (x.p, x.q, x.den, x.d) == expected


@pytest.mark.parametrize(
    "text", ["\u0661/\u0662", "1/2\n", "1_0/3", "1/2+1/2*sqrt(1_0)", "\uff11/2", " 1/2"]
)
def test_literals_take_ascii_digits_and_the_whole_text(text):
    with pytest.raises(LiteralError, match="bad number literal"):
        parse_number(text)


@pytest.mark.parametrize("text", ["1/0", "0/0+1/1*sqrt(2)", "1/1+1/0*sqrt(2)", "-3/00*sqrt(5)"])
def test_zero_denominators_are_literal_errors(text):
    with pytest.raises(LiteralError, match="zero denominator"):
        parse_number(text)


@PROPS
@given(NUMERATORS, NUMERATORS, st.integers(1, 10**6), FIELDS)
def test_format_number_matches_the_fraction_oracle(p, q, den, d):
    x = QuadNum(Fraction(p, den), Fraction(q, den), d)
    text = format_number(x)
    assert text == literal_oracle.format_literal(x.p, x.q, x.den, x.d)
    assert parse_number(text) == x
    assert format_number(Fraction(p, den)) == literal_oracle.format_literal(p, 0, den, 0)

"""Shared random-instance generators for the test suite (seeded, exact),
one fixed hard instance, and the near-ties of a square root."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from ietlab.core import CIRCLE, Component, Domain, Iet, from_lengths, perm_is_realizable
from ietlab.field import QuadNum


def random_realizable_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        p = list(range(1, n + 1))
        rng.shuffle(p)
        if perm_is_realizable(p) and (n == 1 or p != list(range(1, n + 1))):
            return tuple(p)


def random_quad_lengths(rng: random.Random, n: int) -> list[QuadNum]:
    """n positive values in Q(sqrt 2) summing exactly to 1."""
    raw = [
        QuadNum(Fraction(rng.randint(40, 120), 1), Fraction(rng.randint(-20, 20), 50), 2)
        for _ in range(n)
    ]
    total = QuadNum(0)
    for x in raw:
        total = total + x
    lengths = [x / total for x in raw]
    assert all(x.sign() > 0 for x in lengths)
    return lengths


def random_rational_lengths(rng: random.Random, n: int, q: int) -> list[QuadNum]:
    """n positive multiples of 1/q summing exactly to 1 (needs n <= q)."""
    assert n <= q
    cuts = sorted(rng.sample(range(1, q), n - 1)) if n > 1 else []
    marks = [0] + cuts + [q]
    return [QuadNum(Fraction(marks[i + 1] - marks[i], q)) for i in range(n)]


def random_iet(rng: random.Random, nmax: int = 8, nmin: int = 2) -> Iet:
    n = rng.randint(nmin, nmax)
    return from_lengths(random_realizable_perm(rng, n), random_quad_lengths(rng, n))


def random_q_rational_iet(rng: random.Random, q: int) -> Iet:
    n = rng.randint(2, min(q, 6))
    return from_lengths(random_realizable_perm(rng, n), random_rational_lengths(rng, n, q))


def random_domain(rnd) -> Domain:
    """One to three circles and intervals of total length 1."""
    k = rnd.randint(1, 3)
    lengths = random_quad_lengths(rnd, k)
    kinds = [rnd.choice((CIRCLE, "interval")) for _ in range(k)]
    return Domain(tuple(Component(kinds[i], f"M{i}", lengths[i]) for i in range(k)))


def cut_and_place(target: Domain) -> Iet:
    """[0, 1) laid out along the components of a domain of total length 1."""
    pieces = []
    acc = QuadNum(0)
    for i, c in enumerate(target.components):
        pieces.append((0, acc, c.length, i, 0))
        acc = acc + c.length
    return Iet(Domain.interval(1), target, pieces)


def long_connection_map() -> Iet:
    """sigma = (4, 3, 2, 1) on lengths in Q(sqrt 2) whose boundary connection
    is 2,469 steps long: the forward orbit of the first jump of h^-1 meets a
    jump of h after exactly 2,469 steps and no other jump before.  Its growth
    rate is 0, yet its depth-64 model has d(h_m^n) = 3n up to n = 2,048."""
    r2 = QuadNum.sqrt(2)
    lengths = [
        Fraction(1305, 5012) - Fraction(87037, 3946950) * r2,
        Fraction(1201, 5012) + Fraction(109591, 3946950) * r2,
        Fraction(1, 4) + Fraction(1, 90) * r2,
        Fraction(1, 4) - Fraction(53, 3150) * r2,
    ]
    return from_lengths((4, 3, 2, 1), lengths)


def sqrt_convergents(d: int, limit: int) -> list[tuple[int, int]]:
    """The convergents p/q of sqrt(d) with q < limit, from its continued
    fraction on integers: p - q sqrt(d) comes nearer to 0 than any pair
    with a smaller q."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    (p0, q0), (p1, q1) = (1, 0), (a0, 1)
    out = []
    while q1 < limit:
        out.append((p1, q1))
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
    return out

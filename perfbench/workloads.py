"""Seeded inputs, certificate jobs and correctness checks of the three workloads.

Inputs are made in two steps.  ``*_specs`` draw plain data (permutations
and exact lengths as ``Fraction`` pairs) from a ``random.Random`` seeded by
the workload name and the seed, with generators of the benchmark's own, so
no edit to the package or its tests can shift them.  ``*_build`` then
canonicalizes each spec into ``Iet`` maps through the package; the package
receives only these maps, never the seed.

The cost of a job swings by up to 10x with a few properties of its input,
so those properties are fixed by the item's position in a cycle of strata
and every seed runs the same mix; the seed draws everything else:

* ``growth`` (cycle 7): piece count 2..8.  Permutations are irreducible,
  which pins the growth rate, and with it the cost, near n - 1.
* ``quotient`` (cycle 6): the pair of piece counts, over {2, 3, 4}^2 with
  at most 6 pieces in all.  Larger pairs reach grids of 20-35 cells whose
  group orders take up to seconds, so one draw would swing a run by 10%.
* ``relations`` (cycle 20): blocks of four items, a support-shrinking job
  on one circle, two on two circles, and a relation certificate whose q
  runs over 3..7 from block to block (s has 3 pieces).  The rotation
  angles come from a fixed catalogue, because the power n the float scan
  must reach is set by the angles alone and ranges over four decades.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

# -- generators ------------------------------------------------------------------

SQRT = 2  # every irrational length lives in Q(sqrt 2)


def realizable(p) -> bool:
    """No two adjacent intervals land adjacently (the pieces would merge)."""
    return all(p[i + 1] != p[i] + 1 for i in range(len(p) - 1))


def admissible(p) -> bool:
    """No m with p(m) = m and {1..m-1} invariant (the map can be drifted)."""
    return not any(
        p[m - 1] == m and set(p[: m - 1]) == set(range(1, m)) for m in range(1, len(p) + 1)
    )


def irreducible(p) -> bool:
    """No proper prefix {1..k} is invariant (the map does not split)."""
    return all(set(p[:k]) != set(range(1, k + 1)) for k in range(1, len(p)))


def random_perm(rng: random.Random, n: int, need=realizable) -> tuple[int, ...]:
    """Uniform among the realizable non-identity permutations passing ``need``."""
    while True:
        p = list(range(1, n + 1))
        rng.shuffle(p)
        if realizable(p) and p != sorted(p) and need(p):
            return tuple(p)


def quad_lengths(rng: random.Random, n: int) -> list[tuple[Fraction, Fraction]]:
    """n positive numbers a + b*sqrt(2), as (a, b), summing exactly to 1."""
    raw = [(Fraction(rng.randint(40, 120)), Fraction(rng.randint(-20, 20), 50)) for _ in range(n)]
    big_a = sum(a for a, _ in raw)
    big_b = sum(b for _, b in raw)
    norm = big_a * big_a - SQRT * big_b * big_b  # (a + b r) / (A + B r), r = sqrt 2
    return [((a * big_a - SQRT * b * big_b) / norm, (b * big_a - a * big_b) / norm) for a, b in raw]


def rational_lengths(rng: random.Random, n: int, q: int) -> list[Fraction]:
    """n positive multiples of 1/q summing to 1 (n <= q)."""
    cuts = sorted(rng.sample(range(1, q), n - 1))
    marks = [0] + cuts + [q]
    return [Fraction(marks[i + 1] - marks[i], q) for i in range(n)]


def drift_vector(p) -> list[int]:
    """Sum of e_j - e_i over inverted pairs i < j: a zero-sum length change
    that moves every translation of an admissible map forward."""
    dl = [0] * len(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                dl[i] -= 1
                dl[j] += 1
    return dl


def quad_map_spec(rng: random.Random, n: int, need=realizable) -> tuple:
    return ("quad", random_perm(rng, n, need), quad_lengths(rng, n))


# -- canonicalization ------------------------------------------------------------


def build_map(ns, spec):
    kind, sigma, lengths = spec
    if kind == "quad":
        lengths = [ns.field.QuadNum(a, b, SQRT) for a, b in lengths]
    return ns.core.from_lengths(sigma, lengths)


# -- growth --------------------------------------------------------------------------


def growth_specs(rng: random.Random, count: int) -> list:
    return [quad_map_spec(rng, 2 + i % 7, irreducible) for i in range(count)]


def growth_job(ns, h):
    """Certified minimal model, written and read back as ``--out-model`` does."""
    cert = ns.suspension.minimal_model(h, depth=64, n_check=20)
    model = ns.textio.parse_iet(ns.textio.serialize_iet(cert.h_m))
    conj = ns.textio.parse_iet(ns.textio.serialize_iet(cert.conjugator))
    return cert.norm, model, conj


def growth_check(ns, h, result) -> Optional[str]:
    norm, model, conj = result
    if conj * h * ~conj != model:
        return "re-parsed conjugator does not carry h onto the model"
    if not isinstance(norm, int) or norm < 0:
        return f"norm {norm!r} is not a non-negative integer"
    if model.d() != norm:
        return f"model has {model.d()} jumps, certificate says {norm}"
    _, upper = ns.suspension.norm_bounds(h, 8)
    if norm > upper:
        return f"norm {norm} above the subadditive upper bound {upper}"
    return None


# -- quotient ------------------------------------------------------------------------


QUOTIENT_PIECES = [(n1, n2) for n1 in (2, 3, 4) for n2 in (2, 3, 4) if n1 + n2 <= 6]


def quotient_specs(rng: random.Random, count: int) -> list:
    out = []
    for i in range(count):
        pieces = QUOTIENT_PIECES[i % len(QUOTIENT_PIECES)]
        out.append(tuple(quad_map_spec(rng, n, irreducible) for n in pieces))
    return out


def quotient_build(ns, spec):
    return [build_map(ns, m) for m in spec]


def quotient_job(ns, gens):
    return ns.approx.rationalize(gens, radius=2)


def quotient_check(ns, gens, result) -> Optional[str]:
    rats, quot = result
    if len(rats) != len(gens) or len(quot.generators) != len(gens):
        return "wrong number of rational generators"
    for g in rats:
        if not all(x.is_rational() for x in ns.core.lengths_of(g)):
            return "a rational generator has an irrational length"
    for perm in quot.generators:
        if sorted(perm) != list(range(quot.grid)):
            return f"cell permutation is not a bijection of {quot.grid} cells"
    size = quot.group_size
    if not isinstance(size, int) or size < 1 or math.factorial(quot.grid) % size:
        return f"group order {size!r} does not divide {quot.grid}!"
    return None


# -- relations -----------------------------------------------------------------------

EPSILON = Fraction(1, 100)  # support-shrinking radius, as in criterion 6
THETA = Fraction(1, 256)  # drift of the relation-certificate partner map


def angle_catalogue() -> tuple[list, list]:
    """Five one-circle angles and ten two-circle angle pairs, drawn once
    from a constant seed: the same for every run."""
    rng = random.Random("relations:angles")
    one = [[quad_lengths(rng, 2)[0]] for _ in range(5)]
    two = [[quad_lengths(rng, 2)[0], quad_lengths(rng, 2)[0]] for _ in range(10)]
    return one, two


def relations_specs(rng: random.Random, count: int) -> list:
    one, two = angle_catalogue()
    out = []
    for i in range(count):
        block, pos = divmod(i, 4)
        if pos < 3:
            angles = one[block % 5] if pos == 0 else two[(2 * block + pos - 1) % 10]
            inner = [quad_map_spec(rng, rng.randint(2, 5)) for _ in angles]
            swap = len(angles) == 2 and rng.random() < 0.5
            out.append(("shrink", angles, inner, swap))
        else:
            q = 3 + block % 5
            s = ("rational", random_perm(rng, 3), rational_lengths(rng, 3, q))
            sigma = random_perm(rng, 4, admissible)
            cuts = sorted(rng.sample(range(2, 15, 2), 3))  # sixteenths, each >= 2/16
            base = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], 16 - cuts[2]]
            t = (
                "rational",
                sigma,
                [Fraction(c, 16) + THETA * d for c, d in zip(base, drift_vector(sigma))],
            )
            out.append(("relation", q, s, t))
    return out


def relations_build(ns, spec):
    if spec[0] == "relation":
        _, q, s, t = spec
        return ("relation", q, build_map(ns, s), build_map(ns, t))
    _, angles, inner, swap = spec
    core, quad = ns.core, ns.field.QuadNum
    dom = core.Domain(
        tuple(core.Component(core.CIRCLE, f"C{i}", quad(1)) for i in range(len(angles)))
    )
    r_pieces, s_pieces = [], []
    for ci, (a, b) in enumerate(angles):
        ang = quad(a, b, SQRT)
        r_pieces += [(ci, 0, 1 - ang, ci, ang), (ci, 1 - ang, ang, ci, 0)]
        for p in build_map(ns, inner[ci]).pieces:
            s_pieces.append((ci, p.a, p.length, ci, p.b))
    r = core.Iet(dom, dom, r_pieces)
    s = core.Iet(dom, dom, s_pieces)
    if swap:
        s = core.Iet(dom, dom, [(0, 0, 1, 1, 0), (1, 0, 1, 0, 0)]) * s
    return ("shrink", r, s, ns.relations.ShrinkConfig(ns.field.QuadNum(EPSILON)))


def relations_job(ns, item):
    if item[0] == "relation":
        _, q, s, t = item
        return ns.relations.relation_certificate(s, t, q)
    _, r, s, cfg = item
    return ns.relations.shrink_support(r, s, cfg)


def relations_check(ns, item, result) -> Optional[str]:
    if item[0] == "relation":
        return _check_relation(ns, item, result)
    return _check_shrink(ns, item, result)


def _check_shrink(ns, item, result) -> Optional[str]:
    """Criterion-6 spot check: every end of every support part of U lies
    within epsilon of a jump of S or S^-1."""
    _, _, s, cfg = item
    n, u = result
    if n < 1:
        return f"power n = {n} < 1"
    eps = cfg.epsilon
    marks = set(s.discontinuities()) | set((~s).discontinuities())
    for ci, a, b in u.support().parts:
        length = s.source.components[ci].length
        near = False
        for p in marks:
            if p.comp != ci:
                continue
            for x in (a, b):
                d = (x - p.x).mod(length)
                if min(d, length - d) <= eps:
                    near = True
        if not near:
            return f"support part ({a}, {b}) on circle {ci} is far from every jump"
    return None


CHECK_POINTS = [Fraction(2 * j + 1, 16) for j in range(8)]


def _check_relation(ns, item, result) -> Optional[str]:
    """The word is nonempty after free reduction, and applying it letter by
    letter (rightmost first) fixes 8 points.  Each (generator, exponent)
    entry is applied |exponent| times, so runs and single letters both work."""
    _, _, s, t = item
    if result is None:
        return "no certificate found"
    word = result.word
    if not ns.relations.free_reduce(word).letters:
        return "relator freely reduces to the empty word"
    gens = [s, t]
    inverses = [~s, ~t]
    for x0 in CHECK_POINTS:
        pt = ns.core.make_point(s.source, 0, x0)
        for i, e in reversed(word.letters):
            for _ in range(abs(e)):
                pt = (gens[i] if e > 0 else inverses[i])(pt)
        if pt != ns.core.make_point(s.source, 0, x0):
            return f"the word moves the point {x0}"
    return None


# -- registry ------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    specs: Callable[[random.Random, int], list]
    build: Callable[[Any, Any], Any]
    job: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], Optional[str]]
    cycle: int  # items per cycle of strata; timed loops stop at whole cycles
    items: int  # inputs generated per run; the timed loop wraps around past the end
    traced: int  # leading items replayed by the traced run (whole cycles)


WORKLOADS = {
    "growth": Workload("growth", growth_specs, build_map, growth_job, growth_check, 7, 280, 14),
    "quotient": Workload(
        "quotient", quotient_specs, quotient_build, quotient_job, quotient_check, 6, 270, 12
    ),
    "relations": Workload(
        "relations", relations_specs, relations_build, relations_job, relations_check, 20, 240, 20
    ),
}

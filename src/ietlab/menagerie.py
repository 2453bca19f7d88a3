"""Executable showcase constructions.

``example_2_3`` is the three-piece map of [0, 1) whose restriction to
[0, l) rolls up into a rotation by tau (an irrational circle exactly when
tau / l is irrational).

``build_example_group`` realizes a two-generator group acting on a circle
of perimeter 2 glued with a detached unit interval: r rotates the circle by
an irrational amount and fixes the interval, s swaps the interval with the
first half of the circle.  Words in r and s produce, for every n, an
involution sigma exchanging two tiny blocks, whose r-conjugates generate
the full symmetric group on n + 2 blocks; r and s r s generate a free
semigroup.  Both claims are verified here exactly: the group order by
:func:`ietlab.approx.permutation_group_order` (the giant test, else a
stabilizer chain), the free semigroup by enumerating words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ietlab.approx import WORD_CAP, permutation_group_order
from ietlab.core import (
    CIRCLE,
    INTERVAL,
    Component,
    Domain,
    Iet,
    IetError,
    Subdomain,
)
from ietlab.field import QuadNum
from ietlab.relations import CapExceededError, Word, free_reduce
from ietlab.rotations import is_multi_rotation


class ConstructionError(IetError):
    """An exactly-verifiable claim of a construction failed (a bug)."""


def example_2_3(l, tau) -> Iet:
    """Three-piece map of [0, 1): translate by tau below l - tau, wrap on
    [l - tau, l), fix [l, 1)."""
    l, tau = QuadNum.of(l), QuadNum.of(tau)
    if not (0 < tau and tau < l and l < 1):
        raise IetError("need 0 < tau < l < 1")
    dom = Domain.interval(1)
    return Iet(
        dom,
        dom,
        [(0, 0, l - tau, 0, tau), (0, l - tau, tau, 0, 0), (0, l, 1 - l, 0, l)],
    )


@dataclass(frozen=True)
class ExampleGroup:
    """Circle of perimeter 2 (component 0) plus a detached unit interval
    (component 1); r rotates the circle by lam, s swaps the interval with
    the first half of the circle."""

    domain: Domain
    r: Iet
    s: Iet
    lam: QuadNum

    CIRCLE_INDEX = 0
    INTERVAL_INDEX = 1


def build_example_group(lam) -> ExampleGroup:
    lam = QuadNum.of(lam)
    if lam.is_rational():
        raise IetError("the rotation amount must be irrational")
    if not (0 < lam and lam < 1):
        raise IetError("the rotation amount must lie in (0, 1)")
    dom = Domain.of(Component(CIRCLE, "C", QuadNum(2)), Component(INTERVAL, "J", QuadNum(1)))
    r = Iet(
        dom,
        dom,
        [(0, 0, 2 - lam, 0, lam), (0, 2 - lam, lam, 0, 0), (1, 0, 1, 1, 0)],
    )
    s = Iet(dom, dom, [(0, 0, 1, 1, 0), (0, 1, 1, 0, 1), (1, 0, 1, 0, 0)])
    if s * s != Iet.identity(dom):
        raise ConstructionError("s is not an involution")  # pragma: no cover
    if not is_multi_rotation(r):
        raise ConstructionError("r is not a multi-rotation")  # pragma: no cover
    return ExampleGroup(domain=dom, r=r, s=s, lam=lam)


def default_lambda(n: int) -> QuadNum:
    """(sqrt(2) - 1) / 2^k with the least k giving lam < 1/(10 n)."""
    lam = QuadNum.sqrt(2) - 1
    bound = QuadNum(Fraction(1, 10 * max(1, n)))
    while not lam < bound:
        lam = lam / 2
    return lam


R_WORD, S_WORD = Word.gen(0), Word.gen(1)


@dataclass(frozen=True)
class SigmaConstruction:
    """The block-exchange involution and every intermediate element, each
    paired with its defining word in r (generator 0) and s (generator 1)."""

    group: ExampleGroup
    r_prime: Iet  # s r s: the rotation of the swapped-in circle
    r_double_prime: Iet  # r^-1 r' r
    t: Iet  # r'^-1 r''
    t_prime: Iet  # r^2 t r^-2
    t_double_prime: Iet  # r'^-1 t' r'
    sigma: Iet
    words: dict[str, Word]
    block_e: Subdomain  # [1 - 2 lam, 1) in the interval
    block_f: Subdomain  # [1, 1 + 2 lam) on the circle


def sigma_involution(g: ExampleGroup) -> SigmaConstruction:
    """Build sigma = t' t'' and verify, exactly: sigma^2 = id, sigma swaps
    the blocks E and F, and sigma moves nothing else."""
    if not g.lam < Fraction(1, 10):
        raise IetError("construction needs lam < 1/10")
    r, s = g.r, g.s
    r_prime = s * r * s
    r_dp = ~r * r_prime * r
    t = ~r_prime * r_dp
    t_prime = (r ** 2) * t * (r ** -2)
    t_dp = ~r_prime * t_prime * r_prime
    sigma = t_prime * t_dp

    w_rp = S_WORD * R_WORD * S_WORD
    w_rdp = R_WORD.inverse() * w_rp * R_WORD
    w_t = w_rp.inverse() * w_rdp
    w_tp = R_WORD ** 2 * w_t * R_WORD ** -2
    w_tdp = w_rp.inverse() * w_tp * w_rp
    w_sigma = w_tp * w_tdp
    words = {
        "r_prime": w_rp,
        "r_double_prime": w_rdp,
        "t": w_t,
        "t_prime": w_tp,
        "t_double_prime": w_tdp,
        "sigma": free_reduce(w_sigma),
    }

    lam = g.lam
    dom = g.domain
    block_e = Subdomain.make(dom, [(g.INTERVAL_INDEX, 1 - 2 * lam, QuadNum(1))])
    block_f = Subdomain.make(dom, [(g.CIRCLE_INDEX, QuadNum(1), 1 + 2 * lam)])
    if sigma * sigma != Iet.identity(dom):
        raise ConstructionError("sigma is not an involution")
    if sigma.support() != block_e.union(block_f):
        raise ConstructionError("sigma moves more than the two blocks")
    if sigma.image_of(block_e) != block_f or sigma.image_of(block_f) != block_e:
        raise ConstructionError("sigma does not exchange the blocks")
    return SigmaConstruction(
        group=g,
        r_prime=r_prime,
        r_double_prime=r_dp,
        t=t,
        t_prime=t_prime,
        t_double_prime=t_dp,
        sigma=sigma,
        words=words,
        block_e=block_e,
        block_f=block_f,
    )


@dataclass(frozen=True)
class SymmetricEmbedding:
    """Conjugates of sigma realizing the full symmetric group on the blocks
    E, F, r^2 F, ..., r^(2n) F."""

    group: ExampleGroup
    generators: tuple[Iet, ...]
    words: tuple[Word, ...]
    blocks: tuple[Subdomain, ...]
    block_permutations: tuple[tuple[int, ...], ...]
    order: int


# the giant test's state holds n + 1 permutations of the n + 2 blocks: with
# checks off, n = 1,000 takes about 0.6 s and 67 MB, n = 2,000 1.7 s and
# 191 MB (2 vCPU, CPython 3.11)
SYM_N_CAP = 1000


def symmetric_embedding(g: ExampleGroup, n: int) -> SymmetricEmbedding:
    """sigma and its conjugates r^2j sigma r^-2j for j <= n, acting on n + 2
    pairwise disjoint blocks; verified to realize order (n + 2)! exactly.
    Raises :class:`CapExceededError`, before any product, for n above
    ``SYM_N_CAP``."""
    if n < 1:
        raise IetError("n must be >= 1")
    if n > SYM_N_CAP:
        raise CapExceededError(f"n {n} is above the cap {SYM_N_CAP}")
    if not g.lam < Fraction(1, 10 * n):
        raise IetError("blocks overlap: lam must be below 1/(10 n)")
    sc = sigma_involution(g)
    lam, dom = g.lam, g.domain
    blocks = [sc.block_e]
    for j in range(n + 1):
        lo = 1 + 2 * j * lam
        blocks.append(Subdomain.make(dom, [(g.CIRCLE_INDEX, lo, lo + 2 * lam)]))
    # half-open blocks are pairwise disjoint iff their measures add up
    union = Subdomain.make(dom, [part for b in blocks for part in b.parts])
    if union.measure() != sum(b.measure() for b in blocks):
        raise IetError("blocks overlap: lam must be below 1/(10 n)")
    gens = []
    words = []
    perms = []
    nblocks = n + 2
    for j in range(n + 1):
        conj = g.r ** (2 * j)
        gen = conj * sc.sigma * ~conj
        word = R_WORD ** (2 * j) * sc.words["sigma"] * R_WORD ** (-2 * j)
        if gen.support() != blocks[0].union(blocks[j + 1]):
            raise ConstructionError("a conjugate moved outside its two blocks")
        if gen.image_of(blocks[0]) != blocks[j + 1] or gen.image_of(blocks[j + 1]) != blocks[0]:
            raise ConstructionError("a conjugate failed to swap its two blocks")
        perm = list(range(nblocks))
        perm[0], perm[j + 1] = j + 1, 0
        gens.append(gen)
        words.append(free_reduce(word))
        perms.append(tuple(perm))
    order = permutation_group_order(perms)
    if order != math.factorial(nblocks):
        raise ConstructionError("block action is not the full symmetric group")  # pragma: no cover
    return SymmetricEmbedding(
        group=g,
        generators=tuple(gens),
        words=tuple(words),
        blocks=tuple(blocks),
        block_permutations=tuple(perms),
        order=order,
    )


def free_semigroup_check(g: ExampleGroup, depth: int) -> bool:
    """Evaluate every nonempty positive word of length <= depth in r and
    r' = s r s; True when all are pairwise distinct and the base point of
    the swapped interval is fixed exactly by the powers of r'.

    Raises :class:`CapExceededError`, before evaluating anything, when the
    2^(depth+1) - 2 words exceed ``WORD_CAP`` (depth 15 is the largest).
    """
    if depth < 1:
        raise IetError("depth must be >= 1")
    if depth > WORD_CAP or 2 ** (depth + 1) - 2 > WORD_CAP:  # no huge power for a huge depth
        raise CapExceededError(f"depth {depth} evaluates more than {WORD_CAP} words")
    r = g.r
    r_prime = g.s * r * g.s
    ci = g.CIRCLE_INDEX
    ident = Iet.identity(g.domain)
    # every word map lives on a frame this one joins: equal maps have equal
    # integer pieces on it, and seen keeps those, not the maps
    frame = ident.frame.join(r.frame).join(r_prime.frame)
    seen: set[tuple] = set()
    # each word of the last layer as (whether it is a power of r' alone, its map)
    frontier: list[tuple[bool, Iet]] = [(True, ident)]
    for layer in range(depth, 0, -1):
        nxt = []
        for only_rprime, cur in frontier:
            for is_rprime, gen in ((False, r), (True, r_prime)):
                iet2 = cur * gen
                only2 = only_rprime and is_rprime
                pieces = iet2._on(frame)._pieces
                # the base point, coordinate 0 of the circle, lies in the
                # circle's first piece: it is fixed when that piece starts
                # its image at 0 of the circle
                _, _, _, dst, b = next(q for q in pieces if q[0] == ci)
                if pieces in seen or (dst == ci and b == (0, 0)) != only2:
                    return False
                seen.add(pieces)
                if layer > 1:
                    nxt.append((only2, iet2))
        frontier = nxt
    return True

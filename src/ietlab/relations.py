"""Commutator support-shrinking and drift: exact relation certificates.

Two routes to a relation in a group generated by interval exchanges S, T:

* when R is a multi-rotation, a power R^n moves every point very little, so
  U = [[S, R^n], R^n] has support pinched into a neighbourhood of the jumps
  of S (plus component ends); an element with support disjoint from a
  conjugate commutes with it;
* when S is close to a q-rational map, S^e with e = lcm(1..q) is close to
  the identity away from the grid (1/q)N, so U = [S^e, T S^e T^-1] has
  support pinched around the grid; if some T^k moves that neighbourhood off
  itself, U commutes with T^k U T^-k.

Either way the commutation relation, read as a word in the abstract free
group, is nonempty after free reduction, so the pair does not generate a
free group of rank 2.  Everything here is verified by exact arithmetic, and
the word is re-evaluated to the identity map before a certificate is
issued.  The hot paths run on integers.  The walk of the power search puts
its values on one :class:`~ietlab.field.Frame` and compares one integer key
per value, over the box of the one box rule, :func:`ietlab.field.box_key`.
The eps-cover check of supp(U) and the disjointness of supports are
:class:`~ietlab.core.Subdomain` questions, one merge each on the frame
of both sets, which checked mode re-derives from their ``QuadNum`` parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ietlab import core
from ietlab.core import (
    CIRCLE,
    INTERVAL,
    Iet,
    IetError,
    SelfCheckError,
    Subdomain,
    from_lengths,
    lengths_of,
    permutation_of,
    perm_inverse,
    perm_validate,
)
from ietlab.field import Frame, QuadNum, box_key
from ietlab.rotations import circle_angles, multi_rotation_power


class CapExceededError(IetError):
    pass


class ShrinkVerificationError(IetError):
    """The pinched-support guarantee failed; indicates a bug, not bad input."""


# -- free words -------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """Word in the free group on abstract generators 0, 1, ...

    ``letters`` holds the word as runs ``(generator index, exponent)``:
    maximal blocks of one repeated letter, so ``s^420 t^-1`` is two runs
    however large the exponent.  The constructor takes any sequence of
    ``(generator, nonzero exponent)`` pairs, single letters ``(i, +-1)``
    included, and merges neighbours with the same generator and the same
    sign, so equal letter sequences give equal, equally hashed words.  It
    never merges opposite signs: that would be free reduction (see
    :func:`free_reduce`) and would change the word.  ``len(word)`` is the
    number of letters.
    """

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        runs: list[tuple[int, int]] = []
        for gen, e in self.letters:
            if e == 0:
                raise IetError("a run needs a nonzero exponent")
            if runs and runs[-1][0] == gen and (runs[-1][1] > 0) == (e > 0):
                runs[-1] = (gen, runs[-1][1] + e)
            else:
                runs.append((gen, e))
        object.__setattr__(self, "letters", tuple(runs))

    @staticmethod
    def gen(i: int, exp: int = 1) -> "Word":
        return Word(((i, exp),)) if exp else Word()

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((i, -e) for i, e in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        if len(self.letters) == 1:
            gen, e = self.letters[0]
            return Word.gen(gen, e * n)
        return Word(self.letters * n)

    def __len__(self):
        return sum(abs(e) for _, e in self.letters)

    def evaluate(self, gens: Sequence[Iet]) -> Iet:
        """The map the word names, composed run by run; each distinct run is
        raised to its power once per call."""
        if not gens:
            raise IetError("no generators to evaluate over")
        powers: dict[tuple[int, int], Iet] = {}
        result = None
        for run in self.letters:
            p = powers.get(run)
            if p is None:
                g, e = gens[run[0]], run[1]
                p = powers[run] = g if e == 1 else ~g if e == -1 else g ** e
            result = p if result is None else result * p
        return Iet.identity(gens[0].source) if result is None else result

    def format(self, names: Sequence[str] = ("s", "t", "u", "v")) -> str:
        if not self.letters:
            return "1"
        out = []
        for gen, e in self.letters:
            name = names[gen] if gen < len(names) else f"g{gen}"
            out.append(name if e == 1 else f"{name}^{e}")
        return " ".join(out)


def free_reduce(w: Word) -> Word:
    """Fully reduced form; empty exactly when w is trivial in the free group."""
    stack: list[tuple[int, int]] = []  # neighbours have distinct generators
    for gen, e in w.letters:
        if stack and stack[-1][0] == gen:
            e += stack.pop()[1]
            if e == 0:
                continue
        stack.append((gen, e))
    return Word(tuple(stack))


def commutator_word(x: Word, y: Word) -> Word:
    return x.inverse() * y.inverse() * x * y


def commutator(g: Iet, h: Iet) -> Iet:
    """[g, h] = g^-1 h^-1 g h as a map."""
    return ~g * ~h * g * h


# -- closed neighbourhoods and pinched supports --------------------------------------


def _eps_cover(s: Iet, eps: QuadNum) -> Subdomain:
    """The closed eps-balls around the jumps of S and S^-1 and around the
    ends of the interval components, as one subdomain on one frame of the
    jumps, eps and the lengths.  The parts are half-open: [a, e) lies in a
    finite union of closed intervals exactly when it lies in the union of
    their half-open versions, since the points just above any of its
    points lie in one of the intervals.  A ball on a circle is cut at 0 by
    its copies one turn either way."""
    domain = s.source
    lengths = [QuadNum.of(c.length) for c in domain.components]
    frame = Frame([eps, *lengths]).join(s.frame)
    coord, k = frame.coord, frame.den // s.frame.den  # S^-1 lives on S's frame
    (eP, eQ), ends = coord(eps), [coord(x) for x in lengths]
    centres = [(ci, (x[0] * k, x[1] * k)) for ci, x in s._jumps() + (~s)._jumps()]
    for ci, comp in enumerate(domain.components):
        if comp.kind == INTERVAL:
            centres += [(ci, (0, 0)), (ci, ends[ci])]
    sign, cmp = frame.sign, frame.cmp
    balls = []
    for ci, (P, Q) in centres:
        end = ends[ci]
        turns = [(0, 0)]
        if domain.components[ci].kind == CIRCLE:
            turns += [(-end[0], -end[1]), end]
        for tP, tQ in turns:
            lo, hi = (P + tP - eP, Q + tQ - eQ), (P + tP + eP, Q + tQ + eQ)
            if cmp(lo, end) < 0 and sign(hi) > 0:
                balls.append((ci, lo if sign(lo) > 0 else (0, 0), hi if cmp(hi, end) < 0 else end))
    return Subdomain._of(domain, frame, balls)


def _first_hits(beta: QuadNum, w: QuadNum):
    """First forward and backward hits of width w by n*beta mod 1, for
    0 < beta < 1 and 0 < w < 1: ``(plus, minus, period)`` where ``plus`` is
    (A+, {A+ beta}) for the least A+ >= 1 with {A+ beta} in (0, w],
    ``minus`` is (A-, {A- beta} - 1) for the least A- >= 1 with {A- beta} in
    [1 - w, 1), either None when no such n exists, and ``period`` is the
    least n >= 1 with n*beta an integer if the descent reached it (always
    when beta is rational and a hit is missing), else None.

    Farey descent: the forward record (n, f) has f = {n beta} and the
    backward record (n', g) has g = 1 - {n' beta}; no 0 < m < n + n' lands
    in (-g, f).  Adding the shorter record to the longer one j times
    shortens the longer by j times the shorter, so one exact floor
    division takes a whole partial quotient.
    """
    fwd = [1, beta, (1, beta) if beta <= w else None]  # [n, distance, first hit]
    bwd = [0, QuadNum(1), None]
    period = None
    while fwd[2] is None or bwd[2] is None:
        big, small = (fwd, bwd) if fwd[1] >= bwd[1] else (bwd, fwd)
        k = (big[1] / small[1]).floor()
        rem = big[1] - k * small[1]
        if big[2] is None:
            j = -((w - big[1]) / small[1]).floor()  # least j with big - j*small <= w
            if j < k or (j == k and rem):
                big[2] = (big[0] + j * small[0], big[1] - j * small[1])
        big[0] += k * small[0]
        big[1] = rem
        if not rem:
            period = big[0]
            break
    minus = bwd[2] and (bwd[2][0], -bwd[2][1])
    return fwd[2], minus, period


def _common_return(circles: list[tuple[QuadNum, QuadNum]], cap: int) -> Optional[int]:
    """Least n in 1..cap with ||n beta|| <= delta for every (beta, delta) in
    circles, with 0 < beta < 1 and 0 < 2*delta < 1; None when it exceeds cap.

    The circle with the smallest delta drives: y = {n beta + delta} returns
    to the window W = [0, 2 delta], and by the three-gap theorem (Slater
    1967) the next return from y is the shorter of A+ and A- whose shift
    keeps y in W, else A+ + A- (see :func:`_first_hits`); when beta is
    rational and a hit is missing, the period, which fixes y, takes the
    place of the missing steps.  For each other circle, x = {n beta} moves
    by its shift {g beta} for the step's gap g, less 1 if it reached 1, and
    meets the bound when x <= delta or x >= 1 - delta.

    Every value the walk adds or compares is one integer key: the value's
    pair (P, Q) on one :class:`~ietlab.field.Frame` of denominator D, keyed
    by :func:`~ietlab.field.box_key` with reach 2 cap + 1 over the fixed
    values (delta, 1, the steps' shifts and bounds, and each other
    circle's delta, 1 - delta and shifts), so a step is integer compares
    and additions.  That box holds every value compared: a step adds at
    most one shift to y and to each x, and subtracts 1 (the pair (D, 0))
    at most once from each x, so after j steps a value is a sum or
    difference of at most 2 j + 1 fixed values; the walk takes at most cap
    steps, since each one adds at least 1 to n.
    """
    driver = min(circles, key=lambda c: c[1])
    others = [c for c in circles if c is not driver]
    beta, delta = driver
    w = 2 * delta
    plus, minus, period = _first_hits(beta, w)
    zero = QuadNum(0)
    # (gap, shift, side, bound): the step is possible from y when
    # side * (y - bound) >= 0; side 0 marks the longest step, possible from
    # all of W
    steps = []
    if plus:
        steps.append((plus[0], plus[1], -1, w - plus[1]))
    if minus:
        steps.append((minus[0], minus[1], 1, -minus[1]))
    if plus and minus:
        steps.append((plus[0] + minus[0], plus[1] + minus[1], 0, zero))
    else:
        steps.append((period, zero, 0, zero))
    steps.sort(key=lambda s: s[0])
    moves = [[(g * b).mod(QuadNum(1)) for g, *_ in steps] for b, _ in others]
    values = [delta, QuadNum(1)] + [v for _, shift, _, bound in steps for v in (shift, bound)]
    values += [v for (_, dj), mv in zip(others, moves) for v in (dj, 1 - dj, *mv)]
    frame = Frame(values)
    coords = [frame.coord(v) for v in values]
    _, K, r = box_key(frame.d, coords, 2 * max(cap, 0) + 1)
    keys = (P * K + Q * r for P, Q in coords)
    y, one = next(keys), next(keys)
    walk = [(g, next(keys), side, next(keys)) for g, _, side, _ in steps]
    # per other circle: its bounds delta and 1 - delta and its shift per step
    rest = [(next(keys), next(keys), [next(keys) for _ in mv]) for mv in moves]
    xs = [0] * len(others)
    n = 0
    while True:
        for i, (gap, shift, side, bound) in enumerate(walk):
            if not side or (y >= bound if side > 0 else y <= bound):
                break
        n += gap
        if n > cap:
            return None
        y += shift
        near = True
        for j, (lo, hi, mv) in enumerate(rest):
            x = xs[j] + mv[i]
            if x >= one:
                x -= one
            xs[j] = x
            if lo < x < hi:
                near = False
        if near:
            return n


def small_rotation_power(r: Iet, eps, cap: int = 500_000) -> int:
    """Least n >= 1 such that r^n moves every point by at most eps/2.

    On a circle of length L turned by a, r^n moves every point by
    ||n a/L|| * L, so the condition is ||n beta|| <= delta with beta = a/L
    and delta = (eps/2)/L on every circle; circles with 2 delta >= 1 always
    meet it.  The circle with the smallest delta drives the search: its
    returns to the window are walked exactly by the three-gap theorem, and
    every other circle is tested at each return by one addition per circle
    (:func:`_common_return`), so the answer is the true minimum.  Only the
    choice of the driving circle and its Farey descent
    (:func:`_first_hits`) run in ``QuadNum``; the walk adds and compares
    one integer key per value (:func:`ietlab.field.box_key`), and no
    floating point is used.  In checked mode the n found is re-checked in
    ``QuadNum`` against the definition, ||n beta|| <= delta on every circle
    and n <= cap, and a mismatch raises :class:`SelfCheckError`.  Raises
    :class:`CapExceededError` when the least n exceeds cap, and
    :class:`IetError` (from :func:`circle_angles`) when r is not a
    multi-rotation.
    """
    eps = QuadNum.of(eps)
    if not eps > 0:
        raise IetError("eps must be positive")
    thresh = eps / 2
    circles: list[tuple[QuadNum, QuadNum]] = []  # (beta, delta)
    for ci, ang in circle_angles(r).items():
        if ang == 0:
            continue
        length = r.source.components[ci].length
        circles.append((ang / length, thresh / length))
    if not circles:
        return 1
    moving = [(beta, delta) for beta, delta in circles if 2 * delta < 1]
    n = _common_return(moving, cap) if moving else (1 if cap >= 1 else None)
    if n is None:
        raise CapExceededError(f"no power within cap {cap} moves points by <= eps/2")
    if core.CHECKED:
        fracs = [(beta * n).mod(QuadNum(1)) for beta, _ in circles]
        if n > cap or any(min(f, 1 - f) > delta for f, (_, delta) in zip(fracs, circles)):
            raise SelfCheckError(f"power {n} of the rotation is not within eps/2 or the cap")
    return n


_SHRINK_N_CAP = 200_000  # cap of the near-identity power search


@dataclass(frozen=True)
class ShrinkConfig:
    epsilon: QuadNum

    def __post_init__(self):
        if not QuadNum.of(self.epsilon) > 0:
            raise IetError("epsilon must be positive")


def shrink_support(r: Iet, s: Iet, cfg: ShrinkConfig) -> tuple[int, Iet]:
    """n and U = [[S, R^n], R^n], with the exact guarantee that supp(U) lies
    in the closed eps-neighbourhood of the jumps of S and S^-1 together with
    the component ends (ends drop out on all-circle domains).

    The power search runs at eps/2 (movement at most eps/4): the inner
    commutator then translates by at most eps/2 off the eps/2-neighbourhood
    of the jumps, and the outer one dies off the eps-neighbourhood; each of
    the two commutator steps spends a factor of two.  R^n is built in closed
    form by :func:`ietlab.rotations.multi_rotation_power`, which checked
    mode compares with ``r ** n``.  The guarantee is checked as
    ``_eps_cover(S, eps).covers(U.support())``, one merge, whose
    verdict checked mode re-derives from the ``QuadNum`` parts.
    """
    if r.source != s.source or r.source != r.target or s.source != s.target:
        raise IetError("R and S must be automorphisms of one domain")
    eps = QuadNum.of(cfg.epsilon)
    n = small_rotation_power(r, eps / 2, _SHRINK_N_CAP)
    rn = multi_rotation_power(r, n)
    u = commutator(commutator(s, rn), rn)
    if not _eps_cover(s, eps).covers(u.support()):
        raise ShrinkVerificationError("support escaped its eps-neighbourhood")
    return n, u


# -- drift -----------------------------------------------------------------------


def _fixed_coordinate(sigma: tuple[int, ...]) -> Optional[int]:
    """The least m (1-based) with sigma(m) = m and {1..m-1} invariant, or
    None when there is none."""
    for m in range(1, len(sigma) + 1):
        if sigma[m - 1] == m and set(sigma[: m - 1]) == set(range(1, m)):
            return m
    return None


def is_admissible(sigma: Sequence[int]) -> bool:
    """No m with sigma(m) = m and {1..m-1} invariant."""
    return _fixed_coordinate(perm_validate(sigma)) is None


def translation_response(sigma: Sequence[int], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Change of the piece translations induced by a change v of the piece
    lengths (a linear map with integer coefficients)."""
    sigma = perm_validate(sigma)
    inv = perm_inverse(sigma)
    out = []
    for i in range(1, len(sigma) + 1):
        t = -sum(v[j] for j in range(i - 1)) + sum(v[inv[j - 1] - 1] for j in range(1, sigma[i - 1]))
        out.append(Fraction(t))
    return tuple(out)


@dataclass(frozen=True)
class DriftData:
    """Zero-sum length change dl whose translation response dr is positive in
    every coordinate."""

    sigma: tuple[int, ...]
    dl: tuple[Fraction, ...]
    dr: tuple[Fraction, ...]
    dr_min: Fraction
    dr_max: Fraction


def drift_direction(sigma: Sequence[int]) -> Optional[DriftData]:
    """Drift data for an admissible permutation (sum over inverted pairs of
    e_j - e_i), or None when the permutation is not admissible."""
    sigma = perm_validate(sigma)
    if not is_admissible(sigma):
        return None
    n = len(sigma)
    dl = [Fraction(0)] * n
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i] > sigma[j]:
                dl[i] -= 1
                dl[j] += 1
    dr = translation_response(sigma, dl)
    if any(c < 1 for c in dr):
        raise IetError("drift construction failed to reach 1 everywhere")  # pragma: no cover
    return DriftData(sigma, tuple(dl), dr, min(dr), max(dr))


def vanishing_coordinate_certificate(sigma: Sequence[int]) -> tuple[int, bool]:
    """For a non-admissible permutation: the fixed coordinate m (1-based) and
    the exact check that coordinate m of the translation response vanishes on
    a basis of the zero-sum hyperplane."""
    sigma = perm_validate(sigma)
    n = len(sigma)
    m = _fixed_coordinate(sigma)
    if m is None:
        raise IetError("permutation is admissible; no vanishing coordinate")
    for i in range(n - 1):
        v = [Fraction(0)] * n
        v[i], v[i + 1] = Fraction(1), Fraction(-1)
        if translation_response(sigma, v)[m - 1] != 0:
            return m, False  # pragma: no cover
    return m, True


def drifted(t0: Iet, theta, dd: DriftData) -> Iet:
    """Same permutation, lengths moved by theta * dl; the piece translations
    move by exactly theta * dr (checked)."""
    theta = QuadNum.of(theta)
    sigma = permutation_of(t0)
    if sigma != dd.sigma:
        raise IetError("drift data is for a different permutation")
    lengths = [l + theta * c for l, c in zip(lengths_of(t0), dd.dl)]
    for x in lengths:
        if not x > 0:
            raise IetError("theta too large: a length became non-positive")
    t_theta = from_lengths(sigma, lengths)
    for p, q, c in zip(t0.pieces, t_theta.pieces, dd.dr):
        if (q.b - q.a) - (p.b - p.a) != theta * c:
            raise IetError("translation response disagrees with drift data")  # pragma: no cover
    return t_theta


# -- relation certificates ----------------------------------------------------------


@dataclass(frozen=True)
class RelationCertificate:
    """A nonempty reduced word in s, t that evaluates to the identity on the
    pair (S, T), witnessed by U and the exact disjointness of supp(U) from
    supp(T^k U T^-k) (vacuous when U is already the identity)."""

    word: Word
    q: int
    exponent: int
    epsilon: Optional[Fraction]
    k: int
    u: Iet


def lcm_up_to(q: int) -> int:
    return math.lcm(*range(1, q + 1))


def _default_epsilon(t: Iet, q: int) -> Optional[Fraction]:
    try:
        sigma = permutation_of(t)
    except IetError:
        return None
    dd = drift_direction(sigma)
    if dd is None:
        return None
    rho = dd.dr_max / dd.dr_min
    return Fraction(1, 100 * q) / rho


# two random 8-piece maps over Q(sqrt 2) with no certificate take about 7 s
# at k_cap = 256 and 150 s at 1,024: T^k grows with k
KCAP_CAP = 256
# s^e with e = lcm(1..q): a q-rational 8-piece s and a 6-piece t take about
# 0.3 s at q = 160, 1.3 s at 320 and 6.5 s at 640; a map that is not
# q-rational has s^e with about e times its jumps, 3.8 s already at q = 9
Q_CAP = 256


def relation_certificate(
    s: Iet, t: Iet, q: int, k_cap: int = 16
) -> Optional[RelationCertificate]:
    """Search for a commutation relation between words in S and T.

    Uses e = lcm(1..q) (every q-rational map has order dividing it, and e
    divides q!).  With u = [s^e, t s^e t^-1]: if U = u(S, T) is the identity
    the word u itself is the certificate; otherwise each k <= k_cap is tried
    for exact disjointness of supp(U) and supp(T^k U T^-k), giving the word
    [t^k u t^-k, u]; disjointness is one merge
    (:meth:`~ietlab.core.Subdomain.disjoint`).  The word is re-evaluated to
    the identity by exact composition, and its free reduction is checked
    nonempty.  None means the search failed, not that the group is free.  A
    k_cap above ``KCAP_CAP`` or a q above ``Q_CAP`` raises
    :class:`CapExceededError` before any product.
    """
    if q < 2:
        raise IetError("q must be >= 2")
    if q > Q_CAP:
        raise CapExceededError(f"q {q} is above the cap {Q_CAP}")
    if k_cap > KCAP_CAP:
        raise CapExceededError(f"k_cap {k_cap} is above the cap {KCAP_CAP}")
    if s.source != t.source or s.source != s.target or t.source != t.target:
        raise IetError("S and T must be automorphisms of one domain")
    e = lcm_up_to(q)
    se = s ** e
    tse = t * se * ~t
    u_iet = commutator(se, tse)
    w_s, w_t = Word.gen(0), Word.gen(1)
    u_word = commutator_word(w_s ** e, w_t * w_s ** e * w_t.inverse())
    eps = _default_epsilon(t, q)

    def issue(word: Word, k: int) -> RelationCertificate:
        reduced = free_reduce(word)
        if not reduced.letters:
            raise IetError("relator freely reduces to the empty word")  # pragma: no cover
        if not word.evaluate([s, t]).is_identity():
            raise IetError("relator fails to evaluate to the identity")  # pragma: no cover
        return RelationCertificate(
            word=word,
            q=q,
            exponent=e,
            epsilon=eps,
            k=k,
            u=u_iet,
        )

    supp_u = u_iet.support()
    if supp_u.is_empty():
        return issue(u_word, 0)
    tk = Iet.identity(t.source)
    for k in range(1, k_cap + 1):
        tk = t * tk
        if (tk * u_iet * ~tk).support().disjoint(supp_u):
            word = commutator_word(w_t ** k * u_word * w_t ** -k, u_word)
            return issue(word, k)
    return None

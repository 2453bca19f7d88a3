"""Reference oracle: the exact LP as it stood over ``Fraction``.

This is the Gauss-Jordan elimination, two-phase Bland simplex and dual
shadow-price solve that ``ietlab.field.lp_rational_point`` used before it
moved to fraction-free integer rows.  The tests require the package's
solver to return exactly this module's point (or ``None`` on both sides).
``lp_nearby_points``, used only by the trace soundness test, lives here too
because it samples the equality subspace this elimination returns.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from ietlab.field import ConstraintSystem, LinConstraint, LpInternalError, Rel


def _gauss_solve_equalities(
    eqs: list[LinConstraint], n: int
) -> Optional[tuple[list[Fraction], list[list[Fraction]]]]:
    """Solve the equality subsystem exactly.

    Returns (particular solution x0, basis of the homogeneous space) or None
    when inconsistent.
    """
    # as Fractions: the trace records int coefficients, and int / int is a float
    rows = [[Fraction(v) for v in c.coeffs] + [-Fraction(c.const)] for c in eqs]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][n] != 0:
            return None  # 0 = nonzero
    free_cols = [c for c in range(n) if c not in pivots]
    x0 = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x0[col] = rows[i][n]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -rows[i][fc]
        basis.append(v)
    return x0, basis


def _simplex_min(
    a: list[list[Fraction]], b: list[Fraction], c: list[Fraction]
) -> Optional[tuple[Fraction, list[int], list[list[Fraction]], list[Fraction]]]:
    """Two-phase exact simplex, Bland's rule:  min c.y  s.t.  a y = b, y >= 0.

    Returns (optimal value, basis column indices, final row space of the
    constraint part, final rhs) or None when infeasible.  Unboundedness is
    impossible for the programs built here and raises LpInternalError.
    """
    m, n = len(a), len(c)
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]
    # tableau with artificial variables n..n+m-1
    tab = [a[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))

    def pivot(row: int, col: int) -> None:
        pv = tab[row][col]
        tab[row] = [v / pv for v in tab[row]]
        for i in range(len(tab)):
            if i != row and tab[i][col] != 0:
                f = tab[i][col]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
        basis[row] = col

    def run(cost: list[Fraction], allowed: int) -> Fraction:
        # maintain the reduced-cost row explicitly
        z = [Fraction(0)] * (len(tab[0]))
        for j in range(len(z)):
            z[j] = (cost[j] if j < len(cost) else Fraction(0)) - sum(
                (cost[basis[i]] if basis[i] < len(cost) else Fraction(0)) * tab[i][j]
                for i in range(m)
            )
        while True:
            col = next((j for j in range(allowed) if z[j] < 0), None)
            if col is None:
                obj = -z[-1]
                return obj
            ratios = [
                (tab[i][-1] / tab[i][col], basis[i], i)
                for i in range(m)
                if tab[i][col] > 0
            ]
            if not ratios:
                raise LpInternalError("unbounded program (cannot happen: objective capped)")
            # Bland: smallest ratio, ties by smallest basis variable index
            _, _, row = min(ratios, key=lambda t: (t[0], t[1]))
            pv = tab[row][col]
            fz = z[col]
            tab[row] = [v / pv for v in tab[row]]
            for i in range(m):
                if i != row and tab[i][col] != 0:
                    g = tab[i][col]
                    tab[i] = [x - g * y for x, y in zip(tab[i], tab[row])]
            z = [x - fz * y for x, y in zip(z, tab[row])]
            basis[row] = col

    # phase 1: minimize the sum of artificials
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    if run(cost1, n + m) > 0:
        return None
    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
    # rows whose basis is still artificial are identically zero; keep them inert
    val = run(list(c), n)
    rhs = [tab[i][-1] for i in range(m)]
    rows = [tab[i][:n] for i in range(m)]
    return val, basis, rows, rhs


def _solve_square(mat: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Gaussian solve of a square system; None when singular/inconsistent."""
    n = len(rhs)
    m = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        pr = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pr is None:
            return None
        m[col], m[pr] = m[pr], m[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def lp_rational_point(system: ConstraintSystem) -> Optional[tuple[Fraction, ...]]:
    """Rational point satisfying every constraint (equalities exactly,
    strict inequalities strictly), or None when no real solution exists.

    Method: eliminate the equalities by exact Gaussian elimination, then
    maximize a slack t subject to every strict form >= t and t <= 1 by an
    exact rational simplex with deterministic (Bland) pivoting; success iff
    the optimum satisfies t* > 0.  The program is solved through its dual,
    whose row count is the number of free unknowns plus one.  The returned
    point is re-substituted into the original system before being returned.
    """
    n = system.dimension
    eqs = [c for c in system.constraints if c.relation is Rel.ZERO]
    strict = [c for c in system.constraints if c.relation is Rel.POSITIVE]

    solved = _gauss_solve_equalities(eqs, n)
    if solved is None:
        return None
    x0, basis = solved
    f = len(basis)

    # strict rows over the free coordinates: alpha . y + gamma > 0
    reduced: dict[tuple[Fraction, ...], Fraction] = {}
    for cst in strict:
        gamma = cst.evaluate(x0)
        alpha = tuple(
            sum(cst.coeffs[i] * bv[i] for i in range(n)) for bv in basis
        )
        if all(v == 0 for v in alpha):
            if gamma <= 0:
                return None
            continue
        # same direction twice: keep the binding (smallest constant) copy
        prev = reduced.get(alpha)
        if prev is None or gamma < prev:
            reduced[alpha] = gamma

    def finish(y: list[Fraction]) -> Optional[tuple[Fraction, ...]]:
        x = list(x0)
        for k, bv in enumerate(basis):
            x = [xi + y[k] * bi for xi, bi in zip(x, bv)]
        pt = tuple(x)
        if not system.satisfied_by(pt):
            raise LpInternalError("solver returned a point violating the system")
        return pt

    if not reduced:
        return finish([Fraction(0)] * f)

    alphas = list(reduced.keys())
    gammas = [reduced[a] for a in alphas]
    mcnt = len(alphas)

    # dual of  max t  s.t.  t - alpha_j.y <= gamma_j,  t <= 1:
    #   min  y0 + sum gamma_j yj   s.t.  y0 + sum yj = 1,  sum yj alpha_j = 0,  y >= 0
    a_rows: list[list[Fraction]] = []
    a_rows.append([Fraction(1)] + [Fraction(1)] * mcnt)
    for i in range(f):
        a_rows.append([Fraction(0)] + [-alphas[j][i] for j in range(mcnt)])
    b_vec = [Fraction(1)] + [Fraction(0)] * f
    c_vec = [Fraction(1)] + list(gammas)

    res = _simplex_min(a_rows, b_vec, c_vec)
    if res is None:
        raise LpInternalError("dual infeasible (cannot happen: primal is bounded)")
    t_star, dbasis, _, _ = res
    if t_star <= 0:
        return None

    # primal maximizer = shadow prices of the dual: solve B^T pi = c_B on the
    # original dual columns for the final basis
    ncols = 1 + mcnt
    bt = []
    cb = []
    for bi in dbasis:
        if bi < ncols:
            bt.append([a_rows[r][bi] for r in range(f + 1)])
            cb.append(c_vec[bi])
        else:
            # inert artificial row (redundant dual constraint): pins nothing
            bt.append([Fraction(1) if r == bi - ncols else Fraction(0) for r in range(f + 1)])
            cb.append(Fraction(0))
    pi = _solve_square(bt, cb)
    if pi is None:
        raise LpInternalError("degenerate dual basis")
    t_val, y = pi[0], pi[1:]
    if t_val != t_star:
        raise LpInternalError("dual/primal objective mismatch")
    return finish(y)


def lp_nearby_points(
    system: ConstraintSystem, base: Sequence[Fraction], count: int, seed: int = 0
) -> list[tuple[Fraction, ...]]:
    """Further rational solutions near a known one: perturb inside the
    equality subspace and keep candidates that re-verify exactly, shrinking
    the perturbation until the strict inequalities hold."""
    if not system.satisfied_by(tuple(base)):
        raise ValueError("base point does not satisfy the system")
    rng = random.Random(seed)
    eqs = [c for c in system.constraints if c.relation is Rel.ZERO]
    solved = _gauss_solve_equalities(eqs, system.dimension)
    if solved is None:
        raise ValueError("inconsistent equalities")  # pragma: no cover
    _, basis = solved
    out: list[tuple[Fraction, ...]] = []
    for _ in range(count):
        chosen = tuple(base)
        for shift in range(4, 80, 4):
            delta = [Fraction(rng.randint(-3, 3), 2 ** shift) for _ in basis]
            cand = list(base)
            for d, bv in zip(delta, basis):
                cand = [x + d * v for x, v in zip(cand, bv)]
            if system.satisfied_by(tuple(cand)):
                chosen = tuple(cand)
                break
        out.append(chosen)
    return out

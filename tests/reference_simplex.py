"""Reference phase-1 simplex over ``fractions.Fraction``, for tests only.

This is the dense rational simplex that ``coloredfans.linprog`` used before
its integer tableau: equality pre-substitution by Fraction dot products, then
a phase-1 simplex with Bland's rule and a running Fraction objective, one
dense row per constraint.  The integer simplex must take exactly the same
pivots and return exactly the same assignment, so the two are compared LP by
LP, pivot by pivot.  The columns are labelled as in ``coloredfans.linprog``:
p, then q, then the slacks, then the artificials, the artificial of row i at
``2 * n + m + i``.
"""

from __future__ import annotations

from fractions import Fraction

from reference_exact import reference_rref

from coloredfans.linalg import F0, F1, RatVec, dot
from coloredfans.linprog import LPProblem


def reference_lp_feasible(lp: LPProblem) -> tuple[RatVec | None, list[tuple[int, int]]]:
    """(assignment or None, the (entering, leaving) labels of every pivot)
    by the Fraction simplex."""
    n = lp.num_vars
    aug = [tuple(a) + (b,) for a, b in lp.eq_constraints]
    reduced, pivots = reference_rref(aug)
    if n in pivots:
        return None, []
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    particular = [F0] * n
    for row, p in zip(reduced, pivots):
        particular[p] = row[n]
    directions = []
    for f in free:
        d = [F0] * n
        d[f] = F1
        for row, p in zip(reduced, pivots):
            d[p] = -row[f]
        directions.append(tuple(d))
    ineqs = [
        (tuple(dot(a, d) for d in directions), b - dot(a, particular))
        for a, b in lp.ineq_constraints
    ]
    solution, path = _phase_one(len(free), ineqs)
    if solution is None:
        return None, path
    out = list(particular)
    for val, d in zip(solution, directions):
        if val:
            for i, di in enumerate(d):
                if di:
                    out[i] += val * di
    return tuple(out), path


def _phase_one(num_vars: int, ineqs) -> tuple[RatVec | None, list[tuple[int, int]]]:
    m = len(ineqs)
    n_struct = 2 * num_vars + m
    ncols = n_struct + m
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    basis: list[int] = []
    for i, (a, b) in enumerate(ineqs):
        row = [F0] * ncols
        if b > 0:
            for j, c in enumerate(a):
                if c:
                    row[j] = c
                    row[num_vars + j] = -c
            row[2 * num_vars + i] = -F1
            row[n_struct + i] = F1
            basis.append(n_struct + i)
            rhs.append(b)
        else:
            for j, c in enumerate(a):
                if c:
                    row[j] = -c
                    row[num_vars + j] = c
            row[2 * num_vars + i] = F1
            basis.append(2 * num_vars + i)
            rhs.append(-b)
        rows.append(row)

    red = [F0] * ncols
    objective = F0
    for i in range(m):
        if basis[i] >= n_struct:
            objective += rhs[i]
            row = rows[i]
            for j in range(n_struct):
                if row[j]:
                    red[j] -= row[j]

    path = []
    while True:
        enter = next((j for j in range(ncols) if red[j] < 0), None)
        if enter is None:
            break
        best: tuple[Fraction, int, int] | None = None
        for i in range(m):
            coef = rows[i][enter]
            if coef > 0:
                key = (rhs[i] / coef, basis[i], i)
                if best is None or key < best:
                    best = key
        if best is None:
            raise AssertionError("internal error: unbounded phase-1 objective")
        theta, _, leave = best
        objective += red[enter] * theta
        _pivot(rows, rhs, red, leave, enter)
        path.append((enter, basis[leave]))
        basis[leave] = enter

    if objective != 0:
        return None, path
    values = [F0] * ncols
    for i, col in enumerate(basis):
        values[col] = rhs[i]
    return tuple(values[j] - values[num_vars + j] for j in range(num_vars)), path


def _pivot(rows, rhs, red, r, c):
    prow = rows[r]
    piv = prow[c]
    if piv != 1:
        inv = 1 / piv
        rows[r] = prow = [x * inv for x in prow]
        rhs[r] *= inv
    nz = [j for j, x in enumerate(prow) if x]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            for j in nz:
                row[j] -= f * prow[j]
            rhs[i] -= f * rhs[r]
    f = red[c]
    if f:
        for j in nz:
            red[j] -= f * prow[j]

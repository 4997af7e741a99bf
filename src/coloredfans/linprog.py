"""Exact rational linear feasibility.

Two independent deciders over the same problem type:

* :func:`lp_feasible` -- equality pre-substitution followed by a phase-1
  simplex with Bland's anti-cycling rule, in integers: no ``Fraction`` is
  built inside the simplex.  Each free variable is split as t = p - q.  An
  LP of at most ``REVISED_ROWS`` inequality rows pivots on a sparse integer
  tableau of fraction-free rows, one per inequality, with only the p half
  stored (the q column is minus the p column).  A larger LP, such as a
  support LP, whose pivots are mostly degenerate while the basis holds a few
  structural columns, pivots on an exact basis inverse ``D * M^-1`` over the
  tight rows and basic structural columns, updated by Bareiss-style exact
  division; it computes only the reduced costs and the entering column, once
  per class of equal input rows.  Both take the pivots that a simplex over
  the rationals takes on the full tableau, and return an exact rational
  assignment, re-verified against the problem, or ``None``.  The point is
  read over one common denominator, lifted through the equalities and
  re-verified in integers; its ``Fraction`` entries are built only on
  return.
* :func:`fourier_motzkin` -- variable elimination over integer rows,
  intended as a slow cross-checking oracle and capped at a configurable
  variable count.

An :class:`LPProblem` stores each constraint made integral: scaled by the
lcm of its denominators, its zero coefficients dropped; these are its only
rows.  Both deciders and :meth:`LPProblem.satisfied_by` read them, and the
``Fraction`` rows of ``eq_constraints`` and ``ineq_constraints`` are built
from them on first read.  The library assembles its own LPs from the integer
fields of its cones, so no ``Fraction`` row is built for them at all.
Fourier-Motzkin prunes its rows by Chernikov's rule.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

from .errors import EliminationCapError
from .linalg import F0, RatVec, _echelon, _over_common_denominator, vec

Constraint = tuple[RatVec, Fraction]
# (terms, b, s): the row (a, b) times s, the lcm of its denominators, with the
# nonzero coefficients as (column, integer) pairs
SparseRow = tuple[list[tuple[int, int]], int, int]


class LPProblem:
    """Conjunction of exact linear constraints a.x = b and a.x >= b.

    The rows are stored made integral, as ``(terms, b, s)``: the row
    ``(a, b)`` times ``s``, the lcm of its denominators, with the nonzero
    coefficients as ``(column, integer)`` pairs.  ``eq_constraints`` and
    ``ineq_constraints`` are the rows as ``(a, b)`` tuples of ``Fraction``,
    built on first read.  Equality, hashing and ``repr`` are those of the
    triple ``(num_vars, eq_constraints, ineq_constraints)``.
    """

    __slots__ = ("_num_vars", "_eqs", "_ineqs", "_eq_view", "_ineq_view")

    def __init__(
        self,
        num_vars: int,
        eq_constraints: Sequence[Constraint] = (),
        ineq_constraints: Sequence[Constraint] = (),
    ):
        eqs, ineqs = tuple(eq_constraints), tuple(ineq_constraints)
        for a, _ in eqs + ineqs:
            if len(a) != num_vars:
                raise ValueError(
                    f"constraint of length {len(a)} in a problem with {num_vars} variables"
                )
        self._num_vars = num_vars
        self._eq_view = self._ineq_view = None
        self._eqs = [_sparse_integral(*constraint(a, b)) for a, b in eqs]
        self._ineqs = [_sparse_integral(*constraint(a, b)) for a, b in ineqs]

    @classmethod
    def _from_integral(
        cls, num_vars: int, eqs: list[SparseRow], ineqs: list[SparseRow]
    ) -> "LPProblem":
        """The problem of rows already made integral, exactly as
        ``_sparse_integral`` makes them: columns increasing, no zero
        coefficient, and ``s`` the lcm of the denominators of the rational row.
        """
        lp = cls.__new__(cls)
        lp._num_vars = num_vars
        lp._eq_view = lp._ineq_view = None
        lp._eqs, lp._ineqs = eqs, ineqs
        return lp

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def eq_constraints(self) -> tuple[Constraint, ...]:
        if self._eq_view is None:
            self._eq_view = _rational_rows(self._num_vars, self._eqs)
        return self._eq_view

    @property
    def ineq_constraints(self) -> tuple[Constraint, ...]:
        if self._ineq_view is None:
            self._ineq_view = _rational_rows(self._num_vars, self._ineqs)
        return self._ineq_view

    def _key(self):
        return (self.num_vars, self.eq_constraints, self.ineq_constraints)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"LPProblem(num_vars={self.num_vars!r}, eq_constraints={self.eq_constraints!r}, "
            f"ineq_constraints={self.ineq_constraints!r})"
        )

    def satisfied_by(self, x: Sequence[Fraction]) -> bool:
        """Exact check of an assignment; ValueError when its length is wrong.

        The assignment is put over one common denominator, so every row is
        checked by one integer dot product over its nonzero coefficients.
        """
        if len(x) != self.num_vars:
            raise ValueError(
                f"assignment of length {len(x)} in a problem with {self.num_vars} variables"
            )
        return self._holds_at(*_over_common_denominator(x))

    def _holds_at(self, nums: Sequence[int], den: int) -> bool:
        """Exact check of the assignment ``nums / den``, with ``den > 0``."""
        return all(
            sum(v * nums[j] for j, v in terms) == b * den for terms, b, _ in self._eqs
        ) and all(sum(v * nums[j] for j, v in terms) >= b * den for terms, b, _ in self._ineqs)


def _sparse_integral(a: RatVec, b: Fraction) -> SparseRow:
    terms = [(j, x) for j, x in enumerate(a) if x]
    s = lcm(b.denominator, *(x.denominator for _, x in terms))
    return (
        [(j, x.numerator * (s // x.denominator)) for j, x in terms],
        b.numerator * (s // b.denominator),
        s,
    )


def _rational_rows(n: int, rows: list[SparseRow]) -> tuple[Constraint, ...]:
    out = []
    for terms, b, s in rows:
        a = [F0] * n
        for j, v in terms:
            a[j] = Fraction(v, s)
        out.append((tuple(a), Fraction(b, s)))
    return tuple(out)


def constraint(coeffs, rhs=0) -> Constraint:
    return (vec(coeffs), Fraction(rhs))


# an assignment as (integer numerators, one positive common denominator)
Point = tuple[list[int], int]


def _substitute_equalities(
    lp: LPProblem,
) -> tuple[bool, int, Callable[[Sequence[int], int], Point], list[SparseRow]]:
    """Solve the equality block exactly.

    Returns (consistent, number of free variables, map from free values back
    to a full assignment, inequalities rewritten over the free variables).
    The map takes and returns a point as integer numerators over one positive
    common denominator.
    Each rewritten inequality ``(terms, b, s)`` is integral, columns
    increasing, and stands for ``(a / s) . t >= b / s`` with ``s > 0``: the
    particular solution and the directions share one denominator, and each
    input row is scaled by the lcm of its own denominators, so every dot
    product is one of integers.  With no equality every variable is free and
    the rewritten inequalities are the stored rows themselves.
    """
    n = lp.num_vars
    eqs, ineqs = lp._eqs, lp._ineqs
    if not eqs:
        return True, n, lambda nums, d: (nums, d), ineqs
    aug = []
    for terms, b, _ in eqs:
        row = [0] * (n + 1)
        for j, v in terms:
            row[j] = v
        row[n] = b
        aug.append(row)
    reduced, pivots = _echelon(aug)
    if n in pivots:
        return False, 0, lambda nums, d: ([], 1), []
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    free_pos = {f: t for t, f in enumerate(free)}
    pivot_pos = {p: k for k, p in enumerate(pivots)}
    # The reduced rows over one denominator: the k-th pivot variable equals
    # (particular[k] - sum of y * t[q] over (q, y) in tails[k]) / den, where
    # t holds the values of the free variables.  Each echelon row is
    # primitive, so its pivot is the lcm of the denominators of its row of
    # the reduced echelon form.
    den = lcm(*(row[p] for row, p in zip(reduced, pivots)))
    factors = [den // row[p] for row, p in zip(reduced, pivots)]
    particular = [row[n] * k for row, k in zip(reduced, factors)]
    tails = [
        [(q, row[f] * k) for q, f in enumerate(free) if row[f]]
        for row, k in zip(reduced, factors)
    ]

    def lift(t: Sequence[int], d: int) -> Point:
        # the free values t / d, and every variable, over den * d
        out = [0] * n
        for f, val in zip(free, t):
            out[f] = val * den
        for p, num, tail in zip(pivots, particular, tails):
            out[p] = num * d - sum(y * t[q] for q, y in tail)
        return out, den * d

    reduced_ineqs = []
    for terms, b, scale in ineqs:
        coeffs = [0] * len(free)
        rhs = den * b
        for j, v in terms:
            q = free_pos.get(j)
            if q is not None:
                coeffs[q] += den * v
            else:
                k = pivot_pos[j]
                rhs -= v * particular[k]
                for q, y in tails[k]:
                    coeffs[q] -= v * y
        scale *= den
        g = gcd(rhs, scale, *coeffs)
        if g > 1:
            coeffs = [c // g for c in coeffs]
            rhs //= g
            scale //= g
        reduced_ineqs.append(([(q, c) for q, c in enumerate(coeffs) if c], rhs, scale))
    return True, len(free), lift, reduced_ineqs


def lp_feasible(lp: LPProblem) -> RatVec | None:
    """Exact assignment satisfying the problem, or None when infeasible."""
    consistent, num_free, lift, ineqs = _substitute_equalities(lp)
    if not consistent:
        return None
    solution = _phase_one(num_free, ineqs)
    if solution is None:
        return None
    nums, den = lift(*solution)
    if not lp._holds_at(nums, den):
        raise AssertionError("internal error: simplex solution failed re-verification")
    return tuple([Fraction(x, den) for x in nums])


# LPs with more inequality rows than this, after the equalities are
# substituted, pivot on the exact basis inverse (_Revised), which reads each
# class of equal input rows once; the rest on the tableau (_Tableau), one row
# per inequality.  On the phase-one LPs of 6 cube3d, 40 plane_fans and 200
# kform_orbits queries (seed 1), the revised form took 1.4-1.5x the tableau's
# time on the 4446 relint LPs of 12 rows, 0.75-0.81x on the plane support LPs
# of 18 rows (6.25 distinct) and 0.42-0.44x on those of 36 rows (18.4
# distinct); on the 15 orbit LPs of 15 rows (6 distinct) it took 0.70-0.72x,
# 0.4 ms less in all (best of 7 and of 15, Python 3.11, 2-core x86_64).  No
# LP there has 13, 14, 16 or 17 rows: the switch sits above every relint and
# orbit LP, below every support LP.
REVISED_ROWS = 16


def _phase_one(num_vars: int, ineqs: list[SparseRow]) -> Point | None:
    """Feasible point of {t : (a / s) . t >= b / s} by phase-1 simplex with Bland's rule,
    over one common denominator, or None.

    Free variables are split as t = p - q; every constraint gets a slack, and
    rows with a positive right hand side an artificial, basic at the start;
    the other rows start with their slack basic.  The columns are labelled p,
    q, slacks, then the artificial of row i at ``2 * num_vars + m + i``.  The
    objective is the sum of the artificials; the entering column is the one
    of smallest label with a negative reduced cost, and the leaving one the
    basic column of least ratio, ties to the smallest label (Bland).  Only
    the signs of reduced costs and exact comparisons of ratios are read, so
    both representations below take the pivots of the full rational tableau,
    one ``_pivot`` each, and reach its point.

    LPs of at most ``REVISED_ROWS`` rows, among them the relint and orbit
    LPs of the benchmark workloads, pivot on the tableau (:class:`_Tableau`),
    one sparse row per inequality, which rewrites every row a pivot touches.
    Larger ones, such as support LPs, take mostly degenerate pivots among
    many rows, often repeated, while the basis holds a few structural
    columns; they pivot on an exact basis inverse (:class:`_Revised`), which
    computes only what Bland's rule reads: the reduced costs and the
    entering column, once per class of equal input rows.  The revised form
    takes under a third of the tableau's time on the 64 cube support LPs and
    under half on the plane support LPs of 36 rows, but 1.4-1.5x its time
    on the relint LPs of 12 rows.
    """
    table = (_Revised if len(ineqs) > REVISED_ROWS else _Tableau)(num_vars, ineqs)
    while True:
        enter = table.entering()
        if enter is None:
            return table.point()
        _pivot(table, enter, table.leaving(enter))


def _pivot(table, enter, leave):
    """Make ``enter`` basic in place of ``leave``, as ``table.leaving(enter)``
    chose it: every pivot of either representation."""
    table.pivot(enter, leave)


class _Tableau:
    """The phase-1 tableau, integral and sparse: one row per inequality,
    ``rows[i]`` standing for itself over its positive coefficient on its
    basic column ``basis[i]``.  The reduced costs are the last row, over an
    implicit positive scale, with minus the objective as right hand side.
    Only p is stored: every row is a combination of start rows, whose q
    column is minus the p column, so column ``num_vars + j`` reads as
    ``-row[j]``, and a basic q column as minus its p entry.

    The ratio test leaves its pivot row ``r``, pivot entry ``p`` and
    ``hits``, the ``(i, f)`` of every row with entry ``f != 0`` in the
    entering column, for :meth:`pivot`.
    """

    __slots__ = ("nv", "rows", "rhs", "basis", "r", "p", "hits")

    def __init__(self, num_vars: int, ineqs: list[SparseRow]):
        nv = self.nv = num_vars
        m = len(ineqs)
        rows, rhs, basis = self.rows, self.rhs, self.basis = [], [], []
        # minimize the artificial sum: the reduced costs relative to the start
        # basis are minus the artificial rows, each over the common multiple of
        # their scales
        red: dict[int, int] = {}
        objective = 0
        common = lcm(*[s for _, b, s in ineqs if b > 0])
        for i, (terms, b, s) in enumerate(ineqs):
            slack = 2 * nv + i
            if b > 0:
                # a.t - s * slack + s * artificial = b, the artificial basic
                c = common // s
                objective -= c * b
                for j, x in terms:
                    red[j] = red.get(j, 0) - c * x
                red[slack] = c * s
                rows.append(dict(terms) | {slack: -s, slack + m: s})
                basis.append(slack + m)
            else:
                # -a.t + s * slack = -b, the slack basic at -b / s >= 0
                rows.append({j: -x for j, x in terms} | {slack: s})
                basis.append(slack)
            rhs.append(abs(b))
        # with no artificial the reduced costs are empty, and the slack basis,
        # every t_j = 0, is optimal
        rows.append({j: x for j, x in red.items() if x})
        rhs.append(objective)

    def entering(self) -> int | None:
        # a stored entry x prices p_j at x and q_j at -x
        nv = self.nv
        return min(
            (j if x < 0 else nv + j for j, x in self.rows[-1].items() if x < 0 or j < nv),
            default=None,
        )

    def leaving(self, enter: int) -> int:
        nv, rows, rhs, basis = self.nv, self.rows, self.rhs, self.basis
        col, sign = (enter - nv, -1) if nv <= enter < 2 * nv else (enter, 1)
        # the rows holding the column, and among them the minimum ratio
        # rhs / coef by cross-multiplication, ties to the smaller basic
        # column; the reduced costs are negative there, so they take no part
        hits, leave = [], -1
        for i, row in enumerate(rows):
            coef = row.get(col)
            if coef is None:
                continue
            coef *= sign
            hits.append((i, coef))
            if coef <= 0:
                continue
            if leave >= 0:
                diff = rhs[i] * best_coef - best_rhs * coef
                if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                    continue
            leave, best_rhs, best_coef = i, rhs[i], coef
        if leave < 0:
            raise AssertionError("internal error: unbounded phase-1 objective")
        self.r, self.p, self.hits = leave, best_coef, hits
        return basis[leave]

    def pivot(self, enter: int, leave: int) -> None:
        """Pivot on row r, whose entry in the column ``enter`` is ``p > 0``,
        so that ``enter`` is basic there in place of ``leave``.  Each other
        hit becomes ``row * (p / g) - prow * (f / g)``, g = gcd(p, f), which
        is zero in the column ``enter``, divided by the gcd of its entries
        and right hand side.
        """
        rows, rhs, r, p = self.rows, self.rhs, self.r, self.p
        prow, pr = rows[r], rhs[r]
        pitems = prow.items()
        for i, f in self.hits:
            if i == r:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            row = rows[i]
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, x in pitems:
                v = row.get(j, 0) - b * x
                if v:
                    row[j] = v
                else:
                    del row[j]
            h = rhs[i] * a - b * pr
            g = gcd(h, *row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
                h //= g
            rhs[i] = h
        self.basis[r] = enter

    def point(self) -> Point | None:
        # the objective, a sum of nonnegative artificial values, is zero
        # exactly when the problem is feasible
        nv, rows, rhs = self.nv, self.rows, self.rhs
        if rhs[-1]:
            return None
        # a basic p_j or q_j is rhs over its coefficient; read all over their lcm
        basic = [
            (i, x, rows[i][x] if x < nv else -rows[i][x - nv])
            for i, x in enumerate(self.basis)
            if x < 2 * nv
        ]
        den = lcm(*(sigma for _, _, sigma in basic))
        values = [0] * (2 * nv)
        for i, x, sigma in basic:
            values[x] = rhs[i] * (den // sigma)
        return [values[j] - values[nv + j] for j in range(nv)], den


class _Revised:
    """The phase-1 basis held as an exact inverse: a revised simplex.

    Row i reads ``a_i . t - s_i * slack_i + s_i * artificial_i = b_i`` over
    its integer row.  Its slack or its artificial is basic, never both, or
    neither, and then the row is tight: ``a_i . t = b_i``.  The basis holds
    the structural columns ``S``, as ``(j, sign)`` for p_j (+1) or q_j (-1),
    as many as the tight rows ``R``; the integer matrix
    ``M[r][k] = sign_k * a[R_r][j_k]`` is invertible, and ``A = D * M^-1``
    with ``D = |det M|`` is integral.  Each basis change updates A by one
    Bareiss-style step, ``(pivot * A -+ outer product) / D`` exactly: a
    column enters with a new tight row, a column replaces a column, a tight
    row is swapped, or a tight row and a column leave.

    The reduced costs follow from P = w . A, with ``w_k = sign_k * G[j_k]``
    and G the column sums of the artificial-basic rows over the lcm
    ``common`` of the scales of the rows with b > 0.  Over the positive scale
    ``D * common``, p_j prices at ``sum_r P_r * a[R_r][j] - D * G_j`` and q_j
    at its negative, a tight row's slack at ``-P_r`` (over ``s_r``) and its
    artificial at ``D * common + P_r * s_r``; every other column is basic or
    prices positive.

    The entering column moves t along ``Delta / D``.  A row that is not
    tight meets its bound where ``a . t = b``, which its artificial reaches
    when ``a . Delta > 0`` and its slack when ``a . Delta < 0``.  Equal input
    rows share ``a . Delta``, one product per class over the columns of
    ``Delta``, and within a class the smallest slack or artificial member is
    the candidate; ties across classes go to the smaller label, as in the
    tableau.  The point ``T / Dt`` and each class's ``a . T`` are kept, and
    recomputed only when a pivot moves the point: most pivots are
    degenerate.  Ratios are compared over the common factor ``D / Dt``.  The
    ratio test leaves ``step``, its pivot data, for :meth:`pivot`.
    """

    __slots__ = (
        "nv", "m", "ineqs", "row_class", "coef", "cb", "slack", "art", "cols", "common", "G",
        "S", "R", "A", "D", "T", "Dt", "vals", "step",
    )

    def __init__(self, num_vars: int, ineqs: list[SparseRow]):
        self.nv, self.m, self.ineqs = num_vars, len(ineqs), ineqs
        # per class of equal input rows: coefficients, b, and the sorted
        # slack-basic and artificial-basic members; per column j the
        # (class, coefficient) pairs
        self.coef: list[dict[int, int]] = []
        self.cb: list[int] = []
        self.slack: list[list[int]] = []
        self.art: list[list[int]] = []
        self.cols: list[list[tuple[int, int]]] = [[] for _ in range(num_vars)]
        self.row_class: list[int] = []
        self.common = lcm(*[s for _, b, s in ineqs if b > 0])
        self.G = [0] * num_vars
        first: dict[tuple, int] = {}
        for i, (terms, b, s) in enumerate(ineqs):
            c = len(self.cb)
            k = first.setdefault((tuple(terms), b, s), c)
            if k == c:
                self.coef.append(dict(terms))
                self.cb.append(b)
                self.slack.append([])
                self.art.append([])
                for j, x in terms:
                    self.cols[j].append((c, x))
            (self.art if b > 0 else self.slack)[k].append(i)
            self.row_class.append(k)
            if b > 0:
                self._add_artificial(i, 1)
        self.S: list[tuple[int, int]] = []
        self.R: list[int] = []
        self.A: list[list[int]] = []
        self.D = self.Dt = 1
        self.T = [0] * num_vars
        self.vals = [0] * len(self.cb)

    def _add_artificial(self, i: int, k: int) -> None:
        """Add k times row i, over ``common``, to the artificial column sums G."""
        terms, _, s = self.ineqs[i]
        c = k * (self.common // s)
        G = self.G
        for j, x in terms:
            G[j] += c * x

    def entering(self) -> int | None:
        nv, ineqs, R, D = self.nv, self.ineqs, self.R, self.D
        w = [sign * self.G[j] for j, sign in self.S]
        P = [sum(map(mul, w, col)) for col in zip(*self.A)]
        red = [-D * g for g in self.G]
        for Pr, i in zip(P, R):
            if Pr:
                for j, x in ineqs[i][0]:
                    red[j] += Pr * x
        enter = next((j for j, x in enumerate(red) if x < 0), None)
        if enter is None:
            enter = next((nv + j for j, x in enumerate(red) if x > 0), None)
        if enter is None:
            enter = min((2 * nv + i for Pr, i in zip(P, R) if Pr > 0), default=None)
        if enter is None:
            Dc = D * self.common
            enter = min(
                (
                    2 * nv + self.m + i
                    for Pr, i in zip(P, R)
                    if ineqs[i][1] > 0 and Dc + Pr * ineqs[i][2] < 0
                ),
                default=None,
            )
        return enter

    def leaving(self, enter: int) -> int:
        nv, m, S, A, T, Dt = self.nv, self.m, self.S, self.A, self.T, self.Dt
        cols, slack, art = self.cols, self.slack, self.art
        # g: a . Delta per class, Delta_j = -sign * u at the basic columns
        g = [0] * len(slack)
        if enter < 2 * nv:
            je, e = (enter, 1) if enter < nv else (enter - nv, -1)
            coef, row_class = self.coef, self.row_class
            col = [e * coef[row_class[i]].get(je, 0) for i in self.R]
            # u: the entering column in the rows of the basic structurals
            u = [sum(map(mul, row, col)) for row in A]
            for c, x in cols[je]:
                g[c] = x * e * self.D
        else:
            i = (enter - 2 * nv) % m
            rho = self.R.index(i)
            f = self.ineqs[i][2] if enter < 2 * nv + m else -self.ineqs[i][2]
            u = [-f * row[rho] for row in A]
        for (j, sign), uk in zip(S, u):
            if uk:
                d = -sign * uk
                for c, x in cols[j]:
                    g[c] += x * d
        # the least ratio num / den, den > 0, and the smallest label on a tie
        best = None
        for k, uk in enumerate(u):
            if uk > 0:
                j, sign = S[k]
                num, label = sign * T[j], j if sign > 0 else nv + j
                if best is not None:
                    diff = num * best[1] - best[0] * uk
                    if diff > 0 or (diff == 0 and label > best[2]):
                        continue
                best = (num, uk, label, k)
        cb, vals = self.cb, self.vals
        for c, x in enumerate(g):
            if x > 0:
                if not art[c]:
                    continue
                num, den, label = cb[c] * Dt - vals[c], x, 2 * nv + m + art[c][0]
            elif x < 0:
                if not slack[c]:
                    continue
                num, den, label = vals[c] - cb[c] * Dt, -x, 2 * nv + slack[c][0]
            else:
                continue
            if best is not None:
                diff = num * best[1] - best[0] * den
                if diff > 0 or (diff == 0 and label > best[2]):
                    continue
            best = (num, den, label, c)
        if best is None:
            raise AssertionError("internal error: unbounded phase-1 objective")
        # u, the position of a leaving structural or the class of a leaving
        # row, that class's a . Delta, and whether the point moves
        self.step = (u, best[3], g[best[3]] if best[2] >= 2 * nv else 0, best[0] > 0)
        return best[2]

    def pivot(self, enter: int, leave: int) -> None:
        nv, m, S, R, A, D = self.nv, self.m, self.S, self.R, self.A, self.D
        coef, row_class = self.coef, self.row_class
        u, kappa, g, moved = self.step
        if leave >= 2 * nv:
            # row i turns tight: its slack or artificial leaves
            i = (leave - 2 * nv) % m
            (self.slack if leave < 2 * nv + m else self.art)[row_class[i]].remove(i)
            if leave >= 2 * nv + m:
                self._add_artificial(i, -1)
            a = coef[row_class[i]]
            nu = [sign * a.get(j, 0) for j, sign in S]
            z = [sum(map(mul, nu, col)) for col in zip(*A)]
        if enter < 2 * nv:
            je, e = (enter, 1) if enter < nv else (enter - nv, -1)
            if leave < 2 * nv:
                # a column replaces column kappa
                p = u[kappa]
                pk = A[kappa]
                for k, row in enumerate(A):
                    if k != kappa:
                        A[k] = [(p * x - u[k] * y) // D for x, y in zip(row, pk)]
                S[kappa] = (je, e)
            else:
                # a column enters with row i; g is D times the Schur complement
                p = abs(g)
                eps = 1 if g > 0 else -1
                for k, row in enumerate(A):
                    c = eps * u[k]
                    A[k] = [(p * x + c * y) // D for x, y in zip(row, z)]
                    A[k].append(-c)
                A.append([-eps * y for y in z] + [eps * D])
                S.append((je, e))
                R.append(i)
        else:
            # the slack or artificial of tight row r enters, at position rho
            r = (enter - 2 * nv) % m
            rho = R.index(r)
            insort((self.slack if enter < 2 * nv + m else self.art)[row_class[r]], r)
            if enter >= 2 * nv + m:
                self._add_artificial(r, 1)
            if leave < 2 * nv:
                # row r and column kappa leave
                p = A[kappa][rho]
                eps = 1 if p > 0 else -1
                pk = A[kappa]
                self.A = A = [
                    [
                        (p * x - row[rho] * y) * eps // D
                        for c, (x, y) in enumerate(zip(row, pk))
                        if c != rho
                    ]
                    for k, row in enumerate(A)
                    if k != kappa
                ]
                del S[kappa], R[rho]
            else:
                # row i replaces row r
                p = z[rho]
                eps = 1 if p > 0 else -1
                for row in A:
                    y = row[rho]
                    row[:] = [(p * x - zl * y) * eps // D for x, zl in zip(row, z)]
                    row[rho] = eps * y
                R[rho] = i
            p = abs(p)
        self.D = p
        if moved:
            # the basic structural values A . b[R] over D, and a . T per class
            b = [self.ineqs[i][1] for i in R]
            T = self.T = [0] * nv
            vals = self.vals = [0] * len(self.cb)
            for (j, sign), row in zip(S, A):
                T[j] = t = sign * sum(map(mul, row, b))
                for c, x in self.cols[j]:
                    vals[c] += x * t
            self.Dt = p

    def point(self) -> Point | None:
        # feasible exactly when every artificial still basic is zero
        Dt = self.Dt
        if any(art and v != b * Dt for art, v, b in zip(self.art, self.vals, self.cb)):
            return None
        return self.T, Dt


def fourier_motzkin(lp: LPProblem, max_vars: int = 8) -> bool:
    """Feasibility by exact variable elimination.

    Equality constraints are substituted away by Gaussian elimination first;
    the remaining variables are eliminated one at a time from integer rows,
    folding rows with the same primitive coefficients to curb blowup.  Raises
    :class:`~coloredfans.errors.EliminationCapError` above the variable cap.

    Chernikov's rule prunes the rest: each row carries a set of the
    substituted inequalities, as a bit mask, and after k eliminations a
    combined row whose set has more than k + 1 members is dropped.  Each
    extreme combination of the inputs after k eliminations uses at most
    k + 1 of them, and the rows of those combinations describe the
    projection.  Two folded rows keep the intersection of their sets, so
    the kept row's set still lies inside that of every combination it
    stands for.
    """
    if lp.num_vars > max_vars:
        raise EliminationCapError(
            f"{lp.num_vars} variables exceed the Fourier-Motzkin cap of {max_vars}"
        )
    consistent, num_free, _, ineqs = _substitute_equalities(lp)
    if not consistent:
        return False
    dense = []
    for i, (terms, b, _) in enumerate(ineqs):
        a = [0] * num_free
        for j, v in terms:
            a[j] = v
        dense.append((tuple(a), b, 1 << i))
    rows = _normalize_rows(dense)
    if rows is None:
        return False
    remaining = list(range(num_free))
    while remaining:
        # eliminate the variable with the smallest pairing fan-out first
        costs = []
        for v in remaining:
            pos = sum(1 for a, _, _ in rows if a[v] > 0)
            neg_ = sum(1 for a, _, _ in rows if a[v] < 0)
            costs.append((pos * neg_, v))
        _, var = min(costs)
        remaining.remove(var)
        most = num_free - len(remaining) + 1
        pos_rows = [row for row in rows if row[0][var] > 0]
        neg_rows = [row for row in rows if row[0][var] < 0]
        new_rows = [row for row in rows if row[0][var] == 0]
        for ap, bp, hp in pos_rows:
            for an, bn, hn in neg_rows:
                h = hp | hn
                if h.bit_count() > most:
                    continue
                coeffs = tuple(-an[var] * x + ap[var] * y for x, y in zip(ap, an))
                new_rows.append((coeffs, -an[var] * bp + ap[var] * bn, h))
        rows = _normalize_rows(new_rows)
        if rows is None:
            return False
    return True


def _normalize_rows(rows) -> list[tuple[tuple[int, ...], int, int]] | None:
    """Primitive scaling, duplicate folding, and constant-row screening.

    Each integer row ``a . x >= b`` with its set mask ``h`` is keyed on the
    primitive part of ``a``, and of two rows with one key the one with the
    larger bound ``b / gcd(a)`` is kept, compared by cross-multiplication,
    with the intersection of their masks; a kept row is divided by the gcd
    of its entries.  Returns None as soon as a row reads 0 >= b with b > 0.
    """
    best: dict[tuple[int, ...], tuple[tuple[int, ...], int, int, int]] = {}
    for a, b, h in rows:
        g = gcd(*a)
        if not g:
            if b > 0:
                return None
            continue
        prim = tuple(x // g for x in a)
        prev = best.get(prim)
        if prev is not None:
            h &= prev[3]
            if b * prev[2] <= prev[1] * g:
                a, b, g = prev[:3]
        best[prim] = (a, b, g, h)
    out = []
    for a, b, g, h in best.values():
        k = gcd(g, b)
        if k > 1:
            a = tuple(x // k for x in a)
            b //= k
        out.append((a, b, h))
    return out

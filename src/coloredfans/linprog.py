"""Exact rational linear feasibility.

Two independent deciders over the same problem type:

* :func:`lp_feasible` -- equality pre-substitution followed by a phase-1
  simplex with Bland's anti-cycling rule on a sparse integer tableau: each
  row is kept integral over one positive scale, and pivots are
  fraction-free, so no ``Fraction`` is built inside the simplex.  Each free
  variable is split as t = p - q, and only the p half is stored: every row
  keeps the q column equal to minus the p column, so it is read off as
  such.  Rows that are equal apart from their own columns (the basic one
  and an artificial row's slack) are stored once, as a class with the basic
  labels it stands for: support LPs repeat most of their rows.  The classes
  are the groups of equal input rows; a class splits when it pivots, and
  classes never merge.  The simplex takes the pivots that a simplex over the
  rationals takes on the full tableau, and returns an exact rational
  assignment, re-verified against the problem, or ``None``.  The point is
  read off the final tableau over one common denominator, lifted through the
  equalities and re-verified in integers; its ``Fraction`` entries are built
  only on return.
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

from fractions import Fraction
from math import gcd, lcm
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


# the keys of a class's own coefficients in its row (see _phase_one)
SIGMA, TAU = -1, -2


def _phase_one(num_vars: int, ineqs: list[SparseRow]) -> Point | None:
    """Feasible point of {t : (a / s) . t >= b / s} by phase-1 simplex with Bland's rule,
    over one common denominator, or None.

    Free variables are split as t = p - q; every constraint gets a slack, and
    rows with a positive right hand side an artificial.  The tableau is
    integral and sparse; a row stands for itself over its positive
    coefficient on its basic column.  The reduced costs are the last row,
    over an implicit positive scale, with minus the objective as right hand
    side; only their signs are read, so Bland's rule compares as over the
    rationals.  Only p is stored: every row is a combination of start rows,
    whose q column is minus the p column, so column ``num_vars + j`` reads
    as ``-row[j]``.  Columns keep their labels (p, q, slacks, then the
    artificial of row i at ``2 * num_vars + m + i``) for pricing.

    Rows equal apart from their own columns (the basic one and an artificial
    row's slack, held by no other row) get the same update on every pivot
    not on them and tie in every ratio test, where Bland's rule takes the
    smallest basic label; so each class of them is stored once, and the
    pivots are those of the full tableau.  Class k has one row per basic
    label x in ``labels[k]``, sorted: ``rows[k]`` holds the columns that are
    not own, and under the keys ``SIGMA`` and ``TAU`` the coefficients of x
    and of its own slack, if any, which pivots scale and divide with the
    row.  A basic q column x reads as ``-SIGMA`` in the p column
    ``x - num_vars``.  The classes start as the groups of equal input rows;
    a pivot on a class splits off its smallest member, and classes never
    merge.  Two classes that come to be equal tie in every ratio test, where
    the smaller label leaves, as it would from one class of both, so the
    pivots stay the full tableau's.
    """
    nv = num_vars
    m = len(ineqs)
    n_struct = 2 * nv + m
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    labels: list[list[int]] = []
    first: dict[tuple, int] = {}
    # minimize the artificial sum: the reduced costs relative to the start
    # basis are minus the artificial rows, each over the common multiple of
    # their scales
    red: dict[int, int] = {}
    objective = 0
    common = lcm(*[s for _, b, s in ineqs if b > 0])
    for i, (terms, b, s) in enumerate(ineqs):
        if b > 0:
            # a.t - s * slack + s * artificial = b, the artificial basic
            c = common // s
            objective -= c * b
            for j, x in terms:
                red[j] = red.get(j, 0) - c * x
            red[2 * nv + i] = c * s
            label = n_struct + i
        else:
            label = 2 * nv + i
        n = len(rows)
        k = first.setdefault((tuple(terms), b, s), n)
        if k != n:
            labels[k].append(label)
            continue
        if b > 0:
            row = dict(terms)
            row[TAU] = -s
            rhs.append(b)
        else:
            # -a.t + s * slack = -b, the slack basic at -b / s >= 0
            row = {j: -x for j, x in terms}
            rhs.append(-b)
        row[SIGMA] = s
        rows.append(row)
        labels.append([label])
    # the reduced costs are the last class, with no member; with no
    # artificial they are empty, and the slack basis, every t_j = 0, is optimal
    red = {j: x for j, x in red.items() if x}
    rows.append(red)
    rhs.append(objective)
    labels.append([])

    while True:
        # a stored entry x prices p_j at x and q_j at -x
        enter = min(
            (j if x < 0 else nv + j for j, x in red.items() if x < 0 or j < nv), default=None
        )
        if enter is None:
            break
        col, sign = (enter - nv, -1) if nv <= enter < 2 * nv else (enter, 1)
        # the classes holding the column, and among them the minimum ratio
        # rhs / coef by cross-multiplication, ties to the smaller basic
        # column; the reduced costs are negative there, so they take no part
        hits = []
        leave = -1
        for k, row in enumerate(rows):
            coef = row.get(col)
            if coef is None:
                continue
            coef *= sign
            hits.append((k, coef))
            if coef <= 0:
                continue
            if leave >= 0:
                diff = rhs[k] * best_coef - best_rhs * coef
                if diff > 0 or (diff == 0 and labels[k][0] > labels[leave][0]):
                    continue
            leave, best_rhs, best_coef = k, rhs[k], coef
        if leave < 0:
            raise AssertionError("internal error: unbounded phase-1 objective")
        _pivot(rows, rhs, labels, leave, best_coef, hits, enter, nv, m)

    # the objective, a sum of nonnegative artificial values, is zero exactly
    # when the problem is feasible
    if rhs[-1]:
        return None
    # a basic variable is rhs over SIGMA; read all over their lcm
    n2 = 2 * nv
    basic = [(k, x) for k, members in enumerate(labels) for x in members if x < n2]
    den = lcm(*(rows[k][SIGMA] for k, _ in basic))
    values = [0] * n2
    for k, x in basic:
        values[x] = rhs[k] * (den // rows[k][SIGMA])
    return [values[j] - values[nv + j] for j in range(nv)], den


def _pivot(rows, rhs, labels, r, p, hits, enter, nv, m):
    """Pivot on class r, whose entry in the column ``enter`` is ``p > 0``;
    ``hits`` lists ``(k, f)`` for every class with entry f != 0 there.

    The smallest member leaves: its row is the pivot row, with ``enter``
    basic at ``SIGMA = p``, and the other members keep x - leave = 0, a new
    class.  Each other hit becomes ``row * (p / g) - prow * (f / g)``,
    g = gcd(p, f), divided by the gcd of its entries, own coefficients and
    right hand side, and keeps its members.  Classes split and never merge:
    the pivot class holds ``enter`` alone.
    """
    prow, pr = rows[r], rhs[r]
    members = labels[r]
    leave = members[0]
    col = enter - nv if nv <= enter < 2 * nv else enter
    del prow[col]
    sigma = prow.pop(SIGMA)
    tau = prow.pop(TAU, 0)
    lcol, lval = (leave - nv, -sigma) if nv <= leave < 2 * nv else (leave, sigma)
    prow[lcol] = lval
    if tau:
        prow[leave - m] = tau
    pitems = prow.items()
    for i, f in hits:
        if i == r:
            continue
        g = gcd(p, f)
        a, b = p // g, f // g
        row = rows[i]
        del row[col]
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
    prow[SIGMA] = p
    labels[r] = [enter]
    if len(members) > 1:
        # before the reduced costs, which stay last
        g = gcd(sigma, tau)
        rest = {lcol: -lval // g, SIGMA: sigma // g}
        if tau:
            rest[leave - m] = -tau // g
            rest[TAU] = tau // g
        rows.insert(-1, rest)
        rhs.insert(-1, 0)
        labels.insert(-1, members[1:])


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

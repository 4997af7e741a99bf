"""Exact rational linear feasibility.

Two independent deciders over the same problem type:

* :func:`lp_feasible` -- equality pre-substitution followed by a phase-1
  simplex with Bland's anti-cycling rule on a sparse integer tableau: each
  row is kept integral over one positive scale, and pivots are
  fraction-free, so no ``Fraction`` is built inside the simplex.  Each free
  variable is split as t = p - q, and only the p half is stored: every row
  keeps the q column equal to minus the p column, so it is read off as
  such.  The simplex takes the pivots that a simplex over the rationals
  takes on the full tableau, and returns an exact
  rational assignment, re-verified against the problem, or ``None``.  The
  point is read off the final tableau over one common denominator, lifted
  through the equalities and re-verified in integers; its ``Fraction``
  entries are built only on return.
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


def _phase_one(num_vars: int, ineqs: list[SparseRow]) -> Point | None:
    """Feasible point of {t : (a / s) . t >= b / s} by phase-1 simplex with Bland's rule,
    over one common denominator, or None.

    Free variables are split as t = p - q; every constraint gets a slack, and
    only rows whose right hand side is positive need an artificial variable.
    The tableau is kept integral and sparse: row i is a ``{column: int}`` map
    with an integer right hand side ``rhs[i]``, and stands for the rational
    row obtained by dividing both by the row's coefficient on its basic
    column, which stays positive.  The reduced costs form one more integral
    row, the last, with an implicit positive scale and minus the objective
    value over that scale as its right hand side; only their signs are read.  Every comparison of
    Bland's rule therefore comes out as over the rationals.

    Only the p half of each split variable is stored.  In every start row
    the q column is minus the p column, and every later row, the reduced
    costs included, is a combination of start rows, so column
    ``num_vars + j`` reads as ``-row[j]`` throughout; ``+-v`` have one gcd.
    The columns keep their labels (p, then q, then the slacks, then the
    artificials), so pricing takes the smallest label with a negative reduced
    cost, as over the full tableau.
    """
    nv = num_vars
    m = len(ineqs)
    n_struct = 2 * nv + m
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    basis: list[int] = []
    next_art = n_struct
    for i, (terms, b, s) in enumerate(ineqs):
        if b > 0:
            # a.t - s * slack + s * artificial = b, the artificial basic
            row = dict(terms)
            row[2 * nv + i] = -s
            row[next_art] = s
            basis.append(next_art)
            next_art += 1
            rhs.append(b)
        else:
            # -a.t + s * slack = -b, the slack basic at -b / s >= 0
            row = {j: -c for j, c in terms}
            row[2 * nv + i] = s
            basis.append(2 * nv + i)
            rhs.append(-b)
        rows.append(row)

    # minimize the artificial sum: reduced costs relative to the start basis,
    # each artificial row over the common multiple of their scales
    art_rows = [i for i in range(m) if basis[i] >= n_struct]
    common = lcm(*(rows[i][basis[i]] for i in art_rows))
    red: dict[int, int] = {}
    objective = 0
    for i in art_rows:
        row = rows[i]
        k = common // row[basis[i]]
        objective -= k * rhs[i]
        for j, x in row.items():
            if j < n_struct:
                red[j] = red.get(j, 0) - k * x
    red = {j: x for j, x in red.items() if x}
    rows.append(red)
    rhs.append(objective)

    while True:
        # a stored entry x prices p_j at x and q_j at -x
        enter = min(
            (j if x < 0 else nv + j for j, x in red.items() if x < 0 or j < nv), default=None
        )
        if enter is None:
            break
        col, sign = (enter - nv, -1) if nv <= enter < 2 * nv else (enter, 1)
        # the rows holding the column, and among them the minimum ratio
        # rhs / coef by cross-multiplication, ties to the smaller basic
        # column; the reduced costs are negative there, so they take no part
        hits = []
        leave = -1
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
        _pivot(rows, rhs, leave, best_coef, hits)
        basis[leave] = enter

    # the objective, a sum of nonnegative artificial values, is zero exactly
    # when the problem is feasible
    if rhs[m]:
        return None
    # a basic variable is rhs[i] over its coefficient; read all over their lcm
    basic = [
        (i, col, rows[i][col] if col < nv else -rows[i][col - nv])
        for i, col in enumerate(basis)
        if col < 2 * nv
    ]
    den = lcm(*(coef for _, _, coef in basic))
    values = [0] * (2 * nv)
    for i, col, coef in basic:
        values[col] = rhs[i] * (den // coef)
    return [values[j] - values[nv + j] for j in range(nv)], den


def _pivot(rows, rhs, r, p, hits):
    """One pivot on row r of the integral tableau, whose entry in the
    entering column is ``p > 0``.

    ``hits`` lists ``(i, f)`` for every row holding the entering column,
    the reduced costs included, with ``f`` its entry there.  Every such row
    but row r loses the column as ``row * (p / g) - prow * (f / g)``,
    g = gcd(p, f), on both sides, and is then divided by the gcd of its
    entries and right hand side.  The pivot row is left as it is: its entry
    in the column becomes its scale.
    """
    prow = rows[r]
    pitems = prow.items()
    pr = rhs[r]
    for i, f in hits:
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

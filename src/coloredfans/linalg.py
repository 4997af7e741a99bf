"""Exact rational vectors and matrices.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of such
rows, except that :func:`identity` has ``int`` entries and :func:`matmul`
multiplies ints as ints.  Everything here is pure and exact: no float ever
enters or leaves.  The public helpers serve the small matrices of group
actions, morphisms and color placements; cones and LPs compute on integer
rows.

Elimination runs on integers: each input row is scaled by the lcm of its
denominators, and Gauss-Jordan elimination is fraction-free, every row
divided by the gcd of its entries after each step.  ``_echelon`` is the one
elimination routine.  :func:`rank` is its pivot count and builds no
``Fraction``; the cone engine's echelon bases and the LP layer's equality
substitution read its reduced rows; and ``_scaled_inverse`` runs it on
``[A | I]`` to invert an integer matrix up to one positive scale, the one
inverse routine: the lattice check of a group element and the image of a
cone under an invertible matrix both read it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

RatVec = tuple[Fraction, ...]
RatMat = tuple[RatVec, ...]
IntVec = tuple[int, ...]

F0 = Fraction(0)
F1 = Fraction(1)


def vec(values: Iterable) -> RatVec:
    return tuple(Fraction(x) for x in values)


def mat(rows: Iterable[Iterable]) -> RatMat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("matrix rows have inconsistent lengths")
    return out


def is_zero(v: Sequence[Fraction]) -> bool:
    return not any(v)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), F0)


def neg(v: Sequence[Fraction]) -> RatVec:
    return tuple(-a for a in v)


def matvec(m: RatMat, v: Sequence[Fraction]) -> RatVec:
    return tuple(dot(row, v) for row in m)


def matmul(a: RatMat, b: RatMat) -> RatMat:
    """The matrix product: int entries multiply as ints, and a ``Fraction``
    makes its entries ``Fraction``s.  ValueError when a row of ``a`` does not
    match the row count of ``b``, or when the rows of ``b`` differ in length,
    which reading its columns with ``zip`` would truncate."""
    for row in a:
        if len(row) != len(b):
            raise ValueError(f"dimension mismatch: {len(row)} vs {len(b)}")
    cols = transpose(b)
    if any(len(row) != len(cols) for row in b):
        raise ValueError("matrix rows have inconsistent lengths")
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def transpose(m: RatMat) -> RatMat:
    return tuple(zip(*m)) if m else ()


def identity(n: int) -> RatMat:
    """The n x n identity, its entries ``int``."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _over_common_denominator(values: Iterable) -> tuple[list[int], int]:
    """(integers, d) with d > 0 the lcm of the denominators: the values times d."""
    values = list(values)
    try:
        den = lcm(*(x.denominator for x in values))
    except AttributeError:
        # floats and strings: exact rationals, as vec makes them
        values = vec(values)
        den = lcm(*(x.denominator for x in values))
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (den // x.denominator) for x in values], den


def _integral_rows(rows: Iterable[Sequence]) -> list[list[int]]:
    """Each row times the lcm of its denominators; rows must share one length."""
    out = [_over_common_denominator(r)[0] for r in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("matrix rows have inconsistent lengths")
    return out


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _combine(a: int, row: Sequence[int], b: int, prow: Sequence[int]) -> tuple[int, ...]:
    """``(a * row - b * prow) / g`` with g the gcd of its entries."""
    out = [a * x - b * y for x, y in zip(row, prow)]
    g = gcd(*out)
    if g > 1:
        return tuple([x // g for x in out])
    return tuple(out)


def _echelon(rows: Iterable[Sequence[int]]) -> tuple[list[Sequence[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows of one length.

    Returns (rows, pivot columns): the row space's reduced echelon form with
    row i scaled by the positive integer ``rows[i][pivots[i]]``, each row
    primitive.
    """
    work = [r for r in rows if any(r)]
    pivots: list[int] = []
    if not work:
        return [], pivots
    k = 0
    for col in range(len(work[0])):
        pivot_row = next((i for i in range(k, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        prow = work[pivot_row]
        g = gcd(*prow)
        if prow[col] < 0:
            g = -g
        if g != 1:
            prow = tuple([x // g for x in prow])
        work[pivot_row] = work[k]
        work[k] = prow
        p = prow[col]
        for i, row in enumerate(work):
            f = row[col]
            if f and i != k:
                g = gcd(p, f)
                work[i] = _combine(p // g, row, f // g, prow)
        pivots.append(col)
        k += 1
        if k == len(work):
            break
    return work[:k], pivots


def _scaled_inverse(rows: Sequence[Sequence[int]]) -> tuple[list[IntVec], int] | None:
    """(d times the inverse, d) of a square integer matrix, with d > 0 the
    least integer that makes it integral; None when the matrix is singular.

    One fraction-free elimination of ``[A | I]``: its reduced row i is
    ``c_i * (e_i | row i of the inverse)``, primitive, so ``c_i`` is the lcm
    of the denominators of row i and d is the lcm of the ``c_i``.  For an
    integer matrix, d is 1 exactly when the determinant is +-1.
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = _echelon(aug)
    if pivots != list(range(n)):
        return None
    d = lcm(*(row[i] for i, row in enumerate(reduced)))
    return [tuple([x * (d // row[i]) for x in row[n:]]) for i, row in enumerate(reduced)], d


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    """The rank of rational rows of one length: the pivot count of their
    echelon form.  ValueError when the rows have different lengths."""
    return len(_echelon(_integral_rows(rows))[1])

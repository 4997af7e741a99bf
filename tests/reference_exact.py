"""Reference exact core over ``fractions.Fraction``, for tests only.

This is the rational double description, canonicalisation, reduced row
echelon form, LP re-verification and LP assembly that ``coloredfans`` used
before its integer core.  The integer code must give exactly the same
canonical cone fields, echelon forms, ranks, kernels, inverses, verdicts and
LPs, so the two are compared input by input.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from coloredfans.linalg import _combine as _int_combine
from coloredfans.linalg import _dot as _int_dot
from coloredfans.linprog import LPProblem

F0 = Fraction(0)
F1 = Fraction(1)


def _vec(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in values)


def _dot(u, v) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), F0)


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _scale(v, c):
    return tuple(c * a for a in v)


def _neg(v):
    return tuple(-a for a in v)


def _primitive(v):
    if not any(v):
        return tuple(F0 for _ in v)
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    return tuple(Fraction(i // g) for i in ints)


# -- elimination ----------------------------------------------------------


def reference_rref(rows):
    """Reduced row echelon form by Fraction Gauss-Jordan elimination."""
    work = [list(_vec(r)) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    rank_so_far = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank_so_far, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[rank_so_far], work[pivot_row] = work[pivot_row], work[rank_so_far]
        prow = work[rank_so_far]
        inv = 1 / prow[col]
        work[rank_so_far] = prow = [x * inv for x in prow]
        for i, row in enumerate(work):
            if i != rank_so_far and row[col]:
                f = row[col]
                work[i] = [x - f * p for x, p in zip(row, prow)]
        pivots.append(col)
        rank_so_far += 1
        if rank_so_far == len(work):
            break
    return tuple(tuple(r) for r in work[: len(pivots)]), tuple(pivots)


def reference_rank(rows) -> int:
    return len(reference_rref(rows)[0])


def reference_invert(m):
    n = len(m)
    aug = [list(row) + [F1 if i == j else F0 for j in range(n)] for i, row in enumerate(m)]
    reduced, pivots = reference_rref(aug)
    if pivots != tuple(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced)


def reference_subspace_basis(vectors):
    reduced, _ = reference_rref(vectors)
    return tuple(_primitive(r) for r in reduced)


def _reduce_mod_subspace(v, basis):
    out = _vec(v)
    for row in basis:
        p = next(i for i, x in enumerate(row) if x)
        if out[p]:
            out = _sub(out, _scale(row, out[p] / row[p]))
    return out


# -- double description ----------------------------------------------------


def reference_dd(rows, dim):
    """(lineality basis, extreme rays) of {x : r . x >= 0}, over the rationals."""
    lin = [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    rays = []
    for idx, a in enumerate(rows):
        lin_vals = [_dot(a, b) for b in lin]
        if any(lin_vals):
            j0 = next(i for i, v in enumerate(lin_vals) if v)
            b0, v0 = lin[j0], lin_vals[j0]
            if v0 < 0:
                b0, v0 = _neg(b0), -v0
            lin = [
                _sub(b, _scale(b0, v / v0))
                for i, (b, v) in enumerate(zip(lin, lin_vals))
                if i != j0
            ]
            rays = [
                (_primitive(_sub(r, _scale(b0, _dot(a, r) / v0))), tight | {idx})
                for r, tight in rays
            ]
            rays.append((_primitive(b0), frozenset(range(idx))))
        else:
            plus, minus, kept = [], [], []
            for r, tight in rays:
                v = _dot(a, r)
                if v > 0:
                    plus.append((r, tight, v))
                    kept.append((r, tight))
                elif v < 0:
                    minus.append((r, tight, v))
                else:
                    kept.append((r, tight | {idx}))
            target = dim - len(lin) - 2
            if target >= 0:
                for rp, tp, vp in plus:
                    for rm, tm, vm in minus:
                        common = tp & tm
                        if reference_rank([rows[i] for i in common]) != target:
                            continue
                        w = _sub(_scale(rm, vp), _scale(rp, vm))
                        kept.append((_primitive(w), common | {idx}))
            rays = kept
    return lin, [r for r, _ in rays]


def reference_integer_dd(rows, dim):
    """The integer double description of ``cones._dd``, its tight sets kept
    as frozensets and each adjacency test counting every ray: the same
    lineality basis and the same rays, in the same order."""
    lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []
    for idx, a in enumerate(rows):
        lin_vals = [_int_dot(a, b) for b in lin]
        if any(lin_vals):
            j0 = next(i for i, v in enumerate(lin_vals) if v)
            b0, v0 = lin[j0], lin_vals[j0]
            if v0 < 0:
                b0, v0 = tuple(-x for x in b0), -v0
            lin = [
                _int_combine(v0, b, v, b0)
                for i, (b, v) in enumerate(zip(lin, lin_vals))
                if i != j0
            ]
            rays = [
                (_int_combine(v0, r, _int_dot(a, r), b0), tight | {idx})
                for r, tight in rays
            ]
            rays.append((b0, frozenset(range(idx))))
        else:
            plus, minus, kept = [], [], []
            for r, tight in rays:
                v = _int_dot(a, r)
                if v > 0:
                    plus.append((r, tight, v))
                    kept.append((r, tight))
                elif v < 0:
                    minus.append((r, tight, v))
                else:
                    kept.append((r, tight | {idx}))
            for rp, tp, vp in plus:
                for rm, tm, vm in minus:
                    common = tp & tm
                    if sum(common <= tight for _, tight in rays) == 2:
                        kept.append((_int_combine(vp, rm, vm, rp), common | {idx}))
            rays = kept
    return lin, [r for r, _ in rays]


def _canonical_rays(raw, lineality):
    out = set()
    for r in raw:
        rr = _primitive(_reduce_mod_subspace(r, lineality))
        if any(rr):
            out.add(rr)
    return tuple(sorted(out))


def _fields(lin, rays, dual_lin, dual_rays):
    lineality = reference_subspace_basis(lin)
    span_eq = reference_subspace_basis(dual_lin)
    return (
        _canonical_rays(rays, lineality),
        lineality,
        _canonical_rays(dual_rays, span_eq),
        span_eq,
    )


def reference_cone_from_generators(gens, dim):
    """(rays, lineality_basis, facet_normals, span_equations) of the cone."""
    rows = [_vec(g) for g in gens]
    dual_lin, dual_rays = reference_dd(rows, dim)
    ineqs = []
    for b in dual_lin:
        ineqs.append(_primitive(b))
        ineqs.append(_primitive(_neg(b)))
    ineqs.extend(dual_rays)
    lin, rays = reference_dd(ineqs, dim)
    return _fields(lin, rays, dual_lin, dual_rays)


def reference_cone_from_inequalities(ineqs, dim):
    """(rays, lineality_basis, facet_normals, span_equations) of the cone."""
    rows = [_vec(a) for a in ineqs]
    lin, rays = reference_dd(rows, dim)
    gens = list(rays)
    for b in lin:
        gens.append(b)
        gens.append(_neg(b))
    dual_lin, dual_rays = reference_dd(gens, dim)
    return _fields(lin, rays, dual_lin, dual_rays)


# -- LP re-verification ----------------------------------------------------


def reference_satisfied_by(lp: LPProblem, x: Sequence[Fraction]) -> bool:
    return all(_dot(a, x) == b for a, b in lp.eq_constraints) and all(
        _dot(a, x) >= b for a, b in lp.ineq_constraints
    )


# -- LP assembly -----------------------------------------------------------


def reference_relint_lp(datum, cone, *others) -> LPProblem:
    """The LP of ``colored.relative_interior_meets``, from the Fraction fields."""
    ineqs = []
    for body in (cone, *others):
        ineqs.extend((a, F0) for a in body.inequalities)
        ineqs.extend((a, F1) for a in body.facet_normals)
    ineqs.extend((a, F0) for a in datum.valuation_cone.inequalities)
    return LPProblem(datum.dim, ineq_constraints=tuple(ineqs))


def reference_support_lp(datum, maximal) -> LPProblem:
    """The LP of ``quasiproj.build_support_lp`` for the given maximal members,
    from the Fraction fields."""
    n = datum.dim
    num_vars = n * len(maximal)

    def difference_row(k, l, g):
        row = [F0] * num_vars
        for t in range(n):
            row[n * k + t] += g[t]
            row[n * l + t] -= g[t]
        return tuple(row)

    eqs = []
    for k in range(len(maximal)):
        for l in range(k + 1, len(maximal)):
            shared = maximal[k].cone.intersect(maximal[l].cone)
            for g in shared.rays + shared.lineality_basis:
                eqs.append((difference_row(k, l, g), F0))
    ineqs = []
    for k, zk in enumerate(maximal):
        part = zk.cone.intersect(datum.valuation_cone)
        witness = tuple(sum(col, F0) for col in zip(*part.rays)) or (F0,) * n
        for l in range(len(maximal)):
            if l == k:
                continue
            for g in part.rays:
                ineqs.append((difference_row(k, l, g), F0))
            for b in part.lineality_basis:
                ineqs.append((difference_row(k, l, b), F0))
                ineqs.append((difference_row(k, l, _neg(b)), F0))
            ineqs.append((difference_row(k, l, witness), F1))
    return LPProblem(num_vars, tuple(eqs), tuple(ineqs))

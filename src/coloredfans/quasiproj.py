"""Quasiprojectivity of a colored fan as an exact LP feasibility problem.

A fan is quasiprojective when each maximal cone Z carries a linear form l_Z
such that (1) the forms of two maximal cones agree on their intersection and
(2) for distinct maximal cones Z, Z' the difference l_Z - l_Z' is strictly
positive on the valuation vectors interior to Z.  The strict condition is
reduced to finitely many rows: nonnegativity on the rays of Z intersected
with the valuation cone plus value >= 1 at one relative-interior witness,
which is equivalent by homogeneity and convexity.

Variables are assigned to maximal cones only; faces inherit their parents'
forms through condition (1), so quantifying the strict condition over
face/parent pairs would contradict it and is deliberately avoided.

The LP is decided on two routes, which give the same verdict:

* the all-pairs LP (:func:`_support_lp`, solved by :func:`_support_forms`),
  whose Bland point gives the forms.  :func:`is_quasiprojective` and
  :func:`build_support_lp` validate the fan and find its maximal members by
  colored faces; CLI ``quasiproj`` reads the maximal cones off the loaded
  fan's closure, builds the LP with :func:`_support_lp` and hands it to
  :func:`_support_forms`.  :func:`build_support_lp` returns this LP, and the
  other two return or print its forms.
* row generation (:func:`_support_feasible`), for a caller that needs only
  the verdict: ``galois._k_form``, on each orbit fan's closure.  It starts
  from the row blocks of the pairs of maximal cones that share a wall and
  adds the blocks that its point violates.

Both build their rows in one place (:func:`_support_rows`), from the parts
K_k = Z_k ∩ V that the caller hands in.  :func:`_support_feasible` and CLI
``quasiproj`` take them from :func:`colored._valuation_part`, which is Z_k
itself, with no double description, when Z_k lies in V.  Only
:func:`build_support_lp` intersects every maximal cone with V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    _valuation_part,
    colored_faces,
    validate_colored_fan,
)
from .cones import Cone, _ray_sum
from .errors import InvalidFanError
from .linalg import RatVec, _over_common_denominator
from .linprog import LPProblem, SparseRow, lp_feasible


@dataclass(frozen=True)
class SupportForm:
    """The linear form attached to one maximal colored cone."""

    cone: ColoredCone
    coefficients: RatVec


@dataclass(frozen=True)
class QuasiprojectivityResult:
    verdict: bool
    witness: tuple[SupportForm, ...] | None


def maximal_members(datum: SphericalDatum, fan: ColoredFan) -> tuple[ColoredCone, ...]:
    """Members that are not proper colored faces of another member, in fan order."""
    proper_face_keys = set()
    for cc in fan:
        for face in colored_faces(datum, cc):
            if face.key() != cc.key():
                proper_face_keys.add(face.key())
    return tuple(cc for cc in fan if cc.key() not in proper_face_keys)


def build_support_lp(
    datum: SphericalDatum, fan: ColoredFan, check: bool = True
) -> LPProblem:
    """Assemble the support-form feasibility LP for a validated fan.

    Variables are the n coefficients of one linear form per maximal cone, in
    fan order.  Constraint blocks, in deterministic order:

    * condition (1): for every unordered pair of maximal cones and every
      generator g of their intersection, (l_Z - l_Z') . g = 0;
    * condition (2): for every ordered pair (Z, Z'), with K the intersection
      of Z's cone with the valuation cone, (l_Z - l_Z') . g >= 0 on the
      generators of K and (l_Z - l_Z') . w >= 1 at w = interior_point(K).
    """
    if check:
        validate_colored_fan(datum, fan).require(InvalidFanError, "fan failed validation")
    maximal = maximal_members(datum, fan)
    # Cone.intersect, not _valuation_part: bench/run.py pins the double
    # descriptions of is_quasiprojective(check=True) on the twisted cube by
    # equality (TWISTED_CUBE_COUNTS), these among them
    parts = [cc.cone.intersect(datum.valuation_cone) for cc in maximal]
    return _support_lp(datum, maximal, parts)


def _support_lp(
    datum: SphericalDatum, maximal: Sequence[ColoredCone], parts: Sequence[Cone]
) -> LPProblem:
    """The LP of :func:`build_support_lp` posed on the given maximal cones,
    given their parts K_k = Z_k ∩ V."""
    eqs, blocks, _ = _support_rows(datum, maximal, parts)
    ineqs = [row for block in blocks for row in block]
    return LPProblem._from_integral(datum.dim * len(maximal), eqs, ineqs)


def _valuation_parts(datum: SphericalDatum, maximal: Sequence[ColoredCone]) -> list[Cone]:
    """K_k = Z_k ∩ V for each maximal cone, by :func:`colored._valuation_part`."""
    return [_valuation_part(datum, cc.cone) for cc in maximal]


def _support_rows(
    datum: SphericalDatum, maximal: Sequence[ColoredCone], parts: Sequence[Cone]
) -> tuple[list[SparseRow], list[list[SparseRow]], list[bool]]:
    """The rows of :func:`_support_lp` on ``maximal``, given ``parts``, the
    cones K_k = Z_k ∩ V in order: the equality rows, the inequality rows in
    blocks, one per ordered pair (k, l), k != l, in that order (the
    generators of K_k, then the witness row), and per block whether Z_k and
    Z_l share a wall: dim(Z_k ∩ Z_l) = dim Z_k - 1."""
    n = datum.dim

    def difference_row(k: int, l: int, g: Sequence[int]) -> list[tuple[int, int]]:
        """The nonzero terms of (l_Z - l_Z') . g, columns increasing."""
        plus = [(n * k + t, x) for t, x in enumerate(g) if x]
        minus = [(n * l + t, -x) for t, x in enumerate(g) if x]
        return plus + minus if k < l else minus + plus

    # every vector below is integral, so each row is over the scale s = 1
    eqs = []
    shared_dims = {}
    for k in range(len(maximal)):
        for l in range(k + 1, len(maximal)):
            shared = maximal[k].cone.intersect(maximal[l].cone)
            shared_dims[k, l] = shared_dims[l, k] = shared.dim
            for g in shared._rays + shared._lineality:
                eqs.append((difference_row(k, l, g), 0, 1))
    blocks, walls = [], []
    for k, (zk, valuation_part) in enumerate(zip(maximal, parts)):
        gens = valuation_part._generators()
        witness = _ray_sum(valuation_part._rays, n)
        for l in range(len(maximal)):
            if l == k:
                continue
            block = [(difference_row(k, l, g), 0, 1) for g in gens]
            block.append((difference_row(k, l, witness), 1, 1))
            blocks.append(block)
            walls.append(shared_dims[k, l] == zk.cone.dim - 1)
    return eqs, blocks, walls


def _support_feasible(datum: SphericalDatum, maximal: Sequence[ColoredCone]) -> bool:
    """Whether the LP of :func:`_support_lp` on ``maximal`` is feasible, by
    row generation from the blocks of the pairs that share a wall.

    Each round solves the equality rows and the active blocks.  No point
    means no point of the full LP, whose rows include them.  A point that
    holds, in exact integer dot products, on every other block solves the
    full LP; otherwise the blocks it violates join and the round repeats,
    ending at the full LP at worst.  With no wall block the full LP is
    solved at once: the equality rows alone give the origin, which fails
    every witness row, so every block would join.
    """
    eqs, blocks, active = _support_rows(datum, maximal, _valuation_parts(datum, maximal))
    num_vars = datum.dim * len(maximal)
    if not any(active):
        active = [True] * len(blocks)
    while True:
        rows = [row for block, on in zip(blocks, active) if on for row in block]
        x = lp_feasible(LPProblem._from_integral(num_vars, eqs, rows))
        if x is None:
            return False
        point = _over_common_denominator(x)
        violated = [
            not on and not LPProblem._from_integral(num_vars, [], block)._holds_at(*point)
            for block, on in zip(blocks, active)
        ]
        if not any(violated):
            return True
        active = [on or bad for on, bad in zip(active, violated)]


def _support_ineq_rows(parts: Sequence[Cone]) -> int:
    """The inequality rows of :func:`_support_lp` on m maximal cones with
    the parts ``parts``, counted before any is built: m - 1 per generator of
    each K_k = Z_k ∩ V and per witness."""
    m = len(parts)
    return sum((m - 1) * (len(part._generators()) + 1) for part in parts)


def is_quasiprojective(
    datum: SphericalDatum, fan: ColoredFan, check: bool = True
) -> QuasiprojectivityResult:
    """Decide quasiprojectivity; on success return re-verified support forms."""
    if check:
        validate_colored_fan(datum, fan).require(InvalidFanError, "fan failed validation")
    maximal = maximal_members(datum, fan)
    return _support_forms(datum, maximal, build_support_lp(datum, fan, check=False))


def _support_forms(
    datum: SphericalDatum, maximal: Sequence[ColoredCone], lp: LPProblem
) -> QuasiprojectivityResult:
    """Solve ``lp``, the support LP posed on the maximal cones ``maximal``,
    and attach its forms to those cones, in order.  The cones are not
    checked: they must be the maximal members of a validated fan."""
    assignment = lp_feasible(lp)
    if assignment is None:
        return QuasiprojectivityResult(False, None)
    n = datum.dim
    forms = tuple(
        SupportForm(cc, assignment[n * k : n * (k + 1)])
        for k, cc in enumerate(maximal)
    )
    return QuasiprojectivityResult(True, forms)

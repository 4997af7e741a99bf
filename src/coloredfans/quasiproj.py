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

:func:`is_quasiprojective` validates the fan and finds its maximal members
by colored faces.  A caller that already holds the maximal cones of a
validated fan -- the CLI reads them off the loaded fan's closure, and
``galois._k_form`` off each orbit fan's closure -- skips both and calls
:func:`_support_forms`, the solve and the forms that every route shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .colored import ColoredCone, ColoredFan, SphericalDatum, colored_faces, validate_colored_fan
from .cones import _ray_sum
from .errors import InvalidFanError
from .linalg import RatVec
from .linprog import LPProblem, lp_feasible


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
    return _support_lp(datum, maximal_members(datum, fan))


def _support_lp(datum: SphericalDatum, maximal: Sequence[ColoredCone]) -> LPProblem:
    """The LP of :func:`build_support_lp` posed on the given maximal cones."""
    n = datum.dim
    num_vars = n * len(maximal)

    def difference_row(k: int, l: int, g: Sequence[int]) -> list[tuple[int, int]]:
        """The nonzero terms of (l_Z - l_Z') . g, columns increasing."""
        plus = [(n * k + t, x) for t, x in enumerate(g) if x]
        minus = [(n * l + t, -x) for t, x in enumerate(g) if x]
        return plus + minus if k < l else minus + plus

    # every vector below is integral, so each row is over the scale s = 1
    eqs = []
    for k in range(len(maximal)):
        for l in range(k + 1, len(maximal)):
            shared = maximal[k].cone.intersect(maximal[l].cone)
            for g in shared._rays + shared._lineality:
                eqs.append((difference_row(k, l, g), 0, 1))
    ineqs = []
    for k, zk in enumerate(maximal):
        valuation_part = zk.cone.intersect(datum.valuation_cone)
        witness = _ray_sum(valuation_part._rays, n)
        for l in range(len(maximal)):
            if l == k:
                continue
            for g in valuation_part._generators():
                ineqs.append((difference_row(k, l, g), 0, 1))
            ineqs.append((difference_row(k, l, witness), 1, 1))
    return LPProblem._from_integral(num_vars, eqs, ineqs)


def is_quasiprojective(
    datum: SphericalDatum, fan: ColoredFan, check: bool = True
) -> QuasiprojectivityResult:
    """Decide quasiprojectivity; on success return re-verified support forms."""
    if check:
        validate_colored_fan(datum, fan).require(InvalidFanError, "fan failed validation")
    maximal = maximal_members(datum, fan)
    return _support_forms(datum, maximal, build_support_lp(datum, fan, check=False))


def _support_forms(
    datum: SphericalDatum, maximal: Sequence[ColoredCone], lp: LPProblem | None = None
) -> QuasiprojectivityResult:
    """Solve the support LP posed on the maximal cones ``maximal`` (``lp``
    when it is already built, else :func:`_support_lp`) and attach its forms
    to those cones, in order.  The cones are not checked: they must be the
    maximal members of a validated fan."""
    assignment = lp_feasible(_support_lp(datum, maximal) if lp is None else lp)
    if assignment is None:
        return QuasiprojectivityResult(False, None)
    n = datum.dim
    forms = tuple(
        SupportForm(cc, assignment[n * k : n * (k + 1)])
        for k, cc in enumerate(maximal)
    )
    return QuasiprojectivityResult(True, forms)

"""The reductive-monoid specialization and colored-fan morphisms.

A monoid cone is a single colored cone carrying *all* colors of the datum,
strictly convex, generated by the placed colors together with valuation
vectors; its face closure is the whole (simple) fan.  Because the underlying
variety is affine, the k-form criterion degenerates to invariance of that
simple fan under the Galois action, and that is the one check run.

Fan morphisms are checked against supplied morphism data: a surjective
linear map that carries the source valuation cone onto the target one, plus
a partial color assignment whose complement is the user-declared set of
dominantly-mapped colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    _closure_axioms,
    fan_from_maximal_cones,
)
from .cones import cone_from_generators
from .errors import InvalidColoredConeError, MonoidConeError, NotInvolutionError, SemanticError
from .galois import GroupAction, is_fan_invariant
from .linalg import RatMat, identity, mat, matmul, matvec, neg, rank, vec
from .reports import ValidationReport


@dataclass(frozen=True)
class MonoidConeResult:
    verdict: bool
    report: ValidationReport


def is_monoid_cone(datum: SphericalDatum, cc: ColoredCone) -> MonoidConeResult:
    """Check the monoid-cone conditions: all colors chosen, C1 with the full
    color set, C2, C3, C4, with no LP (:func:`colored._closure_axioms`)."""
    datum.check_colors(cc.colors)
    report = ValidationReport(subject=f"monoid cone {cc.describe()}")
    report.record(
        "all_colors",
        set(cc.colors) == set(datum.colors),
        f"cone must carry every color; missing {sorted(set(datum.colors) - set(cc.colors))}",
    )
    axioms = _closure_axioms(datum, ColoredCone(cc.cone, frozenset(datum.colors)))[0]
    for name in ("C1", "C2", "C3", "C4"):
        report.checks[name] = axioms.checks[name]
    report.reasons.extend(axioms.reasons)
    return MonoidConeResult(report.passed, report)


def monoid_cone_from_valuations(
    datum: SphericalDatum, vs: Iterable[Sequence]
) -> ColoredCone:
    """Build the monoid cone generated by all placed colors and the given
    valuation vectors; raises :class:`MonoidConeError` naming the first
    failed axiom."""
    vectors = [vec(v) for v in vs]
    for v in vectors:
        if not datum.valuation_cone.contains(v):
            raise ValueError(f"generator {v} is outside the valuation cone")
    gens = [datum.rho(name) for name in sorted(datum.colors)]
    gens.extend(vectors)
    cc = ColoredCone(cone_from_generators(gens, datum.dim), frozenset(datum.colors))
    result = is_monoid_cone(datum, cc)
    if not result.verdict:
        failed = [name for name, ok in result.report.checks.items() if not ok]
        raise MonoidConeError(f"construction violates {', '.join(failed)}")
    return cc


def monoid_has_k_form(datum: SphericalDatum, action: GroupAction, cc: ColoredCone) -> bool:
    """k-form existence for a monoid cone: invariance of its face closure.

    The quasiprojectivity side holds on its own (the monoid is affine), and
    ``has_k_form(check=False)`` on the closure gives the same verdict.  On a
    fan that is not invariant both answer no.  On an invariant one:

    * every image of a member is a face of the cone Z;
    * Z has the top dimension, so it is handled first, and its orbit
      closure is the whole face fan, with Z as its only maximal cone and no
      overlap, all its members being faces of Z;
    * a support LP on one cone has no row, so it is feasible, and every
      other orbit lies inside that closure and is skipped.

    The closure checks the cone against C1-C4 once and names a failure;
    :func:`is_monoid_cone` runs only to name a cone that misses a color.
    """
    if datum.check_colors(cc.colors) != set(datum.colors):
        is_monoid_cone(datum, cc).report.require(MonoidConeError, "not a monoid cone")
    try:
        fan = fan_from_maximal_cones(datum, [cc])
    except InvalidColoredConeError as exc:
        raise MonoidConeError(str(exc)) from None
    return is_fan_invariant(datum, action, fan)


@dataclass(frozen=True)
class MorphismData:
    """A surjective linear map between two spherical data plus color bookkeeping.

    ``dominant_colors`` are source colors declared to map dominantly; the
    color map must be defined exactly on the remaining colors.
    """

    matrix: RatMat
    color_map: tuple[tuple[str, str], ...] = ()
    dominant_colors: frozenset[str] = frozenset()

    @staticmethod
    def make(
        matrix,
        color_map: Mapping[str, str] | None = None,
        dominant_colors: Iterable[str] = (),
    ) -> "MorphismData":
        return MorphismData(
            mat(matrix),
            tuple(sorted((color_map or {}).items())),
            frozenset(dominant_colors),
        )

    @property
    def color_map_dict(self) -> dict[str, str]:
        return dict(self.color_map)


def validate_morphism_data(
    datum_src: SphericalDatum, datum_dst: SphericalDatum, m: MorphismData
) -> None:
    """Raise :class:`SemanticError` on any violated morphism-data invariant."""
    rows = m.matrix
    if len(rows) != datum_dst.dim or any(len(r) != datum_src.dim for r in rows):
        raise SemanticError(
            f"morphism matrix must be {datum_dst.dim} x {datum_src.dim}"
        )
    if rank(rows) != datum_dst.dim:
        raise SemanticError("morphism matrix is not surjective (row rank deficient)")
    mapped = set(m.color_map_dict)
    expected = set(datum_src.colors) - m.dominant_colors
    if not m.dominant_colors <= set(datum_src.colors):
        raise SemanticError("dominant colors must be source colors")
    if mapped != expected:
        raise SemanticError(
            "color map must be defined exactly on the non-dominant source colors"
        )
    if not set(m.color_map_dict.values()) <= set(datum_dst.colors):
        raise SemanticError("color map hits labels outside the target datum")
    if datum_src.valuation_cone.image(rows) != datum_dst.valuation_cone:
        raise SemanticError(
            "the matrix does not carry the source valuation cone onto the target one"
        )


@dataclass(frozen=True)
class MorphismCheckResult:
    verdict: bool
    assignment: tuple[tuple[ColoredCone, ColoredCone], ...]
    reasons: tuple[str, ...] = ()


def check_fan_morphism(
    datum_src: SphericalDatum,
    datum_dst: SphericalDatum,
    m: MorphismData,
    fan_src: ColoredFan,
    fan_dst: ColoredFan,
) -> MorphismCheckResult:
    """Decide whether the morphism data maps one fan into the other.

    Every source member must land inside some target member: the image cone
    contained in the target cone, and the mapped non-dominant colors among
    the target colors.  The first matching target in fan order is recorded.
    """
    validate_morphism_data(datum_src, datum_dst, m)
    return _fan_morphism(m, fan_src, fan_dst)


def _fan_morphism(
    m: MorphismData, fan_src: ColoredFan, fan_dst: ColoredFan
) -> MorphismCheckResult:
    """The verdict of :func:`check_fan_morphism` on morphism data that
    passed :func:`validate_morphism_data`."""
    cmap = m.color_map_dict
    assignment = []
    reasons = []
    for cc in fan_src:
        # a cone lies in a target cone exactly when its generators' images do
        images = [matvec(m.matrix, g) for g in cc.cone.generators()]
        needed = {cmap[c] for c in cc.colors if c not in m.dominant_colors}
        target = None
        for candidate in fan_dst:
            if needed <= candidate.colors and all(candidate.cone.contains(v) for v in images):
                target = candidate
                break
        if target is None:
            reasons.append(f"no target member receives {cc.describe()}")
        else:
            assignment.append((cc, target))
    return MorphismCheckResult(not reasons, tuple(assignment), tuple(reasons))


def lined_closure_real_form(weight: Sequence, theta) -> bool:
    """Real-form test for the monoid attached to a highest weight.

    ``theta`` must be an involutive lattice automorphism of the character
    space; the verdict is whether it sends the weight to its negative.
    """
    lam = vec(weight)
    rows = mat(theta)
    n = len(lam)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"theta must be a {n} x {n} matrix")
    if matmul(rows, rows) != identity(n):
        raise NotInvolutionError("theta squared is not the identity")
    return matvec(rows, lam) == neg(lam)

"""Spherical data, colored cones and colored fans, with axiom validation.

A :class:`SphericalDatum` fixes the ambient rational space, a polyhedral
valuation cone, and a placement map from abstract color labels into the
space.  Colored cones pair a cone with a color subset and are validated
against the four cone axioms:

* C1 -- the cone is generated by the placed colors together with finitely
  many valuation vectors;
* C2 -- the relative interior of the cone meets the valuation cone;
* C3 -- the cone is strictly convex;
* C4 -- no chosen color is placed at the origin.

Colored fans are finite collections of colored cones validated against

* F1 -- closure under colored faces;
* F2 -- a valuation vector lies in the relative interior of at most one
  member's cone.

Colored faces follow the usual convention: a geometric face qualifies when
its relative interior meets the valuation cone, and it inherits exactly the
parent colors placed inside it.  The convention is restated in every fan
validation report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .cones import Cone, cone_from_generators, describe_vectors
from .errors import InvalidColoredConeError, InvalidFanError, UnknownColorError
from .linalg import RatVec, is_zero, vec
from .linprog import LPProblem, lp_feasible
from .reports import ValidationReport

FACE_CONVENTION_NOTE = (
    "colored-face convention: a geometric face is kept when its relative interior "
    "meets the valuation cone, and it inherits exactly the colors placed inside it"
)


@dataclass(frozen=True)
class SphericalDatum:
    """Ambient dimension, valuation cone, color labels, and color placements."""

    dim: int
    valuation_cone: Cone
    colors: tuple[str, ...] = ()
    rho_tilde: Mapping[str, RatVec] = field(default_factory=dict)

    def __post_init__(self):
        if self.valuation_cone.ambient_dim != self.dim:
            raise ValueError("valuation cone does not live in the ambient dimension")
        if len(set(self.colors)) != len(self.colors):
            raise ValueError("color labels must be distinct")
        placements = {name: vec(v) for name, v in self.rho_tilde.items()}
        if set(placements) != set(self.colors):
            raise ValueError("rho_tilde must be defined exactly on the color labels")
        for name, v in placements.items():
            if len(v) != self.dim:
                raise ValueError(f"placement of color {name!r} has length {len(v)}")
        object.__setattr__(self, "colors", tuple(self.colors))
        object.__setattr__(self, "rho_tilde", placements)

    def rho(self, name: str) -> RatVec:
        try:
            return self.rho_tilde[name]
        except KeyError:
            raise UnknownColorError(f"unknown color {name!r}") from None

    def check_colors(self, names: Iterable[str]) -> frozenset[str]:
        out = frozenset(names)
        unknown = out - set(self.colors)
        if unknown:
            raise UnknownColorError(f"unknown colors: {sorted(unknown)}")
        return out


@dataclass(frozen=True)
class ColoredCone:
    """A cone together with the chosen subset of colors."""

    cone: Cone
    colors: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "colors", frozenset(self.colors))

    def key(self):
        return (self.cone, tuple(sorted(self.colors)))

    def describe(self) -> str:
        body = f"rays={describe_vectors(self.cone._rays)}"
        if self.cone._lineality:
            body += f", lineality={describe_vectors(self.cone._lineality)}"
        return f"(cone {body}; colors={sorted(self.colors)})"


@dataclass(frozen=True)
class _FanFacts:
    """What :func:`fan_from_maximal_cones` proved while it closed its cones.

    ``given`` holds the keys of the given cones in order, ``faces`` the
    colored faces of each given cone keyed by its key (so each passed C1-C4),
    and ``owners`` the bit mask, per fan member in fan order, of the given
    cones it is a colored face of.  They hold for ``datum`` only.
    """

    datum: SphericalDatum
    given: tuple
    faces: dict
    owners: tuple[int, ...]


@dataclass(frozen=True)
class ColoredFan:
    """A finite set of colored cones, stored in a fixed order: repeated
    members (equal :meth:`ColoredCone.key`) keep their first occurrence."""

    cones: tuple[ColoredCone, ...]
    _facts: _FanFacts | None = field(default=None, init=False, compare=False, repr=False)
    """The facts of a fan built by :func:`fan_from_maximal_cones`, the only
    place that sets them; ``ColoredFan(...)`` and ``dataclasses.replace``
    start without.  :func:`_checked_fan` reads them, so ``has_k_form`` and the
    file loader test only F2.  ``validate_colored_fan``, ``maximal_members``,
    ``build_support_lp`` and ``is_quasiprojective`` do not read them yet:
    the benchmark gate pins the work of ``is_quasiprojective(check=True)`` on
    the twisted cube by equality, and they switch over once its counts become
    upper bounds."""

    def __post_init__(self):
        distinct: dict = {}
        for cc in self.cones:
            distinct.setdefault(cc.key(), cc)
        object.__setattr__(self, "cones", tuple(distinct.values()))

    def member_keys(self) -> frozenset:
        return frozenset(cc.key() for cc in self.cones)

    def __iter__(self):
        return iter(self.cones)

    def __len__(self):
        return len(self.cones)


def relative_interior_meets(datum: SphericalDatum, cone: Cone, *others: Cone) -> bool:
    """Exact test for relint(cone) [and relint(each other)] meeting the valuation cone.

    Strict facet inequalities are homogenized to >= 1, which is equivalent for
    a cone of constraints.  The rows are the cones' primitive integer
    inequalities, handed to the LP as they are; each cone builds its sparse
    rows once (:meth:`Cone._relint_rows`).
    """
    rows = []
    for body in (cone, *others):
        if body.ambient_dim != datum.dim:
            raise ValueError("cone does not live in the ambient dimension")
        rows.extend(body._relint_rows())
    valuation = datum.valuation_cone
    rows.extend(valuation._relint_rows()[: len(valuation._ineqs)])
    lp = LPProblem._from_integral(datum.dim, [], rows)
    return lp_feasible(lp) is not None


def validate_colored_cone(datum: SphericalDatum, cc: ColoredCone) -> ValidationReport:
    """Check the cone axioms C1-C4 for one colored cone."""
    colors = datum.check_colors(cc.colors)
    if cc.cone.ambient_dim != datum.dim:
        raise ValueError("colored cone does not live in the ambient dimension")
    report = ValidationReport(subject=f"colored cone {cc.describe()}")

    intersection = cc.cone.intersect(datum.valuation_cone)
    gens = [datum.rho(name) for name in sorted(colors)]
    gens.extend(intersection._generators())
    regenerated = cone_from_generators(gens, datum.dim)
    report.record(
        "C1",
        regenerated == cc.cone,
        "the placed colors and the valuation part of the cone generate "
        f"{describe_vectors(regenerated._rays)}, not the stored cone",
    )
    report.record(
        "C2",
        relative_interior_meets(datum, cc.cone),
        "the relative interior misses the valuation cone",
    )
    report.record("C3", cc.cone.is_strictly_convex, "the cone contains a line")
    zero_colors = sorted(name for name in colors if is_zero(datum.rho(name)))
    report.record(
        "C4", not zero_colors, f"colors placed at the origin: {zero_colors}"
    )
    return report


def colored_faces(datum: SphericalDatum, cc: ColoredCone) -> tuple[ColoredCone, ...]:
    """All colored faces of a validated colored cone, the cone itself included."""
    validate_colored_cone(datum, cc).require(InvalidColoredConeError, "axioms failed")
    out = []
    for face in cc.cone.faces():
        if not relative_interior_meets(datum, face):
            continue
        inherited = frozenset(
            name for name in cc.colors if face.contains(datum.rho(name))
        )
        out.append(ColoredCone(face, inherited))
    return tuple(out)


def member_sort_key(cc: ColoredCone):
    cone = cc.cone
    return (cone.dim, cone._rays, cone._lineality, tuple(sorted(cc.colors)))


def fan_from_maximal_cones(
    datum: SphericalDatum, maximal: Iterable[ColoredCone]
) -> ColoredFan:
    """Close the given colored cones under colored faces, deduplicated and sorted.

    The fan keeps the faces and owner masks of the closure as its facts (see
    :class:`_FanFacts`).
    """
    given = list(maximal)
    faces: dict = {}
    ordered, owners = _face_closure(datum, given, faces)
    fan = ColoredFan(tuple(ordered))
    facts = _FanFacts(datum, tuple(cc.key() for cc in given), faces, tuple(owners))
    object.__setattr__(fan, "_facts", facts)
    return fan


def _face_closure(
    datum: SphericalDatum, cones: Iterable[ColoredCone], faces: dict
) -> tuple[list[ColoredCone], list[int]]:
    """The colored faces of ``cones``, deduplicated and sorted.

    ``faces`` maps a member key to its colored faces; the faces of a cone
    missing from it are computed, in the given order, and stored there.  Also
    returns, for each face, the bit mask of the given cones it is a face of.
    """
    members: dict = {}
    owners: dict = {}
    for bit, cc in enumerate(cones):
        key = cc.key()
        if key not in faces:
            faces[key] = colored_faces(datum, cc)
        for face in faces[key]:
            members.setdefault(face.key(), face)
            owners[face.key()] = owners.get(face.key(), 0) | 1 << bit
    ordered = sorted(members.values(), key=member_sort_key)
    return ordered, [owners[cc.key()] for cc in ordered]


def validate_colored_fan(datum: SphericalDatum, fan: ColoredFan) -> ValidationReport:
    """Check C1-C4 on every member plus the fan axioms F1 and F2."""
    return _validate_fan(datum, fan)[0]


def _validate_fan(datum: SphericalDatum, fan: ColoredFan) -> tuple[ValidationReport, dict]:
    """The report of :func:`validate_colored_fan`, and the colored faces that
    F1 computes, keyed by member key (members failing C1-C4 have none)."""
    report = ValidationReport(subject=f"colored fan with {len(fan)} cones")
    report.notes.append(FACE_CONVENTION_NOTE)
    members = fan.member_keys()
    cone_reports = []
    for i, cc in enumerate(fan):
        sub = validate_colored_cone(datum, cc)
        cone_reports.append(sub)
        report.merge(sub, f"cone[{i}]")

    f1_ok = True
    faces = {}
    for i, (cc, sub) in enumerate(zip(fan, cone_reports)):
        if not sub.passed:
            continue
        faces[cc.key()] = colored_faces(datum, cc)
        for face in faces[cc.key()]:
            if face.key() not in members:
                f1_ok = False
                report.reasons.append(
                    f"F1: colored face {face.describe()} of cone[{i}] is not a member"
                )
    report.checks["F1"] = f1_ok
    _record_f2(datum, fan, report)
    return report, faces


def _checked_fan(datum: SphericalDatum, fan: ColoredFan) -> tuple[ValidationReport, dict]:
    """The report and faces of :func:`_validate_fan`, read off the facts of a
    fan that :func:`fan_from_maximal_cones` built for this very ``datum``.

    Every member is a colored face of a given cone that passed C1-C4, so C1-C4
    and F1 hold: a face is generated by the colors placed in it and the
    valuation vectors of the parent on it (C1), it is kept only when its
    relative interior meets the valuation cone (C2), and it inherits strict
    convexity and its colors from the parent (C3, C4).  Only F2 is tested,
    on the pairs with no common owner.  Any other fan is validated in full.
    """
    faces = _proven_faces(datum, fan)
    if faces is None:
        return _validate_fan(datum, fan)
    report = ValidationReport(subject=f"colored fan with {len(fan)} cones")
    report.notes.append(FACE_CONVENTION_NOTE)
    for i in range(len(fan)):
        for axiom in ("C1", "C2", "C3", "C4"):
            report.checks[f"cone[{i}].{axiom}"] = True
    report.checks["F1"] = True
    _record_f2(datum, fan, report, fan._facts.owners)
    return report, faces


def _proven_faces(datum: SphericalDatum, fan: ColoredFan) -> dict | None:
    """Every member's colored faces keyed by member key, in fan order, from
    the facts of ``fan``; None when it has none for ``datum``.

    A member that is not a given cone takes the colored faces of its first
    owner that lie inside it: they are its own colored faces, with the same
    colors, and ``Cone.faces`` sorts both lists alike.  Members are strictly
    convex (C3), so a face of the owner lies inside the member exactly when
    its rays are rays of the member.
    """
    facts = fan._facts
    if facts is None or facts.datum is not datum:
        return None
    out = {}
    for cc, mask in zip(fan.cones, facts.owners):
        key = cc.key()
        faces = facts.faces.get(key)
        if faces is None:
            owner = facts.faces[facts.given[(mask & -mask).bit_length() - 1]]
            rays = set(cc.cone._rays)
            faces = tuple(face for face in owner if rays.issuperset(face.cone._rays))
        out[key] = faces
    return out


def _overlapping_pairs(
    datum: SphericalDatum, cones: Sequence[ColoredCone], owners: Sequence[int] | None = None
):
    """Yield, in order, the pairs ``i < j`` of ``cones`` whose relative
    interiors share a valuation vector.

    ``owners`` gives each cone the bit mask of the cones it is a face of, and
    pairs whose masks intersect are skipped: distinct faces of one cone have
    disjoint relative interiors.  None tests every pair.
    """
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            if owners is not None and owners[i] & owners[j]:
                continue
            if relative_interior_meets(datum, cones[i].cone, cones[j].cone):
                yield i, j


def _record_f2(
    datum: SphericalDatum,
    fan: ColoredFan,
    report: ValidationReport,
    owners: Sequence[int] | None = None,
) -> None:
    """Record F2 in ``report``, with one reason per overlapping pair."""
    cones = fan.cones
    reasons = [
        f"F2: {cones[i].describe()} and {cones[j].describe()} both "
        "hold a valuation vector in their relative interiors"
        for i, j in _overlapping_pairs(datum, cones, owners)
    ]
    report.reasons.extend(reasons)
    report.checks["F2"] = not reasons


def locate(datum: SphericalDatum, fan: ColoredFan, v: Sequence) -> ColoredCone | None:
    """The unique member whose cone holds v in its relative interior, if any.

    ``v`` must lie in the valuation cone; anything else is an error rather
    than a miss.
    """
    w = vec(v)
    if not datum.valuation_cone.contains(w):
        raise ValueError(f"vector {w} is outside the valuation cone")
    hits = [cc for cc in fan if cc.cone.in_relative_interior(w)]
    if len(hits) > 1:
        raise InvalidFanError(
            "multiple cones hold the vector in their relative interior; fan violates F2"
        )
    return hits[0] if hits else None

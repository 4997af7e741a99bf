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

Whether a relative interior meets the valuation cone V is decided on two
routes with the same answers.  :func:`relative_interior_meets`,
:func:`colored_faces` and :func:`validate_colored_fan` solve one exact LP per
test, on the faces of :meth:`Cone.faces`.  The face closure
(:func:`_face_closure`) runs no LP.  It checks each given cone C against
C1-C4 once (:func:`_closure_axioms`), from K = C ∩ V: K is C, with no
double description, when C lies in V, and C2 holds when the ray sum of K
lies in relint(C).  It reads the faces of C off its facet-ray incidences
with no double description (:meth:`Cone._lattice_faces`), and keeps every
face when K is C, else decides each face from K with integer dot products
(:func:`_face_meets`).  Its :class:`_Closure` decides F2 from
pairs of given cones, one double description each, and names the maximal
members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .cones import Cone, _dd, _ray_sum, cone_from_generators, describe_vectors
from .errors import InvalidColoredConeError, InvalidFanError, UnknownColorError
from .linalg import IntVec, RatVec, _dot, is_zero, vec
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
        colors = frozenset(self.colors)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "_key", (self.cone, tuple(sorted(colors))))

    def key(self):
        """The cone and the sorted colors, computed once, at construction."""
        return self._key

    def describe(self) -> str:
        body = f"rays={describe_vectors(self.cone._rays)}"
        if self.cone._lineality:
            body += f", lineality={describe_vectors(self.cone._lineality)}"
        return f"(cone {body}; colors={sorted(self.colors)})"


@dataclass(frozen=True)
class ColoredFan:
    """A finite set of colored cones, stored in a fixed order: repeated
    members (equal :meth:`ColoredCone.key`) keep their first occurrence."""

    cones: tuple[ColoredCone, ...]
    _facts: _Closure | None = field(default=None, init=False, compare=False, repr=False)
    """The closure a fan built by :func:`fan_from_maximal_cones` was read
    off, the only place that sets it; ``ColoredFan(...)`` and
    ``dataclasses.replace`` start without.  It holds every member's colored
    faces, found with no LP (C1-C4 included).  :func:`_checked_fan` reads
    it, so ``has_k_form`` and the file loader derive no face and test only
    F2, from the pairs of given cones and with no LP unless F2 fails.  CLI
    ``kform`` reads the faces, and CLI ``quasiproj`` the maximal cones
    (:meth:`_Closure.maximal`), of the fan the loader validated.
    ``validate_colored_fan``, ``maximal_members``, ``build_support_lp`` and
    ``is_quasiprojective`` do not read it yet: the benchmark gate pins the work of
    ``is_quasiprojective(check=True)`` on the twisted cube by equality, and
    they switch over once its counts become upper bounds."""

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
    return _cone_axioms(datum, cc)[0]


def _cone_axioms(datum: SphericalDatum, cc: ColoredCone) -> tuple[ValidationReport, Cone]:
    """The report of :func:`validate_colored_cone`, and the intersection
    K = C ∩ V of the cone with the valuation cone, which C1 builds; C2 by
    the LP."""
    placed = _placed_colors(datum, cc)
    part = cc.cone.intersect(datum.valuation_cone)
    regenerated = cone_from_generators(placed + list(part._generators()), datum.dim)
    c2 = relative_interior_meets(datum, cc.cone)
    return _axiom_report(datum, cc, regenerated, c2), part


def _closure_axioms(datum: SphericalDatum, cc: ColoredCone) -> tuple[ValidationReport, Cone]:
    """:func:`_cone_axioms` with no LP, and with no double description when
    C lies in V.

    K is C itself when every generator of C satisfies the inequalities of
    V (:func:`_valuation_part`); then C1 holds exactly when every placed
    color lies in C, and the regenerated cone is built only for the reason
    of a failure.  C2 holds exactly when w, the ray sum of K, lies in
    relint(C): w lies in relint(K), which lies in the relative interior of
    the smallest face of C holding K (Rockafellar, *Convex Analysis*,
    Thm 18.2), and that face is C exactly when relint(C) meets V.
    """
    placed = _placed_colors(datum, cc)
    cone = cc.cone
    part = _valuation_part(datum, cone)
    regenerated = None
    if part is not cone or not all(map(cone.contains, placed)):
        regenerated = cone_from_generators(placed + list(part._generators()), datum.dim)
    c2 = cone._holds_in_relative_interior(_ray_sum(part._rays, datum.dim))
    return _axiom_report(datum, cc, regenerated, c2), part


def _valuation_part(datum: SphericalDatum, cone: Cone) -> Cone:
    """K = C ∩ V: ``cone`` itself when each of its generators satisfies the
    inequalities of V, integer dot products and no double description."""
    valuation = datum.valuation_cone._ineqs
    if all(_dot(a, g) >= 0 for g in cone._generators() for a in valuation):
        return cone
    return cone.intersect(datum.valuation_cone)


def _placed_colors(datum: SphericalDatum, cc: ColoredCone) -> list[RatVec]:
    """The placements of the colors of ``cc``, in name order, once its
    colors and its dimension are checked against ``datum``."""
    colors = datum.check_colors(cc.colors)
    if cc.cone.ambient_dim != datum.dim:
        raise ValueError("colored cone does not live in the ambient dimension")
    return [datum.rho(name) for name in sorted(colors)]


def _axiom_report(
    datum: SphericalDatum, cc: ColoredCone, regenerated: Cone | None, c2: bool
) -> ValidationReport:
    """The C1-C4 report of ``cc``, which both routes build, given the cone
    that its placed colors and the generators of K = C ∩ V generate (None
    when it is known to be C) and the C2 verdict."""
    report = ValidationReport(subject=f"colored cone {cc.describe()}")
    c1 = regenerated is None or regenerated == cc.cone
    report.record(
        "C1",
        c1,
        None
        if c1
        else "the placed colors and the valuation part of the cone generate "
        f"{describe_vectors(regenerated._rays)}, not the stored cone",
    )
    report.record("C2", c2, "the relative interior misses the valuation cone")
    report.record("C3", cc.cone.is_strictly_convex, "the cone contains a line")
    zero_colors = sorted(name for name in cc.colors if is_zero(datum.rho(name)))
    report.record(
        "C4", not zero_colors, f"colors placed at the origin: {zero_colors}"
    )
    return report


def colored_faces(datum: SphericalDatum, cc: ColoredCone) -> tuple[ColoredCone, ...]:
    """All colored faces of a validated colored cone, the cone itself included.

    Each face's relative interior is tested against the valuation cone by an
    LP (:func:`relative_interior_meets`).
    """
    validate_colored_cone(datum, cc).require(InvalidColoredConeError, "axioms failed")
    return _kept_faces(datum, cc, lambda face: relative_interior_meets(datum, face))


def _closure_faces(
    datum: SphericalDatum, cc: ColoredCone, table: dict
) -> tuple[ColoredCone, ...]:
    """:func:`colored_faces` with no LP: C1-C4 by :func:`_closure_axioms`,
    the faces walked from the facet-ray incidences
    (:meth:`Cone._lattice_faces`, sharing ``table``), with no double
    description, and each relative interior decided from K = C ∩ V
    (:func:`_face_meets`).  When K is C every face is kept: it lies in V."""
    report, part = _closure_axioms(datum, cc)
    report.require(InvalidColoredConeError, "axioms failed")
    cc.cone._lattice_faces(table=table)
    if part is cc.cone:
        return _kept_faces(datum, cc, lambda face: True)
    return _kept_faces(datum, cc, lambda face: _face_meets(part, face))


def _face_meets(part: Cone, face: Cone) -> bool:
    """True when the relative interior of ``face``, a face of a strictly
    convex cone C, meets V, given ``part`` = C ∩ V.

    F ∩ V = F ∩ K is the face of K spanned by the rays of K on F, and w_F,
    their sum, lies in its relative interior.  That relative interior lies in
    the relative interior of the smallest face of F holding F ∩ V
    (Rockafellar, *Convex Analysis*, Thm 18.2), which is F itself exactly
    when relint(F) meets V.  So relint(F) meets V exactly when w_F lies in
    relint(F): integer dot products only.
    """
    on_face = [r for r in part._rays if all(_dot(e, r) == 0 for e in face._span_eq)]
    return face._holds_in_relative_interior(_ray_sum(on_face, face.ambient_dim))


def _kept_faces(
    datum: SphericalDatum, cc: ColoredCone, meets: Callable[[Cone], bool]
) -> tuple[ColoredCone, ...]:
    """The faces F of ``cc`` with ``meets(F)``, in :meth:`Cone.faces` order,
    each with the colors of ``cc`` placed in it."""
    out = []
    for face in cc.cone.faces():
        if not meets(face):
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

    The fan keeps its :class:`_Closure` as its facts.
    """
    closure = _face_closure(datum, maximal, {})
    fan = ColoredFan(closure.members)
    object.__setattr__(fan, "_facts", closure)
    return fan


@dataclass(frozen=True, eq=False)
class _Closure:
    """The colored faces of some given colored cones, closed for ``datum``
    by :func:`_face_closure`.

    ``members`` holds them deduplicated and sorted; ``owners`` the bit mask,
    per member, of the given cones it is a colored face of, one bit per
    distinct given cone; ``given`` those cones as members, in bit order;
    ``faces`` maps each member key (and maybe others) to its colored faces.
    Every member is a colored face of a given cone that passed C1-C4.
    """

    datum: SphericalDatum
    members: tuple[ColoredCone, ...]
    owners: tuple[int, ...]
    given: tuple[ColoredCone, ...]
    faces: dict

    def maximal(self) -> list[ColoredCone]:
        """The members that are a colored face of no other member, in member
        order: the given cones whose mask has one bit, their own."""
        given = {cc.key() for cc in self.given}
        return [
            m
            for m, mask in zip(self.members, self.owners)
            if mask & (mask - 1) == 0 and m.key() in given
        ]

    def overlaps(self):
        """Yield, in order, the pairs ``i < j`` of members whose relative
        interiors share a valuation vector: F2 holds when there is none.

        The pairs of given cones are screened first, with no LP
        (:func:`_given_pairs_agree`).  Only when the screen fails are the
        pairs of members with no common owner tested by LP
        (:func:`_overlapping_pairs`), so that the pairs are those of the
        all-pairs test.
        """
        if not _given_pairs_agree(self.datum, self.given, self.faces):
            yield from _overlapping_pairs(self.datum, self.members, self.owners)


def _face_closure(
    datum: SphericalDatum, cones: Iterable[ColoredCone], faces: dict
) -> _Closure:
    """The :class:`_Closure` of ``cones``.

    ``faces`` maps a member key to its colored faces, and the closure keeps
    it.  Those of a given cone missing from it are computed, in the given
    order, by one C1-C4 check and relints decided from K = C ∩ V, with no
    LP (:func:`_closure_faces`, which raises :class:`InvalidColoredConeError`
    as :func:`colored_faces` does); only the given cones walk a face lattice
    (:meth:`Cone._lattice_faces`), all through one table, so that a face two
    given cones share is one :class:`Cone`, built once.  A face met first is
    given the faces of its owner whose rays lie in it, which are its own, in
    ``Cone.faces`` order (faces are strictly convex, C3): each face is a bit
    mask over its owner's rays, and only the faces up to it in that order,
    which is by dimension first, are tested.  A given cone met earlier as a
    face is not checked again: it equals, key for key, a colored face of a
    checked cone.  A cone given twice keeps its first occurrence.
    """
    given: dict = {}
    for cc in cones:
        given.setdefault(cc.key(), cc)
    members: dict = {}
    owners: dict = {}
    table: dict = {}
    for bit, (key, cc) in enumerate(given.items()):
        if key not in faces:
            faces[key] = _closure_faces(datum, cc, table)
        bits = {r: 1 << i for i, r in enumerate(cc.cone._rays)}
        masks = [sum(bits[r] for r in face.cone._rays) for face in faces[key]]
        for i, face in enumerate(faces[key]):
            if face.key() not in faces:
                faces[face.key()] = tuple(
                    sub
                    for sub, mask in zip(faces[key][: i + 1], masks)
                    if mask | masks[i] == masks[i]
                )
            members.setdefault(face.key(), face)
            owners[face.key()] = owners.get(face.key(), 0) | 1 << bit
    ordered = tuple(sorted(members.values(), key=member_sort_key))
    owned = tuple(owners[cc.key()] for cc in ordered)
    return _Closure(datum, ordered, owned, tuple(members[key] for key in given), faces)


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
    _record_f2(fan, report, _overlapping_pairs(datum, fan.cones))
    return report, faces


def _checked_fan(datum: SphericalDatum, fan: ColoredFan) -> tuple[ValidationReport, dict]:
    """The report and faces of :func:`_validate_fan`, read off the facts of a
    fan that :func:`fan_from_maximal_cones` built for this very ``datum``.

    Every member is a colored face of a given cone that passed C1-C4, so C1-C4
    and F1 hold: a face is generated by the colors placed in it and the
    valuation vectors of the parent on it (C1), it is kept only when its
    relative interior meets the valuation cone (C2), and it inherits strict
    convexity and its colors from the parent (C3, C4).  Only F2 is tested,
    by the overlaps of the closure (:meth:`_Closure.overlaps`), whose pairs
    give the reasons of the full route.  The faces are looked up in the
    closure (:func:`_proven_faces`).  Any other fan is validated in full.
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
    _record_f2(fan, report, fan._facts.overlaps())
    return report, faces


def _proven_faces(datum: SphericalDatum, fan: ColoredFan) -> dict | None:
    """Every member's colored faces keyed by member key, in fan order, read
    off the facts of ``fan``; None when it has none for ``datum``."""
    facts = fan._facts
    if facts is None or facts.datum is not datum:
        return None
    return {cc.key(): facts.faces[cc.key()] for cc in fan}


def _given_pairs_agree(
    datum: SphericalDatum, given: Sequence[ColoredCone], faces: dict
) -> bool:
    """True when no valuation vector lies in the relative interiors of two
    distinct colored faces of the cones ``given``: F2 on their closure.

    The given cones have distinct keys, each passed C1-C4, and ``faces`` maps
    its key to its colored faces.  For given cones Z, Z', one double
    description of the inequalities of Z, Z' and V gives the rays of
    Z ∩ Z' ∩ V, and w, their sum, lies in its relative interior.  So the face
    G of Z holding w in its relative interior is the smallest face of Z
    containing Z ∩ Z' ∩ V (Rockafellar, *Convex Analysis*, Thm 18.2), and a
    colored face, as w is a valuation vector; likewise G' of Z'.  The test is
    that G and G', with their colors, agree for every pair.  If not, they are
    two members holding w.  If so, and colored faces M of Z and M' of Z'
    share a valuation vector v in their relative interiors, then v lies in
    Z ∩ Z' ∩ V, so M and M' are faces of G = G' with v in both relative
    interiors: the same cone, with the colors of G placed in it.
    """
    valuation = datum.valuation_cone._ineqs

    def face_holding(cc: ColoredCone, w: IntVec):
        return next(f.key() for f in faces[cc.key()] if f.cone._holds_in_relative_interior(w))

    for i, first in enumerate(given):
        for second in given[i + 1 :]:
            _, rays = _dd(first.cone._ineqs + second.cone._ineqs + valuation, datum.dim)
            w = _ray_sum(rays, datum.dim)
            if face_holding(first, w) != face_holding(second, w):
                return False
    return True


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


def _record_f2(fan: ColoredFan, report: ValidationReport, pairs: Iterable) -> None:
    """Record F2 in ``report``, with one reason per pair ``i, j`` of
    members in ``pairs``, the pairs that overlap."""
    cones = fan.cones
    reasons = [
        f"F2: {cones[i].describe()} and {cones[j].describe()} both "
        "hold a valuation vector in their relative interiors"
        for i, j in pairs
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

"""Finite Galois-type actions on spherical data and k-form existence checks.

A group element acts on the ambient space by a lattice automorphism (an
integer matrix with integer inverse) and on the color labels by a
permutation, compatibly with the placements and stabilizing the valuation
cone.  The profinite group itself is never materialized: the caller supplies
generators of the relevant finite quotient and the closure is computed with
a size cap.  Element matrices keep integral entries as ``int``, so the
closure multiplies integers; a cone's image under an element maps both of
its descriptions by the matrix and a multiple of its inverse, computed once
per element, and runs no double description.

``has_k_form`` combines the two classification ingredients: (a) invariance
of the fan under the action, and (b) quasiprojectivity of every member's
orbit fan.  Invariance alone classifies the embedding among algebraic spaces
over the base field; (b) is the extra condition for a scheme form, stated
over a perfect base field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping

from .colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    _checked_fan,
    _face_closure,
    _overlapping_pairs,
    _proven_faces,
    colored_faces,
    member_sort_key,
)
from .errors import ClosureCapError, InvalidFanError, OrbitOverlapError
from .cones import _integer_map
from .linalg import RatMat, identity, mat, matmul, matvec, rank
from .linprog import lp_feasible
from .quasiproj import _support_lp
from .reports import ValidationReport

PERFECT_FIELD_NOTE = (
    "scheme-form criterion: stated over a perfect base field; "
    "fan invariance alone classifies forms among algebraic spaces"
)


@dataclass(frozen=True)
class GroupElement:
    """A lattice automorphism paired with a permutation of the color labels.

    :meth:`make` and :meth:`compose` keep integral matrix entries as ``int``.
    """

    matrix: RatMat
    color_perm: tuple[tuple[str, str], ...] = ()

    @staticmethod
    def make(matrix, color_perm: Mapping[str, str] | None = None) -> "GroupElement":
        """The element of ``matrix``, its integral entries stored as ``int``:
        it compares and hashes equal to the element of ``mat(matrix)``."""
        m = tuple(
            tuple(x.numerator if x.denominator == 1 else x for x in row) for row in mat(matrix)
        )
        perm = tuple(sorted((color_perm or {}).items()))
        return GroupElement(m, perm)

    @property
    def perm_map(self) -> dict[str, str]:
        return dict(self.color_perm)

    def apply_color(self, name: str) -> str:
        return self.perm_map.get(name, name)

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self after other."""
        perm = self.perm_map
        combined = {c: perm.get(v, v) for c, v in other.color_perm}
        for c, v in perm.items():
            combined.setdefault(c, v)
        return GroupElement(matmul(self.matrix, other.matrix), tuple(sorted(combined.items())))

    @cached_property
    def _map(self):
        """:func:`cones._integer_map` of the matrix, computed once per
        element: its integer rows and, when it is invertible, the transpose
        of a positive multiple of its inverse."""
        return _integer_map(self.matrix)


def identity_element(dim: int, colors: Iterable[str] = ()) -> GroupElement:
    return GroupElement(identity(dim), tuple(sorted((c, c) for c in colors)))


def _order_exponent(n: int) -> int:
    """L = lcm{m : phi(m) <= n}: the order of every n x n rational matrix of
    finite order divides L (its minimal polynomial is a product of distinct
    cyclotomic polynomials Phi_m, of degree phi(m) <= n).  Since
    phi(m) >= sqrt(m/2), every such m is at most 2n^2."""
    bound = 2 * n * n
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:
            for k in range(p, bound + 1, p):
                phi[k] -= phi[k] // p
    return lcm(*(m for m in range(1, bound + 1) if phi[m] <= n))


# A Mersenne prime: A^L is compared with I modulo it.
_ORDER_PRIME = 2**61 - 1


def _has_infinite_order(matrix: RatMat) -> bool:
    """True when ``matrix`` is invertible and A^L != I for L of
    :func:`_order_exponent`, so that its powers are pairwise distinct.

    With d the common denominator and B = dA, A^L = I means B^L = d^L I.  Both
    sides are taken modulo ``_ORDER_PRIME``, B^L by repeated squaring, so the
    entries stay small whatever the size of L.  A difference there proves
    A^L != I.  Equality, which every matrix of finite order gives, proves
    nothing, and the answer is False.  Singular and non-square matrices are
    False as well.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or rank(matrix) < n:
        return False
    p = _ORDER_PRIME
    d = lcm(*(x.denominator for row in matrix for x in row))

    def times(a, b):
        return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]

    base = [[int(x * d) % p for x in row] for row in matrix]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    e = _order_exponent(n)
    target = pow(d, e, p)
    while e:
        if e & 1:
            power = times(power, base)
        base = times(base, base)
        e >>= 1
    return power != [[target if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class GroupAction:
    """Generators of a finite group acting on a spherical datum."""

    dim: int
    colors: tuple[str, ...]
    generators: tuple[GroupElement, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def elements(self, cap: int = 100000) -> tuple[GroupElement, ...]:
        """Closure of the generators under composition (identity included).

        A finite closure of invertible elements automatically contains the
        inverses.  Raises :class:`ClosureCapError` if the closure exceeds
        ``cap`` elements; at once, before any closing, when a generator
        matrix has infinite order, since its powers alone exceed every cap.
        The closure is cached, and the cap applies to a cached closure too.
        """
        exceeded = f"group closure exceeded the cap of {cap} elements"
        cached = self._cache.get("elements")
        if cached is not None:
            if len(cached) > cap:
                raise ClosureCapError(exceeded)
            return cached
        if any(_has_infinite_order(g.matrix) for g in self.generators):
            raise ClosureCapError(exceeded)
        ident = identity_element(self.dim, self.colors)
        # the identity, and so every product, spells each fixed color out;
        # spelled out the same way, the generators give each element one form
        generators = [ident.compose(g) for g in self.generators]
        seen = {ident: None}
        frontier = [ident]
        for g in generators:
            if g not in seen:
                seen[g] = None
                frontier.append(g)
        while frontier:
            new_frontier = []
            for g in generators:
                for h in frontier:
                    gh = g.compose(h)
                    if gh not in seen:
                        seen[gh] = None
                        new_frontier.append(gh)
                        if len(seen) > cap:
                            raise ClosureCapError(exceeded)
            frontier = new_frontier
        out = tuple(seen)
        self._cache["elements"] = out
        return out


def action_from_generators(
    datum: SphericalDatum, generators: Iterable[GroupElement]
) -> GroupAction:
    return GroupAction(datum.dim, datum.colors, tuple(generators))


def validate_action(datum: SphericalDatum, action: GroupAction) -> ValidationReport:
    """Check each generator: lattice automorphism, placement equivariance,
    valuation-cone stability, and color-permutation sanity; then close."""
    report = ValidationReport(subject=f"group action with {len(action.generators)} generators")
    for i, g in enumerate(action.generators):
        label = f"generator[{i}]"
        square = len(g.matrix) == datum.dim and all(len(r) == datum.dim for r in g.matrix)
        integral = square and all(x.denominator == 1 for row in g.matrix for x in row)
        # the inverse of an integer matrix is integral exactly when its
        # determinant is +-1, that is when the least d making d A^-1 integral is 1
        inverse = g._map[1] if integral else None
        report.record(
            f"{label}.lattice_automorphism",
            inverse is not None and inverse[1] == 1,
            "not a lattice automorphism (needs integer entries and an integer inverse)",
        )

        # a color the generator leaves out is fixed, as in apply_color
        colors = set(datum.colors)
        perm = {c: g.apply_color(c) for c in datum.colors}
        domain_ok = set(g.perm_map) <= colors and set(perm.values()) == colors
        report.record(
            f"{label}.color_permutation",
            domain_ok,
            "color permutation is not a bijection of the datum's colors",
        )

        if square and domain_ok:
            bad = [
                name
                for name in datum.colors
                if matvec(g.matrix, datum.rho(name)) != datum.rho(perm[name])
            ]
            report.record(
                f"{label}.equivariance",
                not bad,
                f"placement map is not equivariant at colors {bad}",
            )

        if square:
            stable = datum.valuation_cone._image(*g._map) == datum.valuation_cone
            report.record(
                f"{label}.valuation_stable",
                stable,
                "the valuation cone is not stable under the matrix",
            )

    # a generator that is not square or has no color bijection has already
    # failed its lattice_automorphism or color_permutation check
    if report.passed:
        try:
            order = len(action.elements())
        except ClosureCapError as exc:
            report.record("closure", False, str(exc))
        else:
            report.record("closure", True)
            report.notes.append(f"group order {order}")
    else:
        report.record("closure", False, "skipped: a generator failed validation")
    return report


def apply_element(g: GroupElement, cc: ColoredCone) -> ColoredCone:
    """The image of ``cc`` under ``g``; the matrix's inverse is computed once
    per element, on its first image."""
    return ColoredCone(cc.cone._image(*g._map), frozenset(g.apply_color(c) for c in cc.colors))


def _image_table(
    action: GroupAction, fan: ColoredFan
) -> tuple[ColoredCone | None, dict]:
    """Apply every group element to every member (elements outer, members
    inner).

    Returns the first member with an image outside the fan, or None when the
    fan is invariant, and the table of images: for each member key, its
    distinct images as fan members, keyed by member key, in order of first
    appearance (the identity's image, the member itself, first).  The table
    is complete only when no member offends.
    """
    keyed = [(cc, cc.key()) for cc in fan]
    members = {key: cc for cc, key in keyed}
    images: dict = {key: {} for key in members}
    for g in action.elements():
        for cc, key in keyed:
            image = apply_element(g, cc).key()
            if image not in members:
                return cc, images
            images[key].setdefault(image, members[image])
    return None, images


def is_fan_invariant(datum: SphericalDatum, action: GroupAction, fan: ColoredFan) -> bool:
    """True when every group element permutes the fan's members."""
    return _image_table(action, fan)[0] is None


def _check_overlap(datum: SphericalDatum, ordered: list, owners: list) -> None:
    """Raise :class:`OrbitOverlapError` at the first pair of orbit members, in
    order, whose relative interiors share a valuation vector.

    Pairs of faces of one orbit cone are skipped: distinct faces of one cone
    have disjoint relative interiors.
    """
    for i, j in _overlapping_pairs(datum, ordered, owners):
        raise OrbitOverlapError(
            f"orbit cones {ordered[i].describe()} and {ordered[j].describe()} "
            "overlap inside the valuation cone"
        )


def orbit_subfan(
    datum: SphericalDatum, action: GroupAction, cc: ColoredCone
) -> ColoredFan:
    """The fan generated by the orbit of one colored cone: orbit images closed
    under colored faces.

    Raises :class:`InvalidColoredConeError` when ``cc`` fails C1-C4, and
    :class:`OrbitOverlapError` when two orbit cones share a valuation vector
    in their relative interiors; no invariant fan can contain the orbit in
    that case.
    """
    faces = {cc.key(): colored_faces(datum, cc)}
    images: dict = {}
    for g in action.elements():
        moved = apply_element(g, cc)
        images.setdefault(moved.key(), moved)
    ordered, owners = _face_closure(datum, images.values(), faces)
    _check_overlap(datum, ordered, owners)
    return ColoredFan(tuple(ordered))


@dataclass(frozen=True)
class KFormResult:
    verdict: bool
    invariant: bool
    orbits_quasiprojective: bool | None
    reasons: tuple[str, ...] = ()
    notes: tuple[str, ...] = (PERFECT_FIELD_NOTE,)


def has_k_form(
    datum: SphericalDatum,
    action: GroupAction,
    fan: ColoredFan,
    check: bool = True,
) -> KFormResult:
    """Decide k-form existence: (a) the fan is invariant under the action and
    (b) every member's orbit fan is quasiprojective.

    The orbit fan of a member Z is read off the invariance loop: the images
    g.Z are fan members, and the orbit fan is the union of their colored
    faces.  Its maximal cones are exactly the distinct images, all of
    dimension dim Z, so the support LP is posed on them directly.

    With ``check=True`` the fan and the action are validated first; the fan
    validation supplies every member's colored faces, and F2 rules out
    overlapping orbit cones.  A fan that :func:`fan_from_maximal_cones` built
    for ``datum`` carries its faces and C1-C4 and F1, so only F2 is tested
    (:func:`colored._checked_fan`); any other fan is validated in full.  With
    ``check=False`` nothing is validated: the faces are taken from the fan's
    facts or computed as needed, and overlapping orbit cones are looked for
    and reported as a (b) failure (see :func:`_k_form`).
    """
    if not check:
        return _k_form(datum, action, fan, _proven_faces(datum, fan) or {}, validated=False)
    fan_report, faces = _checked_fan(datum, fan)
    fan_report.require(InvalidFanError, "fan failed validation")
    validate_action(datum, action).require(InvalidFanError, "action failed validation")
    return _k_form(datum, action, fan, faces, validated=True)


def _k_form(
    datum: SphericalDatum,
    action: GroupAction,
    fan: ColoredFan,
    faces: dict,
    validated: bool,
) -> KFormResult:
    """The verdict of :func:`has_k_form` once its validation is settled.

    ``faces`` maps member keys to colored faces; the faces of a member
    missing from it are computed when its orbit is closed, and stored there
    (a member failing C1-C4 raises :class:`InvalidColoredConeError`).  When
    ``validated`` is False, every orbit fan not yet verified is tested for
    overlapping cones, which is reported as a (b) failure.  Otherwise the fan
    and the action have passed validation: F1 and invariance make every orbit
    member a fan member, so F2 already rules out overlapping orbit cones and
    no overlap test runs.

    A member whose orbit lies inside an already verified orbit fan is
    skipped before its orbit is closed: a verified orbit fan is closed under
    colored faces, so it then holds the whole orbit fan, and a subfan of a
    quasiprojective fan is quasiprojective (it carves out an open invariant
    piece).  Each skipped member is a colored face of a cone that passed
    C1-C4, and so passes them itself.
    """
    offender, images = _image_table(action, fan)
    if offender is not None:
        return KFormResult(
            False,
            invariant=False,
            orbits_quasiprojective=None,
            reasons=(
                "(a) fan is not invariant under the Galois action; offending cone: "
                f"{offender.describe()}",
            ),
        )

    verified: list[frozenset] = []
    members = sorted(fan, key=lambda cc: -cc.cone.dim)
    for cc in members:
        orbit = images[cc.key()]
        if any(orbit.keys() <= done for done in verified):
            continue
        ordered, owners = _face_closure(datum, orbit.values(), faces)
        if not validated:
            try:
                _check_overlap(datum, ordered, owners)
            except OrbitOverlapError as exc:
                return KFormResult(
                    False, invariant=True, orbits_quasiprojective=False, reasons=(f"(b) {exc}",)
                )
        maximal = sorted(orbit.values(), key=member_sort_key)
        if lp_feasible(_support_lp(datum, maximal)) is None:
            return KFormResult(
                False,
                invariant=True,
                orbits_quasiprojective=False,
                reasons=(f"(b) the orbit fan of {cc.describe()} is not quasiprojective",),
            )
        verified.append(frozenset(m.key() for m in ordered))
    return KFormResult(True, invariant=True, orbits_quasiprojective=True)

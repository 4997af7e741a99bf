"""Finite Galois-type actions on spherical data and k-form existence checks.

A group element acts on the ambient space by a lattice automorphism (an
integer matrix with integer inverse) and on the color labels by a
permutation, compatibly with the placements and stabilizing the valuation
cone.  The profinite group itself is never materialized: the caller supplies
generators of the relevant finite quotient and the closure stops at
``CLOSURE_CAP`` elements, or at once on a generator of infinite order or,
for lattice automorphisms, on two elements that agree mod 3.  Element
matrices keep integral entries as ``int``.  The closure multiplies plain
integer matrices, each over one denominator, with color permutations as
index tuples, and builds each :class:`GroupElement` once, for the result.
A cone's image under an element maps both of its descriptions by the
matrix and a multiple of its inverse, computed once per element, and runs
no double description; the order test reads the same integer matrix.

``has_k_form`` combines the two classification ingredients: (a) invariance
of the fan under the action, and (b) quasiprojectivity of every member's
orbit fan.  Invariance alone classifies the embedding among algebraic spaces
over the base field; (b) is the extra condition for a scheme form, stated
over a perfect base field.  Both are read off the generators' images of
the members, of the maximal members alone once fan and action are
validated, never off the enumerated group.  Orbit fans are built in one
place, inside ``has_k_form``, as face closures (``colored._face_closure``)
whose colored faces come from the fan's validation or its closure; the
faces of a cone missing from both are decided from its intersection with
the valuation cone, with no LP.  The closure names the overlapping and the
maximal orbit cones, and each orbit fan is decided by row generation from
its walls (see :func:`_k_form`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping

from .colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    _checked_fan,
    _face_closure,
    _proven_faces,
)
from .errors import ClosureCapError, InvalidFanError
from .cones import _integer_map
from .linalg import RatMat, identity, mat, matmul, matvec
from .quasiproj import _support_feasible
from .reports import ValidationReport

PERFECT_FIELD_NOTE = (
    "scheme-form criterion: stated over a perfect base field; "
    "fan invariance alone classifies forms among algebraic spaces"
)

# Most elements a group closure may reach before ClosureCapError.
CLOSURE_CAP = 100000


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

    @property
    def _is_lattice_automorphism(self) -> bool:
        """True when the matrix is square and integral with an integral
        inverse: its determinant is +-1, that is the least d making d A^-1
        integral is 1."""
        m = self.matrix
        if any(len(row) != len(m) for row in m):
            return False
        if any(x.denominator != 1 for row in m for x in row):
            return False
        inverse = self._map[1]
        return inverse is not None and inverse[1] == 1


def identity_element(dim: int, colors: Iterable[str] = ()) -> GroupElement:
    return GroupElement(identity(dim), tuple(sorted((c, c) for c in colors)))


@cache
def _order_exponent(n: int) -> int:
    """L = lcm{m : phi(m) <= n}: the order of every n x n rational matrix of
    finite order divides L (its minimal polynomial is a product of distinct
    cyclotomic polynomials Phi_m, of degree phi(m) <= n).  Since
    phi(m) >= sqrt(m/2), every such m is at most 2n^2.  Computed once per
    dimension."""
    bound = 2 * n * n
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:
            for k in range(p, bound + 1, p):
                phi[k] -= phi[k] // p
    return lcm(*(m for m in range(1, bound + 1) if phi[m] <= n))


# A Mersenne prime: A^L is compared with I modulo it.
_ORDER_PRIME = 2**61 - 1


def _has_infinite_order(g: GroupElement) -> bool:
    """True when the matrix A of ``g`` is invertible and A^L != I for L of
    :func:`_order_exponent`, so that its powers are pairwise distinct.

    With d the common denominator and B = dA, the integer rows of
    :attr:`GroupElement._map`, A^L = I means B^L = d^L I.  Both sides are
    taken modulo ``_ORDER_PRIME``, B^L by repeated squaring, so the entries
    stay small whatever the size of L.  A difference there proves A^L != I.
    Equality, which every matrix of finite order gives, proves nothing, and
    the answer is False.  Singular and non-square matrices, which
    ``_map`` gives no inverse, are False as well.
    """
    matrix = g.matrix
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        return False
    rows, inverse = g._map
    if inverse is None:
        return False
    p = _ORDER_PRIME
    d = lcm(*(x.denominator for row in matrix for x in row))

    def times(a, b):
        return [[sum(map(mul, row, col)) % p for col in zip(*b)] for row in a]

    base = [[x % p for x in row] for row in rows]
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

    def elements(self) -> tuple[GroupElement, ...]:
        """Closure of the generators under composition (identity included).

        A finite closure of invertible elements automatically contains the
        inverses.  Raises :class:`ClosureCapError` if the closure exceeds
        :data:`CLOSURE_CAP` elements; at once, before any closing, when a
        generator matrix has infinite order, since its powers alone exceed
        every cap; and, when every generator is a lattice automorphism, as
        soon as two elements share their color permutation and their matrix
        mod 3, which proves the group infinite.  The closure is kept; the
        error is raised on every call.  The order test runs once per distinct
        generator matrix.  In the library only
        :func:`validate_action` reads it: invariance and orbits come from the
        generators (:func:`_image_table`).
        """
        return self._closure

    @cached_property
    def _closure(self) -> tuple[GroupElement, ...]:
        """The elements, in the order of a breadth-first search from the
        identity that composes each generator after each element of the last
        round, as :meth:`GroupElement.compose` would.

        The search runs on plain tuples ``(d, M, P)``: the matrix is M / d,
        with M an integer matrix and d > 0 coprime to its entries, and P
        lists, per color label in sorted order, the index of its image, or
        -1 for a label the element leaves out.  Equal elements give equal
        tuples, and the :class:`GroupElement` of each is built once, at the
        end.
        """
        exceeded = f"group closure exceeded the cap of {CLOSURE_CAP} elements"
        if any(map(_has_infinite_order, {g.matrix: g for g in self.generators}.values())):
            raise ClosureCapError(exceeded)
        labels = sorted(
            {*self.colors, *(c for g in self.generators for pair in g.color_perm for c in pair)}
        )
        index = {c: i for i, c in enumerate(labels)}

        def compose(g, h):
            """g after h."""
            (dg, mg, pg), (dh, mh, ph) = g, h
            cols = tuple(zip(*mh))
            m = tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in mg)
            d = dg * dh
            if d != 1:
                common = gcd(d, *(x for row in m for x in row))
                if common != 1:
                    d //= common
                    m = tuple(tuple([x // common for x in row]) for row in m)
            perm = tuple(
                pg[c] if v < 0 else v if pg[v] < 0 else pg[v] for c, v in enumerate(ph)
            )
            return d, m, perm

        def plain(g: GroupElement):
            d = lcm(*(x.denominator for row in g.matrix for x in row))
            perm = [-1] * len(labels)
            for c, v in g.color_perm:
                perm[index[c]] = index[v]
            return d, tuple(g._map[0]), tuple(perm)

        fixed = tuple(i if c in self.colors else -1 for i, c in enumerate(labels))
        ident = (1, identity(self.dim), fixed)
        # composed after the identity, which spells each fixed color out, each
        # element has one form; the first round lists the distinct generators
        generators = [compose(ident, plain(g)) for g in self.generators]
        seen = {ident: None}
        # Lattice automorphisms only: two elements with one color permutation
        # and one matrix mod 3 differ by a nontrivial element of the kernel of
        # GL_n(Z) -> GL_n(Z/3), which is torsion-free (Minkowski), so the
        # group is infinite.
        lattice = all(g._is_lattice_automorphism for g in self.generators)
        residues: dict = {}

        def residue_clash(g) -> bool:
            if not lattice:
                return False
            key = (tuple(tuple(x % 3 for x in row) for row in g[1]), g[2])
            return residues.setdefault(key, g) != g

        residue_clash(ident)  # records the identity's key
        frontier = [ident]
        while frontier:
            new_frontier = []
            for g in generators:
                for h in frontier:
                    gh = compose(g, h)
                    if gh not in seen:
                        seen[gh] = None
                        new_frontier.append(gh)
                        if len(seen) > CLOSURE_CAP or residue_clash(gh):
                            raise ClosureCapError(exceeded)
            frontier = new_frontier

        def element(d, m, perm) -> GroupElement:
            matrix = m if d == 1 else tuple(
                tuple([x // d if x % d == 0 else Fraction(x, d) for x in row]) for row in m
            )
            return GroupElement(
                matrix, tuple((labels[c], labels[v]) for c, v in enumerate(perm) if v >= 0)
            )

        return tuple(element(*g) for g in seen)


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
        report.record(
            f"{label}.lattice_automorphism",
            square and g._is_lattice_automorphism,
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
    action: GroupAction,
    fan: ColoredFan,
    sources: Iterable[ColoredCone] | None = None,
    taken: dict | None = None,
) -> tuple[ColoredCone | None, dict]:
    """Apply each generator to each source, by default each member
    (generators outer, sources inner).  ``taken`` maps (generator index,
    source key) to the key of the image, and each image taken is stored
    there: a call handed the ``taken`` of an earlier one maps no cone twice.

    Returns the first source with an image outside the fan, or None, and
    each source's orbit: the members that generator images reach from it,
    keyed by member key, itself first (none when a source offends).  What
    each generator keeps in the fan, every product keeps there, and
    :meth:`GroupAction.elements` lists the identity and the generators
    first: over all members, the whole group gives the same offender and
    orbits.  Sources other than all members must map into themselves: the
    maximal members under a validated action (see :func:`_k_form`).
    """
    members = {cc.key(): cc for cc in fan}
    sources = members if sources is None else {cc.key(): cc for cc in sources}
    taken = {} if taken is None else taken
    edges: dict = {key: [] for key in sources}
    for i, g in enumerate(action.generators):
        for key, cc in sources.items():
            image = taken.get((i, key))
            if image is None:
                image = taken[i, key] = apply_element(g, cc).key()
            if image not in members:
                return cc, {}
            edges[key].append(image)
    orbits = {}
    for start in sources:
        orbit, queue = {start: members[start]}, [start]
        for key in queue:
            reached = {image: members[image] for image in edges[key] if image not in orbit}
            orbit.update(reached)
            queue += reached
        orbits[start] = orbit
    return None, orbits


def is_fan_invariant(datum: SphericalDatum, action: GroupAction, fan: ColoredFan) -> bool:
    """True when each generator, so each group element, maps members to members."""
    return _image_table(action, fan)[0] is None


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

    The orbit fan of a member Z is the union of the colored faces of its
    images g.Z, the members that generator images reach from Z.  Its support
    LP is posed on the images that are a face of no other image: all of them,
    unless a singular generator under ``check=False`` maps Z onto a face.
    Only the verdict is kept, so the LP is solved by row generation from the
    pairs of images that share a wall (:func:`quasiproj._support_feasible`).

    With ``check=True`` the fan and the action are validated first; the fan
    validation supplies every member's colored faces, F2 rules out
    overlapping orbit cones, and only the maximal members are mapped.  A
    fan that :func:`fan_from_maximal_cones` built for ``datum`` carries every
    member's faces and C1-C4 and F1, so only F2 is tested
    (:func:`colored._checked_fan`); any other fan is validated in full.
    With ``check=False`` nothing is validated: the faces are looked up in the
    fan's facts or computed as needed, and overlapping orbit cones are looked
    for and reported as a (b) failure (see :func:`_k_form`).
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
    missing from it are found when its orbit is closed, and stored there (a
    member failing C1-C4 raises :class:`InvalidColoredConeError`).  Each
    orbit fan's support LP is posed on the maximal cones of its closure
    (:meth:`colored._Closure.maximal`) and decided by
    :func:`quasiproj._support_feasible`.

    When ``validated`` is True, ``faces`` holds every member's faces, and
    the generators are applied to the maximal members only, the members
    that are a proper colored face of no member, and only their orbits are
    looped over.  Each generator is a lattice automorphism that fixes the
    valuation cone and the placements, so it maps the colored faces of Z
    onto those of g.Z: on a face-closed fan, the images of the maximal
    members decide invariance, and every other member lies in the orbit
    fan of a maximal member of higher dimension, which the loop meets
    first.  When an image leaves the fan, the member loop of
    :func:`_image_table` runs again, so that the offender named is the one
    of the group route; it reuses the images the maximal pass took.  When
    ``validated`` is False, every orbit fan not yet verified is tested for
    overlapping cones, a (b) failure, and the first overlapping pair of its
    closure is named (:meth:`colored._Closure.overlaps`).  Otherwise the
    fan and the action have passed validation: F1 and invariance make every
    orbit member a fan member, so F2 already rules out overlapping orbit
    cones and no overlap test runs.

    A member whose orbit lies inside an already verified orbit fan is
    skipped before its orbit is closed: a verified orbit fan is closed under
    colored faces, so it then holds the whole orbit fan, and a subfan of a
    quasiprojective fan is quasiprojective (it carves out an open invariant
    piece).  Each skipped member is a colored face of a cone that passed
    C1-C4, and so passes them itself.
    """
    sources = None
    if validated:
        proper = {f.key() for cc in fan for f in faces[cc.key()] if f.key() != cc.key()}
        sources = [cc for cc in fan if cc.key() not in proper]
    taken: dict = {}
    offender, images = _image_table(action, fan, sources, taken)
    if offender is not None and sources is not None:
        # the member loop names the offender of the group route
        offender = _image_table(action, fan, None, taken)[0]
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
    for cc in sorted(fan if sources is None else sources, key=lambda cc: -cc.cone.dim):
        orbit = images[cc.key()]
        if any(orbit.keys() <= done for done in verified):
            continue
        closure = _face_closure(datum, orbit.values(), faces)
        overlap = None if validated else next(closure.overlaps(), None)
        if overlap is not None:
            first, second = (closure.members[i].describe() for i in overlap)
            return KFormResult(
                False,
                invariant=True,
                orbits_quasiprojective=False,
                reasons=(
                    f"(b) orbit cones {first} and {second} overlap inside the valuation cone",
                ),
            )
        if not _support_feasible(datum, closure.maximal()):
            return KFormResult(
                False,
                invariant=True,
                orbits_quasiprojective=False,
                reasons=(f"(b) the orbit fan of {cc.describe()} is not quasiprojective",),
            )
        verified.append(frozenset(m.key() for m in closure.members))
    return KFormResult(True, invariant=True, orbits_quasiprojective=True)

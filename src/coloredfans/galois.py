"""Finite Galois-type actions on spherical data and k-form existence checks.

A group element acts on the ambient space by a lattice automorphism (an
integer matrix with integer inverse) and on the color labels by a
permutation, compatibly with the placements and stabilizing the valuation
cone.  The profinite group itself is never materialized: the caller supplies
generators of the relevant finite quotient and the closure stops at
``CLOSURE_CAP`` elements, or at once on a generator of infinite order or,
for lattice automorphisms, on two elements that agree mod 3.  Element
matrices keep integral entries as ``int``.  The closure has no product of
its own: it multiplies elements with :meth:`GroupElement.compose`.  A
generator with ragged rows raises ``ValueError`` at the order test, any
other that is not ``dim`` x ``dim`` in ``compose``.  A cone's image under
an element maps both of its descriptions by the matrix and a multiple of its
inverse, computed once per element, and runs no double description; the
order test reads the same integer matrix.  The invariance and orbit loop
builds no image of a strictly convex member under an invertible element: it
looks the image up by its canonical rays and colors (:func:`_image_key`).

``has_k_form`` combines the two classification ingredients: (a) invariance
of the fan under the action, and (b) quasiprojectivity of every member's
orbit fan.  Invariance alone classifies the embedding among algebraic spaces
over the base field; (b) is the extra condition for a scheme form, stated
over a perfect base field.  Both are read off the generators' images of
the members, never off the enumerated group: of the maximal members alone
(:func:`colored._maximal`) once fan and action are validated, and the same
pass names the offender of the group route (:func:`_image_table`).  Once
fan and action are validated, the action is a finite group, and each orbit
fan is decided by one LP over the form of one orbit cone, with the
transversal of the orbit read off the same images (:func:`_orbit_forms`).
Without validation, orbit fans are built as face closures
(``colored._face_closure``) whose colored faces come from the fan's
closure; the faces of a cone missing from it are decided from its
intersection with the valuation cone, with no LP.  The closure names the
overlapping and the maximal orbit cones, and each orbit fan is decided by
row generation from its walls (see :func:`has_k_form`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    _checked_fan,
    _face_closure,
    _facts_for,
    _maximal,
    _meet_generators,
    _valuation_part,
)
from .errors import ClosureCapError, InvalidFanError
from .cones import _integer_map, _primitive, _ray_sum
from .linalg import (
    IntVec,
    RatMat,
    RatVec,
    _dot,
    _over_common_denominator,
    identity,
    mat,
    matmul,
    matvec,
)
from .linprog import LPProblem, SparseRow, lp_feasible
from .quasiproj import _support_feasible
from .reports import ValidationReport

PERFECT_FIELD_NOTE = (
    "scheme-form criterion: stated over a perfect base field; "
    "fan invariance alone classifies forms among algebraic spaces"
)

# Most elements a group closure may reach before ClosureCapError.
CLOSURE_CAP = 100000


def _spelled(rows: RatMat) -> RatMat:
    """The rows with their integral entries as ``int``."""
    return tuple(tuple([x.numerator if x.denominator == 1 else x for x in row]) for row in rows)


@dataclass(frozen=True)
class GroupElement:
    """A lattice automorphism paired with a permutation of the color labels.

    :meth:`make` and :meth:`compose` keep integral matrix entries as ``int``,
    by one rule (:func:`_spelled`), so equal elements print alike whichever
    built them.
    """

    matrix: RatMat
    color_perm: tuple[tuple[str, str], ...] = ()

    @staticmethod
    def make(matrix, color_perm: Mapping[str, str] | None = None) -> "GroupElement":
        """The element of ``matrix``, its integral entries stored as ``int``:
        it compares and hashes equal to the element of ``mat(matrix)``."""
        perm = tuple(sorted((color_perm or {}).items()))
        return GroupElement(_spelled(mat(matrix)), perm)

    @property
    def perm_map(self) -> dict[str, str]:
        return dict(self.color_perm)

    def apply_color(self, name: str) -> str:
        return self.perm_map.get(name, name)

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self after other; ValueError when the shapes of the two matrices
        do not fit or when a row of ``other`` is ragged."""
        perm = self.perm_map
        combined = {c: perm.get(v, v) for c, v in other.color_perm}
        for c, v in perm.items():
            combined.setdefault(c, v)
        m = matmul(self.matrix, other.matrix)
        # entries that sum to an int hold no Fraction: the product of two int
        # matrices, spelled already
        if type(sum(chain.from_iterable(m))) is not int:
            m = _spelled(m)
        return GroupElement(m, tuple(sorted(combined.items())))

    @cached_property
    def _map(self):
        """:func:`cones._integer_map` of the matrix, computed once per
        element: its integer rows and, when it is invertible, the transpose
        of a positive multiple of its inverse."""
        return _integer_map(self.matrix)

    @property
    def _is_lattice_automorphism(self) -> bool:
        """True when the matrix is integral and :attr:`_map` finds it an
        integral inverse, which only a square matrix has: the least d making
        d A^-1 integral is 1.  Ragged rows raise the ``ValueError`` of ``_map``."""
        if any(x.denominator != 1 for row in self.matrix for x in row):
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
    ``_map`` gives no inverse, are False as well; ragged rows raise the
    ``ValueError`` of ``_map``.
    """
    rows, inverse = g._map
    if inverse is None:
        return False
    n = len(rows)
    p = _ORDER_PRIME
    d = lcm(*(x.denominator for row in g.matrix for x in row))

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
        mod 3, which proves the group infinite.  A generator with ragged
        rows raises ``ValueError`` at the order test, any other that is not
        a ``dim`` x ``dim`` matrix in :meth:`GroupElement.compose`.  The
        closure is kept; the error is raised on every call.  The order test
        runs once per distinct generator matrix.  In the library only
        :func:`validate_action` reads it: invariance and orbits come from the
        generators (:func:`_image_table`).
        """
        return self._closure

    @cached_property
    def _closure(self) -> tuple[GroupElement, ...]:
        """The elements, in the order of a breadth-first search from the
        identity that composes each generator after each element of the last
        round with :meth:`GroupElement.compose`.

        The identity spells out every color of the datum, and each generator
        is composed after it first, so every element spells out the colors
        it fixes and has one form.  The search keys the elements it has seen
        by their ``(matrix, color_perm)`` tuples.
        """
        exceeded = f"group closure exceeded the cap of {CLOSURE_CAP} elements"
        if any(map(_has_infinite_order, {g.matrix: g for g in self.generators}.values())):
            raise ClosureCapError(exceeded)
        ident = identity_element(self.dim, self.colors)
        # the first round lists the distinct generators
        generators = [ident.compose(g) for g in self.generators]
        ident_key = (ident.matrix, ident.color_perm)
        seen = {ident_key: ident}
        # Lattice automorphisms only: two elements with one color permutation
        # and one matrix mod 3 differ by a nontrivial element of the kernel of
        # GL_n(Z) -> GL_n(Z/3), which is torsion-free (Minkowski), so the
        # group is infinite.
        lattice = all(g._is_lattice_automorphism for g in self.generators)
        residues: dict = {}

        def residue_clash(key) -> bool:
            if not lattice:
                return False
            matrix, perm = key
            mod3 = tuple([tuple([x % 3 for x in row]) for row in matrix])
            return residues.setdefault((mod3, perm), key) != key

        residue_clash(ident_key)  # records the identity's key
        frontier = [ident]
        while frontier:
            new_frontier = []
            for g in generators:
                for h in frontier:
                    gh = g.compose(h)
                    key = (gh.matrix, gh.color_perm)
                    if key not in seen:
                        seen[key] = gh
                        new_frontier.append(gh)
                        if len(seen) > CLOSURE_CAP or residue_clash(key):
                            raise ClosureCapError(exceeded)
            frontier = new_frontier
        return tuple(seen.values())


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


def _image_key(g: GroupElement, cc: ColoredCone, strict: dict):
    """The key of ``apply_element(g, cc)`` when that image is a member, and a
    key no member has when it is not; ``strict`` maps (ambient dimension,
    canonical rays, sorted colors) to the key of each strictly convex member.

    When the matrix of ``g`` is invertible in the cone's ambient dimension
    and the cone is strictly convex, no cone is built: an invertible map
    sends extreme rays to extreme rays and keeps strict convexity, so the
    canonical rays of the image are the sorted primitive images of the
    canonical rays, and the image is the member of those rays and colors,
    if any.  Any other image is :func:`apply_element`, with its errors.
    """
    rows, inverse = g._map
    cone = cc.cone
    if inverse is None or len(rows) != cone.ambient_dim or cone._lineality:
        return apply_element(g, cc).key()
    perm = g.perm_map
    rays = tuple(sorted(_primitive(tuple([_dot(row, r) for row in rows])) for r in cone._rays))
    found = (cone.ambient_dim, rays, tuple(sorted({perm.get(c, c) for c in cc.colors})))
    return strict.get(found, found)


def _image_table(
    action: GroupAction, fan: ColoredFan, sources: Iterable[ColoredCone] | None = None
) -> tuple[ColoredCone | None, dict, dict]:
    """Apply each generator to each source, by default each member
    (generators outer, sources inner), by :func:`_image_key`.

    Returns the offender, or None; each source's orbit, the members that
    generator images reach from it breadth first, keyed by member key,
    itself first; and the images, per source key the image keys under the
    generators, in order (both empty when there is an offender).  When the
    image of a source under a
    generator g leaves the fan, the offender is the first member, in fan
    order, whose image under g leaves it: the sources before that source
    stayed in the fan under g, so only members that are no source are mapped
    again.  What each generator keeps in the fan, every product keeps there,
    and :meth:`GroupAction.elements` lists the identity and the generators
    first: over all members, the whole group gives the same offender and
    orbits.  Sources other than all members must be members, in fan order,
    that map into themselves: the maximal members under a validated action
    (see :func:`_k_form`).
    """
    members = {cc.key(): cc for cc in fan}
    strict = {
        (cc.cone.ambient_dim, cc.cone._rays, key[1]): key
        for key, cc in members.items()
        if not cc.cone._lineality
    }
    sources = members if sources is None else {cc.key(): cc for cc in sources}
    edges: dict = {key: [] for key in sources}
    for g in action.generators:
        for key, cc in sources.items():
            image = _image_key(g, cc, strict)
            if image not in members:
                return next(
                    m
                    for m in fan
                    if m.key() == key
                    or m.key() not in sources and _image_key(g, m, strict) not in members
                ), {}, {}
            edges[key].append(image)
    orbits = {}
    for start in sources:
        orbit, queue = {start: members[start]}, [start]
        for key in queue:
            reached = {image: members[image] for image in edges[key] if image not in orbit}
            orbit.update(reached)
            queue += reached
        orbits[start] = orbit
    return None, orbits, edges


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
    Only the verdict is kept.

    With ``check=True`` the fan and the action are validated first; the fan
    validation supplies every member's colored faces, from which
    :func:`colored._maximal` names the maximal members, the only ones
    mapped, and F2 rules out overlapping orbit cones.  A fan that
    :func:`fan_from_maximal_cones` built for ``datum`` carries every
    member's faces and C1-C4 and F1, so only F2 is tested
    (:func:`colored._checked_fan`); any other fan is validated in full.  The
    action is then a finite group of lattice automorphisms fixing V, so the
    support LP has a solution exactly when it has an invariant one, and it
    is decided over the form of one orbit cone (:func:`_orbit_forms`), whose
    lifted forms are checked exactly (see :func:`_k_form`).

    With ``check=False`` nothing is validated, and the action need not be a
    finite group of automorphisms; no command and no other library function
    takes this route.  Every member is mapped (:func:`_image_table`).  The
    colored faces come from the closure the fan was read off, when it was
    closed for ``datum`` (:func:`colored._facts_for`); the faces of a
    member missing from it are found when its orbit is closed
    (:func:`colored._face_closure`), and stored there (a member failing
    C1-C4 raises :class:`InvalidColoredConeError`).  Each orbit fan not yet
    verified is tested for overlapping cones, a (b) failure, and the first
    overlapping pair of its closure is named
    (:meth:`colored._Closure.overlaps`); then its support LP is posed on
    the maximal cones of the closure (:meth:`colored._Closure.maximal`) and
    decided by row generation from the pairs of images that share a wall
    (:func:`quasiproj._support_feasible`).  A member whose orbit lies
    inside an already verified orbit fan is skipped before its orbit is
    closed: a verified orbit fan is closed under colored faces, so it then
    holds the whole orbit fan, and a subfan of a quasiprojective fan is
    quasiprojective (it carves out an open invariant piece).  Each skipped
    member is a colored face of a cone that passed C1-C4, and so passes
    them itself.
    """
    if check:
        fan_report, faces = _checked_fan(datum, fan)
        fan_report.require(InvalidFanError, "fan failed validation")
        validate_action(datum, action).require(InvalidFanError, "action failed validation")
        return _k_form(datum, action, fan, _maximal(fan, faces))
    offender, images, _ = _image_table(action, fan)
    if offender is not None:
        return _not_invariant(offender)
    facts = _facts_for(datum, fan)
    faces = {} if facts is None else facts.faces
    verified: list[frozenset] = []
    for cc in sorted(fan, key=lambda cc: -cc.cone.dim):
        orbit = images[cc.key()]
        if any(orbit.keys() <= done for done in verified):
            continue
        closure = _face_closure(datum, orbit.values(), faces)
        overlap = next(closure.overlaps(), None)
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
            return _not_quasiprojective(cc)
        verified.append(frozenset(m.key() for m in closure.members))
    return KFormResult(True, invariant=True, orbits_quasiprojective=True)


def _k_form(
    datum: SphericalDatum, action: GroupAction, fan: ColoredFan, maximal: list[ColoredCone]
) -> KFormResult:
    """The verdict of :func:`has_k_form` on a fan and an action that passed
    validation, given the maximal members in fan order
    (:func:`colored._maximal`).

    Only the maximal members are mapped, by :func:`_image_table`, which
    reads the image of a strictly convex member under an invertible
    generator off its canonical rays and builds no cone, and only their
    orbits are looped over.  Each generator is a lattice automorphism that
    fixes the valuation cone and the placements, so it maps the colored
    faces of Z onto those of g.Z: on a face-closed fan, a generator that
    keeps every maximal member keeps every member, so the first generator
    to move a maximal member out is the first to move any member out, and
    the offender named under it is the one of the group route.  Every other
    member lies in the orbit fan of a maximal member, and the images of a
    maximal member are the maximal cones of its orbit fan, which no other
    maximal member's orbit fan holds: so a maximal member already met in an
    orbit is skipped, and each orbit fan is decided on its orbit by
    :func:`_orbit_forms`, one form's LP with no face closure.  F1 and
    invariance make every orbit member a fan member, so F2 already rules
    out overlapping orbit cones.
    """
    offender, images, edges = _image_table(action, fan, maximal)
    if offender is not None:
        return _not_invariant(offender)
    met: set = set()
    for cc in sorted(maximal, key=lambda cc: -cc.cone.dim):
        if cc.key() in met:
            continue
        orbit = images[cc.key()]
        if _orbit_forms(datum, action, orbit, edges) is None:
            return _not_quasiprojective(cc)
        met.update(orbit)
    return KFormResult(True, invariant=True, orbits_quasiprojective=True)


def _not_invariant(offender: ColoredCone) -> KFormResult:
    """The (a) failure, naming a member that a generator maps out of the fan."""
    return KFormResult(
        False,
        invariant=False,
        orbits_quasiprojective=None,
        reasons=(
            "(a) fan is not invariant under the Galois action; offending cone: "
            f"{offender.describe()}",
        ),
    )


def _not_quasiprojective(cc: ColoredCone) -> KFormResult:
    """The (b) failure of the orbit fan of ``cc``."""
    return KFormResult(
        False,
        invariant=True,
        orbits_quasiprojective=False,
        reasons=(f"(b) the orbit fan of {cc.describe()} is not quasiprojective",),
    )


def _orbit_forms(
    datum: SphericalDatum, action: GroupAction, orbit: dict, edges: dict
) -> list[RatVec] | None:
    """Support forms of the orbit fan of Z_0, the first cone of ``orbit``,
    one per orbit cone in ``orbit`` order, or None when the orbit fan is not
    quasiprojective; ``orbit`` and ``edges`` as :func:`_image_table` returns
    them, for a validated action on a fan that satisfies F2.

    The action is then a finite group of lattice automorphisms fixing V,
    and it permutes the orbit cones Z_j = g_j Z_0, which are the maximal
    cones of the orbit fan.  It maps the solutions of their support LP
    (:func:`quasiproj._support_lp`) onto solutions, l_{g.j} = l_j g^-1, so
    the average of any solution over the group is an invariant one, and
    the LP is feasible exactly when it has an invariant solution: one form
    l_0, with l_j = l_0 t_j for t_j = g_j^-1.  An invariant family maps
    each pair (k, l) of the LP onto a pair (0, j), so only those are posed,
    over the n entries of l_0 (Bödi, Herr & Joswig, *Math. Program.* 2013):

    * l_0 t_k s^-1 = l_0 t_{s.k} for each generator s and orbit cone Z_k
      with t_k s^-1 != t_{s.k}: then l_0 is fixed by the Schreier generator
      h = g_{s.k}^-1 s g_k != I, and these generate the stabilizer of Z_0;
    * l_0 . (v - t_j v) = 0 on the generators v of Z_0 ∩ Z_j, for j != 0
      (:func:`colored._meet_generators`): the common rays when Z_0, so each
      Z_j, lies in V, else by :meth:`Cone.intersect`;
    * for each j != 0, one block: l_0 . (x - t_j x) >= 0 on the generators
      x of K_0 = Z_0 ∩ V, and >= 1 at their ray sum, which g_j maps onto
      that of K_j = g_j K_0.

    The transversal t_j is read off the generator images ``edges``,
    breadth first as ``orbit`` lists the cones.  A solution is lifted to
    l_j = l_0 t_j and checked exactly: l_{s.j} = l_j s^-1 for every
    generator s and orbit cone j, which makes the family invariant, so that
    each block of the full LP maps onto a block that the LP solved.
    """
    n = datum.dim
    # s^-1 of a lattice automorphism s: _map holds the transpose of its inverse
    inverses = [tuple(zip(*g._map[1][0])) for g in action.generators]
    keys = list(orbit)
    transversal = {keys[0]: identity(n)}
    eqs = []
    for key in keys:
        for s_inv, image in zip(inverses, edges[key]):
            moved = matmul(transversal[key], s_inv)
            known = transversal.setdefault(image, moved)
            if known != moved:
                diff = [[a - b for a, b in zip(*rows)] for rows in zip(moved, known)]
                eqs += [_row(column, 0) for column in zip(*diff)]
    z0 = orbit[keys[0]].cone
    part = _valuation_part(datum, z0)
    gens = part._generators()
    witness = _ray_sum(part._rays, n)
    ineqs = []
    for key in keys[1:]:
        t = transversal[key]
        zj = orbit[key].cone
        shared = _meet_generators(z0, zj, set(zj._rays) if part is z0 else None)
        eqs += [_row(_minus_image(t, v), 0) for v in shared]
        ineqs += [_row(_minus_image(t, x), 0) for x in gens]
        ineqs.append(_row(_minus_image(t, witness), 1))
    point = lp_feasible(LPProblem._from_integral(n, eqs, ineqs))
    if point is None:
        return None
    # the forms as integer numerators over one denominator
    nums, den = _over_common_denominator(point)
    forms = {key: _times(nums, t) for key, t in transversal.items()}
    for key in keys:
        for s_inv, image in zip(inverses, edges[key]):
            if forms[image] != _times(forms[key], s_inv):
                raise AssertionError("internal error: the lifted orbit forms are not invariant")
    return [tuple([Fraction(x, den) for x in forms[key]]) for key in keys]


def _minus_image(t: Sequence[IntVec], x: IntVec) -> list[int]:
    """x - t x, for an integer matrix ``t``."""
    return [a - _dot(row, x) for a, row in zip(x, t)]


def _times(form: Sequence[int], t: Sequence[IntVec]) -> IntVec:
    """The integer row vector ``form`` times the integer matrix ``t``."""
    return tuple([_dot(form, column) for column in zip(*t)])


def _row(coefficients: Sequence[int], b: int) -> SparseRow:
    """The integral LP row ``coefficients . x >= b`` (or ``= b``), over the
    scale 1."""
    return [(j, x) for j, x in enumerate(coefficients) if x], b, 1

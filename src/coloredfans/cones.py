"""Rational polyhedral cones with paired generator/inequality descriptions.

Every cone eagerly stores both descriptions, converted with an exact
incremental double description pass, and every stored field is canonical:

* ``lineality_basis`` -- primitive echelon basis of the largest linear
  subspace inside the cone;
* ``rays`` -- primitive representatives of the extreme rays modulo the
  lineality space, reduced against the lineality basis and sorted;
* ``span_equations`` -- primitive echelon basis of the functionals vanishing
  on the whole cone (empty exactly when the cone spans the ambient space);
* ``facet_normals`` -- primitive representatives of the facet-defining
  functionals modulo the span equations, sorted.

Two cones are equal as point sets exactly when these fields compare equal,
so equality and hashing are structural.

The fields are stored as tuples of primitive integer vectors, and
everything runs on integers: every input row is scaled once by the lcm of
its denominators, which leaves the cone as it is, and the double
description needs only sign tests and positive combinations, each followed
by division by the gcd.  Every intermediate vector is thus a positive
multiple of the one a pass over the rationals would hold, and the primitive
representatives are the same.  Point tests put the point over one positive
common denominator.  The image under a square nonsingular matrix runs no
double description: rays and lineality map by the matrix, facet normals and
span equations by the transpose of a positive multiple of its inverse, which
one fraction-free elimination gives.  Images under singular or non-square
matrices map the generators and convert them again.  Either way the whole
matrix is scaled once, by one common denominator.  The
public fields are ``Fraction`` tuples, built from the integer ones on each
read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .errors import DoubleDescriptionCapError
from .linalg import (
    IntVec,
    RatMat,
    RatVec,
    _combine,
    _dot,
    _echelon,
    _over_common_denominator,
    _scaled_inverse,
)


# Most candidate ray pairs, a positive and a negative ray of one row, that
# one ``_dd`` call may test; the pairs, not the rays, are where a double
# description blows up.  The cone over the moment curve (1, t, ..., t^7),
# t = 1..n, reaches 12k at n = 11, the largest call the tier-1 tests finish,
# and 5.0M at n = 14 (about 1 s); at n = 15 it would reach 22M and is refused
# after about 2.4 s, on a 2-core x86_64 box with Python 3.11.
MAX_DD_PAIRS = 10**7


@cache
def _unit_vectors(dim: int) -> tuple[IntVec, ...]:
    """The standard basis of the integer vectors of length ``dim``."""
    return tuple(tuple([int(i == j) for j in range(dim)]) for i in range(dim))


def _dd(rows: Sequence[Sequence[int]], dim: int) -> tuple[list[IntVec], list[IntVec]]:
    """Double description of {x : r . x >= 0 for r in rows}, rows integral.

    Returns (lineality basis, extreme rays modulo the lineality space), as
    primitive integer vectors, inserting one inequality at a time.  The
    list holds exactly the extreme rays of the cone cut out so far, each
    with its tight set, so a ray of positive and a ray of negative value on
    the new row are adjacent exactly when no third ray's tight set contains
    their common one (Fukuda & Prodon, "Double description method
    revisited", 1996).  No elimination runs.  Two adjacent rays span a
    2-face, and the rows tight on it have rank dim - len(lin) - 2, so a pair
    whose common set holds fewer rows is skipped before that scan.

    A tight set is an ``int`` bit mask over the row indices, and the count
    of rays tight on a common set stops at the third.  The peel and combine
    steps spell out :func:`linalg._combine`, each new vector divided by the
    gcd of its entries.  :class:`errors.DoubleDescriptionCapError` is raised
    once the pairs of a positive and a negative ray, summed over the rows,
    exceed :data:`MAX_DD_PAIRS`, before any of the row's pairs is tested.
    """
    lin: list[IntVec] = list(_unit_vectors(dim))
    pairs = 0
    # each ray carries the bit mask of the processed rows that vanish on it
    rays: list[tuple[IntVec, int]] = []
    for idx, a in enumerate(rows):
        bit = 1 << idx
        lin_vals = [sum(map(mul, a, b)) for b in lin]
        if any(lin_vals):
            # the new inequality cuts the lineality space: peel one direction off
            j0 = next(i for i, v in enumerate(lin_vals) if v)
            b0, v0 = lin[j0], lin_vals[j0]
            if v0 < 0:
                b0, v0 = tuple([-x for x in b0]), -v0
            lin = [
                _combine(v0, b, v, b0)
                for i, (b, v) in enumerate(zip(lin, lin_vals))
                if i != j0
            ]
            peeled = []
            for r, tight in rays:
                f = sum(map(mul, a, r))
                out = [v0 * x - f * y for x, y in zip(r, b0)] if f else r
                g = gcd(*out)
                peeled.append((tuple([x // g for x in out]) if g > 1 else tuple(out), tight | bit))
            rays = peeled
            rays.append((b0, bit - 1))
        else:
            plus: list[tuple[IntVec, int, int]] = []
            minus: list[tuple[IntVec, int, int]] = []
            kept: list[tuple[IntVec, int]] = []
            for r, tight in rays:
                v = sum(map(mul, a, r))
                if v > 0:
                    plus.append((r, tight, v))
                    kept.append((r, tight))
                elif v < 0:
                    minus.append((r, tight, v))
                else:
                    kept.append((r, tight | bit))
            if plus and minus:
                pairs += len(plus) * len(minus)
                if pairs > MAX_DD_PAIRS:
                    raise DoubleDescriptionCapError(
                        f"double description: {pairs} candidate ray pairs, "
                        f"more than {MAX_DD_PAIRS}"
                    )
                least = dim - len(lin) - 2
                tights = [tight for _, tight in rays]
                for rp, tp, vp in plus:
                    for rm, tm, vm in minus:
                        common = tp & tm
                        if common.bit_count() < least:
                            continue
                        # adjacent: rp and rm are the only rays tight on all of common
                        count = 0
                        for tight in tights:
                            if tight & common == common:
                                count += 1
                                if count > 2:
                                    break
                        else:
                            out = [vp * x - vm * y for x, y in zip(rm, rp)]
                            g = gcd(*out)
                            kept.append(
                                (tuple([x // g for x in out]) if g > 1 else tuple(out), common | bit)
                            )
            rays = kept
    return lin, [r for r, _ in rays]


def _canonical_rays(raw: Iterable[Sequence[int]], basis: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    """Primitive coset representatives of the primitive vectors ``raw`` modulo
    the span of ``basis``, zeroed at its pivots, deduplicated and sorted; zero
    vectors are dropped.

    ``basis`` comes from ``_echelon``: primitive rows with positive pivots.
    """
    pivoted = [(row, next(i for i, x in enumerate(row) if x)) for row in basis]
    out = set()
    for r in raw:
        for row, p in pivoted:
            f = r[p]
            if f:
                c = row[p]
                g = gcd(c, f)
                r = _combine(c // g, r, f // g, row)
        if any(r):
            out.add(r)
    return tuple(sorted(out))


def _primitive(v: IntVec) -> IntVec:
    """The nonzero integer vector ``v`` divided by the gcd of its entries."""
    g = gcd(*v)
    return tuple([x // g for x in v]) if g > 1 else v


def _integer_map(matrix: RatMat) -> tuple[list[IntVec], tuple[list[IntVec], int] | None]:
    """(rows, inverse) of a rational matrix whose rows share one length.

    ``rows`` is the matrix times one positive common denominator, as integer
    tuples, which maps every cone onto its image under ``matrix``.  For a
    nonempty square nonsingular matrix, ``inverse`` is ``(dual, d)``:
    ``dual`` is the transpose of ``d`` times the inverse of ``rows``, which
    maps the cone's functionals onto those of the image, and ``d > 0`` is the
    least integer making it integral.  ``inverse`` is None for any other
    matrix.
    """
    n = len(matrix[0]) if matrix else 0
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix rows have inconsistent lengths")
    flat, _ = _over_common_denominator(x for row in matrix for x in row)
    rows = [tuple(flat[i * n : (i + 1) * n]) for i in range(len(matrix))]
    scaled = _scaled_inverse(rows) if 0 < len(rows) == n else None
    return rows, None if scaled is None else (list(zip(*scaled[0])), scaled[1])


def _signed(basis: Iterable[IntVec]) -> tuple[IntVec, ...]:
    """Each vector of ``basis``, then its negative: the basis of a linear
    subspace as cone generators, or its equations as inequalities."""
    return tuple(v for b in basis for v in (b, tuple(-x for x in b)))


def _fractions(vectors: Iterable[Sequence[int]]) -> RatMat:
    return tuple(tuple(map(Fraction, v)) for v in vectors)


class Cone:
    """Immutable rational polyhedral cone in a fixed ambient dimension.

    The canonical fields are stored as tuples of primitive integer vectors,
    ``_rays``, ``_lineality``, ``_facets`` and ``_span_eq``, with
    ``_ineqs`` (each span equation and its negative, then the facet
    normals); the package computes on these.  The public ``rays``,
    ``lineality_basis``, ``facet_normals``, ``span_equations`` and
    ``inequalities`` are the same vectors as ``Fraction`` tuples, built on
    each read.  Equality, hashing and ordering read the integer fields,
    which compare and hash as the ``Fraction`` ones do.
    """

    __slots__ = (
        "ambient_dim",
        "_rays",
        "_lineality",
        "_facets",
        "_span_eq",
        "_ineqs",
        "_faces",
        "_relint",
        "_hash",
    )

    rays = property(lambda self: _fractions(self._rays))
    lineality_basis = property(lambda self: _fractions(self._lineality))
    facet_normals = property(lambda self: _fractions(self._facets))
    span_equations = property(lambda self: _fractions(self._span_eq))
    inequalities = property(lambda self: _fractions(self._ineqs))

    def __init__(self, ambient_dim, rays, lineality_basis, facet_normals, span_equations):
        """The cone of canonical fields given as tuples of integer tuples."""
        self.ambient_dim = ambient_dim
        self._rays = rays
        self._lineality = lineality_basis
        self._facets = facet_normals
        self._span_eq = span_equations
        self._ineqs = _signed(span_equations) + facet_normals
        self._faces = self._relint = None
        self._hash = hash((ambient_dim, rays, lineality_basis))

    # -- construction -------------------------------------------------

    @staticmethod
    def _from_descriptions(dim, lin_raw, rays_raw, dual_lin_raw, dual_rays_raw) -> "Cone":
        """The canonical cone of two integral double descriptions."""
        lineality, _ = _echelon(lin_raw)
        rays = _canonical_rays(rays_raw, lineality)
        span_eq, _ = _echelon(dual_lin_raw)
        facets = _canonical_rays(dual_rays_raw, span_eq)
        return Cone(dim, rays, tuple(lineality), facets, tuple(span_eq))

    def _generators(self) -> tuple[IntVec, ...]:
        return self._rays + _signed(self._lineality)

    def generators(self) -> tuple[RatVec, ...]:
        """Rays plus a +/- spanning pair per lineality direction."""
        return _fractions(self._generators())

    # -- predicates ---------------------------------------------------

    def _check_vector(self, v: Sequence) -> list[int]:
        """``v`` times the lcm of its denominators, which keeps every sign."""
        w, _ = _over_common_denominator(v)
        if len(w) != self.ambient_dim:
            raise ValueError(
                f"dimension mismatch: vector of length {len(w)} in ambient dimension {self.ambient_dim}"
            )
        return w

    def contains(self, v: Sequence) -> bool:
        w = self._check_vector(v)
        return all(_dot(a, w) >= 0 for a in self._ineqs)

    def in_relative_interior(self, v: Sequence) -> bool:
        return self._holds_in_relative_interior(self._check_vector(v))

    def _holds_in_relative_interior(self, w: Sequence[int]) -> bool:
        """:meth:`in_relative_interior` of an integer vector of the ambient
        dimension."""
        if not all(_dot(e, w) == 0 for e in self._span_eq):
            return False
        return all(_dot(a, w) > 0 for a in self._facets)

    @property
    def dim(self) -> int:
        """Dimension of the linear span of the cone: the span equations are a
        basis of the functionals vanishing on it."""
        return self.ambient_dim - len(self._span_eq)

    @property
    def is_strictly_convex(self) -> bool:
        return not self._lineality

    @property
    def is_zero(self) -> bool:
        return not self._rays and not self._lineality

    # -- derived cones ------------------------------------------------

    def intersect(self, other: "Cone") -> "Cone":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("dimension mismatch between cones")
        return cone_from_inequalities(self._ineqs + other._ineqs, self.ambient_dim)

    def image(self, matrix: RatMat) -> "Cone":
        """The image cone under ``matrix``, whose column count must be the
        ambient dimension."""
        return self._image(*_integer_map(matrix))

    def _image(
        self, rows: Sequence[IntVec], inverse: tuple[Sequence[IntVec], int] | None
    ) -> "Cone":
        """The image cone under the integer matrix ``rows``, given ``inverse``
        as :func:`_integer_map` makes them.

        A nonsingular matrix maps both descriptions directly
        (:meth:`_image_invertible`); any other matrix maps the generators and
        runs the double description on them.
        """
        if rows and len(rows[0]) != self.ambient_dim:
            raise ValueError("matrix column count does not match the ambient dimension")
        if inverse is not None:
            return self._image_invertible(rows, inverse[0])
        gens = [tuple(_dot(row, g) for row in rows) for g in self._generators()]
        return cone_from_generators(gens, len(rows))

    def _image_invertible(self, rows: Sequence[IntVec], dual: Sequence[IntVec]) -> "Cone":
        """The image cone under the nonsingular integer matrix ``rows``, given
        ``dual``, the transpose of a positive multiple of its inverse, as
        :func:`_integer_map` makes them; no double description runs.

        Rays and lineality map by ``rows``, facet normals and span equations
        by ``dual``: a functional ``f`` with ``f . x >= 0`` on the cone gives
        ``(f A^-1) . (A x) >= 0`` on the image.  An invertible map keeps
        extreme rays extreme and facets facets, so the canonical form needs
        only the primitive scaling of the rays and facet normals and the
        echelon reduction.
        """

        def mapped(matrix, vectors):
            return [tuple([_dot(row, v) for row in matrix]) for v in vectors]

        return Cone._from_descriptions(
            len(rows),
            mapped(rows, self._lineality),
            [_primitive(v) for v in mapped(rows, self._rays)],
            mapped(dual, self._span_eq),
            [_primitive(v) for v in mapped(dual, self._facets)],
        )

    def faces(self) -> tuple["Cone", ...]:
        """All faces, canonical and deduplicated, the cone itself included.

        Each face is cut from a face found before by one facet hyperplane, a
        double description per cut.  The LP route of ``colored`` reaches
        these cuts, and ``bench/run.py`` pins their count on the twisted
        cube; :meth:`_lattice_faces` gives the same tuple with no double
        description, and these cuts are its test oracle.
        """
        if self._faces is None:
            found = {self}
            queue = [self]
            while queue:
                current = queue.pop()
                gens = current._generators()
                for a in self._facets:
                    if all(_dot(a, g) == 0 for g in gens):
                        continue
                    cut = cone_from_inequalities(
                        current._ineqs + _signed((a,)), self.ambient_dim
                    )
                    if cut not in found:
                        found.add(cut)
                        queue.append(cut)
            self._faces = tuple(sorted(found, key=_face_sort_key))
        return self._faces

    def _lattice_faces(
        self, limit: int | None = None, table: dict | None = None
    ) -> tuple["Cone", ...] | None:
        """:meth:`faces`, read off the facet-ray incidences with no double
        description (Kaibel & Pfetsch, "Computing the face lattice of a
        polytope from its vertex-facet incidences", 2002); None, with
        nothing stored on the cone, once more than ``limit`` faces are found.

        A face is the lineality space plus the cone over the rays it holds,
        so it is known by that ray set S, a bit mask here.  The faces of the
        face S are S itself and the faces of its facets, which are the
        inclusion-maximal cuts S ∩ T_f by the facets f not tight on S, T_f
        being the rays on f; a breadth-first search from the full ray set
        walks them all.  The face S keeps the cone's lineality and the
        cone's canonical rays in S, which stay canonical; it adds the facets
        tight on S to its span equations, echelon-reduced, and takes one
        facet f per maximal cut as a facet normal, reduced modulo them,
        which is canonical whichever f is taken.

        ``table`` maps (lineality, rays) to a cone, for cones of this ambient
        dimension: a face found there is that cone, and a face built here,
        the cone itself included, is stored there.  Callers that walk several
        cones pass one table, so that a face two cones share is one object,
        built once.
        """
        if self._faces is not None:
            return self._faces if limit is None or len(self._faces) <= limit else None
        table = {} if table is None else table
        rays, lineality = self._rays, self._lineality
        table.setdefault((lineality, rays), self)
        tight = [
            sum(1 << i for i, r in enumerate(rays) if _dot(a, r) == 0) for a in self._facets
        ]
        full = (1 << len(rays)) - 1
        seen = {full}
        queue = [full]
        found = []
        for s in queue:
            cuts: dict[int, IntVec] = {}
            span_eq = list(self._span_eq)
            for a, t in zip(self._facets, tight):
                if s & ~t:
                    cuts.setdefault(s & t, a)
                else:
                    span_eq.append(a)
            facets = []
            for cut, a in cuts.items():
                if not any(cut != other and cut & other == cut for other in cuts):
                    facets.append(a)
                    if cut not in seen:
                        seen.add(cut)
                        queue.append(cut)
            if limit is not None and len(seen) > limit:
                return None
            if s == full:
                found.append(self)
                continue
            key = (lineality, tuple([r for i, r in enumerate(rays) if s >> i & 1]))
            face = table.get(key)
            if face is None:
                span, _ = _echelon(span_eq)
                face = table[key] = Cone(
                    self.ambient_dim,
                    key[1],
                    lineality,
                    _canonical_rays(facets, span),
                    tuple(span),
                )
            found.append(face)
        self._faces = tuple(sorted(found, key=_face_sort_key))
        return self._faces

    def _relint_rows(self) -> tuple:
        """The relative interior as integral LP rows ``(terms, b, 1)``,
        ``a . x >= b``: b = 0 for each row of ``_ineqs``, then b = 1 for each
        facet normal, which homogenizes the strict inequality.  ``terms`` lists
        the nonzero coefficients as ``(column, integer)`` pairs.  Built on
        first call and kept in the cone; every LP posed on the cone shares
        these rows, and reads them only."""
        if self._relint is None:
            self._relint = tuple(
                ([(j, x) for j, x in enumerate(a) if x], b, 1)
                for b, rows in ((0, self._ineqs), (1, self._facets))
                for a in rows
            )
        return self._relint

    def is_face_of(self, other: "Cone") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("dimension mismatch between cones")
        return self in other._lattice_faces()

    def interior_point(self) -> RatVec:
        """Sum of the canonical rays: a point in the relative interior."""
        return tuple(map(Fraction, _ray_sum(self._rays, self.ambient_dim)))

    # -- structural equality -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self._rays == other._rays
            and self._lineality == other._lineality
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Cone(ambient_dim={self.ambient_dim}, rays={describe_vectors(self._rays)}, lineality={describe_vectors(self._lineality)})"


def _ray_sum(rays: Sequence[IntVec], dim: int) -> IntVec:
    """The sum of ``rays``, a point in the relative interior of the cone they
    generate; the origin when there are none."""
    return tuple(map(sum, zip(*rays))) if rays else (0,) * dim


def _face_sort_key(cone: Cone):
    return (cone.dim, cone._rays, cone._lineality)


def describe_vectors(vectors: Iterable[Sequence[int]]) -> str:
    """Integer vectors as ``[(1,-2), ...]``."""
    return "[" + ", ".join("(" + ",".join(map(str, v)) + ")" for v in vectors) + "]"


def _integral(vectors: Iterable[Sequence], dim: int, kind: str) -> list[Sequence[int]]:
    """Each vector times the lcm of its denominators, a tuple of ints as it
    is; every length must be ``dim``."""
    rows = []
    for row in vectors:
        if type(row) is not tuple or not all(type(x) is int for x in row):
            row, _ = _over_common_denominator(row)
        if len(row) != dim:
            raise ValueError(f"{kind} of length {len(row)} in ambient dimension {dim}")
        rows.append(row)
    return rows


def cone_from_generators(gens: Iterable[Sequence], dim: int) -> Cone:
    """Canonical cone of all nonnegative rational combinations of ``gens``."""
    rows = _integral(gens, dim, "generator")
    dual_lin, dual_rays = _dd(rows, dim)
    lin, rays = _dd(_signed(dual_lin) + tuple(dual_rays), dim)
    return Cone._from_descriptions(dim, lin, rays, dual_lin, dual_rays)


def cone_from_inequalities(ineqs: Iterable[Sequence], dim: int) -> Cone:
    """Canonical cone {v : a . v >= 0 for every a in ineqs}."""
    rows = _integral(ineqs, dim, "inequality")
    lin, rays = _dd(rows, dim)
    dual_lin, dual_rays = _dd(tuple(rays) + _signed(lin), dim)
    return Cone._from_descriptions(dim, lin, rays, dual_lin, dual_rays)


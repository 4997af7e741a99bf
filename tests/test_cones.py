import random
import re
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cube_pattern_cones, membership_oracle, moment_curve, random_cone
from random_colored import random_colored_cone, random_datum
from reference_exact import (
    reference_cone_from_generators,
    reference_cone_from_inequalities,
    reference_dd,
    reference_integer_dd,
    reference_invert,
    reference_rank,
)
from coloredfans.cones import (
    MAX_DD_PAIRS,
    Cone,
    _dd,
    _signed,
    cone_from_generators,
    cone_from_inequalities,
)
from coloredfans.errors import DoubleDescriptionCapError
from coloredfans.linalg import identity, mat, matmul, vec


def test_zero_cone():
    z = cone_from_generators([], 2)
    assert z.rays == ()
    assert z.lineality_basis == ()
    # the inequalities cut out exactly the origin
    assert z.contains((0, 0))
    assert not z.contains((1, 0))
    assert len(z.inequalities) == 4


def test_redundant_generator_dropped():
    c = cone_from_generators([(1, 0), (0, 1), (1, 1)], 2)
    assert c.rays == (vec([0, 1]), vec([1, 0]))
    assert set(c.inequalities) == {vec([1, 0]), vec([0, 1])}


def test_halfplane_has_lineality():
    h = cone_from_generators([(1, 0), (-1, 0), (0, 1)], 2)
    assert h.lineality_basis == (vec([1, 0]),)
    assert not h.is_strictly_convex
    # equals the closed upper half-plane, checked against the multiplier oracle
    gens = [(1, 0), (-1, 0), (0, 1)]
    for x, y in product(range(-3, 4), repeat=2):
        assert h.contains((x, y)) == membership_oracle(gens, (x, y), 2)
        assert h.contains((x, y)) == (y >= 0)


def test_no_inequalities_gives_whole_space():
    w = cone_from_inequalities([], 2)
    assert len(w.lineality_basis) == 2
    assert w.rays == ()
    assert w.in_relative_interior((0, 0))


def test_float_and_string_coordinates_are_exact_rationals():
    ray = cone_from_generators([(2, 1)], 2)
    assert cone_from_generators([(0.5, 0.25)], 2) == ray
    assert cone_from_generators([("1/3", "1/6")], 2) == ray
    # 2x + y = 0 and y >= 0
    assert cone_from_inequalities([(0.5, 0.25), ("-1/3", "-1/6"), (0.0, 1.5)], 2) == (
        cone_from_generators([(-1, 2)], 2)
    )
    assert ray.contains((0.5, 0.25)) and ray.contains(("2/3", "1/3"))
    assert not ray.contains((0.5, 0.3)) and not ray.contains(("1/3", "1/3"))
    assert ray.in_relative_interior(("1/3", "1/6"))
    # the double 0.3 is not three times the double 0.1: exact values count
    steep = cone_from_generators([(3, 1)], 2)
    assert not steep.contains((0.3, 0.1)) and steep.contains(("3/10", "1/10"))
    half_turn = [[0.0, -0.5], [0.5, 0.0]]
    assert ray.image(half_turn) == cone_from_generators([(-1, 2)], 2)
    assert ray.image([["1/3", "2/3"]]) == cone_from_generators([(1,)], 1)
    assert ray.rays == (vec([2, 1]),)


def test_inequality_constructor_matches_generator_constructor():
    d = cone_from_inequalities([(1, 1), (1, -1)], 2)
    e = cone_from_generators([(1, 1), (1, -1)], 2)
    assert d == e
    for x, y in product(range(-3, 4), repeat=2):
        assert d.contains((x, y)) == membership_oracle([(1, 1), (1, -1)], (x, y), 2)


def test_contains_examples():
    quadrant = cone_from_inequalities([(1, 0), (0, 1)], 2)
    assert quadrant.contains((2, 3))
    assert not quadrant.contains((-1, 0))
    assert cone_from_generators([], 2).contains((0, 0))
    with pytest.raises(ValueError):
        quadrant.contains((1, 2, 3))


def test_relative_interior_examples():
    quadrant = cone_from_inequalities([(1, 0), (0, 1)], 2)
    assert quadrant.in_relative_interior((1, 1))
    assert not quadrant.in_relative_interior((1, 0))
    ray = cone_from_generators([(1, 0)], 2)
    assert ray.in_relative_interior((2, 0))
    assert not ray.in_relative_interior((0, 0))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_simplicial_face_count(k):
    gens = [tuple(int(i == j) for j in range(4)) for i in range(k)]
    c = cone_from_generators(gens, 4)
    assert len(c.faces()) == 2**k


def test_face_examples():
    quadrant = cone_from_generators([(1, 0), (0, 1)], 2)
    assert len(quadrant.faces()) == 4
    ray = cone_from_generators([(1, 0)], 2)
    assert len(ray.faces()) == 2
    assert ray.is_face_of(quadrant)
    assert quadrant.is_face_of(quadrant)
    diag = cone_from_generators([(1, 1)], 2)
    assert not diag.is_face_of(quadrant)


def test_faces_of_subspace():
    line = cone_from_generators([(1, 0), (-1, 0)], 2)
    # a linear subspace has no proper faces
    assert line.faces() == (line,)


def faces_by_facet_subsets(cone):
    """Independent face enumeration: cut the cone by every subset of its
    facet hyperplanes and deduplicate."""
    from itertools import combinations

    found = set()
    normals = cone.facet_normals
    for size in range(len(normals) + 1):
        for subset in combinations(normals, size):
            ineqs = list(cone.inequalities)
            for a in subset:
                ineqs.append(a)
                ineqs.append(tuple(-x for x in a))
            found.add(cone_from_inequalities(ineqs, cone.ambient_dim))
    return found


def test_faces_agree_with_facet_subset_oracle():
    rng = random.Random(1212)
    cases = [cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)]
    for _ in range(10):
        dim = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
        cases.append(cone_from_generators(gens, dim))
    for cone in cases:
        assert set(cone.faces()) == faces_by_facet_subsets(cone)
    assert len(cases[0].faces()) == 8


def test_intersection_examples():
    quadrant = cone_from_generators([(1, 0), (0, 1)], 2)
    upper = cone_from_inequalities([(0, 1)], 2)
    assert quadrant.intersect(upper) == quadrant
    rx = cone_from_generators([(1, 0)], 2)
    ry = cone_from_generators([(0, 1)], 2)
    assert rx.intersect(ry) == cone_from_generators([], 2)
    a = cone_from_generators([(1, 0), (1, 1)], 2)
    b = cone_from_generators([(1, 1), (0, 1)], 2)
    assert a.intersect(b) == cone_from_generators([(1, 1)], 2)


def test_image_examples():
    quadrant = cone_from_generators([(1, 0), (0, 1)], 2)
    assert quadrant.image(identity(2)) == quadrant
    projected = quadrant.image(mat([[1, 0]]))
    assert projected == cone_from_generators([(1,)], 1)
    swap = mat([[0, 1], [1, 0]])
    assert cone_from_generators([(1, 0)], 2).image(swap) == cone_from_generators([(0, 1)], 2)


def test_interior_point_in_relative_interior():
    rng = random.Random(99)
    for _ in range(60):
        c = random_cone(rng)
        assert c.in_relative_interior(c.interior_point())


def test_generator_inequality_roundtrip_random():
    rng = random.Random(4242)
    for _ in range(60):
        c = random_cone(rng)
        assert cone_from_inequalities(c.inequalities, c.ambient_dim) == c
        assert cone_from_generators(c.generators(), c.ambient_dim) == c


def test_membership_agrees_with_multiplier_oracle():
    rng = random.Random(2718)
    for _ in range(25):
        c = random_cone(rng, max_dim=3, max_gens=4, coeff=3)
        gens = c.generators()
        for _ in range(8):
            v = tuple(rng.randint(-4, 4) for _ in range(c.ambient_dim))
            if gens:
                assert c.contains(v) == membership_oracle(gens, v, c.ambient_dim)
            else:
                assert c.contains(v) == all(x == 0 for x in v)


def test_intersect_commutative_associative_idempotent():
    rng = random.Random(31)

    def cone_in(dim):
        gens = [
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(0, 4))
        ]
        return cone_from_generators(gens, dim)

    for _ in range(20):
        dim = rng.randint(1, 3)
        a, b, c = cone_in(dim), cone_in(dim), cone_in(dim)
        assert a.intersect(b) == b.intersect(a)
        assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
        assert a.intersect(a) == a


def test_faces_map_bijectively_under_invertible_image():
    rng = random.Random(5)
    swapish = mat([[0, 1, 0], [1, 0, 0], [1, 1, 1]])
    for _ in range(10):
        gens = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(1, 5))]
        c = cone_from_generators(gens, 3)
        moved = c.image(swapish)
        assert {f.image(swapish) for f in c.faces()} == set(moved.faces())


def test_canonical_interior_point_after_scaling():
    c = cone_from_generators([(2, 0), (0, 3)], 2)
    assert c.rays == (vec([0, 1]), vec([1, 0]))
    assert c.interior_point() == vec([1, 1])


def test_zero_cone_interior_point():
    z = cone_from_generators([], 2)
    assert z.interior_point() == vec([0, 0])
    assert z.in_relative_interior(z.interior_point())


def random_rational_vectors(rng: random.Random, dim: int) -> list[tuple]:
    """Rational vectors with zero, repeated, opposite and rescaled members."""
    out: list[tuple] = []
    for _ in range(rng.randint(0, 7)):
        kind = rng.random()
        if kind < 0.1:
            out.append((0,) * dim)
        elif out and kind < 0.2:
            out.append(rng.choice(out))
        elif out and kind < 0.3:
            out.append(tuple(-x for x in rng.choice(out)))
        elif out and kind < 0.4:
            c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            out.append(tuple(c * x for x in rng.choice(out)))
        else:
            out.append(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim)))
    return out


def test_cones_match_fraction_reference():
    """The integer double description gives the canonical fields of the
    rational one, as Fraction tuples, from both constructors."""
    rng = random.Random(8191)
    seen = {"non-integral": 0, "lineality": 0, "span equations": 0, "zero": 0}
    for trial in range(320):
        dim = 1 + trial % 5
        vectors = random_rational_vectors(rng, dim)
        seen["non-integral"] += any(Fraction(x).denominator > 1 for v in vectors for x in v)
        seen["zero"] += any(not any(v) for v in vectors)
        for build, reference in (
            (cone_from_generators, reference_cone_from_generators),
            (cone_from_inequalities, reference_cone_from_inequalities),
        ):
            cone = build(vectors, dim)
            fields = (cone.rays, cone.lineality_basis, cone.facet_normals, cone.span_equations)
            assert fields == reference(vectors, dim), (build.__name__, vectors)
            assert all(type(x) is Fraction for f in fields for v in f for x in v)
            seen["lineality"] += bool(cone.lineality_basis)
            seen["span equations"] += bool(cone.span_equations)
    assert min(seen.values()) > 20, seen


def test_double_description_matches_rank_test_reference():
    """Raw ``_dd`` output, in order, against the rational double description
    that decides adjacency by rank: the rays as primitive vectors, the
    lineality vectors up to a positive scale.

    The inputs are 160 random row sets and the cube cones over
    {1} x {-1, 1}^(n-1), n = 3..5, from their generators and from their
    facets x_0 +- x_i >= 0, each as given and shuffled.  A random set holds
    8-16 rows in dimension 3-6, each turned to be nonnegative on one
    positive vector so that the cone is seldom zero, with zero, repeated and
    negated rows among them; every fourth set vanishes on the last axis,
    which is then lineality.  The facet rows give 2^(n-1) rays, so faces
    with many rays, where the adjacency tests would part if the ray list
    ever held more than the extreme rays, are met.
    """
    rng = random.Random(4099)
    cases = []
    for trial in range(160):
        dim = 3 + trial % 4
        inner = [rng.randint(1, 3) for _ in range(dim)]
        rows: list[tuple] = []
        for _ in range(rng.randint(8, 16)):
            kind = rng.random()
            if rows and kind < 0.1:
                rows.append(tuple(-x for x in rng.choice(rows)))
            elif rows and kind < 0.15:
                rows.append(rng.choice(rows))
            elif kind < 0.2:
                rows.append((0,) * dim)
            else:
                row = tuple(rng.randint(-3, 3) for _ in range(dim))
                sign = 1 if sum(a * c for a, c in zip(row, inner)) >= 0 else -1
                rows.append(tuple(sign * x for x in row))
        if trial % 4 == 3:
            rows = [row[:-1] + (0,) for row in rows]
        cases.append((rows, dim))
    for n in range(3, 6):
        cube = [(1,) + signs for signs in product((1, -1), repeat=n - 1)]
        facets = [
            tuple(int(j == 0) + s * int(j == i) for j in range(n))
            for i in range(1, n)
            for s in (1, -1)
        ]
        for rows in (cube, facets):
            cases.append((rows, n))
            cases.append((rng.sample(rows, len(rows)), n))
    seen = {"lineality": 0, "opposite rows": 0, "many rays": 0}
    for rows, dim in cases:
        lin, rays = _dd(rows, dim)
        ref_lin, ref_rays = reference_dd(rows, dim)
        assert rays == ref_rays, (rows, dim)
        assert len(lin) == len(ref_lin)
        for b, ref in zip(lin, ref_lin):
            scale = next(x / y for x, y in zip(ref, b) if y)
            assert scale > 0 and ref == tuple(scale * x for x in b), (rows, dim)
        seen["lineality"] += bool(lin)
        seen["opposite rows"] += any(tuple(-x for x in row) in rows for row in rows if any(row))
        seen["many rays"] += len(rays) >= 8
    assert min(seen.values()) > 20, seen


def reference_faces(fields, dim):
    """Canonical fields of every face, cut by the facet hyperplanes through
    the reference double description, in the order of ``Cone.faces``."""
    facets = fields[2]

    def inequalities(f):
        out = []
        for e in f[3]:
            out += [e, tuple(-x for x in e)]
        return out + list(f[2])

    found = {fields}
    queue = [fields]
    while queue:
        face = queue.pop()
        gens = face[0] + face[1] + tuple(tuple(-x for x in b) for b in face[1])
        for a in facets:
            if all(sum(x * y for x, y in zip(a, g)) == 0 for g in gens):
                continue
            cut = reference_cone_from_inequalities(
                inequalities(face) + [a, tuple(-x for x in a)], dim
            )
            if cut not in found:
                found.add(cut)
                queue.append(cut)
    return sorted(found, key=lambda f: (reference_rank(f[0] + f[1]), f[0], f[1]))


def test_integer_backed_cone_matches_fraction_reference():
    """The cones stored on integers compare, hash, order their faces, test
    points and map under rational matrices as their Fraction fields say, on
    the vector sets of the test above."""
    rng = random.Random(8191)
    other = random.Random(8192)
    outcomes = set()
    for trial in range(320):
        dim = 1 + trial % 5
        vectors = random_rational_vectors(rng, dim)
        for build, reference in (
            (cone_from_generators, reference_cone_from_generators),
            (cone_from_inequalities, reference_cone_from_inequalities),
        ):
            cone = build(vectors, dim)
            fields = reference(vectors, dim)
            rays, lineality, facets, span_eq = fields
            gens = rays + tuple(v for b in lineality for v in (b, tuple(-x for x in b)))
            assert hash(cone) == hash((dim, rays, lineality))
            again = cone_from_generators(gens, dim)
            assert cone == again and hash(cone) == hash(again)
            assert cone.dim == reference_rank(rays + lineality)
            assert cone.generators() == gens
            assert cone.interior_point() == tuple(sum(col, Fraction(0)) for col in zip(*rays)) or (
                not rays and cone.interior_point() == (0,) * dim
            )
            ineqs = tuple(v for e in span_eq for v in (e, tuple(-x for x in e))) + facets
            assert cone.inequalities == ineqs
            if trial % 4 == 0:
                assert [
                    (f.rays, f.lineality_basis, f.facet_normals, f.span_equations)
                    for f in cone.faces()
                ] == reference_faces(fields, dim)

            # points off, on and inside the boundary, none of them integral
            q = Fraction(other.randint(1, 5), other.randint(6, 9))
            points = [tuple(Fraction(other.randint(-9, 9), other.randint(2, 7)) for _ in range(dim))]
            points.append(tuple(q * x for x in cone.interior_point()))
            points.extend(tuple(q * x for x in g) for g in gens)
            points.append(tuple(-x for x in points[1]))
            for v in points:
                inside = all(sum(a * x for a, x in zip(r, v)) >= 0 for r in ineqs)
                interior = all(sum(a * x for a, x in zip(e, v)) == 0 for e in span_eq) and all(
                    sum(a * x for a, x in zip(r, v)) > 0 for r in facets
                )
                assert cone.contains(v) == inside
                assert cone.in_relative_interior(v) == interior
                outcomes.add((inside, interior))
                for wrong in (v + (q,), v[:-1]):
                    with pytest.raises(ValueError):
                        cone.contains(wrong)
                    with pytest.raises(ValueError):
                        cone.in_relative_interior(wrong)

            rows = other.randint(1, dim + 1)
            matrix = [
                [Fraction(other.randint(-4, 4), other.randint(1, 4)) for _ in range(dim)]
                for _ in range(rows)
            ]
            moved = [tuple(sum(a * x for a, x in zip(row, g)) for row in matrix) for g in gens]
            image = cone.image(matrix)
            assert (
                image.rays, image.lineality_basis, image.facet_normals, image.span_equations
            ) == reference_cone_from_generators(moved, rows)
    assert outcomes == {(False, False), (True, False), (True, True)}


# Hypothesis properties beside the seeded tests above: a fixed example
# sequence (derandomize) of bounded size, so each runs in about a second.
PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


def integer_vectors(dim: int):
    return st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=5)


def cones_in(dim: int):
    """A cone from either constructor, on small integer vectors."""
    return st.builds(
        lambda build, vectors: build(vectors, dim),
        st.sampled_from([cone_from_generators, cone_from_inequalities]),
        integer_vectors(dim),
    )


def unimodular(dim: int):
    """Products of shears (i != j: row i += c * row j) and sign flips (i == j)."""

    def build(steps):
        m = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for i, j, c in steps:
            m[i] = [-x for x in m[i]] if i == j else [x + c * y for x, y in zip(m[i], m[j])]
        return mat(m)

    index = st.integers(0, dim - 1)
    return st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=6).map(build)


def fields(cone):
    return (cone._rays, cone._lineality, cone._facets, cone._span_eq)


@PROPERTY
@given(st.integers(1, 4).flatmap(cones_in))
def test_double_description_round_trip_property(c):
    from_ineqs = cone_from_inequalities(c._ineqs, c.ambient_dim)
    from_gens = cone_from_generators(c._generators(), c.ambient_dim)
    assert from_ineqs == c == from_gens
    assert fields(from_ineqs) == fields(c) == fields(from_gens)


@st.composite
def dd_inputs(draw):
    """Up to 10 integer rows in dimension 1-5: random ones, then redundant
    ones (a repeat, a negation or the sum of two); for about one draw in
    three every row vanishes on the last axis, which is then lineality."""
    dim = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=7))
    if rows:
        picks = st.tuples(st.integers(0, 2), st.sampled_from(rows), st.sampled_from(rows))
        for kind, a, b in draw(st.lists(picks, max_size=10 - len(rows))):
            if kind == 0:
                rows.append(a)
            elif kind == 1:
                rows.append(tuple(-x for x in a))
            else:
                rows.append(tuple(x + y for x, y in zip(a, b)))
    if draw(st.integers(0, 2)) == 0:
        rows = [row[:-1] + (0,) for row in rows]
    return rows, dim


@PROPERTY
@given(dd_inputs())
def test_double_description_matches_frozenset_loop_property(case):
    """``_dd`` keeps tight sets as bit masks and stops each adjacency count
    at the third ray: the same lineality basis and rays, in the same order,
    as the loop with frozenset tight sets that counts every ray."""
    rows, dim = case
    assert _dd(rows, dim) == reference_integer_dd(rows, dim)


def test_moment_curve_cones_match_the_references():
    """Cones over the moment curve, where most pairs of rays are not
    adjacent and ``_dd`` skips them on the size of their common tight set:
    the canonical fields of the rank-test reference, and both raw passes,
    over the generators and back over the facets, in order, as the frozenset
    loop that tests every pair gives them."""
    start = time.perf_counter()
    # at most 11994 candidate pairs in one pass, at d = 8: far under MAX_DD_PAIRS
    for d, n in ((4, 10), (5, 9), (6, 10), (7, 10), (8, 11)):
        gens = moment_curve(d, n)
        dual_lin, dual_rays = _dd(gens, d)
        assert (dual_lin, dual_rays) == reference_integer_dd(gens, d)
        rows = _signed(dual_lin) + tuple(dual_rays)
        assert _dd(rows, d) == reference_integer_dd(rows, d)
        cone = cone_from_generators(gens, d)
        assert len(cone.rays) == n and not cone.lineality_basis and not cone.span_equations
        if d < 7:
            # the rank-test reference takes 0.7 s at d = 7, n = 10 and 4 s at d = 8, n = 11
            fields = (cone.rays, cone.lineality_basis, cone.facet_normals, cone.span_equations)
            assert fields == reference_cone_from_generators(gens, d)
    # about 0.4 s on a 2-core x86_64 box with Python 3.11
    assert time.perf_counter() - start < 30


def test_double_description_stops_at_its_pair_cap():
    """The cone over 40 points of the moment curve in dimension 8 has more
    than ``MAX_DD_PAIRS`` candidate pairs in its first pass: refused within
    seconds, with the count named, where the full conversion runs for
    minutes."""
    start = time.perf_counter()
    with pytest.raises(DoubleDescriptionCapError) as refused:
        cone_from_generators(moment_curve(8, 40), 8)
    # about 1.1 s on a 2-core x86_64 box with Python 3.11
    assert time.perf_counter() - start < 10
    count = re.fullmatch(
        rf"double description: (\d+) candidate ray pairs, more than {MAX_DD_PAIRS}",
        str(refused.value),
    )
    assert count and int(count[1]) > MAX_DD_PAIRS


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(cones_in(dim), unimodular(dim))))
def test_unimodular_base_change_property(case):
    c, u = case
    moved = c.image(u)
    assert moved.image(reference_invert(u)) == c
    assert sorted(f.dim for f in moved.faces()) == sorted(f.dim for f in c.faces())


def nonzero_fractions():
    return st.builds(
        lambda p, q: Fraction(p, q),
        st.integers(-4, 4).filter(bool),
        st.integers(1, 4),
    )


def rational_rows(rows: int, dim: int):
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    return st.lists(
        st.lists(entry, min_size=dim, max_size=dim), min_size=rows, max_size=rows
    )


def image_matrices(kind: str, dim: int):
    """Matrices with ``dim`` columns: unimodular; invertible, U D V with U, V
    unimodular and D diagonal with rational entries; singular, the last row
    a rational combination of the others; and non-square."""
    if kind == "unimodular":
        return unimodular(dim)
    if kind == "invertible":
        return st.builds(
            lambda u, scales, v: matmul(u, [[s * x for x in row] for s, row in zip(scales, v)]),
            unimodular(dim),
            st.lists(nonzero_fractions(), min_size=dim, max_size=dim),
            unimodular(dim),
        )
    if kind == "singular":
        return st.builds(
            lambda rows, coeffs: mat(
                rows + [[sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(dim)]]
            ),
            rational_rows(dim - 1, dim),
            st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                     min_size=dim - 1, max_size=dim - 1),
        )
    return st.sampled_from([r for r in range(1, dim + 2) if r != dim]).flatmap(
        lambda rows: rational_rows(rows, dim).map(mat)
    )


@pytest.mark.parametrize("kind", ["unimodular", "invertible", "singular", "non-square"])
@PROPERTY
@given(data=st.data())
def test_image_matches_double_description_route_property(kind, data):
    """Images under square nonsingular matrices skip the double description;
    every image has the fields of the mapped generators converted by it."""
    dim = data.draw(st.integers(1, 3))
    c = data.draw(cones_in(dim))
    matrix = data.draw(image_matrices(kind, dim))
    moved = [tuple(sum(a * x for a, x in zip(row, g)) for row in matrix) for g in c.generators()]
    assert fields(c.image(matrix)) == fields(cone_from_generators(moved, len(matrix)))


def test_relint_rows_are_built_once_and_left_out_of_equality():
    """A cone keeps its relative interior as sparse LP rows, each span row and
    facet normal ``a . x >= 0``, then each facet normal ``a . x >= 1``; equal
    cones stay equal and hash alike whether or not they hold the rows."""
    a = cone_from_generators([(1, 0, 0), (1, 2, 0)], 3)
    b = cone_from_generators([(2, 0, 0), (1, 2, 0), (3, 2, 0)], 3)
    rows = a._relint_rows()
    assert a._relint_rows() is rows
    assert a == b and hash(a) == hash(b) and b._relint is None
    expected = [
        ([(j, x) for j, x in enumerate(v) if x], bound, 1)
        for bound, vectors in ((0, a._ineqs), (1, a._facets))
        for v in vectors
    ]
    assert list(rows) == expected
    assert len(rows) == 2 * len(a._span_eq) + 2 * len(a._facets) == 6


def lattice_agrees_with_cuts(cone):
    """Assert that the face lattice read off the facet-ray incidences is
    :meth:`Cone.faces`, the double description cuts: the same faces, field
    for field, in the same order.  Each route runs on its own copy of the
    cone, so that neither finds the other's faces stored.  Returns the
    lattice's faces."""

    def copy():
        return Cone(cone.ambient_dim, cone._rays, cone._lineality, cone._facets, cone._span_eq)

    walked = copy()
    lattice = walked._lattice_faces()
    assert walked._faces is lattice and lattice[-1] is walked
    cuts = copy().faces()
    assert [fields(f) for f in lattice] == [fields(f) for f in cuts]
    return lattice


def test_face_lattice_matches_the_cuts_on_random_and_cube_pattern_cones():
    rng = random.Random(2424)
    cones = []
    for _ in range(30):
        datum = random_datum(rng)
        cones.append(datum.valuation_cone)
        cones.extend(random_colored_cone(rng, datum).cone for _ in range(6))
    # lower-dimensional cones, cones with lineality, and linear subspaces
    assert sum(c.dim < c.ambient_dim for c in cones) > 50
    assert sum(bool(c._lineality) for c in cones) > 10
    assert any(c._lineality and not c._rays for c in cones)
    for cone in cones:
        lattice_agrees_with_cuts(cone)
    # every cone of the 64 cube patterns, 24 distinct triangles, and its faces
    triangles = {tri for pattern in range(64) for tri in cube_pattern_cones(pattern)}
    assert len(triangles) == 24
    for tri in triangles:
        for face in lattice_agrees_with_cuts(cone_from_generators(tri, 3)):
            lattice_agrees_with_cuts(face)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_face_lattice_matches_the_cuts_on_cube_cones(n):
    """The cone over the cube {1} x {-1, 1}^(n-1): 3^(n-1) + 1 faces."""
    cube = cone_from_generators([(1,) + s for s in product((1, -1), repeat=n - 1)], n)
    assert len(lattice_agrees_with_cuts(cube)) == 3 ** (n - 1) + 1


def test_face_lattice_stops_past_its_limit():
    cube = cone_from_generators([(1,) + s for s in product((1, -1), repeat=3)], 4)
    assert cube._lattice_faces(27) is None and cube._faces is None
    faces = cube._lattice_faces(28)
    assert len(faces) == 28 and cube._faces is faces
    # stored faces are measured against the limit too
    assert cube._lattice_faces(27) is None and cube._lattice_faces() is faces


def test_walks_that_share_a_table_share_their_faces():
    """Two cones with the z-axis as lineality space, the quadrant x, y >= 0
    and its mirror x <= 0, walked through one table: the faces they share,
    the z-axis and the half-plane x = 0 <= y, are one object each, built
    once, and every face has the fields of the cuts."""
    axis = [(0, 0, 1), (0, 0, -1)]
    right = cone_from_generators([(1, 0, 0), (0, 1, 0)] + axis, 3)
    left = cone_from_generators([(-1, 0, 0), (0, 1, 0)] + axis, 3)
    table = {}
    walked = [c._lattice_faces(table=table) for c in (right, left)]
    shared = [f for f in walked[0] if f in walked[1]]
    assert len(shared) == 2 and all(f._lineality == ((0, 0, 1),) for f in shared)
    assert all(any(f is g for g in walked[1]) for f in shared)
    # each owner and each distinct proper face, keyed by lineality and rays
    assert len(table) == 2 + 4
    assert all(table[f._lineality, f._rays] is f for faces in walked for f in faces)
    for cone, faces in zip((right, left), walked):
        assert [fields(f) for f in faces] == [fields(f) for f in lattice_agrees_with_cuts(cone)]


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: cone_from_generators([(1, 0)], 2).intersect(cone_from_generators([(1,)], 1)),
            "dimension mismatch between cones",
        ),
        (
            lambda: cone_from_generators([(1, 0)], 2).image(((1, 0, 0), (0, 1, 0))),
            "matrix column count does not match the ambient dimension",
        ),
        (
            lambda: cone_from_generators([(1, 0)], 2).is_face_of(cone_from_generators([(1,)], 1)),
            "dimension mismatch between cones",
        ),
        (
            lambda: cone_from_generators([(1, 0, 0)], 2),
            "generator of length 3 in ambient dimension 2",
        ),
        (
            lambda: cone_from_inequalities([(1,)], 2),
            "inequality of length 1 in ambient dimension 2",
        ),
    ],
    ids=["intersect", "image", "is-face-of", "generator-length", "inequality-length"],
)
def test_vectors_of_the_wrong_length_raise_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message

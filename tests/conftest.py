"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from coloredfans.colored import ColoredCone, SphericalDatum, fan_from_maximal_cones
from coloredfans.cones import Cone, cone_from_generators
from coloredfans import quasiproj
from coloredfans.linprog import LPProblem, fourier_motzkin, lp_feasible


def membership_oracle(gens, v, dim) -> bool:
    """Is v a nonnegative combination of gens?  Decided by Fourier-Motzkin on
    the multipliers, independently of the cone engine."""
    gens = list(gens)
    eqs = []
    for coord in range(dim):
        row = tuple(Fraction(g[coord]) for g in gens)
        eqs.append((row, Fraction(v[coord])))
    ineqs = [
        (tuple(Fraction(int(i == j)) for j in range(len(gens))), Fraction(0))
        for i in range(len(gens))
    ]
    lp = LPProblem(len(gens), tuple(eqs), tuple(ineqs))
    return fourier_motzkin(lp, max_vars=max(8, len(gens)))


def random_cone(rng: random.Random, max_dim=4, max_gens=6, coeff=5) -> Cone:
    dim = rng.randint(1, max_dim)
    gens = [
        tuple(rng.randint(-coeff, coeff) for _ in range(dim))
        for _ in range(rng.randint(0, max_gens))
    ]
    return cone_from_generators(gens, dim)


def toric_datum(dim: int) -> SphericalDatum:
    gens = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        gens.append(tuple(e))
        gens.append(tuple(-x for x in e))
    return SphericalDatum(dim, cone_from_generators(gens, dim))


def angular_key(v):
    """Exact counterclockwise sort key for nonzero integer plane vectors,
    starting at the positive x-axis.  Within each open half-plane the
    cotangent x/y decreases as the angle grows."""
    x, y = v
    if y == 0:
        sector = 0 if x > 0 else 2
        return (sector, Fraction(0))
    sector = 1 if y > 0 else 3
    return (sector, Fraction(-x, y))


def sort_rays_by_angle(rays):
    return sorted(rays, key=angular_key)


def random_complete_2d_fan(rng: random.Random, datum: SphericalDatum, max_rays=5):
    """Random complete colorless fan in the plane: primitive rays in angular
    order, one cone per consecutive sector."""
    while True:
        count = rng.randint(3, max_rays)
        rays = set()
        for _ in range(count):
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            if v != (0, 0):
                g = math.gcd(*v)
                rays.add((v[0] // g, v[1] // g))
        rays = sort_rays_by_angle(rays)
        if len(rays) < 3:
            continue
        # consecutive rays must span a strictly convex sector (positive cross)
        ok = True
        for a, b in zip(rays, rays[1:] + rays[:1]):
            if a[0] * b[1] - a[1] * b[0] <= 0:
                ok = False
                break
        if not ok:
            continue
        maximal = [
            ColoredCone(cone_from_generators([a, b], 2))
            for a, b in zip(rays, rays[1:] + rays[:1])
        ]
        return fan_from_maximal_cones(datum, maximal)


def random_unimodular(rng: random.Random, dim: int, steps=6):
    """Random integer matrix with determinant +/-1, built from elementary ops."""
    from coloredfans.linalg import identity

    m = [list(row) for row in identity(dim)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if kind == 0 and i != j:
            c = rng.randint(-2, 2)
            for col in range(dim):
                m[i][col] += c * m[j][col]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-x for x in m[i]]
    return tuple(tuple(x for x in row) for row in m)


# A complete simplicial fan over the cube whose face diagonals are chosen so
# that no strictly convex support family exists.  Found by enumerating all 64
# diagonal patterns and certifying this one infeasible with both deciders.
TWISTED_CUBE_CONES = (
    ((1, 1, 1), (1, 1, -1), (1, -1, -1)),
    ((1, 1, 1), (1, -1, -1), (1, -1, 1)),
    ((-1, 1, 1), (-1, 1, -1), (-1, -1, -1)),
    ((-1, 1, 1), (-1, -1, -1), (-1, -1, 1)),
    ((1, 1, 1), (-1, 1, 1), (-1, 1, -1)),
    ((1, 1, 1), (-1, 1, -1), (1, 1, -1)),
    ((1, -1, 1), (-1, -1, 1), (1, -1, -1)),
    ((-1, -1, 1), (-1, -1, -1), (1, -1, -1)),
    ((1, 1, 1), (1, -1, 1), (-1, 1, 1)),
    ((1, -1, 1), (-1, -1, 1), (-1, 1, 1)),
    ((1, 1, -1), (1, -1, -1), (-1, -1, -1)),
    ((1, 1, -1), (-1, -1, -1), (-1, 1, -1)),
)


def cube_pattern_cones(pattern: int):
    """Maximal cones of one of the 64 complete simplicial fans over the cube.

    Each face of the cube is split along a diagonal; bit f of ``pattern``
    picks the diagonal of face f, the faces taken as x = +-1, y = +-1,
    z = +-1 in that order.  Pattern 24 is the twisted cube.
    """
    cones = []
    face = 0
    for axis in range(3):
        u, w = [i for i in range(3) if i != axis]
        for side in (1, -1):
            flip = -1 if (pattern >> face) & 1 else 1
            face += 1

            def corner(x, y):
                v = [0, 0, 0]
                v[axis], v[u], v[w] = side, x, y
                return tuple(v)

            for off in ((1, -flip), (-1, flip)):
                cones.append((corner(1, flip), corner(-1, -flip), corner(*off)))
    return tuple(cones)


def twisted_cube_fan(datum: SphericalDatum):
    maximal = [
        ColoredCone(cone_from_generators(triple, 3)) for triple in TWISTED_CUBE_CONES
    ]
    return fan_from_maximal_cones(datum, maximal)


@pytest.fixture
def rank_one_datum() -> SphericalDatum:
    """Rank-one spherical fixture: valuation cone on (-1), two colors at (1)."""
    return SphericalDatum(
        1,
        cone_from_generators([(-1,)], 1),
        ("D+", "D-"),
        {"D+": (1,), "D-": (1,)},
    )


@pytest.fixture
def toric_line() -> SphericalDatum:
    return toric_datum(1)


@pytest.fixture
def toric_plane() -> SphericalDatum:
    return toric_datum(2)


@pytest.fixture
def p1_fan(toric_line):
    return fan_from_maximal_cones(
        toric_line,
        [
            ColoredCone(cone_from_generators([(1,)], 1)),
            ColoredCone(cone_from_generators([(-1,)], 1)),
        ],
    )


@pytest.fixture
def p2_fan(toric_plane):
    return fan_from_maximal_cones(
        toric_plane,
        [
            ColoredCone(cone_from_generators([(1, 0), (0, 1)], 2)),
            ColoredCone(cone_from_generators([(0, 1), (-1, -1)], 2)),
            ColoredCone(cone_from_generators([(-1, -1), (1, 0)], 2)),
        ],
    )


@pytest.fixture
def p1xp1_fan(toric_plane):
    return fan_from_maximal_cones(
        toric_plane,
        [
            ColoredCone(cone_from_generators([(1, 0), (0, 1)], 2)),
            ColoredCone(cone_from_generators([(0, 1), (-1, 0)], 2)),
            ColoredCone(cone_from_generators([(-1, 0), (0, -1)], 2)),
            ColoredCone(cone_from_generators([(0, -1), (1, 0)], 2)),
        ],
    )


@pytest.fixture
def routes(monkeypatch):
    """A check that ``quasiproj._support_feasible`` gives ``expected``, by
    default the verdict of the all-pairs LP, on the given maximal cones; it
    returns the verdict and the inequality row count of each LP solved."""
    solves = []

    def counting(lp):
        solves.append(len(lp._ineqs))
        return lp_feasible(lp)

    monkeypatch.setattr(quasiproj, "lp_feasible", counting)

    def check(datum, maximal, expected=None):
        solves.clear()
        verdict = quasiproj._support_feasible(datum, maximal)
        if expected is None:
            parts = quasiproj._valuation_parts(datum, maximal)
            expected = lp_feasible(quasiproj._support_lp(datum, maximal, parts)) is not None
        assert verdict == expected
        return verdict, list(solves)

    return check

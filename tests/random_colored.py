"""Seeded random spherical data and colored cones of rank 2-4.

Each datum has a proper full-dimensional valuation cone V, simplicial or
not, and 0-4 colors: some placed outside V, some collinear with an earlier
color.  A colored cone is a subset of the colors plus a few valuation
vectors, so that C1 holds by construction, or, one time in five, random
vectors with random colors, which mostly fail C1-C4.  The rank-one data of
the fixtures (``datum_rank1``, ``datum_horo1``), colors on either side of a
valuation cone, are the template.

A colored action is generated by one or two signed permutation matrices of
rank 2 or 3, each with a color permutation, on a datum made invariant by
construction: the valuation cone is the whole space or the cone over an
orbit of one or two random vectors, and the colors sit on orbits of random
points, once or twice at each point.  A generator sends the colors at p to
those at g.p in a random order, and datum and action are then moved by a
unimodular base change and kept when they pass ``validate_action``.
"""

from __future__ import annotations

import random
from itertools import count

from conftest import random_unimodular
from reference_exact import reference_invert
from coloredfans.colored import ColoredCone, SphericalDatum
from coloredfans.cones import cone_from_generators
from coloredfans.galois import GroupAction, GroupElement, action_from_generators, validate_action
from coloredfans.linalg import matmul, matvec


def _vector(rng: random.Random, dim: int, size: int = 2) -> tuple[int, ...]:
    return tuple(rng.randint(-size, size) for _ in range(dim))


def random_datum(rng: random.Random) -> SphericalDatum:
    """A datum of rank 2-4 whose valuation cone is full-dimensional and not
    the whole space: ``dim`` generators (simplicial) or one or two more."""
    dim = rng.randint(2, 4)
    while True:
        count = dim + rng.choice((0, 1, 2))
        valuation = cone_from_generators([_vector(rng, dim) for _ in range(count)], dim)
        if valuation.dim == dim and valuation._facets:
            break
    placed: list[tuple[int, ...]] = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if placed and roll < 0.3:
            base = rng.choice(placed)
            factor = rng.choice((-1, 1, 2))
            placed.append(tuple(factor * x for x in base))
        elif roll < 0.65:
            v = _vector(rng, dim)
            while valuation.contains(v):
                v = _vector(rng, dim)
            placed.append(v)
        else:
            placed.append(_vector(rng, dim))
    names = tuple(f"D{i}" for i in range(len(placed)))
    return SphericalDatum(dim, valuation, names, dict(zip(names, placed)))


def random_colored_cone(rng: random.Random, datum: SphericalDatum) -> ColoredCone:
    """A colored cone generated by a color subset and valuation vectors, or,
    one time in five, by random vectors under a random color subset."""
    dim = datum.dim
    names = rng.sample(datum.colors, rng.randint(0, len(datum.colors)))
    if rng.random() < 0.2:
        gens = [_vector(rng, dim) for _ in range(rng.randint(1, dim + 1))]
    else:
        valuation = datum.valuation_cone._generators()
        gens = [datum.rho(name) for name in names]
        for _ in range(rng.randint(0, dim)):
            picked = rng.sample(valuation, rng.randint(1, min(2, len(valuation))))
            combo = [0] * dim
            for g in picked:
                c = rng.randint(1, 2)
                combo = [x + c * y for x, y in zip(combo, g)]
            gens.append(tuple(combo))
    return ColoredCone(cone_from_generators(gens, dim), frozenset(names))


def _signed_permutation(rng: random.Random, dim: int) -> tuple[tuple[int, ...], ...]:
    perm = rng.sample(range(dim), dim)
    return tuple(
        tuple(rng.choice((1, -1)) if j == perm[i] else 0 for j in range(dim)) for i in range(dim)
    )


def random_colored_action(rng: random.Random) -> tuple[SphericalDatum, GroupAction]:
    """A datum and a colored action on it, as the module docstring says."""
    while True:
        dim = rng.randint(2, 3)
        gens = [_signed_permutation(rng, dim) for _ in range(rng.randint(1, 2))]
        group = GroupAction(dim, (), tuple(map(GroupElement.make, gens))).elements()

        def orbit(v):
            return sorted({tuple(int(x) for x in matvec(g.matrix, v)) for g in group})

        whole = rng.random() < 0.3
        if whole:
            rays = [tuple(s * (i == j) for j in range(dim)) for i in range(dim) for s in (1, -1)]
        else:
            rays = [r for _ in range(rng.randint(1, 2)) for r in orbit(_vector(rng, dim))]
        valuation = cone_from_generators(rays, dim)
        if valuation.dim < dim or not (whole or valuation._facets):
            continue
        labels: dict = {}  # the color names placed at each point
        names = (f"D{i}" for i in count())
        for _ in range(rng.randint(0, 2)):
            v = _vector(rng, dim)
            copies = rng.choice((1, 1, 2))
            for p in orbit(v) if any(v) else ():
                labels.setdefault(p, []).extend(next(names) for _ in range(copies))
        if sum(map(len, labels.values())) > 6:
            continue
        elements = []
        for g in gens:
            perm = {}
            for p, placed in labels.items():
                perm.update(zip(placed, rng.sample(labels[tuple(matvec(g, p))], len(placed))))
            elements.append((g, perm))
        a = random_unimodular(rng, dim)
        a_inv = reference_invert(a)
        rho = {name: matvec(a, p) for p, placed in labels.items() for name in placed}
        datum = SphericalDatum(
            dim, cone_from_generators([matvec(a, r) for r in rays], dim), tuple(sorted(rho)), rho
        )
        action = action_from_generators(
            datum,
            [GroupElement.make(matmul(a, matmul(g, a_inv)), perm) for g, perm in elements],
        )
        if validate_action(datum, action).passed:
            return datum, action

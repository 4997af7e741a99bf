"""Seeded random spherical data and colored cones of rank 2-4.

Each datum has a proper full-dimensional valuation cone V, simplicial or
not, and 0-4 colors: some placed outside V, some collinear with an earlier
color.  A colored cone is a subset of the colors plus a few valuation
vectors, so that C1 holds by construction, or, one time in five, random
vectors with random colors, which mostly fail C1-C4.  The rank-one data of
the fixtures (``datum_rank1``, ``datum_horo1``), colors on either side of a
valuation cone, are the template.
"""

from __future__ import annotations

import random

from coloredfans.colored import ColoredCone, SphericalDatum
from coloredfans.cones import cone_from_generators


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

"""The LP-free colored faces and F2 of the closure route, against the LP
route, on seeded random colored data (``random_colored.py``)."""

import random
from itertools import combinations

from random_colored import random_colored_cone, random_datum
from test_fan_facts import same_route
from coloredfans.colored import (
    _cone_axioms,
    _face_meets,
    colored_faces,
    fan_from_maximal_cones,
    relative_interior_meets,
    validate_colored_cone,
)


def passing_cones(seed, data, cones_per_datum):
    """(datum, the cones that pass C1-C4, with their K) per random datum."""
    rng = random.Random(seed)
    for _ in range(data):
        datum = random_datum(rng)
        passed = []
        for _ in range(cones_per_datum):
            cc = random_colored_cone(rng, datum)
            report, part = _cone_axioms(datum, cc)
            assert report == validate_colored_cone(datum, cc)
            if report.passed:
                passed.append((cc, part))
        yield datum, passed


def _collinear(a, b) -> bool:
    """Nonzero vectors on one line: every 2 x 2 minor of (a, b) vanishes."""
    pairs = combinations(range(len(a)), 2)
    return any(a) and any(b) and all(a[i] * b[j] == a[j] * b[i] for i, j in pairs)


def test_faces_from_k_match_the_lp_on_random_colored_cones():
    # about 2.5 s on a 2-core x86_64 box with Python 3.11
    answers, outside, collinear, simplicial = [], 0, 0, 0
    for datum, passed in passing_cones(2024, 60, 12):
        valuation = datum.valuation_cone
        simplicial += len(valuation._rays) == datum.dim and valuation.is_strictly_convex
        placements = [datum.rho(name) for name in datum.colors]
        collinear += any(_collinear(a, b) for a, b in combinations(placements, 2))
        for cc, part in passed:
            outside += any(not valuation.contains(datum.rho(c)) for c in cc.colors)
            for face in cc.cone.faces():
                meets = relative_interior_meets(datum, face)
                assert _face_meets(part, face) == meets
                answers.append(meets)
            closed = fan_from_maximal_cones(datum, [cc])
            assert closed._facts.faces[cc.key()] == colored_faces(datum, cc)
    assert len(answers) > 1000 and 0.1 < sum(answers) / len(answers) < 0.9
    # cones with a color outside V; data with collinear colors; simplicial V
    assert outside > 50 and collinear > 5 and 10 < simplicial < 50


def test_f2_from_given_pairs_matches_the_lp_on_random_colored_fans():
    # about 2.8 s on a 2-core x86_64 box with Python 3.11, nearly all of it
    # the full route's pair LPs on rank 4
    verdicts = []
    for datum, passed in passing_cones(4048, 40, 6):
        cones = [cc for cc, _ in passed]
        for pair in combinations(cones[:3], 2):
            verdicts.append(same_route(datum, fan_from_maximal_cones(datum, pair)))
    assert len(verdicts) > 60 and 0.1 < sum(verdicts) / len(verdicts) < 0.9

"""The LP-free C1-C4, colored faces and F2 of the closure route, against the
LP route, and ``has_k_form`` against the rebuilding reference, on seeded
random colored data and actions (``random_colored.py``)."""

import random
from collections import Counter
from itertools import combinations

from conftest import cube_pattern_cones, toric_datum
from random_colored import random_colored_action, random_colored_cone, random_datum
from test_fan_facts import same_route
from test_galois import _compare_with_reference
from coloredfans import colored
from coloredfans.colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    _closure_axioms,
    _cone_axioms,
    _face_meets,
    colored_faces,
    fan_from_maximal_cones,
    relative_interior_meets,
    validate_colored_cone,
)
from coloredfans.cones import cone_from_generators
from coloredfans.galois import apply_element


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


def axiom_cases(seed, data):
    """(datum, colored cone) pairs: random ones, the distinct cones of the 64
    cube patterns, and hand-made ones in the upper half-plane, one failing
    each axiom."""
    rng = random.Random(seed)
    for _ in range(data):
        datum = random_datum(rng)
        for _ in range(8):
            yield datum, random_colored_cone(rng, datum)
    cube = toric_datum(3)
    triples = {triple for pattern in range(64) for triple in cube_pattern_cones(pattern)}
    for triple in sorted(triples):
        yield cube, ColoredCone(cone_from_generators(triple, 3))
    upper = SphericalDatum(
        2,
        cone_from_generators([(1, 0), (-1, 0), (0, 1)], 2),
        ("D", "E", "Z"),
        {"D": (0, -1), "E": (1, 1), "Z": (0, 0)},
    )
    for gens, colors in [
        ([(1, 0), (0, 1)], {"E"}),  # passes, C in V
        ([(1, 0), (0, 1)], {"D"}),  # C1: D lies outside C, C in V
        ([(1, 0), (0, -1)], {"D"}),  # C2: C is not in V
        ([(1, 0), (-1, 0)], set()),  # C3
        ([(1, 0), (0, 1)], {"Z"}),  # C4
    ]:
        yield upper, ColoredCone(cone_from_generators(gens, 2), frozenset(colors))


def test_closure_axioms_match_the_lp_route(monkeypatch):
    """``_closure_axioms`` gives the report of ``_cone_axioms``, byte for byte,
    and the same K, and ``fan_from_maximal_cones`` runs no LP."""
    failed, routes = Counter(), Counter()
    passed = []
    for datum, cc in axiom_cases(11, 40):
        report, part = _closure_axioms(datum, cc)
        expected, expected_part = _cone_axioms(datum, cc)
        assert repr(report) == repr(expected) and part == expected_part
        failed.update(name for name, ok in report.checks.items() if not ok)
        inside = part == cc.cone
        routes["inside" if inside else "cut"] += 1
        routes["C1 fails inside"] += inside and not report.checks["C1"]
        routes["lined"] += not cc.cone.is_strictly_convex
        if report.passed:
            passed.append((datum, cc))
    assert set(failed) == {"C1", "C2", "C3", "C4"}
    assert min(routes.values()) > 0 and routes["C1 fails inside"] > 5

    relints = []
    monkeypatch.setattr(colored, "relative_interior_meets", lambda *a: relints.append(a))
    for datum, cc in passed:
        fan_from_maximal_cones(datum, [cc])
    for pattern in range(64):
        given = [ColoredCone(cone_from_generators(t, 3)) for t in cube_pattern_cones(pattern)]
        fan_from_maximal_cones(toric_datum(3), given)
    assert len(passed) > 150 and relints == []


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


def test_k_form_matches_the_reference_on_random_colored_actions():
    """has_k_form, with and without validation, on closure-built fans and on
    the same members given one by one, against the rebuilding reference.
    The fans are the orbit of a random colored cone, that orbit with a
    second cone, and the first cone alone."""
    # about 2 s on a 2-core x86_64 box with Python 3.11
    rng = random.Random(2112)
    outcomes, permuted = [], 0
    for _ in range(12):
        datum, action = random_colored_action(rng)
        permuted += any(g.apply_color(c) != c for g in action.generators for c in datum.colors)
        cones = [random_colored_cone(rng, datum) for _ in range(4)]
        cones = [cc for cc in cones if validate_colored_cone(datum, cc).passed][:2]
        if not cones:
            continue
        images = {}
        for g in action.elements():
            image = apply_element(g, cones[0])
            images.setdefault(image.key(), image)
        orbit = list(images.values())
        # the reference's memos hold for one datum and action
        orbits, memo = {}, {}
        for given in (orbit, orbit + cones[1:], cones[:1]):
            closed = fan_from_maximal_cones(datum, given)
            for fan in (closed, ColoredFan(closed.cones)):
                for check in (True, False):
                    outcomes.append(
                        _compare_with_reference(datum, action, fan, check, orbits, memo)
                    )
    assert len(outcomes) > 100 and permuted > 2
    # a k-form, a non-invariant fan, overlapping orbit cones and an F2 failure
    for answer in ("verdict=True", "offending cone", "overlap inside"):
        assert any(answer in str(o) for o in outcomes), answer
    assert any(isinstance(o, tuple) and o[1].startswith("F2: ") for o in outcomes)

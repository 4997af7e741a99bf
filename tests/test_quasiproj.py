import json
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from conftest import (
    cube_pattern_cones,
    random_complete_2d_fan,
    random_unimodular,
    toric_datum,
    twisted_cube_fan,
)
from coloredfans.colored import ColoredCone, SphericalDatum, fan_from_maximal_cones
from coloredfans.cones import cone_from_generators
from coloredfans.errors import InvalidFanError
from coloredfans.linalg import matvec, vec
from coloredfans.linprog import fourier_motzkin
from coloredfans.quasiproj import build_support_lp, is_quasiprojective, maximal_members


def test_single_maximal_cone_gives_empty_lp(toric_plane):
    fan = fan_from_maximal_cones(
        toric_plane, [ColoredCone(cone_from_generators([(1, 0), (0, 1)], 2))]
    )
    lp = build_support_lp(toric_plane, fan)
    assert lp.num_vars == 2
    assert lp.eq_constraints == ()
    assert lp.ineq_constraints == ()
    result = is_quasiprojective(toric_plane, fan)
    assert result.verdict
    assert [f.coefficients for f in result.witness] == [vec([0, 0])]


def test_p1_support_lp_structure(toric_line, p1_fan):
    # hand-assembled: maximal cones in fan order are <(-1)> then <(1)>;
    # the zero cone contributes no condition-(1) rows, and each ordered pair
    # contributes its valuation rays at >= 0 plus the interior witness at >= 1
    lp = build_support_lp(toric_line, p1_fan)
    assert lp.num_vars == 2
    assert lp.eq_constraints == ()
    row = vec([-1, 1])
    expected = (
        (row, 0),
        (row, 1),
        (row, 0),
        (row, 1),
    )
    assert tuple((a, int(b)) for a, b in lp.ineq_constraints) == expected


def test_p2_support_lp_counts(toric_plane, p2_fan):
    lp = build_support_lp(toric_plane, p2_fan)
    assert lp.num_vars == 6
    assert len(lp.eq_constraints) == 3
    # six ordered pairs, each with two ray rows and one witness row
    assert len(lp.ineq_constraints) == 18


def test_p2_is_quasiprojective_with_verified_witness(toric_plane, p2_fan):
    lp = build_support_lp(toric_plane, p2_fan)
    result = is_quasiprojective(toric_plane, p2_fan)
    assert result.verdict
    flat = tuple(c for form in result.witness for c in form.coefficients)
    assert lp.satisfied_by(flat)
    assert fourier_motzkin(lp, max_vars=lp.num_vars)


def test_maximal_members(toric_plane, p2_fan):
    maximal = maximal_members(toric_plane, p2_fan)
    assert len(maximal) == 3
    assert all(m.cone.dim == 2 for m in maximal)


def test_invalid_fan_rejected(toric_line):
    from coloredfans.colored import ColoredFan

    broken = ColoredFan((ColoredCone(cone_from_generators([(1,)], 1)),))
    with pytest.raises(InvalidFanError):
        build_support_lp(toric_line, broken)


def test_random_complete_plane_fans_are_quasiprojective(toric_plane):
    rng = random.Random(777)
    for _ in range(10):
        fan = random_complete_2d_fan(rng, toric_plane)
        lp = build_support_lp(toric_plane, fan, check=False)
        result = is_quasiprojective(toric_plane, fan, check=False)
        assert result.verdict
        assert fourier_motzkin(lp, max_vars=lp.num_vars)


def test_twisted_cube_fan_is_not_quasiprojective():
    datum = toric_datum(3)
    fan = twisted_cube_fan(datum)
    result = is_quasiprojective(datum, fan, check=False)
    assert not result.verdict
    assert result.witness is None
    lp = build_support_lp(datum, fan, check=False)
    assert not fourier_motzkin(lp, max_vars=lp.num_vars)


def test_verdict_invariant_under_unimodular_change_of_basis(toric_plane, p2_fan):
    rng = random.Random(1234)
    datum3 = toric_datum(3)
    cube = twisted_cube_fan(datum3)
    cases = [(toric_plane, p2_fan, True), (datum3, cube, False)]
    for base_datum, base_fan, expected in cases:
        for _ in range(3):
            a = random_unimodular(rng, base_datum.dim)
            moved_datum = SphericalDatum(
                base_datum.dim,
                base_datum.valuation_cone.image(a),
                base_datum.colors,
                {c: matvec(a, base_datum.rho(c)) for c in base_datum.colors},
            )
            moved_fan = fan_from_maximal_cones(
                moved_datum,
                [
                    ColoredCone(m.cone.image(a), m.colors)
                    for m in maximal_members(base_datum, base_fan)
                ],
            )
            result = is_quasiprojective(moved_datum, moved_fan, check=False)
            assert result.verdict == expected


def test_witness_transforms_contravariantly(toric_plane, p2_fan):
    # forms compose with the inverse map: l' = l o A^{-1}, so coefficient
    # vectors move by the transposed inverse; the mapped witness must satisfy
    # the transformed problem's constraints exactly
    from reference_exact import reference_invert

    from coloredfans.linalg import transpose

    rng = random.Random(98)
    base = is_quasiprojective(toric_plane, p2_fan)
    assert base.verdict
    for _ in range(3):
        a = random_unimodular(rng, 2)
        contragredient = transpose(reference_invert(a))
        moved_datum = SphericalDatum(2, toric_plane.valuation_cone.image(a))
        moved_fan = fan_from_maximal_cones(
            moved_datum,
            [
                ColoredCone(m.cone.image(a), m.colors)
                for m in maximal_members(toric_plane, p2_fan)
            ],
        )
        transformed = {
            form.cone.cone.image(a): matvec(contragredient, form.coefficients)
            for form in base.witness
        }
        moved_maximal = maximal_members(moved_datum, moved_fan)
        flat = tuple(c for m in moved_maximal for c in transformed[m.cone])
        moved_lp = build_support_lp(moved_datum, moved_fan, check=False)
        assert moved_lp.satisfied_by(flat)


# -- row generation against the all-pairs LP (the routes fixture) ------------


def test_row_generation_matches_the_all_pairs_lp_on_plane_fans(toric_plane, routes):
    """200 random complete plane fans, decided by their wall rows alone, then
    sub-fans of larger ones: random subsets of their maximal cones, where
    more blocks may join."""
    rng = random.Random(4200)
    for _ in range(200):
        fan = random_complete_2d_fan(rng, toric_plane)
        verdict, solves = routes(toric_plane, fan._facts.maximal())
        assert verdict and len(solves) == 1
    rounds = Counter()
    for _ in range(100):
        maximal = random_complete_2d_fan(rng, toric_plane, max_rays=8)._facts.maximal()
        verdict, solves = routes(toric_plane, rng.sample(maximal, rng.randint(2, len(maximal))))
        rounds[verdict, len(solves)] += 1
    assert rounds[True, 2] and rounds[True, 3]


def test_row_generation_matches_the_cube_goldens_and_sub_fans(routes):
    """The 64 cube patterns decide as ``bench/golden_cube.json`` says, each in
    one solve of its wall rows; a random subset of each pattern's maximal
    cones gives the all-pairs verdict, "yes" and "no" after several solves."""
    golden = Path(__file__).resolve().parent.parent / "bench" / "golden_cube.json"
    patterns = json.loads(golden.read_text())["patterns"]
    datum = toric_datum(3)
    rng = random.Random(4201)
    rounds = Counter()
    for pattern in range(64):
        cones = [ColoredCone(cone_from_generators(c, 3)) for c in cube_pattern_cones(pattern)]
        maximal = fan_from_maximal_cones(datum, cones)._facts.maximal()
        verdict, solves = routes(datum, maximal, patterns[pattern]["quasiprojective"])
        assert solves == [144]
        rounds["pattern", verdict] += 1
        verdict, solves = routes(datum, rng.sample(cones, rng.randint(3, 8)))
        rounds[verdict, len(solves) > 1] += 1
    assert rounds["pattern", True] == 46 and rounds["pattern", False] == 18
    assert rounds[True, True] and rounds[False, True]


def test_row_generation_matches_the_all_pairs_lp_on_random_colored_fans(routes):
    """Face closures of two or three random colored cones that pass C1-C4
    and F2 (``random_colored.py``): V is not the whole space and there are
    colors."""
    from test_random_colored import passing_cones

    rounds = Counter()
    for datum, passed in passing_cones(4049, 40, 6):
        cones = [cc for cc, _ in passed]
        for k in (2, 3):
            for given in list(combinations(cones[:4], k))[:3]:
                fan = fan_from_maximal_cones(datum, given)
                if next(fan._facts.overlaps(), None) is None:
                    _, solves = routes(datum, fan._facts.maximal())
                    rounds[len(solves), bool(datum.colors)] += 1
    assert sum(rounds.values()) > 100 and rounds[2, True] and rounds[2, False]


def test_row_generation_on_the_line_fan(toric_plane, routes):
    """The m = 16 line fan: each cone shares a wall with its neighbours only,
    and the 90 rows of those 30 ordered pairs decide the 720-row LP."""
    line = [ColoredCone(cone_from_generators([(1, k), (1, k + 1)], 2)) for k in range(16)]
    maximal = fan_from_maximal_cones(toric_plane, line)._facts.maximal()
    assert routes(toric_plane, maximal) == (True, [90])

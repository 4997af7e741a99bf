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
from coloredfans import colored, fileio, quasiproj
from coloredfans.cli import main
from coloredfans.colored import ColoredCone, SphericalDatum, fan_from_maximal_cones
from coloredfans.cones import Cone, cone_from_generators
from coloredfans.errors import InvalidFanError, SemanticError
from coloredfans.galois import GroupElement, action_from_generators, apply_element, has_k_form
from coloredfans.linalg import matvec, rank, vec
from coloredfans.linprog import fourier_motzkin
from coloredfans.quasiproj import (
    _support_feasible,
    _support_lp,
    _support_rows,
    _valuation_parts,
    build_support_lp,
    is_quasiprojective,
    maximal_members,
)


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


def test_support_lp_is_the_same_from_either_source_of_k(monkeypatch, toric_plane):
    """The LP posed on parts K_k = Z_k ∩ V from ``_valuation_part``, which
    is Z_k itself when Z_k lies in V, and then reads each Z_k ∩ Z_l off
    their common rays, equals ``build_support_lp``, which intersects each
    Z_k with V and each pair with ``Cone.intersect``: on every loadable fan
    fixture, the 64 cube patterns, the m = 16 line fan and closures of
    random colored cones, where V is not the whole space and some K_k is
    not Z_k.  Neither ranks a meet: no ``quasiproj._echelon`` call, since
    only row generation reads the walls."""
    from test_fan_facts import FAN_FIXTURE_DATA, FIXTURES
    from test_random_colored import passing_cones

    fans = []
    for fan_name, datum_name in FAN_FIXTURE_DATA.items():
        try:
            inputs = fileio.parse_inputs(FIXTURES / datum_name, FIXTURES / fan_name)
        except SemanticError:
            continue
        fans.append((inputs.datum, inputs.fan))
    space = toric_datum(3)
    for pattern in range(64):
        cones = [ColoredCone(cone_from_generators(c, 3)) for c in cube_pattern_cones(pattern)]
        fans.append((space, fan_from_maximal_cones(space, cones)))
    line = [ColoredCone(cone_from_generators([(1, k), (1, k + 1)], 2)) for k in range(16)]
    fans.append((toric_plane, fan_from_maximal_cones(toric_plane, line)))
    for datum, passed in passing_cones(4050, 12, 4):
        if len(passed) >= 2:
            fans.append((datum, fan_from_maximal_cones(datum, [cc for cc, _ in passed[:2]])))
    assert len(fans) == 8 + 64 + 1 + 11
    ranked = []
    real_echelon = quasiproj._echelon

    def spying(rows):
        ranked.append(rows)
        return real_echelon(rows)

    monkeypatch.setattr(quasiproj, "_echelon", spying)
    cut = 0
    for datum, fan in fans:
        maximal = fan._facts.maximal()
        parts = _valuation_parts(datum, maximal)
        cut += any(part is not cc.cone for part, cc in zip(parts, maximal))
        assert _support_lp(datum, maximal, parts) == build_support_lp(datum, fan, check=False)
    assert cut and ranked == []


# -- pair intersections read off the common rays ------------------------------


def _copy(cone: Cone) -> Cone:
    """The same cone as another object: a part that is not its cone, so that
    ``_support_rows`` intersects each of its pairs with ``Cone.intersect``."""
    return Cone(cone.ambient_dim, cone._rays, cone._lineality, cone._facets, cone._span_eq)


def _intersect_spy(monkeypatch):
    """Record, per ``Cone.intersect`` call, its two cones."""
    met = []
    real_intersect = Cone.intersect

    def spying(self, other):
        met.append((self, other))
        return real_intersect(self, other)

    monkeypatch.setattr(Cone, "intersect", spying)
    return met


def test_no_cone_is_intersected_with_v_when_every_maximal_cone_lies_in_it(
    monkeypatch, capsys, toric_plane, p2_fan
):
    """Row generation, CLI ``quasiproj`` and ``has_k_form`` call
    ``Cone.intersect`` zero times on fans whose maximal cones lie in V (P2,
    P1 x P1 and the horospherical P1, whose V is the whole line): each
    K_k = Z_k comes from dot products and each Z_k ∩ Z_l from common rays.
    ``build_support_lp``, whose double descriptions the benchmark gate pins,
    intersects V, the whole plane, with each of the 7 members of P2 for C1
    and with each of the 3 maximal cones for its K_k, and each pair of
    maximal cones with each other.  A pair with a cone that sticks out of V
    takes ``Cone.intersect`` too: in the plane with the lower half-plane as
    V, the cone over (1, -1) and (0, 1) with the color D at (0, 1) beside
    the cone over (-1, -1) and (1, -1), which lies in V."""
    from test_fan_facts import lower_half_plane

    met = _intersect_spy(monkeypatch)
    fixtures = Path(__file__).parent / "fixtures"
    for datum_name, fan_name in (
        ("datum_toric2.json", "fan_p2.json"),
        ("datum_toric2.json", "fan_p1xp1.json"),
        ("datum_horo1.json", "fan_horo_p1.json"),
    ):
        inputs = fileio.parse_inputs(fixtures / datum_name, fixtures / fan_name)
        met.clear()
        assert _support_feasible(inputs.datum, inputs.fan._facts.maximal())
        argv = ["quasiproj", "--datum", str(fixtures / datum_name)]
        assert main(argv + ["--fan", str(fixtures / fan_name)]) == 0
        assert "verdict: PASS" in capsys.readouterr().out
        assert met == []
    s3 = action_from_generators(
        toric_plane, [GroupElement.make([[0, -1], [1, -1]]), GroupElement.make([[0, 1], [1, 0]])]
    )
    assert has_k_form(toric_plane, s3, p2_fan, check=True).verdict
    assert met == []
    build_support_lp(toric_plane, p2_fan, check=False)
    assert sum(toric_plane.valuation_cone in pair for pair in met) == 7 + 3
    assert len(met) == 7 + 3 + 3
    datum = lower_half_plane()
    out = ColoredCone(cone_from_generators([(1, -1), (0, 1)], 2), {"D"})
    inside = ColoredCone(cone_from_generators([(-1, -1), (1, -1)], 2))
    maximal = fan_from_maximal_cones(datum, [out, inside])._facts.maximal()
    parts = _valuation_parts(datum, maximal)
    assert [part is cc.cone for part, cc in zip(parts, maximal)] == [
        cc.key() == inside.key() for cc in maximal
    ]
    met.clear()
    eqs, _, meets = _support_rows(datum, maximal, parts)
    assert met == [(maximal[0].cone, maximal[1].cone)]
    # the two cones share a wall, seen from either: rank(Z_0 ∩ Z_1) = dim Z_k - 1
    assert len(eqs) == 1 and [rank(meets[0, 1]) + 1] * 2 == [cc.cone.dim for cc in maximal]


def test_common_ray_route_matches_cone_intersect(monkeypatch, toric_plane):
    """Maximal cones that lie in V and pass F2 meet in the cone over their
    common rays: ``_support_rows`` on parts that are the cones themselves,
    which runs no ``Cone.intersect``, gives the equalities, blocks and meet
    generators, and so the walls, of the same parts as other objects, which
    intersects every pair.
    The fans are 200 random plane fans, the 64 cube patterns, the orbit fans
    of the k-form cases under seeded base changes, the m = 16 line fan, two
    pyramids sharing a square wall and the closures of random colored cones
    that lie in V."""
    from test_galois import KFORM_CASES, _kform_case
    from test_random_colored import passing_cones

    rng = random.Random(4300)
    cases = [(toric_plane, random_complete_2d_fan(rng, toric_plane, 6)._facts.maximal())
             for _ in range(200)]
    space = toric_datum(3)
    triangles: dict = {}
    for pattern in range(64):
        cones = [
            ColoredCone(triangles.get(c) or triangles.setdefault(c, cone_from_generators(c, 3)))
            for c in cube_pattern_cones(pattern)
        ]
        cases.append((space, fan_from_maximal_cones(space, cones)._facts.maximal()))
    for case in KFORM_CASES:
        datum, fan, action = _kform_case(case, random_unimodular(rng, case[1]))
        for cc in fan:
            images = [apply_element(g, cc) for g in action.elements()]
            cases.append((datum, colored._face_closure(datum, images, {}).maximal()))
    line = [ColoredCone(cone_from_generators([(1, k), (1, k + 1)], 2)) for k in range(16)]
    cases.append((toric_plane, fan_from_maximal_cones(toric_plane, line)._facts.maximal()))
    # two pyramids over one square: a wall of 4 rays and rank 3
    square = [(1, 1, 0, 1), (1, -1, 0, 1), (-1, -1, 0, 1), (-1, 1, 0, 1)]
    pyramids = [ColoredCone(cone_from_generators(square + [(0, 0, z, 1)], 4)) for z in (1, -1)]
    space4 = toric_datum(4)
    maximal4 = fan_from_maximal_cones(space4, pyramids)._facts.maximal()
    cases.append((space4, maximal4))
    # so a wall is told by the rank of the meet, not by its generator count
    _, _, meets = _support_rows(space4, maximal4, _valuation_parts(space4, maximal4))
    assert (len(meets[0, 1]), rank(meets[0, 1])) == (4, 3)
    colored_in_v = 0
    for datum, passed in passing_cones(4301, 40, 6):
        in_v = [cc for cc, part in passed if part == cc.cone]
        for given in list(combinations(in_v, 2))[:3]:
            fan = fan_from_maximal_cones(datum, given)
            if next(fan._facts.overlaps(), None) is None:
                cases.append((datum, fan._facts.maximal()))
                colored_in_v += any(cc.colors for cc in given)
    assert len(cases) > 200 + 64 + 16 + 2 + 20 and colored_in_v
    met = _intersect_spy(monkeypatch)
    walls = 0
    for datum, maximal in cases:
        parts = _valuation_parts(datum, maximal)
        assert all(part is cc.cone for part, cc in zip(parts, maximal))
        met.clear()
        rows = _support_rows(datum, maximal, parts)
        assert met == []
        assert rows == _support_rows(datum, maximal, [_copy(part) for part in parts])
        assert len(met) == len(maximal) * (len(maximal) - 1) // 2
        # block (k, l) of a wall: rank(Z_k ∩ Z_l) = dim Z_k - 1
        walls += sum(
            rank(gens) == maximal[i].cone.dim - 1 for pair, gens in rows[2].items() for i in pair
        )
    assert walls

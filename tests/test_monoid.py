import random
from collections import Counter

import pytest

from conftest import random_complete_2d_fan, random_unimodular, toric_datum
from coloredfans.colored import ColoredCone, fan_from_maximal_cones, validate_colored_cone
from coloredfans.cones import cone_from_generators
from coloredfans.errors import MonoidConeError, NotInvolutionError, SemanticError
from coloredfans.galois import GroupElement, action_from_generators, has_k_form
from coloredfans.linalg import vec
from coloredfans.monoid import (
    MorphismData,
    check_fan_morphism,
    is_monoid_cone,
    lined_closure_real_form,
    monoid_cone_from_valuations,
    monoid_has_k_form,
    validate_morphism_data,
)
from coloredfans.quasiproj import maximal_members


def cc(gens, dim, colors=()):
    return ColoredCone(cone_from_generators(gens, dim), frozenset(colors))


def test_affine_line_monoid(toric_line):
    result = is_monoid_cone(toric_line, cc([(-1,)], 1))
    assert result.verdict


def test_line_cone_fails_strict_convexity(toric_line):
    result = is_monoid_cone(toric_line, cc([(1,), (-1,)], 1))
    assert not result.verdict
    assert not result.report.checks["C3"]


def test_rank_one_candidates(rank_one_datum):
    result = is_monoid_cone(rank_one_datum, cc([(1,), (-1,)], 1, ["D+", "D-"]))
    assert not result.verdict
    assert not result.report.checks["C3"]
    forward = is_monoid_cone(rank_one_datum, cc([(1,)], 1, ["D+", "D-"]))
    assert not forward.verdict
    assert forward.report.checks["C3"] and forward.report.checks["C4"]
    assert not forward.report.checks["C2"]


def test_missing_colors_detected(rank_one_datum):
    result = is_monoid_cone(rank_one_datum, cc([(1,)], 1, ["D+"]))
    assert not result.report.checks["all_colors"]


def test_monoid_cone_from_valuations(toric_line, toric_plane):
    built = monoid_cone_from_valuations(toric_line, [(-1,)])
    assert built.cone == cone_from_generators([(-1,)], 1)
    with pytest.raises(MonoidConeError, match="C3"):
        monoid_cone_from_valuations(toric_line, [(1,), (-1,)])
    plane_monoid = monoid_cone_from_valuations(toric_plane, [(-1, 0), (0, -1)])
    assert is_monoid_cone(toric_plane, plane_monoid).verdict


def test_valuations_outside_cone_rejected(rank_one_datum):
    with pytest.raises(ValueError):
        monoid_cone_from_valuations(rank_one_datum, [(1,)])


def test_from_valuations_roundtrip_random(toric_plane):
    rng = random.Random(88)
    built = 0
    while built < 25:
        vs = [
            (rng.randint(-4, 4), rng.randint(-4, 4))
            for _ in range(rng.randint(1, 4))
        ]
        try:
            cone = monoid_cone_from_valuations(toric_plane, vs)
        except MonoidConeError:
            continue
        assert is_monoid_cone(toric_plane, cone).verdict
        built += 1


def test_monoid_k_form(toric_plane):
    swap = action_from_generators(toric_plane, [GroupElement.make([[0, 1], [1, 0]])])
    ident = action_from_generators(toric_plane, [])
    plane_monoid = cc([(-1, 0), (0, -1)], 2)
    assert monoid_has_k_form(toric_plane, swap, plane_monoid)
    skew = cc([(-1, 0), (-1, -1)], 2)
    assert not monoid_has_k_form(toric_plane, swap, skew)
    assert monoid_has_k_form(toric_plane, ident, skew)


def seeded_monoid_cones(datum, seed, count):
    """``count`` monoid cones of ``datum`` from seeded valuation sets."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        vs = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
        try:
            cones.append(monoid_cone_from_valuations(datum, vs))
        except MonoidConeError:
            continue
    return cones


def test_monoid_k_form_matches_fan_invariance(toric_plane):
    from coloredfans.galois import is_fan_invariant

    swap = action_from_generators(toric_plane, [GroupElement.make([[0, 1], [1, 0]])])
    for cone in seeded_monoid_cones(toric_plane, 11, 10):
        fan = fan_from_maximal_cones(toric_plane, [cone])
        assert monoid_has_k_form(toric_plane, swap, cone) == is_fan_invariant(
            toric_plane, swap, fan
        )


def test_non_monoid_cone_rejected_by_k_form(toric_line):
    ident = action_from_generators(toric_line, [])
    with pytest.raises(MonoidConeError):
        monoid_has_k_form(toric_line, ident, cc([(1,), (-1,)], 1))


def test_monoid_report_matches_the_lp_route(monkeypatch):
    """``is_monoid_cone`` checks C1-C4 on the closure route, with no LP; its
    report equals, byte for byte, the one built from
    ``validate_colored_cone``, on the fan fixtures with one cone and on
    seeded random colored cones."""
    from pathlib import Path

    from random_colored import random_colored_cone, random_datum
    from coloredfans import colored, fileio, monoid

    fixtures = Path(__file__).parent / "fixtures"
    cases = []
    for fan_name, datum_name in (
        ("fan_a2_monoid.json", "datum_toric2.json"),
        ("fan_rank1_monoid_candidate.json", "datum_rank1.json"),
        ("fan_rank1_back.json", "datum_rank1.json"),
        ("fan_single_ray.json", "datum_toric2.json"),
    ):
        datum = fileio.parse_datum(fileio.load_json(fixtures / datum_name))
        (cone,) = fileio.parse_fan(fileio.load_json(fixtures / fan_name), datum)
        cases.append((datum, cone))
    # a color placed at the origin fails C4
    zero = colored.SphericalDatum(2, toric_datum(2).valuation_cone, ("Z",), {"Z": (0, 0)})
    cases.append((zero, cc([(1, 0)], 2, ["Z"])))
    rng = random.Random(4141)
    for _ in range(30):
        datum = random_datum(rng)
        cases += [(datum, random_colored_cone(rng, datum)) for _ in range(4)]
    relints = []
    monkeypatch.setattr(colored, "relative_interior_meets", lambda *a: relints.append(a))
    results = [is_monoid_cone(datum, cone) for datum, cone in cases]
    assert relints == []
    monkeypatch.undo()
    monkeypatch.setattr(
        monoid, "_closure_axioms", lambda datum, cone: (validate_colored_cone(datum, cone), None)
    )
    assert [repr(result.report) for result in results] == [
        repr(is_monoid_cone(datum, cone).report) for datum, cone in cases
    ]
    verdicts = Counter(result.verdict for result in results)
    failed = Counter(name for r in results for name, ok in r.report.checks.items() if not ok)
    assert verdicts[True] >= 2 and set(failed) == {"all_colors", "C1", "C2", "C3", "C4"}


def test_monoid_cone_implies_valid_colored_cone_with_all_colors(toric_plane):
    from coloredfans.colored import SphericalDatum, validate_colored_cone

    colored_datum = SphericalDatum(
        2,
        toric_plane.valuation_cone,
        ("D",),
        {"D": (1, 0)},
    )
    accepted = [
        (toric_plane, cc([(-1, 0), (0, -1)], 2)),
        (colored_datum, cc([(1, 0), (0, -1)], 2, ["D"])),
    ]
    for datum, cone in accepted:
        assert is_monoid_cone(datum, cone).verdict
        report = validate_colored_cone(datum, cone)
        assert report.passed
        assert cone.colors == frozenset(datum.colors)


def test_monoid_k_form_conjugation_covariance(toric_plane):
    from conftest import random_unimodular
    from coloredfans.colored import SphericalDatum
    from reference_exact import reference_invert

    from coloredfans.linalg import matmul

    rng = random.Random(73)
    swap = GroupElement.make([[0, 1], [1, 0]])
    cases = [(cc([(-1, 0), (0, -1)], 2), True), (cc([(-1, 0), (-1, -1)], 2), False)]
    for cone, expected in cases:
        for _ in range(3):
            a = random_unimodular(rng, 2)
            a_inv = reference_invert(a)
            moved_datum = SphericalDatum(2, toric_plane.valuation_cone.image(a))
            moved_action = action_from_generators(
                moved_datum, [GroupElement.make(matmul(a, matmul(swap.matrix, a_inv)))]
            )
            moved_cone = ColoredCone(cone.cone.image(a), cone.colors)
            assert (
                monoid_has_k_form(moved_datum, moved_action, moved_cone) == expected
            )


def reference_cases(toric_plane):
    """The monoid k-form cases above and in test_galois.py, as (datum,
    generators, cone), with the group finite: the swap and the identity on
    two cones, the swap on ten seeded cones and on two cones moved by six
    seeded base changes, and a colored datum under a reflection and under
    the identity."""
    from coloredfans.colored import SphericalDatum
    from coloredfans.linalg import matmul
    from reference_exact import reference_invert

    swap = GroupElement.make([[0, 1], [1, 0]])
    plane_monoid, skew = cc([(-1, 0), (0, -1)], 2), cc([(-1, 0), (-1, -1)], 2)
    cases = [(toric_plane, gens, cone) for gens in ([swap], []) for cone in (plane_monoid, skew)]
    cases += [(toric_plane, [swap], cone) for cone in seeded_monoid_cones(toric_plane, 11, 10)]
    rng = random.Random(73)
    for cone in (plane_monoid, skew):
        for _ in range(3):
            a = random_unimodular(rng, 2)
            moved = GroupElement.make(matmul(a, matmul(swap.matrix, reference_invert(a))))
            datum = SphericalDatum(2, toric_plane.valuation_cone.image(a))
            cases.append((datum, [moved], ColoredCone(cone.cone.image(a), cone.colors)))
    colored_datum = SphericalDatum(2, toric_plane.valuation_cone, ("D",), {"D": (1, 0)})
    for gens in ([], [GroupElement.make([[1, 0], [0, -1]])]):
        cases.append((colored_datum, gens, cc([(1, 0), (0, -1)], 2, ["D"])))
    return cases


def test_monoid_k_form_matches_reference_with_and_without_lp(toric_plane):
    """``monoid_has_k_form``, which runs no LP, gives the verdict of the
    rebuilding reference's full k-form check, support LPs included, on the
    cone's face closure (:func:`reference_cases`).  The shear of
    test_galois.py is left out: the reference enumerates the group, and the
    shear's is infinite."""
    from reference_kform import reference_has_k_form

    verdicts = []
    for datum, gens, cone in reference_cases(toric_plane):
        action = action_from_generators(datum, gens)
        fan = fan_from_maximal_cones(datum, [cone])
        expected = reference_has_k_form(datum, action, fan, check=False).verdict
        assert monoid_has_k_form(datum, action, cone) == expected
        verdicts.append(expected)
    assert len(verdicts) == 22 and 0 < sum(verdicts) < 22


def test_unvalidated_k_form_of_the_closure_is_the_monoid_verdict(toric_plane):
    """``has_k_form(check=False)``, the full k-form check with its orbit
    closures, overlap test and support LPs, gives the verdict of
    ``monoid_has_k_form`` on the face closure of a monoid cone: on
    :func:`reference_cases`, which hold the seeded cones of
    ``test_monoid_k_form_matches_fan_invariance`` and the swap cases of
    test_galois.py, and on the unvalidated actions there, a shear, whose
    group is infinite, and a singular projection, which maps a cone onto a
    face."""
    shear = GroupElement.make([[1, 1], [0, 1]])
    projection = GroupElement.make([[1, 0], [0, 0]])
    plane_monoid, skew = cc([(-1, 0), (0, -1)], 2), cc([(-1, 0), (-1, -1)], 2)
    ray = cc([(1, 0)], 2)
    cases = reference_cases(toric_plane)
    cases += [(toric_plane, [shear], cone) for cone in (ray, plane_monoid)]
    cases += [(toric_plane, [projection], cone) for cone in (plane_monoid, skew, ray)]
    verdicts = []
    for datum, gens, cone in cases:
        action = action_from_generators(datum, gens)
        fan = fan_from_maximal_cones(datum, [cone])
        verdicts.append(monoid_has_k_form(datum, action, cone))
        assert has_k_form(datum, action, fan, check=False).verdict == verdicts[-1]
    assert len(verdicts) == 27 and 0 < sum(verdicts) < 27


def projection_morphism():
    return MorphismData.make([[1, 0]])


def test_identity_morphism_is_reflexive(toric_plane, p1xp1_fan):
    ident = MorphismData.make([[1, 0], [0, 1]])
    result = check_fan_morphism(toric_plane, toric_plane, ident, p1xp1_fan, p1xp1_fan)
    assert result.verdict
    assert all(src.key() == dst.key() for src, dst in result.assignment)


def test_projection_fixture(toric_plane, toric_line):
    quadrant_fan = fan_from_maximal_cones(toric_plane, [cc([(1, 0), (0, 1)], 2)])
    half_fan = fan_from_maximal_cones(toric_line, [cc([(1,)], 1)])
    result = check_fan_morphism(
        toric_plane, toric_line, projection_morphism(), quadrant_fan, half_fan
    )
    assert result.verdict
    zero_fan = fan_from_maximal_cones(toric_line, [cc([], 1)])
    result = check_fan_morphism(
        toric_plane, toric_line, projection_morphism(), quadrant_fan, zero_fan
    )
    assert not result.verdict
    assert result.reasons


def reference_fan_morphism(m, fan_src, fan_dst):
    """The assignment and reasons of check_fan_morphism, read off the image
    cone that Cone.image builds, a double description for a singular matrix."""
    cmap = m.color_map_dict
    assignment, reasons = [], []
    for src in fan_src:
        image = src.cone.image(m.matrix)
        needed = {cmap[c] for c in src.colors if c not in m.dominant_colors}
        target = next(
            (
                dst
                for dst in fan_dst
                if needed <= dst.colors and all(dst.cone.contains(g) for g in image.generators())
            ),
            None,
        )
        if target is None:
            reasons.append(f"no target member receives {src.describe()}")
        else:
            assignment.append((src.key(), target.key()))
    return assignment, reasons


def test_morphism_check_matches_image_cone_route(toric_plane, toric_line):
    """Seeded projections of random complete plane fans onto a line, and
    unimodular base changes of the identity: testing the images of a cone's
    generators gives the assignment and reasons of the image-cone route."""
    rng = random.Random(1608)
    line_fans = [
        fan_from_maximal_cones(toric_line, [cc(g, 1) for g in gens])
        for gens in ([[(1,)], [(-1,)]], [[(1,)]], [[(-1,)]], [[]])
    ]
    cases = []
    for _ in range(10):
        fan = random_complete_2d_fan(rng, toric_plane)
        row = (0, 0)
        while row == (0, 0):
            row = (rng.randint(-3, 3), rng.randint(-3, 3))
        cases += [(toric_line, MorphismData.make([row]), fan, target) for target in line_fans]
        a = random_unimodular(rng, 2)
        moved = fan_from_maximal_cones(
            toric_plane,
            [ColoredCone(z.cone.image(a), z.colors) for z in maximal_members(toric_plane, fan)],
        )
        other = random_complete_2d_fan(rng, toric_plane)
        cases += [(toric_plane, MorphismData.make(a), fan, target) for target in (moved, fan, other)]
    verdicts = Counter()
    for datum_dst, m, fan_src, fan_dst in cases:
        result = check_fan_morphism(toric_plane, datum_dst, m, fan_src, fan_dst)
        assignment, reasons = reference_fan_morphism(m, fan_src, fan_dst)
        assert [(src.key(), dst.key()) for src, dst in result.assignment] == assignment
        assert list(result.reasons) == reasons
        assert result.verdict == (not reasons)
        verdicts[result.verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_morphism_data_invariants(toric_plane, toric_line, rank_one_datum):
    with pytest.raises(SemanticError):
        validate_morphism_data(toric_plane, toric_line, MorphismData.make([[0, 0]]))
    with pytest.raises(SemanticError):
        validate_morphism_data(toric_plane, toric_plane, MorphismData.make([[1, 0]]))
    # valuation cones must correspond: the toric line's cone is everything,
    # the rank-one fixture's is only the negative ray
    with pytest.raises(SemanticError):
        validate_morphism_data(toric_line, rank_one_datum, MorphismData.make([[1]]))
    # color bookkeeping: every non-dominant color needs an image
    with pytest.raises(SemanticError):
        validate_morphism_data(
            rank_one_datum,
            rank_one_datum,
            MorphismData.make([[1]], {"D+": "D+"}),
        )


def test_colored_morphism_with_dominant_colors(rank_one_datum):
    from coloredfans.colored import SphericalDatum

    target = SphericalDatum(1, cone_from_generators([(-1,)], 1))
    m = MorphismData.make([[1]], {}, ["D+", "D-"])
    fan_src = fan_from_maximal_cones(rank_one_datum, [cc([(-1,)], 1)])
    fan_dst = fan_from_maximal_cones(target, [cc([(-1,)], 1)])
    result = check_fan_morphism(rank_one_datum, target, m, fan_src, fan_dst)
    assert result.verdict


def test_morphism_composition_accepted(toric_plane, toric_line):
    datum3 = toric_datum(3)
    drop_z = MorphismData.make([[1, 0, 0], [0, 1, 0]])
    drop_y = MorphismData.make([[1, 0]])
    fan3 = fan_from_maximal_cones(datum3, [cc([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)])
    fan2 = fan_from_maximal_cones(toric_plane, [cc([(1, 0), (0, 1)], 2)])
    fan1 = fan_from_maximal_cones(toric_line, [cc([(1,)], 1)])
    assert check_fan_morphism(datum3, toric_plane, drop_z, fan3, fan2).verdict
    assert check_fan_morphism(toric_plane, toric_line, drop_y, fan2, fan1).verdict
    composed = MorphismData.make([[1, 0, 0]])
    assert check_fan_morphism(datum3, toric_line, composed, fan3, fan1).verdict


def test_lined_closure_truth_table():
    assert lined_closure_real_form((1,), [[-1]])
    assert not lined_closure_real_form((1,), [[1]])
    assert lined_closure_real_form((0, 0), [[1, 0], [0, 1]])
    with pytest.raises(NotInvolutionError):
        lined_closure_real_form((1,), [[2]])
    with pytest.raises(ValueError):
        lined_closure_real_form((1, 0), [[1]])


def random_involution(rng: random.Random, n: int):
    """Random signed permutation of order at most two."""
    perm = list(range(n))
    indices = list(range(n))
    rng.shuffle(indices)
    while len(indices) >= 2 and rng.random() < 0.6:
        i, j = indices.pop(), indices.pop()
        perm[i], perm[j] = j, i
    signs = [rng.choice([1, -1]) for _ in range(n)]
    m = [[0] * n for _ in range(n)]
    for i, p in enumerate(perm):
        m[p][i] = signs[i] if p == i else signs[min(i, p)]
    return m


def test_lined_closure_symmetry_in_the_weight():
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.randint(1, 4)
        theta = random_involution(rng, n)
        lam = vec([rng.randint(-5, 5) for _ in range(n)])
        minus = vec([-x for x in lam])
        assert lined_closure_real_form(lam, theta) == lined_closure_real_form(minus, theta)

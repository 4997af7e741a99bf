import random
from itertools import product

import pytest

from conftest import toric_datum
from coloredfans.colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    _checked_fan,
    _separated_meet,
    _separating,
    _validate_fan,
    colored_faces,
    fan_from_maximal_cones,
    locate,
    relative_interior_meets,
    validate_colored_cone,
    validate_colored_fan,
)
from coloredfans.cones import cone_from_generators
from coloredfans.errors import InvalidColoredConeError, InvalidFanError, UnknownColorError
from coloredfans.quasiproj import is_quasiprojective, maximal_members
from coloredfans.reports import ValidationReport


def cc(gens, dim, colors=()):
    return ColoredCone(cone_from_generators(gens, dim), frozenset(colors))


def test_datum_invariants():
    with pytest.raises(ValueError):
        SphericalDatum(1, cone_from_generators([(1,)], 1), ("D", "D"), {"D": (1,)})
    with pytest.raises(ValueError):
        SphericalDatum(1, cone_from_generators([(1,)], 1), ("D",), {"D": (1, 2)})
    with pytest.raises(ValueError):
        SphericalDatum(2, cone_from_generators([(1,)], 1))


def test_rank_one_fixture_validation(rank_one_datum):
    back = cc([(-1,)], 1)
    report = validate_colored_cone(rank_one_datum, back)
    assert report.passed
    forward = cc([(1,)], 1)
    report = validate_colored_cone(rank_one_datum, forward)
    assert not report.checks["C1"]
    assert not report.checks["C2"]
    assert report.checks["C3"] and report.checks["C4"]


def test_zero_placement_fails_c4():
    datum = SphericalDatum(
        2, toric_datum(2).valuation_cone, ("D0",), {"D0": (0, 0)}
    )
    report = validate_colored_cone(datum, cc([(1, 0), (0, 1)], 2, ["D0"]))
    assert not report.checks["C4"]
    assert report.checks["C1"] and report.checks["C2"] and report.checks["C3"]


def test_unknown_color_rejected(rank_one_datum):
    with pytest.raises(UnknownColorError):
        validate_colored_cone(rank_one_datum, cc([(-1,)], 1, ["D9"]))


def test_colored_faces_rank_one(rank_one_datum):
    back = cc([(-1,)], 1)
    faces = colored_faces(rank_one_datum, back)
    keys = {f.key() for f in faces}
    assert keys == {cc([], 1).key(), back.key()}


def test_colored_faces_toric_case(toric_plane):
    quadrant = cc([(1, 0), (0, 1)], 2)
    faces = colored_faces(toric_plane, quadrant)
    assert len(faces) == 4


def test_colored_faces_with_restricted_valuation_cone():
    lower_right = SphericalDatum(2, cone_from_generators([(0, -1), (1, 0)], 2))
    inside = cc([(1, 0), (0, -1)], 2)
    assert len(colored_faces(lower_right, inside)) == 4
    crossing = cc([(1, 0), (1, -1)], 2)
    faces = colored_faces(lower_right, crossing)
    assert len(faces) == 4
    assert cc([(1, -1)], 2).key() in {f.key() for f in faces}
    # a cone pointing out of the valuation cone fails validation outright
    with pytest.raises(InvalidColoredConeError):
        colored_faces(lower_right, cc([(0, 1)], 2))


def test_color_inheritance_on_faces(rank_one_datum):
    # the zero face inherits no colors: both placements sit at (1), outside {0}
    back = cc([(-1,)], 1)
    zero_face = [f for f in colored_faces(rank_one_datum, back) if f.cone.is_zero]
    assert zero_face[0].colors == frozenset()


def test_p1_fan_validates(toric_line, p1_fan):
    assert len(p1_fan) == 3
    report = validate_colored_fan(toric_line, p1_fan)
    assert report.passed
    assert report.checks["F1"] and report.checks["F2"]


def test_duplicate_cone_with_two_color_sets_fails_f2():
    datum = SphericalDatum(
        1,
        cone_from_generators([(1,), (-1,)], 1),
        ("D",),
        {"D": (1,)},
    )
    fan = ColoredFan(
        (
            cc([], 1),
            cc([(1,)], 1),
            cc([(1,)], 1, ["D"]),
            cc([(-1,)], 1),
        )
    )
    report = validate_colored_fan(datum, fan)
    assert not report.checks["F2"]
    assert any("F2" in r for r in report.reasons)


# plane cones on (1,0),(1,1) and on (1,0),(0,1), the first inside the second
NESTED = (cc([(1, 0), (1, 1)], 2), cc([(1, 0), (0, 1)], 2))


def test_nested_cones_stall_the_separating_walk(toric_plane):
    """The given cones ``NESTED``, both in V: no facet normal of either is
    <= 0 on the rays of the other, so the walk finds no separating
    inequality and stalls.  The closure then
    decides the pair by a double description and names the two F2 pairs of
    the full route, the inner cone and its ray (1,1) against the outer
    cone."""
    inner, outer = NESTED
    fan = fan_from_maximal_cones(toric_plane, NESTED)
    faces = [{f.cone._rays: f for f in fan._facts.faces[c.key()]} for c in (inner, outer)]
    assert _separating(inner.cone, outer.cone) is None
    assert _separating(outer.cone, inner.cone) is None
    assert _separated_meet(inner.cone, faces[0], outer.cone, faces[1]) is None
    report = _checked_fan(toric_plane, fan)[0]
    full = validate_colored_fan(toric_plane, fan)
    assert (report.checks, report.reasons) == (full.checks, full.reasons)
    assert len(report.reasons) == 2
    assert all(r.startswith("F2: ") for r in report.reasons)


def test_repeated_member_is_kept_once(toric_plane):
    quadrant = fan_from_maximal_cones(toric_plane, [cc([(1, 0), (0, 1)], 2)])
    fan = ColoredFan(quadrant.cones + (cc([(0, 1), (1, 0)], 2),))
    assert validate_colored_fan(toric_plane, fan).passed
    assert maximal_members(toric_plane, fan) == (quadrant.cones[-1],)
    assert is_quasiprojective(toric_plane, fan).verdict
    assert locate(toric_plane, fan, (1, 1)).key() == quadrant.cones[-1].key()
    assert fan.cones == quadrant.cones


def test_missing_origin_fails_f1_and_names_the_face(toric_line):
    fan = ColoredFan((cc([(1,)], 1),))
    report = validate_colored_fan(toric_line, fan)
    assert not report.checks["F1"]
    assert any("rays=[]" in r for r in report.reasons)


def test_f1_skips_a_member_that_fails_c1_to_c4(rank_one_datum):
    """F1 reads no faces of a member that failed C1-C4, whose colored faces
    would raise: its failures are reported once, under its own axioms."""
    forward = cc([(1,)], 1)
    with pytest.raises(InvalidColoredConeError):
        colored_faces(rank_one_datum, forward)
    origin, back = cc([], 1), cc([(-1,)], 1)
    report, faces = _validate_fan(rank_one_datum, ColoredFan((origin, back, forward)))
    assert set(faces) == {origin.key(), back.key()}
    assert report.checks["F1"]
    assert not report.checks["cone[2].C1"] and not report.checks["cone[2].C2"]
    assert all(r.startswith("cone[2]") for r in report.reasons)


def test_locate(toric_line, p1_fan, rank_one_datum):
    assert locate(toric_line, p1_fan, (3,)).key() == cc([(1,)], 1).key()
    assert locate(toric_line, p1_fan, (0,)).cone.is_zero
    rank_fan = fan_from_maximal_cones(rank_one_datum, [cc([(-1,)], 1)])
    assert locate(rank_one_datum, rank_fan, (-2,)).key() == cc([(-1,)], 1).key()
    with pytest.raises(ValueError):
        locate(rank_one_datum, rank_fan, (5,))
    # a miss on an incomplete fan is None, not an error
    half = fan_from_maximal_cones(toric_line, [cc([(1,)], 1)])
    assert locate(toric_line, half, (-3,)) is None


def test_locate_agrees_with_bruteforce_scan(toric_plane, p1xp1_fan):
    report = validate_colored_fan(toric_plane, p1xp1_fan)
    assert report.passed
    for x, y in product(range(-2, 3), repeat=2):
        hits = [m for m in p1xp1_fan if m.cone.in_relative_interior((x, y))]
        assert len(hits) <= 1
        found = locate(toric_plane, p1xp1_fan, (x, y))
        if hits:
            assert found.key() == hits[0].key()
        else:
            assert found is None


def test_colored_faces_are_closed(rank_one_datum, toric_plane):
    cases = [
        (rank_one_datum, cc([(-1,)], 1)),
        (toric_plane, cc([(1, 0), (1, 1)], 2)),
    ]
    for datum, cone in cases:
        faces = colored_faces(datum, cone)
        face_keys = {f.key() for f in faces}
        for f in faces:
            for g in colored_faces(datum, f):
                assert g.key() in face_keys


def test_simple_fan_from_single_cone_validates(rank_one_datum):
    fan = fan_from_maximal_cones(rank_one_datum, [cc([(-1,)], 1)])
    assert validate_colored_fan(rank_one_datum, fan).passed


def test_toric_specialization_recovers_classical_fan_axioms(toric_plane, p1xp1_fan):
    # with no colors and full valuation cone, F1/F2 validation must coincide
    # with the classical axioms, checked here via face/intersection calls
    assert validate_colored_fan(toric_plane, p1xp1_fan).passed
    cones = [m.cone for m in p1xp1_fan]
    for a in cones:
        for f in a.faces():
            assert any(f == c for c in cones)
    for a in cones:
        for b in cones:
            shared = a.intersect(b)
            assert shared.is_face_of(a) and shared.is_face_of(b)


def test_random_grid_relint_uniqueness(toric_plane):
    rng = random.Random(61)
    fan = fan_from_maximal_cones(
        toric_plane,
        [
            cc([(1, 0), (1, 2)], 2),
            cc([(1, 2), (-1, 1)], 2),
            cc([(-1, 1), (0, -1)], 2),
            cc([(0, -1), (1, 0)], 2),
        ],
    )
    assert validate_colored_fan(toric_plane, fan).passed
    for _ in range(40):
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        hits = [m for m in fan if m.cone.in_relative_interior(v)]
        assert len(hits) <= 1


def test_report_require_raises_reasons_or_fallback():
    report = ValidationReport(subject="x")
    report.record("A", True)
    assert report.require(ValueError, "fallback") is report
    report.record("B", False, "broken")
    report.record("C", False, "gone")
    with pytest.raises(ValueError) as info:
        report.require(ValueError, "fallback")
    assert str(info.value) == "B: broken; C: gone"
    silent = ValidationReport(subject="y")
    silent.record("D", False)
    with pytest.raises(ValueError) as info:
        silent.require(ValueError, "fallback")
    assert str(info.value) == "fallback"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda plane: SphericalDatum(1, cone_from_generators([(1,)], 1), ("D",), {"E": (1,)}),
            ValueError,
            "rho_tilde must be defined exactly on the color labels",
        ),
        (lambda plane: plane.rho("X"), UnknownColorError, "unknown color 'X'"),
        (
            lambda plane: relative_interior_meets(plane, cone_from_generators([(1,)], 1)),
            ValueError,
            "cone does not live in the ambient dimension",
        ),
        (
            lambda plane: validate_colored_cone(plane, cc([(1,)], 1)),
            ValueError,
            "colored cone does not live in the ambient dimension",
        ),
        (
            lambda plane: locate(plane, ColoredFan(NESTED), (2, 1)),
            InvalidFanError,
            "multiple cones hold the vector in their relative interior; fan violates F2",
        ),
    ],
    ids=["placements", "unknown-color", "relint-dimension", "cone-dimension", "locate-two-hits"],
)
def test_input_errors(toric_plane, call, error, message):
    with pytest.raises(error) as info:
        call(toric_plane)
    assert type(info.value) is error
    assert str(info.value) == message


def test_merge_carries_each_note_once():
    report = ValidationReport(subject="fan", notes=["shared"])
    sub = ValidationReport(subject="cone", notes=["shared", "own"])
    sub.record("C1", False, "broken")
    report.merge(sub, "cone[0]")
    report.merge(sub, "cone[1]")
    assert report.checks == {"cone[0].C1": False, "cone[1].C1": False}
    assert report.reasons == ["cone[0]: C1: broken", "cone[1]: C1: broken"]
    assert report.notes == ["shared", "own"]

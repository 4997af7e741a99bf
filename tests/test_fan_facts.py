"""The facts a closure-built fan carries, against full validation.

``fan_from_maximal_cones`` keeps the colored faces and given cones of its
closure on the fan, and ``colored._checked_fan`` reads the fan's report and
faces off them, testing only F2, from pairs of given cones.  Each input here
is decided both ways.
"""

import dataclasses
import random
from pathlib import Path

import pytest

from conftest import (
    TWISTED_CUBE_CONES,
    cube_pattern_cones,
    random_complete_2d_fan,
    random_unimodular,
    toric_datum,
)
from test_galois import KFORM_CASES, OCTANTS, P2_RAYS, SWAP, _cycle, _kform_case
from coloredfans import colored, cones, fileio
from coloredfans.colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    _checked_fan,
    _validate_fan,
    fan_from_maximal_cones,
)
from coloredfans.cones import cone_from_generators
from coloredfans.errors import InvalidFanError
from coloredfans.galois import GroupElement, action_from_generators, has_k_form, identity_element

FIXTURES = Path(__file__).parent / "fixtures"
# the datum each fan fixture is read against
FAN_FIXTURE_DATA = {
    "fan_a2_monoid.json": "datum_toric2.json",
    "fan_horo_p1.json": "datum_horo1.json",
    "fan_p1.json": "datum_p1.json",
    "fan_p1xp1.json": "datum_toric2.json",
    "fan_p2.json": "datum_toric2.json",
    "fan_quadrant.json": "datum_toric2.json",
    "fan_rank1_back.json": "datum_rank1.json",
    "fan_rank1_monoid_candidate.json": "datum_rank1.json",
    "fan_single_ray.json": "datum_toric2.json",
}


def _plain(datum, maximal):
    return [ColoredCone(cone_from_generators(rays, datum.dim), colors) for rays, colors in maximal]


def colored_plane():
    """The plane with the color D placed at (1, 1)."""
    return SphericalDatum(2, toric_datum(2).valuation_cone, ("D",), {"D": (1, 1)})


def overlapping_colored_fans():
    """Closure-built colored fans that fail F2: the quadrant beside the
    half-cone with D; the two half-cones sharing their ray with and without
    D; one half-cone given twice, with and without D; a ray given inside
    the quadrant; and the ray of D given without D beside the half-cone
    with D, of which it is a face."""
    datum = colored_plane()
    half = [(1, 0), (1, 1)]
    return [
        (datum, fan_from_maximal_cones(datum, _plain(datum, maximal)))
        for maximal in (
            [([(1, 0), (0, 1)], ()), (half, ("D",))],
            [(half, ("D",)), ([(1, 1), (0, 1)], ())],
            [(half, ("D",)), (half, ())],
            [([(1, 0), (0, 1)], ()), ([(1, 2)], ())],
            [(half, ("D",)), ([(1, 1)], ())],
        )
    ]


def lower_half_plane():
    """The plane with the lower half-plane as valuation cone, D placed at
    (0, 1) and E at (1, 2), both outside it."""
    valuation = cone_from_generators([(1, 0), (-1, 0), (0, -1)], 2)
    return SphericalDatum(2, valuation, ("D", "E"), {"D": (0, 1), "E": (1, 2)})


def same_route(datum, fan):
    """Assert that the facts give the full validation's report and faces."""
    assert fan._facts is not None and fan._facts.datum is datum
    assert fan._facts.faces.keys() == fan.member_keys()
    report, faces = _checked_fan(datum, fan)
    full, full_faces = _validate_fan(datum, fan)
    assert (report.subject, report.checks, report.reasons, report.notes) == (
        full.subject, full.checks, full.reasons, full.notes
    )
    assert list(faces.items()) == list(full_faces.items())
    return report.passed


def seeded_fans():
    rng = random.Random(1313)
    for case in KFORM_CASES:
        datum, fan, _ = _kform_case(case, random_unimodular(rng, case[1]))
        yield datum, fan
    # the benchmark's catalogue entries that the cases above leave out
    line = SphericalDatum(
        1, cone_from_generators([(1,), (-1,)], 1), ("D1", "D2"), {"D1": (1,), "D2": (1,)}
    )
    plane = toric_datum(2)
    octant = toric_datum(3)
    for datum, maximal in (
        (line, [([(1,)], ("D1",)), ([(-1,)], ())]),
        (plane, [([(1, 0)], ())]),
        (octant, [([(1, 0, 0), (0, 1, 0), (0, 0, 1)], ())]),
    ):
        yield datum, fan_from_maximal_cones(datum, _plain(datum, maximal))
    # a given cone that is a face of another, and one given twice; then the
    # face after its parent, so the closure meets it first as a derived face
    quadrant, ray = ([(1, 0), (0, 1)], ()), ([(1, 0)], ())
    yield plane, fan_from_maximal_cones(plane, _plain(plane, [ray, quadrant, ray, quadrant]))
    yield plane, fan_from_maximal_cones(plane, _plain(plane, [quadrant, ray]))
    # two cones whose relative interiors meet only above the valuation cone
    lower = lower_half_plane()
    maximal = [([(1, -1), (0, 1)], ("D",)), ([(-1, -1), (1, 2)], ("E",))]
    assert all(cone_from_generators(rays, 2).in_relative_interior((1, 3)) for rays, _ in maximal)
    yield lower, fan_from_maximal_cones(lower, _plain(lower, maximal))
    # the ray of D given with D, as the half-cone with D has it as a face
    with_d = colored_plane()
    maximal = [([(1, 0), (1, 1)], ("D",)), ([(1, 1)], ("D",))]
    yield with_d, fan_from_maximal_cones(with_d, _plain(with_d, maximal))
    for _ in range(20):
        yield plane, random_complete_2d_fan(rng, plane, max_rays=6)
    # the 64 patterns share their 24 triangles, built once
    triangles: dict = {}
    for pattern in range(64):
        maximal = [
            ColoredCone(triangles.get(c) or triangles.setdefault(c, cone_from_generators(c, 3)))
            for c in cube_pattern_cones(pattern)
        ]
        yield octant, fan_from_maximal_cones(octant, maximal)
    yield from overlapping_colored_fans()


def test_facts_route_matches_full_validation(monkeypatch):
    # relint LPs are a function of their cones, and the 64 cube patterns pose
    # about 1600 distinct ones: each is solved once, for both routes
    real, solved = colored.relative_interior_meets, {}

    def meets(datum, *cones):
        key = (id(datum), cones)
        if key not in solved:
            # the datum is kept with its answers, so that its id is not reused
            solved[key] = (datum, real(datum, *cones))
        return solved[key][1]

    monkeypatch.setattr(colored, "relative_interior_meets", meets)
    verdicts = [same_route(datum, fan) for datum, fan in seeded_fans()]
    assert len(verdicts) == len(KFORM_CASES) + 7 + 20 + 64 + 5
    assert verdicts[-5:] == [False] * 5 and all(verdicts[:-5])


def test_facts_route_matches_full_validation_on_fixtures():
    assert sorted(FAN_FIXTURE_DATA) == sorted(p.name for p in FIXTURES.glob("fan_*.json"))
    for fan_name, datum_name in FAN_FIXTURE_DATA.items():
        datum = fileio.parse_datum(fileio.load_json(FIXTURES / datum_name))
        raw = fileio.parse_fan(fileio.load_json(FIXTURES / fan_name), datum)
        fan, report = fileio.validated_fan(datum, raw)
        if fan is None:
            assert not report.passed
            continue
        assert same_route(datum, fan) == report.passed
        assert report == _validate_fan(datum, fan)[0]


def test_closure_names_its_given_and_maximal_cones_and_overlaps():
    plane = toric_datum(2)
    quadrant, ray, left = ([(1, 0), (0, 1)], ()), ([(1, 0)], ()), ([(0, 1), (-1, 0)], ())
    keys = [cc.key() for cc in _plain(plane, [ray, quadrant, left])]
    # the ray, a face of the quadrant, and the quadrant are each given twice
    given = _plain(plane, [ray, quadrant, ray, quadrant, left])
    closure = colored._face_closure(plane, given, {})
    assert [cc.key() for cc in closure.given] == keys
    assert [cc.key() for cc in closure.maximal()] == [keys[2], keys[1]]  # member order
    assert list(closure.overlaps()) == []
    # F2 fails: the pairs are those of the all-pairs LP test
    for datum, fan in overlapping_colored_fans():
        pairs = list(fan._facts.overlaps())
        assert pairs and pairs == list(colored._overlapping_pairs(datum, fan.cones))


def test_closure_walks_face_lattices_with_no_double_description_cut(monkeypatch):
    """On the twisted cube, whose cones lie in V, the whole space, the
    closure runs no double description and no LP: C1-C4 take dot products
    with K = C, each face lattice is read off the facet-ray incidences, and
    the double description cuts of ``Cone.faces`` never run."""
    octant = toric_datum(3)
    maximal = [ColoredCone(cone_from_generators(triple, 3)) for triple in TWISTED_CUBE_CONES]
    dd_calls, cut_loops, lps = [], [], []
    real_dd, real_faces, real_lp = cones._dd, cones.Cone.faces, colored.lp_feasible

    def counting_dd(rows, dim):
        dd_calls.append(dim)
        return real_dd(rows, dim)

    def watched_faces(self):
        if self._faces is None:
            cut_loops.append(self)
        return real_faces(self)

    def counting_lp(lp):
        lps.append(lp)
        return real_lp(lp)

    for module in (cones, colored):
        monkeypatch.setattr(module, "_dd", counting_dd)
    monkeypatch.setattr(cones.Cone, "faces", watched_faces)
    monkeypatch.setattr(colored, "lp_feasible", counting_lp)
    fan = fan_from_maximal_cones(octant, maximal)
    assert len(fan) == 12 + 18 + 8 + 1
    assert dd_calls == [] and cut_loops == [] and lps == []


def test_overlaps_of_cones_in_v_run_no_double_description(monkeypatch):
    """The separating-facet walk finds the meet of every pair of given cones
    with no double description: on each seeded fan whose given cones lie in
    V and pass F2 (the kform catalogue under base changes, the benchmark's
    other catalogue entries, random plane fans and the 64 cube patterns) and
    on each loadable fixture fan whose given cones lie in V.  A closure of
    one given cone looks up no face for it."""
    closures = [(datum, fan._facts) for datum, fan in seeded_fans()]
    for fan_name, datum_name in FAN_FIXTURE_DATA.items():
        datum = fileio.parse_datum(fileio.load_json(FIXTURES / datum_name))
        fan, _ = fileio.validated_fan(
            datum, fileio.parse_fan(fileio.load_json(FIXTURES / fan_name), datum)
        )
        if fan is not None:
            closures.append((datum, fan._facts))
    calls = []

    def counting(name, real):
        return lambda *args: calls.append(name) or real(*args)

    monkeypatch.setattr(colored, "_dd", counting("dd", colored._dd))
    monkeypatch.setattr(colored, "_in_valuation_cone", counting("in_v", colored._in_valuation_cone))
    walked = single = 0
    for datum, closure in closures:
        if not all(colored._in_valuation_cone(datum, cc.cone) for cc in closure.given):
            continue
        calls.clear()
        if next(closure.overlaps(), None) is None:
            assert "dd" not in calls
            walked += 1
            single += len(closure.given) == 1 and calls == []
    assert walked == len(KFORM_CASES) + 6 + 20 + 64 + 8 and single == 3 + 4


def test_closure_builds_each_shared_face_once(monkeypatch):
    """A face that two given cones share is one ``Cone``, built once: the
    closure of the octant fan builds its 19 proper faces, not 8 times 7,
    and that of P2 its 4, not 3 times 3.  Each face has the fields that a
    double description of its rays gives."""
    built = []
    real_init = cones.Cone.__init__

    def counting_init(self, *args):
        built.append(self)
        real_init(self, *args)

    space, plane = toric_datum(3), toric_datum(2)
    cases = [
        (space, _plain(space, [(rays, ()) for rays in OCTANTS]), 19),
        (plane, _plain(plane, [(rays, ()) for rays in _cycle(P2_RAYS)]), 4),
    ]
    for datum, given, proper in cases:
        monkeypatch.setattr(cones.Cone, "__init__", counting_init)
        built.clear()
        closure = colored._face_closure(datum, given, {})
        monkeypatch.undo()
        assert len(built) == proper and len(closure.members) == proper + len(given)
        assert {cc.cone for cc in closure.members} == set(built) | {cc.cone for cc in given}
        faces = {}
        for cc in given:
            for face in cc.cone.faces():
                assert faces.setdefault(face, face) is face
        for face in built:
            fresh = cones.cone_from_generators(face._rays, datum.dim)
            assert (face._facets, face._span_eq) == (fresh._facets, fresh._span_eq)


def test_failing_fan_raises_the_same_error_on_both_routes():
    for datum, fan in overlapping_colored_fans():
        action = action_from_generators(datum, [identity_element(2, datum.colors)])
        messages = []
        for route in (fan, ColoredFan(fan.cones)):
            with pytest.raises(InvalidFanError) as caught:
                has_k_form(datum, action, route, check=True)
            messages.append(str(caught.value))
        assert messages[0] == messages[1] and messages[0].startswith("F2: ")


def count_full_validations(monkeypatch):
    calls = []
    real = colored._validate_fan

    def counting(datum, fan):
        calls.append(fan)
        return real(datum, fan)

    monkeypatch.setattr(colored, "_validate_fan", counting)
    return calls


def test_facts_do_not_outlive_their_fan_or_datum(monkeypatch, toric_plane, p2_fan):
    plain = ColoredFan(p2_fan.cones)
    replaced = dataclasses.replace(p2_fan, cones=p2_fan.cones)
    assert plain._facts is None and replaced._facts is None
    assert p2_fan == plain == replaced and hash(p2_fan) == hash(plain)
    assert repr(p2_fan) == repr(plain)
    other = toric_datum(2)
    assert other == toric_plane and other is not toric_plane

    calls = count_full_validations(monkeypatch)
    s3 = action_from_generators(
        toric_plane, [GroupElement.make([[0, -1], [1, -1]]), GroupElement.make(SWAP)]
    )
    assert has_k_form(toric_plane, s3, p2_fan).verdict
    assert calls == []
    assert has_k_form(toric_plane, s3, replaced).verdict
    assert has_k_form(other, s3, p2_fan).verdict
    assert calls == [replaced, p2_fan]


def test_unchecked_k_form_takes_faces_from_facts_and_still_tests_overlap(
    monkeypatch, toric_plane, p2_fan
):
    counts = {"faces": 0, "relint": 0, "pairs": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(colored, "colored_faces", counting("faces", colored.colored_faces))
    monkeypatch.setattr(
        colored, "relative_interior_meets", counting("relint", colored.relative_interior_meets)
    )
    monkeypatch.setattr(
        colored._Closure, "overlaps", counting("pairs", colored._Closure.overlaps)
    )
    s3 = action_from_generators(
        toric_plane, [GroupElement.make([[0, -1], [1, -1]]), GroupElement.make(SWAP)]
    )
    # the orbit is still tested for overlaps, from its pairs of cones and with
    # no LP
    closed = has_k_form(toric_plane, s3, p2_fan, check=False)
    assert counts == {"faces": 0, "relint": 0, "pairs": 1}
    assert closed == has_k_form(toric_plane, s3, ColoredFan(p2_fan.cones), check=False)

    # a wide cone beside its mirror image: invariant, and the orbit overlaps
    datum = toric_plane
    wide = fan_from_maximal_cones(
        datum, _plain(datum, [([(1, 0), (1, 2)], ()), ([(0, 1), (2, 1)], ())])
    )
    swap = action_from_generators(datum, [GroupElement.make(SWAP)])
    counts.update(relint=0, pairs=0)
    result = has_k_form(datum, swap, wide, check=False)
    # the overlap is found and named, still with no LP
    assert result.invariant and not result.orbits_quasiprojective
    assert "overlap" in result.reasons[0]
    assert counts["pairs"] == 1 and counts["relint"] == 0
    assert result == has_k_form(datum, swap, ColoredFan(wide.cones), check=False)

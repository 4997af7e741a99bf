import json
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path
from time import perf_counter

import pytest

from conftest import cube_pattern_cones, random_unimodular, toric_datum
from reference_exact import reference_invert
from reference_kform import (
    reference_has_k_form,
    reference_invariance_offender,
    reference_orbit_subfan,
)
from coloredfans import colored, galois, quasiproj
from coloredfans.colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    fan_from_maximal_cones,
    member_sort_key,
)
from coloredfans.cones import cone_from_generators
from coloredfans.cli import main, run_command
from coloredfans.errors import ClosureCapError, InvalidFanError, SemanticError
from coloredfans.fileio import serialize_action, serialize_datum, serialize_fan
from coloredfans.galois import (
    PERFECT_FIELD_NOTE,
    GroupAction,
    GroupElement,
    _order_exponent,
    action_from_generators,
    apply_element,
    has_k_form,
    identity_element,
    is_fan_invariant,
    validate_action,
)
from coloredfans.monoid import monoid_has_k_form
from coloredfans.linalg import identity, mat, matmul, matvec
from coloredfans.linprog import fourier_motzkin, lp_feasible
from coloredfans.quasiproj import (
    _support_lp,
    _valuation_parts,
    build_support_lp,
    is_quasiprojective,
    maximal_members,
)


def swap_action(datum):
    return action_from_generators(datum, [GroupElement.make([[0, 1], [1, 0]])])


def test_identity_action_is_valid(toric_plane):
    action = action_from_generators(toric_plane, [])
    report = validate_action(toric_plane, action)
    assert report.passed
    assert "group order 1" in report.notes


def test_swap_action_order_two(toric_plane):
    action = swap_action(toric_plane)
    report = validate_action(toric_plane, action)
    assert report.passed
    assert "group order 2" in report.notes


def test_rank_one_color_swap(rank_one_datum):
    g = GroupElement.make([[1]], {"D+": "D-", "D-": "D+"})
    action = action_from_generators(rank_one_datum, [g])
    report = validate_action(rank_one_datum, action)
    assert report.passed
    assert "group order 2" in report.notes


def test_non_lattice_matrix_rejected(toric_plane):
    g = GroupElement.make([[1, 0], [0, 0]])
    report = validate_action(toric_plane, action_from_generators(toric_plane, [g]))
    assert not report.passed
    assert not report.checks["generator[0].lattice_automorphism"]


def test_inequivariant_color_permutation_rejected():
    datum = SphericalDatum(
        1,
        cone_from_generators([(1,), (-1,)], 1),
        ("A", "B"),
        {"A": (1,), "B": (2,)},
    )
    g = GroupElement.make([[1]], {"A": "B", "B": "A"})
    report = validate_action(datum, action_from_generators(datum, [g]))
    assert not report.checks["generator[0].equivariance"]


def test_valuation_stability_checked():
    datum = SphericalDatum(1, cone_from_generators([(-1,)], 1))
    g = GroupElement.make([[-1]])
    report = validate_action(datum, action_from_generators(datum, [g]))
    assert not report.checks["generator[0].valuation_stable"]


def _one_color_line():
    # the color sits at the origin, so -1 keeps it in place
    return SphericalDatum(1, cone_from_generators([(1,), (-1,)], 1), ("D",), {"D": (0,)})


def test_generator_that_leaves_a_color_out_fixes_it():
    datum = _one_color_line()
    report = validate_action(datum, action_from_generators(datum, [GroupElement.make([[-1]])]))
    assert report.passed
    assert report.checks["generator[0].color_permutation"]
    assert report.checks["generator[0].equivariance"]
    assert "group order 2" in report.notes


@pytest.mark.parametrize("perm", [{"X": "D"}, {"D": "X"}, {"D": "D", "X": "X"}])
def test_generator_naming_an_unknown_color_fails(perm):
    datum = _one_color_line()
    g = GroupElement.make([[-1]], perm)
    report = validate_action(datum, action_from_generators(datum, [g]))
    assert not report.checks["generator[0].color_permutation"]
    assert "color permutation is not a bijection of the datum's colors" in report.reasons[0]
    assert not report.checks["closure"]


def test_closure_is_a_group(toric_plane):
    rot = GroupElement.make([[0, -1], [1, 0]])
    action = action_from_generators(toric_plane, [rot])
    elements = action.elements()
    assert len(elements) == 4
    assert identity_element(2) in elements
    table = set(elements)
    for g in elements:
        assert all(g.compose(h) in table for h in elements)
        assert any(g.compose(h) == identity_element(2) for h in elements)


def test_closure_spells_each_element_once():
    # the generator leaves the fixed color out of its permutation, which the
    # identity and every product spell out
    flip = GroupAction(1, ("D",), (GroupElement.make([[-1]]),))
    elements = flip.elements()
    assert len(elements) == 2
    assert set(elements) == {identity_element(1, ("D",)), GroupElement.make([[-1]], {"D": "D"})}


def test_closure_cap(monkeypatch, toric_plane):
    shear = GroupElement.make([[1, 1], [0, 1]])
    action = action_from_generators(toric_plane, [shear])
    with pytest.raises(ClosureCapError):
        action.elements()
    # a finite group larger than the cap fails while it is being closed
    monkeypatch.setattr(galois, "CLOSURE_CAP", 3)
    rotation = action_from_generators(toric_plane, [GroupElement.make([[0, -1], [1, 0]])])
    with pytest.raises(ClosureCapError, match="cap of 3 elements"):
        rotation.elements()
    monkeypatch.setattr(galois, "CLOSURE_CAP", 4)
    assert len(rotation.elements()) == 4


def test_fan_invariance_examples(toric_plane, p1xp1_fan):
    action = swap_action(toric_plane)
    assert is_fan_invariant(toric_plane, action, p1xp1_fan)
    quadrant_fan = fan_from_maximal_cones(
        toric_plane, [ColoredCone(cone_from_generators([(1, 0), (0, 1)], 2))]
    )
    assert is_fan_invariant(toric_plane, action, quadrant_fan)
    ray_fan = fan_from_maximal_cones(
        toric_plane, [ColoredCone(cone_from_generators([(1, 0)], 2))]
    )
    assert not is_fan_invariant(toric_plane, action, ray_fan)


def test_invariance_independent_of_generating_set(toric_plane, p1xp1_fan):
    swap = GroupElement.make([[0, 1], [1, 0]])
    redundant = action_from_generators(
        toric_plane, [swap, swap.compose(swap), identity_element(2)]
    )
    plain = action_from_generators(toric_plane, [swap])
    assert set(redundant.elements()) == set(plain.elements())
    ray_fan = fan_from_maximal_cones(
        toric_plane, [ColoredCone(cone_from_generators([(1, 0)], 2))]
    )
    for fan in (p1xp1_fan, ray_fan):
        assert is_fan_invariant(toric_plane, plain, fan) == is_fan_invariant(
            toric_plane, redundant, fan
        )


def test_k_form_examples(toric_plane, p1xp1_fan):
    action = swap_action(toric_plane)
    assert has_k_form(toric_plane, action, p1xp1_fan).verdict
    ray_fan = fan_from_maximal_cones(
        toric_plane, [ColoredCone(cone_from_generators([(1, 0)], 2))]
    )
    result = has_k_form(toric_plane, action, ray_fan)
    assert not result.verdict
    assert not result.invariant
    assert any(r.startswith("(a)") for r in result.reasons)


def test_k_form_orbit_overlap_reported(toric_plane):
    # a swap-invariant member list whose two top cones overlap: F2 fails, so
    # this can only be fed through the unchecked path, where the overlap is
    # detected while building the orbit fan and reported as a (b) failure
    from coloredfans.colored import ColoredFan

    action = swap_action(toric_plane)
    members = [
        ColoredCone(cone_from_generators(g, 2))
        for g in (
            [],
            [(1, 0)],
            [(0, 1)],
            [(1, 2)],
            [(2, 1)],
            [(1, 0), (1, 2)],
            [(0, 1), (2, 1)],
        )
    ]
    overlapping = ColoredFan(tuple(members))
    assert is_fan_invariant(toric_plane, action, overlapping)
    result = has_k_form(toric_plane, action, overlapping, check=False)
    assert not result.verdict
    assert any(r.startswith("(b)") for r in result.reasons)


def test_identity_action_reduces_to_simple_subfan_checks(toric_plane, p2_fan, p1xp1_fan):
    ident = action_from_generators(toric_plane, [])
    for fan in (p2_fan, p1xp1_fan):
        result = has_k_form(toric_plane, ident, fan)
        assert result.verdict
        for member in fan:
            simple = fan_from_maximal_cones(toric_plane, [member])
            assert is_quasiprojective(toric_plane, simple, check=False).verdict


def test_color_permutation_alone_can_break_invariance():
    # two colors at the same placement: the matrix fixes every cone, yet the
    # color swap moves the colored member, so invariance fails through the
    # color bookkeeping and not through the geometry
    datum = SphericalDatum(
        1,
        cone_from_generators([(1,), (-1,)], 1),
        ("D1", "D2"),
        {"D1": (1,), "D2": (1,)},
    )
    swap = GroupElement.make([[1]], {"D1": "D2", "D2": "D1"})
    action = action_from_generators(datum, [swap])
    assert validate_action(datum, action).passed
    colored_member = ColoredCone(cone_from_generators([(1,)], 1), frozenset(["D1"]))
    fan = fan_from_maximal_cones(
        datum, [colored_member, ColoredCone(cone_from_generators([(-1,)], 1))]
    )
    assert not is_fan_invariant(datum, action, fan)
    result = has_k_form(datum, action, fan)
    assert not result.verdict and any("D1" in r for r in result.reasons)
    # carrying both colors restores invariance
    both = ColoredCone(cone_from_generators([(1,)], 1), frozenset(["D1", "D2"]))
    fan_both = fan_from_maximal_cones(
        datum, [both, ColoredCone(cone_from_generators([(-1,)], 1))]
    )
    assert has_k_form(datum, action, fan_both).verdict


def test_conjugation_covariance(toric_plane, p1xp1_fan):
    rng = random.Random(321)
    swap = GroupElement.make([[0, 1], [1, 0]])
    ray_fan = fan_from_maximal_cones(
        toric_plane, [ColoredCone(cone_from_generators([(1, 0)], 2))]
    )
    for base_fan, expected in ((p1xp1_fan, True), (ray_fan, False)):
        for _ in range(3):
            a = random_unimodular(rng, 2)
            a_inv = reference_invert(a)
            moved_datum = SphericalDatum(2, toric_plane.valuation_cone.image(a))
            conj = GroupElement.make(matmul(a, matmul(swap.matrix, a_inv)))
            moved_action = action_from_generators(moved_datum, [conj])
            moved_fan = fan_from_maximal_cones(
                moved_datum,
                [
                    ColoredCone(m.cone.image(a), m.colors)
                    for m in maximal_members(toric_plane, base_fan)
                ],
            )
            assert validate_action(moved_datum, moved_action).passed
            result = has_k_form(moved_datum, moved_action, moved_fan)
            assert result.verdict == expected


# -- the lookup route against the rebuilding reference ----------------------

SWAP = [[0, 1], [1, 0]]
P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
SQUARE_RAYS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
HEXAGON_RAYS = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
OCTANTS = [
    [(x, 0, 0), (0, y, 0), (0, 0, z)] for x in (1, -1) for y in (1, -1) for z in (1, -1)
]
CYCLE3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
SWAP_XY = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
QUARTER_XY = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
INVERSION3 = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]


def _cycle(rays):
    return [[a, b] for a, b in zip(rays, rays[1:] + rays[:1])]


# (name, dim, colors, maximal cones as (rays, colors), generators as
#  (matrix, color permutation), group order); toric cases use the whole space.
KFORM_CASES = (
    ("p2_s3", 2, (), [(c, ()) for c in _cycle(P2_RAYS)],
     [([[0, -1], [1, -1]], {}), (SWAP, {})], 6),
    ("p1xp1_d4", 2, (), [(c, ()) for c in _cycle(SQUARE_RAYS)],
     [([[0, -1], [1, 0]], {}), (SWAP, {})], 8),
    ("hexagon_d6", 2, (), [(c, ()) for c in _cycle(HEXAGON_RAYS)],
     [([[1, -1], [1, 0]], {}), (SWAP, {})], 12),
    ("rank1_color_swap", 1, ("D+", "D-"), [([(-1,)], ())],
     [([[1]], {"D+": "D-", "D-": "D+"})], 2),
    ("octant_inversion", 3, (), [(c, ()) for c in OCTANTS], [(INVERSION3, {})], 2),
    ("octant_s3", 3, (), [(c, ()) for c in OCTANTS], [(CYCLE3, {}), (SWAP_XY, {})], 6),
    ("octant_d4", 3, (), [(c, ()) for c in OCTANTS], [(QUARTER_XY, {}), (SWAP_XY, {})], 8),
)


def _kform_case(case, a):
    """The case's datum, fan and action moved by the unimodular matrix ``a``."""
    name, dim, colors, cones, gens, _ = case
    a_inv = reference_invert(a)
    if colors:
        valuation = cone_from_generators([matvec(a, (-1,))], 1)
        datum = SphericalDatum(1, valuation, colors, {c: matvec(a, (1,)) for c in colors})
    else:
        datum = toric_datum(dim)
    fan = fan_from_maximal_cones(
        datum,
        [
            ColoredCone(cone_from_generators([matvec(a, r) for r in rays], dim), cc)
            for rays, cc in cones
        ],
    )
    action = action_from_generators(
        datum,
        [GroupElement.make(matmul(a, matmul(m, a_inv)), perm) for m, perm in gens],
    )
    return datum, fan, action


def _outcome(call):
    try:
        return repr(call())
    except Exception as exc:  # the exception is the outcome being compared
        return (type(exc).__name__, str(exc))


def _compare_with_reference(datum, action, fan, check, orbits=None, images=None):
    """``orbits`` and ``images`` memoize the reference's orbit fans and images
    for one datum and action."""
    got = _outcome(lambda: has_k_form(datum, action, fan, check=check))
    assert got == _outcome(
        lambda: reference_has_k_form(datum, action, fan, check, orbits, images)
    )
    return got


def test_k_form_matches_rebuilding_reference():
    rng = random.Random(606)
    outcomes = set()
    for case in KFORM_CASES:
        for _ in range(2 if case[1] < 3 else 1):
            datum, fan, action = _kform_case(case, random_unimodular(rng, case[1]))
            orbits: dict = {}
            for check in (True, False):
                assert _compare_with_reference(datum, action, fan, check, orbits).endswith(
                    "verdict=True, invariant=True, orbits_quasiprojective=True, "
                    "reasons=(), notes=('" + PERFECT_FIELD_NOTE + "',))"
                )
            for cc in fan:
                # the support LP that has_k_form poses on the images is the
                # one of the rebuilt orbit fan
                orbit = reference_orbit_subfan(datum, action, cc, orbits)
                images = sorted(
                    {apply_element(g, cc) for g in action.elements()}, key=member_sort_key
                )
                assert _support_lp(
                    datum, images, _valuation_parts(datum, images)
                ) == build_support_lp(datum, orbit, check=False)
            for i in range(len(fan)):
                sub = ColoredFan(fan.cones[:i] + fan.cones[i + 1:])
                outcomes.add(_compare_with_reference(datum, action, sub, False, orbits))
    # the sub-fans reach the (a) failure and, with the origin removed, a verdict
    assert any("invariant=False" in o for o in outcomes)
    assert any("verdict=True" in o for o in outcomes)


def test_orbit_support_rows_match_the_all_pairs_lp(routes):
    """Row generation against the all-pairs LP on the orbit fan of every
    member in every case, each case moved by a seeded base change: the
    orbit fans of the invariant kform_orbits entries."""
    rng = random.Random(607)
    verdicts = []
    for case in KFORM_CASES:
        datum, fan, action = _kform_case(case, random_unimodular(rng, case[1]))
        for cc in fan:
            images = [apply_element(g, cc) for g in action.elements()]
            closure = colored._face_closure(datum, images, {})
            verdicts.append(routes(datum, closure.maximal())[0])
    assert len(verdicts) == 7 + 9 + 13 + 2 + 3 * 27 and all(verdicts)


def test_overlapping_orbit_matches_reference(toric_plane):
    action = swap_action(toric_plane)
    overlapping = ColoredFan(tuple(
        ColoredCone(cone_from_generators(g, 2))
        for g in ([], [(1, 0)], [(0, 1)], [(1, 2)], [(2, 1)], [(1, 0), (1, 2)], [(0, 1), (2, 1)])
    ))
    for check in (True, False):
        _compare_with_reference(toric_plane, action, overlapping, check)
    for i in range(len(overlapping)):
        sub = ColoredFan(overlapping.cones[:i] + overlapping.cones[i + 1:])
        _compare_with_reference(toric_plane, action, sub, False)


def test_orbit_fan_that_is_not_quasiprojective(monkeypatch, tmp_path, capsys, routes):
    """Refusal (b) on a valid, invariant fan: the cyclic orbit of one cone in
    the toric 3-space gives three cones meeting only at the origin, whose
    support LP has no solution."""
    datum = toric_datum(3)
    rotation = GroupElement.make([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    action = action_from_generators(datum, [rotation])
    cc = ColoredCone(cone_from_generators([(-2, -1, -1), (2, 1, -1), (-2, 1, -1)], 3))
    orbit = [cc, apply_element(rotation, cc), apply_element(rotation, apply_element(rotation, cc))]
    fan = fan_from_maximal_cones(datum, orbit)
    assert len(fan.cones) == 22
    assert "group order 3" in validate_action(datum, action).notes
    lp = _support_lp(datum, orbit, _valuation_parts(datum, orbit))
    assert (lp.num_vars, len(lp.ineq_constraints) + len(lp.eq_constraints)) == (9, 24)
    assert lp_feasible(lp) is None and not fourier_motzkin(lp, max_vars=lp.num_vars)
    # no two cones share a wall, so row generation solves the full LP at once
    assert routes(datum, orbit) == (False, [24])
    # over one form, with a trivial stabilizer: one block of 4 rows per other cone
    shapes = _lp_shapes(monkeypatch, galois)
    assert not has_k_form(datum, action, fan, check=True).verdict
    assert shapes == [(3, 0, 8)]
    assert _orbit_forms_agree(datum, action, fan, fan._facts.maximal()) == [False]
    refusal = (
        "(b) the orbit fan of (cone rays=[(-2,-1,-1), (-2,1,-1), (2,1,-1)]; colors=[]) "
        "is not quasiprojective",
    )
    for check in (True, False):
        result = has_k_form(datum, action, fan, check=check)
        assert (result.verdict, result.invariant, result.orbits_quasiprojective) == (
            False, True, False
        )
        assert result.reasons == refusal
        assert reference_has_k_form(datum, action, fan, check) == result

    paths = {}
    for name, text in (
        ("datum", serialize_datum(datum)),
        ("fan", serialize_fan(datum, fan)),
        ("action", serialize_action(action)),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    files = ["--datum", str(paths["datum"]), "--fan", str(paths["fan"])]
    assert main(["kform", *files, "--action", str(paths["action"])]) == 1
    assert "  orbit_fans_quasiprojective: FAIL" in capsys.readouterr().out.splitlines()
    assert main(["quasiproj", *files]) == 1


def test_k_form_reads_faces_from_validation(monkeypatch, toric_plane, p2_fan):
    real_faces, real_validate = colored.colored_faces, colored._validate_fan
    calls = []
    cone_checks = []
    inside = []

    def counting_faces(datum, cc):
        calls.append((cc.key(), bool(inside)))
        return real_faces(datum, cc)

    def counting_cone_check(real):
        def wrapper(datum, cc):
            cone_checks.append(cc.key())
            return real(datum, cc)

        return wrapper

    def flagged_validate(datum, fan):
        inside.append(True)
        try:
            return real_validate(datum, fan)
        finally:
            inside.pop()

    for module in (colored, quasiproj):
        monkeypatch.setattr(module, "colored_faces", counting_faces)
    # both C1-C4 checks, the LP route's and the closure's
    for name in ("validate_colored_cone", "_closure_axioms"):
        monkeypatch.setattr(colored, name, counting_cone_check(getattr(colored, name)))
    monkeypatch.setattr(colored, "_validate_fan", flagged_validate)
    s3 = action_from_generators(
        toric_plane,
        [GroupElement.make([[0, -1], [1, -1]]), GroupElement.make(SWAP)],
    )
    # a fan built member by member is validated in full, once, and the orbit
    # fans read the faces that its validation computed
    assert has_k_form(toric_plane, s3, ColoredFan(p2_fan.cones), check=True).verdict
    assert Counter(key for key, _ in calls) == Counter(p2_fan.member_keys())
    assert all(in_validation for _, in_validation in calls)
    # the closure-built fan carries its faces: no face pass and no cone check
    calls.clear()
    cone_checks.clear()
    assert has_k_form(toric_plane, s3, p2_fan, check=True).verdict
    assert calls == [] and cone_checks == []


def test_infinite_order_generator_fails_before_closing():
    assert [_order_exponent(n) for n in range(1, 10)] == [
        2, 12, 12, 120, 120, 2520, 2520, 5040, 5040
    ]
    shear3 = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    for m in ([[1, 1], [0, 1]], [[2, 1], [1, 1]], shear3):
        action = GroupAction(len(m), (), (GroupElement.make(m),))
        start = perf_counter()
        with pytest.raises(ClosureCapError) as caught:
            action.elements()
        assert perf_counter() - start < 0.1
        assert str(caught.value) == "group closure exceeded the cap of 100000 elements"
    # finite groups keep their orders, singular generators are closed as before
    for case in KFORM_CASES:
        datum, _, action = _kform_case(case, identity(case[1]))
        assert len(action.elements()) == case[5]
    projection = GroupAction(2, (), (GroupElement.make([[1, 0], [0, 0]]),))
    assert len(projection.elements()) == 2
    datum3 = toric_datum(3)
    report = validate_action(datum3, action_from_generators(datum3, [GroupElement.make(shear3)]))
    assert repr(report) == (
        "ValidationReport(subject='group action with 1 generators', checks={"
        "'generator[0].lattice_automorphism': True, 'generator[0].color_permutation': True, "
        "'generator[0].equivariance': True, 'generator[0].valuation_stable': True, "
        "'closure': False}, reasons=['closure: group closure exceeded the cap of 100000 "
        "elements'], notes=[])"
    )


def test_infinite_group_of_involutions_fails_fast():
    """Two generators of order 2 pass the order check, yet their product has
    infinite order for k >= 2: the closure stops at the first two elements
    that agree mod 3, with the report the element cap gave."""
    swap3 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    cases = [(2, [SWAP, [[1, 0], [k, -1]]]) for k in (2, 3, 30)]
    cases.append((3, [swap3, [[1, 0, 0], [3, -1, 0], [0, 0, 1]]]))
    checks = ", ".join(
        f"'generator[{i}].{check}': True"
        for i in range(2)
        for check in ("lattice_automorphism", "color_permutation", "equivariance", "valuation_stable")
    )
    for dim, matrices in cases:
        datum = toric_datum(dim)
        action = action_from_generators(datum, [GroupElement.make(m) for m in matrices])
        start = perf_counter()
        report = validate_action(datum, action)
        assert perf_counter() - start < 0.1
        assert repr(report) == (
            f"ValidationReport(subject='group action with 2 generators', checks={{{checks}, "
            "'closure': False}, reasons=['closure: group closure exceeded the cap of 100000 "
            "elements'], notes=[])"
        )


# -- integer group elements ---------------------------------------------------


def reference_elements(action):
    """The closure as ``GroupAction.elements`` builds it, over ``Fraction``
    matrices multiplied by ``linalg.matmul``."""

    def compose(g, h):
        perm = dict(g.color_perm)
        combined = {c: perm.get(v, v) for c, v in h.color_perm}
        for c, v in perm.items():
            combined.setdefault(c, v)
        return GroupElement(matmul(g.matrix, h.matrix), tuple(sorted(combined.items())))

    ident = GroupElement(mat(identity(action.dim)), tuple((c, c) for c in sorted(action.colors)))
    generators = [
        compose(ident, GroupElement(mat(g.matrix), g.color_perm)) for g in action.generators
    ]
    seen = {ident: None}
    frontier = [ident]
    for g in generators:
        if g not in seen:
            seen[g] = None
            frontier.append(g)
    while frontier:
        new_frontier = []
        for g in generators:
            for h in frontier:
                gh = compose(g, h)
                if gh not in seen:
                    seen[gh] = None
                    new_frontier.append(gh)
        frontier = new_frontier
    return list(seen)


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * x * det([r[:j] + r[j + 1:] for r in m[1:]]) for j, x in enumerate(m[0]))


# finite matrix groups by generators, orders 2 to 8
FINITE_GROUPS = (
    [[[-1]]],
    [SWAP],
    [[[0, -1], [1, 0]]],
    [[[0, -1], [1, -1]]],
    [[[1, -1], [1, 0]]],
    [[[0, -1], [1, -1]], SWAP],
    [[[0, -1], [1, 0]], SWAP],
    [INVERSION3],
    [CYCLE3],
    [QUARTER_XY],
    [CYCLE3, SWAP_XY],
    [QUARTER_XY, SWAP_XY],
    [SWAP_XY, INVERSION3],
)


def test_integer_closure_matches_fraction_closure():
    """Seeded base changes of finite groups with color permutations: the
    integer closure lists the elements of the Fraction one in the same order.

    A generator of determinant -1 swaps the colors A and B and one of
    determinant 1 fixes them, so the permutations follow the matrices and the
    order stays that of the matrix group; every generator leaves the color C
    out, and some leave out all colors."""
    rng = random.Random(1201)
    orders = Counter()
    for trial in range(60):
        gens = FINITE_GROUPS[trial % len(FINITE_GROUPS)]
        dim = len(gens[0])
        a = random_unimodular(rng, dim)
        a_inv = reference_invert(a)
        elements = []
        for m in gens:
            conj = matmul(a, matmul(mat(m), a_inv))
            perm = {"A": "B", "B": "A"} if det(m) < 0 else rng.choice([{}, {"A": "A"}])
            elements.append(GroupElement.make(conj, perm))
        action = GroupAction(dim, ("A", "B", "C"), tuple(elements))
        got = action.elements()
        expected = reference_elements(action)
        assert list(got) == expected
        assert [hash(g) for g in got] == [hash(g) for g in expected]
        assert all(type(x) is int for g in got for row in g.matrix for x in row)
        orders[len(got)] += 1
    assert sorted(orders) == [2, 3, 4, 6, 8]


def rational_conjugates():
    """Generators of three finite groups conjugated by a matrix of
    determinant 2, each list with some entry that is not integral."""
    a = [[2, 1], [0, 1]]
    a_inv = reference_invert(a)
    for gens in ([[[0, -1], [1, -1]]], [[[0, -1], [1, -1]], SWAP], [[[0, -1], [1, 0]], SWAP]):
        yield [matmul(a, matmul(mat(m), a_inv)) for m in gens]


def test_rational_generators_close_with_their_order_test_run_once_per_dimension():
    """Rational matrices: a conjugate of finite order, by a matrix of
    determinant 2, closes to the elements of the Fraction closure; one of
    infinite order, diag(2, 1/2), is refused at once; a singular one still
    closes.  The order exponent is computed once per dimension."""
    galois._order_exponent.cache_clear()
    for conjugates in rational_conjugates():
        assert any(x.denominator != 1 for m in conjugates for row in m for x in row)
        action = GroupAction(2, ("A",), tuple(GroupElement.make(m) for m in conjugates))
        got = action.elements()
        assert list(got) == reference_elements(action)
        assert [hash(g) for g in got] == [hash(g) for g in reference_elements(action)]
    stretch = GroupAction(2, (), (GroupElement.make([[2, 0], [0, Fraction(1, 2)]]),))
    start = perf_counter()
    with pytest.raises(ClosureCapError, match="exceeded the cap of 100000 elements"):
        stretch.elements()
    assert perf_counter() - start < 0.1
    half = Fraction(1, 2)
    for m in ([[1, 0], [0, 0]], [[half, half], [half, half]]):
        singular = GroupAction(2, (), (GroupElement.make(m),))
        assert list(singular.elements()) == reference_elements(singular)
        assert len(singular.elements()) == 2
    swap3 = GroupAction(3, (), (GroupElement.make([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),))
    assert len(swap3.elements()) == 2
    info = galois._order_exponent.cache_info()
    assert (info.misses, info.hits) == (2, 5)


def test_compose_spells_integral_entries_as_make_does():
    """A product prints as the element :meth:`GroupElement.make` builds of
    the product matrix: integral entries are ``int`` either way."""
    m = GroupElement.make([[0, -2], [Fraction(1, 2), 0]])
    assert repr(m.compose(m)) == repr(GroupElement.make([[-1, 0], [0, -1]])) == (
        "GroupElement(matrix=((-1, 0), (0, -1)), color_perm=())"
    )
    for conjugates in rational_conjugates():
        elements = GroupAction(2, ("A",), tuple(map(GroupElement.make, conjugates))).elements()
        for g in elements:
            for h in elements:
                gh = g.compose(h)
                product = matmul(mat(g.matrix), mat(h.matrix))
                assert repr(gh) == repr(GroupElement.make(product, gh.perm_map))


@pytest.mark.parametrize(
    "m",
    [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]]],
    ids=["2x3", "3x2", "3x3"],
)
def test_generator_of_the_wrong_shape_raises_value_error(m):
    """In a dimension-2 action, a generator that is not 2 x 2 passes the
    order test, which gives a non-square matrix no inverse and finds the
    3 x 3 swap of finite order; the closure then refuses it with the
    ValueError of the matrix product."""
    g = GroupElement.make(m)
    assert not galois._has_infinite_order(g)
    with pytest.raises(ValueError, match="dimension mismatch"):
        GroupAction(2, (), (g,)).elements()


@pytest.mark.parametrize("m", [((0, 1, 5), (1, 0)), ((0, 1), (1,))], ids=["3+2", "2+1"])
def test_ragged_generator_raises_value_error(m):
    """A generator whose rows differ in length is refused by the order test,
    whose integer map raises, and by the matrix product, which would read
    the columns of ``((0, 1, 5), (1, 0))`` with ``zip`` and return the swap.
    ``validate_action`` reports it as no lattice automorphism and skips the
    closure, with no error.  ``make`` rejects ragged rows, so the element
    is built directly."""
    g = GroupElement(m)
    with pytest.raises(ValueError, match="matrix rows have inconsistent lengths"):
        GroupAction(2, (), (g,)).elements()
    with pytest.raises(ValueError, match="matrix rows have inconsistent lengths"):
        identity_element(2).compose(g)
    report = validate_action(toric_datum(2), GroupAction(2, (), (g,)))
    assert report.checks["generator[0].lattice_automorphism"] is False
    assert report.checks["closure"] is False
    assert report.reasons[-1] == "closure: skipped: a generator failed validation"


def symmetric_group(n):
    """S_n acting by permutation matrices, from an n-cycle and a transposition."""

    def permutation_matrix(p):
        return [[int(p[j] == i) for j in range(n)] for i in range(n)]

    cycle = [(i + 1) % n for i in range(n)]
    swap = [1, 0, *range(2, n)]
    generators = tuple(GroupElement.make(permutation_matrix(p)) for p in (cycle, swap))
    return GroupAction(n, (), generators)


def test_s6_closes_to_the_fraction_closure():
    action = symmetric_group(6)
    got = action.elements()
    expected = reference_elements(action)
    assert len(got) == 720
    assert list(got) == expected
    assert [hash(g) for g in got] == [hash(g) for g in expected]


def test_s7_closes_in_time():
    """S_7 closes in about 0.3 s on a 2-core x86 box; the bound is generous."""
    action = symmetric_group(7)
    start = perf_counter()
    assert len(action.elements()) == 5040
    assert perf_counter() - start < 10


def test_offender_rerun_maps_no_member_twice(monkeypatch, toric_plane, p2_fan):
    """When a maximal member's image under a generator leaves the fan, the
    same pass names the first member in fan order that this generator moves
    out, mapping only members that are not maximal, none twice.  On the
    p2_quarter_turn and octant_one_cone_inversion cases of the benchmark
    that is one maximal image, then the origin and a ray, 3 images; under
    the swap and the quarter turn, the 3 chambers under the swap, one under
    the quarter turn, then the origin and the ray, 6 images.  The reasons
    are those of the reference."""
    applied = []
    image_key = galois._image_key

    def counting_image(g, cc, strict):
        applied.append((id(g), cc.key()))
        return image_key(g, cc, strict)

    monkeypatch.setattr(galois, "_image_key", counting_image)
    space = toric_datum(3)
    octant = fan_from_maximal_cones(space, [ColoredCone(cone_from_generators(OCTANTS[0], 3))])
    quarter = GroupElement.make([[0, -1], [1, 0]])
    cases = [
        (toric_plane, action_from_generators(toric_plane, [quarter]), p2_fan, 3),
        (space, action_from_generators(space, [GroupElement.make(INVERSION3)]), octant, 3),
        (
            toric_plane,
            action_from_generators(toric_plane, [GroupElement.make(SWAP), quarter]),
            p2_fan,
            6,
        ),
    ]
    for datum, action, fan, count in cases:
        applied.clear()
        result = has_k_form(datum, action, fan, check=True)
        assert len(applied) == len(set(applied)) == count
        assert result == reference_has_k_form(datum, action, fan, check=True)
        assert not result.invariant
    assert result.reasons == (
        "(a) fan is not invariant under the Galois action; offending cone: "
        "(cone rays=[(-1,-1)]; colors=[])",
    )


def test_make_stores_integral_entries_as_int():
    for m, perm in (
        ([[0, -1], [1, -1]], {}),
        ([[Fraction(4, 2), "1/3"], [0.5, -1]], {"A": "B", "B": "A"}),
        ([[1, 0, 0], [0, 1, 0]], {"C": "C"}),
    ):
        g = GroupElement.make(m, perm)
        spelled = GroupElement(mat(m), tuple(sorted(perm.items())))
        assert g == spelled and hash(g) == hash(spelled)
        assert [[type(x) for x in row] for row in g.matrix] == [
            [int if x.denominator == 1 else Fraction for x in row] for row in spelled.matrix
        ]
    assert GroupElement.make([[1, 0], [0, 1]]) == identity_element(2)
    assert GroupElement.make([[0, 1], [1, 0]]) != GroupElement.make([[1, 0], [0, 1]])


def test_action_reports_for_rational_singular_and_non_square_generators(toric_plane):
    lattice = (
        "'generator[0].lattice_automorphism: not a lattice automorphism (needs integer "
        "entries and an integer inverse)'"
    )
    skipped = "'closure: skipped: a generator failed validation'"
    checks = (
        "'generator[0].lattice_automorphism': False, 'generator[0].color_permutation': True"
    )
    for m, more, reasons in (
        ([[Fraction(1, 2), 0], [0, 2]],
         ", 'generator[0].equivariance': True, 'generator[0].valuation_stable': True",
         [lattice, skipped]),
        ([[2, 0], [0, 1]],
         ", 'generator[0].equivariance': True, 'generator[0].valuation_stable': True",
         [lattice, skipped]),
        ([[1, 0], [0, 0]],
         ", 'generator[0].equivariance': True, 'generator[0].valuation_stable': False",
         [lattice, "'generator[0].valuation_stable: the valuation cone is not stable under "
          "the matrix'", skipped]),
        ([[1, 0, 0], [0, 1, 0]], "", [lattice, skipped]),
        ([[1, 0], [0, 1], [0, 0]], "", [lattice, skipped]),
        ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], "", [lattice, skipped]),
    ):
        action = action_from_generators(toric_plane, [GroupElement.make(m)])
        assert repr(validate_action(toric_plane, action)) == (
            "ValidationReport(subject='group action with 1 generators', checks={"
            f"{checks}{more}, 'closure': False}}, reasons=[{', '.join(reasons)}], notes=[])"
        )


def test_image_table_runs_no_double_description(monkeypatch, toric_plane, p2_fan):
    from coloredfans.cones import _dd as real_dd

    calls = []

    def counting_dd(rows, dim):
        calls.append(dim)
        return real_dd(rows, dim)

    applied = []
    image_key = galois._image_key

    def counting_image(g, cc, strict):
        applied.append(g)
        return image_key(g, cc, strict)

    monkeypatch.setattr("coloredfans.cones._dd", counting_dd)
    monkeypatch.setattr("coloredfans.galois._image_key", counting_image)
    s3 = action_from_generators(
        toric_plane,
        [GroupElement.make([[0, -1], [1, -1]]), GroupElement.make(SWAP)],
    )
    offender, images, _ = galois._image_table(s3, p2_fan)
    assert offender is None
    assert sorted(len(orbit) for orbit in images.values()) == [1, 3, 3, 3, 3, 3, 3]
    assert calls == []
    # every image goes through _image_key, 2 generators times 7 members
    assert len(applied) == 14 and len(set(map(id, applied))) == 2
    # a singular matrix keeps the double description
    p2_fan.cones[-1].cone.image(mat([[1, 0], [0, 0]]))
    assert calls


def _by_apply_element(g, cc, strict):
    """``galois._image_key`` on the route that builds every image."""
    return apply_element(g, cc).key()


def _table(action, fan, sources=None):
    offender, orbits, _ = galois._image_table(action, fan, sources)
    return (
        None if offender is None else offender.key(),
        {key: list(orbit) for key, orbit in orbits.items()},
    )


def test_ray_route_matches_apply_element_route(monkeypatch):
    """Images read off the canonical rays give the offender and the orbits
    of images built by ``apply_element``: every k-form case under two
    seeded base changes, over the fan, its maximal members and the fan with
    each member removed, and ``has_k_form`` under ``check=False`` on each
    of those sub-fans."""
    rng = random.Random(1608)
    offenders = 0
    for case in KFORM_CASES:
        for _ in range(2):
            datum, fan, action = _kform_case(case, random_unimodular(rng, case[1]))
            subs = [ColoredFan(fan.cones[:i] + fan.cones[i + 1:]) for i in range(len(fan))]
            calls = [(fan, fan._facts.maximal())] + [(f, None) for f in [fan] + subs]
            rays = [_table(action, f, sources) for f, sources in calls]
            verdicts = [_outcome(lambda: has_k_form(datum, action, f, False)) for f in subs]
            monkeypatch.setattr(galois, "_image_key", _by_apply_element)
            assert rays == [_table(action, f, sources) for f, sources in calls]
            assert verdicts == [
                _outcome(lambda: has_k_form(datum, action, f, False)) for f in subs
            ]
            monkeypatch.undo()
            offenders += sum(offender is not None for offender, _ in rays)
    assert offenders


def test_singular_generators_and_lineality_build_their_images(monkeypatch, toric_plane, p2_fan):
    """``_image_key`` builds the image with ``apply_element`` for a singular
    generator, which ``check=False`` lets through, and for a cone with
    lineality; an invertible generator on strictly convex cones builds
    none.  Either way the answers are those of the building route."""
    applied = []

    def counting_apply(g, cc):
        applied.append(cc)
        return apply_element(g, cc)

    monkeypatch.setattr(galois, "apply_element", counting_apply)
    s3 = action_from_generators(
        toric_plane, [GroupElement.make([[0, -1], [1, -1]]), GroupElement.make(SWAP)]
    )
    projection = action_from_generators(toric_plane, [GroupElement.make([[1, 0], [0, 0]])])
    inversion = action_from_generators(toric_plane, [GroupElement.make([[-1, 0], [0, -1]])])
    halves = ColoredFan(tuple(
        ColoredCone(cone_from_generators(gens, 2))
        for gens in ([(1, 0), (-1, 0), (0, 1)], [(1, 0), (-1, 0), (0, -1)], [(1, 0), (-1, 0)])
    ))
    image_key = galois._image_key
    tables = []
    for action, fan in ((s3, p2_fan), (projection, p2_fan), (inversion, halves)):
        applied.clear()
        table = _table(action, fan)
        outcome = _outcome(lambda: has_k_form(toric_plane, action, fan, check=False))
        built = list(applied)
        monkeypatch.setattr(galois, "_image_key", _by_apply_element)
        assert table == _table(action, fan)
        assert outcome == _outcome(lambda: has_k_form(toric_plane, action, fan, check=False))
        monkeypatch.setattr(galois, "_image_key", image_key)
        if action is s3:
            assert built == []
        else:
            assert built and all(action is projection or cc.cone._lineality for cc in built)
        tables.append(table)
    # the projection maps the ray of (-1, -1) onto that of (-1, 0), no member;
    # -1 swaps the half-planes and keeps the line
    assert tables[0][0] is None and tables[1][0] is not None
    assert tables[2][0] is None and [len(orbit) for orbit in tables[2][1].values()] == [2, 2, 1]


# -- invariance and orbits from the generators --------------------------------


def _signed_permutation(rng, dim):
    perm = list(range(dim))
    rng.shuffle(perm)
    return [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(dim)] for i in range(dim)]


def _signed_permutation_groups(rng):
    """One group per (dimension, order) of signed permutation matrices, orders
    2 to 8, in dimensions 2 and 3, each by one or two seeded generators."""
    wanted = {(2, n) for n in (2, 4, 8)} | {(3, n) for n in (2, 3, 4, 6, 8)}
    found = {}
    while len(found) < len(wanted):
        dim = rng.choice((2, 3))
        gens = [_signed_permutation(rng, dim) for _ in range(rng.randint(1, 2))]
        order = len(GroupAction(dim, (), tuple(map(GroupElement.make, gens))).elements())
        if (dim, order) in wanted:
            found.setdefault((dim, order), gens)
    return [(dim, order, found[dim, order]) for dim, order in sorted(found)]


def _redundant(gens, dim, colors=()):
    """The generators again, with a repeated one, the identity and a product."""
    return gens + [gens[0], identity_element(dim, colors), gens[0].compose(gens[-1])]


def _route_agreement(datum, action, fan, orbits, images):
    """has_k_form against the reference on ``fan`` for both ``check`` values,
    and on ``fan`` with each member removed for ``check=False``;
    is_fan_invariant against the reference's offender on all of them.
    ``orbits`` and ``images`` are the reference's memos for the group."""
    subs = [ColoredFan(fan.cones[:i] + fan.cones[i + 1:]) for i in range(len(fan))]
    outcomes = [_compare_with_reference(datum, action, fan, True, orbits, images)]
    for f in [fan] + subs:
        outcomes.append(_compare_with_reference(datum, action, f, False, orbits, images))
        offender = reference_invariance_offender(action, f, images)
        assert is_fan_invariant(datum, action, f) == (offender is None)
        if offender is None:
            # each orbit is the set of the member's images under the whole group
            table = galois._image_table(action, f)[1]
            for cc in f:
                assert table[cc.key()].keys() == {images[g, cc.key()] for g in action.elements()}
    return outcomes


def test_generator_table_matches_group_route():
    """Seeded signed-permutation groups of orders 2 to 8, moved by unimodular
    base changes and given by plain and by redundant generating sets, over
    the square, P2, hexagon and octant fans, with the rank-one color swap:
    the generator table gives the answers, offender text included, of the
    reference that applies every group element."""
    rng = random.Random(1606)
    fans = {2: [_cycle(rays) for rays in (SQUARE_RAYS, P2_RAYS, HEXAGON_RAYS)], 3: [OCTANTS]}
    outcomes = []
    for dim, _, gens in _signed_permutation_groups(rng):
        a = random_unimodular(rng, dim)
        a_inv = reference_invert(a)
        datum = toric_datum(dim)
        moved = [GroupElement.make(matmul(a, matmul(m, a_inv))) for m in gens]
        # both generating sets make one group, so they share the reference's memos
        orbits: dict = {}
        images: dict = {}
        for generators in (moved, _redundant(moved, dim)):
            action = action_from_generators(datum, generators)
            for cones in fans[dim]:
                fan = fan_from_maximal_cones(datum, [
                    ColoredCone(cone_from_generators([matvec(a, r) for r in rays], dim))
                    for rays in cones
                ])
                outcomes += _route_agreement(datum, action, fan, orbits, images)
    for sign in (1, -1):
        datum, fan, action = _kform_case(KFORM_CASES[3], ((sign,),))
        orbits, images = {}, {}
        for generators in (action.generators, _redundant(list(action.generators), 1, datum.colors)):
            colored_action = action_from_generators(datum, generators)
            outcomes += _route_agreement(datum, colored_action, fan, orbits, images)
    # both kinds of answer are reached: a verdict and an offender
    assert any("verdict=True" in o for o in outcomes)
    assert any("offending cone" in o for o in outcomes)


def test_singular_generator_orbits_are_the_reachable_members(toric_plane):
    """Under ``check=False`` a singular projection may be a generator, alone
    or with the swap.  Each orbit of the generator table is still the set of
    images under every element of the closure, the offender is still the
    reference's, and so is the answer: the projection maps a cone onto one of
    its own faces, so not every orbit member is a maximal cone of the orbit
    fan."""
    rng = random.Random(1607)
    for rays in (SQUARE_RAYS, P2_RAYS, HEXAGON_RAYS):
        for _ in range(2):
            a = random_unimodular(rng, 2)
            a_inv = reference_invert(a)
            fan = fan_from_maximal_cones(toric_plane, [
                ColoredCone(cone_from_generators([matvec(a, r) for r in c], 2))
                for c in _cycle(rays)
            ])
            for matrices in ([[[1, 0], [0, 0]]], [[[1, 0], [0, 0]], SWAP]):
                gens = [GroupElement.make(matmul(a, matmul(m, a_inv))) for m in matrices]
                action = action_from_generators(toric_plane, gens)
                assert has_k_form(toric_plane, action, fan, check=False) == reference_has_k_form(
                    toric_plane, action, fan, check=False
                )
                offender, orbits, _ = galois._image_table(action, fan)
                expected = reference_invariance_offender(action, fan)
                assert (offender is None) == (expected is None)
                if expected is not None:
                    assert offender.describe() == expected.describe()
                    continue
                for cc in fan:
                    images = {apply_element(g, cc).key() for g in action.elements()}
                    assert orbits[cc.key()].keys() == images
                    assert next(iter(orbits[cc.key()])) == cc.key()


def test_invariance_and_orbits_never_enumerate_the_group(
    monkeypatch, tmp_path, toric_plane, p1xp1_fan
):
    """Invariance and orbits read only the generators.  The one change this
    brings: for an action that ``validate_action`` rejects at its closure
    check, such as a shear, the unchecked calls answer for the monoid the
    generators make, where enumerating the group raised ClosureCapError.
    The checked call and the CLI still reject the action first."""

    def no_closure(self):
        raise AssertionError("the group was enumerated")

    monkeypatch.setattr(GroupAction, "elements", no_closure)
    swap = swap_action(toric_plane)
    assert is_fan_invariant(toric_plane, swap, p1xp1_fan)
    assert has_k_form(toric_plane, swap, p1xp1_fan, check=False).verdict
    monoid_cone = ColoredCone(cone_from_generators([(-1, 0), (0, -1)], 2))
    skew = ColoredCone(cone_from_generators([(-1, 0), (-1, -1)], 2))
    for cone, expected in ((monoid_cone, True), (skew, False)):
        assert monoid_has_k_form(toric_plane, swap, cone) == expected
        closure = fan_from_maximal_cones(toric_plane, [cone])
        assert has_k_form(toric_plane, swap, closure, check=False).verdict == expected

    shear = action_from_generators(toric_plane, [GroupElement.make([[1, 1], [0, 1]])])
    axis = fan_from_maximal_cones(toric_plane, [
        ColoredCone(cone_from_generators([(s, 0)], 2)) for s in (1, -1)
    ])
    start = perf_counter()
    assert is_fan_invariant(toric_plane, shear, axis)
    assert not is_fan_invariant(toric_plane, shear, p1xp1_fan)
    assert has_k_form(toric_plane, shear, axis, check=False).verdict
    assert has_k_form(toric_plane, shear, p1xp1_fan, check=False).reasons == (
        "(a) fan is not invariant under the Galois action; offending cone: "
        "(cone rays=[(0,-1)]; colors=[])",
    )
    ray = ColoredCone(cone_from_generators([(1, 0)], 2))
    for cone, expected in ((ray, True), (monoid_cone, False)):
        assert monoid_has_k_form(toric_plane, shear, cone) == expected
        closure = fan_from_maximal_cones(toric_plane, [cone])
        assert has_k_form(toric_plane, shear, closure, check=False).verdict == expected
    assert perf_counter() - start < 0.1

    monkeypatch.undo()
    with pytest.raises(InvalidFanError) as caught:
        has_k_form(toric_plane, shear, axis, check=True)
    assert str(caught.value) == "closure: group closure exceeded the cap of 100000 elements"
    fixtures = Path(__file__).parent / "fixtures"
    action_file = tmp_path / "shear.json"
    action_file.write_text(json.dumps(
        {"generators": [{"matrix": [[1, 1], [0, 1]], "color_perm": {}}]}
    ))
    for command in ("kform", "monoid-kform"):
        with pytest.raises(SemanticError) as caught:
            run_command(
                command,
                datum_path=str(fixtures / "datum_toric2.json"),
                fan_path=str(fixtures / "fan_single_ray.json"),
                action_path=str(action_file),
            )
        assert str(caught.value) == (
            "action violates closure: closure: group closure exceeded the cap of 100000 elements"
        )


# -- images of the maximal members ---------------------------------------------


def test_checked_k_form_maps_the_maximal_members_only(monkeypatch, toric_plane, p2_fan):
    """Under a validated action the generators map the 3 maximal cones of
    P2, 6 images, not all 7 members, and a ray that is maximal beside a
    chamber is mapped as well; when an image leaves the fan, the same pass
    names the offender of the group route."""
    applied = []
    image_key = galois._image_key

    def counting_image(g, cc, strict):
        applied.append(cc)
        return image_key(g, cc, strict)

    monkeypatch.setattr(galois, "_image_key", counting_image)
    s3 = action_from_generators(
        toric_plane, [GroupElement.make([[0, -1], [1, -1]]), GroupElement.make(SWAP)]
    )
    assert has_k_form(toric_plane, s3, p2_fan, check=True).verdict
    assert len(applied) == 6 and all(cc.cone.dim == 2 for cc in applied)
    quarter = action_from_generators(toric_plane, [GroupElement.make([[0, -1], [1, 0]])])
    result = has_k_form(toric_plane, quarter, p2_fan, check=True)
    assert result == reference_has_k_form(toric_plane, quarter, p2_fan, check=True)
    assert result.reasons == (
        "(a) fan is not invariant under the Galois action; offending cone: "
        "(cone rays=[(-1,-1)]; colors=[])",
    )
    # the first chamber leaves; the origin and the ray of (-1, -1), members
    # before it in fan order and no maximal cones, are mapped next
    maximal = p2_fan._facts.maximal()
    applied.clear()
    offender = galois._image_table(quarter, p2_fan, maximal)[0]
    assert offender.key() == p2_fan.cones[1].key() and offender.describe() in result.reasons[0]
    assert [cc.cone.dim for cc in applied] == [2, 0, 1]
    # maximal members of two dimensions: the rays beside a chamber are mapped too
    swap = swap_action(toric_plane)
    chamber = ColoredCone(cone_from_generators([(1, 0), (0, 1)], 2))
    rays = [ColoredCone(cone_from_generators([r], 2)) for r in ((-1, 0), (0, -1))]
    for given, invariant in (([chamber] + rays, True), ([chamber, rays[0]], False)):
        fan = fan_from_maximal_cones(toric_plane, given)
        result = has_k_form(toric_plane, swap, fan, check=True)
        assert result == reference_has_k_form(toric_plane, swap, fan, check=True)
        assert result.invariant == invariant


def test_maximal_members_come_in_fan_order():
    """A fan holding the members in reverse order has no facts, so
    ``has_k_form(check=True)`` validates it in full and maps its maximal
    members in that order.  Over the kform catalogue and seeded signed
    permutation groups on the plane fans, it gives the verdict of the
    closure-built fan, and its reasons too when the fan is invariant.  A
    fan that is not invariant names the first member, in its own order,
    that the first generator moving a member out moves out: the reversed
    fan names another cone, as the reference does."""
    rng = random.Random(3131)
    cases = [
        (datum, action, fan)
        for datum, fan, action in (
            _kform_case(case, random_unimodular(rng, case[1])) for case in KFORM_CASES
        )
    ]
    for dim, _, gens in _signed_permutation_groups(rng):
        if dim == 2:
            datum = toric_datum(2)
            action = action_from_generators(datum, [GroupElement.make(m) for m in gens])
            for rays in (SQUARE_RAYS, P2_RAYS, HEXAGON_RAYS):
                given = [ColoredCone(cone_from_generators(c, 2)) for c in _cycle(rays)]
                cases.append((datum, action, fan_from_maximal_cones(datum, given)))
    moved = 0
    for datum, action, fan in cases:
        reverse = ColoredFan(fan.cones[::-1])
        assert reverse._facts is None and reverse.member_keys() == fan.member_keys()
        result = has_k_form(datum, action, reverse, check=True)
        assert result == reference_has_k_form(datum, action, reverse, check=True)
        closed = has_k_form(datum, action, fan, check=True)
        assert (result.verdict, result.invariant, result.orbits_quasiprojective) == (
            closed.verdict, closed.invariant, closed.orbits_quasiprojective
        )
        if result.invariant:
            assert result == closed
        else:
            moved += result.reasons != closed.reasons
    assert len(cases) == 16 and moved == 4


def _b3_orbit(rays):
    """The toric 3-space, the fan of the images of the cone over ``rays``
    under the 48 signed permutations, and the group B3 that the swap, the
    3-cycle and one sign flip generate."""
    datum = toric_datum(3)
    fan = fan_from_maximal_cones(datum, [
        ColoredCone(cone_from_generators([[s * r[i] for s, i in zip(signs, p)] for r in rays], 3))
        for p in permutations(range(3))
        for signs in product((1, -1), repeat=3)
    ])
    flip = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    action = action_from_generators(datum, [GroupElement.make(m) for m in (SWAP_XY, CYCLE3, flip)])
    assert len(fan._facts.maximal()) == 48 and "group order 48" in validate_action(datum, action).notes
    return datum, fan, action


def _lp_shapes(monkeypatch, *modules) -> list:
    """The (variables, equalities, inequalities) of each LP that
    ``lp_feasible`` solves in ``modules``, recorded from now on."""
    shapes = []

    def recording(lp):
        shapes.append((lp.num_vars, len(lp._eqs), len(lp._ineqs)))
        return lp_feasible(lp)

    for module in modules:
        monkeypatch.setattr(module, "lp_feasible", recording)
    return shapes


def _kform_cli(datum, fan, action, tmp_path, capsys) -> dict:
    """CLI ``kform --json`` on the serialized inputs, which exits 0: its stdout."""
    paths = []
    for name, text in (
        ("datum", serialize_datum(datum)),
        ("fan", serialize_fan(datum, fan)),
        ("action", serialize_action(action)),
    ):
        paths += [f"--{name}", str(tmp_path / f"{name}.json")]
        (tmp_path / f"{name}.json").write_text(text)
    capsys.readouterr()
    assert main(["kform", *paths, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_b3_chamber_fan_is_decided_from_its_walls(monkeypatch, tmp_path, capsys):
    """The 48 chambers of type B3, the images of x1 >= x2 >= x3 >= 0 under
    the signed permutations, form one orbit of the order-48 group that the
    swap, the 3-cycle and one sign flip generate.  Validated, its orbit fan
    is decided by one LP over the form of one chamber, whose stabilizer is
    trivial: 4 rows for each of the 47 other chambers and one equality per
    ray a chamber shares with the first.  Unvalidated, row generation
    decides it by one LP, on the 576 rows of the 144 ordered pairs that
    share a wall, of the 9024 of the all-pairs LP."""
    datum, fan, action = _b3_orbit([(1, 0, 0), (1, 1, 0), (1, 1, 1)])
    shapes = _lp_shapes(monkeypatch, galois, quasiproj)
    assert has_k_form(datum, action, fan, check=True).verdict
    assert shapes == [(3, 15, 47 * 4)]
    shapes.clear()
    assert has_k_form(datum, action, fan, check=False).verdict
    assert shapes == [(144, 360, 576)]
    monkeypatch.undo()
    assert _kform_cli(datum, fan, action, tmp_path, capsys)["verdict"] is True


def test_wall_free_b3_orbit_fan_is_decided_on_one_form(monkeypatch, tmp_path, capsys):
    """The 2-D cone on (3, 5, 7) and (3, 6, 7) has 48 images under the signed
    permutations, no two of which share a ray, so no pair shares a wall and
    row generation would solve the all-pairs LP at once: 144 variables and
    6768 rows, on which Bland's rule stalls at the origin.  Validated, the
    orbit fan is one LP over the form of one cone, whose stabilizer is
    trivial: 3 variables, no equality and 3 rows for each of the 47 other
    cones, and its lifted forms solve the all-pairs LP.  CLI ``kform``
    decides it too."""
    datum, fan, action = _b3_orbit([(3, 5, 7), (3, 6, 7)])
    shapes = _lp_shapes(monkeypatch, galois)
    assert has_k_form(datum, action, fan, check=True).verdict
    assert shapes == [(3, 0, 141)]
    monkeypatch.undo()
    maximal = fan._facts.maximal()
    _, orbits, edges = galois._image_table(action, fan, maximal)
    forms = dict(zip(orbits[maximal[0].key()], galois._orbit_forms(
        datum, action, orbits[maximal[0].key()], edges
    )))
    lp = _support_lp(datum, maximal, _valuation_parts(datum, maximal))
    assert (lp.num_vars, len(lp._eqs), len(lp._ineqs)) == (144, 0, 6768)
    assert lp.satisfied_by([x for cc in maximal for x in forms[cc.key()]])
    assert _kform_cli(datum, fan, action, tmp_path, capsys)["verdict"] is True


def _orbit_forms_agree(datum, action, fan, sources=None) -> list[bool]:
    """``_orbit_forms`` on each orbit of the sources, by default every
    member, against the all-pairs LP posed on the maximal cones of the
    orbit's closure: a "yes" lifts to forms that satisfy it, a "no" is its
    verdict too.  Returns the verdicts, one per distinct orbit."""
    _, orbits, edges = galois._image_table(action, fan, sources)
    verdicts, met = [], set()
    for key, orbit in orbits.items():
        if key in met:
            continue
        met.update(orbit)
        forms = galois._orbit_forms(datum, action, orbit, edges)
        maximal = colored._face_closure(datum, orbit.values(), {}).maximal()
        assert {cc.key() for cc in maximal} == orbit.keys()
        lp = _support_lp(datum, maximal, _valuation_parts(datum, maximal))
        if forms is None:
            assert lp_feasible(lp) is None
        else:
            by_key = dict(zip(orbit, forms))
            assert lp.satisfied_by([x for cc in maximal for x in by_key[cc.key()]])
        verdicts.append(forms is not None)
    return verdicts


def test_orbit_forms_match_the_all_pairs_lp():
    """The invariant-form LP against the all-pairs LP: every orbit of the
    kform catalogue, the octant groups among it, under a seeded base
    change, and the 278 orbits of maximal cones of the 64 cube patterns
    under their stabilizers in the signed permutations.  The twisted cube
    under its stabilizer gets the reference's answer."""
    rng = random.Random(609)
    verdicts = []
    for case in KFORM_CASES:
        datum, fan, action = _kform_case(case, random_unimodular(rng, case[1]))
        verdicts += _orbit_forms_agree(datum, action, fan)
    assert len(verdicts) == 3 + 3 + 3 + 2 + 14 + 10 + 9 and all(verdicts)
    datum = toric_datum(3)
    signed = [
        GroupElement.make([[s * (j == p[i]) for j in range(3)] for i, s in enumerate(signs)])
        for p in permutations(range(3))
        for signs in product((1, -1), repeat=3)
    ]
    verdicts = []
    for pattern in range(64):
        fan = fan_from_maximal_cones(
            datum, [ColoredCone(cone_from_generators(c, 3)) for c in cube_pattern_cones(pattern)]
        )
        maximal, keys = fan._facts.maximal(), fan.member_keys()
        stabilizer = action_from_generators(datum, [
            g for g in signed if all(apply_element(g, cc).key() in keys for cc in maximal)
        ])
        verdicts += _orbit_forms_agree(datum, stabilizer, fan, maximal)
        if pattern == 24:
            result = has_k_form(datum, stabilizer, fan, check=True)
            assert result == reference_has_k_form(datum, stabilizer, fan, check=True)
            assert result.verdict
    assert len(verdicts) == 278 and all(verdicts)

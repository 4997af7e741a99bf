import random
from collections import Counter
from fractions import Fraction
from time import perf_counter

import pytest

from conftest import random_unimodular, toric_datum
from reference_kform import reference_has_k_form, reference_orbit_subfan
from coloredfans import colored, galois, quasiproj
from coloredfans.colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    fan_from_maximal_cones,
    member_sort_key,
)
from coloredfans.cones import cone_from_generators
from coloredfans.errors import ClosureCapError, OrbitOverlapError
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
    orbit_subfan,
    validate_action,
)
from coloredfans.linalg import identity, invert, mat, matmul, matvec
from coloredfans.quasiproj import (
    _support_lp,
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


def test_closure_cap(toric_plane):
    shear = GroupElement.make([[1, 1], [0, 1]])
    action = action_from_generators(toric_plane, [shear])
    with pytest.raises(ClosureCapError):
        action.elements(cap=50)
    # the cap holds for a closure already cached under a larger cap
    rotation = action_from_generators(toric_plane, [GroupElement.make([[0, -1], [1, 0]])])
    assert len(rotation.elements()) == 4
    with pytest.raises(ClosureCapError):
        rotation.elements(cap=2)


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


def test_orbit_subfan_examples(toric_plane):
    action = swap_action(toric_plane)
    quadrant = ColoredCone(cone_from_generators([(1, 0), (0, 1)], 2))
    ident = action_from_generators(toric_plane, [])
    assert orbit_subfan(toric_plane, ident, quadrant).member_keys() == (
        fan_from_maximal_cones(toric_plane, [quadrant]).member_keys()
    )
    assert len(orbit_subfan(toric_plane, action, quadrant)) == 4
    slanted = ColoredCone(cone_from_generators([(1, 0), (1, 1)], 2))
    orbit = orbit_subfan(toric_plane, action, slanted)
    top = [m for m in orbit if m.cone.dim == 2]
    assert {m.cone for m in top} == {
        cone_from_generators([(1, 0), (1, 1)], 2),
        cone_from_generators([(1, 1), (0, 1)], 2),
    }


def test_orbit_subfan_is_invariant(toric_plane):
    action = swap_action(toric_plane)
    slanted = ColoredCone(cone_from_generators([(1, 0), (1, 1)], 2))
    orbit = orbit_subfan(toric_plane, action, slanted)
    assert is_fan_invariant(toric_plane, action, orbit)


def test_orbit_overlap_is_an_error(toric_plane):
    action = swap_action(toric_plane)
    wide = ColoredCone(cone_from_generators([(1, 0), (1, 2)], 2))
    with pytest.raises(OrbitOverlapError):
        orbit_subfan(toric_plane, action, wide)


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
            simple = orbit_subfan(toric_plane, ident, member)
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
            a_inv = invert(a)
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
    a_inv = invert(a)
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


def _compare_with_reference(datum, action, fan, check):
    got = _outcome(lambda: has_k_form(datum, action, fan, check=check))
    assert got == _outcome(lambda: reference_has_k_form(datum, action, fan, check=check))
    return got


def test_k_form_matches_rebuilding_reference():
    rng = random.Random(606)
    outcomes = set()
    for case in KFORM_CASES:
        for _ in range(2 if case[1] < 3 else 1):
            datum, fan, action = _kform_case(case, random_unimodular(rng, case[1]))
            for check in (True, False):
                assert _compare_with_reference(datum, action, fan, check).endswith(
                    "verdict=True, invariant=True, orbits_quasiprojective=True, "
                    "reasons=(), notes=('" + PERFECT_FIELD_NOTE + "',))"
                )
            for cc in fan:
                orbit = orbit_subfan(datum, action, cc)
                assert orbit == reference_orbit_subfan(datum, action, cc)
                images = {apply_element(g, cc) for g in action.elements()}
                assert _support_lp(
                    datum, sorted(images, key=member_sort_key)
                ) == build_support_lp(datum, orbit, check=False)
            for i in range(len(fan)):
                sub = ColoredFan(fan.cones[:i] + fan.cones[i + 1:])
                outcomes.add(_compare_with_reference(datum, action, sub, False))
    # the sub-fans reach the (a) failure and, with the origin removed, a verdict
    assert any("invariant=False" in o for o in outcomes)
    assert any("verdict=True" in o for o in outcomes)


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
    wide = ColoredCone(cone_from_generators([(1, 0), (1, 2)], 2))
    assert _outcome(lambda: orbit_subfan(toric_plane, action, wide)) == _outcome(
        lambda: reference_orbit_subfan(toric_plane, action, wide)
    )


def test_k_form_reads_faces_from_validation(monkeypatch, toric_plane, p2_fan):
    real_faces, real_validate = colored.colored_faces, colored._validate_fan
    real_cone_check = colored.validate_colored_cone
    calls = []
    cone_checks = []
    inside = []

    def counting_faces(datum, cc):
        calls.append((cc.key(), bool(inside)))
        return real_faces(datum, cc)

    def counting_cone_check(datum, cc):
        cone_checks.append(cc.key())
        return real_cone_check(datum, cc)

    def flagged_validate(datum, fan):
        inside.append(True)
        try:
            return real_validate(datum, fan)
        finally:
            inside.pop()

    for module in (colored, galois, quasiproj):
        monkeypatch.setattr(module, "colored_faces", counting_faces)
    monkeypatch.setattr(colored, "validate_colored_cone", counting_cone_check)
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
    # orbit_subfan takes the faces of each distinct image once: one pass for
    # the origin, fixed by all six elements, and three for a maximal cone
    for member, passes in ((p2_fan.cones[0], 1), (p2_fan.cones[-1], 3)):
        calls.clear()
        orbit_subfan(toric_plane, s3, member)
        assert len(calls) == passes


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
        a_inv = invert(a)
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

    def counting_apply(g, cc):
        applied.append(g)
        return apply_element(g, cc)

    monkeypatch.setattr("coloredfans.cones._dd", counting_dd)
    monkeypatch.setattr("coloredfans.galois.apply_element", counting_apply)
    s3 = action_from_generators(
        toric_plane,
        [GroupElement.make([[0, -1], [1, -1]]), GroupElement.make(SWAP)],
    )
    offender, images = galois._image_table(s3, p2_fan)
    assert offender is None
    assert sorted(len(orbit) for orbit in images.values()) == [1, 3, 3, 3, 3, 3, 3]
    assert calls == []
    # every image goes through apply_element, 6 elements times 7 members
    assert len(applied) == 42 and len(set(map(id, applied))) == 6
    # a singular matrix keeps the double description
    p2_fan.cones[-1].cone.image(mat([[1, 0], [0, 0]]))
    assert calls

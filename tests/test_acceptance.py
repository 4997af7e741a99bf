"""Acceptance suite: one test per criterion, each printing a pass line.

Everything here is exact; there is no numerical tolerance anywhere.  The
stated runtime budgets are asserted with a wall clock.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from conftest import (
    random_complete_2d_fan,
    random_unimodular,
    toric_datum,
    twisted_cube_fan,
)
from reference_exact import reference_invert
from coloredfans.cli import run_command
from coloredfans.colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    fan_from_maximal_cones,
    validate_colored_fan,
)
from coloredfans.cones import cone_from_generators, cone_from_inequalities
from coloredfans.errors import MonoidConeError
from coloredfans.fileio import parse_datum, parse_fan, serialize_datum, serialize_fan
from coloredfans.galois import (
    GroupElement,
    action_from_generators,
    has_k_form,
    is_fan_invariant,
)
from coloredfans.linalg import matmul
from coloredfans.linprog import LPProblem, fourier_motzkin, lp_feasible
from coloredfans.monoid import (
    MorphismData,
    check_fan_morphism,
    is_monoid_cone,
    lined_closure_real_form,
    monoid_cone_from_valuations,
    monoid_has_k_form,
)
from coloredfans.quasiproj import build_support_lp, is_quasiprojective, maximal_members

FIXTURES = Path(__file__).parent / "fixtures"


def test_dd_round_trip():
    """100 random cones: generator/inequality round-trip in canonical form."""
    rng = random.Random(20260808)
    start = time.monotonic()
    for _ in range(100):
        dim = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(-5, 5) for _ in range(dim))
            for _ in range(rng.randint(0, 6))
        ]
        cone = cone_from_generators(gens, dim)
        assert cone_from_inequalities(cone.inequalities, dim) == cone
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"round-trip took {elapsed:.1f} s"
    print(f"PASS dd-round-trip (100 cones, {elapsed:.2f} s)")


def test_face_lattice_and_fan_axioms():
    """Simplicial face counts; P1 and P1xP1 validate; missing origin names the face."""
    for k in range(1, 5):
        gens = [tuple(int(i == j) for j in range(4)) for i in range(k)]
        assert len(cone_from_generators(gens, 4).faces()) == 2**k

    line = toric_datum(1)
    plane = toric_datum(2)
    p1 = fan_from_maximal_cones(
        line,
        [
            ColoredCone(cone_from_generators([(1,)], 1)),
            ColoredCone(cone_from_generators([(-1,)], 1)),
        ],
    )
    assert validate_colored_fan(line, p1).passed
    p1xp1 = fan_from_maximal_cones(
        plane,
        [
            ColoredCone(cone_from_generators([(1, 0), (0, 1)], 2)),
            ColoredCone(cone_from_generators([(0, 1), (-1, 0)], 2)),
            ColoredCone(cone_from_generators([(-1, 0), (0, -1)], 2)),
            ColoredCone(cone_from_generators([(0, -1), (1, 0)], 2)),
        ],
    )
    assert validate_colored_fan(plane, p1xp1).passed

    missing_origin = ColoredFan((ColoredCone(cone_from_generators([(1,)], 1)),))
    report = validate_colored_fan(line, missing_origin)
    assert not report.checks["F1"]
    assert any("rays=[]" in r for r in report.reasons), report.reasons
    print("PASS face-lattice-and-fan-axioms")


def test_lp_against_fourier_motzkin_oracle():
    """200 random problems: the simplex and the elimination oracle agree."""
    rng = random.Random(1729)
    start = time.monotonic()
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, 12)
        eqs, ineqs = [], []
        for _ in range(m):
            a = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
            b = Fraction(rng.randint(-4, 4))
            (eqs if rng.random() < 0.25 else ineqs).append((a, b))
        lp = LPProblem(n, tuple(eqs), tuple(ineqs))
        x = lp_feasible(lp)
        assert (x is not None) == fourier_motzkin(lp)
        if x is not None:
            assert lp.satisfied_by(x)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"LP-vs-oracle took {elapsed:.1f} s"
    print(f"PASS lp-vs-oracle (200 systems, {elapsed:.2f} s)")


def test_quasiprojectivity_ground_truths():
    """P2 accepted with verified witness; simple fans accepted; 50 random
    complete plane fans accepted with the oracle concurring; the twisted cube
    rejected and certified infeasible by the oracle."""
    plane = toric_datum(2)
    p2 = fan_from_maximal_cones(
        plane,
        [
            ColoredCone(cone_from_generators([(1, 0), (0, 1)], 2)),
            ColoredCone(cone_from_generators([(0, 1), (-1, -1)], 2)),
            ColoredCone(cone_from_generators([(-1, -1), (1, 0)], 2)),
        ],
    )
    lp = build_support_lp(plane, p2)
    result = is_quasiprojective(plane, p2)
    assert result.verdict
    flat = tuple(c for form in result.witness for c in form.coefficients)
    assert lp.satisfied_by(flat)

    for maximal in ([(1, 0), (0, 1)],), ([(1, 0), (1, 1)],):
        simple = fan_from_maximal_cones(
            plane, [ColoredCone(cone_from_generators(list(maximal[0]), 2))]
        )
        assert is_quasiprojective(plane, simple).verdict

    rng = random.Random(5050)
    for _ in range(50):
        fan = random_complete_2d_fan(rng, plane)
        lp = build_support_lp(plane, fan, check=False)
        assert is_quasiprojective(plane, fan, check=False).verdict
        assert fourier_motzkin(lp, max_vars=lp.num_vars)

    space = toric_datum(3)
    cube = twisted_cube_fan(space)
    cube_lp = build_support_lp(space, cube, check=False)
    assert not is_quasiprojective(space, cube, check=False).verdict
    assert not fourier_motzkin(cube_lp, max_vars=cube_lp.num_vars)
    print("PASS quasiprojectivity-ground-truths")


def test_galois_k_forms():
    """Swap-action verdicts and covariance under random conjugation."""
    plane = toric_datum(2)
    swap = GroupElement.make([[0, 1], [1, 0]])
    action = action_from_generators(plane, [swap])
    p1xp1 = fan_from_maximal_cones(
        plane,
        [
            ColoredCone(cone_from_generators([(1, 0), (0, 1)], 2)),
            ColoredCone(cone_from_generators([(0, 1), (-1, 0)], 2)),
            ColoredCone(cone_from_generators([(-1, 0), (0, -1)], 2)),
            ColoredCone(cone_from_generators([(0, -1), (1, 0)], 2)),
        ],
    )
    assert has_k_form(plane, action, p1xp1).verdict

    ray_fan = fan_from_maximal_cones(
        plane, [ColoredCone(cone_from_generators([(1, 0)], 2))]
    )
    failure = has_k_form(plane, action, ray_fan)
    assert not failure.verdict
    assert any(r.startswith("(a)") for r in failure.reasons)

    ident = action_from_generators(plane, [])
    assert has_k_form(plane, ident, p1xp1).verdict

    rng = random.Random(606)
    for _ in range(20):
        a = random_unimodular(rng, 2)
        a_inv = reference_invert(a)
        moved_datum = SphericalDatum(2, plane.valuation_cone.image(a))
        moved_action = action_from_generators(
            moved_datum, [GroupElement.make(matmul(a, matmul(swap.matrix, a_inv)))]
        )
        for base_fan, expected in ((p1xp1, True), (ray_fan, False)):
            moved_fan = fan_from_maximal_cones(
                moved_datum,
                [
                    ColoredCone(m.cone.image(a), m.colors)
                    for m in maximal_members(plane, base_fan)
                ],
            )
            assert has_k_form(moved_datum, moved_action, moved_fan).verdict == expected
    print("PASS galois-k-forms (20 conjugations)")


def test_monoid_suite():
    """Monoid cones for the affine line and plane; axiom-named rejections;
    valuation round-trips; k-form equals fan invariance with the LP forced."""
    line = toric_datum(1)
    plane = toric_datum(2)
    rank_one = SphericalDatum(
        1, cone_from_generators([(-1,)], 1), ("D+", "D-"), {"D+": (1,), "D-": (1,)}
    )

    assert is_monoid_cone(line, ColoredCone(cone_from_generators([(-1,)], 1))).verdict
    assert is_monoid_cone(
        plane, ColoredCone(cone_from_generators([(-1, 0), (0, -1)], 2))
    ).verdict

    line_cone = is_monoid_cone(line, ColoredCone(cone_from_generators([(1,), (-1,)], 1)))
    assert not line_cone.verdict and not line_cone.report.checks["C3"]

    forward = is_monoid_cone(
        rank_one, ColoredCone(cone_from_generators([(1,)], 1), frozenset(["D+", "D-"]))
    )
    assert not forward.verdict and not forward.report.checks["C2"]

    rng = random.Random(4096)
    swap_action = action_from_generators(plane, [GroupElement.make([[0, 1], [1, 0]])])
    built = 0
    while built < 50:
        vs = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        try:
            cone = monoid_cone_from_valuations(plane, vs)
        except MonoidConeError:
            continue
        assert is_monoid_cone(plane, cone).verdict
        fan = fan_from_maximal_cones(plane, [cone])
        invariant = is_fan_invariant(plane, swap_action, fan)
        assert monoid_has_k_form(plane, swap_action, cone) == invariant
        assert has_k_form(plane, swap_action, fan, check=False).verdict == invariant
        built += 1
    print("PASS monoid-suite (50 valuation sets)")


def test_morphism_and_lined_closure():
    """Identity reflexivity, the plane-to-line projection, and the
    weight-negation truth table with its sign symmetry."""
    line = toric_datum(1)
    plane = toric_datum(2)
    quadrant_fan = fan_from_maximal_cones(
        plane, [ColoredCone(cone_from_generators([(1, 0), (0, 1)], 2))]
    )
    ident = MorphismData.make([[1, 0], [0, 1]])
    assert check_fan_morphism(plane, plane, ident, quadrant_fan, quadrant_fan).verdict

    projection = MorphismData.make([[1, 0]])
    half_fan = fan_from_maximal_cones(line, [ColoredCone(cone_from_generators([(1,)], 1))])
    zero_fan = fan_from_maximal_cones(line, [ColoredCone(cone_from_generators([], 1))])
    assert check_fan_morphism(plane, line, projection, quadrant_fan, half_fan).verdict
    assert not check_fan_morphism(plane, line, projection, quadrant_fan, zero_fan).verdict

    assert lined_closure_real_form((1,), [[-1]])
    assert not lined_closure_real_form((1,), [[1]])
    assert lined_closure_real_form((0, 0), [[1, 0], [0, 1]])
    rng = random.Random(512)
    for _ in range(20):
        n = rng.randint(1, 4)
        signs = [rng.choice([1, -1]) for _ in range(n)]
        theta = [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]
        lam = [rng.randint(-5, 5) for _ in range(n)]
        minus = [-x for x in lam]
        assert lined_closure_real_form(lam, theta) == lined_closure_real_form(minus, theta)
    print("PASS morphism-and-lined-closure")


def test_cli_and_serialization():
    """Documented exit codes on the shipped fixtures; byte-identical round-trips."""
    fx = lambda name: str(FIXTURES / name)

    assert run_command(
        "validate", datum_path=fx("datum_p1.json"), fan_path=fx("fan_p1.json")
    ).exit_code == 0
    quasi = run_command(
        "quasiproj", datum_path=fx("datum_toric2.json"), fan_path=fx("fan_p2.json")
    )
    assert quasi.exit_code == 0 and quasi.payload["witnesses"]
    assert run_command(
        "kform",
        datum_path=fx("datum_toric2.json"),
        fan_path=fx("fan_single_ray.json"),
        action_path=fx("action_swap.json"),
    ).exit_code == 1
    assert run_command(
        "monoid", datum_path=fx("datum_toric2.json"), fan_path=fx("fan_a2_monoid.json")
    ).exit_code == 0
    assert run_command(
        "monoid-kform",
        datum_path=fx("datum_toric2.json"),
        fan_path=fx("fan_a2_monoid.json"),
        action_path=fx("action_swap.json"),
    ).exit_code == 0
    assert run_command(
        "morphism",
        datum_path=fx("datum_toric2.json"),
        fan_path=fx("fan_quadrant.json"),
        morphism_path=fx("morphism_projection.json"),
    ).exit_code == 0
    assert run_command(
        "lined", lambda_csv="1", theta_path=fx("theta_neg.json")
    ).exit_code == 0

    for datum_name, fan_name in [
        ("datum_p1", "fan_p1"),
        ("datum_toric2", "fan_p2"),
        ("datum_toric2", "fan_p1xp1"),
    ]:
        datum_text = (FIXTURES / f"{datum_name}.json").read_text()
        datum = parse_datum(json.loads(datum_text))
        assert serialize_datum(datum) == datum_text
        fan_text = (FIXTURES / f"{fan_name}.json").read_text()
        fan = fan_from_maximal_cones(datum, parse_fan(json.loads(fan_text), datum))
        assert serialize_fan(datum, fan) == fan_text
    print("PASS cli-and-serialization")

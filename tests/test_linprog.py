import random
from fractions import Fraction

import pytest
from conftest import cube_pattern_cones, random_complete_2d_fan, toric_datum
from reference_exact import reference_relint_lp, reference_satisfied_by, reference_support_lp
from reference_simplex import reference_lp_feasible

from coloredfans import colored, linprog
from coloredfans.colored import ColoredCone, fan_from_maximal_cones
from coloredfans.cones import cone_from_generators
from coloredfans.errors import EliminationCapError
from coloredfans.linprog import LPProblem, constraint, fourier_motzkin, lp_feasible
from coloredfans.quasiproj import build_support_lp, maximal_members


def test_infeasible_pair():
    lp = LPProblem(1, ineq_constraints=(constraint([1], 1), constraint([-1], 0)))
    assert lp_feasible(lp) is None
    assert fourier_motzkin(lp) is False


def test_simple_feasible():
    lp = LPProblem(
        2,
        eq_constraints=(constraint([1, 1], 1),),
        ineq_constraints=(constraint([1, 0], 0), constraint([0, 1], 0)),
    )
    x = lp_feasible(lp)
    assert x is not None
    assert lp.satisfied_by(x)


def test_empty_system_is_feasible():
    lp = LPProblem(0)
    assert lp_feasible(lp) == ()
    assert fourier_motzkin(lp)


def test_inconsistent_equalities():
    lp = LPProblem(2, eq_constraints=(constraint([1, 1], 1), constraint([2, 2], 3)))
    assert lp_feasible(lp) is None
    assert fourier_motzkin(lp) is False


def test_wrong_simplex_point_fails_re_verification(monkeypatch):
    """The point is checked exactly in integers, also through the equality
    lift: moved off its one feasible value, it raises."""
    pinned = LPProblem(1, ineq_constraints=(constraint([1], 1), constraint([-1], -1)))
    lifted = LPProblem(
        2,
        eq_constraints=(constraint([1, 1], 1),),
        ineq_constraints=(constraint([1, 0], 1), constraint([0, 1], 0)),
    )
    assert lp_feasible(pinned) == (Fraction(1),)
    assert lp_feasible(lifted) == (Fraction(1), Fraction(0))
    phase_one = linprog._phase_one

    def moved(num_vars, ineqs):
        nums, den = phase_one(num_vars, ineqs)
        return [nums[0] + 1] + nums[1:], den

    monkeypatch.setattr(linprog, "_phase_one", moved)
    for lp in (pinned, lifted):
        with pytest.raises(AssertionError, match="re-verification"):
            lp_feasible(lp)


def test_fm_cap():
    lp = LPProblem(9, ineq_constraints=(constraint([0] * 9, 0),))
    with pytest.raises(EliminationCapError):
        fourier_motzkin(lp)
    assert fourier_motzkin(lp, max_vars=9)


def test_constraint_length_checked():
    with pytest.raises(ValueError):
        LPProblem(2, ineq_constraints=(constraint([1, 2, 3], 0),))


def random_lp(rng: random.Random) -> LPProblem:
    n = rng.randint(1, 6)
    m = rng.randint(1, 12)
    eqs, ineqs = [], []
    for _ in range(m):
        a = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        b = Fraction(rng.randint(-4, 4))
        (eqs if rng.random() < 0.25 else ineqs).append((a, b))
    return LPProblem(n, tuple(eqs), tuple(ineqs))


def test_simplex_agrees_with_fourier_motzkin():
    rng = random.Random(1009)
    feasible = infeasible = 0
    for _ in range(120):
        lp = random_lp(rng)
        x = lp_feasible(lp)
        assert (x is not None) == fourier_motzkin(lp)
        if x is None:
            infeasible += 1
        else:
            feasible += 1
            assert lp.satisfied_by(x)
    # the generator should exercise both outcomes
    assert feasible > 10 and infeasible > 10


def test_float_input_is_made_exact():
    # 0.1 x + 0.2 y = 0.3 twice over, as two opposite inequalities
    lp = LPProblem(2, (), (((0.1, 0.2), 0.3), ((-0.1, -0.2), -0.3)))
    x = lp_feasible(lp)
    assert x is not None and lp.satisfied_by(x)
    assert all(type(v) is Fraction for a, b in lp.ineq_constraints for v in a + (b,))
    assert lp.ineq_constraints == (constraint([0.1, 0.2], 0.3), constraint([-0.1, -0.2], -0.3))
    assert fourier_motzkin(lp)
    eq = LPProblem(1, eq_constraints=(([2], 1),))
    assert lp_feasible(eq) == (Fraction(1, 2),)


@pytest.fixture
def pivots(monkeypatch):
    """Calls of the simplex pivot since the last reset (``pivots.clear()``)."""
    calls = []
    pivot = linprog._pivot

    def counting(*args):
        calls.append(None)
        return pivot(*args)

    monkeypatch.setattr(linprog, "_pivot", counting)
    return calls


def assert_matches_reference(lp: LPProblem, pivots: list):
    """Same assignment, to the repr, and the same number of pivots as the
    Fraction simplex."""
    pivots.clear()
    x = lp_feasible(lp)
    expected, expected_pivots = reference_lp_feasible(lp)
    assert repr(x) == repr(expected)
    assert len(pivots) == expected_pivots
    return x


def test_integer_simplex_matches_reference_on_oracle_lps(pivots):
    # the 200 problems of the acceptance suite's oracle comparison
    rng = random.Random(1729)
    for _ in range(200):
        assert_matches_reference(random_lp(rng), pivots)


@pytest.mark.parametrize("pattern, feasible", [(24, False), (0, True)])
def test_integer_simplex_matches_reference_on_cube_support_lps(pattern, feasible, pivots):
    datum = toric_datum(3)
    cones = [ColoredCone(cone_from_generators(c, 3)) for c in cube_pattern_cones(pattern)]
    lp = build_support_lp(datum, fan_from_maximal_cones(datum, cones), check=False)
    assert (lp.num_vars, len(lp.ineq_constraints)) == (36, 528)
    x = assert_matches_reference(lp, pivots)
    assert (x is not None) == feasible
    assert len(pivots) > 100


def negative_lp(rng: random.Random) -> LPProblem:
    """An LP without equalities that holds some ``-t_j >= b`` with b > 0, so
    every feasible point needs a negative free value; rows with right hand
    side 0 and rows copied at a positive multiple make degenerate and tied
    ratio tests."""
    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 6)):
        a = [rng.randint(-3, 3) for _ in range(n)]
        b = rng.choice((-1, 0, 0, 1, 2))
        rows.append((a, b))
        if rng.random() < 0.4:
            k = rng.randint(2, 3)
            rows.append(([k * x for x in a], k * b))
    for j in rng.sample(range(n), rng.randint(1, n)):
        e = [0] * n
        e[j] = -1
        rows.append((e, rng.randint(1, 2)))
    rng.shuffle(rows)
    return LPProblem(n, (), tuple(constraint(a, b) for a, b in rows))


def test_q_columns_and_tied_ratios_match_reference(monkeypatch, pivots):
    """Points with negative coordinates, which only a basic q column of the
    split t = p - q can give, and minimum ratios attained by several rows,
    at zero and above, all pivot for pivot as the Fraction simplex."""
    ties = set()
    pivot, phase_one = linprog._pivot, linprog._phase_one

    def tie_recording(rows, rhs, r, p, hits):
        # the reduced costs, the last row, are negative in the entering column
        ratios = [Fraction(rhs[i], f) for i, f in hits if f > 0]
        low = min(ratios)
        if ratios.count(low) > 1:
            ties.add(low > 0)
        return pivot(rows, rhs, r, p, hits)

    points = []

    def recording(num_vars, ineqs):
        out = phase_one(num_vars, ineqs)
        points.append(out)
        return out

    monkeypatch.setattr(linprog, "_pivot", tie_recording)
    monkeypatch.setattr(linprog, "_phase_one", recording)
    rng = random.Random(5011)
    feasible = 0
    for _ in range(60):
        lp = negative_lp(rng)
        points.clear()
        x = assert_matches_reference(lp, pivots)
        assert (x is not None) == fourier_motzkin(lp)
        if x is not None:
            feasible += 1
            assert lp.satisfied_by(x)
            ((nums, _),) = points
            assert min(nums) < 0
    # both outcomes, and ties at a zero and at a positive ratio
    assert 10 < feasible < 50
    assert ties == {False, True}


def random_rational_lp(rng: random.Random) -> LPProblem:
    n = rng.randint(1, 5)
    m = rng.randint(1, 9)
    eqs, ineqs = [], []
    for _ in range(m):
        a = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n))
        b = rng.choice((-1, 0, 1)) * Fraction(rng.randint(1, 5), rng.randint(1, 6))
        (eqs if rng.random() < 0.2 else ineqs).append((a, b))
    return LPProblem(n, tuple(eqs), tuple(ineqs))


def test_rational_input_matches_reference_and_oracle(pivots):
    rng = random.Random(4099)
    feasible = infeasible = 0
    signs = set()
    for _ in range(300):
        lp = random_rational_lp(rng)
        signs.update((b > 0) - (b < 0) for _, b in lp.ineq_constraints)
        x = assert_matches_reference(lp, pivots)
        assert (x is not None) == fourier_motzkin(lp)
        if x is None:
            infeasible += 1
        else:
            feasible += 1
            assert lp.satisfied_by(x)
    # right hand sides of every sign, and both outcomes
    assert signs == {-1, 0, 1}
    assert feasible > 30 and infeasible > 30


def test_satisfied_by_matches_fraction_reference():
    """Random assignments, and ones put exactly on a row or 1/q off it."""
    rng = random.Random(6151)
    outcomes = set()
    for _ in range(300):
        lp = random_rational_lp(rng)
        n = lp.num_vars
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
        assert lp.satisfied_by(tuple(x)) == reference_satisfied_by(lp, x)
        kinds = [eq for eq in (True, False) if (lp.eq_constraints if eq else lp.ineq_constraints)]
        is_eq = rng.choice(kinds)
        rows = lp.eq_constraints if is_eq else lp.ineq_constraints
        a, b = rng.choice(rows)
        j = next((j for j, c in enumerate(a) if c), None)
        if j is None:
            continue
        # move x onto the row's boundary, then 1/q below or above it
        x[j] += (b - sum(c * v for c, v in zip(a, x))) / a[j]
        q = rng.randint(1, 7)
        for miss in (0, -1, 1):
            y = list(x)
            y[j] += Fraction(miss, q) / a[j]
            alone = LPProblem(n, ((a, b),) if is_eq else (), () if is_eq else ((a, b),))
            assert alone.satisfied_by(y) == (miss == 0 or (miss > 0 and not is_eq))
            assert lp.satisfied_by(y) == reference_satisfied_by(lp, y)
            outcomes.add((is_eq, miss, lp.satisfied_by(y), (b > 0) - (b < 0)))
    # both verdicts, on rows of both kinds and right hand sides of every sign
    assert {(e, v, s) for e, _, v, s in outcomes} >= {
        (e, v, s) for e in (False, True) for v in (False, True) for s in (-1, 0, 1)
    }


def test_satisfied_by_rejects_wrong_length():
    lp = LPProblem(2, ineq_constraints=(constraint([1, 0], 0),))
    for x in ((Fraction(1),), (1, 2, 3)):
        with pytest.raises(ValueError):
            lp.satisfied_by(x)


def dense_rational_lp(rng: random.Random) -> LPProblem:
    n = rng.randint(1, 6)
    m = rng.randint(1, 12)
    eqs, ineqs = [], []
    for _ in range(m):
        a = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        (eqs if rng.random() < 0.2 else ineqs).append((a, b))
    return LPProblem(n, tuple(eqs), tuple(ineqs))


def test_fourier_motzkin_stays_small_on_dense_rational_lps():
    # without Chernikov's rule the batch of seed 2 exhausts 1.5 GB
    outcomes = []
    for seed in (4099, 2):
        rng = random.Random(seed)
        for _ in range(300):
            lp = dense_rational_lp(rng)
            verdict = fourier_motzkin(lp)
            assert verdict == (lp_feasible(lp) is not None)
            outcomes.append(verdict)
    assert 200 < sum(outcomes) < 400


def recorded_lps(monkeypatch, datum, make_fans):
    """The relint LPs that building and validating the fans sets up, and the
    fans' support LPs, each with the LP that the Fraction reference
    assembles from the same cones."""
    calls = []
    relint, solve = colored.relative_interior_meets, colored.lp_feasible

    def recording_relint(d, *cones):
        calls.append((d, cones))
        return relint(d, *cones)

    def recording_solve(lp):
        calls[-1] += (lp,)
        return solve(lp)

    monkeypatch.setattr(colored, "relative_interior_meets", recording_relint)
    monkeypatch.setattr(colored, "lp_feasible", recording_solve)
    fans = make_fans()
    supports = [build_support_lp(datum, fan) for fan in fans]
    relints = [(lp, reference_relint_lp(d, *cones)) for d, cones, lp in calls]
    return relints, [
        (lp, reference_support_lp(datum, maximal_members(datum, fan)))
        for lp, fan in zip(supports, fans)
    ]


@pytest.mark.parametrize("case", ["cube 24", "cube 0", "plane fans"])
def test_integral_lp_constructor_matches_public_one(case, monkeypatch, pivots):
    """The relint and support LPs, built from the cones' integer rows, are the
    LPs that the public constructor makes of their Fraction rows, and are
    solved with the same pivots as by the Fraction simplex."""
    if case == "plane fans":
        datum = toric_datum(2)
        rng = random.Random(3307)
        make_fans = lambda: [random_complete_2d_fan(rng, datum, 6) for _ in range(8)]  # noqa: E731
    else:
        datum = toric_datum(3)
        cones = [ColoredCone(cone_from_generators(c, 3)) for c in cube_pattern_cones(int(case[5:]))]
        make_fans = lambda: [fan_from_maximal_cones(datum, cones)]  # noqa: E731
    relints, supports = recorded_lps(monkeypatch, datum, make_fans)
    assert len(relints) > 200
    for lp, reference in relints + supports:
        public = LPProblem(lp.num_vars, lp.eq_constraints, lp.ineq_constraints)
        for other in (reference, public):
            assert lp == other and hash(lp) == hash(other) and repr(lp) == repr(other)
        assert (lp._eqs, lp._ineqs) == (public._eqs, public._ineqs)
    # the cube support LPs are solved against the reference in
    # test_integer_simplex_matches_reference_on_cube_support_lps
    solved = relints + supports if case == "plane fans" else relints
    for lp in {repr(lp): lp for lp, _ in solved}.values():
        assert_matches_reference(lp, pivots)

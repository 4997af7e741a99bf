import hashlib
import operator
import random
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import cube_pattern_cones, random_complete_2d_fan, toric_datum
from reference_exact import reference_relint_lp, reference_satisfied_by, reference_support_lp
from reference_simplex import reference_lp_feasible
from test_fan_facts import FIXTURES
from test_galois import KFORM_CASES, _kform_case

from coloredfans import colored, fileio, galois, linprog, quasiproj
from coloredfans.colored import (
    ColoredCone,
    SphericalDatum,
    fan_from_maximal_cones,
    member_sort_key,
    validate_colored_cone,
    validate_colored_fan,
)
from coloredfans.cones import cone_from_generators
from coloredfans.errors import EliminationCapError
from coloredfans.linalg import identity
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
    """The (entering, leaving) labels of the simplex pivots since the last
    reset (``pivots.clear()``), one per call of ``_pivot``."""
    calls = []
    pivot = linprog._pivot

    def recording(table, enter, leave):
        calls.append((enter, leave))
        return pivot(table, enter, leave)

    monkeypatch.setattr(linprog, "_pivot", recording)
    return calls


def assert_matches_reference(lp: LPProblem, pivots: list):
    """Same assignment, to the repr, and the same (entering, leaving) pivots
    as the Fraction simplex."""
    pivots.clear()
    x = lp_feasible(lp)
    expected, path = reference_lp_feasible(lp)
    assert repr(x) == repr(expected)
    assert pivots == path
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

    def tie_recording(table, enter, leave):
        # the LPs have at most 16 rows, so they pivot on the tableau, whose
        # reduced costs, the last row, are negative in the entering column
        ratios = [Fraction(table.rhs[i], f) for i, f in table.hits if f > 0]
        low = min(ratios)
        if ratios.count(low) > 1:
            ties.add(low > 0)
        return pivot(table, enter, leave)

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


def repeated_lp(rng: random.Random) -> LPProblem:
    """An LP without equalities whose rows repeat: up to three copies of rows
    with b <= 0 and with b > 0, copies at a positive multiple, and repeated
    rows ``-t_j >= b`` with b > 0, which need a negative free value."""
    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(2, 6)):
        a = [rng.randint(-3, 3) for _ in range(n)]
        b = rng.choice((-1, 0, 0, 1, 2))
        rows += [(a, b)] * rng.choice((1, 2, 2, 3))
        if rng.random() < 0.3:
            k = rng.randint(2, 3)
            rows.append(([k * x for x in a], k * b))
    for j in rng.sample(range(n), rng.randint(0, n)):
        e = [0] * n
        e[j] = -1
        rows += [(e, rng.randint(1, 2))] * rng.randint(1, 2)
    rng.shuffle(rows)
    return LPProblem(n, (), tuple(constraint(a, b) for a, b in rows))


def test_repeated_rows_pivot_as_the_full_tableau(monkeypatch, pivots):
    """LPs with repeated rows take the Fraction simplex's (entering, leaving)
    path on the tableau and return its point to the repr, q columns
    included.  After each pivot the entering label is basic in the pivot
    row alone, and the leaving one nowhere."""
    seen = set()
    pivot = linprog._pivot

    def watching(table, enter, leave):
        assert type(table) is linprog._Tableau
        r = table.r
        pivot(table, enter, leave)
        assert table.basis[r] == enter and table.basis.count(enter) == 1
        assert leave not in table.basis

    # the LPs have up to 32 rows: every one on the tableau
    monkeypatch.setattr(linprog, "REVISED_ROWS", 32)
    monkeypatch.setattr(linprog, "_pivot", watching)
    rng = random.Random(7331)
    outcomes = []
    for _ in range(150):
        lp = repeated_lp(rng)
        x = assert_matches_reference(lp, pivots)
        outcomes.append(x is not None)
        if x is not None and min(x) < 0:
            seen.add("negative")
    assert 20 < sum(outcomes) < 130
    assert seen == {"negative"}


def test_cube_support_lps_keep_their_pivots_and_points(pivots):
    """The support LPs of all 64 cube patterns: the pivot count and point of
    each, hashed, as the full tableau gives them."""
    # about 1.5 s on a 2-core x86_64 box with Python 3.11
    datum = toric_datum(3)
    digest = hashlib.sha256()
    total = 0
    for index in range(64):
        given = [ColoredCone(cone_from_generators(c, 3)) for c in cube_pattern_cones(index)]
        maximal = sorted(given, key=member_sort_key)
        lp = quasiproj._support_lp(datum, maximal, quasiproj._valuation_parts(datum, maximal))
        pivots.clear()
        x = lp_feasible(lp)
        total += len(pivots)
        digest.update(f"{index} {len(pivots)} {x!r}\n".encode())
    assert total == 16817
    assert digest.hexdigest() == "8b3fa454450a0d4cb67d7df44d22375122071e40cad432627d109ab4baf5ffe7"


def test_revised_basis_matches_reference(monkeypatch, pivots):
    """With the switch at zero rows every LP pivots on the exact basis
    inverse, and the LPs of ``random_lp``, ``negative_lp``, ``repeated_lp``
    and ``random_rational_lp``, with and without equalities, take the
    Fraction simplex's pivots and reach its point.  The
    pivots make all four basis changes: a column enters with a new tight
    row, a column replaces a column, a tight row is swapped, and a tight row
    and a column leave."""
    changes = set()
    pivot = linprog._pivot

    def classifying(table, enter, leave):
        assert type(table) is linprog._Revised
        # a structural column (p or q) enters or leaves, or a row's slack or
        # artificial does
        changes.add((enter < 2 * table.nv, leave < 2 * table.nv))
        return pivot(table, enter, leave)

    monkeypatch.setattr(linprog, "REVISED_ROWS", 0)
    monkeypatch.setattr(linprog, "_pivot", classifying)
    cases = ((random_lp, 1729, 200), (negative_lp, 5011, 60), (repeated_lp, 7331, 150))
    cases += ((random_rational_lp, 4099, 300),)
    for make, seed, count in cases:
        rng = random.Random(seed)
        for _ in range(count):
            assert_matches_reference(make(rng), pivots)
    assert changes == {(True, False), (True, True), (False, False), (False, True)}


def switch_lp(rng: random.Random, m: int, feasible: bool) -> LPProblem:
    """An LP of four variables, one equality and m inequality rows that hold
    at a seeded integer point, some of them tightly; when not feasible, the
    last row contradicts the first."""
    x0 = [rng.randint(-2, 2) for _ in range(4)]
    rows = []
    for _ in range(m):
        a = [rng.randint(-3, 3) for _ in range(4)]
        rows.append((a, sum(map(operator.mul, a, x0)) - rng.choice((0, 0, 1, 2))))
    if not feasible:
        a, b = rows[0]
        rows[-1] = ([-x for x in a], 1 - b)
    eq = [rng.randint(-2, 2) for _ in range(4)]
    eqs = (constraint(eq, sum(map(operator.mul, eq, x0))),)
    return LPProblem(4, eqs, tuple(constraint(a, b) for a, b in rows))


@pytest.mark.parametrize("extra", [0, 1])
def test_switch_size_picks_the_representation(extra, monkeypatch, pivots):
    """LPs of ``REVISED_ROWS`` inequality rows after their equality is
    substituted pivot on the tableau, and LPs of one row more on the
    revised basis; both as the Fraction simplex."""
    kinds = set()
    pivot = linprog._pivot

    def typing(table, enter, leave):
        kinds.add(type(table))
        return pivot(table, enter, leave)

    monkeypatch.setattr(linprog, "_pivot", typing)
    rng = random.Random(9109 + extra)
    outcomes = []
    for k in range(6):
        lp = switch_lp(rng, linprog.REVISED_ROWS + extra, k % 2 == 0)
        outcomes.append(assert_matches_reference(lp, pivots) is not None)
    assert outcomes == [True, False] * 3
    assert kinds == {linprog._Revised if extra else linprog._Tableau}


def test_switch_sends_support_lps_to_the_revised_basis(monkeypatch):
    """Where the switch sends the library's LPs: the support LPs of the
    fixtures ``fan_p2.json`` and ``fan_p1xp1.json``, of 18 and 36 inequality
    rows after their equalities are substituted, pivot on the revised basis;
    the relint LPs of a cube pattern's fan and the orbit LPs of the kform
    catalogue, of at most 15, pivot on the tableau."""
    kind, rows, seen = [None], {}, set()
    pivot = linprog._pivot

    def typing(table, enter, leave):
        seen.add((kind[0], type(table)))
        return pivot(table, enter, leave)

    def tagging(module, name):
        solve = module.lp_feasible

        def tagged(lp):
            kind[0] = name
            rows.setdefault(name, set()).add(len(linprog._substitute_equalities(lp)[3]))
            return solve(lp)

        monkeypatch.setattr(module, "lp_feasible", tagged)

    monkeypatch.setattr(linprog, "_pivot", typing)
    tagging(colored, "relint")
    tagging(galois, "orbit")
    tagging(linprog, "support")
    datum = toric_datum(3)
    cones = [ColoredCone(cone_from_generators(c, 3)) for c in cube_pattern_cones(24)]
    assert validate_colored_fan(datum, fan_from_maximal_cones(datum, cones)).passed
    assert seen == {("relint", linprog._Tableau)}
    for case in KFORM_CASES:
        datum, fan, action = _kform_case(case, identity(case[1]))
        _, orbits, edges = galois._image_table(action, fan, None)
        for orbit in orbits.values():
            galois._orbit_forms(datum, action, orbit, edges)
    for name in ("fan_p2.json", "fan_p1xp1.json"):
        inputs = fileio.parse_inputs(FIXTURES / "datum_toric2.json", FIXTURES / name)
        linprog.lp_feasible(build_support_lp(inputs.datum, inputs.fan))
    assert seen == {
        ("relint", linprog._Tableau),
        ("orbit", linprog._Tableau),
        ("support", linprog._Revised),
    }
    assert rows["support"] == {18, 36}
    assert max(rows["relint"]) <= 15 and max(rows["orbit"]) == 15


def rank_one_fans(rng: random.Random, datum):
    """Eight seeded valid fans on the line, each the closure of one or two
    valid colored cones on the rays (1) and (-1)."""
    cones = [
        ColoredCone(cone_from_generators([ray], 1), frozenset(colors))
        for ray in ((1,), (-1,))
        for k in range(len(datum.colors) + 1)
        for colors in combinations(datum.colors, k)
    ]
    cones = [cc for cc in cones if validate_colored_cone(datum, cc).passed]
    fans = []
    while len(fans) < 8:
        fan = fan_from_maximal_cones(datum, rng.sample(cones, rng.randint(1, 2)))
        if validate_colored_fan(datum, fan).passed:
            fans.append(fan)
    return fans


def test_simplex_agrees_with_fourier_motzkin_on_small_support_lps():
    """Support LPs of at most 8 variables, from complete plane fans with 3-4
    rays and from toric and horospherical rank-one fans, and each of them
    with its first witness row negated: (l_Z - l_Z') . w <= -1 at the sum w
    of the rays of K, against (l_Z - l_Z') . g >= 0 on each of them, which
    no point satisfies."""
    rng = random.Random(8117)
    plane = toric_datum(2)
    horospherical = SphericalDatum(1, cone_from_generators([(1,), (-1,)], 1), ("D",), {"D": (1,)})
    cases = [(plane, random_complete_2d_fan(rng, plane, 4)) for _ in range(12)]
    cases += [(d, fan) for d in (toric_datum(1), horospherical) for fan in rank_one_fans(rng, d)]
    verdicts, sizes = [], set()
    for datum, fan in cases:
        lp = build_support_lp(datum, fan)
        sizes.add((datum.dim, lp.num_vars))
        variants = [lp]
        witness = next((k for k, (_, b) in enumerate(lp.ineq_constraints) if b > 0), None)
        if witness is not None:
            rows = list(lp.ineq_constraints)
            a, b = rows[witness]
            rows[witness] = (tuple(-x for x in a), b)
            variants.append(LPProblem(lp.num_vars, lp.eq_constraints, tuple(rows)))
        for k, variant in enumerate(variants):
            x = lp_feasible(variant)
            assert (x is not None) == fourier_motzkin(variant) == (k == 0)
            verdicts.append(x is not None)
    # plane fans of 6 and 8 variables, rank-one fans of 1 and 2
    assert sizes == {(2, 6), (2, 8), (1, 1), (1, 2)}
    assert len(verdicts) > 40


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

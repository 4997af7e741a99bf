"""Seeded inputs, queries and verdict checks for the benchmark workloads.

Inputs are plain integer data made from the workload seed.  A query turns that
data into fresh library objects and asks for one verdict, so no cache carries
over from one query to the next.  ``run`` is the timed part; ``check`` compares
the answer with a golden table or a known ground truth and runs outside the
timer.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from fractions import Fraction
from math import gcd
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN_CUBE = BENCH_DIR / "golden_cube.json"
OUT = BENCH_DIR / "out"

# -- plain integer helpers (the benchmark's own; the library is never asked) --


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class BaseChange:
    """A seeded unimodular matrix U and its inverse: ``shears`` row operations
    row_i += c row_j with c = +-1, then a signed permutation of the rows.

    Every base change has the same number of shears, so the size of the moved
    entries, and with it the cost of a query, varies little from seed to seed.
    """

    def __init__(self, rng: random.Random, dim: int, shears: int = 2):
        u, inv = identity(dim), identity(dim)
        for _ in range(shears if dim > 1 else 0):
            i, j = rng.sample(range(dim), 2)
            c = rng.choice((-1, 1))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            for row in inv:
                row[j] -= c * row[i]
        order = rng.sample(range(dim), dim)
        signs = [rng.choice((-1, 1)) for _ in range(dim)]
        self.u = [[s * x for x in u[k]] for s, k in zip(signs, order)]
        self.inv = [[s * row[k] for s, k in zip(signs, order)] for row in inv]

    def vector(self, v):
        return [sum(x * y for x, y in zip(row, v)) for row in self.u]

    def vectors(self, vs):
        return [self.vector(v) for v in vs]

    def conjugate(self, m):
        """U M U^-1: the same map written in the moved coordinates."""
        return matmul(matmul(self.u, m), self.inv)


def entry_bits(values) -> int:
    """Bit length of the largest integer in nested lists and JSON objects."""
    if isinstance(values, (bool, str)):
        return 0
    if isinstance(values, int):
        return abs(values).bit_length()
    if isinstance(values, dict):
        values = values.values()
    return max((entry_bits(v) for v in values), default=0)


def toric_generators(dim):
    out = []
    for i in range(dim):
        e = [int(i == j) for j in range(dim)]
        out.append(e)
        out.append([-x for x in e])
    return out


# -- cube3d -----------------------------------------------------------------


def cube_patterns():
    """The 64 complete simplicial fans over the cube's boundary.

    Each of the six faces is split along one of its two diagonals; bit f of
    the pattern index picks the diagonal of face f.  Every triangle spans one
    maximal cone with the origin.
    """
    out = []
    for p in range(64):
        cones = []
        f = 0
        for axis in range(3):
            a, b = [i for i in range(3) if i != axis]
            for side in (1, -1):
                if (p >> f) & 1 == 0:
                    diag, off = ((1, 1), (-1, -1)), ((1, -1), (-1, 1))
                else:
                    diag, off = ((1, -1), (-1, 1)), ((1, 1), (-1, -1))
                f += 1

                def corner(x, y):
                    v = [0, 0, 0]
                    v[axis], v[a], v[b] = side, x, y
                    return tuple(v)

                for o in off:
                    cones.append((corner(*diag[0]), corner(*diag[1]), corner(*o)))
        out.append(tuple(cones))
    return out


# -- the workloads --------------------------------------------------------------


class Workload:
    """Inputs for one seed; ``run(i)`` is query i, cycling through the inputs."""

    name = ""
    round_size = 1  # queries per round; a run takes whole rounds
    # Nominal seconds of one round: a run of --seconds S takes round(S / round_s)
    # rounds, so its size depends on S only, never on the speed of the box.
    round_s = 1.0

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs: list = []
        self.max_entry_bits = 0

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, answer) -> str | None:
        """None when the answer is right, else what is wrong with it."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Write what the queries read from disk (untimed: the benchmark's own I/O)."""

    def close(self) -> None:
        """Remove what ``prepare`` wrote."""

    # shared pieces

    def datum(self, dim, generators, colors=()):
        lib = self.lib
        valuation = lib.cones.cone_from_generators(generators, dim)
        names = tuple(name for name, _ in colors)
        return lib.colored.SphericalDatum(dim, valuation, names, dict(colors))

    def fan(self, datum, cones):
        lib = self.lib
        return lib.colored.fan_from_maximal_cones(
            datum,
            [
                lib.colored.ColoredCone(lib.cones.cone_from_generators(rays, datum.dim), colors)
                for rays, colors in cones
            ],
        )

    def witness_error(self, datum, fan, result) -> str | None:
        """Re-check a positive quasiprojectivity witness against the support LP."""
        lp = self.lib.quasiproj.build_support_lp(datum, fan, check=False)
        maximal = self.lib.quasiproj.maximal_members(datum, fan)
        if tuple(form.cone for form in result.witness) != maximal:
            return "witness forms are not attached to the maximal cones in fan order"
        assignment = tuple(x for form in result.witness for x in form.coefficients)
        if not lp.satisfied_by(assignment):
            return "witness fails the support LP"
        return None


class QuasiprojectiveWorkload(Workload):
    """Query: build the fan from its maximal cones, then decide it."""

    def run(self, i):
        dim, generators, cones, _ = self.inputs[i % len(self.inputs)]
        datum = self.datum(dim, generators)
        fan = self.fan(datum, [(c, ()) for c in cones])
        return datum, fan, self.lib.quasiproj.is_quasiprojective(datum, fan, check=True)

    def check(self, i, answer):
        expected = self.inputs[i % len(self.inputs)][3]
        datum, fan, result = answer
        if result.verdict != expected:
            return f"verdict {result.verdict}, expected {expected}"
        if not result.verdict:
            return None if result.witness is None else "negative verdict with a witness"
        return self.witness_error(datum, fan, result)


# The cube patterns in the order the queries take them: one non-quasiprojective
# pattern, then two quasiprojective ones, starting with the twisted cube (24),
# so that every run of a few queries sees both verdicts in about the table's
# ratio (18 to 46).  A run of 20 s decides the first six, two negative and four
# positive, whatever the seed: the seed changes only the signed permutations.
# A negative verdict takes fewer pivots than a positive one, so with four
# positives in six the median query is a positive one, not the gap between
# the two.  ``make_golden.py`` decides all 64.
def cube_order(golden):
    no = [r["index"] for r in golden["patterns"] if not r["quasiprojective"]]
    yes = [r["index"] for r in golden["patterns"] if r["quasiprojective"]]
    no.remove(TWISTED_CUBE)
    no.insert(0, TWISTED_CUBE)
    order = []
    while no or yes:
        order.extend(xs.pop(0) for xs in (no, yes, yes) if xs)
    return order


TWISTED_CUBE = 24


class Cube3d(QuasiprojectiveWorkload):
    name = "cube3d"
    round_s = 3.3

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        golden = json.loads(GOLDEN_CUBE.read_text())
        patterns = {r["index"]: r for r in golden["patterns"]}
        for index in cube_order(golden):
            # Shears change the simplex's pivot path and made the cost of one
            # pattern vary 1.6x from seed to seed; signed permutations do not.
            change = BaseChange(self.rng, 3, shears=0)
            cones = [change.vectors(c) for c in patterns[index]["cones"]]
            generators = change.vectors(toric_generators(3))
            self.inputs.append((3, generators, cones, patterns[index]["quasiprojective"]))
        self.max_entry_bits = entry_bits([x[2] for x in self.inputs])


def _angle_key(v):
    x, y = v
    if y == 0:
        return (0 if x > 0 else 2, 0)
    return (1 if y > 0 else 3, Fraction(-x, y))


def random_plane_fan(rng: random.Random, max_rays: int = 6):
    """Maximal cones of a random complete plane fan: primitive rays in angular
    order, one cone per consecutive pair, every sector strictly convex."""
    while True:
        rays = set()
        for _ in range(rng.randint(3, max_rays)):
            x, y = rng.randint(-4, 4), rng.randint(-4, 4)
            g = gcd(x, y)
            if g:
                rays.add((x // g, y // g))
        rays = sorted(rays, key=_angle_key)
        pairs = list(zip(rays, rays[1:] + rays[:1]))
        if len(rays) >= 3 and all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in pairs):
            return [[list(a), list(b)] for a, b in pairs]


class PlaneFans(QuasiprojectiveWorkload):
    """Every complete plane fan is projective, so every verdict is True.

    One round holds one fan with each ray count from 3 to 6 and a second
    one with 5 rays, in a seeded order, so that the cost mix of a run does
    not hang on the seed.  The cost grows with the ray count in steps, and
    with two 5-ray fans in five the median query is a 5-ray one, not the
    gap between the 4-ray and the 5-ray fans.
    """

    name = "plane_fans"
    mix = (3, 4, 5, 5, 6)
    round_size = len(mix)
    round_s = 1.0
    rounds = 100

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        generators = toric_generators(2)
        drawn = {k: [] for k in self.mix}
        for _ in range(self.rounds):
            fans = []
            for k in self.mix:
                while not drawn[k]:
                    cones = random_plane_fan(self.rng)
                    drawn[len(cones)].append(cones)
                fans.append(drawn[k].pop())
            self.rng.shuffle(fans)
            self.inputs.extend((2, generators, cones, True) for cones in fans)
        self.max_entry_bits = entry_bits([x[2] for x in self.inputs])


# -- kform_orbits -----------------------------------------------------------

SWAP2 = [[0, 1], [1, 0]]
P2 = [[[1, 0], [0, 1]], [[0, 1], [-1, -1]], [[-1, -1], [1, 0]]]
SQUARE = [[[1, 0], [0, 1]], [[0, 1], [-1, 0]], [[-1, 0], [0, -1]], [[0, -1], [1, 0]]]
HEXAGON_RAYS = [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]
HEXAGON = [[a, b] for a, b in zip(HEXAGON_RAYS, HEXAGON_RAYS[1:] + HEXAGON_RAYS[:1])]
OCTANTS = [
    [[x, 0, 0], [0, y, 0], [0, 0, z]] for x in (1, -1) for y in (1, -1) for z in (1, -1)
]
CYCLE3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
SWAP_XY = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
QUARTER_XY = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]


def _uncolored(cones):
    return [(c, ()) for c in cones]


# (name, dim, valuation generators, colors, maximal cones, group generators,
#  expected (verdict, invariant, orbit fans quasiprojective)).
# Toric data use the whole space as valuation cone.  Every complete fan here is
# the fan of a smooth projective toric variety, so each invariant case is a
# k-form; the others are not invariant and stop at condition (a).
KFORM_CATALOGUE = (
    ("p2_s3", 2, None, (), _uncolored(P2),
     [([[0, -1], [1, -1]], {}), (SWAP2, {})], (True, True, True)),
    ("p1xp1_d4", 2, None, (), _uncolored(SQUARE),
     [([[0, -1], [1, 0]], {}), (SWAP2, {})], (True, True, True)),
    ("hexagon_d6", 2, None, (), _uncolored(HEXAGON),
     [([[1, -1], [1, 0]], {}), (SWAP2, {})], (True, True, True)),
    ("rank1_color_swap", 1, [[-1]], (("D+", [1]), ("D-", [1])), [([[-1]], ())],
     [([[1]], {"D+": "D-", "D-": "D+"})], (True, True, True)),
    ("line_color_moved", 1, [[1], [-1]], (("D1", [1]), ("D2", [1])),
     [([[1]], ("D1",)), ([[-1]], ())],
     [([[1]], {"D1": "D2", "D2": "D1"})], (False, False, None)),
    ("ray_swap", 2, None, (), [([[1, 0]], ())], [(SWAP2, {})], (False, False, None)),
    ("p2_quarter_turn", 2, None, (), _uncolored(P2),
     [([[0, -1], [1, 0]], {})], (False, False, None)),
    ("octant_one_cone_inversion", 3, None, (), _uncolored(OCTANTS[:1]),
     [([[-1, 0, 0], [0, -1, 0], [0, 0, -1]], {})], (False, False, None)),
)
# The octant fan of (P1)^3 under subgroups of order 2, 6 and 8: the costly
# entries, one of which joins each round in turn.
OCTANT_GROUPS = (
    ("octant_inversion", 3, None, (), _uncolored(OCTANTS),
     [([[-1, 0, 0], [0, -1, 0], [0, 0, -1]], {})], (True, True, True)),
    ("octant_s3", 3, None, (), _uncolored(OCTANTS),
     [(CYCLE3, {}), (SWAP_XY, {})], (True, True, True)),
    ("octant_d4", 3, None, (), _uncolored(OCTANTS),
     [(QUARTER_XY, {}), (SWAP_XY, {})], (True, True, True)),
)


class KformOrbits(Workload):
    """Query: build datum, fan and action, then ``has_k_form(check=True)``.

    One round takes every catalogue entry and one octant group, in a seeded
    order and each under a fresh base change; the octant groups take turns,
    so three rounds hold each of them once.
    """

    name = "kform_orbits"
    # P2 under S3 is taken five times a round, so that the median query of a
    # round is always one of them: with the five cheaper entries below and the
    # three dearer ones above (counting the octant group), query_s.p50 times
    # the whole has_k_form path (group closure, images, orbit fans, their
    # quasiprojectivity and the F2 pair tests) on one invariant input.
    repeats = {"p2_s3": 5}
    round_size = len(KFORM_CATALOGUE) + 4 + 1
    round_s = 7.5
    rounds = 40

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        catalogue = [e for e in KFORM_CATALOGUE for _ in range(self.repeats.get(e[0], 1))]
        for r in range(self.rounds):
            entries = catalogue + [OCTANT_GROUPS[r % len(OCTANT_GROUPS)]]
            self.rng.shuffle(entries)
            for name, dim, gens, colors, cones, group, expected in entries:
                change = BaseChange(self.rng, dim)
                self.inputs.append((
                    name,
                    dim,
                    change.vectors(gens or toric_generators(dim)),
                    tuple((c, change.vector(rho)) for c, rho in colors),
                    [(change.vectors(rays), cc) for rays, cc in cones],
                    [(change.conjugate(m), perm) for m, perm in group],
                    expected,
                ))
        self.max_entry_bits = entry_bits([x[2:6] for x in self.inputs])

    def run(self, i):
        _, dim, gens, colors, cones, group, _ = self.inputs[i % len(self.inputs)]
        galois = self.lib.galois
        datum = self.datum(dim, gens, colors)
        fan = self.fan(datum, cones)
        action = galois.action_from_generators(
            datum, [galois.GroupElement.make(m, perm) for m, perm in group]
        )
        return galois.has_k_form(datum, action, fan, check=True)

    def check(self, i, answer):
        entry = self.inputs[i % len(self.inputs)]
        name, expected = entry[0], entry[6]
        got = (answer.verdict, answer.invariant, answer.orbits_quasiprojective)
        return None if got == expected else f"{name}: got {got}, expected {expected}"


# -- cli_files --------------------------------------------------------------

# (command, fixture files by flag, --lambda, --force-lp, expected exit code).
# The exit codes are those the test suite asserts on these fixtures, and 0 for
# the P1 and P1xP1 fans, which are projective, and for a datum alone.
CLI_COMMANDS = (
    ("validate", {"datum": "datum_p1.json", "fan": "fan_p1.json"}, None, False, 0),
    ("validate", {"datum": "datum_toric2.json"}, None, False, 0),
    ("validate", {"datum": "datum_horo1.json", "fan": "fan_horo_p1.json"}, None, False, 0),
    ("validate", {"datum": "datum_toric2.json", "fan": "fan_p1xp1.json",
                  "action": "action_swap.json"}, None, False, 0),
    ("quasiproj", {"datum": "datum_p1.json", "fan": "fan_p1.json"}, None, False, 0),
    ("quasiproj", {"datum": "datum_toric2.json", "fan": "fan_p2.json"}, None, False, 0),
    ("quasiproj", {"datum": "datum_toric2.json", "fan": "fan_p1xp1.json"}, None, False, 0),
    ("quasiproj", {"datum": "datum_horo1.json", "fan": "fan_horo_p1.json"}, None, False, 0),
    ("kform", {"datum": "datum_toric2.json", "fan": "fan_p1xp1.json",
               "action": "action_swap.json"}, None, False, 0),
    ("kform", {"datum": "datum_toric2.json", "fan": "fan_single_ray.json",
               "action": "action_swap.json"}, None, False, 1),
    ("kform", {"datum": "datum_rank1.json", "fan": "fan_rank1_back.json",
               "action": "action_rank1_swap.json"}, None, False, 0),
    ("monoid", {"datum": "datum_toric2.json", "fan": "fan_a2_monoid.json"}, None, False, 0),
    ("monoid", {"datum": "datum_rank1.json", "fan": "fan_rank1_monoid_candidate.json"},
     None, False, 1),
    ("monoid-kform", {"datum": "datum_toric2.json", "fan": "fan_a2_monoid.json",
                      "action": "action_swap.json"}, None, True, 0),
    ("morphism", {"datum": "datum_toric2.json", "fan": "fan_quadrant.json",
                  "morphism": "morphism_projection.json"}, None, False, 0),
    ("lined", {"theta": "theta_neg.json"}, [1], False, 0),
    ("lined", {"theta": "theta_id2.json"}, [1, 0], False, 1),
)
CLI_KEYS = {"command", "verdict", "axioms", "witnesses", "reasons"}


def _move_datum(obj, change):
    out = dict(obj)
    out["valuation_cone"] = {"generators": change.vectors(obj["valuation_cone"]["generators"])}
    out["colors"] = [{"name": c["name"], "rho": change.vector(c["rho"])}
                     for c in obj.get("colors", [])]
    return out


def _move_fan(obj, change):
    return {"cones": [dict(c, rays=change.vectors(c["rays"])) for c in obj["cones"]]}


def _move_action(obj, change):
    return {"generators": [dict(g, matrix=change.conjugate(g["matrix"]))
                           for g in obj["generators"]]}


def _move_morphism(obj, change, target):
    """Source coordinates moved by ``change``, target ones by ``target``."""
    out = dict(obj)
    out["matrix"] = matmul(matmul(target.u, obj["matrix"]), change.inv)
    out["target_datum"] = _move_datum(obj["target_datum"], target)
    out["target_fan"] = _move_fan(obj["target_fan"], target)
    return out


class CliFiles(Workload):
    """Query: one ``coloredfans`` command through ``cli.main`` with ``--json``.

    The fixtures are rewritten under seeded base changes; a unimodular base
    change keeps every verdict, so the expected exit codes are those of the
    fixtures.  Set-up makes the files in memory and ``prepare`` writes them
    into a directory of the benchmark's own, once per run.  One round runs
    every command once, in a seeded order.
    """

    name = "cli_files"
    round_size = len(CLI_COMMANDS)
    round_s = 0.8
    variants = 8
    rounds = 100

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.dir = OUT / "cli-files"
        self.files: dict[Path, str] = {}
        fixtures = {p.name: json.loads(p.read_text()) for p in FIXTURES.glob("*.json")}
        written = []
        argvs = []
        for v in range(self.variants):
            per_command = []
            for k, (command, files, weight, force_lp, expected) in enumerate(CLI_COMMANDS):
                where = self.dir / f"{v}-{k}"
                if "datum" in files:
                    dim = fixtures[files["datum"]]["dim"]
                else:
                    dim = len(weight)
                change = BaseChange(self.rng, dim)
                argv = [command]
                for flag, fixture in files.items():
                    obj = fixtures[fixture]
                    if flag == "datum":
                        obj = _move_datum(obj, change)
                    elif flag == "fan":
                        obj = _move_fan(obj, change)
                    elif flag == "action":
                        obj = _move_action(obj, change)
                    elif flag == "morphism":
                        target = BaseChange(self.rng, obj["target_datum"]["dim"])
                        obj = _move_morphism(obj, change, target)
                    elif flag == "theta":
                        obj = change.conjugate(obj)
                    path = where / fixture
                    self.files[path] = json.dumps(obj)
                    written.append(obj)
                    argv += [f"--{flag}", str(path)]
                if weight is not None:
                    moved = change.vector(weight)
                    written.append(moved)
                    argv.append("--lambda=" + ",".join(map(str, moved)))
                if force_lp:
                    argv.append("--force-lp")
                argv.append("--json")
                per_command.append((argv, expected))
            argvs.append(per_command)
        for r in range(self.rounds):
            order = list(range(len(CLI_COMMANDS)))
            self.rng.shuffle(order)
            self.inputs.extend(argvs[r % self.variants][k] for k in order)
        self.max_entry_bits = entry_bits(written)

    def run(self, i):
        argv, _ = self.inputs[i % len(self.inputs)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = self.lib.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return code, out.getvalue()

    def check(self, i, answer):
        argv, expected = self.inputs[i % len(self.inputs)]
        code, text = answer
        if code != expected:
            return f"{' '.join(argv)}: exit code {code}, expected {expected}"
        payload = json.loads(text)
        if set(payload) != CLI_KEYS:
            return f"{argv[0]}: report keys {sorted(payload)}"
        if payload["command"] != argv[0] or payload["verdict"] is not (code == 0):
            return f"{argv[0]}: report does not match the exit code"
        return None

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        for path, text in self.files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Cube3d, PlaneFans, KformOrbits, CliFiles)}

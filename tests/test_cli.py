import argparse
import errno
import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from conftest import cube_pattern_cones, moment_curve, toric_datum
from golden import GOLDEN, golden_argv, write_inputs
from random_colored import random_colored_action, random_colored_cone, random_datum

from coloredfans import cli, fileio
from coloredfans.cli import COMMANDS, main, run_command
from coloredfans.colored import ColoredCone, fan_from_maximal_cones, validate_colored_cone
from coloredfans.cones import cone_from_generators
from coloredfans.errors import InputFileError, SchemaError, SemanticError
from coloredfans.galois import apply_element
from coloredfans.quasiproj import is_quasiprojective, maximal_members

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def test_validate_p1():
    result = run_command("validate", datum_path=fx("datum_p1.json"), fan_path=fx("fan_p1.json"))
    assert result.exit_code == 0
    assert result.payload["verdict"] is True
    assert result.payload["axioms"]["F1"] and result.payload["axioms"]["F2"]


def test_quasiproj_p2_emits_witness():
    result = run_command(
        "quasiproj", datum_path=fx("datum_toric2.json"), fan_path=fx("fan_p2.json")
    )
    assert result.exit_code == 0
    assert result.payload["witnesses"]
    for witness in result.payload["witnesses"]:
        for coefficient in witness["coefficients"]:
            p, q = coefficient.split("/")
            assert int(q) > 0


def test_kform_failure_names_the_cone():
    result = run_command(
        "kform",
        datum_path=fx("datum_toric2.json"),
        fan_path=fx("fan_single_ray.json"),
        action_path=fx("action_swap.json"),
    )
    assert result.exit_code == 1
    assert any("(a)" in r for r in result.payload["reasons"])
    assert any("(1,0)" in r for r in result.payload["reasons"])


def test_kform_success():
    result = run_command(
        "kform",
        datum_path=fx("datum_toric2.json"),
        fan_path=fx("fan_p1xp1.json"),
        action_path=fx("action_swap.json"),
    )
    assert result.exit_code == 0


def test_monoid_commands():
    ok = run_command(
        "monoid", datum_path=fx("datum_toric2.json"), fan_path=fx("fan_a2_monoid.json")
    )
    assert ok.exit_code == 0
    bad = run_command(
        "monoid",
        datum_path=fx("datum_rank1.json"),
        fan_path=fx("fan_rank1_monoid_candidate.json"),
    )
    assert bad.exit_code == 1
    assert bad.payload["axioms"]["C2"] is False
    kform = run_command(
        "monoid-kform",
        datum_path=fx("datum_toric2.json"),
        fan_path=fx("fan_a2_monoid.json"),
        action_path=fx("action_swap.json"),
    )
    assert kform.exit_code == 0


def test_morphism_command(monkeypatch):
    """The loader validates the morphism data; the command does not again."""
    from coloredfans import monoid

    calls = []
    validate = monoid.validate_morphism_data

    def counting(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(fileio, "validate_morphism_data", counting)
    monkeypatch.setattr(monoid, "validate_morphism_data", counting)
    result = run_command(
        "morphism",
        datum_path=fx("datum_toric2.json"),
        fan_path=fx("fan_quadrant.json"),
        morphism_path=fx("morphism_projection.json"),
    )
    assert result.exit_code == 0
    assert result.payload["witnesses"]
    assert len(calls) == 1


def test_lined_command():
    result = run_command("lined", lambda_csv="1", theta_path=fx("theta_neg.json"))
    assert result.exit_code == 0
    result = run_command("lined", lambda_csv="1,0", theta_path=fx("theta_id2.json"))
    assert result.exit_code == 1


def test_lined_non_involution_is_input_error(tmp_path):
    theta = tmp_path / "theta.json"
    theta.write_text("[[2]]\n")
    with pytest.raises(SemanticError):
        run_command("lined", lambda_csv="1", theta_path=str(theta))


def test_lined_weight_longer_than_the_dimension_cap_exits_before_theta(
    tmp_path, monkeypatch, capsys
):
    # theta is squared exactly, which takes about 2 s at n = 65
    n = fileio.MAX_DIM + 1
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps([[-(i == j) for j in range(n)] for i in range(n)]))
    read = []
    load = fileio.load_json
    monkeypatch.setattr(fileio, "load_json", lambda path: read.append(path) or load(path))
    start = time.perf_counter()
    code = main(["lined", "--theta", str(theta), "--lambda", ",".join(["1"] * n)])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert (code, out, read) == (2, "", [])
    assert f"at most {fileio.MAX_DIM} entries" in err


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "datum.json"
    bad.write_text(json.dumps({"dim": 1, "valuation_cone": {"generators": [[0.5]]}}))
    assert main(["validate", "--datum", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


def test_deeply_nested_file_is_input_error(tmp_path, capsys):
    depth = 100000
    bad = tmp_path / "datum.json"
    bad.write_text(
        '{"dim": 1, "valuation_cone": {"generators": ' + "[" * depth + "]" * depth + "}}"
    )
    assert main(["validate", "--datum", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "nested too deeply" in err


@pytest.mark.parametrize("dim, code", [(0, 2), (64, 0), (65, 2)])
def test_dimension_limit_exit_codes(dim, code, tmp_path, capsys):
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps({"dim": dim, "valuation_cone": {"generators": []}}))
    assert main(["validate", "--datum", str(datum)]) == code
    if code == 2:
        out, err = capsys.readouterr()
        assert out == "" and "datum.dim" in err


@pytest.mark.parametrize(
    "cones, where",
    [
        ([{"rays": [[1, 0]]}] * 513, "fan.cones: more than 512"),
        ([{"rays": [[1, 0]] * 257}], "fan.cones[0].rays: more than 256"),
    ],
)
def test_cone_and_ray_limits_are_input_errors(cones, where, tmp_path, capsys, monkeypatch):
    """A fan may list 512 cones of 256 rays each; more is refused before
    any cone of the fan is built."""
    from coloredfans import fileio

    assert (fileio.MAX_CONES, fileio.MAX_RAYS) == (512, 256)
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"cones": cones}))
    built = []
    real = fileio.cone_from_generators

    def counting(gens, dim):
        built.append(dim)
        return real(gens, dim)

    monkeypatch.setattr(fileio, "cone_from_generators", counting)
    assert main(["validate", "--datum", fx("datum_toric2.json"), "--fan", str(fan)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"input error: {where}"]
    assert built == [2]  # the valuation cone of the datum only


def cube_cone_files(tmp_path, n, sides):
    """A datum of rank n with the whole space as valuation cone, and a fan of
    the cones over the cubes {side} x {-1, 1}^(n-1), 3^(n-1) + 1 faces each."""
    datum = tmp_path / "datum.json"
    units = [[s * (i == j) for j in range(n)] for i in range(n) for s in (1, -1)]
    datum.write_text(json.dumps({"dim": n, "valuation_cone": {"generators": units}}))
    corners = [list(c) for c in itertools.product((1, -1), repeat=n - 1)]
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"cones": [{"rays": [[s] + c for c in corners]} for s in sides]}))
    return str(datum), str(fan)


@pytest.mark.parametrize(
    "n, sides, code, built",
    # 2188 faces; 6562 faces, and the second cone is never built; twice 2188
    [(8, (1,), 0, 2), (9, (1, -1), 2, 2), (8, (1, -1), 2, 3)],
)
def test_face_limit_counts_the_faces_of_all_given_cones(
    n, sides, code, built, tmp_path, capsys, monkeypatch
):
    """The given cones of a fan may have 4096 faces in all.  Each cone's face
    lattice is walked once the cone is built, and the walk stops once it
    finds more, before any later cone is built or any axiom checked."""
    from coloredfans import cones

    assert fileio.MAX_FACES == 4096
    datum, fan = cube_cone_files(tmp_path, n, sides)
    generated, faces = [], []
    real_generators, real_init = fileio.cone_from_generators, cones.Cone.__init__

    def counting_generators(gens, dim):
        generated.append(dim)
        return real_generators(gens, dim)

    def counting_init(self, *args):
        faces.append(self)
        real_init(self, *args)

    monkeypatch.setattr(fileio, "cone_from_generators", counting_generators)
    monkeypatch.setattr(cones.Cone, "__init__", counting_init)
    start = time.perf_counter()
    assert main(["validate", "--datum", datum, "--fan", fan]) == code
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert len(generated) == built  # the datum's valuation cone, then given cones
    if code == 0:
        assert err == "" and "verdict: PASS" in out
        return
    assert out == "" and err.splitlines() == ["input error: fan.cones: more than 4096 faces in all"]
    assert len(faces) <= built + fileio.MAX_FACES
    assert elapsed < 5


def test_double_description_cap_is_an_input_error(tmp_path, capsys):
    """A cone over 40 points of the moment curve in dimension 8 passes the
    file limits, but its double description passes ``cones.MAX_DD_PAIRS``
    candidate ray pairs: one input error line, no output, within seconds."""
    datum, _ = cube_cone_files(tmp_path, 8, ())
    fan = tmp_path / "moment.json"
    fan.write_text(json.dumps({"cones": [{"rays": moment_curve(8, 40)}]}))
    start = time.perf_counter()
    assert main(["validate", "--datum", datum, "--fan", str(fan)]) == 2
    # about 1.1 s on a 2-core x86_64 box with Python 3.11
    assert time.perf_counter() - start < 10
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("input error: double description: ") and "candidate ray pairs" in err


def test_valuation_generator_limit_is_an_input_error(tmp_path, capsys):
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps({"dim": 1, "valuation_cone": {"generators": [[1]] * 257}}))
    assert main(["validate", "--datum", str(datum)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["input error: datum.valuation_cone.generators: more than 256"]


def colored_datum(n: int) -> dict:
    """A datum of rank 3 with the whole space as valuation cone and n colors
    placed on the moment curve, each a ray of the cone over all of them."""
    units = [[s * (i == j) for j in range(3)] for i in range(3) for s in (1, -1)]
    colors = [{"name": f"D{t}", "rho": list(p)} for t, p in enumerate(moment_curve(3, n))]
    return {"dim": 3, "valuation_cone": {"generators": units}, "colors": colors}


@pytest.mark.parametrize("colors, code", [(256, 0), (257, 2)])
def test_datum_color_limit(colors, code, tmp_path, capsys, monkeypatch):
    """A datum may list 256 colors, as a cone may list 256 rays: C1 rebuilds
    a cone from the colors it chooses.  More are refused before any cone of
    the file is built."""
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps(colored_datum(colors)))
    built = []
    real = fileio.cone_from_generators
    monkeypatch.setattr(
        fileio, "cone_from_generators", lambda gens, dim: built.append(dim) or real(gens, dim)
    )
    start = time.perf_counter()
    assert main(["validate", "--datum", str(datum)]) == code
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and "verdict: PASS" in out and built == [3]
        return
    assert out == "" and err.splitlines() == ["input error: datum.colors: more than 256"]
    assert built == [] and elapsed < 1


@pytest.mark.parametrize("copies, code", [(64, 0), (65, 2)])
def test_action_generator_limit(copies, code, tmp_path, capsys, monkeypatch):
    """An action may list 64 generators; more is refused before any matrix
    is read.  Repeated generators are tested for infinite order once."""
    from coloredfans import fileio, galois

    assert fileio.MAX_GENERATORS == 64
    action = tmp_path / "action.json"
    action.write_text(json.dumps({"generators": [{"matrix": [[0, 1], [1, 0]]}] * copies}))
    calls = {"matrices": 0, "orders": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(fileio, "_int_matrix", counting("matrices", fileio._int_matrix))
    monkeypatch.setattr(
        galois, "_has_infinite_order", counting("orders", galois._has_infinite_order)
    )
    argv = ["validate", "--datum", fx("datum_toric2.json"), "--action", str(action)]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and err.splitlines() == ["input error: action.generators: more than 64"]
        assert calls == {"matrices": 0, "orders": 0}
    else:
        assert calls == {"matrices": 64, "orders": 1}


def test_limits_admit_the_eight_dimensional_cube_cone():
    """The cone over {1} x {-1,1}^7, 128 rays, and 512 cones are read."""
    from itertools import product

    from coloredfans import fileio

    datum = fileio.parse_datum({"dim": 8, "valuation_cone": {"generators": [[1] * 8] * 256}})
    rays = [[1, *signs] for signs in product((-1, 1), repeat=7)]
    (cube,) = fileio.parse_fan({"cones": [{"rays": rays}]}, datum)
    assert len(cube.cone._rays) == 128
    assert len(fileio.parse_fan({"cones": [{"rays": [[1] * 8]}] * 512}, datum)) == 512


@pytest.mark.parametrize("colors", [5, None, "D", {"name": "D", "rho": [1]}])
@pytest.mark.parametrize("in_morphism", [False, True])
def test_colors_that_are_not_a_list_are_input_errors(colors, in_morphism, tmp_path, capsys):
    """A datum's ``colors`` must be a list: a number or null once raised
    TypeError, and a string or an object was read element by element."""
    bad = {"dim": 1, "valuation_cone": {"generators": [[1]]}, "colors": colors}
    datum = tmp_path / "datum.json"
    if in_morphism:
        morphism = json.loads(Path(fx("morphism_projection.json")).read_text())
        morphism["target_datum"] = bad
        (tmp_path / "morphism.json").write_text(json.dumps(morphism))
        datum.write_text(Path(fx("datum_toric2.json")).read_text())
        argv = ["morphism", "--fan", fx("fan_quadrant.json"), "--morphism", str(tmp_path / "morphism.json")]
        where = "morphism.target_datum.colors"
    else:
        datum.write_text(json.dumps(bad))
        argv = ["validate"]
        where = "datum.colors"
    assert main(argv + ["--datum", str(datum)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"input error: {where}: expected a list"]


def line_fan_files(tmp_path, m):
    """The plane with V the whole plane, and the fan of the m cones on
    (1, k) and (1, k+1), k < m: its support LP has 3m(m-1) inequality rows."""
    datum, fan = tmp_path / "datum.json", tmp_path / "fan.json"
    datum.write_text(json.dumps({
        "dim": 2,
        "valuation_cone": {"generators": [[1, 0], [-1, 0], [0, 1], [0, -1]]},
    }))
    fan.write_text(json.dumps({"cones": [{"rays": [[1, k], [1, k + 1]]} for k in range(m)]}))
    return str(datum), str(fan)


@pytest.mark.parametrize("m, code", [(16, 0), (64, 2)])
def test_support_lp_row_limit(m, code, tmp_path, capsys):
    """CLI ``quasiproj`` poses support LPs of up to 1024 inequality rows,
    counted from the maximal cones before the LP is built: 720 at m = 16,
    12096 at m = 64."""
    assert fileio.MAX_SUPPORT_ROWS == 1024
    datum, fan = line_fan_files(tmp_path, m)
    start = time.perf_counter()
    assert main(["quasiproj", "--datum", datum, "--fan", fan]) == code
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and "verdict: PASS" in out
        return
    assert out == "" and err.splitlines() == [
        "input error: fan: the support LP would have 12096 inequality rows, more than 1024"
    ]
    assert elapsed < 5


def test_support_lp_rows_are_counted_exactly():
    """The count the limit reads is the number of inequality rows of the
    LP, on every loadable fan fixture, the m = 16 line fan and the twisted
    cube, and every fixture stays below the limit."""
    from test_fan_facts import FAN_FIXTURE_DATA
    from coloredfans.quasiproj import _support_ineq_rows, _support_lp, _valuation_parts

    fans = []
    for fan_name, datum_name in FAN_FIXTURE_DATA.items():
        try:
            inputs = fileio.parse_inputs(fx(datum_name), fx(fan_name))
        except SemanticError:
            continue
        fans.append((inputs.datum, inputs.fan))
    plane = toric_datum(2)
    line = [ColoredCone(cone_from_generators([(1, k), (1, k + 1)], 2)) for k in range(16)]
    cube = [ColoredCone(cone_from_generators(t, 3)) for t in cube_pattern_cones(24)]
    fans.append((plane, fan_from_maximal_cones(plane, line)))
    fans.append((toric_datum(3), fan_from_maximal_cones(toric_datum(3), cube)))
    counts = []
    for datum, fan in fans:
        maximal = fan._facts.maximal()
        parts = _valuation_parts(datum, maximal)
        counts.append(_support_ineq_rows(parts))
        assert counts[-1] == len(_support_lp(datum, maximal, parts)._ineqs)
    assert len(counts) == 10 and counts[-2:] == [720, 528]
    assert max(counts) <= fileio.MAX_SUPPORT_ROWS


def test_monoid_kform_checks_the_monoid_cone_once(monkeypatch, capsys, tmp_path):
    """``monoid-kform`` checks its cone against C1-C4 once, in the closure of
    the cone, with or without ``--force-lp``, and names a refused cone from
    the closure's refusal: ``is_monoid_cone`` runs only to name a cone that
    misses a color."""
    import coloredfans
    from coloredfans import colored, monoid

    real, checked, named = colored._closure_axioms, [], []

    def counting(datum, cc):
        checked.append(cc.key())
        return real(datum, cc)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith(coloredfans.__name__):
            if getattr(module, "_closure_axioms", None) is real:
                monkeypatch.setattr(module, "_closure_axioms", counting)
    naming = monoid.is_monoid_cone
    monkeypatch.setattr(monoid, "is_monoid_cone", lambda *a: named.append(a) or naming(*a))
    argv = [
        "monoid-kform",
        "--datum", fx("datum_toric2.json"),
        "--fan", fx("fan_a2_monoid.json"),
        "--action", fx("action_swap.json"),
    ]
    for flags in ([], ["--force-lp"]):
        checked.clear()
        assert main(argv + flags) == 0
        assert "verdict: PASS" in capsys.readouterr().out
        assert len(checked) == 1 and named == []
    # a line, which fails C3 and carries every color of datum_toric2 (none)
    write_inputs(tmp_path)
    checked.clear()
    assert main(argv[:3] + ["--fan", str(tmp_path / "fan_c3.json")] + argv[5:]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "input error: not a monoid cone: C3: the cone contains a line\n")
    assert len(checked) == 1 and named == []


def test_kform_reuses_the_faces_of_the_validated_fan(monkeypatch):
    """Once ``parse_inputs`` has validated the fan and the action, ``kform``
    runs no colored-face pass and no relint LP: the orbit fans take the faces
    that the loaded fan carries, and F2 rules out overlapping orbit cones.
    Only the orbit LPs of the orbit fans are solved, over one form each, and
    no all-pairs or row-generation support LP."""
    from coloredfans import colored, fileio, galois, quasiproj

    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(colored, "colored_faces", counting("faces", colored.colored_faces))
    # every relint LP, the F2 and overlap pair tests included, runs in colored
    relint = counting("relint", colored.relative_interior_meets)
    monkeypatch.setattr(colored, "relative_interior_meets", relint)
    monkeypatch.setattr(quasiproj, "lp_feasible", counting("support", quasiproj.lp_feasible))
    monkeypatch.setattr(galois, "lp_feasible", counting("orbit", galois.lp_feasible))
    parse = fileio.parse_inputs

    def parsed(*args):
        out = parse(*args)
        calls.clear()
        return out

    monkeypatch.setattr(fileio, "parse_inputs", parsed)
    result = run_command(
        "kform",
        datum_path=fx("datum_toric2.json"),
        fan_path=fx("fan_p1xp1.json"),
        action_path=fx("action_swap.json"),
    )
    assert result.exit_code == 0
    # the orbits of the four quadrants under the swap: two fixed, one pair
    assert calls == ["orbit"] * 3


def test_quasiproj_reads_the_maximal_cones_off_the_loaded_fan(monkeypatch):
    """``parse_inputs`` closes the fan and checks C1-C4 once per given cone,
    with no LP; ``quasiproj`` then poses the support LP on the closure's
    maximal cones, with no second validation and no colored-face pass."""
    from coloredfans import colored, quasiproj

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(colored, "_closure_axioms", counting("axioms", colored._closure_axioms))
    relint = counting("relint", colored.relative_interior_meets)
    monkeypatch.setattr(colored, "relative_interior_meets", relint)
    monkeypatch.setattr(
        quasiproj, "maximal_members", counting("maximal", quasiproj.maximal_members)
    )
    result = run_command(
        "quasiproj", datum_path=fx("datum_toric2.json"), fan_path=fx("fan_p2.json")
    )
    assert result.exit_code == 0
    assert len(result.payload["witnesses"]) == 3
    assert (calls.count("axioms"), calls.count("relint"), calls.count("maximal")) == (3, 0, 0)


def test_monoid_kform_names_the_failed_monoid_axioms():
    from coloredfans import fileio
    from coloredfans.monoid import is_monoid_cone

    datum = fileio.parse_datum(fileio.load_json(fx("datum_rank1.json")))
    (cc,) = fileio.parse_fan(fileio.load_json(fx("fan_rank1_monoid_candidate.json")), datum)
    reasons = is_monoid_cone(datum, cc).report.reasons
    assert reasons
    with pytest.raises(SemanticError) as info:
        run_command(
            "monoid-kform",
            datum_path=fx("datum_rank1.json"),
            fan_path=fx("fan_rank1_monoid_candidate.json"),
            action_path=fx("action_rank1_swap.json"),
        )
    assert str(info.value) == "not a monoid cone: " + "; ".join(reasons)


_PROJECTION = json.loads((FIXTURES / "morphism_projection.json").read_text())
_LINE = {"dim": 1, "valuation_cone": {"generators": [[1], [-1]]}, "colors": []}

# (command, {option: file content, or the name of a fixture}, start of the message)
_INPUT_ERRORS = [
    (
        "validate",
        {"datum": "datum_toric2.json", "action": {"generators": [{"matrix": [[1, 0]]}]}},
        "action.generators[0].matrix: expected 2 rows",
    ),
    ("validate", {"datum": []}, "datum: expected an object"),
    ("validate", {"datum": {"dim": 2}}, "datum: missing keys ['valuation_cone']"),
    ("validate", {"datum": None}, "no such file: {datum}"),
    ("validate", {"datum": "{"}, "{datum}: not valid JSON"),
    (
        "validate",
        {"datum": {"dim": 1, "valuation_cone": {"generators": 5}}},
        "datum.valuation_cone.generators: expected a list",
    ),
    (
        "validate",
        {"datum": {**_LINE, "colors": [{"name": "", "rho": [1]}]}},
        "datum.colors[0].name: expected a nonempty string",
    ),
    ("validate", {"datum": "datum_toric2.json", "fan": {"cones": 5}}, "fan.cones: expected a list"),
    (
        "validate",
        {"datum": "datum_toric2.json", "fan": {"cones": [{"rays": 5}]}},
        "fan.cones[0].rays: expected a list",
    ),
    (
        "validate",
        {"datum": "datum_toric2.json", "action": {"generators": 5}},
        "action.generators: expected a list",
    ),
    (
        "validate",
        {
            "datum": "datum_toric2.json",
            "action": {"generators": [{"matrix": [[1, 0], [0, 1]], "color_perm": {"X": "X"}}]},
        },
        "action.generators[0].color_perm: unknown colors ['X']",
    ),
    (
        "morphism",
        {
            "datum": "datum_toric2.json",
            "fan": "fan_quadrant.json",
            "morphism": {**_PROJECTION, "dominant_colors": ["X"]},
        },
        "dominant colors must be source colors",
    ),
    (
        "morphism",
        {
            "datum": "datum_horo1.json",
            "fan": "fan_horo_p1.json",
            "morphism": {**_PROJECTION, "matrix": [[1]], "color_map": {"D": "E"}},
        },
        "color map hits labels outside the target datum",
    ),
    (
        "monoid",
        {"datum": "datum_toric2.json", "fan": "fan_p1xp1.json"},
        "monoid checks need a fan file with exactly one cone",
    ),
    # one bit over fileio.MAX_ENTRY_BITS, in every kind of integer a file holds
    (
        "validate",
        {"datum": {**_LINE, "valuation_cone": {"generators": [[1], [-(2**40)]]}}},
        "datum.valuation_cone.generators[1]: an integer of more than 40 bits",
    ),
    (
        "validate",
        {"datum": {**_LINE, "colors": [{"name": "D", "rho": [2**40]}]}},
        "datum.colors[0].rho: an integer of more than 40 bits",
    ),
    (
        "validate",
        {"datum": "datum_toric2.json", "fan": {"cones": [{"rays": [[1, 0], [2**40, 1]]}]}},
        "fan.cones[0].rays[1]: an integer of more than 40 bits",
    ),
    (
        "validate",
        {"datum": "datum_toric2.json", "action": {"generators": [{"matrix": [[1, 2**40], [0, 1]]}]}},
        "action.generators[0].matrix[0]: an integer of more than 40 bits",
    ),
    (
        "morphism",
        {
            "datum": "datum_toric2.json",
            "fan": "fan_quadrant.json",
            "morphism": {**_PROJECTION, "matrix": [[1, -(2**40)]]},
        },
        "morphism.matrix[0]: an integer of more than 40 bits",
    ),
    # past the digits that Python converts, the file is named
    (
        "validate",
        {"datum": "datum_toric2.json", "fan": '{"cones": [{"rays": [[1, ' + "9" * 5000 + "]]}]}"},
        "{fan}: an integer of more than 40 bits",
    ),
]


@pytest.mark.parametrize("command, files, message", _INPUT_ERRORS)
def test_input_errors_name_the_place(command, files, message, tmp_path, capsys):
    """Each malformed input exits 2 with one ``input error:`` line and no
    report: a fixture name is read as it is, a string is written as the file's
    text, None names a missing file, and anything else is written as JSON."""
    argv = [command]
    paths = {}
    for option, content in files.items():
        if isinstance(content, str) and content.endswith(".json"):
            path = fx(content)
        else:
            path = str(tmp_path / f"{option}.json")
            if content is not None:
                Path(path).write_text(content if isinstance(content, str) else json.dumps(content))
        argv += [f"--{option}", path]
        paths[option] = path
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: " + message.format(**paths))


def test_entry_bit_cap(tmp_path, capsys):
    """One bit over ``MAX_ENTRY_BITS`` exits 2 with one ``input error:``
    line well under a second, also when every entry of ten rays in
    dimension 6 has 1000 digits (such a cone once took 28 s to validate),
    and so does a ``--lambda`` or theta entry; a file whose entries reach
    the cap is read and validated.  A ``--lambda`` entry is an optional
    minus and decimal digits, nothing more."""
    assert fileio.MAX_ENTRY_BITS == 40
    cap = 2**40 - 1
    rng = random.Random(4409)
    datum, fan, theta = (tmp_path / name for name in ("datum.json", "fan.json", "theta.json"))
    generators = [[s * (i == j) for j in range(6)] for i in range(6) for s in (1, -1)]
    datum.write_text(json.dumps({"dim": 6, "valuation_cone": {"generators": generators}}))
    long_rays = [[rng.randrange(10**999, 10**1000) for _ in range(6)] for _ in range(10)]
    theta.write_text(json.dumps([[0, 1], [1, 2**40]]))
    runs = [
        ["validate", "--datum", str(datum), "--fan", str(fan)],
        ["lined", "--theta", fx("theta_id2.json"), "--lambda", f"1,{2**40}"],
        ["lined", "--theta", fx("theta_id2.json"), "--lambda", "-0" + "9" * 10**5],
        ["lined", "--theta", str(theta), "--lambda", "1,0"],
    ]
    for argv, where in zip(runs, ("fan.cones[0].rays[0]", "--lambda", "--lambda", "theta[1]")):
        fan.write_text(json.dumps({"cones": [{"rays": long_rays}]}))
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err == f"input error: {where}: an integer of more than 40 bits\n"
    # entries at the cap, and the cap negated
    fan.write_text(json.dumps({"cones": [{"rays": [[1] + [0] * 5, [cap, -cap] + [1] * 4]}]}))
    datum_2 = tmp_path / "datum_2.json"
    datum_2.write_text(json.dumps({"dim": 2, "valuation_cone": {"generators": [[1, 0], [cap, -cap]]}}))
    assert main(["validate", "--datum", str(datum), "--fan", str(fan)]) == 0
    assert main(["validate", "--datum", str(datum_2)]) == 0
    assert main(["lined", "--theta", fx("theta_neg.json"), "--lambda", str(-cap)]) == 0
    capsys.readouterr()
    for weight in ("1_0", "+1", "1.0", "١", "0x1", ""):
        assert main(["lined", "--theta", fx("theta_neg.json"), "--lambda", weight]) == 2
        assert capsys.readouterr().err == (
            f"input error: --lambda must be a comma-separated integer list, got {weight!r}\n"
        )


def not_utf8_file(path: Path) -> str:
    path.write_bytes(b'{"dim": 1, "valuation_cone": {"generators": [[1]]}, "colors": ["\xff"]}')
    return str(path)


def fail_to_read(path: Path, monkeypatch) -> str:
    """Make reading ``path`` fail as on a failing disk, with EIO."""
    path.write_text(Path(fx("datum_toric2.json")).read_text())
    read = Path.read_text

    def failing(self, *args, **kwargs):
        if self == path:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return read(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", failing)
    return str(path)


def test_file_that_is_not_utf8_is_named(tmp_path, capsys):
    datum = not_utf8_file(tmp_path / "datum.json")
    assert main(["validate", "--datum", datum]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"input error: {datum}: not UTF-8 (")


def test_file_that_cannot_be_read_is_named(tmp_path, capsys, monkeypatch):
    """A regular file whose read fails is an input error that names it, not
    a traceback with exit 1, which the CLI keeps for a negative verdict."""
    datum = fail_to_read(tmp_path / "datum.json", monkeypatch)
    assert main(["validate", "--datum", datum]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"input error: {datum}: cannot be read (Input/output error)\n")


# every command that reads each kind of file: all but lined read a datum and a fan
_READERS = {
    "datum": COMMANDS[:-1],
    "fan": COMMANDS[:-1],
    "action": ("validate", "kform", "monoid-kform"),
    "morphism": ("morphism",),
    "theta": ("lined",),
}
_COMPANIONS = {
    "datum": fx("datum_toric2.json"),
    "fan": fx("fan_p2.json"),
    "action": fx("action_swap.json"),
    "morphism": fx("morphism_projection.json"),
    "theta": fx("theta_neg.json"),
    "lambda": "1",
}
_UNREADABLE = ("not_utf8", "read_fails", "name_too_long")


def hostile_files(case: str, tmp_path: Path, monkeypatch) -> tuple[dict, dict]:
    """The files of one sweep case by option: the companions that replace
    fixtures, and the files at the edge of a limit, each read in turn."""
    def write(name, obj):
        (tmp_path / name).write_text(json.dumps(obj))
        return str(tmp_path / name)

    def units(n):
        return [[int(i == j) for j in range(n)] for i in range(n)]

    def space(n):
        axes = units(n) + [[-x for x in e] for e in units(n)]
        return {"dim": n, "valuation_cone": {"generators": axes}}

    def swap(n):
        return {"generators": [{"matrix": [units(n)[1], units(n)[0], *units(n)[2:]]}]}

    if case == "dim_at_cap":
        n = fileio.MAX_DIM
        return {
            "fan": write("fan.json", {"cones": [{"rays": units(n)[:2]}]}),
            "action": write("action.json", swap(n)),
            "lambda": ",".join(["1"] * n),
        }, {
            "datum": write("datum.json", space(n)),
            "theta": write("theta.json", [[-x for x in e] for e in units(n)]),
        }
    if case == "faces_near_cap":
        # the cone over {1} x {-1,1}^7: 128 rays and 2188 faces
        rays = [[1, *c] for c in itertools.product((1, -1), repeat=7)]
        return {
            "datum": write("datum.json", space(8)),
            "action": write("action.json", swap(8)),
        }, {"fan": write("fan.json", {"cones": [{"rays": rays}]})}
    if case in ("colors_at_cap", "repeated_refused_colors"):
        # one cone choosing every color, listed once or as often as a fan may:
        # C1 fails, and naming the failure rebuilds it from 259 generators
        datum = colored_datum(fileio.MAX_RAYS)
        colors = [c["name"] for c in datum["colors"]]
        cone = {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, -1]], "colors": colors}
        copies = 1 if case == "colors_at_cap" else fileio.MAX_CONES
        return {
            "fan": write("fan.json", {"cones": [cone] * copies}),
            "action": write("action.json", {"generators": [{"matrix": units(3)}]}),
        }, {"datum": write("datum.json", datum)}
    if case == "repeated_cones":
        # the cone over 256 points of the moment curve, listed as often as a fan may
        cone = {"rays": moment_curve(3, fileio.MAX_RAYS)}
        return {
            "datum": write("datum.json", space(3)),
            "action": write("action.json", swap(3)),
        }, {"fan": write("fan.json", {"cones": [cone] * fileio.MAX_CONES})}
    if case == "generators_at_cap":
        # distinct signed permutations that generate all 384 of them
        signed = [
            [[s[i] * (p[i] == j) for j in range(4)] for i in range(4)]
            for p in itertools.permutations(range(4))
            for s in itertools.product((1, -1), repeat=4)
        ]
        chosen = random.Random(384).sample(signed, fileio.MAX_GENERATORS)
        return {
            "datum": write("datum.json", space(4)),
            "fan": write("fan.json", {"cones": [{"rays": units(4)}]}),
        }, {"action": write("action.json", {"generators": [{"matrix": m} for m in chosen]})}
    if case == "entries_at_cap":
        # the P2 fan under the base change (x, y) -> (x + a y, y)
        a = 2**fileio.MAX_ENTRY_BITS - 2
        rays = [[1, 0], [a, 1], [-a - 1, -1]]
        cones = [{"rays": [rays[i], rays[(i + 1) % 3]]} for i in range(3)]
        return {}, {"fan": write("fan.json", {"cones": cones})}
    if case == "not_utf8":
        bad = not_utf8_file(tmp_path / "bad.json")
    elif case == "read_fails":
        bad = fail_to_read(tmp_path / "bad.json", monkeypatch)
    else:
        bad = str(tmp_path / ("x" * 300 + ".json"))
    return {}, dict.fromkeys(_READERS, bad)


@pytest.mark.parametrize(
    "case",
    [
        "colors_at_cap",
        "repeated_refused_colors",
        "repeated_cones",
        "generators_at_cap",
        "entries_at_cap",
        "dim_at_cap",
        "faces_near_cap",
        *_UNREADABLE,
    ],
)
def test_hostile_files_end_with_a_verdict_or_an_input_error(case, tmp_path, capsys, monkeypatch):
    """Each file at the edge of one file limit, and each file that cannot be
    read, goes through every command that reads its kind of file: exit 0, 1
    or 2 within 30 s, no traceback, and on exit 2 one ``input error:`` line
    and no report.  An unreadable file is named."""
    companions, edge = hostile_files(case, tmp_path, monkeypatch)
    files = {**_COMPANIONS, **companions}
    for option, path in edge.items():
        for command in _READERS[option]:
            argv = [command]
            for o, p in {**files, option: path}.items():
                argv += [f"--{o}", p]
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
            out, err = capsys.readouterr()
            assert code in (0, 1, 2) and elapsed < 30, (command, option)
            if code == 2:
                assert out == "" and len(err.splitlines()) == 1, (command, option)
                assert err.startswith("input error: "), (command, option)
            if case in _UNREADABLE:
                assert code == 2 and path in err, (command, option)


def test_invalid_action_matrix_is_input_error(tmp_path):
    action = tmp_path / "action.json"
    action.write_text(json.dumps({"generators": [{"matrix": [[1, 0], [0, 0]], "color_perm": {}}]}))
    with pytest.raises(SemanticError, match="lattice automorphism"):
        run_command(
            "kform",
            datum_path=fx("datum_toric2.json"),
            fan_path=fx("fan_p1xp1.json"),
            action_path=str(action),
        )


def test_missing_required_input():
    with pytest.raises(InputFileError):
        run_command("quasiproj", datum_path=fx("datum_p1.json"))


@pytest.mark.parametrize(
    "command, options, error, message",
    [
        ("frobnicate", {}, InputFileError, "unknown command 'frobnicate'"),
        (
            "lined",
            {"lambda_csv": "1,x"},
            SchemaError,
            "--lambda must be a comma-separated integer list, got '1,x'",
        ),
    ],
    ids=["unknown-command", "lambda-not-integers"],
)
def test_run_command_refuses_bad_arguments(command, options, error, message):
    """An unknown command and a ``--lambda`` entry that is no integer are
    refused before any file is read."""
    with pytest.raises(error) as info:
        run_command(command, **options)
    assert type(info.value) is error
    assert str(info.value) == message


def test_invalid_fan_is_input_error_for_quasiproj(tmp_path):
    fan = tmp_path / "fan.json"
    fan.write_text(
        json.dumps({"cones": [{"rays": [[1, 0], [-1, 0]], "colors": []}]})
    )
    with pytest.raises(SemanticError):
        run_command("quasiproj", datum_path=fx("datum_toric2.json"), fan_path=str(fan))


def test_validate_reports_axiom_failures_with_exit_one(tmp_path):
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"cones": [{"rays": [[1, 0], [-1, 0]], "colors": []}]}))
    result = run_command(
        "validate", datum_path=fx("datum_toric2.json"), fan_path=str(fan)
    )
    assert result.exit_code == 1
    assert result.payload["verdict"] is False


def test_validate_covers_action_checks(tmp_path):
    result = run_command(
        "validate",
        datum_path=fx("datum_toric2.json"),
        fan_path=fx("fan_p1xp1.json"),
        action_path=fx("action_swap.json"),
    )
    assert result.exit_code == 0
    assert result.payload["axioms"]["action.closure"] is True
    bad = tmp_path / "action.json"
    bad.write_text(json.dumps({"generators": [{"matrix": [[1, 0], [0, 0]], "color_perm": {}}]}))
    result = run_command(
        "validate", datum_path=fx("datum_toric2.json"), action_path=str(bad)
    )
    assert result.exit_code == 1
    assert result.payload["axioms"]["action.generator[0].lattice_automorphism"] is False


def test_json_output_is_stable_contract(capsys):
    code = main(
        [
            "quasiproj",
            "--datum", fx("datum_toric2.json"),
            "--fan", fx("fan_p2.json"),
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"command", "verdict", "axioms", "witnesses", "reasons"}


def test_colored_fixtures_end_to_end():
    # a colored fan through the files: validation, quasiprojectivity with a
    # witness, and a k-form driven by a color permutation
    assert run_command(
        "validate", datum_path=fx("datum_horo1.json"), fan_path=fx("fan_horo_p1.json")
    ).exit_code == 0
    quasi = run_command(
        "quasiproj", datum_path=fx("datum_horo1.json"), fan_path=fx("fan_horo_p1.json")
    )
    assert quasi.exit_code == 0 and len(quasi.payload["witnesses"]) == 2
    kform = run_command(
        "kform",
        datum_path=fx("datum_rank1.json"),
        fan_path=fx("fan_rank1_back.json"),
        action_path=fx("action_rank1_swap.json"),
    )
    assert kform.exit_code == 0
    assert kform.payload["axioms"]["invariant"] is True


def test_cli_deterministic_across_runs():
    first = run_command(
        "quasiproj", datum_path=fx("datum_toric2.json"), fan_path=fx("fan_p2.json")
    )
    second = run_command(
        "quasiproj", datum_path=fx("datum_toric2.json"), fan_path=fx("fan_p2.json")
    )
    assert first.text == second.text
    assert first.payload == second.payload


def _text_from_payload(payload: dict) -> str:
    """The text report of a payload, notes left out: the verdict, then the
    axioms, witnesses and reasons, each section only when nonempty."""
    lines = [f"command: {payload['command']}"]
    lines.append(f"verdict: {'PASS' if payload['verdict'] else 'FAIL'}")
    if payload["axioms"]:
        lines.append("axioms:")
        lines += [f"  {name}: {'ok' if ok else 'FAIL'}" for name, ok in payload["axioms"].items()]
    if payload["witnesses"]:
        lines.append("witnesses:")
        lines += [f"  {w['cone']}: [{', '.join(w['coefficients'])}]" for w in payload["witnesses"]]
    if payload["reasons"]:
        lines.append("reasons:")
        lines += [f"  {reason}" for reason in payload["reasons"]]
    return "\n".join(lines) + "\n"


def random_cli_inputs(tmp_path):
    """Seeded files from ``random_colored.py``: (command, datum, fan, action)
    for ``validate`` and ``quasiproj`` on fans of one or two passing cones,
    and for ``validate`` and ``kform`` on a colored action with a fan of
    one cone or of its orbit under the generators."""
    rng = random.Random(4099)
    cases = []

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def fan_file(name, datum, cones):
        return write(name, fileio.serialize_fan(datum, fan_from_maximal_cones(datum, cones)))

    for i in range(10):
        datum = random_datum(rng)
        cones = []
        while len(cones) < 2:
            cc = random_colored_cone(rng, datum)
            if validate_colored_cone(datum, cc).passed:
                cones.append(cc)
        datum_path = write(f"datum{i}.json", fileio.serialize_datum(datum))
        fan_path = fan_file(f"fan{i}.json", datum, cones[: 1 + i % 2])
        cases += [(command, datum_path, fan_path, None) for command in ("validate", "quasiproj")]
    for i in range(4):
        datum, action = random_colored_action(rng)
        cc = random_colored_cone(rng, datum)
        while not validate_colored_cone(datum, cc).passed:
            cc = random_colored_cone(rng, datum)
        orbit = [cc] + [apply_element(g, cc) for g in action.generators] if i % 2 else [cc]
        datum_path = write(f"action_datum{i}.json", fileio.serialize_datum(datum))
        fan_path = fan_file(f"action_fan{i}.json", datum, orbit)
        action_path = write(f"action{i}.json", fileio.serialize_action(action))
        cases += [(command, datum_path, fan_path, action_path) for command in ("validate", "kform")]
    return cases


def fixed_quasiproj_inputs(tmp_path):
    """(command, datum, fan, action) for ``quasiproj`` on a plane fan file
    that lists faces of a cone beside the cone, and on the cube patterns 24
    (the twisted cube, not quasiprojective) and 0 (quasiprojective)."""
    plane = tmp_path / "plane.json"
    plane.write_text(fileio.serialize_datum(toric_datum(2)))
    beside = tmp_path / "fan_faces_beside.json"
    rays = [[[1, 0]], [[1, 0], [0, 1]], [[0, 1]], [[0, 1], [-1, 0]], [[0, 0]]]
    beside.write_text(json.dumps({"cones": [{"rays": r, "colors": []} for r in rays]}))
    cases = [("quasiproj", str(plane), str(beside), None)]
    space = tmp_path / "space.json"
    space.write_text(fileio.serialize_datum(toric_datum(3)))
    for pattern in (24, 0):
        cube = tmp_path / f"cube{pattern}.json"
        cones = [{"rays": [list(r) for r in c], "colors": []} for c in cube_pattern_cones(pattern)]
        cube.write_text(json.dumps({"cones": cones}))
        cases.append(("quasiproj", str(space), str(cube), None))
    return cases


def test_text_and_json_agree_on_random_inputs(tmp_path, capsys):
    """Each command prints the same exit code, verdict, axioms, witnesses and
    reasons as text and as ``--json``.  The verdict and witnesses of
    ``quasiproj``, read off the loaded fan's closure, are those of
    ``is_quasiprojective`` validating the same fan in full."""
    # about 2 s on a 2-core x86_64 box with Python 3.11, most of it the cubes
    codes, sections = set(), set()
    cases = random_cli_inputs(tmp_path) + fixed_quasiproj_inputs(tmp_path)
    for command, datum, fan, action in cases:
        argv = [command, "--datum", datum, "--fan", fan]
        if action is not None:
            argv += ["--action", action]
        code = main(argv)
        text = capsys.readouterr().out
        assert main(argv + ["--json"]) == code
        codes.add((command, code))
        if code == 2:
            assert text == capsys.readouterr().out == ""
            continue
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is (code == 0)
        kept = [line for line in text.splitlines(keepends=True) if not line.startswith("note: ")]
        assert "".join(kept) == _text_from_payload(payload)
        sections.update(key for key in ("witnesses", "reasons") if payload[key])
        if command == "quasiproj":
            inputs = fileio.parse_inputs(datum, fan)
            assert inputs.fan._facts.maximal() == list(maximal_members(inputs.datum, inputs.fan))
            result = is_quasiprojective(inputs.datum, inputs.fan, check=True)
            assert payload["verdict"] is result.verdict
            assert payload["witnesses"] == [
                {"cone": f.cone.describe(), "coefficients": list(map(cli.rat_str, f.coefficients))}
                for f in result.witness or ()
            ]
    # passing and failing verdicts, input errors, witnesses and reasons
    assert {("quasiproj", code) for code in (0, 1, 2)} <= codes
    assert {("validate", 1), ("kform", 1)} <= codes
    assert sections == {"witnesses", "reasons"}


# -- the parser ---------------------------------------------------------------

QUASIPROJ_P2 = ["quasiproj", "--datum", fx("datum_toric2.json"), "--fan", fx("fan_p2.json")]


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in COMMANDS)


@pytest.mark.parametrize("argv", [["bogus", "--json"], ["--json"], []])
def test_unknown_or_missing_command_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error" in err


def test_option_before_the_command(capsys):
    assert main(QUASIPROJ_P2 + ["--json"]) == 0
    after = capsys.readouterr().out
    assert main(["--json"] + QUASIPROJ_P2) == 0
    assert capsys.readouterr().out == after


@pytest.mark.parametrize(
    "theta, weight, code",
    [("theta_id2.json", "-1,0", 1), ("theta_neg.json", "-1", 0), ("theta_id2.json", "1,0", 1)],
)
def test_lambda_value_may_start_with_a_minus(theta, weight, code, capsys):
    argv = ["lined", "--theta", fx(theta)]
    spaced = main(argv + ["--lambda", weight])
    spaced_out = capsys.readouterr().out
    joined = main(argv + [f"--lambda={weight}"])
    assert (spaced, spaced_out) == (joined, capsys.readouterr().out)
    assert spaced == code and spaced_out.startswith("command: lined\n")


def test_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    try:
        assert main(QUASIPROJ_P2 + ["--json"]) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["quasiproj", "--datum"])
        capsys.readouterr()
        assert main(QUASIPROJ_P2 + ["--json"]) == 0
        assert capsys.readouterr().out == first
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def _console(*args):
    """``python -m coloredfans`` in a fresh process, on this checkout's source."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "coloredfans", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_console_entry(capsys):
    assert _console("--help").returncode == 0
    assert main(QUASIPROJ_P2 + ["--json"]) == 0
    in_process = capsys.readouterr().out
    ran = _console(*QUASIPROJ_P2, "--json")
    assert (ran.returncode, ran.stdout) == (0, in_process)
    lined = ["lined", "--theta", fx("theta_id2.json"), "--lambda"]
    assert _console(*lined, "1,0").returncode == 1
    assert _console(*lined, "x").returncode == 2
    failed = _console("bogus")
    assert failed.returncode == 2 and failed.stdout == ""


# -- golden output ----------------------------------------------------------


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_golden_output(command, tmp_path, capsys):
    # every cli_files benchmark command on the shipped fixtures plus failing
    # inputs, in text and --json form: exit code and stdout byte for byte
    write_inputs(tmp_path)
    code = main(golden_argv(command, tmp_path))
    assert (code, capsys.readouterr().out) == GOLDEN[command]


def _runs(python: str) -> bool:
    try:
        return subprocess.run([python, "-c", "pass"], capture_output=True).returncode == 0
    except OSError:
        return False


def _python310() -> str | None:
    """``python3.10`` when it runs, else a pyenv build of 3.10 when one runs:
    a pyenv shim refuses ``python3.10`` unless 3.10 is a selected version."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    builds = sorted(str(p) for p in root.glob("versions/3.10*/bin/python3.10"))
    return next((python for python in ["python3.10", *builds] if _runs(python)), None)


@pytest.mark.parametrize("python", [sys.executable, "python3.10"])
def test_golden_script_replays_every_case(python):
    """``tests/golden.py`` run as a script replays every golden block with
    the standard library alone: under this interpreter, and under Python
    3.10 when one runs."""
    if python == "python3.10":
        python = _python310()
        if python is None:
            pytest.skip("no Python 3.10 runs here")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    ran = subprocess.run(
        [python, str(Path(__file__).parent / "golden.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (ran.returncode, ran.stdout) == (0, "56 of 56 golden cases match\n")


def test_force_lp_changes_no_monoid_kform_output(tmp_path, capsys):
    """``--force-lp`` is accepted and ignored: every ``monoid-kform`` command
    of the golden file, in text and --json form, prints the same bytes, on
    stdout and stderr, and exits with the same code without it."""
    write_inputs(tmp_path)
    commands = [c for c in GOLDEN if c.split()[0] == "monoid-kform"]
    assert len(commands) == 4 and all("--force-lp" in c.split() for c in commands)
    assert {"--json" in c.split() for c in commands} == {False, True}
    for command in commands:
        argv = golden_argv(command, tmp_path)
        runs = []
        for args in (argv, [arg for arg in argv if arg != "--force-lp"]):
            code = main(args)
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1], command
        assert (runs[0][0], runs[0][1].out) == GOLDEN[command]


# -- the LP route stays behind the library entry points -------------------------


def test_commands_reach_the_lp_route_only_through_f2_failures(monkeypatch, tmp_path):
    """Every command over every combination of the fixtures and of the
    failing golden inputs: no run calls ``validate_colored_cone``, the LP
    route's C1-C4 check, or ``relative_interior_meets``, not even when F2
    fails (``_Closure.overlaps`` reads the overlapping pairs with no LP).
    So a command reaches the LP route only through the public library
    functions."""
    import coloredfans
    from coloredfans import colored

    write_inputs(tmp_path)
    files = sorted(FIXTURES.glob("*.json")) + sorted(tmp_path.glob("*.json"))
    kinds = {
        kind: [str(f) for f in files if f.name.startswith(kind)]
        for kind in ("datum", "fan", "action", "morphism", "theta")
    }
    calls = {"cone": 0, "relint": 0}

    def spying(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for attr, name in (("validate_colored_cone", "cone"), ("relative_interior_meets", "relint")):
        real = getattr(colored, attr)
        spy = spying(name, real)
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith(coloredfans.__name__):
                if getattr(module, attr, None) is real:
                    monkeypatch.setattr(module, attr, spy)

    # the overlapping pairs every run finds, to show that F2 fails on some
    real_overlaps, overlapping = colored._Closure.overlaps, []

    def overlaps(self):
        pairs = list(real_overlaps(self))
        overlapping.extend(pairs)
        yield from pairs

    monkeypatch.setattr(colored._Closure, "overlaps", overlaps)

    none = [None]
    runs = []
    for datum in kinds["datum"]:
        for fan, action in itertools.product(none + kinds["fan"], none + kinds["action"]):
            runs.append(("validate", dict(datum_path=datum, fan_path=fan, action_path=action)))
        for fan in kinds["fan"]:
            runs.append(("quasiproj", dict(datum_path=datum, fan_path=fan)))
            runs.append(("monoid", dict(datum_path=datum, fan_path=fan)))
            for morphism in kinds["morphism"]:
                paths = dict(datum_path=datum, fan_path=fan, morphism_path=morphism)
                runs.append(("morphism", paths))
            for action in kinds["action"]:
                paths = dict(datum_path=datum, fan_path=fan, action_path=action)
                runs.append(("kform", paths))
                runs.append(("monoid-kform", paths))
    for theta, weight in itertools.product(kinds["theta"], ("1,2", "-1,0")):
        runs.append(("lined", dict(theta_path=theta, lambda_csv=weight)))
    assert {command for command, _ in runs} == set(COMMANDS)

    codes = Counter()
    for command, options in runs:
        try:
            codes[run_command(command, **options).exit_code] += 1
        except (InputFileError, ValueError):
            codes[2] += 1
        assert calls == {"cone": 0, "relint": 0}, (command, options)
    assert min(codes[0], codes[1], codes[2]) > 0 and overlapping

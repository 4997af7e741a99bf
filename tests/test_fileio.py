import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coloredfans import fileio
from coloredfans.colored import ColoredCone, ColoredFan, fan_from_maximal_cones
from coloredfans.cones import cone_from_generators
from coloredfans.errors import InvalidColoredConeError, SchemaError, SemanticError

FIXTURES = Path(__file__).parent / "fixtures"


def test_parse_datum_roundtrip():
    text = (FIXTURES / "datum_rank1.json").read_text()
    datum = fileio.parse_datum(json.loads(text))
    assert datum.dim == 1
    assert datum.colors == ("D+", "D-")
    assert fileio.serialize_datum(datum) == text
    reparsed = fileio.parse_datum(json.loads(fileio.serialize_datum(datum)))
    assert fileio.serialize_datum(reparsed) == text


def test_lineality_datum_roundtrip():
    # the valuation cone of datum_toric2 is all lineality: no ray, two lines
    text = (FIXTURES / "datum_toric2.json").read_text()
    datum = fileio.parse_datum(json.loads(text))
    assert not datum.valuation_cone._rays and len(datum.valuation_cone._lineality) == 2
    assert fileio.serialize_datum(datum) == text


def test_fan_member_with_a_line_not_serializable():
    datum = fileio.parse_datum(json.loads((FIXTURES / "datum_toric2.json").read_text()))
    half_plane = ColoredCone(cone_from_generators([(1, 0), (-1, 0), (0, 1)], 2))
    with pytest.raises(InvalidColoredConeError):
        fileio.serialize_fan(datum, ColoredFan((half_plane,)))


def test_parse_fan_roundtrip():
    datum = fileio.parse_datum(json.loads((FIXTURES / "datum_toric2.json").read_text()))
    text = (FIXTURES / "fan_p1xp1.json").read_text()
    raw = fileio.parse_fan(json.loads(text), datum)
    assert len(raw) == 4
    fan = fan_from_maximal_cones(datum, raw)
    serialized = fileio.serialize_fan(datum, fan)
    again = fan_from_maximal_cones(datum, fileio.parse_fan(json.loads(serialized), datum))
    assert fileio.serialize_fan(datum, again) == serialized


def test_p1_files_give_two_maximal_cones_closing_to_three_members():
    datum = fileio.parse_datum(json.loads((FIXTURES / "datum_p1.json").read_text()))
    assert datum.dim == 1 and datum.colors == ()
    raw = fileio.parse_fan(json.loads((FIXTURES / "fan_p1.json").read_text()), datum)
    assert len(raw) == 2
    fan = fan_from_maximal_cones(datum, raw)
    assert len(fan) == 3


def test_action_roundtrip():
    datum = fileio.parse_datum(json.loads((FIXTURES / "datum_toric2.json").read_text()))
    text = (FIXTURES / "action_swap.json").read_text()
    action = fileio.parse_action(json.loads(text), datum)
    assert len(action.generators) == 1
    assert fileio.serialize_action(action) == text


def test_morphism_roundtrip():
    datum = fileio.parse_datum(json.loads((FIXTURES / "datum_toric2.json").read_text()))
    text = (FIXTURES / "morphism_projection.json").read_text()
    morphism, datum_dst, target_raw = fileio.parse_morphism(json.loads(text), datum)
    target_fan = fan_from_maximal_cones(datum_dst, target_raw)
    assert fileio.serialize_morphism(morphism, datum_dst, target_fan) == text


def test_rationals_rejected():
    obj = {"dim": 1, "valuation_cone": {"generators": [[0.5]]}, "colors": []}
    with pytest.raises(SchemaError):
        fileio.parse_datum(obj)
    obj = {"dim": 1, "valuation_cone": {"generators": [[True]]}, "colors": []}
    with pytest.raises(SchemaError):
        fileio.parse_datum(obj)


def test_unknown_color_in_fan_rejected():
    datum = fileio.parse_datum(json.loads((FIXTURES / "datum_toric2.json").read_text()))
    obj = {"cones": [{"rays": [[1, 0]], "colors": ["D9"]}]}
    with pytest.raises(SchemaError, match="D9"):
        fileio.parse_fan(obj, datum)


def test_duplicate_color_names_rejected():
    obj = {
        "dim": 1,
        "valuation_cone": {"generators": []},
        "colors": [{"name": "D", "rho": [1]}, {"name": "D", "rho": [2]}],
    }
    with pytest.raises(SchemaError, match="duplicate"):
        fileio.parse_datum(obj)


def test_wrong_vector_length_rejected():
    obj = {"dim": 2, "valuation_cone": {"generators": [[1]]}, "colors": []}
    with pytest.raises(SchemaError):
        fileio.parse_datum(obj)


def test_unknown_keys_rejected():
    obj = {"dim": 1, "valuation_cone": {"generators": []}, "colours": []}
    with pytest.raises(SchemaError):
        fileio.parse_datum(obj)


def test_parse_inputs_loads_everything_validated():
    inputs = fileio.parse_inputs(
        FIXTURES / "datum_toric2.json",
        FIXTURES / "fan_quadrant.json",
        FIXTURES / "action_swap.json",
        FIXTURES / "morphism_projection.json",
    )
    assert inputs.fan is not None and len(inputs.fan) == 4
    assert inputs.action is not None
    assert inputs.morphism is not None and inputs.target_datum.dim == 1
    assert inputs.reports["fan"].passed and inputs.reports["action"].passed


def test_parse_inputs_rejects_invalid_fan(tmp_path):
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"cones": [{"rays": [[1, 0], [-1, 0]], "colors": []}]}))
    with pytest.raises(SemanticError, match="C3"):
        fileio.parse_inputs(FIXTURES / "datum_toric2.json", fan)


def test_failed_fan_reports_every_given_cone(tmp_path):
    # cone[0] passes, cone[1] fails C3 and cone[2] fails C4: the closure stops
    # at cone[1], and the report still covers the cones after it
    datum_path, fan_path = tmp_path / "datum.json", tmp_path / "fan.json"
    datum_path.write_text(json.dumps({
        "dim": 2,
        "valuation_cone": {"generators": [[1, 0], [-1, 0], [0, 1], [0, -1]]},
        "colors": [{"name": "D", "rho": [1, 0]}, {"name": "Z", "rho": [0, 0]}],
    }))
    fan_path.write_text(json.dumps({"cones": [
        {"rays": [[1, 0], [0, 1]], "colors": ["D"]},
        {"rays": [[-1, 0], [1, 0], [0, -1]]},
        {"rays": [[-1, 1]], "colors": ["Z"]},
    ]}))
    datum = fileio.parse_datum(fileio.load_json(datum_path))
    fan, report = fileio.validated_fan(datum, fileio.parse_fan(fileio.load_json(fan_path), datum))
    assert fan is None
    checks = {
        f"maximal[{i}].C{k}": (i, k) not in ((1, 3), (2, 4)) for i in range(3) for k in range(1, 5)
    }
    assert repr(report) == (
        f"ValidationReport(subject='fan members', checks={checks!r}, reasons=["
        "'maximal[1]: C3: the cone contains a line', "
        "\"maximal[2]: C4: colors placed at the origin: ['Z']\"], notes=[])"
    )


def test_loaded_fan_checks_each_given_cone_once(monkeypatch):
    from coloredfans import colored

    # the closure checks C1-C4 by _closure_axioms, with no LP; so does the
    # failure report, and the LP route's validate_colored_cone never runs
    checked = []

    def counting(name, real):
        def wrapper(datum, cc):
            checked.append((name, cc.key()))
            return real(datum, cc)

        return wrapper

    for module, name in (
        (colored, "_closure_axioms"),
        (colored, "validate_colored_cone"),
        (fileio, "_closure_axioms"),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    datum = fileio.parse_datum(fileio.load_json(FIXTURES / "datum_toric2.json"))
    raw = fileio.parse_fan(fileio.load_json(FIXTURES / "fan_p1xp1.json"), datum)
    fan, report = fileio.validated_fan(datum, raw)
    assert fan is not None and report.passed
    assert len(raw) == 4 and checked == [("_closure_axioms", cc.key()) for cc in raw]
    # a lined cone first: the closure stops at it, and the report checks
    # every given cone once more
    checked.clear()
    line = ColoredCone(cone_from_generators([(1, 0), (-1, 0)], 2))
    fan, report = fileio.validated_fan(datum, [line] + raw)
    assert fan is None and report.checks["maximal[0].C3"] is False
    assert checked == [("_closure_axioms", cc.key()) for cc in [line, line] + raw]
    # listed again, each distinct given cone is still checked once for the
    # report, and every repeat gets the report of its first listing
    checked.clear()
    fan, report = fileio.validated_fan(datum, [line, line] + raw + raw)
    assert fan is None and len(report.checks) == 4 * 10
    assert checked == [("_closure_axioms", cc.key()) for cc in [line, line] + raw]
    assert report.reasons == [f"maximal[{i}]: C3: the cone contains a line" for i in (0, 1)]
    assert all(report.checks[f"maximal[{i + 6}].C1"] for i in range(4))


def counted_builds(monkeypatch) -> list:
    """The generators of each cone that ``fileio`` builds from now on."""
    built = []
    real = fileio.cone_from_generators
    monkeypatch.setattr(
        fileio, "cone_from_generators", lambda gens, dim: built.append(gens) or real(gens, dim)
    )
    return built


def test_repeated_entries_build_one_cone(monkeypatch):
    """k literal copies of one entry build one cone, shared by every copy;
    an entry with the same rays and other colors is another entry."""
    datum = fileio.parse_datum(fileio.load_json(FIXTURES / "datum_rank1.json"))
    built = counted_builds(monkeypatch)
    entry = {"rays": [[1]], "colors": ["D+"]}
    raw = fileio.parse_fan({"cones": [entry] * 7}, datum)
    assert len(raw) == 7 and all(cc is raw[0] for cc in raw) and len(built) == 1
    built.clear()
    raw = fileio.parse_fan({"cones": [entry, {"rays": [[1]]}, entry]}, datum)
    assert len(built) == 2 and raw[0] is raw[2] and raw[1].colors == frozenset()


def test_every_cone_built_is_charged_to_the_face_budget(monkeypatch):
    """Literal copies of the positive octant (8 faces) cost one build and
    one charge; the same cone spelled another way each time, its rays
    reordered or the redundant ray (1, 1, 1) added, is built and charged
    once per spelling: 8 spellings fill a budget of 64 faces, the 9th is
    refused."""
    from conftest import toric_datum

    monkeypatch.setattr(fileio, "MAX_FACES", 64)
    datum = toric_datum(3)
    built = counted_builds(monkeypatch)
    octant = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    raw = fileio.parse_fan({"cones": [{"rays": octant}] * 9}, datum)
    assert len(built) == 1 and len(raw[0].cone._lattice_faces()) == 8
    orders = [list(rays) for rays in itertools.permutations(octant)]
    spellings = (orders + [rays + [[1, 1, 1]] for rays in orders])[:9]
    assert len({json.dumps(rays) for rays in spellings}) == 9
    built.clear()
    raw = fileio.parse_fan({"cones": [{"rays": rays} for rays in spellings[:8]]}, datum)
    assert len(built) == 8 and len({cc.key() for cc in raw}) == 1
    built.clear()
    with pytest.raises(SchemaError) as info:
        fileio.parse_fan({"cones": [{"rays": rays} for rays in spellings]}, datum)
    assert str(info.value) == "fan.cones: more than 64 faces in all" and len(built) == 9


def test_serializing_a_closure_built_fan_closes_nothing(monkeypatch):
    """A fan that ``fan_from_maximal_cones`` built for the datum carries its
    closure, so serializing it checks no cone against C1-C4; the same
    members without facts are closed again, one check per member, and give
    the same bytes."""
    from conftest import toric_datum, twisted_cube_fan
    from coloredfans import colored

    datum = toric_datum(3)
    fan = twisted_cube_fan(datum)
    checked = []
    real = colored._closure_axioms
    monkeypatch.setattr(colored, "_closure_axioms", lambda d, cc: checked.append(cc) or real(d, cc))
    text = fileio.serialize_fan(datum, fan)
    assert checked == []
    assert fileio.serialize_fan(datum, ColoredFan(fan.cones)) == text
    assert len(checked) == len(fan) == 39
    # facts for another datum are not read
    checked.clear()
    assert fileio.serialize_fan(toric_datum(3), fan) == text and len(checked) == 39


def test_non_integral_data_not_serializable():
    from coloredfans.colored import SphericalDatum
    from fractions import Fraction

    datum = SphericalDatum(
        1,
        cone_from_generators([(1,), (-1,)], 1),
        ("D",),
        {"D": (Fraction(1, 2),)},
    )
    with pytest.raises(SemanticError):
        fileio.serialize_datum(datum)


@pytest.mark.parametrize(
    "parse, obj, message",
    [
        (
            "fan",
            {"cones": [{"rays": [], "colors": "D"}]},
            "fan.cones[0].colors: expected a list of names",
        ),
        (
            "action",
            {"generators": [{"matrix": [[1, 0], [0, 1]], "color_perm": {"D": 1}}]},
            "action.generators[0].color_perm: expected a name map",
        ),
        ("morphism", {"color_map": []}, "morphism.color_map: expected a name map"),
        (
            "morphism",
            {"dominant_colors": [1]},
            "morphism.dominant_colors: expected a list of names",
        ),
    ],
)
def test_name_checks_report_where(parse, obj, message):
    datum = fileio.parse_datum(json.loads((FIXTURES / "datum_toric2.json").read_text()))
    if parse == "morphism":
        base = json.loads((FIXTURES / "morphism_projection.json").read_text())
        obj = dict(base, **obj)
    with pytest.raises(SchemaError) as info:
        getattr(fileio, f"parse_{parse}")(obj, datum)
    assert str(info.value) == message


# Hypothesis properties: a fixed example sequence (derandomize) of bounded
# size.  A canonical object is one that serialization wrote.
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def int_lists(dim: int, first=st.integers(-3, 3)):
    """Integer vectors of length ``dim`` whose first entry is drawn from ``first``."""
    rest = st.lists(st.integers(-3, 3), min_size=dim - 1, max_size=dim - 1)
    return st.builds(lambda x, tail: [x] + tail, first, rest)


@st.composite
def datum_objects(draw):
    dim = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(["D", "E", "F+", "F-"]), unique=True, max_size=3))
    return {
        "dim": dim,
        "valuation_cone": {"generators": draw(st.lists(int_lists(dim), max_size=4))},
        "colors": [{"name": name, "rho": draw(int_lists(dim))} for name in names],
    }


@st.composite
def fan_objects(draw):
    """A datum with the whole space as valuation cone and one color, and a
    fan of one strictly convex cone, which takes the color when it holds its
    nonzero placement, and optionally its negative."""
    dim = draw(st.integers(1, 3))
    whole = [[int(i == j) * s for j in range(dim)] for i in range(dim) for s in (1, -1)]
    rho = draw(int_lists(dim))
    datum = {
        "dim": dim,
        "valuation_cone": {"generators": whole},
        "colors": [{"name": "D", "rho": rho}],
    }
    rays = draw(st.lists(int_lists(dim, st.integers(1, 3)), max_size=4))
    cone = cone_from_generators(rays, dim)
    colors = ["D"] if any(rho) and cone.contains(rho) else []
    cones = [{"rays": rays, "colors": colors}]
    if draw(st.booleans()):
        cones.append({"rays": [[-x for x in r] for r in rays], "colors": []})
    return datum, {"cones": cones}


@PROPERTY
@given(datum_objects())
def test_datum_parse_serialize_identity_property(obj):
    text = fileio.serialize_datum(fileio.parse_datum(obj))
    assert fileio.serialize_datum(fileio.parse_datum(json.loads(text))) == text


@PROPERTY
@given(fan_objects())
def test_fan_parse_serialize_identity_property(objects):
    datum_obj, fan_obj = objects
    datum = fileio.parse_datum(datum_obj)

    def serialized(obj):
        fan = fan_from_maximal_cones(datum, fileio.parse_fan(obj, datum))
        return fileio.serialize_fan(datum, fan)

    text = serialized(fan_obj)
    assert serialized(json.loads(text)) == text


def test_face_budget_counts_shared_faces_once_per_cone(monkeypatch):
    """The 8 octants have 8 faces each, 64 against the budget, of which 27
    are distinct: the walks share those, one object each, and the budget
    counts every cone's faces, shared ones included."""
    units = [[s * (i == j) for j in range(3)] for i in range(3) for s in (1, -1)]
    datum = fileio.parse_datum({"dim": 3, "valuation_cone": {"generators": units}})
    octants = [
        [[x, 0, 0], [0, y, 0], [0, 0, z]] for x in (1, -1) for y in (1, -1) for z in (1, -1)
    ]
    obj = {"cones": [{"rays": rays} for rays in octants]}
    monkeypatch.setattr(fileio, "MAX_FACES", 64)
    parsed = fileio.parse_fan(obj, datum)
    assert len({id(f) for cc in parsed for f in cc.cone.faces()}) == 27
    monkeypatch.setattr(fileio, "MAX_FACES", 63)
    with pytest.raises(SchemaError, match="more than 63 faces in all"):
        fileio.parse_fan(obj, datum)

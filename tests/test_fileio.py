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

    # the closure checks C1-C4 by _closure_axioms; the public check, by
    # _cone_axioms, runs only when one fails
    checked = []

    def counting(name, real):
        def wrapper(datum, cc):
            checked.append((name, cc.key()))
            return real(datum, cc)

        return wrapper

    for name in ("_closure_axioms", "_cone_axioms"):
        monkeypatch.setattr(colored, name, counting(name, getattr(colored, name)))
    datum = fileio.parse_datum(fileio.load_json(FIXTURES / "datum_toric2.json"))
    raw = fileio.parse_fan(fileio.load_json(FIXTURES / "fan_p1xp1.json"), datum)
    fan, report = fileio.validated_fan(datum, raw)
    assert fan is not None and report.passed
    assert len(raw) == 4 and checked == [("_closure_axioms", cc.key()) for cc in raw]


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

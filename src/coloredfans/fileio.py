"""JSON file formats, validated loading, and canonical serialization.

All vectors and matrices in files are integer-valued: rays and valuation
generators are scale-invariant, and the remaining matrices are lattice maps,
so integer input is lossless while internal arithmetic stays rational.
Parsing is strict: non-integers (including booleans) are schema errors.

:func:`parse_inputs` is the one-stop loader: it parses whatever paths it is
given, applies the face closure to fans, validates everything, and raises
:class:`~coloredfans.errors.SemanticError` (exit code 2 at the CLI) on any
structural violation, naming the failed check.  :func:`validated_fan` is its
fan step; it returns the report instead of raising, for callers that print
the report whatever the verdict.

Serialization is canonical and deterministic; ``parse`` then ``serialize``
reproduces a canonically ordered file byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    _checked_fan,
    fan_from_maximal_cones,
    member_sort_key,
    validate_colored_cone,
)
from .cones import cone_from_generators
from .errors import InputFileError, InvalidColoredConeError, SchemaError, SemanticError
from .galois import GroupAction, GroupElement, action_from_generators, validate_action
from .monoid import MorphismData, validate_morphism_data
from .quasiproj import maximal_members
from .reports import ValidationReport

# Largest ambient dimension a file may declare: the double description of a
# cone with an n-dimensional lineality space costs about n**3 steps.
MAX_DIM = 64
# Most cones a fan may list, and most rays a cone may list (generators, for a
# valuation cone): the closure checks every given cone and F2 compares every
# pair, and a double description grows with the rays.  Both are checked
# before any cone of the file is built.  The cone over the cube {1} x {-1,1}^7
# has 128 rays.
MAX_CONES = 512
MAX_RAYS = 256
# Most faces the given cones of one fan may have together, counted while
# their face lattices are walked, so that one cone with a huge lattice stops
# near the cap: the closure builds every face and compares each with the
# faces of its cone.  The cone over the cube {1} x {-1,1}^7 has 2188 faces,
# that over {1} x {-1,1}^8 has 6562.
MAX_FACES = 4096
# Most generators an action may list, checked before any matrix is built:
# each distinct one is tested for infinite order, seconds at dimension 64.
MAX_GENERATORS = 64
# Most inequality rows CLI ``quasiproj`` poses in a support LP, counted from
# the maximal cones before the LP is built: the exact simplex grows about
# cubically with the rows.  The fan of the m plane cones on (1, k), (1, k+1)
# has 3m(m-1): about 1.7 s at m = 18 (918 rows) and 2.3 s at m = 20 (1140
# rows) on a 2-core x86_64 box with Python 3.11.  The twisted cube has 528.
MAX_SUPPORT_ROWS = 1024


def _require_int(x, where: str) -> int:
    if type(x) is not int:
        raise SchemaError(f"{where}: expected an integer, got {x!r}")
    return x


def _int_vector(obj, length: int, where: str) -> tuple[int, ...]:
    if not isinstance(obj, list) or len(obj) != length:
        raise SchemaError(f"{where}: expected a list of {length} integers")
    return tuple(_require_int(x, where) for x in obj)


def _int_matrix(obj, nrows: int, ncols: int, where: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(obj, list) or len(obj) != nrows:
        raise SchemaError(f"{where}: expected {nrows} rows")
    return tuple(_int_vector(row, ncols, f"{where}[{i}]") for i, row in enumerate(obj))


def _expect_keys(obj, required: tuple[str, ...], optional: tuple[str, ...], where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    extra = [k for k in obj if k not in required and k not in optional]
    if extra:
        raise SchemaError(f"{where}: unknown keys {extra}")
    return obj


def _name_map(obj, where: str) -> dict:
    if not isinstance(obj, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in obj.items()
    ):
        raise SchemaError(f"{where}: expected a name map")
    return obj


def _name_list(obj, where: str) -> list:
    if not isinstance(obj, list) or not all(isinstance(c, str) for c in obj):
        raise SchemaError(f"{where}: expected a list of names")
    return obj


def load_json(path) -> object:
    p = Path(path)
    if not p.is_file():
        raise InputFileError(f"no such file: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{p}: not valid JSON ({exc})") from None
    except RecursionError:
        raise SchemaError(f"{p}: nested too deeply") from None


def parse_datum(obj, where: str = "datum") -> SphericalDatum:
    data = _expect_keys(obj, ("dim", "valuation_cone"), ("colors",), where)
    dim = _require_int(data["dim"], f"{where}.dim")
    if not 1 <= dim <= MAX_DIM:
        raise SchemaError(f"{where}.dim: must be between 1 and {MAX_DIM}")
    vc = _expect_keys(data["valuation_cone"], ("generators",), (), f"{where}.valuation_cone")
    gens_obj = vc["generators"]
    if not isinstance(gens_obj, list):
        raise SchemaError(f"{where}.valuation_cone.generators: expected a list")
    if len(gens_obj) > MAX_RAYS:
        raise SchemaError(f"{where}.valuation_cone.generators: more than {MAX_RAYS}")
    gens = [
        _int_vector(g, dim, f"{where}.valuation_cone.generators[{i}]")
        for i, g in enumerate(gens_obj)
    ]
    colors_obj = data.get("colors", [])
    if not isinstance(colors_obj, list):
        raise SchemaError(f"{where}.colors: expected a list")
    names: list[str] = []
    rho: dict[str, tuple[int, ...]] = {}
    for i, entry in enumerate(colors_obj):
        cobj = _expect_keys(entry, ("name", "rho"), (), f"{where}.colors[{i}]")
        name = cobj["name"]
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{where}.colors[{i}].name: expected a nonempty string")
        if name in rho:
            raise SchemaError(f"{where}.colors[{i}]: duplicate color name {name!r}")
        names.append(name)
        rho[name] = _int_vector(cobj["rho"], dim, f"{where}.colors[{i}].rho")
    return SphericalDatum(dim, cone_from_generators(gens, dim), tuple(names), rho)


def parse_fan(obj, datum: SphericalDatum, where: str = "fan") -> list[ColoredCone]:
    """Schema-level parse of the maximal cones; no axiom validation here.

    Every entry is read, and checked against :data:`MAX_CONES` and
    :data:`MAX_RAYS`, before any cone is built.  Each cone's face lattice
    is walked as soon as the cone is built, once per distinct colored cone
    as the closure walks them, and kept on the cone; more than
    :data:`MAX_FACES` faces in all is a schema error.  The walks share one
    table (see :meth:`Cone._lattice_faces`), so that a face two cones share
    is built once."""
    data = _expect_keys(obj, ("cones",), (), where)
    if not isinstance(data["cones"], list):
        raise SchemaError(f"{where}.cones: expected a list")
    if len(data["cones"]) > MAX_CONES:
        raise SchemaError(f"{where}.cones: more than {MAX_CONES}")
    parsed = []
    for i, entry in enumerate(data["cones"]):
        cobj = _expect_keys(entry, ("rays",), ("colors",), f"{where}.cones[{i}]")
        if not isinstance(cobj["rays"], list):
            raise SchemaError(f"{where}.cones[{i}].rays: expected a list")
        if len(cobj["rays"]) > MAX_RAYS:
            raise SchemaError(f"{where}.cones[{i}].rays: more than {MAX_RAYS}")
        rays = [
            _int_vector(r, datum.dim, f"{where}.cones[{i}].rays[{j}]")
            for j, r in enumerate(cobj["rays"])
        ]
        colors = _name_list(cobj.get("colors", []), f"{where}.cones[{i}].colors")
        unknown = sorted(set(colors) - set(datum.colors))
        if unknown:
            raise SchemaError(f"{where}.cones[{i}]: unknown colors {unknown}")
        parsed.append((rays, frozenset(colors)))
    cones = []
    walked = set()
    table: dict = {}
    budget = MAX_FACES
    for rays, colors in parsed:
        cc = ColoredCone(cone_from_generators(rays, datum.dim), colors)
        cones.append(cc)
        if cc.key() not in walked:
            walked.add(cc.key())
            faces = cc.cone._lattice_faces(budget, table)
            if faces is None:
                raise SchemaError(f"{where}.cones: more than {MAX_FACES} faces in all")
            budget -= len(faces)
    return cones


def parse_action(obj, datum: SphericalDatum, where: str = "action") -> GroupAction:
    data = _expect_keys(obj, ("generators",), (), where)
    if not isinstance(data["generators"], list):
        raise SchemaError(f"{where}.generators: expected a list")
    if len(data["generators"]) > MAX_GENERATORS:
        raise SchemaError(f"{where}.generators: more than {MAX_GENERATORS}")
    gens = []
    for i, entry in enumerate(data["generators"]):
        gobj = _expect_keys(entry, ("matrix",), ("color_perm",), f"{where}.generators[{i}]")
        matrix = _int_matrix(
            gobj["matrix"], datum.dim, datum.dim, f"{where}.generators[{i}].matrix"
        )
        perm_obj = _name_map(gobj.get("color_perm", {}), f"{where}.generators[{i}].color_perm")
        perm = {c: perm_obj.get(c, c) for c in datum.colors}
        unknown = sorted(set(perm_obj) - set(datum.colors))
        if unknown:
            raise SchemaError(f"{where}.generators[{i}].color_perm: unknown colors {unknown}")
        gens.append(GroupElement.make(matrix, perm))
    return action_from_generators(datum, gens)


def parse_morphism(obj, datum_src: SphericalDatum, where: str = "morphism"):
    """Returns (MorphismData, target datum, raw target maximal cones)."""
    data = _expect_keys(
        obj,
        ("matrix", "target_datum", "target_fan"),
        ("color_map", "dominant_colors"),
        where,
    )
    datum_dst = parse_datum(data["target_datum"], f"{where}.target_datum")
    matrix = _int_matrix(data["matrix"], datum_dst.dim, datum_src.dim, f"{where}.matrix")
    cmap_obj = _name_map(data.get("color_map", {}), f"{where}.color_map")
    dom_obj = _name_list(data.get("dominant_colors", []), f"{where}.dominant_colors")
    morphism = MorphismData.make(matrix, cmap_obj, dom_obj)
    target_raw = parse_fan(data["target_fan"], datum_dst, f"{where}.target_fan")
    return morphism, datum_dst, target_raw


# -- validated one-stop loading ----------------------------------------------


@dataclass
class ParsedInputs:
    """Validated in-memory objects plus the validation reports behind them."""

    datum: SphericalDatum
    fan: ColoredFan | None = None
    action: GroupAction | None = None
    morphism: MorphismData | None = None
    target_datum: SphericalDatum | None = None
    target_fan: ColoredFan | None = None
    reports: dict[str, ValidationReport] = field(default_factory=dict)


def validated_fan(
    datum: SphericalDatum, raw: list[ColoredCone]
) -> tuple[ColoredFan | None, ValidationReport]:
    """Close raw maximal cones under colored faces and validate the closed fan.

    Never raises on a failed axiom.  The closure checks each given cone
    against C1-C4 once.  When one fails no fan is built: the result is
    ``None`` with a report keyed ``maximal[i].C*`` for every given cone.
    Otherwise it is the closed fan with its report (``cone[i].C*``, ``F1``,
    ``F2``).  The closure proves C1-C4 and F1 for every member, so only F2
    is tested (:func:`colored._checked_fan`); the fan keeps the faces.
    """
    try:
        fan = fan_from_maximal_cones(datum, raw)
    except InvalidColoredConeError:
        report = ValidationReport(subject="fan members")
        for i, cc in enumerate(raw):
            report.merge(validate_colored_cone(datum, cc), f"maximal[{i}]")
        return None, report
    return fan, _checked_fan(datum, fan)[0]


def _require(report: ValidationReport, where: str) -> None:
    """Raise :class:`SemanticError` naming every failed check of ``report``."""
    if not report.passed:
        failed = [name for name, ok in report.checks.items() if not ok]
        raise SemanticError(
            f"{where} violates {', '.join(failed)}: " + "; ".join(report.reasons)
        )


def parse_inputs(
    datum_path, fan_path=None, action_path=None, morphism_path=None
) -> ParsedInputs:
    """Load and fully validate a datum plus optional fan, action, morphism."""
    datum = parse_datum(load_json(datum_path))
    out = ParsedInputs(datum)
    if fan_path is not None:
        raw = parse_fan(load_json(fan_path), datum)
        out.fan, out.reports["fan"] = validated_fan(datum, raw)
        _require(out.reports["fan"], "fan")
    if action_path is not None:
        out.action = parse_action(load_json(action_path), datum)
        out.reports["action"] = validate_action(datum, out.action)
        _require(out.reports["action"], "action")
    if morphism_path is not None:
        morphism, datum_dst, target_raw = parse_morphism(load_json(morphism_path), datum)
        out.target_fan, out.reports["target_fan"] = validated_fan(datum_dst, target_raw)
        _require(out.reports["target_fan"], "morphism.target_fan")
        validate_morphism_data(datum, datum_dst, morphism)
        out.morphism = morphism
        out.target_datum = datum_dst
    return out


# -- canonical serialization ------------------------------------------------


def _as_int(x: Fraction, where: str) -> int:
    if x.denominator != 1:
        raise SemanticError(f"{where}: value {x} is not integral; files store integers only")
    return x.numerator


def _vector_out(v, where: str) -> list[int]:
    return [_as_int(x, where) for x in v]


def _emit(obj, indent: int) -> str:
    """Canonical pretty form: 2-space indents, integer vectors on one line."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(k)}: {_emit(v, indent + 2)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            return "[" + ", ".join(str(x) for x in obj) + "]"
        parts = [f"{inner}{_emit(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return json.dumps(obj)


def _dump(obj) -> str:
    return _emit(obj, 0) + "\n"


def datum_to_obj(datum: SphericalDatum) -> dict:
    return {
        "dim": datum.dim,
        "valuation_cone": {
            "generators": [list(g) for g in datum.valuation_cone._generators()]
        },
        "colors": [
            {"name": name, "rho": _vector_out(datum.rho(name), f"rho({name})")}
            for name in datum.colors
        ],
    }


def serialize_datum(datum: SphericalDatum) -> str:
    return _dump(datum_to_obj(datum))


def fan_to_obj(datum: SphericalDatum, fan: ColoredFan) -> dict:
    cones = []
    for cc in sorted(maximal_members(datum, fan), key=member_sort_key):
        cones.append({"rays": [list(r) for r in cc.cone._rays], "colors": sorted(cc.colors)})
    return {"cones": cones}


def serialize_fan(datum: SphericalDatum, fan: ColoredFan) -> str:
    return _dump(fan_to_obj(datum, fan))


def action_to_obj(action: GroupAction) -> dict:
    return {
        "generators": [
            {
                "matrix": [_vector_out(row, "action matrix") for row in g.matrix],
                "color_perm": {c: v for c, v in g.color_perm},
            }
            for g in action.generators
        ]
    }


def serialize_action(action: GroupAction) -> str:
    return _dump(action_to_obj(action))


def serialize_morphism(
    m: MorphismData, datum_dst: SphericalDatum, fan_dst: ColoredFan
) -> str:
    obj = {
        "matrix": [_vector_out(row, "morphism matrix") for row in m.matrix],
        "color_map": {c: v for c, v in m.color_map},
        "dominant_colors": sorted(m.dominant_colors),
        "target_datum": datum_to_obj(datum_dst),
        "target_fan": fan_to_obj(datum_dst, fan_dst),
    }
    return _dump(obj)

"""JSON file formats, validated loading, and canonical serialization.

All vectors and matrices in files are integer-valued: rays and valuation
generators are scale-invariant, and the remaining matrices are lattice maps,
so integer input is lossless while internal arithmetic stays rational.
Parsing is strict: non-integers (including booleans), integers of more
than :data:`MAX_ENTRY_BITS` bits and lists over their cap are schema errors,
and an unreadable or non-UTF-8 file is an input error that names it.

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
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    _checked_fan,
    _closure_axioms,
    _face_closure,
    _facts_for,
    fan_from_maximal_cones,
    member_sort_key,
)
from .cones import cone_from_generators
from .errors import InputFileError, InvalidColoredConeError, SchemaError, SemanticError
from .galois import GroupAction, GroupElement, action_from_generators, validate_action
from .monoid import MorphismData, validate_morphism_data
from .reports import ValidationReport

# Largest ambient dimension a file may declare: the double description of a
# cone with an n-dimensional lineality space costs about n**3 steps.
MAX_DIM = 64
# Most cones a fan may list, and most rays a cone may list (generators, for a
# valuation cone, and colors, for a datum): the closure checks every given
# cone and F2 compares every pair, and a double description grows with the
# rays.  C1 rebuilds each cone with the placed colors it chooses, and a fan
# may choose only the datum's colors: `validate` on 512 cones in dimension
# 3 that each choose every color took 15.7 s with 4000 colors and 1.9 s
# with 256 (2-core x86_64, Python 3.11).  All three are checked before any
# cone of the file is built.  Few rays can still make a huge double
# description, 40 on the moment curve in dimension 8: it stops at
# ``cones.MAX_DD_PAIRS`` candidate ray pairs, an input error.  512
# overlapping plane cones, on (1, k) and (1, k+2), fail F2 at 1023 pairs:
# `validate` takes 3-4 s on a 2-core x86_64 box with Python 3.11.  The cone
# over the cube {1} x {-1,1}^7 has 128 rays.
MAX_CONES = 512
MAX_RAYS = 256
# Most faces the given cones of one fan may have together, counted while
# their face lattices are walked, so that one cone with a huge lattice stops
# near the cap: the closure builds every face and compares each with the
# faces of its cone.  Each distinct listed entry is built once, and every
# cone built is charged (see parse_fan).  The cone over the cube
# {1} x {-1,1}^7 has 2188 faces, that over {1} x {-1,1}^8 has 6562.
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
# Most bits of an integer in a file, checked as each is read, before any
# cone of the file is built; ``lined --lambda`` takes the same cap.  Exact
# elimination grows entries like determinants (Hadamard's bound), so the cap
# bounds the work only together with MAX_DIM, MAX_RAYS and
# ``cones.MAX_DD_PAIRS``.  The slowest file found inside every limit, one
# cone of 20 random rays in the positive orthant of dimension 12, runs
# `validate` to the pair cap in 8.7 s with entries of 40 bits, against 2.3 s
# with 2 bits and 17.9 s with 64; with 128-bit entries a signed one took
# 73 s, and ten 1000-digit rays in dimension 6 took 28 s (2-core x86_64,
# Python 3.11).  The cap admits the cone over the 40 points (1, t, ..., t^7)
# of the moment curve, whose largest entry 40^7 has 38 bits, which stops at
# the pair cap; the benchmark's inputs have entries of at most 3 bits.
MAX_ENTRY_BITS = 40

_DECIMAL = re.compile("-?[0-9]+")


def _require_int(x, where: str) -> int:
    if type(x) is not int:
        raise SchemaError(f"{where}: expected an integer, got {x!r}")
    if x.bit_length() > MAX_ENTRY_BITS:
        raise _entry_too_long(where)
    return x


def _entry_too_long(where: str) -> SchemaError:
    return SchemaError(f"{where}: an integer of more than {MAX_ENTRY_BITS} bits")


def _decimal_int(digits: str, where: str) -> int:
    """The integer that ``digits``, a match of ``_DECIMAL``, writes, within
    :data:`MAX_ENTRY_BITS`.  A number below 2**k has at most k digits, so a
    longer string is refused before it is converted."""
    if len(digits.lstrip("-0")) > MAX_ENTRY_BITS:
        raise _entry_too_long(where)
    return _require_int(int(digits), where)


def _int_vector(obj, length: int, where: str) -> tuple[int, ...]:
    if not isinstance(obj, list) or len(obj) != length:
        raise SchemaError(f"{where}: expected a list of {length} integers")
    return tuple(_require_int(x, where) for x in obj)


def _int_matrix(obj, nrows: int, ncols: int, where: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(obj, list) or len(obj) != nrows:
        raise SchemaError(f"{where}: expected {nrows} rows")
    return tuple(_int_vector(row, ncols, f"{where}[{i}]") for i, row in enumerate(obj))


def _entries(obj, where: str, cap: int) -> list[tuple[object, str]]:
    """Each entry of the list ``obj`` with its path ``where[i]``; anything
    but a list of at most ``cap`` entries is a schema error."""
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a list")
    if len(obj) > cap:
        raise SchemaError(f"{where}: more than {cap}")
    return [(entry, f"{where}[{i}]") for i, entry in enumerate(obj)]


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
    """The JSON value of the file at ``path``; a missing, unreadable,
    non-UTF-8 or non-JSON file is an input error that names it."""
    p = Path(path)
    try:
        if not p.is_file():
            raise InputFileError(f"no such file: {p}")
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{p}: not UTF-8 ({exc})") from None
    except OSError as exc:
        raise InputFileError(f"{p}: cannot be read ({exc.strerror or exc})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{p}: not valid JSON ({exc})") from None
    except ValueError:
        # the only other ValueError of json.loads: an integer of more digits
        # than Python converts (4300 by default), far above MAX_ENTRY_BITS
        raise _entry_too_long(str(p)) from None
    except RecursionError:
        raise SchemaError(f"{p}: nested too deeply") from None


def parse_datum(obj, where: str = "datum") -> SphericalDatum:
    data = _expect_keys(obj, ("dim", "valuation_cone"), ("colors",), where)
    dim = _require_int(data["dim"], f"{where}.dim")
    if not 1 <= dim <= MAX_DIM:
        raise SchemaError(f"{where}.dim: must be between 1 and {MAX_DIM}")
    vc = _expect_keys(data["valuation_cone"], ("generators",), (), f"{where}.valuation_cone")
    gens = [
        _int_vector(g, dim, at)
        for g, at in _entries(vc["generators"], f"{where}.valuation_cone.generators", MAX_RAYS)
    ]
    rho: dict[str, tuple[int, ...]] = {}
    for entry, at in _entries(data.get("colors", []), f"{where}.colors", MAX_RAYS):
        cobj = _expect_keys(entry, ("name", "rho"), (), at)
        name = cobj["name"]
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{at}.name: expected a nonempty string")
        if name in rho:
            raise SchemaError(f"{at}: duplicate color name {name!r}")
        rho[name] = _int_vector(cobj["rho"], dim, f"{at}.rho")
    return SphericalDatum(dim, cone_from_generators(gens, dim), tuple(rho), rho)


def parse_fan(obj, datum: SphericalDatum, where: str = "fan") -> list[ColoredCone]:
    """Schema-level parse of the maximal cones; no axiom validation here.

    Every entry is read, and checked against :data:`MAX_CONES` and
    :data:`MAX_RAYS`, before any cone is built.  Each distinct entry (rays
    as listed, colors) is built once, a repeat being the same cone, and its
    face lattice is walked and kept on the cone.  Every cone built is
    charged, so a cone respelled is charged again: more than
    :data:`MAX_FACES` faces in all is a schema error.  The walks share one
    table (see :meth:`Cone._lattice_faces`), so a shared face is built once."""
    data = _expect_keys(obj, ("cones",), (), where)
    parsed = []
    for entry, at in _entries(data["cones"], f"{where}.cones", MAX_CONES):
        cobj = _expect_keys(entry, ("rays",), ("colors",), at)
        rays = tuple(
            _int_vector(r, datum.dim, r_at)
            for r, r_at in _entries(cobj["rays"], f"{at}.rays", MAX_RAYS)
        )
        colors = _name_list(cobj.get("colors", []), f"{at}.colors")
        unknown = sorted(set(colors) - set(datum.colors))
        if unknown:
            raise SchemaError(f"{at}: unknown colors {unknown}")
        parsed.append((rays, frozenset(colors)))
    built: dict = dict.fromkeys(parsed)
    table: dict = {}
    budget = MAX_FACES
    for rays, colors in built:
        cc = built[rays, colors] = ColoredCone(cone_from_generators(rays, datum.dim), colors)
        faces = cc.cone._lattice_faces(budget, table)
        if faces is None:
            raise SchemaError(f"{where}.cones: more than {MAX_FACES} faces in all")
        budget -= len(faces)
    return [built[entry] for entry in parsed]


def parse_action(obj, datum: SphericalDatum, where: str = "action") -> GroupAction:
    data = _expect_keys(obj, ("generators",), (), where)
    gens = []
    for entry, at in _entries(data["generators"], f"{where}.generators", MAX_GENERATORS):
        gobj = _expect_keys(entry, ("matrix",), ("color_perm",), at)
        matrix = _int_matrix(gobj["matrix"], datum.dim, datum.dim, f"{at}.matrix")
        perm_obj = _name_map(gobj.get("color_perm", {}), f"{at}.color_perm")
        perm = {c: perm_obj.get(c, c) for c in datum.colors}
        unknown = sorted(set(perm_obj) - set(datum.colors))
        if unknown:
            raise SchemaError(f"{at}.color_perm: unknown colors {unknown}")
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
    ``None`` with a report keyed ``maximal[i].C*`` for every given cone,
    one check per distinct cone, with no LP (:func:`colored._closure_axioms`).
    Otherwise it is the closed fan with its report (``cone[i].C*``, ``F1``,
    ``F2``).  The closure proves C1-C4 and F1 for every member, so only F2
    is tested (:func:`colored._checked_fan`); the fan keeps the faces.
    """
    try:
        fan = fan_from_maximal_cones(datum, raw)
    except InvalidColoredConeError:
        report = ValidationReport(subject="fan members")
        given = {cc.key(): cc for cc in raw}
        axioms = {key: _closure_axioms(datum, cc)[0] for key, cc in given.items()}
        for i, cc in enumerate(raw):
            report.merge(axioms[cc.key()], f"maximal[{i}]")
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
    """The maximal cones of the fan's face closure, sorted: read off its facts
    when :func:`fan_from_maximal_cones` built it for ``datum``, since a
    closure closed again keeps its members."""
    facts = _facts_for(datum, fan) or _face_closure(datum, fan, {})
    cones = []
    for cc in sorted(facts.maximal(), key=member_sort_key):
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

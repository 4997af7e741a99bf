"""Command line interface over the library checks.

Every command reads JSON files, runs one check, prints a deterministic
report (plain text, or the structured form with ``--json``), and exits with

* 0 -- the check passed,
* 1 -- the check ran and the verdict is negative,
* 2 -- the inputs are unusable (schema or structural violation).

The structured report is the stable contract
``{command, verdict, axioms, witnesses, reasons}`` with rationals rendered
exactly as ``p/q`` (q > 0, gcd(p, q) = 1).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import fileio
from .colored import ColoredCone, SphericalDatum
from .errors import (
    InputFileError,
    MonoidConeError,
    NotInvolutionError,
    SchemaError,
    SemanticError,
)
from .galois import _k_form, validate_action
from .monoid import (
    _fan_morphism,
    is_monoid_cone,
    lined_closure_real_form,
    monoid_has_k_form,
)
from .quasiproj import _support_forms, _support_ineq_rows, _support_lp, _valuation_parts
from .reports import ValidationReport

COMMANDS = ("validate", "quasiproj", "kform", "monoid", "monoid-kform", "morphism", "lined")


def rat_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass
class CommandResult:
    exit_code: int
    text: str
    payload: dict


def _payload(command, verdict, axioms=None, witnesses=None, reasons=None) -> dict:
    return {
        "command": command,
        "verdict": verdict,
        "axioms": dict(axioms or {}),
        "witnesses": list(witnesses or []),
        "reasons": list(reasons or []),
    }


def _render(payload: dict, notes: list[str]) -> str:
    lines = [f"command: {payload['command']}"]
    lines.extend(f"note: {n}" for n in notes)
    lines.append(f"verdict: {'PASS' if payload['verdict'] else 'FAIL'}")
    if payload["axioms"]:
        lines.append("axioms:")
        lines.extend(
            f"  {name}: {'ok' if ok else 'FAIL'}" for name, ok in payload["axioms"].items()
        )
    if payload["witnesses"]:
        lines.append("witnesses:")
        for w in payload["witnesses"]:
            if isinstance(w, dict) and "cone" in w:
                lines.append(f"  {w['cone']}: [{', '.join(w['coefficients'])}]")
            else:
                lines.append(f"  {w}")
    if payload["reasons"]:
        lines.append("reasons:")
        lines.extend(f"  {r}" for r in payload["reasons"])
    return "\n".join(lines) + "\n"


def _result(payload: dict, notes: list[str] | None = None, as_json: bool = False) -> CommandResult:
    notes = notes or []
    text = json.dumps(payload, indent=2) + "\n" if as_json else _render(payload, notes)
    return CommandResult(0 if payload["verdict"] else 1, text, payload)


def _need(value, name: str):
    if value is None:
        raise InputFileError(f"this command requires --{name}")
    return value


def _load_single_cone(datum: SphericalDatum, path) -> ColoredCone:
    raw = fileio.parse_fan(fileio.load_json(path), datum)
    if len(raw) != 1:
        raise SemanticError("monoid checks need a fan file with exactly one cone")
    return raw[0]


def run_command(
    command: str,
    datum_path=None,
    fan_path=None,
    action_path=None,
    morphism_path=None,
    lambda_csv=None,
    theta_path=None,
    as_json: bool = False,
) -> CommandResult:
    """Execute one CLI command; raises InputFileError subclasses for exit code 2."""
    if command not in COMMANDS:
        raise InputFileError(f"unknown command {command!r}")

    if command == "validate":
        datum = fileio.parse_inputs(_need(datum_path, "datum")).datum
        report = ValidationReport(subject="inputs")
        if fan_path is not None:
            raw = fileio.parse_fan(fileio.load_json(fan_path), datum)
            _, report = fileio.validated_fan(datum, raw)
        if action_path is not None:
            action = fileio.parse_action(fileio.load_json(action_path), datum)
            report.merge(validate_action(datum, action), "action")
        payload = _payload(command, report.passed, report.checks, None, report.reasons)
        return _result(payload, report.notes, as_json)

    if command == "quasiproj":
        inputs = fileio.parse_inputs(_need(datum_path, "datum"), _need(fan_path, "fan"))
        # parse_inputs validated the fan; its closure names the maximal cones
        maximal = inputs.fan._facts.maximal()
        parts = _valuation_parts(inputs.datum, maximal)
        rows = _support_ineq_rows(parts)
        if rows > fileio.MAX_SUPPORT_ROWS:
            raise SchemaError(
                f"fan: the support LP would have {rows} inequality rows, "
                f"more than {fileio.MAX_SUPPORT_ROWS}"
            )
        result = _support_forms(
            inputs.datum, maximal, _support_lp(inputs.datum, maximal, parts)
        )
        witnesses = []
        if result.witness is not None:
            witnesses = [
                {
                    "cone": form.cone.describe(),
                    "coefficients": [rat_str(c) for c in form.coefficients],
                }
                for form in result.witness
            ]
        return _result(_payload(command, result.verdict, None, witnesses), [], as_json)

    if command == "kform":
        inputs = fileio.parse_inputs(
            _need(datum_path, "datum"),
            _need(fan_path, "fan"),
            _need(action_path, "action"),
        )
        # parse_inputs validated the fan and the action; its closure names the maximal cones
        maximal = inputs.fan._facts.maximal()
        result = _k_form(inputs.datum, inputs.action, inputs.fan, maximal)
        axioms = {"invariant": result.invariant}
        if result.orbits_quasiprojective is not None:
            axioms["orbit_fans_quasiprojective"] = result.orbits_quasiprojective
        return _result(
            _payload(command, result.verdict, axioms, None, result.reasons),
            list(result.notes),
            as_json,
        )

    if command == "monoid":
        datum = fileio.parse_inputs(_need(datum_path, "datum")).datum
        cc = _load_single_cone(datum, _need(fan_path, "fan"))
        result = is_monoid_cone(datum, cc)
        return _result(
            _payload(command, result.verdict, result.report.checks, None, result.report.reasons),
            result.report.notes,
            as_json,
        )

    if command == "monoid-kform":
        inputs = fileio.parse_inputs(
            _need(datum_path, "datum"), action_path=_need(action_path, "action")
        )
        cc = _load_single_cone(inputs.datum, _need(fan_path, "fan"))
        try:
            verdict = monoid_has_k_form(inputs.datum, inputs.action, cc)
        except MonoidConeError as exc:
            raise SemanticError(f"not a monoid cone: {exc}")
        reasons = [] if verdict else ["the face closure of the cone is not invariant"]
        return _result(
            _payload(command, verdict, {"monoid_cone": True, "invariant": verdict}, None, reasons),
            [],
            as_json,
        )

    if command == "morphism":
        inputs = fileio.parse_inputs(
            _need(datum_path, "datum"),
            _need(fan_path, "fan"),
            morphism_path=_need(morphism_path, "morphism"),
        )
        # parse_inputs validated the morphism data
        result = _fan_morphism(inputs.morphism, inputs.fan, inputs.target_fan)
        witnesses = [
            f"{src.describe()} -> {dst.describe()}" for src, dst in result.assignment
        ]
        return _result(
            _payload(command, result.verdict, None, witnesses, result.reasons), [], as_json
        )

    # command == "lined"
    csv = _need(lambda_csv, "lambda")
    parts = [part.strip() for part in csv.split(",")]
    if not all(fileio._DECIMAL.fullmatch(part) for part in parts):
        raise SchemaError(f"--lambda must be a comma-separated integer list, got {csv!r}")
    if len(parts) > fileio.MAX_DIM:
        # theta is squared exactly, cubic in the length
        raise SchemaError(f"--lambda: at most {fileio.MAX_DIM} entries, got {len(parts)}")
    weight = [fileio._decimal_int(part, "--lambda") for part in parts]
    theta_obj = fileio.load_json(_need(theta_path, "theta"))
    n = len(weight)
    theta = fileio._int_matrix(theta_obj, n, n, "theta")
    try:
        verdict = lined_closure_real_form(weight, theta)
    except NotInvolutionError as exc:
        raise SemanticError(str(exc))
    return _result(
        _payload(command, verdict, {"involution": True, "negates_weight": verdict}), [], as_json
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call: a
    command and the options every command shares.  ``parse_args`` keeps no
    state in it, so every call may reuse it."""
    parser = argparse.ArgumentParser(
        prog="coloredfans",
        description="Exact checks for colored cones and fans: validation, "
        "quasiprojectivity, Galois invariance and k-forms, monoid cones.",
    )
    parser.add_argument("command", choices=COMMANDS, help="the check to run")
    parser.add_argument("--datum")
    parser.add_argument("--fan")
    parser.add_argument("--action")
    parser.add_argument("--morphism")
    parser.add_argument("--lambda", dest="lambda_csv")
    parser.add_argument("--theta")
    parser.add_argument("--json", action="store_true")
    # monoid-kform always decides fan invariance, the k-form verdict of a monoid cone
    parser.add_argument("--force-lp", action="store_true", help="accepted and ignored")
    return parser


def _join_lambda(argv: list[str]) -> list[str]:
    """``--lambda -1,0`` as ``--lambda=-1,0``: argparse takes a value that
    starts with ``-`` and is no plain number for an option of its own."""
    out = []
    rest = iter(argv)
    for arg in rest:
        if arg == "--lambda" and (value := next(rest, None)) is not None:
            arg = f"--lambda={value}"
        out.append(arg)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(_join_lambda(sys.argv[1:] if argv is None else argv))
    try:
        result = run_command(
            args.command,
            datum_path=args.datum,
            fan_path=args.fan,
            action_path=args.action,
            morphism_path=args.morphism,
            lambda_csv=args.lambda_csv,
            theta_path=args.theta,
            as_json=args.json,
        )
    except (InputFileError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(result.text)
    return result.exit_code


def console_main() -> None:
    raise SystemExit(main())

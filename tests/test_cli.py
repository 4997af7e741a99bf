import json
from pathlib import Path

import pytest

from coloredfans.cli import main, run_command
from coloredfans.errors import InputFileError, SemanticError

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
        force_lp=True,
    )
    assert kform.exit_code == 0


def test_morphism_command():
    result = run_command(
        "morphism",
        datum_path=fx("datum_toric2.json"),
        fan_path=fx("fan_quadrant.json"),
        morphism_path=fx("morphism_projection.json"),
    )
    assert result.exit_code == 0
    assert result.payload["witnesses"]


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


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "datum.json"
    bad.write_text(json.dumps({"dim": 1, "valuation_cone": {"generators": [[0.5]]}}))
    assert main(["validate", "--datum", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


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


# -- golden output ----------------------------------------------------------

# Failing inputs the golden cases read; a file name missing here is a fixture.
GOLDEN_INPUTS = {
    "fan_c3.json": {"cones": [{"rays": [[1, 0], [-1, 0]], "colors": []}]},
    "fan_f2.json": {"cones": [{"rays": [[1, 0], [0, 1]]}, {"rays": [[1, 0], [1, 1]]}]},
    "action_scale.json": {"generators": [{"matrix": [[2, 0], [0, 1]], "color_perm": {}}]},
    "morphism_c3_target.json": {
        "matrix": [[1, 0]],
        "target_datum": {"dim": 1, "valuation_cone": {"generators": [[1], [-1]]}},
        "target_fan": {"cones": [{"rays": [[1], [-1]]}]},
    },
}


def _read_golden(path: Path) -> dict[str, tuple[int, str]]:
    """Command line (file names only) -> (exit code, exact stdout).

    The file holds blocks ``### <command line>``, ``exit <code>``, then the
    stdout verbatim.
    """
    cases = {}
    for block in path.read_text().split("### ")[1:]:
        command, code, stdout = block.split("\n", 2)
        cases[command] = (int(code.removeprefix("exit ")), stdout)
    return cases


GOLDEN = _read_golden(Path(__file__).parent / "cli_golden.txt")


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_golden_output(command, tmp_path, capsys):
    # every cli_files benchmark command on the shipped fixtures plus failing
    # inputs, in text and --json form: exit code and stdout byte for byte
    for name, obj in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(obj))
    argv = []
    for arg in command.split():
        if arg.endswith(".json"):
            arg = str(tmp_path / arg if arg in GOLDEN_INPUTS else FIXTURES / arg)
        argv.append(arg)
    code = main(argv)
    assert (code, capsys.readouterr().out) == GOLDEN[command]

"""The CLI golden cases of ``cli_golden.txt`` and the failing inputs they read.

The file holds blocks ``### <command line>``, ``exit <code>``, then the
stdout verbatim; a command line names its files only, each a fixture or
one of :data:`GOLDEN_INPUTS`.  ``test_cli.py`` replays the blocks under
pytest.  Run as a script, this module replays every block in process with
the standard library alone, so any supported interpreter can run it::

    PYTHONPATH=src python3.10 tests/golden.py

It prints one line per mismatch of exit code or stdout bytes, then a
count, and exits 1 on any mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"

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
    """Command line (file names only) -> (exit code, exact stdout)."""
    cases = {}
    for block in path.read_text().split("### ")[1:]:
        command, code, stdout = block.split("\n", 2)
        cases[command] = (int(code.removeprefix("exit ")), stdout)
    return cases


GOLDEN = _read_golden(HERE / "cli_golden.txt")


def write_inputs(directory: Path) -> None:
    """Write each of :data:`GOLDEN_INPUTS` into ``directory``."""
    for name, obj in GOLDEN_INPUTS.items():
        (directory / name).write_text(json.dumps(obj))


def golden_argv(command: str, directory: Path) -> list[str]:
    """The arguments of a golden command line, each file name made a path:
    into ``directory`` for one of :data:`GOLDEN_INPUTS`, else a fixture."""
    return [
        str(directory / arg if arg in GOLDEN_INPUTS else FIXTURES / arg)
        if arg.endswith(".json")
        else arg
        for arg in command.split()
    ]


def replay() -> int:
    """Run every golden command in process; the number of mismatches."""
    from coloredfans.cli import main

    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for command, expected in GOLDEN.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(golden_argv(command, Path(tmp)))
            if (code, out.getvalue()) != expected:
                mismatches += 1
                print(f"mismatch: {command} (exit {code}, expected {expected[0]})")
    print(f"{len(GOLDEN) - mismatches} of {len(GOLDEN)} golden cases match")
    return mismatches


if __name__ == "__main__":
    sys.exit(1 if replay() else 0)

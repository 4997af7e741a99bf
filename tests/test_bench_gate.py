"""The benchmark's traced smoke run: one query of each workload, checked.

With ``--trace 1`` the run also decides the twisted cube and compares its
per-layer call counts with ``TWISTED_CUBE_COUNTS`` in ``bench/run.py``, so a
change that alters how much work a verdict takes fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["cube3d", "plane_fans", "kform_orbits", "cli_files"]


def test_traced_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["workload"] for line in lines] == WORKLOADS
    for line in lines:
        assert line["result"]["correct"] is True, line["report"]["failures"]

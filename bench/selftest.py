"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks that

* the golden cube table lists the 64 patterns that ``cube_patterns`` makes,
  46 of them quasiprojective, and that pattern 24 is the twisted cube of
  ``tests/conftest.py``;
* the table agrees with both deciders, ``lp_feasible`` and
  ``fourier_motzkin``, on the twisted cube, one other negative pattern and
  two positive ones (``make_golden.py`` checks all 64 when it writes the
  table);
* the smoke mode passes on every workload, traced and untraced, and prints
  every metric that ``BENCHMARK.json`` names, with its unit, and no other;
* a normal run ends with the result line: one JSON object with the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
* in a directory that holds only ``BENCHMARK.json`` and the benchmark, the
  benchmark fails with a non-zero exit code and prints no result.
"""

from __future__ import annotations

import ast
import json
import random
import shutil
import subprocess
import sys

from workloads import BENCH_DIR, GOLDEN_CUBE, ROOT, TWISTED_CUBE, cube_patterns, toric_generators

RUN = [sys.executable, str(BENCH_DIR / "run.py")]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def conftest_twisted_cube():
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TWISTED_CUBE_CONES":
            return ast.literal_eval(node.value)
    raise AssertionError("TWISTED_CUBE_CONES not found in tests/conftest.py")


def check_golden():
    golden = json.loads(GOLDEN_CUBE.read_text())
    rows = golden["patterns"]
    patterns = cube_patterns()
    check(len(rows) == 64 and [r["index"] for r in rows] == list(range(64)), "64 patterns")
    for row, cones in zip(rows, patterns):
        check(row["cones"] == [[list(r) for r in c] for c in cones], f"pattern {row['index']}")
    check(sum(r["quasiprojective"] for r in rows) == 46, "46 quasiprojective patterns")
    twisted = {frozenset(c) for c in conftest_twisted_cube()}
    check({frozenset(c) for c in patterns[TWISTED_CUBE]} == twisted, "twisted cube index")
    check(not rows[TWISTED_CUBE]["quasiprojective"], "the twisted cube is not quasiprojective")

    sys.path.insert(0, str(ROOT / "src"))
    from coloredfans.colored import ColoredCone, SphericalDatum, fan_from_maximal_cones
    from coloredfans.cones import cone_from_generators
    from coloredfans.linprog import fourier_motzkin, lp_feasible
    from coloredfans.quasiproj import build_support_lp

    datum = SphericalDatum(3, cone_from_generators(toric_generators(3), 3))
    rng = random.Random(0)
    yes = [r["index"] for r in rows if r["quasiprojective"]]
    no = [r["index"] for r in rows if not r["quasiprojective"] and r["index"] != TWISTED_CUBE]
    chosen = [TWISTED_CUBE, rng.choice(no)] + rng.sample(yes, 2)
    for index in chosen:
        fan = fan_from_maximal_cones(
            datum, [ColoredCone(cone_from_generators(c, 3)) for c in patterns[index]]
        )
        lp = build_support_lp(datum, fan)
        expected = rows[index]["quasiprojective"]
        check((lp_feasible(lp) is not None) == expected, f"pattern {index}: lp_feasible")
        check(fourier_motzkin(lp, max_vars=lp.num_vars) == expected,
              f"pattern {index}: fourier_motzkin")
        check([lp.num_vars, len(lp.eq_constraints), len(lp.ineq_constraints)] == rows[index]["lp"],
              f"pattern {index}: LP size")
    print(f"golden table agrees with both deciders on patterns {chosen}")


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_smoke():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            RUN + ["--smoke", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        check(out.returncode == 0, f"smoke --trace {trace} failed:\n{out.stdout}{out.stderr}")
        lines = [json.loads(line) for line in out.stdout.splitlines()]
        want = declared(kind)
        for line in lines:
            metrics = line["result"]["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            check(got == want, f"{line['workload']} --trace {trace}: metrics {got}, want {want}")
            check(all(isinstance(m["value"], (int, float)) for m in metrics.values()),
                  f"{line['workload']}: a metric without a number")
        print(f"smoke --trace {trace}: {[line['workload'] for line in lines]} pass")


def check_result_line():
    out = subprocess.run(
        RUN + ["--workload", "cli_files", "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    check(out.returncode == 0, f"run failed:\n{out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    check(set(result) == RESULT_KEYS, f"result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, "result")
    check(set(result["metrics"]) == set(declared("end_to_end")), "end-to-end metrics")
    print("result line ok")


def check_bare_directory():
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    try:
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "plane_fans", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0, "the benchmark passed without the library")
    check(not out.stdout.strip(), f"a result was printed without the library: {out.stdout}")
    print("bare directory: fails without a result")


def main() -> int:
    check_golden()
    check_result_line()
    check_bare_directory()
    check_smoke()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Run-to-run spread of the end-to-end metrics, as the bounds are checked.

    python3 bench/spread.py --workload NAME [--seeds 10] [--first-seed 1]
                            [--against FILE]

Runs the benchmark once per seed, untraced, and prints for each end-to-end
metric the median, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, and that
share against a third of the metric's bound in ``BENCHMARK.json``.  The last
line is a JSON object with the workload and the medians.  ``--against`` takes
a file whose last line is such an object, from an earlier set of runs, and
also checks that no median is worse than that set's by more than the bound.
The exit code is 0 only when every spread, ``setup_s``'s too, is below a third
of its bound and every median is within its bound of the earlier set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import BENCH_DIR, ROOT


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: wrong verdicts", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)
    earlier = None
    if args.against is not None:
        earlier = json.loads(args.against.read_text().splitlines()[-1])["medians"]
    ok = True
    medians = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        medians[name] = median
        share = (q3 - q1) / median
        ok &= share < bound / 3
        line = (f"{name:16s} median {median:.5g} {metric['unit']:4s} "
                f"spread {share:.4f} (a third of the bound: {bound / 3:.4f})")
        if earlier is not None:
            worse = median / earlier[name] - 1
            if metric["better"] == "higher":
                worse = earlier[name] / median - 1
            ok &= worse <= bound
            line += f", worse than the earlier set by {worse:+.4f} (bound {bound})"
        print(line)
    print(json.dumps({"workload": args.workload, "medians": medians}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

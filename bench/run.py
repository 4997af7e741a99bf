"""Time to verdict for the coloredfans library, on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke [--trace 1]

One closed-loop caller in one process sends the next query only after the
previous verdict has returned.  Each query is timed from outside the library
and its verdict is checked against a golden table or a known ground truth
(see ``workloads.py``).  A run takes whole rounds of its workload's query
mix, as many as its nominal round time fits into ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs the
same untraced pass, then wraps every module entry point (``tracing.py``),
checks the tracer against known counts on the twisted cube, replays the same
queries traced and reports the per-layer metrics, with the tracing overhead as
the traced time over the untraced time of the same queries, minus one (both
divided by the slowness of the box, see below).  The layers' self times
include the calibration samples taken inside their spans, a few per cent.

The end-to-end times are in seconds of the reference box: each measured
time is divided by the slowness of the box while it ran.  An interval timer
runs a calibration loop of the benchmark's own every 25 ms, inside the
queries too; the loop's time is taken out of the query's time, and the
slowness is the loop's mean time over the query (and the samples just before
and after it) over its time on the reference box (see ``Calibration``).  The
measured times and the run's median slowness are printed beside them.
``setup_s`` is the median of 21 set-ups, each a fresh import of coloredfans
plus the generation of the inputs and the loading of the golden table;
writing the CLI input files to disk follows, untimed.  In a traced run
``attempted`` counts both passes and the twisted-cube check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment and the figures that are not metrics.  Every result is
also written to ``bench/out/``.  The exit code is 0 only when every verdict
is right.  ``--smoke`` runs one query of each workload and prints one line
per workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import LAYERS, SHOULD_MOVE, Tracer
from workloads import OUT, ROOT, TWISTED_CUBE, WORKLOADS, cube_patterns, toric_generators

SRC = ROOT / "src"
SETUP_REPEATS = 21
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

# A shared 2-core box drifts between speed states up to 2x apart, within
# seconds, and the query times follow.  A fixed loop of exact arithmetic of the
# benchmark's own (no library code) is timed every CALIBRATE_EVERY_S of wall
# time from an interval timer, also inside queries, so that a query of several
# seconds is divided by the slowness over its whole length, not at its ends.
# CALIBRATION_REF_S is the loop's time on the reference box (2 cores,
# Python 3.11) in its fast state.
CALIBRATION_REF_S = 0.000375
CALIBRATE_EVERY_S = 0.025

# is_quasiprojective(check=True) on the twisted cube, fan built beforehand.
TWISTED_CUBE_COUNTS = {
    "colored.validate_colored_cone": 156,
    "colored.relative_interior_meets": 1452,
    "cones._dd": 940,
    "linprog._pivot": 4342,
}
TWISTED_CUBE_LP = (36, 64, 528)


class Calibration:
    """Samples of the calibration loop, as (start, end), taken from SIGALRM."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []

    @staticmethod
    def loop() -> None:
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(1, i % 97 + 1)

    def tick(self, *_) -> None:
        start = perf_counter()
        self.loop()
        self.ticks.append((start, perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        self.tick()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()

    def slowness(self) -> float:
        """The run's median slowness, for the report."""
        return statistics.median(end - start for start, end in self.ticks) / CALIBRATION_REF_S

    def normalize(self, intervals) -> list[float]:
        """Each (start, end) interval's length, less the samples taken inside
        it, over the mean slowness of those samples and the two around them."""
        starts = [start for start, _ in self.ticks]
        out = []
        for start, end in intervals:
            lo, hi = bisect_left(starts, start), bisect_left(starts, end)
            inside = self.ticks[lo:hi]
            around = inside + [self.ticks[k] for k in (lo - 1, hi) if 0 <= k < len(self.ticks)]
            busy = sum(e - s for s, e in inside)
            loop_s = statistics.mean(e - s for s, e in around)
            out.append((end - start - busy) * CALIBRATION_REF_S / loop_s)
        return out


def load_library() -> SimpleNamespace:
    """Import coloredfans afresh from the source tree, every layer module."""
    for name in [n for n in sys.modules if n == "coloredfans" or n.startswith("coloredfans.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("coloredfans")
    if Path(package.__file__).resolve().parent != SRC / "coloredfans":
        raise ImportError(f"coloredfans imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"coloredfans.{m}") for m in LAYERS})


def set_up(name: str, seed: int):
    """Import plus input generation, repeated; returns (the (start, end) of
    each set-up, lib, workload)."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib = load_library()
        workload = WORKLOADS[name](lib, seed)
        intervals.append((start, perf_counter()))
    workload.prepare()
    return intervals, lib, workload


def query_count(workload, seconds: float) -> int:
    """Whole rounds, as many nominal round times as fit into ``seconds``.

    The work of a run depends on ``--seconds`` only, never on how fast the
    box happens to be, so every run of a workload measures the same mix.
    """
    return workload.round_size * max(1, round(seconds / workload.round_s))


def run_queries(workload, count: int, tracer=None):
    """Closed loop: ``count`` queries, each sent when the previous one returned.

    Returns (the (start, end) of each query, failures as (query, reason)).
    """
    intervals, failures = [], []
    for i in range(count):
        if tracer is not None:
            tracer.query, tracer.active = i, True
        error = None
        start = perf_counter()
        try:
            answer = workload.run(i)
        except Exception as exc:  # a query that raises is a failed query
            error = f"raised {exc!r}"
        intervals.append((start, perf_counter()))
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                error = workload.check(i, answer)
            except Exception as exc:
                error = f"check raised {exc!r}"
        if error is not None:
            failures.append((i, error))
    return intervals, failures


def twisted_cube_check(lib, tracer: Tracer) -> str | None:
    """Trace is_quasiprojective on the twisted cube; compare with known counts."""
    datum = lib.colored.SphericalDatum(3, lib.cones.cone_from_generators(toric_generators(3), 3))
    fan = lib.colored.fan_from_maximal_cones(
        datum,
        [lib.colored.ColoredCone(lib.cones.cone_from_generators(c, 3))
         for c in cube_patterns()[TWISTED_CUBE]],
    )
    tracer.reset()
    tracer.active = True
    try:
        verdict = lib.quasiproj.is_quasiprojective(datum, fan, check=True).verdict
    finally:
        tracer.active = False
    got = {name: tracer.counts[name] for name in TWISTED_CUBE_COUNTS}
    lps = [tuple(x) for x in tracer.support_lps]
    tracer.reset()
    if verdict or got != TWISTED_CUBE_COUNTS or lps != [TWISTED_CUBE_LP]:
        return (
            f"twisted cube: verdict {verdict}, counts {got}, support LPs {lps}; "
            f"expected False, {TWISTED_CUBE_COUNTS}, [{TWISTED_CUBE_LP}]"
        )
    return None


def environment(args, queries: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "coloredfans").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "queries": queries,
        "setup_repeats": SETUP_REPEATS,
    }


def percentile(times, p: float) -> float:
    """The p-th percentile by the nearest-rank method."""
    ordered = sorted(times)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def bench(args, count: int | None = None) -> tuple[dict, dict]:
    """One run, of ``count`` queries if given; returns (result line, report line)."""
    calibration = Calibration()
    calibration.start()
    workload = tracer = None
    try:
        setups, lib, workload = set_up(args.workload, args.seed)
        # The inputs live for the whole run: keep the collector from scanning
        # them inside the library's timed calls.
        gc.collect()
        gc.freeze()
        count = count or query_count(workload, args.seconds)
        intervals, failures = run_queries(workload, count)
        n = attempted = len(intervals)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            error = twisted_cube_check(lib, tracer)
            if error is not None:
                failures.append((-1, error))
            gc.collect()
            traced, traced_failures = run_queries(workload, n, tracer)
            failures += traced_failures
            attempted += 1 + n
    finally:
        calibration.stop()
        if workload is not None:
            workload.close()
    times = [end - start for start, end in intervals]
    norm = calibration.normalize(intervals)
    raw = {
        "setup_s": statistics.median(end - start for start, end in setups),
        "queries_per_s": n / sum(times),
        "query_s.p50": statistics.median(times),
    }
    report = {
        "max_entry_bits": workload.max_entry_bits,
        "slowness": calibration.slowness(),
        "calibration_samples": len(calibration.ticks),
        "raw": raw,
    }
    if n >= 10 * TAIL_SAMPLES:
        raw["query_s.p90"] = percentile(times, 90)
        report["query_s.p90"] = {"value": percentile(norm, 90), "unit": "s", "samples": n}
    if tracer is not None:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tracer.metrics(n).items()
        }
        metrics["input.max_entry_bits"] = {"value": workload.max_entry_bits, "unit": "bits"}
        overhead = sum(calibration.normalize(traced)) / sum(norm) - 1
        metrics["trace.overhead"] = {"value": overhead, "unit": "1"}
        report["spans"] = len(tracer.spans)
        report["should_move"] = SHOULD_MOVE
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(calibration.normalize(setups)), "unit": "s"},
            "queries_per_s": {"value": n / sum(norm), "unit": "1/s"},
            "query_s.p50": {"value": statistics.median(norm), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    report["failed_ratio"] = {"value": len(failures) / attempted, "unit": "1"}
    report["failures"] = failures[:20]
    report["query_s"] = times
    report["env"] = environment(args, n)
    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics
    }
    return result, report


def smoke(args) -> int:
    """Every workload at its smallest size: one query each."""
    ok = True
    for name in WORKLOADS:
        args.workload = name
        result, report = bench(args, count=1)
        ok &= result["correct"]
        print(json.dumps({"workload": name, "report": report, "result": result}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, report = bench(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"report": report, "result": result, "query_s": report.pop("query_s")}
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    if not result["correct"]:
        for query, reason in report["failures"]:
            print(f"query {query}: {reason}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)

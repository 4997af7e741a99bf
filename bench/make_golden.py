"""Regenerate ``golden_cube.json``: the quasiprojectivity verdict of each of
the 64 cube patterns, decided twice, by the simplex (``lp_feasible``) and by
Fourier-Motzkin elimination.  The two must agree.  Takes several minutes.

    python3 bench/make_golden.py
"""

from __future__ import annotations

import json
import sys
import time

from workloads import GOLDEN_CUBE, ROOT, cube_patterns, toric_generators


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from coloredfans.colored import ColoredCone, SphericalDatum, fan_from_maximal_cones
    from coloredfans.cones import cone_from_generators
    from coloredfans.linprog import fourier_motzkin, lp_feasible
    from coloredfans.quasiproj import build_support_lp

    datum = SphericalDatum(3, cone_from_generators(toric_generators(3), 3))
    rows = []
    for index, cones in enumerate(cube_patterns()):
        start = time.perf_counter()
        fan = fan_from_maximal_cones(
            datum, [ColoredCone(cone_from_generators(c, 3)) for c in cones]
        )
        lp = build_support_lp(datum, fan)
        by_simplex = lp_feasible(lp) is not None
        by_elimination = fourier_motzkin(lp, max_vars=lp.num_vars)
        if by_simplex != by_elimination:
            print(f"pattern {index}: the deciders disagree", file=sys.stderr)
            return 1
        rows.append(
            {
                "index": index,
                "cones": [[list(r) for r in c] for c in cones],
                "quasiprojective": by_simplex,
                "members": len(fan),
                "lp": [lp.num_vars, len(lp.eq_constraints), len(lp.ineq_constraints)],
            }
        )
        print(
            f"pattern {index:2d}: {by_simplex} ({time.perf_counter() - start:.1f} s)",
            file=sys.stderr,
            flush=True,
        )
    table = {
        "deciders": ["lp_feasible", "fourier_motzkin"],
        "quasiprojective": sum(r["quasiprojective"] for r in rows),
        "patterns": rows,
    }
    GOLDEN_CUBE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Node-count scaling report (not scored): the desk90_dlife plan at 30, 60
and 90 nodes, with the fitted exponent of wall_s ~ N^k.

    python3 bench/scaling.py --seed 1

Run it from the repository root. Each size's wall_s is the median of
REPEATS plan runs; the exponent is the least-squares slope of log wall_s
on log N.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import statistics
import sys
from pathlib import Path

from run import cell_problems, run_plan, use_checkout_sources

SIZES = (30, 60, 90)
# plan runs per size; the median damps the host's drift between runs
REPEATS = 3


def fitted_exponent(sizes, walls) -> float:
    xs = [math.log(n) for n in sizes]
    ys = [math.log(w) for w in walls]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    use_checkout_sources(root)
    import plans
    from dtnsim.experiment import load_experiment_config

    work = root / ".bench_build" / "dtnsim" / f"scaling-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    walls, failed = [], 0
    try:
        for n in SIZES:
            raw = dict(plans.desk_dlife_plan(args.seed, node_count=n), out=f"out{n}")
            cfg = load_experiment_config(raw, work)
            runs = [run_plan(cfg) for _ in range(REPEATS)]
            bad, notes = cell_problems(runs, len(cfg.cells))
            failed += bad
            for note in notes:
                print(f"CHECK FAILED: {note}", file=sys.stderr)
            ok = [r.wall_s for r in runs if r.error is None]
            if not ok:
                break
            walls.append(statistics.median(ok))
            events = runs[0].records
            print(f"nodes {n}: wall_s {walls[-1]:.4f} s, sim.events {events}, "
                  f"events_per_s {events / walls[-1]:.1f} records/s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(walls) == len(SIZES):
        print(f"fitted exponent: wall_s ~ N^{fitted_exponent(SIZES, walls):.2f}")
    return 0 if failed == 0 and len(walls) == len(SIZES) else 1


if __name__ == "__main__":
    sys.exit(main())

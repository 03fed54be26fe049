"""dtnsim benchmark: runs one workload's experiment plan through the public
experiment API, as `dtnsim run --jobs 1` does, and checks what it wrote.

    python3 bench/run.py --workload desk90_dlife --seed 1 --seconds 42 --trace 0

Run it from the repository root; it imports dtnsim from ./src and works in
./.bench_build. With --trace 0 it reports the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (see bench/README.md). The
last line of standard output is one JSON object; the exit code is non-zero
when a run raises or an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Before each plan run the set-up is timed at least this many times and for
# at least this long; the reported setup_s is the median of all the samples.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
# plan runs per end-to-end measurement, at least: the second checks determinism
MIN_PLAN_RUNS = 2


def use_checkout_sources(root: Path) -> None:
    """Import dtnsim from the checkout's src/, never from an installed copy."""
    src = root / "src"
    if not (src / "dtnsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no dtnsim sources at {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import dtnsim

    if Path(dtnsim.__file__).resolve().parent != (src / "dtnsim").resolve():
        raise SystemExit(f"error: imported dtnsim from {dtnsim.__file__}, not {src}")


@dataclass
class PlanRun:
    """One execution of the plan: host time, checked cells, or the error."""

    wall_s: float
    cells: list
    error: str | None = None

    @property
    def records(self) -> int:
        return sum(c.events for c in self.cells)


def run_plan(cfg, full_check: bool = True) -> PlanRun:
    """Run every cell of the plan into a fresh output directory and check it
    (see checks.check_plan for what full_check adds to the log digests)."""
    from dtnsim import experiment

    from checks import check_plan

    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    gc.collect()  # start each run from a clean heap, as a fresh `dtnsim run` does
    t0 = time.perf_counter()
    try:
        experiment.run_experiment(cfg, jobs=1)
    except Exception:  # a failing plan is reported as failed cells, not a crash
        return PlanRun(time.perf_counter() - t0, [], traceback.format_exc())
    wall_s = time.perf_counter() - t0
    return PlanRun(wall_s, check_plan(cfg, full_check))


def time_setup(raw: dict, base: Path) -> list[float]:
    """Host times of loading the config and materializing each distinct seed."""
    from dtnsim.experiment import load_experiment_config, materialize_scenario

    times: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        cfg = load_experiment_config(raw, base)
        for seed in cfg.seeds:
            materialize_scenario(cfg, seed)
        times.append(time.perf_counter() - t0)
    return times


def cell_problems(runs: list[PlanRun], n_cells: int) -> tuple[int, list[str]]:
    """Count failed cells over all runs; a cell fails on a check, or when its
    log differs from the same cell's log in the first run."""
    failed, notes = 0, []
    reference = None
    for i, run in enumerate(runs):
        if run.error is not None:
            failed += n_cells
            notes.append(f"run {i} raised:\n{run.error}")
            continue
        if reference is None:
            reference = {c.name: c.log_sha256 for c in run.cells}
        for c in run.cells:
            problems = list(c.problems)
            if c.log_sha256 != reference.get(c.name):
                problems.append(f"log differs from the first run's ({reference.get(c.name)})")
            if problems:
                failed += 1
                notes += [f"run {i} cell {c.name}: {p}" for p in problems]
    return failed, notes


def print_cells(run: PlanRun, label: str) -> None:
    for c in run.cells:
        print(f"{label} cell {c.name}: sim.events={c.events} sim.delivery={c.delivery!r} "
              f"sim.cost={c.cost!r} sim.latency_s={c.latency_s!r} sim.log_sha256={c.log_sha256}")


def measure(raw: dict, work: Path, seconds: float, started: float) -> tuple[dict, list[PlanRun]]:
    """End-to-end metrics: plan runs, each after a few timed set-ups, while
    a further set-up and run, as long as the last one, still end within
    `seconds` of `started` (at least MIN_PLAN_RUNS). The first run's output
    is checked in full, which makes it longer; later runs must reproduce its
    logs byte for byte."""
    from dtnsim.experiment import load_experiment_config

    cfg = load_experiment_config(raw, work)
    setups: list[float] = []
    runs: list[PlanRun] = []
    while True:
        t0 = time.perf_counter()
        setups += time_setup(raw, work)
        runs.append(run_plan(cfg, full_check=not runs))
        if runs[-1].error is not None:
            break
        now = time.perf_counter()
        if len(runs) >= MIN_PLAN_RUNS and now - started + (now - t0) > seconds:
            break
    ok = [r for r in runs if r.error is None]
    walls = [r.wall_s for r in ok] or [runs[-1].wall_s]
    rates = [r.records / r.wall_s for r in ok] or [0.0]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "events_per_s": (statistics.median(rates), "records/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"plan runs: {len(runs)}; wall_s each: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"set-ups: {len(setups)}; setup_s each: " + " ".join(f"{t:.4f}" for t in setups))
    return metrics, runs


def measure_traced(raw: dict, work: Path, spans_path: Path) -> tuple[dict, list[PlanRun]]:
    """Per-layer metrics from a traced run of the plan, after an untraced
    run that is the base of the tracing overhead."""
    from dtnsim.experiment import load_experiment_config

    from tracing import Tracer

    cfg = load_experiment_config(raw, work)
    plain = run_plan(cfg)
    with Tracer() as tracer:
        traced = run_plan(cfg, full_check=False)
    tracer.write_spans(spans_path)
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    print(f"untraced wall_s {plain.wall_s:.4f} s; traced wall_s {traced.wall_s:.4f} s; "
          f"tracing overhead {traced.wall_s - plain.wall_s:.4f} s "
          f"({(traced.wall_s / plain.wall_s - 1) * 100:.1f}% of the untraced run)")
    print(f"spans: {len(tracer.spans)} written to {spans_path}")
    for key in sorted(tracer.stats):
        st = tracer.stats[key]
        print(f"  {key:28s} calls={st.calls:<9d} total_s={st.total_s:.4f} self_s={st.self_s:.4f}")
    return layers, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42.0,
                        help="time one end-to-end measurement may take, preparation included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    use_checkout_sources(root)
    import plans

    if args.workload not in plans.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (valid: {', '.join(plans.WORKLOADS)})")

    build = root / ".bench_build" / "dtnsim"
    work = build / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        raw = dict(plans.prepare(args.workload, args.seed, work), out="out")
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        if args.trace:
            spans_path = build / f"spans-{args.workload}-s{args.seed}.json"
            metrics, runs = measure_traced(raw, work, spans_path)
        else:
            metrics, runs = measure(raw, work, args.seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_cells = len(raw["routers"]) * len(raw["ttls"]) * len(raw["seeds"])
    failed, notes = cell_problems(runs, n_cells)
    attempted = n_cells * len(runs)
    for note in notes:
        print(f"CHECK FAILED: {note}", file=sys.stderr)
    for i, run in enumerate(runs):
        print_cells(run, f"run {i}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"cells_failed {failed} count (cells_attempted {attempted} count)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

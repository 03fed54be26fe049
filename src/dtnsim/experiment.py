"""Experiment plans: router x TTL x seed sweeps over one scenario, per-run
artifacts, aggregation, and result-set comparison."""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .contacts import (
    TRACE_FORMATS,
    ConfigError,
    ContactTrace,
    RoutineSpec,
    SampleConfig,
    _integer,
    _list,
    _number,
    _object,
    generate_routine_trace,
    load_contact_trace,
)
from .engine import SimConfig, SimStartupError, run_epoch
from .ledger import dump_ledgers_csv
from .metrics import RunMetrics, aggregate_runs, compute_run_metrics, summarize
from .routing import ROUTER_NAMES
from .socialgraph import centrality_csv, communities_json
from .workload import WorkloadEntry, generate_workload, load_workload

RESULTS_HEADER = "router,ttl,seed,delivery,cost,latency"
AGGREGATE_HEADER = (
    "router,ttl,runs,delivery_mean,delivery_ci,cost_mean,cost_ci,latency_mean,latency_ci"
)
COMPARE_HEADER = "ttl,metric,a_mean,b_mean,delta,delta_unit,delta_ci"


@dataclass(frozen=True)
class ExperimentConfig:
    """One scenario swept over routers x TTLs x seeds. `sim` is the template
    of every cell's `SimConfig`: each cell fills in its trace, workload,
    router and TTL."""

    routers: tuple[str, ...]
    ttls: tuple[float, ...]
    seeds: tuple[int, ...]
    trace_path: Path | None
    trace_format: str
    routine: RoutineSpec | None
    workload_path: Path | None
    workload_gen: dict | None
    sim: SimConfig
    out_dir: Path

    @property
    def cells(self) -> list[tuple[str, float, int]]:
        return [(r, t, s) for r in self.routers for t in self.ttls for s in self.seeds]

    @property
    def buffer_capacity(self) -> int:
        # read by the benchmark's output checks (bench/checks.py, check_plan)
        return self.sim.buffer_capacity


def _require(d: Mapping, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return d[key]


# zero-config sweep: all routers, TTLs of 1/2/4 days and 1/3 weeks, ten seeds
DEFAULT_TTLS = (86400.0, 172800.0, 345600.0, 604800.0, 1814400.0)
DEFAULT_SEEDS = tuple(range(1, 11))


def _optional_number(key: str, value) -> float | None:
    return None if value is None else _number(key, value)


def _boolean(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(key, f"expected true or false, got {value!r}")
    return value


def _string(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(key, f"expected a string, got {value!r}")
    return value


# keys named after a SimConfig field, and how each value is read; the
# SimConfig checks the value itself
_SETTINGS = {
    "buffer_capacity": _integer,
    "bandwidth": _optional_number,
    "damping": _number,
    "k": _integer,
    "familiar_threshold": _number,
    "centrality_window": _number,
    "recompute_interval": _number,
    "epoch": _optional_number,
    "drop_policy": _string,
    "charge_summaries": _boolean,
}
_SAMPLE_KEYS = ("samples_per_day", "seconds_per_day")  # SampleConfig's fields
_PLAN_KEYS = ("routers", "ttls", "seeds", "trace", "trace_format", "workload", "out")


def _sweep(raw: Mapping, key: str, default: tuple, read) -> tuple:
    values = tuple(read(f"{key}[{i}]", v) for i, v in enumerate(_list(key, raw.get(key, default))))
    if not values:
        raise ConfigError(key, "need at least one value")
    if len(set(values)) != len(values):
        raise ConfigError(key, "values must be distinct")
    return values


def _workload_generator(spec: Mapping) -> dict:
    """The generator spec read and checked: a count > 0, a finite window
    [start, end] with 0 <= start <= end, and sizes 0 < min_size <= max_size."""
    unknown = sorted(set(spec) - {"count", "window", "min_size", "max_size"})
    if unknown:
        raise ConfigError(f"workload.{unknown[0]}", "unknown key")
    count = _integer("workload.count", spec["count"])
    if count <= 0:
        raise ConfigError("workload.count", "must be > 0")
    window = _require(spec, "window", "workload")
    if not isinstance(window, (list, tuple)) or len(window) != 2:
        raise ConfigError("workload.window", f"expected [start, end], got {window!r}")
    lo, hi = (_number(f"workload.window[{i}]", v) for i, v in enumerate(window))
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 <= lo <= hi):
        raise ConfigError("workload.window", f"expected finite 0 <= start <= end, got {window!r}")
    sizes = (_integer("workload.min_size", spec.get("min_size", 1000)),
             _integer("workload.max_size", spec.get("max_size", 100000)))
    if not 0 < sizes[0] <= sizes[1]:
        raise ConfigError("workload.min_size", f"expected 0 < min_size <= max_size, got {sizes}")
    return {"count": count, "window": (lo, hi), "size_range": sizes}


def load_experiment_config(raw: Mapping, base_dir: Path | str = ".") -> ExperimentConfig:
    base = Path(base_dir)
    raw = _object("plan", raw)

    unknown = sorted(set(raw) - set(_PLAN_KEYS) - set(_SAMPLE_KEYS) - set(_SETTINGS))
    if unknown:
        raise ConfigError(unknown[0], "unknown key")

    grid = {key: _integer(key, raw[key]) for key in _SAMPLE_KEYS if key in raw}
    try:
        sample = SampleConfig(**grid)
    except ValueError as exc:  # the message opens with the field at fault
        key, _, reason = str(exc).partition(" ")
        raise ConfigError(key, reason) from None
    try:
        sim = SimConfig(
            sample=sample,
            **{key: read(key, raw[key]) for key, read in _SETTINGS.items() if key in raw},
        )
    except SimStartupError as exc:
        raise ConfigError(exc.field, exc.reason) from None

    routers = _sweep(raw, "routers", ROUTER_NAMES, _string)
    ttls = _sweep(raw, "ttls", DEFAULT_TTLS, _number)
    seeds = _sweep(raw, "seeds", DEFAULT_SEEDS, _integer)
    # each router and TTL of the sweep passes the engine's own check
    for key, name, values in (("routers", "router", routers), ("ttls", "ttl", ttls)):
        for i, value in enumerate(values):
            try:
                replace(sim, **{name: value})
            except SimStartupError as exc:
                raise ConfigError(f"{key}[{i}]", exc.reason) from None

    trace = _require(raw, "trace", "")
    trace_path = routine = None
    trace_format = _string("trace_format", raw.get("trace_format", "csv"))
    if trace_format not in TRACE_FORMATS:
        valid = ", ".join(TRACE_FORMATS)
        raise ConfigError("trace_format", f"{trace_format!r} is unknown (valid: {valid})")
    if isinstance(trace, str):
        trace_path = base / trace
        if not trace_path.exists():
            raise ConfigError("trace", f"file not found: {trace_path}")
    elif isinstance(trace, Mapping) and "routine" in trace:
        try:
            routine = RoutineSpec.from_dict(trace["routine"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError("trace.routine", str(exc)) from None
        if routine.cfg != sample:
            raise ConfigError("trace.routine", "routine sample grid must match run sample grid")
    else:
        raise ConfigError("trace", "expected a file path or {'routine': {...}}")

    workload = _require(raw, "workload", "")
    workload_path = workload_gen = None
    if isinstance(workload, str):
        workload_path = base / workload
        if not workload_path.exists():
            raise ConfigError("workload", f"file not found: {workload_path}")
    elif isinstance(workload, Mapping) and "count" in workload:
        workload_gen = _workload_generator(workload)
    else:
        raise ConfigError("workload", "expected a file path or {'count': ..., 'window': [lo, hi]}")

    return ExperimentConfig(
        routers=routers,
        ttls=ttls,
        seeds=seeds,
        trace_path=trace_path,
        trace_format=trace_format,
        routine=routine,
        workload_path=workload_path,
        workload_gen=workload_gen,
        sim=sim,
        out_dir=base / _string("out", raw.get("out", "results")),
    )


def load_experiment_config_file(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    return load_experiment_config(raw, path.parent)


def materialize_scenario(
    cfg: ExperimentConfig, seed: int
) -> tuple[ContactTrace, tuple[WorkloadEntry, ...]]:
    """Resolve the trace and workload for one seed.

    Generated scenarios vary with the seed; file-based ones are fixed, so
    every seed replays the identical input (and, the engine being
    deterministic, yields identical logs).
    """
    if cfg.routine is not None:
        trace = generate_routine_trace(cfg.routine, seed)
    else:
        trace, _ = load_contact_trace(cfg.trace_path, cfg.trace_format)
    if cfg.workload_gen is not None:
        gen = cfg.workload_gen
        # the run's epoch depends on the trace, so only now can the window
        # be checked against it
        epoch = run_epoch(cfg.sim.epoch, trace, cfg.sim.sample)
        if gen["window"][0] < epoch:
            raise ConfigError(
                "workload.window",
                f"starts at {gen['window'][0]!r}, before the run's epoch {epoch!r} (seed {seed})",
            )
        entries = generate_workload(
            gen["count"], trace.node_count, gen["window"], seed, size_range=gen["size_range"]
        )
    else:
        entries = load_workload(cfg.workload_path)
    return trace, tuple(entries)


def cell_dir_name(router: str, ttl: float, seed: int) -> str:
    ttl_txt = str(int(ttl)) if float(ttl).is_integer() else repr(float(ttl))
    return f"{router}_ttl{ttl_txt}_s{seed}"


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _write_whole(path: Path, chunks: Iterable[str]) -> None:
    """Write the text `chunks` to `path` whole or not at all: into
    `<path>.tmp`, renamed onto `path` once every chunk is written."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as f:
            f.writelines(chunks)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _cell_tasks(cfg: ExperimentConfig, dump_ledgers: bool):
    """Every plan cell as a `_run_cell` task, seed by seed; each seed's
    scenario is materialized once, when its first cell is asked for, and
    shared by all of its cells."""
    for seed in cfg.seeds:
        scenario = materialize_scenario(cfg, seed)
        for router in cfg.routers:
            for ttl in cfg.ttls:
                yield cfg, router, ttl, seed, scenario, dump_ledgers


def _run_cell(args) -> tuple[str, float, int, RunMetrics]:
    cfg, router, ttl, seed, (trace, workload), dump_ledgers = args
    from .engine import Simulation  # local import keeps worker pickling light

    sim = Simulation(
        replace(cfg.sim, trace=trace, workload=workload, router=router, ttl=ttl),
        keep_ledger=dump_ledgers,
    )
    log = sim.run()
    cell = cfg.out_dir / cell_dir_name(router, ttl, seed)
    cell.mkdir(parents=True, exist_ok=True)
    _write_whole(cell / "events.csv", log.csv_chunks())
    if dump_ledgers:
        pair_csv, imp_csv = dump_ledgers_csv(sim.final_ledger())
        _write_whole(cell / "ledger_pairs.csv", [pair_csv])
        _write_whole(cell / "ledger_importance.csv", [imp_csv])
        _write_whole(cell / "communities.json", [communities_json(sim.communities)])
        _write_whole(
            cell / "centrality.csv",
            [centrality_csv(sim.centralities, sim.communities, trace.node_count)],
        )
    return router, ttl, seed, compute_run_metrics(log)


def _run_cells_in_pool(tasks: Iterable, jobs: int) -> list[tuple[str, float, int, RunMetrics]]:
    """Run the tasks on `jobs` worker processes, with at most `jobs` cells
    in flight: the next task, and so the next seed's scenario, is taken only
    when a cell finishes. Outcomes come in completion order."""
    outcomes = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        in_flight = set()
        for task in tasks:
            in_flight.add(pool.submit(_run_cell, task))
            if len(in_flight) == jobs:
                done, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
                outcomes += [future.result() for future in done]
        outcomes += [future.result() for future in wait(in_flight)[0]]
    return outcomes


def run_experiment(
    cfg: ExperimentConfig, jobs: int = 1, dump_ledgers: bool = False
) -> tuple[Path, Path]:
    """Run every plan cell, write per-run logs plus the results and aggregate
    CSVs, and return their paths."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    # a generator: serially, only one seed's scenario is alive at a time
    tasks = _cell_tasks(cfg, dump_ledgers)
    if jobs > 1:
        outcomes = _run_cells_in_pool(tasks, jobs)
    else:
        outcomes = [_run_cell(task) for task in tasks]

    outcomes.sort(key=lambda o: (o[0], o[1], o[2]))
    results_lines = [RESULTS_HEADER]
    for router, ttl, seed, rm in outcomes:
        results_lines.append(
            f"{router},{ttl!r},{seed},{_fmt(rm.delivery_probability)},{_fmt(rm.avg_cost)},{_fmt(rm.avg_latency)}"
        )
    results_path = cfg.out_dir / "results.csv"
    _write_whole(results_path, ["\n".join(results_lines) + "\n"])

    aggregate_lines = [AGGREGATE_HEADER]
    for router in cfg.routers:
        for ttl in cfg.ttls:
            runs = [rm for r, t, _, rm in outcomes if r == router and t == ttl]
            agg = aggregate_runs(runs)
            cols = [router, repr(float(ttl)), str(len(runs))]
            for summary in (agg.delivery, agg.cost, agg.latency):
                if summary is None:
                    cols += ["", ""]
                else:
                    cols += [_fmt(summary.mean), _fmt(summary.ci_half_width)]
            aggregate_lines.append(",".join(cols))
    aggregate_path = cfg.out_dir / "aggregate.csv"
    _write_whole(aggregate_path, ["\n".join(aggregate_lines) + "\n"])
    return results_path, aggregate_path


# -- comparison -------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    router: str
    ttl: float
    seed: int
    delivery: float | None
    cost: float | None
    latency: float | None


def parse_results_csv(text: str) -> list[ResultRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != RESULTS_HEADER:
        raise ValueError(f"expected results header {RESULTS_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        router, ttl, seed, delivery, cost, latency = ln.split(",")
        opt = lambda s: None if s == "" else float(s)
        rows.append(
            ResultRow(router, float(ttl), int(seed), opt(delivery), opt(cost), opt(latency))
        )
    return rows


def _select_router(rows: list[ResultRow], router: str | None, label: str) -> str:
    routers = sorted({r.router for r in rows})
    if router is None:
        if len(routers) != 1:
            raise ValueError(
                f"{label}: result set contains routers {routers}; pick one with --router-{label}"
            )
        return routers[0]
    if router not in routers:
        raise ValueError(f"{label}: router {router!r} not in result set (has {routers})")
    return router


@dataclass(frozen=True)
class ComparisonRow:
    ttl: float
    metric: str
    a_mean: float
    b_mean: float
    delta: float
    delta_unit: str  # "pp" for delivery, "%" for cost/latency
    delta_ci: float | None


def compare_results(
    rows_a: list[ResultRow],
    rows_b: list[ResultRow],
    router_a: str | None = None,
    router_b: str | None = None,
) -> list[ComparisonRow]:
    """Per (TTL, metric) differences between two result sets over one plan.

    Delivery differences are percentage points (antisymmetric under swapping
    the inputs); cost and latency are percent change relative to side B.
    Confidence half-widths come from the seed-paired differences.
    """
    name_a = _select_router(rows_a, router_a, "a")
    name_b = _select_router(rows_b, router_b, "b")
    side_a = {(r.ttl, r.seed): r for r in rows_a if r.router == name_a}
    side_b = {(r.ttl, r.seed): r for r in rows_b if r.router == name_b}
    if set(side_a) != set(side_b):
        raise ValueError("result sets cover different (ttl, seed) plans; cannot compare")
    ttls = sorted({ttl for ttl, _ in side_a})

    out: list[ComparisonRow] = []
    for ttl in ttls:
        seeds = sorted(seed for t, seed in side_a if t == ttl)
        for metric in ("delivery", "cost", "latency"):
            pairs = []
            for seed in seeds:
                va = getattr(side_a[(ttl, seed)], metric)
                vb = getattr(side_b[(ttl, seed)], metric)
                if va is not None and vb is not None:
                    pairs.append((va, vb))
            if not pairs:
                continue
            mean_a = sum(a for a, _ in pairs) / len(pairs)
            mean_b = sum(b for _, b in pairs) / len(pairs)
            # the delta and its half-width take the same scale
            if metric == "delivery":
                unit, scale = "pp", lambda x: x * 100.0
            elif mean_b == 0:
                continue
            else:
                unit, scale = "%", lambda x: x / mean_b * 100.0
            ci = summarize([a - b for a, b in pairs]).ci_half_width  # None for one pair
            out.append(ComparisonRow(
                ttl, metric, mean_a, mean_b, scale(mean_a - mean_b), unit,
                None if ci is None else scale(ci),
            ))
    return out


def comparison_csv(rows: Sequence[ComparisonRow]) -> str:
    lines = [COMPARE_HEADER]
    for r in rows:
        ci = "" if r.delta_ci is None else repr(r.delta_ci)
        lines.append(
            f"{r.ttl!r},{r.metric},{r.a_mean!r},{r.b_mean!r},{r.delta!r},{r.delta_unit},{ci}"
        )
    return "\n".join(lines) + "\n"

import dataclasses
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import pytest

from dtnsim import (
    ConfigError,
    ContactEvent,
    ContactTrace,
    CsvFormatter,
    MetricsFold,
    SimConfig,
    Simulation,
    SocialLedger,
    WorkloadEntry,
    serialize_contact_trace,
)
from dtnsim import engine
from dtnsim.experiment import (
    ResultRow,
    cell_dir_name,
    compare_results,
    comparison_csv,
    load_experiment_config,
    materialize_scenario,
    parse_results_csv,
    run_experiment,
)


def routine_dict(node_count=6, days=2):
    return {
        "node_count": node_count,
        "days": days,
        "samples_per_day": 24,
        "seconds_per_day": 86400,
        "groups": {"work": [i % 2 for i in range(node_count)]},
        "activities": {
            "work": {"samples": list(range(9, 15)), "probability": 0.7, "duration": 1800},
            "background": {"samples": list(range(24)), "probability": 0.05, "duration": 600},
        },
    }


def base_config(out="results"):
    return {
        "routers": ["epidemic"],
        "ttls": [86400],
        "seeds": [1, 2],
        "trace": {"routine": routine_dict()},
        "workload": {"count": 20, "window": [0.0, 86400.0]},
        "buffer_capacity": 2_000_000,
        "out": out,
    }


def test_zero_config_defaults_mirror_reference_setup(tmp_path):
    from dtnsim.experiment import DEFAULT_SEEDS, DEFAULT_TTLS

    minimal = {
        "trace": {"routine": routine_dict()},
        "workload": {"count": 10, "window": [0.0, 86400.0]},
    }
    cfg = load_experiment_config(minimal, tmp_path)
    assert cfg.routers == ("dlife", "dlifecomm", "bubblerap", "epidemic")
    assert cfg.ttls == DEFAULT_TTLS == (86400.0, 172800.0, 345600.0, 604800.0, 1814400.0)
    assert cfg.seeds == DEFAULT_SEEDS == tuple(range(1, 11))
    assert cfg.sim == SimConfig()  # every engine default is SimConfig's
    assert cfg.sim.sample.samples_per_day == 24
    assert cfg.buffer_capacity == 2_000_000
    assert cfg.sim.k == 5 and cfg.sim.damping == 0.8
    assert len(cfg.cells) == 4 * 5 * 10


def test_config_validation_field_paths():
    cfg = base_config()
    cfg["routers"] = ["warp"]
    with pytest.raises(ConfigError) as err:
        load_experiment_config(cfg, ".")
    assert "routers[0]" in str(err.value)

    cfg = base_config()
    cfg["seeds"] = [1, 1]
    with pytest.raises(ConfigError, match="seeds"):
        load_experiment_config(cfg, ".")

    cfg = base_config()
    del cfg["trace"]
    with pytest.raises(ConfigError, match="trace"):
        load_experiment_config(cfg, ".")

    cfg = base_config()
    cfg["trace"] = "missing.csv"
    with pytest.raises(ConfigError, match="not found"):
        load_experiment_config(cfg, ".")

    cfg = base_config()
    cfg["ttls"] = []
    with pytest.raises(ConfigError, match="ttls"):
        load_experiment_config(cfg, ".")


@pytest.mark.parametrize("key", ["trace", "workload"])
def test_loader_rejects_a_directory_as_an_input_file(tmp_path, key):
    (tmp_path / "inputs").mkdir()
    raw = base_config()
    raw[key] = "inputs"
    with pytest.raises(ConfigError, match="is a directory") as err:
        load_experiment_config(raw, tmp_path)
    assert err.value.field == key


@pytest.mark.parametrize("raw", [5, "abc", [], None])
def test_loader_rejects_a_plan_that_is_not_an_object(raw):
    with pytest.raises(ConfigError) as err:
        load_experiment_config(raw, ".")
    assert err.value.field == "plan"
    assert "expected a JSON object" in str(err.value)


@pytest.mark.parametrize("knob", ["familiar_threshold", "centrality_window", "recompute_interval"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_knobs_must_be_finite_and_positive(knob, value):
    with pytest.raises(ConfigError) as err:
        SimConfig(**{knob: value})
    assert err.value.field == knob

    raw = base_config()
    raw[knob] = value
    with pytest.raises(ConfigError) as err:
        load_experiment_config(raw, ".")
    assert err.value.field == knob


@pytest.mark.parametrize("key,value,path", [
    ("bandwith", 11e6, "bandwith"),  # a typo of a known key
    ("k", 5.7, "k"),
    ("buffer_capacity", 2_000_000.5, "buffer_capacity"),
    ("buffer_capacity", math.inf, "buffer_capacity"),
    ("samples_per_day", 24.5, "samples_per_day"),
    ("seconds_per_day", "86400", "seconds_per_day"),
    ("charge_summaries", "false", "charge_summaries"),
    ("charge_summaries", 0, "charge_summaries"),
    ("drop_policy", 1, "drop_policy"),
    ("damping", "0.8", "damping"),
    ("bandwidth", True, "bandwidth"),
    ("bandwidth", math.nan, "bandwidth"),
    ("epoch", math.inf, "epoch"),
    ("ttls", [86400, math.inf], "ttls[1]"),
    ("ttls", 86400, "ttls"),
    pytest.param("ttls", [10**400], "ttls[0]", id="ttls-int-beyond-float"),
    ("seeds", [1, 2.5], "seeds[1]"),
    ("routers", ["dlife", "dlife"], "routers"),
    ("workload", {"count": "many", "window": [0.0, 86400.0]}, "workload.count"),
    ("trace_format", "hagle", "trace_format"),
    ("workload", {"count": 20, "window": [0.0, 86400.0], "max_sizes": 5}, "workload.max_sizes"),
    ("workload", {"count": 20}, "workload.window"),
    ("workload", {"count": 20, "window": [86400.0, 0.0]}, "workload.window"),
    ("workload", {"count": 20, "window": [0.0]}, "workload.window"),
    ("workload", {"count": 20, "window": [0.0, math.inf]}, "workload.window"),
    ("workload", {"count": 20, "window": [0.0, "1"]}, "workload.window[1]"),
    ("workload", {"count": 20, "window": [0, 1], "min_size": 0}, "workload.min_size"),
    ("workload", {"count": 20, "window": [0, 1], "min_size": 500, "max_size": 100},
     "workload.min_size"),
    ("workload", {"count": 20, "window": [0, 1], "max_size": 1.5}, "workload.max_size"),
    ("seconds_per_day", 86401, "seconds_per_day"),  # not a multiple of samples_per_day
    ("workload", {"count": 5, "window": [-3600, 100]}, "workload.window"),
])
def test_loader_rejects_unknown_keys_and_wrong_types(key, value, path):
    raw = base_config()
    raw[key] = value
    with pytest.raises(ConfigError) as err:
        load_experiment_config(raw, ".")
    assert err.value.field == path


@pytest.mark.parametrize("key,value,message", [
    ("node_count", 6.5, "node_count: expected an integer, got 6.5"),
    ("days", True, "days: expected an integer, got True"),
    ("activities", {"work": {"samples": [9], "probability": 0.5, "duration": math.nan}},
     "duration: must be finite and > 0, got nan"),
])
def test_loader_reports_routine_spec_errors(key, value, message):
    raw = base_config()
    raw["trace"]["routine"][key] = value
    with pytest.raises(ConfigError) as err:
        load_experiment_config(raw, ".")
    assert err.value.field == "trace.routine"
    assert str(err.value) == f"trace.routine: {message}"


def test_loader_reads_the_workload_generator():
    raw = base_config()
    raw["workload"] = {"count": 20.0, "window": [0, 86400], "min_size": 10, "max_size": 20}
    cfg = load_experiment_config(raw, ".")
    assert cfg.workload_gen == {"count": 20, "window": (0.0, 86400.0), "size_range": (10, 20)}
    _, workload = materialize_scenario(cfg, 1)
    assert len(workload) == 20 and all(10 <= e.size <= 20 for e in workload)


def test_loader_keeps_engine_types():
    raw = base_config()
    raw.update(k=4.0, buffer_capacity=3e6, damping=1, bandwidth=11_000_000, epoch=0)
    sim = load_experiment_config(raw, ".").sim
    assert (sim.k, sim.buffer_capacity) == (4, 3_000_000)
    assert all(type(v) is int for v in (sim.k, sim.buffer_capacity))
    assert all(type(v) is float for v in (sim.damping, sim.bandwidth, sim.epoch))


def _load_bench_module(name):
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_plans_load(tmp_path):
    plans = _load_bench_module("plans")
    for workload in plans.WORKLOADS:
        raw = plans.prepare(workload, 1, tmp_path)
        cfg = load_experiment_config(dict(raw, out="out"), tmp_path)
        assert cfg.sim.buffer_capacity == raw["buffer_capacity"]


def test_benchmark_tracer_wraps_live_names():
    # The benchmark's tracer wraps engine methods by name and skips a name
    # that no longer exists, which would read 0 for that layer's metrics.
    tracing = _load_bench_module("tracing")
    trace = ContactTrace.from_events(
        [ContactEvent(0, 1, 100.0, 4000.0), ContactEvent(1, 2, 4100.0, 4200.0)]
    )
    cfg = SimConfig(trace=trace, workload=(WorkloadEntry(0.0, 0, 2, 1000),), router="dlife")
    original = SocialLedger.__dict__["roll_sample"]
    with tracing.Tracer() as tracer:
        assert SocialLedger.__dict__["roll_sample"] is not original
        log = Simulation(cfg).run()
        log.to_csv()
        # a flood replicates, so the tracer's reads of the decision's
        # carrier messages and replicated rows must count something
        Simulation(dataclasses.replace(cfg, router="epidemic")).run()
    assert SocialLedger.__dict__["roll_sample"] is original  # restored
    wrapped = [
        "contacts.split", "ledger.fragment", "ledger.roll", "ledger.importance", "ledger.weights",
        "routing.decide", "engine.init", "engine.run", "engine.recompute", "engine.admit",
        "engine.transfer", "eventlog.csv",
    ]
    assert [key for key in wrapped if key not in tracer.stats] == []
    # and the dlife run reaches each ledger and decision name
    metrics = tracer.layer_metrics()
    for name in ("contacts.split", "ledger.fragment", "ledger.roll", "ledger.importance",
                 "ledger.weights", "routing.decide", "engine.admit"):
        assert metrics[f"{name}_calls"][0] > 0, name
    assert metrics["routing.offered"][0] > 0
    assert metrics["routing.replicated"][0] > 0


def test_readme_example_sets_every_engine_field(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("### Experiment config"):]
    raw = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    trace = ContactTrace.from_events([ContactEvent(0, 1, 0.0, 10.0)])
    (tmp_path / raw["trace"]).write_text(serialize_contact_trace(trace))
    cfg = load_experiment_config(raw, tmp_path)
    # the sweep axes set a cell's router and ttl; the grid sets sample
    key_of = {"router": "routers", "ttl": "ttls", "sample": "samples_per_day"}
    for f in dataclasses.fields(SimConfig):
        assert key_of.get(f.name, f.name) in raw, f.name
    assert "seconds_per_day" in raw
    # the example spells out the defaults
    assert cfg.sim == SimConfig()


def test_materialize_scenario_varies_with_seed(tmp_path):
    cfg = load_experiment_config(base_config(), tmp_path)
    trace1, wl1 = materialize_scenario(cfg, 1)
    trace1b, wl1b = materialize_scenario(cfg, 1)
    trace2, wl2 = materialize_scenario(cfg, 2)
    assert trace1 == trace1b and wl1 == wl1b
    assert trace1 != trace2
    assert wl1 != wl2


def test_run_experiment_artifacts(tmp_path):
    cfg = load_experiment_config(base_config(), tmp_path)
    results_path, aggregate_path = run_experiment(cfg)
    assert results_path.exists() and aggregate_path.exists()

    rows = parse_results_csv(results_path.read_text())
    assert len(rows) == 2  # 1 router x 1 ttl x 2 seeds
    assert {r.seed for r in rows} == {1, 2}

    agg_lines = aggregate_path.read_text().splitlines()
    assert len(agg_lines) == 2  # header + one router/ttl row
    assert agg_lines[1].startswith("epidemic,86400.0,2,")

    for seed in (1, 2):
        cell = cfg.out_dir / cell_dir_name("epidemic", 86400.0, seed)
        assert {p.name for p in cell.iterdir()} == {"events.csv"}

    # reruns are byte-identical
    before = results_path.read_bytes(), aggregate_path.read_bytes()
    run_experiment(cfg)
    assert (results_path.read_bytes(), aggregate_path.read_bytes()) == before

    dump_cfg = dataclasses.replace(cfg, out_dir=tmp_path / "dump")
    run_experiment(dump_cfg, dump_ledgers=True)
    cell = dump_cfg.out_dir / cell_dir_name("epidemic", 86400.0, 1)
    assert {p.name for p in cell.iterdir()} == {
        "events.csv", "ledger_pairs.csv", "ledger_importance.csv",
        "communities.json", "centrality.csv",
    }


def test_run_experiment_parallel_matches_serial(tmp_path):
    cfg_a = load_experiment_config(base_config("serial"), tmp_path)
    cfg_b = load_experiment_config(base_config("parallel"), tmp_path)
    ra, aa = run_experiment(cfg_a, jobs=1)
    rb, ab = run_experiment(cfg_b, jobs=2)
    assert ra.read_text() == rb.read_text()
    assert aa.read_text() == ab.read_text()
    for router, ttl, seed in cfg_a.cells:
        name = cell_dir_name(router, ttl, seed)
        serial = (cfg_a.out_dir / name / "events.csv").read_bytes()
        assert serial == (cfg_b.out_dir / name / "events.csv").read_bytes(), name


def test_cell_failing_mid_write_leaves_no_file(tmp_path, monkeypatch):
    # the header and one piece of one record reach the file, then the
    # formatting of the next piece fails
    monkeypatch.setattr(engine, "CSV_CHUNK_RECORDS", 1)
    rows = CsvFormatter.rows
    calls = []

    def failing(formatter, records):
        calls.append(len(records))
        if len(calls) > 1:
            raise OSError("disk full")
        return rows(formatter, records)

    monkeypatch.setattr(CsvFormatter, "rows", failing)
    cfg = load_experiment_config(base_config(), tmp_path)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg)
    cell = cfg.out_dir / cell_dir_name("epidemic", 86400.0, 1)
    assert list(cell.iterdir()) == []
    assert not (cfg.out_dir / "results.csv").exists()


def test_cell_whose_engine_fails_after_a_write_leaves_no_file(tmp_path, monkeypatch):
    # a handler raises once the sink has written a piece of the log
    monkeypatch.setattr(engine, "CSV_CHUNK_RECORDS", 5)
    written = []
    add = MetricsFold.add
    monkeypatch.setattr(MetricsFold, "add", lambda fold, records: (
        written.append(len(records)), add(fold, records)))
    start = Simulation._on_contact_start

    def failing(sim, time, index):
        if written:
            raise RuntimeError("handler failed")
        start(sim, time, index)

    monkeypatch.setattr(Simulation, "_on_contact_start", failing)
    cfg = load_experiment_config(base_config(), tmp_path)
    with pytest.raises(RuntimeError, match="handler failed"):
        run_experiment(cfg)
    assert written
    cell = cfg.out_dir / cell_dir_name("epidemic", 86400.0, 1)
    assert list(cell.iterdir()) == []  # neither events.csv nor events.csv.tmp
    assert not (cfg.out_dir / "results.csv").exists()


def test_cell_failing_mid_dump_leaves_no_ledger_file(tmp_path, monkeypatch):
    # the ledger dump writes both of its files at once, one node at a time;
    # a failure after node 0 leaves neither file and no temporary one
    from dtnsim import experiment

    dump = experiment.dump_ledgers_csv

    def failing(ledger):
        chunks = dump(ledger)
        yield next(chunks)  # the headers
        yield next(chunks)  # node 0
        raise OSError("disk full")

    monkeypatch.setattr(experiment, "dump_ledgers_csv", failing)
    cfg = load_experiment_config(base_config(), tmp_path)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg, dump_ledgers=True)
    cell = cfg.out_dir / cell_dir_name("epidemic", 86400.0, 1)
    assert [p.name for p in cell.iterdir()] == ["events.csv"]
    assert not (cfg.out_dir / "results.csv").exists()


def test_run_experiment_materializes_each_seed_once(tmp_path, monkeypatch):
    from dtnsim import experiment

    calls = []
    materialize = experiment.materialize_scenario

    def counting(cfg, seed):
        calls.append(seed)
        return materialize(cfg, seed)

    monkeypatch.setattr(experiment, "materialize_scenario", counting)
    raw = base_config()
    raw["routers"] = ["epidemic", "dlife"]
    raw["ttls"] = [43200, 86400]
    cfg = load_experiment_config(raw, tmp_path)
    results_path, _ = run_experiment(cfg, jobs=1)
    assert calls == [1, 2]
    assert len(parse_results_csv(results_path.read_text())) == 2 * 2 * 2


def rows_for(router, deliveries, costs=None, ttl=86400.0):
    costs = costs or [10.0] * len(deliveries)
    return [
        ResultRow(router, ttl, seed + 1, d, c, 500.0)
        for seed, (d, c) in enumerate(zip(deliveries, costs))
    ]


def test_compare_identical_sets_zero():
    rows = rows_for("dlife", [0.5, 0.6])
    for row in compare_results(rows, rows):
        assert row.delta == 0.0


def test_compare_examples_and_antisymmetry():
    a = rows_for("dlife", [0.7, 0.7], [22.0, 22.0])
    b = rows_for("bubblerap", [0.3, 0.3], [100.0, 100.0])
    table = {(r.ttl, r.metric): r for r in compare_results(a, b)}
    delivery = table[(86400.0, "delivery")]
    assert delivery.delta == pytest.approx(40.0)
    assert delivery.delta_unit == "pp"
    cost = table[(86400.0, "cost")]
    assert cost.delta == pytest.approx(-78.0)  # 78% fewer replicas
    assert cost.delta_unit == "%"

    swapped = {(r.ttl, r.metric): r for r in compare_results(b, a)}
    assert swapped[(86400.0, "delivery")].delta == pytest.approx(-40.0)


def test_compare_mismatched_plans_rejected():
    a = rows_for("dlife", [0.5, 0.6])
    b = rows_for("dlife", [0.5, 0.6], ttl=7200.0)
    with pytest.raises(ValueError, match="plans"):
        compare_results(a, b)


def test_compare_router_selection():
    mixed = rows_for("dlife", [0.5, 0.6]) + rows_for("bubblerap", [0.2, 0.3])
    with pytest.raises(ValueError, match="pick one"):
        compare_results(mixed, mixed)
    rows = compare_results(mixed, mixed, router_a="dlife", router_b="bubblerap")
    assert {(r.ttl, r.metric) for r in rows} == {
        (86400.0, "delivery"),
        (86400.0, "cost"),
        (86400.0, "latency"),
    }


def test_comparison_csv_shape():
    a = rows_for("dlife", [0.5, 0.6])
    b = rows_for("bubblerap", [0.4, 0.5])
    text = comparison_csv(compare_results(a, b))
    lines = text.splitlines()
    assert lines[0] == "ttl,metric,a_mean,b_mean,delta,delta_unit,delta_ci"
    assert len(lines) == 4

import pytest

from dtnsim.experiment import (
    ConfigError,
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
    assert cfg.sample.samples_per_day == 24
    assert cfg.buffer_capacity == 2_000_000
    assert cfg.k == 5 and cfg.damping == 0.8
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
        assert (cell / "events.ndjson").exists()
        assert (cell / "events.csv").exists()

    # reruns are byte-identical
    before = results_path.read_bytes(), aggregate_path.read_bytes()
    run_experiment(cfg)
    assert (results_path.read_bytes(), aggregate_path.read_bytes()) == before


def test_run_experiment_parallel_matches_serial(tmp_path):
    cfg_a = load_experiment_config(base_config("serial"), tmp_path)
    cfg_b = load_experiment_config(base_config("parallel"), tmp_path)
    ra, aa = run_experiment(cfg_a, jobs=1)
    rb, ab = run_experiment(cfg_b, jobs=2)
    assert ra.read_text() == rb.read_text()
    assert aa.read_text() == ab.read_text()


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

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtnsim
from dtnsim import parse_contact_trace, parse_workload
from dtnsim.cli import EXIT_OK, EXIT_USAGE, main


def write_routine_spec(path: Path, node_count=6, days=2) -> Path:
    spec = {
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
    path.write_text(json.dumps(spec))
    return path


def write_config(path: Path, out: str, routers=("epidemic",)) -> Path:
    cfg = {
        "routers": list(routers),
        "ttls": [86400],
        "seeds": [1, 2],
        "trace": {"routine": json.loads((path.parent / "routine.json").read_text())},
        "workload": {"count": 15, "window": [0.0, 86400.0]},
        "out": out,
    }
    path.write_text(json.dumps(cfg))
    return path


def test_run_command_produces_artifacts(tmp_path, capsys):
    write_routine_spec(tmp_path / "routine.json")
    cfg = write_config(tmp_path / "plan.json", "res")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "res"
    assert (out / "results.csv").exists()
    assert (out / "aggregate.csv").exists()
    cells = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert cells == ["epidemic_ttl86400_s1", "epidemic_ttl86400_s2"]

    first = (out / "results.csv").read_bytes()
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert (out / "results.csv").read_bytes() == first


def test_run_command_rejects_bad_router(tmp_path, capsys):
    write_routine_spec(tmp_path / "routine.json")
    cfg_path = tmp_path / "plan.json"
    write_config(cfg_path, "res", routers=("warpdrive",))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "warpdrive" in err and "dlife" in err  # names the valid options


@pytest.mark.parametrize("key,value,path", [
    ("buffer_capacity", math.inf, "buffer_capacity"),
    ("epoch", math.inf, "epoch"),
    ("ttls", [math.inf], "ttls[0]"),
    ("bandwidth", math.nan, "bandwidth"),
])
def test_run_rejects_non_finite_settings_at_load(tmp_path, capsys, key, value, path):
    write_routine_spec(tmp_path / "routine.json")
    cfg_path = write_config(tmp_path / "plan.json", "res")
    raw = json.loads(cfg_path.read_text())
    raw[key] = value
    cfg_path.write_text(json.dumps(raw))  # as Infinity / NaN, which json reads back
    assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE
    assert f"config error: {path}:" in capsys.readouterr().err
    assert not (tmp_path / "res" / "results.csv").exists()


@pytest.mark.parametrize("key,value,path", [
    ("trace_format", "hagle", "trace_format"),
    ("workload", {"count": 15, "window": [0.0, 86400.0], "max_sizes": 5}, "workload.max_sizes"),
    ("workload", {"count": 15, "window": [86400.0, 0.0]}, "workload.window"),
    ("workload", {"count": 15, "window": [0.0, 86400.0], "min_size": -1}, "workload.min_size"),
])
def test_run_rejects_bad_inputs_at_load(tmp_path, capsys, key, value, path):
    write_routine_spec(tmp_path / "routine.json")
    cfg_path = write_config(tmp_path / "plan.json", "res")
    raw = json.loads(cfg_path.read_text())
    raw[key] = value
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE
    assert f"config error: {path}:" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()



@pytest.mark.parametrize("text", ["5", '"abc"', "[]", "null"])
def test_run_rejects_a_plan_that_is_not_an_object(tmp_path, capsys, text):
    cfg_path = tmp_path / "plan.json"
    cfg_path.write_text(text)
    # main returns, so nothing escaped as a traceback
    assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE
    assert "config error: plan: expected a JSON object" in capsys.readouterr().err


def write_late_trace_plan(tmp_path: Path, window) -> Path:
    # a 3-node trace whose first contact starts on day 3, so the run's
    # epoch is 259,200 s
    (tmp_path / "trace.csv").write_text("a,b,start,end\n0,1,259200,262800\n1,2,266400,270000\n")
    cfg = {
        "routers": ["epidemic"],
        "ttls": [86400],
        "seeds": [1],
        "trace": "trace.csv",
        "workload": {"count": 5, "window": window},
        "out": "res",
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_rejects_a_workload_window_before_the_epoch(tmp_path, capsys):
    cfg = write_late_trace_plan(tmp_path, [0, 100])
    assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error: workload.window:" in err and "259200.0" in err
    assert not (tmp_path / "res" / "results.csv").exists()


def test_run_accepts_a_workload_window_from_the_epoch(tmp_path):
    cfg = write_late_trace_plan(tmp_path, [259200, 259300])
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / "res" / "results.csv").exists()

def test_run_dump_ledgers(tmp_path):
    write_routine_spec(tmp_path / "routine.json")
    cfg = write_config(tmp_path / "plan.json", "res")
    assert main(["run", "--config", str(cfg), "--dump-ledgers"]) == EXIT_OK
    cell = tmp_path / "res" / "epidemic_ttl86400_s1"
    assert (cell / "ledger_pairs.csv").read_text().startswith("node,peer,sample,ad,weight")
    assert (cell / "ledger_importance.csv").read_text().startswith("node,sample,importance")


def test_gen_workload_and_trace(tmp_path):
    wl = tmp_path / "wl.csv"
    assert (
        main(
            [
                "gen-workload",
                "--count",
                "50",
                "--nodes",
                "10",
                "--end",
                "86400",
                "--seed",
                "3",
                "--out",
                str(wl),
            ]
        )
        == EXIT_OK
    )
    entries = parse_workload(wl.read_text())
    assert len(entries) == 50
    assert all(1000 <= e.size <= 100000 for e in entries)
    again = tmp_path / "wl2.csv"
    main(["gen-workload", "--count", "50", "--nodes", "10", "--end", "86400", "--seed", "3", "--out", str(again)])
    assert again.read_bytes() == wl.read_bytes()

    spec = write_routine_spec(tmp_path / "routine.json")
    trace_out = tmp_path / "trace.csv"
    assert main(["gen-trace", "--spec", str(spec), "--seed", "5", "--out", str(trace_out)]) == EXIT_OK
    trace, _ = parse_contact_trace(trace_out.read_text(), "csv")
    assert trace.node_count == 6


@pytest.mark.parametrize("args", [
    ["--count", "3", "--end", "inf"],
    ["--count", "-2", "--end", "100"],
    ["--count", "5", "--start", "-3600", "--end", "100"],
])
def test_gen_workload_rejects_what_no_workload_file_holds(tmp_path, capsys, args):
    out = tmp_path / "wl.csv"
    assert main(["gen-workload", "--nodes", "3", *args, "--out", str(out)]) == EXIT_USAGE
    assert "workload error:" in capsys.readouterr().err
    assert not out.exists()


def _nan_background(spec: dict) -> dict:
    spec["activities"]["background"] = {"samples": [0, 1, 2], "probability": 1.0, "duration": math.nan}
    return spec


def test_gen_trace_rejects_nan_duration(tmp_path, capsys):
    spec = write_routine_spec(tmp_path / "routine.json")
    spec.write_text(json.dumps(_nan_background(json.loads(spec.read_text()))))  # as NaN
    out = tmp_path / "trace.csv"
    assert main(["gen-trace", "--spec", str(spec), "--out", str(out)]) == EXIT_USAGE
    assert "spec error: duration must be finite and > 0, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_nan_routine_duration_at_load(tmp_path, capsys):
    write_routine_spec(tmp_path / "routine.json")
    cfg_path = write_config(tmp_path / "plan.json", "res")
    raw = json.loads(cfg_path.read_text())
    _nan_background(raw["trace"]["routine"])
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE
    assert "config error: trace.routine: duration must be finite" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


MISSHAPEN_SPECS = [
    # (an edit of the routine spec, or a whole spec; the error that names its key)
    (lambda s: s.update(groups=[0, 1, 2]), "groups: expected a JSON object"),
    (lambda s: [1, 2], "spec: expected a JSON object"),
    (lambda s: s.update(activities=[]), "activities: expected a JSON object"),
    (lambda s: s["activities"].update(work=5), "activities.work: expected a JSON object"),
    (lambda s: s["activities"]["work"].update(samples=9), "activities.work.samples: expected a list"),
    (lambda s: s["groups"].update(work=1), "groups.work: expected a list"),
]
MISSHAPEN_IDS = [message.split(":")[0] for _, message in MISSHAPEN_SPECS]


def _misshapen(spec: dict, edit) -> object:
    edited = edit(spec)
    return spec if edited is None else edited


@pytest.mark.parametrize("edit,message", MISSHAPEN_SPECS, ids=MISSHAPEN_IDS)
def test_gen_trace_names_the_misshapen_key(tmp_path, capsys, edit, message):
    spec = write_routine_spec(tmp_path / "routine.json")
    spec.write_text(json.dumps(_misshapen(json.loads(spec.read_text()), edit)))
    out = tmp_path / "trace.csv"
    assert main(["gen-trace", "--spec", str(spec), "--out", str(out)]) == EXIT_USAGE
    assert f"spec error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit,message", MISSHAPEN_SPECS, ids=MISSHAPEN_IDS)
def test_run_names_the_misshapen_routine_key_at_load(tmp_path, capsys, edit, message):
    write_routine_spec(tmp_path / "routine.json")
    cfg_path = write_config(tmp_path / "plan.json", "res")
    raw = json.loads(cfg_path.read_text())
    raw["trace"]["routine"] = _misshapen(raw["trace"]["routine"], edit)
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE
    assert f"config error: trace.routine: {message}" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_convert_trace_haggle(tmp_path):
    src = tmp_path / "imote.txt"
    src.write_text("# haggle style\n3 7 50 80\n7 9 60 90\n")
    out = tmp_path / "canon.csv"
    assert main(["convert-trace", "--in", str(src), "--format", "haggle", "--out", str(out)]) == EXIT_OK
    trace, _ = parse_contact_trace(out.read_text(), "csv")
    assert trace.node_count == 3
    nodemap = json.loads((tmp_path / "canon.csv.nodemap.json").read_text())
    assert nodemap == {"3": 0, "7": 1, "9": 2}


def test_compare_command(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(
        "router,ttl,seed,delivery,cost,latency\n"
        "dlife,86400.0,1,0.7,22.0,100.0\n"
        "dlife,86400.0,2,0.7,22.0,100.0\n"
    )
    b.write_text(
        "router,ttl,seed,delivery,cost,latency\n"
        "bubblerap,86400.0,1,0.3,100.0,200.0\n"
        "bubblerap,86400.0,2,0.3,100.0,200.0\n"
    )
    assert main(["compare", str(a), str(b)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "delivery" in out and "pp" in out

    mismatched = tmp_path / "c.csv"
    mismatched.write_text("router,ttl,seed,delivery,cost,latency\ndlife,7200.0,1,0.5,2.0,1.0\n")
    assert main(["compare", str(a), str(mismatched)]) == EXIT_USAGE


def test_usage_errors(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["gen-trace", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]) == EXIT_USAGE


def test_environment_sets_no_flag(tmp_path, monkeypatch):
    # a DTNSIM_<FLAG> variable is not read: a malformed one cannot crash the
    # parser, and --config stays required
    monkeypatch.setenv("DTNSIM_JOBS", "abc")
    assert main(["run"]) == EXIT_USAGE
    write_routine_spec(tmp_path / "routine.json")
    cfg = write_config(tmp_path / "plan.json", "res_env")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / "res_env" / "results.csv").exists()


def test_module_entry_point(tmp_path):
    # the child imports the same dtnsim as this process, installed or not
    src = str(Path(dtnsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "dtnsim", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "run" in result.stdout and "compare" in result.stdout


def test_one_seed_run_never_imports_scipy(tmp_path):
    # scipy serves only the confidence interval of an aggregate over two or
    # more runs; a fresh process that imports the package and runs a
    # one-seed plan must not load it
    write_routine_spec(tmp_path / "routine.json")
    plan = write_config(tmp_path / "plan.json", "res")
    raw = json.loads(plan.read_text())
    plan.write_text(json.dumps(dict(raw, seeds=[1])))
    child = (
        "import sys\n"
        "import dtnsim, dtnsim.cli, dtnsim.experiment\n"
        "from dtnsim.experiment import load_experiment_config_file, run_experiment\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded on import'\n"
        "run_experiment(load_experiment_config_file(sys.argv[1]))\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded by a one-seed run'\n"
    )
    src = str(Path(dtnsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", child, str(plan)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "res" / "aggregate.csv").read_text().splitlines()[1].startswith(
        "epidemic,86400.0,1,"
    )

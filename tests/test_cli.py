import json
import math
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

import dtnsim
from dtnsim import experiment, parse_contact_trace, parse_workload
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


def test_run_rejects_a_directory_as_the_trace(tmp_path, capsys):
    cfg = write_late_trace_plan(tmp_path, [259200, 259300])
    (tmp_path / "trace.csv").unlink()
    (tmp_path / "trace.csv").mkdir()
    assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
    assert "config error: trace: is a directory" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


TRACE_3_NODES = "a,b,start,end\n0,1,0,100\n1,2,200,300\n"
WORKLOAD_HEADER = "created_at,source,destination,size_bytes\n"

# (trace file, workload file, plan edits, the error they give, in which
# `{trace}` and `{workload}` stand for the files' paths); every case is a
# bad input that the loader or a plan cell finds
BAD_INPUTS = {
    "self-contact": (
        "a,b,start,end\n0,1,0,100\n1,1,50,300\n", WORKLOAD_HEADER + "50,0,2,1000\n", {},
        "trace {trace} line 3: self-contact for node 1",
    ),
    "trace not UTF-8": (
        b"a,b,start,end\n0,1,0,100\n1,2,200,3\xff0\n", WORKLOAD_HEADER + "50,0,2,1000\n", {},
        "trace {trace} line 3: not UTF-8: byte 0xff at column 10",
    ),
    "workload source is destination": (
        TRACE_3_NODES, WORKLOAD_HEADER + "0,0,0,1000\n", {},
        "workload {workload} line 2: source equals destination (0)",
    ),
    "workload not UTF-8": (  # an empty "\r\n" line counts, as str.splitlines counts it
        TRACE_3_NODES, WORKLOAD_HEADER.encode() + b"\r\n50,0,\xc3\x28,1000\n", {},
        "workload {workload} line 3: not UTF-8: byte 0xc3 at column 6",
    ),
    "workload node outside trace": (
        TRACE_3_NODES, WORKLOAD_HEADER + "50,0,7,1000\n", {},
        "workload row 0: node 7 outside trace range 0..2",
    ),
    "workload row beyond buffer": (
        TRACE_3_NODES, WORKLOAD_HEADER + "50,0,2,1000\n", {"buffer_capacity": 999},
        "workload row 0: size 1000 exceeds buffer capacity",
    ),
    "epoch after first contact": (
        TRACE_3_NODES, WORKLOAD_HEADER + "50,0,2,1000\n", {"epoch": 20},
        "epoch: must not be after the first contact",
    ),
    "routine without days": (
        TRACE_3_NODES, WORKLOAD_HEADER + "50,0,2,1000\n",
        {"trace": {"routine": {"node_count": 3}}},
        "trace.routine: days: missing required field",
    ),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_run_reports_bad_inputs_as_config_errors(tmp_path, capsys, case, jobs):
    # the error is the same whether a cell runs in this process or in a
    # worker, which sends it back pickled
    trace, workload, edits, message = BAD_INPUTS[case]
    files = {"trace": tmp_path / "trace.csv", "workload": tmp_path / "workload.csv"}
    for path, text in zip(files.values(), (trace, workload)):
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    plan = {
        "routers": ["epidemic"],
        "ttls": [86400, 172800],
        "seeds": [1],
        "trace": "trace.csv",
        "workload": "workload.csv",
        "out": "res",
        **edits,
    }
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    assert main(["run", "--config", str(tmp_path / "plan.json"), "--jobs", jobs]) == EXIT_USAGE
    assert capsys.readouterr().err == f"config error: {message.format(**files)}\n"
    assert not (tmp_path / "res" / "results.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_rejects_jobs_below_one(tmp_path, capsys, jobs):
    write_routine_spec(tmp_path / "routine.json")
    cfg = write_config(tmp_path / "plan.json", "res")
    assert main(["run", "--config", str(cfg), "--jobs", jobs]) == EXIT_USAGE
    assert capsys.readouterr().err == f"config error: jobs: must be >= 1, got {jobs}\n"
    assert not (tmp_path / "res" / "results.csv").exists()


def test_run_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    # a pool forks all of its workers at its first task, so the pool is
    # replaced by one that records its size and runs each task at once
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlinePool)
    write_routine_spec(tmp_path / "routine.json")
    cfg = write_config(tmp_path / "plan.json", "res")  # two cells

    def run(jobs):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == EXIT_OK
        return (out / "results.csv").read_bytes()

    results = run("5000")
    assert run("2") == results
    assert sizes == [2, 2]
    assert run("1") == results
    assert sizes == [2, 2]  # one job runs the cells in this process, without a pool


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
    assert "spec error: duration: must be finite and > 0, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_nan_routine_duration_at_load(tmp_path, capsys):
    write_routine_spec(tmp_path / "routine.json")
    cfg_path = write_config(tmp_path / "plan.json", "res")
    raw = json.loads(cfg_path.read_text())
    _nan_background(raw["trace"]["routine"])
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE
    assert "config error: trace.routine: duration: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


MISSHAPEN_SPECS = [
    # (an edit of the routine spec, or a whole spec; the error that names its key)
    (lambda s: s.update(groups=[0, 1, 2]), "groups: expected a JSON object"),
    (lambda s: [1, 2], "spec: expected a JSON object"),
    (lambda s: s.update(activities=[]), "activities: expected a JSON object"),
    (lambda s: s["activities"].update(work=5), "activities.work: expected a JSON object"),
    (lambda s: s["activities"]["work"].update(samples=9), "activities.work.samples: expected a list"),
    (lambda s: s["groups"].update(work=1), "groups.work: expected a list"),
    (lambda s: s.__delitem__("days"), "days: missing required field"),
    (lambda s: s["activities"]["work"].__delitem__("probability"),
     "activities.work.probability: missing required field"),
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


@pytest.mark.parametrize("row,message", [
    ("dlife,86400.0,1,0.6,22.0,100.0", "line 3: repeats the row of ('dlife', 86400.0, 1)"),
    ("dlife,86400.0,2,0.7", "line 3: malformed row: not enough values to unpack"),
    ("dlife,86400.0,two,0.7,22.0,100.0", "line 3: malformed row: invalid literal for int()"),
], ids=["repeated", "short", "non-integer seed"])
def test_compare_names_the_line_of_a_bad_row(tmp_path, capsys, row, message):
    a = tmp_path / "a.csv"
    a.write_text(f"router,ttl,seed,delivery,cost,latency\ndlife,86400.0,1,0.5,22.0,100.0\n{row}\n")
    assert main(["compare", str(a), str(a)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"compare error: {message}")
    assert captured.out == ""


def test_usage_errors(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["gen-trace", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]) == EXIT_USAGE


def _path_error_args(tmp_path, case):
    # the arguments of one command whose input is a directory or whose
    # output lies in a directory that does not exist
    spec = write_routine_spec(tmp_path / "routine.json")
    results = tmp_path / "results.csv"
    results.write_text("router,ttl,seed,delivery,cost,latency\ndlife,86400.0,1,0.7,22.0,100.0\n")
    trace = tmp_path / "imote.txt"
    trace.write_text("3 7 50 80\n")
    missing = str(tmp_path / "missing" / "x.csv")
    plan = write_config(tmp_path / "plan.json", "res")
    return {
        "run --config dir": ["run", "--config", str(tmp_path)],
        "run --out under a file": ["run", "--config", str(plan), "--out", str(results / "res")],
        "gen-trace --spec dir": ["gen-trace", "--spec", str(tmp_path), "--out", missing],
        "compare dir dir": ["compare", str(tmp_path), str(tmp_path)],
        "convert-trace --in dir": ["convert-trace", "--in", str(tmp_path), "--out", missing],
        "gen-trace --out missing": ["gen-trace", "--spec", str(spec), "--out", missing],
        "gen-workload --out missing":
            ["gen-workload", "--count", "3", "--nodes", "3", "--end", "100", "--out", missing],
        "convert-trace --out missing": ["convert-trace", "--in", str(trace), "--out", missing],
        "compare --out missing": ["compare", str(results), str(results), "--out", missing],
    }[case]


@pytest.mark.parametrize("case,prefix", [
    ("run --config dir", "config error:"),
    ("run --out under a file", "config error:"),
    ("gen-trace --spec dir", "spec error:"),
    ("compare dir dir", "compare error:"),
    ("convert-trace --in dir", "trace error:"),
    ("gen-trace --out missing", "spec error:"),
    ("gen-workload --out missing", "workload error:"),
    ("convert-trace --out missing", "trace error:"),
    ("compare --out missing", "compare error:"),
])
def test_path_errors_are_usage_errors(tmp_path, capsys, case, prefix):
    # a path that cannot be read or written is reported under the command's
    # prefix, with no traceback
    assert main(_path_error_args(tmp_path, case)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix)
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


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
    # more runs, and numpy only the social ledger (dlife, dlifecomm, charged
    # summaries, dumps); networkx serves no run, as the community recompute
    # of dlifecomm and bubblerap has its own clique percolation. A fresh
    # process that imports the package and, with networkx blocked, runs a
    # one-seed epidemic plan, a bubblerap plan and a dlifecomm plan must load
    # no networkx, no scipy, and numpy only for dlifecomm; another that runs
    # a one-seed epidemic and dlife plan, dumps included, must load neither
    # scipy nor networkx, and numpy then
    write_routine_spec(tmp_path / "routine.json")
    raw = json.loads(write_config(tmp_path / "plan.json", "res").read_text())
    plans = {
        "plan.json": dict(raw, routers=["epidemic", "dlife"], seeds=[1]),
        "epidemic.json": dict(raw, seeds=[1], out="epidemic"),
        "community.json": dict(raw, routers=["bubblerap"], seeds=[1], out="community"),
        "dlifecomm.json": dict(raw, routers=["dlifecomm"], seeds=[1], out="dlifecomm"),
    }
    for name, plan in plans.items():
        (tmp_path / name).write_text(json.dumps(plan))
    imported = (
        "import sys\n"
        "import dtnsim, dtnsim.cli, dtnsim.experiment\n"
        "from dtnsim.experiment import load_experiment_config_file, run_experiment\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded on import'\n"
        "assert 'networkx' not in sys.modules, 'networkx loaded on import'\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded on import'\n"
    )
    community_without_networkx = imported + (
        "sys.modules['networkx'] = None  # an import of networkx now fails\n"
        "run_experiment(load_experiment_config_file(sys.argv[1]))\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded by a one-seed run'\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded without a ledger'\n"
        "run_experiment(load_experiment_config_file(sys.argv[2]))\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by bubblerap'\n"
        "run_experiment(load_experiment_config_file(sys.argv[3]))\n"
        "assert 'numpy' in sys.modules, 'dlifecomm kept a ledger without numpy'\n"
        "assert sys.modules['networkx'] is None, 'networkx loaded'\n"
    )
    dlife_with_dumps = imported + (
        "run_experiment(load_experiment_config_file(sys.argv[1]), dump_ledgers=True)\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded by a one-seed run'\n"
        "assert 'networkx' not in sys.modules, 'networkx loaded without a recompute'\n"
        "assert 'numpy' in sys.modules, 'dlife kept a ledger without numpy'\n"
    )
    src = str(Path(dtnsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    children = [
        (community_without_networkx, ["epidemic.json", "community.json", "dlifecomm.json"]),
        (dlife_with_dumps, ["plan.json"]),
    ]
    for child, names in children:
        result = subprocess.run(
            [sys.executable, "-c", child, *(str(tmp_path / name) for name in names)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
    rows = (tmp_path / "res" / "aggregate.csv").read_text().splitlines()[1:]
    assert [row.split(",", 1)[0] for row in rows] == ["epidemic", "dlife"]
    assert (tmp_path / "res" / "dlife_ttl86400_s1" / "ledger_pairs.csv").exists()
    assert (tmp_path / "epidemic" / "aggregate.csv").read_text().splitlines()[1].startswith(
        "epidemic,86400.0,1,"
    )
    assert (tmp_path / "community" / "aggregate.csv").read_text().splitlines()[1].startswith(
        "bubblerap,86400.0,1,"
    )
    assert (tmp_path / "dlifecomm" / "aggregate.csv").read_text().splitlines()[1].startswith(
        "dlifecomm,86400.0,1,"
    )

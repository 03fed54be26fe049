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


def test_env_override_jobs(tmp_path, monkeypatch):
    monkeypatch.setenv("DTNSIM_JOBS", "2")
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

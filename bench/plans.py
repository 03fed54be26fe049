"""The benchmark's experiment plans, one per workload.

Each plan is the raw JSON-style mapping that `dtnsim run --config` reads,
built from the workload's seed. `prepare` writes any input files the plan
names (into the run's work directory) and returns the mapping.
"""

from __future__ import annotations

from pathlib import Path

DAY = 86400.0
HOUR = 3600.0
MBPS_11 = 11_000_000.0


def desk_routine(node_count: int, days: int) -> dict:
    """The desk routine scenario: three 10-node work groups, home triads,
    evening social groups cutting across work groups, and sparse random
    background encounters (the shape of the test suite's desk scenario)."""
    return {
        "node_count": node_count,
        "days": days,
        "samples_per_day": 24,
        "seconds_per_day": 86400,
        "groups": {
            "home": [i // 3 for i in range(node_count)],
            "work": [i // 10 for i in range(node_count)],
            "social": [i % 3 for i in range(node_count)],
        },
        "activities": {
            "home": {"samples": list(range(0, 7)) + list(range(20, 24)),
                     "probability": 0.5, "duration": 2500.0},
            "work": {"samples": list(range(9, 17)), "probability": 0.4, "duration": 2700.0},
            "social": {"samples": [17, 18, 19], "probability": 0.25, "duration": 1500.0},
            "background": {"samples": list(range(24)), "probability": 0.01, "duration": 300.0},
        },
    }


def desk_dlife_plan(seed: int, node_count: int = 90) -> dict:
    """One `dlife` cell on a 7-day desk routine; 500 messages over the first
    3 days."""
    return {
        "routers": ["dlife"],
        "ttls": [DAY],
        "seeds": [seed],
        "trace": {"routine": desk_routine(node_count, 7)},
        "workload": {"count": 500, "window": [0.0, 3 * DAY]},
        "buffer_capacity": 2_000_000,
        "bandwidth": None,
    }


def community_bw_plan(seed: int) -> dict:
    """`bubblerap` and `dlifecomm` on one seed's 14-day desk history at 11 Mbps,
    with the community recompute every 6 hours. The buffers can hold the
    whole workload (200 messages of at most 100 kB), so nothing is evicted."""
    return {
        "routers": ["bubblerap", "dlifecomm"],
        "ttls": [2 * DAY],
        "seeds": [seed],
        "trace": {"routine": desk_routine(45, 14)},
        "workload": {"count": 200, "window": [0.0, 3 * DAY]},
        "buffer_capacity": 20_000_000,
        "bandwidth": MBPS_11,
        "recompute_interval": 6 * HOUR,
        "centrality_window": 6 * HOUR,
        "familiar_threshold": 6 * HOUR,
    }


def _haggle_id(dense: int) -> int:
    # sparse, increasing original ids, so the parser's dense remap keeps order
    return 101 + 7 * dense


def msgs10k_files(seed: int, work_dir: Path) -> tuple[Path, Path]:
    """Write a 30-node, 7-day desk trace in haggle format and a 10,000-message
    workload CSV; both come from the seed."""
    from dtnsim.contacts import RoutineSpec, generate_routine_trace
    from dtnsim.workload import generate_workload, serialize_workload

    spec = RoutineSpec.from_dict(desk_routine(30, 7))
    trace = generate_routine_trace(spec, seed)
    present = {e.node_a for e in trace.events} | {e.node_b for e in trace.events}
    if present != set(range(spec.node_count)):
        raise RuntimeError("generated trace leaves a node without contacts")
    lines = ["# haggle-format desk trace: id id start end"]
    lines += [
        f"{_haggle_id(e.node_a)} {_haggle_id(e.node_b)} {e.start!r} {e.end!r}"
        for e in trace.events
    ]
    trace_path = work_dir / "msgs10k_trace.haggle"
    trace_path.write_text("\n".join(lines) + "\n")
    workload_path = work_dir / "msgs10k_workload.csv"
    workload_path.write_text(
        serialize_workload(generate_workload(10_000, spec.node_count, (0.0, 3 * DAY), seed))
    )
    return trace_path, workload_path


def msgs10k_plan(seed: int, work_dir: Path) -> dict:
    """One `epidemic` cell over the written trace and workload files."""
    trace_path, workload_path = msgs10k_files(seed, work_dir)
    return {
        "routers": ["epidemic"],
        "ttls": [DAY],
        "seeds": [seed],
        "trace": trace_path.name,
        "trace_format": "haggle",
        "workload": workload_path.name,
        "buffer_capacity": 2_000_000,
        "bandwidth": None,
    }


WORKLOADS = ("desk90_dlife", "community_bw", "msgs10k_epidemic")


def prepare(workload: str, seed: int, work_dir: Path) -> dict:
    """Return the raw plan for a workload; relative paths resolve in work_dir."""
    if workload == "desk90_dlife":
        return desk_dlife_plan(seed)
    if workload == "community_bw":
        return community_bw_plan(seed)
    if workload == "msgs10k_epidemic":
        return msgs10k_plan(seed, work_dir)
    raise ValueError(f"unknown workload {workload!r} (valid: {', '.join(WORKLOADS)})")

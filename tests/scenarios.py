"""Shared scenario builders for the test suite."""

from __future__ import annotations

from dataclasses import replace

from dtnsim import (
    RelationActivity,
    RoutineSpec,
    SampleConfig,
    SimConfig,
    generate_routine_trace,
    generate_workload,
)

DAY = 86400.0
HOUR = 3600.0


def desk_spec(node_count: int = 30, days: int = 7) -> RoutineSpec:
    """Desk-scale routine scenario: three 10-node work groups, home triads,
    evening social groups cutting across work groups, plus sparse random
    background encounters."""
    return RoutineSpec(
        node_count=node_count,
        days=days,
        cfg=SampleConfig(24, 86400),
        home_group=tuple(i // 3 for i in range(node_count)),
        work_group=tuple(i // 10 for i in range(node_count)),
        social_group=tuple(i % 3 for i in range(node_count)),
        home=RelationActivity(tuple(range(0, 7)) + tuple(range(20, 24)), 0.5, 2500.0),
        work=RelationActivity(tuple(range(9, 17)), 0.4, 2700.0),
        social=RelationActivity((17, 18, 19), 0.25, 1500.0),
        background=RelationActivity(tuple(range(24)), 0.01, 300.0),
    )


def desk_scenario(seed: int, node_count: int = 30, days: int = 7, messages: int = 500):
    # creations concentrate in the first days so even short TTLs see real
    # buffer pressure; capped by the trace length
    spec = desk_spec(node_count, days)
    trace = generate_routine_trace(spec, seed)
    window_end = min(3.0, max(days - 1.0, 0.0)) * DAY
    workload = tuple(generate_workload(messages, node_count, (0.0, window_end), seed))
    return trace, workload


def desk_sim_config(trace, workload, router: str, ttl: float, **overrides) -> SimConfig:
    params = dict(
        trace=trace,
        workload=workload,
        router=router,
        sample=SampleConfig(24, 86400),
        ttl=ttl,
        buffer_capacity=2_000_000,
        bandwidth=None,
        damping=0.8,
        k=5,
        familiar_threshold=6 * HOUR,
        centrality_window=6 * HOUR,
        recompute_interval=6 * HOUR,
    )
    params.update(overrides)
    return SimConfig(**params)


GOLDEN_CAPACITY = 200_000


GOLDEN_SEED = 5
GOLDEN_MESSAGES = 200
GOLDEN_WINDOW = (0.0, 2 * DAY)


def golden_spec() -> RoutineSpec:
    """The routine of the golden scenario: the desk routine at 20 nodes and
    3 days, with 50 ms background sightings."""
    return replace(
        desk_spec(node_count=20, days=3),
        background=RelationActivity(tuple(range(24)), 0.02, 0.05),
    )


def golden_scenario(seed: int = GOLDEN_SEED):
    """Small desk scenario behind the golden event-log hashes: 20 nodes, 3
    days, 200 messages over the first 2 days. Background sightings last
    50 ms, too short for an 11 Mbps link to carry a message above about
    69 kB, so finite-bandwidth runs abort transfers; with GOLDEN_CAPACITY
    buffers every run evicts."""
    spec = golden_spec()
    trace = generate_routine_trace(spec, seed)
    workload = tuple(generate_workload(GOLDEN_MESSAGES, spec.node_count, GOLDEN_WINDOW, seed))
    return trace, workload


def routine_dict(spec: RoutineSpec) -> dict:
    """`spec` in the form that `RoutineSpec.from_dict` (and a plan's inline
    `trace.routine`) reads."""
    activities = {}
    for name in ("home", "work", "social", "background"):
        act = getattr(spec, name)
        if act is not None:
            activities[name] = {
                "samples": list(act.samples), "probability": act.probability,
                "duration": act.duration,
            }
    return {
        "node_count": spec.node_count,
        "days": spec.days,
        "samples_per_day": spec.cfg.samples_per_day,
        "seconds_per_day": spec.cfg.seconds_per_day,
        "groups": {name: list(getattr(spec, f"{name}_group")) for name in ("home", "work", "social")},
        "activities": activities,
    }

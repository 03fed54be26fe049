"""Output checks on a finished plan: every cell's written event log is
re-read and checked against the results table and the engine's invariants."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

from dtnsim.experiment import cell_dir_name, parse_results_csv
from dtnsim.metrics import compute_run_metrics

# event kinds as written in events.csv
CREATED = "created"
REPLICATED = "replicated"
DELIVERED = "delivered"
ABORTED = "transfer_aborted"
REMOVALS = ("dropped_buffer_full", "expired_ttl", "deleted_community_rule")


class Record(NamedTuple):
    time: float
    kind: str
    msg: str
    node: int
    peer: int | None
    size: int | None


class CsvLog:
    """An events.csv read back as log records, streamed from disk each time
    it is iterated so the check holds no second copy of the log."""

    def __init__(self, path: Path):
        self.path = path

    def __iter__(self) -> Iterator[Record]:
        with self.path.open() as f:
            next(f)  # header
            for line in f:
                time, kind, msg, node, peer, size = line.rstrip("\n").split(",")
                yield Record(
                    float(time), kind, msg, int(node),
                    int(peer) if peer else None, int(size) if size else None,
                )


@dataclass
class CellOutcome:
    """One cell's simulated outputs and what its checks found."""

    name: str
    events: int
    delivery: float | None
    cost: float | None
    latency_s: float | None
    log_sha256: str
    problems: list[str]


def file_digest(path: Path) -> tuple[str, int]:
    """SHA-256 of a file and its number of lines."""
    h, lines = hashlib.sha256(), 0
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), lines


def replay_problems(log: CsvLog, ttl: float, capacity: int) -> list[str]:
    """Replay buffer contents from the log and return the invariants it
    breaks (the first occurrence of each kind of breach)."""
    problems: dict[str, str] = {}
    size: dict[str, int] = {}
    destination: dict[str, int] = {}
    expires: dict[str, float] = {}
    held: dict[int, set[str]] = {}
    occupancy: dict[int, int] = {}

    def add(node: int, r: Record) -> None:
        bucket = held.setdefault(node, set())
        if r.msg in bucket:
            problems.setdefault("duplicate", f"{r.msg} stored twice at node {node} (t={r.time!r})")
        bucket.add(r.msg)
        occupancy[node] = occupancy.get(node, 0) + size[r.msg]
        if occupancy[node] > capacity:
            problems.setdefault(
                "overflow",
                f"node {node} holds {occupancy[node]} bytes > capacity {capacity} (t={r.time!r})",
            )

    for r in log:
        if r.kind == CREATED:
            size[r.msg], destination[r.msg] = r.size, r.peer
            expires[r.msg] = r.time + ttl
            add(r.node, r)
        elif r.kind in (REPLICATED, DELIVERED):
            if r.msg not in expires:
                problems.setdefault("unknown", f"{r.kind} of never-created {r.msg}")
                continue
            if r.time >= expires[r.msg]:
                problems.setdefault(
                    "expired", f"{r.kind} of {r.msg} at {r.time!r} after expiry {expires[r.msg]!r}"
                )
            if r.kind == REPLICATED and r.peer != destination[r.msg]:
                add(r.peer, r)
        elif r.kind in REMOVALS:
            bucket = held.get(r.node, set())
            if r.msg not in bucket:
                problems.setdefault("phantom", f"{r.kind} of {r.msg} not held by node {r.node}")
                continue
            bucket.discard(r.msg)
            occupancy[r.node] -= size[r.msg]
        elif r.kind != ABORTED:
            problems.setdefault("kind", f"unknown event kind {r.kind!r}")
    return list(problems.values())


def check_plan(cfg, full: bool = True) -> list[CellOutcome]:
    """Check every cell of a finished plan against its results.csv row.

    With full=False only the log digests are taken: a log identical to an
    already checked one passes the same checks."""
    rows = {
        (r.router, r.ttl, r.seed): r
        for r in parse_results_csv((cfg.out_dir / "results.csv").read_text())
    }
    outcomes = []
    for router, ttl, seed in cfg.cells:
        name = cell_dir_name(router, ttl, seed)
        path = cfg.out_dir / name / "events.csv"
        row = rows.get((router, float(ttl), seed))
        if row is None or not path.exists():
            outcomes.append(CellOutcome(name, 0, None, None, None, "", ["missing output"]))
            continue
        sha, lines = file_digest(path)
        problems = []
        if full:
            log = CsvLog(path)
            problems = replay_problems(log, ttl, cfg.buffer_capacity)
            rm = compute_run_metrics(log)
            if (rm.delivery_probability, rm.avg_cost, rm.avg_latency) != (
                row.delivery, row.cost, row.latency
            ):
                problems.append(f"results.csv row {row} differs from the log's metrics {rm}")
        outcomes.append(
            CellOutcome(name, lines - 1, row.delivery, row.cost, row.latency, sha, problems)
        )
    return outcomes

"""Unicast message workloads: the workload table format and seeded random
workload generation."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

from .contacts import ConfigError, decode_utf8

WORKLOAD_HEADER = "created_at,source,destination,size_bytes"
DEFAULT_SIZE_RANGE = (1000, 100000)  # generated message sizes, bytes, inclusive


class WorkloadEntry(NamedTuple):
    created_at: float
    source: int
    destination: int
    size: int


@dataclass(frozen=True)
class Message:
    """A unicast payload replicated across nodes while it lives. `row` is its
    workload row and its only key; it breaks ties between equal creation
    times.

    `order_key` is the buffer order: creation time, then row. `id` is the
    name the event log gives the message, `m` and the row zero-padded to 5
    digits. Both are set once at construction, like the fields, so attribute
    access stays fast.
    """

    row: int
    source: int
    destination: int
    created_at: float
    ttl: float
    size: int
    id: str = field(init=False, compare=False)
    order_key: tuple[float, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.source == self.destination:
            raise ValueError("message source and destination must differ")
        if self.size <= 0:
            raise ValueError("message size must be > 0")
        if self.ttl <= 0:
            raise ValueError("message ttl must be > 0")
        object.__setattr__(self, "id", f"m{self.row:05d}")
        object.__setattr__(self, "order_key", (self.created_at, self.row))

    @property
    def expires_at(self) -> float:
        return self.created_at + self.ttl


def parse_workload(text: str | bytes) -> list[WorkloadEntry]:
    text = decode_utf8(text)
    entries: list[WorkloadEntry] = []
    header_seen = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if not header_seen:
            if stripped.lower() != WORKLOAD_HEADER:
                raise ConfigError(f"line {line_no}", f"expected header {WORKLOAD_HEADER!r}")
            header_seen = True
            continue
        fields = [f.strip() for f in stripped.split(",")]
        if len(fields) != 4:
            raise ConfigError(f"line {line_no}", f"expected 4 fields, got {len(fields)}")
        try:
            entry = WorkloadEntry(float(fields[0]), int(fields[1]), int(fields[2]), int(fields[3]))
        except ValueError as exc:
            raise ConfigError(f"line {line_no}", f"non-numeric field: {exc}") from None
        if entry.source == entry.destination:
            raise ConfigError(f"line {line_no}", f"source equals destination ({entry.source})")
        if entry.size <= 0:
            raise ConfigError(f"line {line_no}", f"size must be > 0, got {entry.size}")
        if not 0 <= entry.created_at < math.inf:  # also rejects nan
            raise ConfigError(
                f"line {line_no}", f"created_at must be finite and >= 0, got {entry.created_at}"
            )
        entries.append(entry)
    return entries


def serialize_workload(entries: Sequence[WorkloadEntry]) -> str:
    lines = [WORKLOAD_HEADER]
    lines.extend(f"{e.created_at!r},{e.source},{e.destination},{e.size}" for e in entries)
    return "\n".join(lines) + "\n"


def load_workload(path: str | Path) -> list[WorkloadEntry]:
    """`parse_workload` on a file; a parse error's field names the file
    (`workload <path> line 3`)."""
    try:
        return parse_workload(Path(path).read_bytes())
    except ConfigError as exc:
        raise ConfigError(f"workload {path} {exc.field}", exc.reason) from None


def generate_workload(
    count: int,
    node_count: int,
    window: tuple[float, float],
    seed: int,
    size_range: tuple[int, int] = DEFAULT_SIZE_RANGE,
) -> list[WorkloadEntry]:
    """Random workload: uniform creation times in [window), uniform distinct
    source/destination pairs, sizes uniform over size_range (bytes, inclusive).
    Deterministic for a fixed seed; entries come back sorted by creation time.
    The window must be finite with 0 <= start <= end, so that every entry is
    a valid workload file row.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if node_count < 2:
        raise ValueError("need at least 2 nodes for unicast traffic")
    lo, hi = window
    if not (0 <= lo <= hi < math.inf):  # also rejects nan
        raise ValueError(f"window must be finite with 0 <= start <= end, got {window}")
    if size_range[0] <= 0 or size_range[0] > size_range[1]:
        raise ValueError("invalid size range")
    rng = random.Random(seed)
    entries = []
    for _ in range(count):
        created = rng.uniform(lo, hi)
        src = rng.randrange(node_count)
        dst = rng.randrange(node_count - 1)
        if dst >= src:
            dst += 1
        size = rng.randint(size_range[0], size_range[1])
        entries.append(WorkloadEntry(created, src, dst, size))
    entries.sort()
    return entries


def messages_from_workload(entries: Sequence[WorkloadEntry], ttl: float) -> tuple[Message, ...]:
    """One message per workload row, keyed by the row, with the configured
    TTL."""
    return tuple(
        Message(i, e.source, e.destination, e.created_at, ttl, e.size)
        for i, e in enumerate(entries)
    )

"""Contact events, daily-sample time arithmetic, trace I/O, and synthetic
routine-driven trace generation."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

CSV_TRACE_HEADER = "a,b,start,end"


class TraceFormatError(ValueError):
    """Malformed trace input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class ContactEvent:
    """Bidirectional contact between two nodes over the interval [start, end)."""

    node_a: int
    node_b: int
    start: float
    end: float

    def __post_init__(self):
        if self.node_a == self.node_b:
            raise ValueError(f"self-contact for node {self.node_a}")
        if not self.start < self.end:
            raise ValueError(f"contact needs start < end, got [{self.start}, {self.end}]")
        if self.node_a > self.node_b:
            a, b = self.node_b, self.node_a
            object.__setattr__(self, "node_a", a)
            object.__setattr__(self, "node_b", b)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def pair(self) -> tuple[int, int]:
        return (self.node_a, self.node_b)


@dataclass(frozen=True)
class SampleConfig:
    """How a day is partitioned into fixed daily samples."""

    samples_per_day: int = 24
    seconds_per_day: int = 86400

    def __post_init__(self):
        # each message opens with the field at fault, the key the loader reports
        if self.samples_per_day < 1:
            raise ValueError("samples_per_day must be >= 1")
        if self.seconds_per_day <= 0 or self.seconds_per_day % self.samples_per_day != 0:
            raise ValueError("seconds_per_day must be a positive multiple of samples_per_day")

    @property
    def sample_length(self) -> int:
        return self.seconds_per_day // self.samples_per_day


@dataclass(frozen=True, order=True)
class SampleSlot:
    """One daily sample of one specific day."""

    day_index: int
    sample_index: int

    def __post_init__(self):
        if self.day_index < 0 or self.sample_index < 0:
            raise ValueError("slot indices must be non-negative")

    def linear(self, cfg: SampleConfig) -> int:
        return self.day_index * cfg.samples_per_day + self.sample_index


def slot_from_linear(index: int, cfg: SampleConfig) -> SampleSlot:
    return SampleSlot(index // cfg.samples_per_day, index % cfg.samples_per_day)


def sample_slot_of(timestamp: float, cfg: SampleConfig) -> SampleSlot:
    """Map a timestamp (seconds since epoch) to its day and sample indices."""
    if timestamp < 0:
        raise ValueError("timestamp must be >= 0")
    day = int(timestamp // cfg.seconds_per_day)
    rem = timestamp - day * cfg.seconds_per_day
    sample = int(rem // cfg.sample_length)
    if sample >= cfg.samples_per_day:  # guard against float edge at the day boundary
        sample = cfg.samples_per_day - 1
    return SampleSlot(day, sample)


def split_contact_by_samples(c: ContactEvent, cfg: SampleConfig) -> list[tuple[SampleSlot, float]]:
    """Partition a contact across the samples it overlaps.

    Fragments are returned in time order and their durations sum to the
    contact duration; a contact inside one sample yields a single fragment.
    """
    out: list[tuple[SampleSlot, float]] = []
    cur = c.start
    while cur < c.end:
        slot = sample_slot_of(cur, cfg)
        slot_end = (slot.linear(cfg) + 1) * cfg.sample_length
        upto = min(float(slot_end), c.end)
        out.append((slot, upto - cur))
        cur = upto
    return out


@dataclass
class ContactTrace:
    """Time-ordered contact events over a dense 0-based node-id range."""

    events: list[ContactEvent]
    node_count: int
    duration: float

    @classmethod
    def from_events(cls, events: Iterable[ContactEvent], node_count: int | None = None) -> "ContactTrace":
        ordered = sorted(events, key=lambda e: (e.start, e.end, e.node_a, e.node_b))
        max_id = max((e.node_b for e in ordered), default=-1)
        if node_count is None:
            node_count = max_id + 1
        elif max_id >= node_count:
            raise ValueError(f"event references node {max_id} >= node_count {node_count}")
        duration = max((e.end for e in ordered), default=0.0)
        return cls(ordered, node_count, duration)


def _parse_record(fields: Sequence[str], line_no: int) -> tuple[int, int, float, float]:
    try:
        a, b = int(fields[0]), int(fields[1])
        start, end = float(fields[2]), float(fields[3])
    except ValueError as exc:
        raise TraceFormatError(line_no, f"non-numeric field: {exc}") from None
    if a == b:
        raise TraceFormatError(line_no, f"self-contact for node {a}")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise TraceFormatError(line_no, f"rejected record: non-finite time in [{start}, {end}]")
    if not start < end:
        raise TraceFormatError(line_no, f"rejected record: start {start} >= end {end}")
    return a, b, start, end


TRACE_FORMATS = ("csv", "haggle")


def parse_contact_trace(text: str | bytes, fmt: str = "csv") -> tuple[ContactTrace, dict[int, int]]:
    """Parse a contact trace and remap node ids to a dense 0-based range.

    Supported formats: "csv" (header ``a,b,start,end``) and "haggle"
    (whitespace-separated ``id id start end``, ``#`` comments ignored,
    extra trailing columns tolerated). Returns the canonical trace and the
    original-id -> dense-id mapping.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if fmt not in TRACE_FORMATS:
        expected = " or ".join(map(repr, TRACE_FORMATS))
        raise ValueError(f"unknown trace format {fmt!r} (expected {expected})")

    raw: list[tuple[int, int, float, float]] = []
    header_seen = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if fmt == "haggle":
            if stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) < 4:
                raise TraceFormatError(line_no, f"expected 4 fields, got {len(fields)}")
        else:
            if not header_seen:
                if stripped.lower() != CSV_TRACE_HEADER:
                    raise TraceFormatError(line_no, f"expected header {CSV_TRACE_HEADER!r}")
                header_seen = True
                continue
            fields = [f.strip() for f in stripped.split(",")]
            if len(fields) != 4:
                raise TraceFormatError(line_no, f"expected 4 comma-separated fields, got {len(fields)}")
        raw.append(_parse_record(fields, line_no))

    ids = sorted({a for a, _, _, _ in raw} | {b for _, b, _, _ in raw})
    id_map = {orig: dense for dense, orig in enumerate(ids)}
    events = [ContactEvent(id_map[a], id_map[b], s, e) for a, b, s, e in raw]
    return ContactTrace.from_events(events), id_map


def serialize_contact_trace(trace: ContactTrace) -> str:
    """Canonical CSV form; floats use repr so parsing round-trips bit-exactly."""
    lines = [CSV_TRACE_HEADER]
    lines.extend(f"{e.node_a},{e.node_b},{e.start!r},{e.end!r}" for e in trace.events)
    return "\n".join(lines) + "\n"


def load_contact_trace(path: str | Path, fmt: str = "csv") -> tuple[ContactTrace, dict[int, int]]:
    return parse_contact_trace(Path(path).read_text(), fmt)


@dataclass(frozen=True)
class RelationActivity:
    """Contact behaviour of one group relation: which samples it is active in,
    the per-sample chance a pair meets, and how long the contact lasts."""

    samples: tuple[int, ...]
    probability: float
    duration: float

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0, 1]")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")


_RELATION_KINDS = ("home", "work", "social")


@dataclass(frozen=True)
class RoutineSpec:
    """Synthetic daily-routine scenario: group memberships plus per-relation
    contact activities repeated every day."""

    node_count: int
    days: int
    cfg: SampleConfig
    home_group: tuple[int, ...]
    work_group: tuple[int, ...]
    social_group: tuple[int, ...]
    home: RelationActivity | None = None
    work: RelationActivity | None = None
    social: RelationActivity | None = None
    background: RelationActivity | None = None

    def __post_init__(self):
        if self.node_count < 0 or self.days < 0:
            raise ValueError("node_count and days must be >= 0")
        for name in _RELATION_KINDS:
            groups = getattr(self, f"{name}_group")
            if len(groups) != self.node_count:
                raise ValueError(f"{name}_group must list one group per node")
        for name in (*_RELATION_KINDS, "background"):
            act = getattr(self, name)
            if act is None:
                continue
            if act.duration > self.cfg.sample_length:
                raise ValueError(f"{name}: duration {act.duration} exceeds sample length")
            for s in act.samples:
                if not 0 <= s < self.cfg.samples_per_day:
                    raise ValueError(f"{name}: sample index {s} out of range")

    @classmethod
    def from_dict(cls, d: Mapping) -> "RoutineSpec":
        cfg = SampleConfig(
            int(d.get("samples_per_day", 24)), int(d.get("seconds_per_day", 86400))
        )

        def activity(val) -> RelationActivity | None:
            if val is None:
                return None
            return RelationActivity(
                tuple(int(s) for s in val["samples"]),
                float(val["probability"]),
                float(val["duration"]),
            )

        groups = d.get("groups", {})
        n = int(d["node_count"])

        def group(name) -> tuple[int, ...]:
            val = groups.get(name)
            if val is None:
                return tuple(range(n))  # every node in its own group: relation inert
            return tuple(int(g) for g in val)

        acts = d.get("activities", {})
        return cls(
            node_count=n,
            days=int(d["days"]),
            cfg=cfg,
            home_group=group("home"),
            work_group=group("work"),
            social_group=group("social"),
            home=activity(acts.get("home")),
            work=activity(acts.get("work")),
            social=activity(acts.get("social")),
            background=activity(acts.get("background")),
        )


def generate_routine_trace(spec: RoutineSpec, seed: int) -> ContactTrace:
    """Generate a deterministic daily-repeating contact trace.

    Each (pair, sample) produces at most one contact. Relations are tried in
    a fixed order (home, work, social) for pairs sharing that group; the
    background relation applies to any pair when nothing else fired. Contact
    duration is the relation's duration, placed uniformly inside the sample.
    """
    rng = random.Random(seed)
    length = spec.cfg.sample_length
    relations = [
        (getattr(spec, name), getattr(spec, f"{name}_group")) for name in _RELATION_KINDS
    ]
    active = {
        id(act): frozenset(act.samples)
        for act, _ in relations
        if act is not None
    }
    if spec.background is not None:
        active[id(spec.background)] = frozenset(spec.background.samples)

    pairs = [(a, b) for a in range(spec.node_count) for b in range(a + 1, spec.node_count)]
    events: list[ContactEvent] = []
    for day in range(spec.days):
        for sample in range(spec.cfg.samples_per_day):
            base = float((day * spec.cfg.samples_per_day + sample) * length)
            for a, b in pairs:
                hit: RelationActivity | None = None
                for act, groups in relations:
                    if act is None or sample not in active[id(act)]:
                        continue
                    if groups[a] != groups[b]:
                        continue
                    if rng.random() < act.probability:
                        hit = act
                        break
                if hit is None and spec.background is not None:
                    bg = spec.background
                    if sample in active[id(bg)] and rng.random() < bg.probability:
                        hit = bg
                if hit is None:
                    continue
                slack = length - hit.duration
                offset = rng.uniform(0.0, slack) if slack > 0 else 0.0
                start = base + offset
                events.append(ContactEvent(a, b, start, start + hit.duration))
    return ContactTrace.from_events(events, node_count=spec.node_count)

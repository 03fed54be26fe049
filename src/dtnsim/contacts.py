"""Contact events, daily-sample time arithmetic, trace I/O, and synthetic
routine-driven trace generation."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

CSV_TRACE_HEADER = "a,b,start,end"


class ConfigError(ValueError):
    """A bad setting or input. `field` names what is at fault (a config key,
    `line 3` of a file, `workload row 3`, `contact 5`) and `reason` says what
    is wrong with it. Both are the exception's args, so it pickles, and it
    reads `field: reason`."""

    def __init__(self, field: str, reason: str):
        super().__init__(field, reason)
        self.field = field
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.field}: {self.reason}"


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


SAMPLE_KEYS = ("samples_per_day", "seconds_per_day")  # SampleConfig's fields


@dataclass(frozen=True)
class SampleConfig:
    """How a day is partitioned into fixed daily samples."""

    samples_per_day: int = 24
    seconds_per_day: int = 86400

    def __post_init__(self):
        if self.samples_per_day < 1:
            raise ConfigError("samples_per_day", "must be >= 1")
        if self.seconds_per_day <= 0 or self.seconds_per_day % self.samples_per_day != 0:
            raise ConfigError("seconds_per_day", "must be a positive multiple of samples_per_day")

    @property
    def sample_length(self) -> int:
        return self.seconds_per_day // self.samples_per_day


def split_contact_by_samples(start: float, end: float, sample_length: int) -> list[tuple[int, float]]:
    """Partition the interval [start, end), in seconds since the epoch, into
    (linear slot, seconds) fragments, one per sample it overlaps.

    Slot `lin` covers [lin * sample_length, (lin + 1) * sample_length); its
    sample index is `lin % samples_per_day`. Fragments come in time order
    and their seconds sum to `end - start`.
    """
    out: list[tuple[int, float]] = []
    cur = start
    while cur < end:
        lin = int(cur // sample_length)
        upto = min(float((lin + 1) * sample_length), end)
        out.append((lin, upto - cur))
        cur = upto
    return out


@dataclass
class ContactTrace:
    """Time-ordered contact events over a dense 0-based node-id range."""

    events: list[ContactEvent]
    node_count: int

    @classmethod
    def from_events(cls, events: Iterable[ContactEvent], node_count: int | None = None) -> "ContactTrace":
        ordered = sorted(events, key=lambda e: (e.start, e.end, e.node_a, e.node_b))
        max_id = max((e.node_b for e in ordered), default=-1)
        if node_count is None:
            node_count = max_id + 1
        elif max_id >= node_count:
            raise ValueError(f"event references node {max_id} >= node_count {node_count}")
        return cls(ordered, node_count)


def _parse_record(fields: Sequence[str], line_no: int) -> tuple[int, int, float, float]:
    try:
        a, b = int(fields[0]), int(fields[1])
        start, end = float(fields[2]), float(fields[3])
    except ValueError as exc:
        raise ConfigError(f"line {line_no}", f"non-numeric field: {exc}") from None
    if a == b:
        raise ConfigError(f"line {line_no}", f"self-contact for node {a}")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ConfigError(
            f"line {line_no}", f"rejected record: non-finite time in [{start}, {end}]"
        )
    if not start < end:
        raise ConfigError(f"line {line_no}", f"rejected record: start {start} >= end {end}")
    return a, b, start, end


TRACE_FORMATS = ("csv", "haggle")


def decode_utf8(data: str | bytes) -> str:
    """The text of an input file. Bytes that are not UTF-8 are a
    `ConfigError` whose field is the line (as `str.splitlines` counts them)
    that holds the first bad byte."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; "x" stands in for it
        lines = (data[:exc.start].decode("utf-8") + "x").splitlines()
        raise ConfigError(
            f"line {len(lines)}",
            f"not UTF-8: byte 0x{data[exc.start]:02x} at column {len(lines[-1])}",
        ) from None


def parse_contact_trace(text: str | bytes, fmt: str = "csv") -> tuple[ContactTrace, dict[int, int]]:
    """Parse a contact trace and remap node ids to a dense 0-based range.

    Supported formats: "csv" (header ``a,b,start,end``) and "haggle"
    (whitespace-separated ``id id start end``, ``#`` comments ignored,
    extra trailing columns tolerated). Returns the canonical trace and the
    original-id -> dense-id mapping.
    """
    text = decode_utf8(text)
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
                raise ConfigError(f"line {line_no}", f"expected 4 fields, got {len(fields)}")
        else:
            if not header_seen:
                if stripped.lower() != CSV_TRACE_HEADER:
                    raise ConfigError(f"line {line_no}", f"expected header {CSV_TRACE_HEADER!r}")
                header_seen = True
                continue
            fields = [f.strip() for f in stripped.split(",")]
            if len(fields) != 4:
                raise ConfigError(
                    f"line {line_no}", f"expected 4 comma-separated fields, got {len(fields)}"
                )
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
    """`parse_contact_trace` on a file; a parse error's field names the
    file (`trace <path> line 3`)."""
    try:
        return parse_contact_trace(Path(path).read_bytes(), fmt)
    except ConfigError as exc:
        raise ConfigError(f"trace {path} {exc.field}", exc.reason) from None


# Readers of JSON values: each returns the type the program takes or names
# the key it rejects. A JSON boolean is an int to Python, so it is excluded.


def _require(d: Mapping, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return d[key]


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(key, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond any float
        raise ConfigError(key, f"out of range: {value}") from None


def _integer(key: str, value) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(key, f"expected an integer, got {value!r}")
    return value


def _object(key: str, value) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(key, f"expected a JSON object, got {value!r}")
    return value


def _list(key: str, value) -> Sequence:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(key, f"expected a list, got {value!r}")
    return value


@dataclass(frozen=True)
class RelationActivity:
    """Contact behaviour of one group relation: which samples it is active in,
    the per-sample chance a pair meets, and how long the contact lasts."""

    samples: tuple[int, ...]
    probability: float
    duration: float

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError("probability", f"{self.probability} outside [0, 1]")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ConfigError("duration", f"must be finite and > 0, got {self.duration}")


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
        for name in ("node_count", "days"):
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be >= 0")
        for name in _RELATION_KINDS:
            if len(getattr(self, f"{name}_group")) != self.node_count:
                raise ConfigError(f"{name}_group", "must list one group per node")
        for name in (*_RELATION_KINDS, "background"):
            act = getattr(self, name)
            if act is None:
                continue
            if act.duration > self.cfg.sample_length:
                raise ConfigError(name, f"duration {act.duration} exceeds sample length")
            for s in act.samples:
                if not 0 <= s < self.cfg.samples_per_day:
                    raise ConfigError(name, f"sample index {s} out of range")

    @classmethod
    def from_dict(cls, d: Mapping) -> "RoutineSpec":
        d = _object("spec", d)
        # a key left out keeps SampleConfig's default
        cfg = SampleConfig(**{key: _integer(key, d[key]) for key in SAMPLE_KEYS if key in d})
        n = _integer("node_count", _require(d, "node_count", ""))
        groups = _object("groups", d.get("groups", {}))
        activities = _object("activities", d.get("activities", {}))

        def group(name) -> tuple[int, ...]:
            val = groups.get(name)
            if val is None:
                return tuple(range(n))  # every node in its own group: relation inert
            key = f"groups.{name}"
            return tuple(_integer(f"{key}[{i}]", g) for i, g in enumerate(_list(key, val)))

        def activity(name) -> RelationActivity | None:
            val = activities.get(name)
            if val is None:
                return None
            key = f"activities.{name}"
            val = _object(key, val)
            samples = _list(f"{key}.samples", _require(val, "samples", key))
            return RelationActivity(
                tuple(_integer(f"{key}.samples[{i}]", s) for i, s in enumerate(samples)),
                _number(f"{key}.probability", _require(val, "probability", key)),
                _number(f"{key}.duration", _require(val, "duration", key)),
            )

        return cls(
            node_count=n,
            days=_integer("days", _require(d, "days", "")),
            cfg=cfg,
            home_group=group("home"),
            work_group=group("work"),
            social_group=group("social"),
            home=activity("home"),
            work=activity("work"),
            social=activity("social"),
            background=activity("background"),
        )


def generate_routine_trace(spec: RoutineSpec, seed: int) -> ContactTrace:
    """Generate a deterministic daily-repeating contact trace.

    Each (pair, sample) produces at most one contact. All draws come from
    one `random.Random(seed)`, in this order: day by day, sample by sample,
    and within a sample pair by pair, (0, 1), (0, 2), ..., (1, 2), .... A
    pair tries the home, work and social relations whose activity covers
    the sample and whose group it shares, in that order, then `background`
    if it covers the sample; each try draws one `random()`, and the first
    below its probability is the pair's contact. That contact lasts the
    relation's duration and starts `uniform(0, sample length - duration)`
    into the sample, a draw skipped when the duration fills the sample.
    The same seed therefore gives the same trace byte for byte.
    """
    rng = random.Random(seed)
    draw, uniform = rng.random, rng.uniform
    length = spec.cfg.sample_length
    acts = [getattr(spec, name) for name in (*_RELATION_KINDS, "background")]
    entries = [act and (act.probability, act.duration, length - act.duration) for act in acts]
    groups = [getattr(spec, f"{name}_group") for name in _RELATION_KINDS]
    pairs = [(a, b) for a in range(spec.node_count) for b in range(a + 1, spec.node_count)]
    # bit i of a mask stands for acts[i]: a pair's mask holds the relations
    # whose group it shares and the background; a sample's pattern holds the
    # activities that cover it. A pair's chain in a sample is the entries of
    # both, in draw order, and each pattern lists the chain of every pair.
    masks = [8 | sum(1 << i for i, g in enumerate(groups) if g[a] == g[b]) for a, b in pairs]
    chains = {key: tuple(e for i, e in enumerate(entries) if key >> i & 1) for key in range(16)}
    patterns = [sum(1 << i for i, act in enumerate(acts) if act and sample in act.samples)
                for sample in range(spec.cfg.samples_per_day)]
    # a pattern of 0 lists no pair: a sample that no activity covers draws nothing
    by_pattern = {p: [chains[mask & p] for mask in masks] if p else [] for p in set(patterns)}
    rows = [by_pattern[p] for p in patterns]

    events: list[ContactEvent] = []
    for day in range(spec.days):
        for sample, row in enumerate(rows):
            base = float((day * spec.cfg.samples_per_day + sample) * length)
            for (a, b), chain in zip(pairs, row):
                for probability, duration, slack in chain:
                    if draw() < probability:
                        start = base + uniform(0.0, slack) if slack > 0 else base
                        events.append(ContactEvent(a, b, start, start + duration))
                        break
    return ContactTrace.from_events(events, node_count=spec.node_count)

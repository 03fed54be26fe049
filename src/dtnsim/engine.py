"""Deterministic discrete-event engine: replays a contact trace, maintains
per-node buffers and (for the runs that read it) the social ledger, invokes
a routing policy at contact opportunities, and emits an ordered event log."""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from .contacts import ConfigError, ContactEvent, ContactTrace, SampleConfig, split_contact_by_samples
from .ledger import SocialLedger
from .routing import (
    COMMUNITY_ROUTERS,
    LEDGER_ROUTERS,
    ROUTER_NAMES,
    CarrierState,
    PeerSummary,
    RouterDecision,
    decide,
)
from .socialgraph import (
    CentralityTable,
    CommunityMap,
    WindowMeetings,
    build_familiar_graph,
    k_clique_communities,
)
from .workload import Message, WorkloadEntry, messages_from_workload

BANDWIDTH_WIFI_11MBPS = 11_000_000.0  # bits/second

# Processing order for simultaneous events. Expiries precede transfers so a
# message cannot move at the instant it dies; transfers finishing exactly at
# contact end still count; contact-end ledger fragments land before the roll
# of the slot they belong to; creations at a contact's start instant are
# visible to its first decision.
_PRI_EXPIRE = 0
_PRI_TRANSFER = 1
_PRI_CONTACT_END = 2
_PRI_ROLL = 3
_PRI_RECOMPUTE = 4
_PRI_CREATE = 5
_PRI_CONTACT_START = 6

KIND_CREATED = "created"
KIND_REPLICATED = "replicated"
KIND_DELIVERED = "delivered"
KIND_DROPPED = "dropped_buffer_full"
KIND_EXPIRED = "expired_ttl"
KIND_DELETED_COMMUNITY = "deleted_community_rule"
KIND_ABORTED = "transfer_aborted"

EVENT_LOG_CSV_HEADER = "time,kind,msg,node,peer,size"
# records per list that `Simulation.run` hands to its sink, and per piece of
# `EventLog.csv_chunks`: a writer holds that many records and their text at a
# time, not the whole log's
CSV_CHUNK_RECORDS = 8192

DROP_POLICIES = ("oldest_first", "newest_first")

# what routers outside LEDGER_ROUTERS get instead of ledger reads
_NO_WEIGHTS = ()

_ORDER_KEY = attrgetter("order_key")
_INDEX_KEY = attrgetter("index")


def run_epoch(epoch: float | None, trace: ContactTrace, sample: SampleConfig) -> float:
    """A run's time origin: `epoch` when set, else the trace's first contact
    start floored to a day (0 for a trace without contacts)."""
    if epoch is not None:
        return float(epoch)
    if trace.events:
        return (trace.events[0].start // sample.seconds_per_day) * sample.seconds_per_day
    return 0.0


class LogRecord(NamedTuple):
    """The field names of an event-log record. The engine logs plain tuples
    in this order; `LogRecord._make(r)` names the fields of one."""

    time: float
    kind: str
    msg: str
    node: int
    peer: int | None = None
    size: int | None = None


class CsvFormatter:
    """Formats lists of records as `events.csv` rows, one list per call; an
    absent peer or size is an empty field. Simultaneous records share the
    engine's time object, so each time object is formatted once per run of
    them, across calls too. The cache is keyed by identity, as equal times
    (0.0 and -0.0, 1 and 1.0) may differ in `repr`; it holds the object it
    keys, so no later one can take its address."""

    __slots__ = ("_last", "_stamp")

    def __init__(self):
        self._last, self._stamp = object(), ""

    def rows(self, records: Sequence[tuple]) -> str:
        last, stamp = self._last, self._stamp
        lines = []
        append = lines.append
        for t, k, m, n, p, s in records:
            if t is not last:
                last, stamp = t, repr(t)
            append(f'{stamp},{k},{m},{n},{"" if p is None else p},{"" if s is None else s}\n')
        self._last, self._stamp = last, stamp
        return "".join(lines)


@dataclass
class EventLog:
    """Ordered record of everything that happened to messages in one run:
    `(time, kind, msg, node, peer, size)` tuples in `LogRecord` order. An
    exact tuple of atoms is untracked by the cyclic GC at its first
    collection, so a full collection does not walk the log."""

    records: list[tuple] = field(default_factory=list)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def csv_chunks(self, chunk_records: int = CSV_CHUNK_RECORDS) -> Iterator[str]:
        """The CSV text in pieces: the `EVENT_LOG_CSV_HEADER` line, then the
        rows of up to `chunk_records` records at a time."""
        yield EVENT_LOG_CSV_HEADER + "\n"
        records, formatter = self.records, CsvFormatter()
        for start in range(0, len(records), chunk_records):
            yield formatter.rows(records[start:start + chunk_records])

    def to_csv(self) -> str:
        """The whole CSV text: the chunks joined."""
        return "".join(self.csv_chunks())


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs; the engine itself draws no randomness.

    Building one checks every setting that does not need the trace or the
    workload, so a config that exists is valid up to its inputs (those are
    checked when a `Simulation` is built)."""

    trace: ContactTrace = field(default_factory=lambda: ContactTrace([], 0))
    workload: tuple[WorkloadEntry, ...] = ()
    router: str = "epidemic"
    sample: SampleConfig = field(default_factory=SampleConfig)
    ttl: float = 86400.0
    buffer_capacity: int = 2_000_000
    bandwidth: float | None = None  # bits/second; None = unlimited
    damping: float = 0.8
    k: int = 5
    familiar_threshold: float = 43_200.0
    centrality_window: float = 21_600.0
    recompute_interval: float = 86_400.0
    epoch: float | None = None  # None: first contact start, floored to a day boundary
    drop_policy: str = "oldest_first"
    charge_summaries: bool = False

    def __post_init__(self):
        # each test is written as `not <valid>`, so that NaN fails it
        if self.router not in ROUTER_NAMES:
            raise ConfigError(
                "router", f"{self.router!r} is unknown (valid: {', '.join(ROUTER_NAMES)})"
            )
        for name in ("ttl", "familiar_threshold", "centrality_window", "recompute_interval"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(name, f"must be finite and > 0, got {value}")
        if not self.buffer_capacity > 0:
            raise ConfigError("buffer_capacity", f"must be > 0, got {self.buffer_capacity}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ConfigError(
                "bandwidth", f"must be > 0 or None for unlimited, got {self.bandwidth}"
            )
        if not self.k >= 3:
            raise ConfigError("k", f"must be >= 3, got {self.k}")
        if not 0.0 <= self.damping <= 1.0:
            raise ConfigError("damping", f"must be in [0, 1], got {self.damping}")
        if self.epoch is not None and not math.isfinite(self.epoch):
            raise ConfigError("epoch", f"must be finite or None, got {self.epoch}")
        if self.drop_policy not in DROP_POLICIES:
            valid = ", ".join(DROP_POLICIES)
            raise ConfigError("drop_policy", f"{self.drop_policy!r} is unknown (valid: {valid})")


class NodeRuntime:
    """One simulated node's bounded buffer, keyed by workload row.

    The buffer keeps two records of the same messages: `buffer`, row to
    message, which says what the node holds (decisions filter it, and an
    expiry asks every node's in node-id order), and `ordered`, in
    `Message.order_key` order as messages come and go, so eviction takes an
    end of it. `order_keys` holds the `order_key` of each message of
    `ordered` at the same index, so a bisection compares tuples in C rather
    than calling a key function per comparison.
    """

    def __init__(self, node_id: int, capacity: int):
        self.node_id = node_id
        self.capacity = capacity
        self.buffer: dict[int, Message] = {}
        self.ordered: list[Message] = []
        self.order_keys: list[tuple[float, int]] = []
        self.occupancy = 0
        # rows of the messages this node received as final recipient; the
        # candidate filter reads it so carriers do not replicate them again
        self.delivered: set[int] = set()

    def add(self, m: Message) -> None:
        if m.row in self.buffer:
            raise ValueError(f"duplicate message {m.id} in buffer of node {self.node_id}")
        self.buffer[m.row] = m
        key = m.order_key
        i = bisect_right(self.order_keys, key)
        self.order_keys.insert(i, key)
        self.ordered.insert(i, m)
        self.occupancy += m.size

    def remove(self, row: int) -> Message:
        m = self.buffer.pop(row)
        i = bisect_left(self.order_keys, m.order_key)
        del self.order_keys[i]
        del self.ordered[i]
        self.occupancy -= m.size
        return m

    def evict(self, newest: bool) -> Message:
        """Remove and return the oldest (or the newest) buffered message."""
        end = -1 if newest else 0
        del self.order_keys[end]
        m = self.ordered.pop(end)
        del self.buffer[m.row]
        self.occupancy -= m.size
        return m


def buffer_admit(
    node: NodeRuntime, m: Message, drop_policy: str = "oldest_first"
) -> tuple[bool, list[Message]]:
    """Admit a message, evicting buffered messages until it fits.

    Eviction follows creation time, then workload row: oldest first, or
    newest first under "newest_first" (the caller checks the policy name).
    The node's own messages get no protection. A message larger than the
    whole buffer is rejected outright.
    """
    if m.size > node.capacity:
        return False, []
    evicted: list[Message] = []
    newest = drop_policy == "newest_first"
    while node.occupancy + m.size > node.capacity:
        evicted.append(node.evict(newest))
    node.add(m)
    return True, evicted


def transfer_within_contact(
    contact: ContactEvent,
    messages: Sequence[Message],
    bandwidth: float | None,
    start: float | None = None,
) -> tuple[list[tuple[Message, float]], list[Message]]:
    """Schedule sequential transfers over one contact's link.

    Returns (completed with completion times, aborted). With unlimited
    bandwidth everything completes at the start instant. The link is a
    single sequential channel: the first transfer that cannot finish by
    contact end aborts, together with everything queued behind it.
    """
    at = contact.start if start is None else max(start, contact.start)
    if bandwidth is None:
        return [(m, at) for m in messages], []
    completed: list[tuple[Message, float]] = []
    for idx, m in enumerate(messages):
        done = at + m.size * 8.0 / bandwidth
        if done > contact.end:
            return completed, list(messages[idx:])
        completed.append((m, done))
        at = done
    return completed, []


class _Direction:
    """One direction of an ongoing contact, the unit the engine queues and
    scans: what its sender has committed to the receiver, and what changed
    since its last scan. It links to neither its contact nor the contact's
    other direction, so a contact still up when a run returns leaves no
    reference cycle behind."""

    __slots__ = ("index", "src", "dst", "alive", "back", "queued", "sent", "inputs", "pending")

    def __init__(self, index: int, src: int, dst: int, pending: set[int], back: set[int]):
        self.index = index  # contact index: the order of a node's outbound directions
        self.src = src
        self.dst = dst
        self.alive = True  # cleared when the contact ends: a queued dead direction is skipped
        # the other direction's `pending` set: a row that leaves this
        # direction's sender is marked there
        self.back = back
        self.queued = False  # in the scan queue
        # rows committed to this contact (done, in flight, or abandoned)
        self.sent: set[int] = set()
        # the decision inputs of the last scan; None until the first one
        self.inputs: tuple | None = None
        # rows that entered the sender, or left the receiver by eviction or
        # community deletion, since the last scan: the only rows whose
        # answer can have changed while the inputs stay the same. It is one
        # set for the whole contact, as the other direction's `back` holds it.
        self.pending = pending


class _OngoingContact:
    """Book-keeping for a contact that is currently up."""

    def __init__(self, index: int, event: ContactEvent, busy_until: float):
        self.event = event
        self.busy_until = busy_until
        a, b = event.node_a, event.node_b
        ab_pending, ba_pending = set(), set()
        ab = _Direction(index, a, b, ab_pending, ba_pending)
        ba = _Direction(index, b, a, ba_pending, ab_pending)
        self.directions = (ab, ba)
        self.aborts: list[tuple[int, int, int]] = []  # (from, to, row), logged at contact end


class Simulation:
    """One deterministic run over a trace and a workload."""

    def __init__(self, cfg: SimConfig, keep_ledger: bool = False):
        self.cfg = cfg
        self._validate()
        self.epoch = self._resolve_epoch()
        n = cfg.trace.node_count
        self.nodes = [NodeRuntime(i, cfg.buffer_capacity) for i in range(n)]
        # the ledger, built only for the runs that read it: routers that weigh
        # pairs, summaries charged to a finite link, and `keep_ledger` (dumps)
        self._charges_summaries = cfg.charge_summaries and cfg.bandwidth is not None
        self.ledger = (
            SocialLedger(n, cfg.sample, cfg.damping)
            if keep_ledger or cfg.router in LEDGER_ROUTERS or self._charges_summaries
            else None
        )
        # messages by workload row, the only key of a message in the run
        self.rows = messages_from_workload(cfg.workload, cfg.ttl)
        self._reads_ledger = cfg.router in LEDGER_ROUTERS
        self.log = EventLog()
        self._record = self.log.records.append
        self.ongoing: dict[int, _OngoingContact] = {}
        # per node, the directions of its ongoing contacts that it sends on,
        # in contact-index order; those it receives on are their reverses
        self.outbound: list[list[_Direction]] = [[] for _ in range(n)]
        self.communities = CommunityMap.empty()
        self.centralities = CentralityTable.empty(cfg.centrality_window)
        self._recomputes = 0  # the last recompute's index, a decision input
        # the contact history that the community recompute reads, kept (as
        # contacts end) only for the routers that recompute
        self.pair_seconds: dict[tuple[int, int], float] = {}
        self.meetings = (
            WindowMeetings(cfg.centrality_window, self.epoch)
            if cfg.router in COMMUNITY_ROUTERS
            else None
        )
        # no decision runs after the last contact ends: rolls and recomputes
        # stop there, and `to_horizon` brings them on to the horizon
        self._last_end = max((ev.end for ev in cfg.trace.events), default=self.epoch)
        self.horizon = max([self._last_end] + [m.expires_at for m in self.rows])
        self._heap: list[tuple] = []
        self._evals: deque[_Direction] = deque()
        # the events that can still log: queued creations, expiries and
        # transfer completions, and aborts waiting for their contact's end.
        # Once it reaches 0, every message has expired, and so left every
        # buffer, and no handler can log again: `run` stops there.
        self._open = 0

    def _validate(self) -> None:
        # the settings were checked when the SimConfig was built; these
        # checks need the trace or the workload
        cfg = self.cfg
        trace = cfg.trace
        for index, ev in enumerate(trace.events):
            if not (math.isfinite(ev.start) and math.isfinite(ev.end)):
                raise ConfigError(
                    f"contact {index}", f"times must be finite, got [{ev.start}, {ev.end}]"
                )
        n = trace.node_count
        for row, entry in enumerate(cfg.workload):
            # also rejects an expiry that overflows to inf
            if not math.isfinite(entry.created_at + cfg.ttl):
                raise ConfigError(
                    f"workload row {row}", f"created_at {entry.created_at} gives no finite expiry"
                )
            for end in (entry.source, entry.destination):
                if not 0 <= end < n:
                    raise ConfigError(
                        f"workload row {row}", f"node {end} outside trace range 0..{n - 1}"
                    )
            if entry.source == entry.destination:
                raise ConfigError(
                    f"workload row {row}", f"source and destination are both node {entry.source}"
                )
            if entry.size <= 0:
                raise ConfigError(f"workload row {row}", f"size {entry.size} must be > 0")
            if entry.size > cfg.buffer_capacity:
                raise ConfigError(
                    f"workload row {row}", f"size {entry.size} exceeds buffer capacity"
                )

    def _resolve_epoch(self) -> float:
        cfg = self.cfg
        epoch = run_epoch(cfg.epoch, cfg.trace, cfg.sample)
        if cfg.trace.events and cfg.trace.events[0].start < epoch:
            raise ConfigError("epoch", "must not be after the first contact")
        for row, entry in enumerate(cfg.workload):
            if entry.created_at < epoch:
                raise ConfigError(f"workload row {row}", f"created before epoch {epoch}")
        return epoch

    # -- event queue ------------------------------------------------------

    def _push(self, time: float, pri: int, a: int, b: int, row: int, extra: int = 0) -> None:
        # `row` is the message's workload row (-1 for entries of no message),
        # so simultaneous events break ties in row order at any message count
        heapq.heappush(self._heap, (time, pri, a, b, row, extra))

    def _seed_events(self) -> None:
        # a contact's end is pushed when the contact starts (every contact
        # has start < end), so the heap holds only the ends of ongoing
        # contacts; a heap pops by key, so the order is the same as if every
        # end were pushed here
        cfg = self.cfg
        for idx, ev in enumerate(cfg.trace.events):
            self._push(ev.start, _PRI_CONTACT_START, ev.node_a, ev.node_b, -1, idx)
        for m in self.rows:
            self._push(m.created_at, _PRI_CREATE, m.source, m.destination, m.row)
        self._open += len(self.rows)
        if self.ledger is not None:
            self._push_boundary(_PRI_ROLL, 1)
        if self.meetings is not None:
            self._push_boundary(_PRI_RECOMPUTE, 1)

    def _push_boundary(self, pri: int, n: int) -> None:
        # the n-th roll or recompute, if it falls by the last contact end;
        # each handler pushes its successor, so the heap holds one of each
        length = self.cfg.sample.sample_length if pri == _PRI_ROLL else self.cfg.recompute_interval
        if self.epoch + n * length <= self._last_end:
            self._push(self.epoch + n * length, pri, -1, -1, -1, n)

    def run(self, sink: Callable[[list[tuple]], object] | None = None) -> EventLog:
        """Process events until none can log again, and return the log: the
        run stops once every message has expired and no transfer or abort
        is left to log, so the contacts, rolls and recomputes after that stay
        on the heap for `to_horizon`. With a `sink`, the log's records are
        handed to it as the run goes: a list of at least `CSV_CHUNK_RECORDS`
        records whenever the log grows that long between two events, and the
        rest when the run ends. The engine clears the list once the sink
        returns, so the returned log is empty and a sink that keeps records
        must copy them."""
        self._seed_events()
        self._play(sink, until_idle=True)
        return self.log

    def to_horizon(self) -> None:
        """After `run`, bring what the dumps read to the horizon: play the
        rest of the heap, then make the rolls, and the last recompute by
        then, that the run leaves out after the last contact end. Raises
        RuntimeError if that adds a record, which the stop rule of `run`
        rules out. A second call changes nothing."""
        logged = len(self.log.records)
        self._play(None, until_idle=False)
        if len(self.log.records) != logged:
            raise RuntimeError(
                f"{len(self.log.records) - logged} records logged after the run stopped"
            )
        epoch, horizon = self.epoch, self.horizon
        if self.ledger is not None:
            while epoch + (self.ledger.clock + 1) * self.cfg.sample.sample_length <= horizon:
                self.ledger.roll_sample()
        if self.meetings is not None:
            interval = self.cfg.recompute_interval
            n = int((horizon - epoch) // interval) + 1
            while epoch + n * interval > horizon:
                n -= 1
            if n > self._recomputes:
                self._on_recompute(epoch + n * interval, n)

    def _play(self, sink: Callable[[list[tuple]], object] | None, until_idle: bool) -> None:
        # the one event loop: until no event can log (`run`), or until the
        # heap is empty (`to_horizon`)
        heap = self._heap
        records = self.log.records
        # without a sink the log is never cut, so its length never reaches this
        chunk = CSV_CHUNK_RECORDS if sink is not None else math.inf
        while heap and (self._open or not until_idle):
            time, pri, a, b, row, extra = heapq.heappop(heap)
            if pri == _PRI_EXPIRE:
                self._on_expire(time, row)
            elif pri == _PRI_TRANSFER:
                self._on_transfer_complete(time, a, b, row, extra)
            elif pri == _PRI_CONTACT_END:
                self._on_contact_end(time, extra)
            elif pri == _PRI_ROLL:
                self._on_roll(extra)
            elif pri == _PRI_RECOMPUTE:
                self._on_recompute(time, extra)
            elif pri == _PRI_CREATE:
                self._on_create(time, row)
            else:
                self._on_contact_start(time, extra)
            self._drain_evals(time)
            if len(records) >= chunk:
                sink(records)
                records.clear()
        if sink is not None and records:
            sink(records)
            records.clear()

    # -- handlers ----------------------------------------------------------

    def _on_expire(self, time: float, row: int) -> None:
        # In-flight transfers of the expired message abort at their completion
        # event; expiries are processed first among simultaneous events, so the
        # message can never move at or after this instant. Each buffer is
        # asked in node-id order, so its expiries are logged in that order.
        self._open -= 1
        msg_id = self.rows[row].id
        for node in self.nodes:
            if row in node.buffer:
                node.remove(row)
                self._record((time, KIND_EXPIRED, msg_id, node.node_id, None, None))

    def _on_transfer_complete(self, time: float, src: int, dst: int, row: int, flags: int) -> None:
        self._open -= 1
        m = self.rows[row]
        if m.expires_at <= time:
            self._record((time, KIND_ABORTED, m.id, src, dst, None))
            return
        self._receive(time, src, dst, m, delete_after=bool(flags))

    def _receive(self, time: float, src: int, dst: int, m: Message, delete_after: bool) -> None:
        receiver = self.nodes[dst]
        row = m.row
        if m.destination == dst:
            receiver.delivered.add(row)
            self._record((time, KIND_REPLICATED, m.id, src, dst, None))
            self._record((time, KIND_DELIVERED, m.id, src, dst, None))
        else:
            if row not in receiver.buffer:
                self._admit(time, receiver, m)
                self._record((time, KIND_REPLICATED, m.id, src, dst, None))
        if delete_after and row in self.nodes[src].buffer:
            self.nodes[src].remove(row)
            self._mark_departed(src, row)
            self._record((time, KIND_DELETED_COMMUNITY, m.id, src, None, None))

    def _admit(self, time: float, node: NodeRuntime, m: Message) -> None:
        # every message fits an empty buffer (checked at startup), so it is admitted
        node_id = node.node_id
        _, evicted = buffer_admit(node, m, self.cfg.drop_policy)
        outbound = self.outbound[node_id]
        for victim in evicted:
            # as `_mark_departed`: the senders of node_id's inbound directions
            # may offer the victim again at their next scan
            victim_row = victim.row
            for direction in outbound:
                direction.back.add(victim_row)
            self._record((time, KIND_DROPPED, victim.id, node_id, None, None))
        # Row `row` just entered node_id's buffer: mark it pending on each of
        # node_id's outbound directions whose receiver neither buffers it,
        # was delivered it, nor was sent it on this contact (should it leave
        # the receiver later, `_mark_departed` marks it then), and queue
        # every direction for a scan, even one with nothing marked: the rows
        # that `_mark_departed` marks wait for it. A row leaving a receiver
        # queues no scan, which keeps buffer churn from looping at one
        # instant; it waits as a pending row for the next scan of that
        # direction, which may copy it to the receiver again on this same
        # contact. Only rows in the direction's sent set stay suppressed
        # until the contact ends.
        row = m.row
        nodes, evals = self.nodes, self._evals
        for direction in outbound:
            receiver = nodes[direction.dst]
            if not (
                row in receiver.buffer or row in receiver.delivered or row in direction.sent
            ):
                direction.pending.add(row)
            if not direction.queued:
                direction.queued = True
                evals.append(direction)

    def _on_contact_end(self, time: float, index: int) -> None:
        oc = self.ongoing.pop(index)
        ev = oc.event
        for direction in oc.directions:
            self.outbound[direction.src].remove(direction)
            direction.alive = False
        self._open -= len(oc.aborts)
        for src, dst, row in oc.aborts:
            self._record((time, KIND_ABORTED, self.rows[row].id, src, dst, None))
        if self.ledger is not None:
            start, end = ev.start - self.epoch, ev.end - self.epoch
            for lin, duration in split_contact_by_samples(start, end, self.cfg.sample.sample_length):
                self.ledger.record_contact_fragment(ev.node_a, ev.node_b, lin, duration)
        if self.meetings is not None:
            self.pair_seconds[ev.pair] = self.pair_seconds.get(ev.pair, 0.0) + ev.duration
            self.meetings.add(ev)

    def _on_roll(self, boundary_index: int) -> None:
        self._push_boundary(_PRI_ROLL, boundary_index + 1)
        self.ledger.roll_sample()
        for oc in self.ongoing.values():
            self.ledger.mark_met(oc.event.node_a, oc.event.node_b)

    def _on_recompute(self, time: float, n: int) -> None:
        # contact ends sort before a recompute at the same instant, so the
        # history holds exactly the contacts ended by `time`
        self._push_boundary(_PRI_RECOMPUTE, n + 1)
        self._recomputes = n
        graph = build_familiar_graph(self.pair_seconds, self.cfg.familiar_threshold)
        self.communities = k_clique_communities(graph, self.cfg.k)
        self.centralities = self.meetings.centrality(self.communities, time)

    def _on_create(self, time: float, row: int) -> None:
        m = self.rows[row]
        self._admit(time, self.nodes[m.source], m)
        self._record((time, KIND_CREATED, m.id, m.source, m.destination, m.size))
        # the expiry takes the creation's place among the open events
        self._push(m.expires_at, _PRI_EXPIRE, 0, 0, row)

    def _on_contact_start(self, time: float, index: int) -> None:
        ev = self.cfg.trace.events[index]
        oc = _OngoingContact(index, ev, time)
        self.ongoing[index] = oc
        self._push(ev.end, _PRI_CONTACT_END, ev.node_a, ev.node_b, -1, index)
        for direction in oc.directions:
            insort(self.outbound[direction.src], direction, key=_INDEX_KEY)
        a, b = ev.node_a, ev.node_b

        ledger = self.ledger
        if ledger is not None:
            ledger.meet(a, b)
            if self._charges_summaries:
                # 8 bytes per known peer: the nonzero entries of each weight row
                meta_bytes = 0
                for n in (a, b):
                    weights = ledger.weights_to_all_neighbors(n)
                    meta_bytes += 64 + 8 * (len(weights) - weights.count(0.0))
                oc.busy_until = time + meta_bytes * 8.0 / self.cfg.bandwidth

        for direction in oc.directions:
            self._evaluate_direction(direction, time)

    # -- decisions ---------------------------------------------------------

    def _mark_departed(self, node_id: int, row: int) -> None:
        # Row `row` left node_id's buffer by community deletion, so the
        # senders of node_id's inbound directions (the reverses of its
        # outbound ones) may offer it again at their next scan. `_admit`
        # marks its evictions itself, and expiry needs no mark: the row
        # leaves every buffer at once.
        for direction in self.outbound[node_id]:
            direction.back.add(row)

    def _drain_evals(self, time: float) -> None:
        evals = self._evals
        while evals:
            direction = evals.popleft()
            direction.queued = False
            if direction.alive:
                self._evaluate_direction(direction, time)

    def _evaluate_direction(self, direction: _Direction, time: float) -> None:
        # A row the last scan answered "no" can change its answer only when
        # it enters the sender or leaves the receiver (it is then pending)
        # or when the decision inputs change; a "yes" is in the sent set. So
        # with the same inputs as the last scan on this contact, only the
        # pending rows are looked at, and otherwise the whole buffer. Either
        # way one filter keeps the candidates, and the router sees only those.
        src, dst = direction.src, direction.dst
        sender = self.nodes[src]
        receiver = self.nodes[dst]
        ledger = self.ledger if self._reads_ledger else None
        if ledger is None:
            inputs = (self._recomputes,)
        else:
            sender_importance = ledger.importance(src)
            peer_importance = ledger.importance(dst)
            inputs = (self._recomputes, ledger.clock, peer_importance > sender_importance)
        if direction.inputs == inputs:
            rows = direction.pending
            if not rows:
                return
        else:
            direction.inputs = inputs
            rows = sender.buffer
        # the only candidate filter: rows the sender holds that the receiver
        # neither buffers nor was delivered, and that this contact has not
        # sent; filtered as ints, so only the candidates are sorted
        ours, theirs, delivered = sender.buffer, receiver.buffer, receiver.delivered
        sent = direction.sent
        rows = [
            r for r in rows
            if r in ours and r not in theirs and r not in delivered and r not in sent
        ]
        # rows this decision makes the receiver evict belong to the next scan
        direction.pending.clear()
        if not rows:
            return
        messages = sorted([ours[r] for r in rows], key=_ORDER_KEY)
        if ledger is None:
            sender_weights = peer_weights = _NO_WEIGHTS
            sender_importance = peer_importance = 0.0
        else:
            sender_weights = ledger.weights_to_all_neighbors(src)
            peer_weights = ledger.weights_to_all_neighbors(dst)
        carrier = CarrierState(src, messages, sender_weights, sender_importance)
        peer = PeerSummary(dst, peer_weights, peer_importance)
        decision = decide(self.cfg.router, carrier, peer, self.communities, self.centralities)
        if not decision.replicate:
            return
        self._apply_decision(direction, time, decision)

    def _apply_decision(self, direction: _Direction, time: float, decision: RouterDecision) -> None:
        # every offered row is committed to this contact: done, in flight, or
        # aborted because the link is saturated, which is not retried
        replicate, delete_after = decision
        direction.sent.update(replicate)
        src, dst = direction.src, direction.dst
        rows = self.rows
        if self.cfg.bandwidth is None:
            for row in replicate:
                self._receive(time, src, dst, rows[row], row in delete_after)
            return
        oc = self.ongoing[direction.index]
        delete_rows = set(delete_after)
        msgs = [rows[row] for row in replicate]
        completed, aborted = transfer_within_contact(
            oc.event, msgs, self.cfg.bandwidth, start=max(time, oc.busy_until)
        )
        for m, done in completed:
            oc.busy_until = done
            self._push(done, _PRI_TRANSFER, src, dst, m.row, int(m.row in delete_rows))
        oc.aborts.extend((src, dst, m.row) for m in aborted)
        self._open += len(completed) + len(aborted)


def run_simulation(cfg: SimConfig) -> EventLog:
    """Execute one run and return its event log (deterministic for fixed cfg)."""
    return Simulation(cfg).run()

"""Deterministic discrete-event engine: replays a contact trace, maintains
per-node buffers and (for the runs that read it) the social ledger, invokes
a routing policy at contact opportunities, and emits an ordered event log."""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from types import MappingProxyType
from typing import Iterator, NamedTuple, Sequence

from .contacts import ContactEvent, ContactTrace, SampleConfig, split_contact_by_samples
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
# records per piece of `EventLog.csv_chunks`: a writer holds one piece of the
# text at a time, not the whole log's
CSV_CHUNK_RECORDS = 8192

DROP_POLICIES = ("oldest_first", "newest_first")

# what routers outside LEDGER_ROUTERS get instead of ledger reads
_NO_WEIGHTS = MappingProxyType({})

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


class SimStartupError(ValueError):
    """Configuration inconsistency detected before the run starts. `field`
    names the `SimConfig` field at fault and `reason` says what is wrong with
    it; `field` is None for a check that needs the trace or the workload."""

    def __init__(self, reason: str, field: str | None = None):
        super().__init__(reason if field is None else f"{field} {reason}")
        self.field = field
        self.reason = reason


class LogRecord(NamedTuple):
    """The field names of an event-log record. The engine logs plain tuples
    in this order; `LogRecord._make(r)` names the fields of one."""

    time: float
    kind: str
    msg: str
    node: int
    peer: int | None = None
    size: int | None = None


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
        rows of up to `chunk_records` records at a time. An absent peer or
        size is an empty field."""
        yield EVENT_LOG_CSV_HEADER + "\n"
        records = self.records
        # simultaneous records share the engine's time object, so each time
        # object is formatted once per run of them; keyed by identity, as
        # equal times (0.0 and -0.0, 1 and 1.0) may differ in `repr`
        last, stamp = object(), ""
        for start in range(0, len(records), chunk_records):
            lines = []
            append = lines.append
            for t, k, m, n, p, s in records[start:start + chunk_records]:
                if t is not last:
                    last, stamp = t, repr(t)
                append(f'{stamp},{k},{m},{n},{"" if p is None else p},{"" if s is None else s}\n')
            yield "".join(lines)

    def to_csv(self) -> str:
        """The whole CSV text: the chunks joined."""
        return "".join(self.csv_chunks())


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs; the engine itself draws no randomness.

    Building one checks every setting that does not need the trace or the
    workload, so a config that exists is valid up to its inputs (those are
    checked when a `Simulation` is built)."""

    trace: ContactTrace = field(default_factory=lambda: ContactTrace([], 0, 0.0))
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
            raise SimStartupError(
                f"{self.router!r} is unknown (valid: {', '.join(ROUTER_NAMES)})", "router"
            )
        for name in ("ttl", "familiar_threshold", "centrality_window", "recompute_interval"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise SimStartupError(f"must be finite and > 0, got {value}", name)
        if not self.buffer_capacity > 0:
            raise SimStartupError(f"must be > 0, got {self.buffer_capacity}", "buffer_capacity")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise SimStartupError(
                f"must be > 0 or None for unlimited, got {self.bandwidth}", "bandwidth"
            )
        if not self.k >= 3:
            raise SimStartupError(f"must be >= 3, got {self.k}", "k")
        if not 0.0 <= self.damping <= 1.0:
            raise SimStartupError(f"must be in [0, 1], got {self.damping}", "damping")
        if self.epoch is not None and not math.isfinite(self.epoch):
            raise SimStartupError(f"must be finite or None, got {self.epoch}", "epoch")
        if self.drop_policy not in DROP_POLICIES:
            raise SimStartupError(
                f"{self.drop_policy!r} is unknown (valid: {', '.join(DROP_POLICIES)})",
                "drop_policy",
            )


class NodeRuntime:
    """One simulated node's bounded buffer, keyed by workload row.

    The buffer keeps two records of the same messages: `buffer`, row to
    message, which says what the node holds (decisions filter it, and an
    expiry asks every node's in node-id order), and `ordered`, in
    `Message.order_key` order as messages come and go, so eviction takes an
    end of it.
    """

    def __init__(self, node_id: int, capacity: int):
        self.node_id = node_id
        self.capacity = capacity
        self.buffer: dict[int, Message] = {}
        self.ordered: list[Message] = []
        self.occupancy = 0
        # rows of the messages this node received as final recipient; the
        # candidate filter reads it so carriers do not replicate them again
        self.delivered: set[int] = set()

    def add(self, m: Message) -> None:
        if m.row in self.buffer:
            raise ValueError(f"duplicate message {m.id} in buffer of node {self.node_id}")
        self.buffer[m.row] = m
        insort(self.ordered, m, key=_ORDER_KEY)
        self.occupancy += m.size

    def remove(self, row: int) -> Message:
        m = self.buffer.pop(row)
        del self.ordered[bisect_left(self.ordered, m.order_key, key=_ORDER_KEY)]
        self.occupancy -= m.size
        return m

    def evict(self, newest: bool) -> Message:
        """Remove and return the oldest (or the newest) buffered message."""
        m = self.ordered.pop(-1 if newest else 0)
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
    since its last scan."""

    __slots__ = ("contact", "index", "src", "dst", "reverse", "queued", "sent", "inputs", "pending")

    def __init__(self, contact: _OngoingContact, index: int, src: int, dst: int):
        # `contact` and `reverse` (the contact's other direction) are cleared
        # when the contact ends: that marks a queued direction dead, and
        # leaves no reference cycle behind
        self.contact: _OngoingContact | None = contact
        self.index = index  # contact index: the order of a node's outbound directions
        self.src = src
        self.dst = dst
        self.reverse: _Direction | None = None
        self.queued = False  # in the scan queue
        # rows committed to this contact (done, in flight, or abandoned)
        self.sent: set[int] = set()
        # the decision inputs of the last scan; None until the first one
        self.inputs: tuple | None = None
        # rows that entered the sender, or left the receiver by eviction or
        # community deletion, since the last scan: the only rows whose
        # answer can have changed while the inputs stay the same
        self.pending: set[int] = set()


class _OngoingContact:
    """Book-keeping for a contact that is currently up."""

    def __init__(self, index: int, event: ContactEvent, busy_until: float):
        self.event = event
        self.busy_until = busy_until
        a, b = event.node_a, event.node_b
        ab, ba = _Direction(self, index, a, b), _Direction(self, index, b, a)
        ab.reverse, ba.reverse = ba, ab
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
        self._recomputes = 0  # a decision input: each recompute may change every answer
        # the contact history that the community recompute reads, kept (as
        # contacts end) only for the routers that recompute
        self.pair_seconds: dict[tuple[int, int], float] = {}
        self.meetings = (
            WindowMeetings(cfg.centrality_window, self.epoch)
            if cfg.router in COMMUNITY_ROUTERS
            else None
        )
        self.horizon = max(
            [cfg.trace.duration] + [m.expires_at for m in self.rows] + [self.epoch]
        )
        # no decision reads the ledger after the last contact ends, so the
        # run rolls it only that far (`final_ledger` rolls on to the horizon)
        self._last_end = max((ev.end for ev in cfg.trace.events), default=self.epoch)
        self._rolls_until = min(self.horizon, self._last_end)
        self._heap: list[tuple] = []
        self._evals: deque[_Direction] = deque()

    def _validate(self) -> None:
        # the settings were checked when the SimConfig was built; these
        # checks need the trace or the workload
        cfg = self.cfg
        trace = cfg.trace
        for index, ev in enumerate(trace.events):
            if not (math.isfinite(ev.start) and math.isfinite(ev.end)):
                raise SimStartupError(
                    f"contact {index}: times must be finite, got [{ev.start}, {ev.end}]"
                )
        if not math.isfinite(trace.duration):
            raise SimStartupError(f"trace duration must be finite, got {trace.duration}")
        n = trace.node_count
        for row, entry in enumerate(cfg.workload):
            # also rejects an expiry that overflows to inf
            if not math.isfinite(entry.created_at + cfg.ttl):
                raise SimStartupError(
                    f"workload row {row}: created_at {entry.created_at} gives no finite expiry"
                )
            for end in (entry.source, entry.destination):
                if not 0 <= end < n:
                    raise SimStartupError(
                        f"workload row {row}: node {end} outside trace range 0..{n - 1}"
                    )
            if entry.source == entry.destination:
                raise SimStartupError(
                    f"workload row {row}: source and destination are both node {entry.source}"
                )
            if entry.size <= 0:
                raise SimStartupError(f"workload row {row}: size {entry.size} must be > 0")
            if entry.size > cfg.buffer_capacity:
                raise SimStartupError(
                    f"workload row {row}: size {entry.size} exceeds buffer capacity"
                )

    def _resolve_epoch(self) -> float:
        cfg = self.cfg
        epoch = run_epoch(cfg.epoch, cfg.trace, cfg.sample)
        if cfg.trace.events and cfg.trace.events[0].start < epoch:
            raise SimStartupError("epoch must not be after the first contact")
        for row, entry in enumerate(cfg.workload):
            if entry.created_at < epoch:
                raise SimStartupError(f"workload row {row}: created before epoch {epoch}")
        return epoch

    # -- event queue ------------------------------------------------------

    def _push(self, time: float, pri: int, a: int, b: int, row: int, extra: int = 0) -> None:
        # `row` is the message's workload row (-1 for entries of no message),
        # so simultaneous events break ties in row order at any message count
        heapq.heappush(self._heap, (time, pri, a, b, row, extra))

    def _seed_events(self) -> None:
        cfg = self.cfg
        for idx, ev in enumerate(cfg.trace.events):
            self._push(ev.start, _PRI_CONTACT_START, ev.node_a, ev.node_b, -1, idx)
            self._push(ev.end, _PRI_CONTACT_END, ev.node_a, ev.node_b, -1, idx)
        for m in self.rows:
            self._push(m.created_at, _PRI_CREATE, m.source, m.destination, m.row)
        if self.ledger is not None:
            self._push_boundary(_PRI_ROLL, 1)
        if self.meetings is not None:
            self._push_boundary(_PRI_RECOMPUTE, 1)

    def _push_boundary(self, pri: int, n: int) -> None:
        # The n-th roll or recompute, if it falls within its limit. Each
        # handler pushes its successor, so the heap holds one of each at a
        # time, however far the horizon lies.
        cfg = self.cfg
        if pri == _PRI_ROLL:
            length, limit = cfg.sample.sample_length, self._rolls_until
        else:
            length, limit = cfg.recompute_interval, self.horizon
            if self.epoch + n * length > self._last_end:
                # no contact is up after the last one ends, so no decision
                # reads a later recompute: skip to the last one, whose
                # communities and centralities the run leaves behind
                last = int((limit - self.epoch) // length) + 1
                while last > n and self.epoch + last * length > limit:
                    last -= 1
                n = max(n, last)
        if self.epoch + n * length <= limit:
            self._push(self.epoch + n * length, pri, -1, -1, -1, n)

    def run(self) -> EventLog:
        self._seed_events()
        heap = self._heap
        while heap:
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
        return self.log

    def final_ledger(self) -> SocialLedger:
        """The ledger as of the horizon, after `run`: this makes the rolls
        that the run leaves out after the last contact end."""
        if self.ledger is None:
            raise ValueError(f"a {self.cfg.router} run keeps no ledger unless keep_ledger is set")
        length = self.cfg.sample.sample_length
        while self.epoch + (self.ledger.clock + 1) * length <= self.horizon:
            self.ledger.roll_sample()
        return self.ledger

    # -- handlers ----------------------------------------------------------

    def _on_expire(self, time: float, row: int) -> None:
        # In-flight transfers of the expired message abort at their completion
        # event; expiries are processed first among simultaneous events, so the
        # message can never move at or after this instant. Each buffer is
        # asked in node-id order, so its expiries are logged in that order.
        msg_id = self.rows[row].id
        for node in self.nodes:
            if row in node.buffer:
                node.remove(row)
                self._record((time, KIND_EXPIRED, msg_id, node.node_id, None, None))

    def _on_transfer_complete(self, time: float, src: int, dst: int, row: int, flags: int) -> None:
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
        for victim in evicted:
            self._mark_departed(node_id, victim.row)
            self._record((time, KIND_DROPPED, victim.id, node_id, None, None))
        self._queue_evals(node_id, m.row)

    def _on_contact_end(self, time: float, index: int) -> None:
        oc = self.ongoing.pop(index)
        ev = oc.event
        for direction in oc.directions:
            self.outbound[direction.src].remove(direction)
            direction.contact = direction.reverse = None
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
        self._recomputes += 1
        graph = build_familiar_graph(self.pair_seconds, self.cfg.familiar_threshold)
        self.communities = k_clique_communities(graph, self.cfg.k)
        self.centralities = self.meetings.centrality(self.communities, time)

    def _on_create(self, time: float, row: int) -> None:
        m = self.rows[row]
        self._admit(time, self.nodes[m.source], m)
        self._record((time, KIND_CREATED, m.id, m.source, m.destination, m.size))
        self._push(m.expires_at, _PRI_EXPIRE, 0, 0, row)

    def _on_contact_start(self, time: float, index: int) -> None:
        ev = self.cfg.trace.events[index]
        oc = _OngoingContact(index, ev, time)
        self.ongoing[index] = oc
        for direction in oc.directions:
            insort(self.outbound[direction.src], direction, key=_INDEX_KEY)
        a, b = ev.node_a, ev.node_b

        ledger = self.ledger
        if ledger is not None:
            ledger.meet(a, b)
            if self._charges_summaries:
                meta_bytes = sum(64 + 8 * len(ledger.weights_to_all_neighbors(n)) for n in (a, b))
                oc.busy_until = time + meta_bytes * 8.0 / self.cfg.bandwidth

        for direction in oc.directions:
            self._evaluate_direction(direction, time)

    # -- decisions ---------------------------------------------------------

    def _queue_evals(self, node_id: int, row: int) -> None:
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
        nodes = self.nodes
        for direction in self.outbound[node_id]:
            receiver = nodes[direction.dst]
            if not (
                row in receiver.buffer or row in receiver.delivered or row in direction.sent
            ):
                direction.pending.add(row)
            if not direction.queued:
                direction.queued = True
                self._evals.append(direction)

    def _mark_departed(self, node_id: int, row: int) -> None:
        # Row `row` left node_id's buffer, so the senders of node_id's
        # inbound directions (the reverses of its outbound ones) may offer it
        # again at their next scan. Expiry needs no mark: the row leaves
        # every buffer at once.
        for direction in self.outbound[node_id]:
            direction.reverse.pending.add(row)

    def _drain_evals(self, time: float) -> None:
        evals = self._evals
        while evals:
            direction = evals.popleft()
            direction.queued = False
            if direction.contact is not None:
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
        else:
            direction.inputs = inputs
            rows = sender.buffer
        # rows this decision makes the receiver evict belong to the next scan
        direction.pending = set()
        # the only candidate filter: rows the sender holds that the receiver
        # neither buffers nor was delivered, and that this contact has not
        # sent; filtered as ints, so only the candidates are sorted
        ours, theirs, delivered = sender.buffer, receiver.buffer, receiver.delivered
        sent = direction.sent
        rows = [
            r for r in rows
            if r in ours and r not in theirs and r not in delivered and r not in sent
        ]
        if not rows:
            return
        messages = sorted([ours[r] for r in rows], key=_ORDER_KEY)
        if ledger is None:
            sender_weights = peer_weights = _NO_WEIGHTS
            sender_importance = peer_importance = 0.0
        else:
            sender_weights = ledger.weights_to_all_neighbors(src)
            peer_weights = ledger.weights_to_all_neighbors(dst)
        carrier = CarrierState(
            node_id=src,
            messages=messages,
            weights=sender_weights,
            importance=sender_importance,
        )
        peer = PeerSummary(node_id=dst, weights=peer_weights, importance=peer_importance)
        decision = decide(self.cfg.router, carrier, peer, self.communities, self.centralities)
        if not decision.replicate:
            return
        self._apply_decision(direction, time, decision)

    def _apply_decision(self, direction: _Direction, time: float, decision: RouterDecision) -> None:
        # every offered row is committed to this contact: done, in flight, or
        # aborted because the link is saturated, which is not retried
        direction.sent.update(decision.replicate)
        src, dst, oc = direction.src, direction.dst, direction.contact
        delete_rows = set(decision.delete_after)
        msgs = [self.rows[row] for row in decision.replicate]
        if self.cfg.bandwidth is None:
            for m in msgs:
                self._receive(time, src, dst, m, delete_after=m.row in delete_rows)
            return
        completed, aborted = transfer_within_contact(
            oc.event, msgs, self.cfg.bandwidth, start=max(time, oc.busy_until)
        )
        for m, done in completed:
            oc.busy_until = done
            self._push(done, _PRI_TRANSFER, src, dst, m.row, int(m.row in delete_rows))
        oc.aborts.extend((src, dst, m.row) for m in aborted)


def run_simulation(cfg: SimConfig) -> EventLog:
    """Execute one run and return its event log (deterministic for fixed cfg)."""
    return Simulation(cfg).run()

"""Deterministic discrete-event engine: replays a contact trace, maintains
per-node ledgers and buffers, invokes a routing policy at contact
opportunities, and emits an ordered event log."""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from types import MappingProxyType
from typing import NamedTuple, Sequence

from .contacts import (
    ContactEvent,
    ContactTrace,
    SampleConfig,
    slot_from_linear,
    split_contact_by_samples,
)
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

DROP_POLICIES = ("oldest_first", "newest_first")

# what routers outside LEDGER_ROUTERS get instead of ledger reads
_NO_WEIGHTS = MappingProxyType({})

_ORDER_KEY = attrgetter("order_key")


class SimStartupError(ValueError):
    """Configuration inconsistency detected before the run starts. `field`
    names the `SimConfig` field at fault and `reason` says what is wrong with
    it; `field` is None for a check that needs the trace or the workload."""

    def __init__(self, reason: str, field: str | None = None):
        super().__init__(reason if field is None else f"{field} {reason}")
        self.field = field
        self.reason = reason


class LogRecord(NamedTuple):
    time: float
    kind: str
    msg: str
    node: int
    peer: int | None = None
    size: int | None = None


@dataclass
class EventLog:
    """Ordered record of everything that happened to messages in one run."""

    records: list[LogRecord] = field(default_factory=list)

    def append(self, record: LogRecord) -> None:
        self.records.append(record)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def to_ndjson(self) -> str:
        """One compact JSON object per record, as `json.dumps` writes it with
        `separators=(",", ":")`: times in `repr`, ids ASCII-escaped, an
        absent peer or size as `null`."""
        esc = encode_basestring_ascii
        return "".join([
            f'{{"time":{t!r},"kind":{esc(k)},"msg":{esc(m)},"node":{n},'
            f'"peer":{"null" if p is None else p},"size":{"null" if s is None else s}}}\n'
            for t, k, m, n, p, s in self.records
        ])

    def to_csv(self) -> str:
        """`EVENT_LOG_CSV_HEADER` and one row per record; an absent peer or
        size is an empty field."""
        rows = [
            f'{t!r},{k},{m},{n},{"" if p is None else p},{"" if s is None else s}\n'
            for t, k, m, n, p, s in self.records
        ]
        return EVENT_LOG_CSV_HEADER + "\n" + "".join(rows)


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
    seed: int | None = None  # provenance only

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
    """One simulated node: its bounded buffer and its social ledger.

    The buffer is kept in `Message.order_key` order as messages come and go,
    so eviction takes an end of it and `messages_by_creation` never sorts.
    """

    def __init__(self, node_id: int, capacity: int, ledger: SocialLedger):
        self.node_id = node_id
        self.capacity = capacity
        self.ledger = ledger
        self.buffer: dict[str, Message] = {}
        self.occupancy = 0
        # messages this node received as final recipient; advertised in its
        # summary so carriers do not replicate them again
        self.delivered_ids: set[str] = set()
        self._ordered: list[Message] = []  # the buffer, ascending order_key
        self._snapshot: tuple[Message, ...] | None = None

    def holds(self, msg_id: str) -> bool:
        return msg_id in self.buffer

    def add(self, m: Message) -> None:
        if m.id in self.buffer:
            raise ValueError(f"duplicate message {m.id} in buffer of node {self.node_id}")
        self.buffer[m.id] = m
        insort(self._ordered, m, key=_ORDER_KEY)
        self.occupancy += m.size
        self._snapshot = None

    def remove(self, msg_id: str) -> Message:
        m = self.buffer.pop(msg_id)
        del self._ordered[bisect_left(self._ordered, m.order_key, key=_ORDER_KEY)]
        self.occupancy -= m.size
        self._snapshot = None
        return m

    def evict(self, newest: bool) -> Message:
        """Remove and return the oldest (or the newest) buffered message."""
        m = self._ordered.pop(-1 if newest else 0)
        del self.buffer[m.id]
        self.occupancy -= m.size
        self._snapshot = None
        return m

    def messages_by_creation(self) -> tuple[Message, ...]:
        if self._snapshot is None:
            self._snapshot = tuple(self._ordered)
        return self._snapshot


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


class _OngoingContact:
    """Book-keeping for a contact that is currently up."""

    def __init__(self, event: ContactEvent, index: int):
        self.event = event
        self.index = index
        self.busy_until = event.start
        a, b = event.node_a, event.node_b
        # per direction: ids committed to this contact (done, in flight, or abandoned)
        self.sent: dict[tuple[int, int], set[str]] = {(a, b): set(), (b, a): set()}
        self.aborts: list[tuple[int, int, str]] = []  # (from, to, msg id), logged at contact end


def _already_held(sender: NodeRuntime, receiver: NodeRuntime, sent: set[str]) -> set[str]:
    """The sender's message ids that the receiver buffers, was delivered, or
    was sent on this contact. A decision asks only about the sender's
    messages, and intersecting with their few ids costs less than a union of
    the receiver's whole buffer and delivery history."""
    offered = sender.buffer.keys()
    held = offered & receiver.buffer.keys()
    held |= offered & receiver.delivered_ids
    held |= offered & sent
    return held


class Simulation:
    """One deterministic run over a trace and a workload."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self._validate()
        self.epoch = self._resolve_epoch()
        n = cfg.trace.node_count
        self.nodes = [
            NodeRuntime(i, cfg.buffer_capacity, SocialLedger(i, n, cfg.sample, cfg.damping))
            for i in range(n)
        ]
        # messages by workload row; heap entries name a message by its row
        self.rows = messages_from_workload(cfg.workload, cfg.ttl)
        self.messages = {m.id: m for m in self.rows}
        # per message row, the nodes whose buffer holds it (bit i: node i);
        # expiry visits only these. An int takes far less memory than a set.
        self.holders: list[int] = [0] * len(self.rows)
        self._reads_ledger = cfg.router in LEDGER_ROUTERS
        self.log = EventLog()
        self.ongoing: dict[int, _OngoingContact] = {}
        self.ongoing_by_node: dict[int, set[int]] = {i: set() for i in range(n)}
        self.communities = CommunityMap.empty()
        self.centralities = CentralityTable.empty(cfg.centrality_window)
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
        self._heap: list[tuple] = []
        self._evals: deque[tuple[int, int, int]] = deque()  # (contact index, src, dst)
        self._evals_pending: set[tuple[int, int, int]] = set()

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
            if entry.size > cfg.buffer_capacity:
                raise SimStartupError(
                    f"workload row {row}: size {entry.size} exceeds buffer capacity"
                )

    def _resolve_epoch(self) -> float:
        cfg = self.cfg
        if cfg.epoch is not None:
            epoch = float(cfg.epoch)
        elif cfg.trace.events:
            first = cfg.trace.events[0].start
            epoch = (first // cfg.sample.seconds_per_day) * cfg.sample.seconds_per_day
        else:
            epoch = 0.0
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
        self._push_boundary(_PRI_ROLL, 1)
        if self.meetings is not None:
            self._push_boundary(_PRI_RECOMPUTE, 1)

    def _push_boundary(self, pri: int, n: int) -> None:
        # The n-th roll or recompute, if it falls within the horizon. Each
        # handler pushes its successor, so the heap holds one of each at a
        # time, however far the horizon lies.
        cfg = self.cfg
        length = cfg.sample.sample_length if pri == _PRI_ROLL else cfg.recompute_interval
        if self.epoch + n * length <= self.horizon:
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

    # -- handlers ----------------------------------------------------------

    def _on_expire(self, time: float, row: int) -> None:
        # In-flight transfers of the expired message abort at their completion
        # event; expiries are processed first among simultaneous events, so the
        # message can never move at or after this instant.
        msg_id = self.rows[row].id
        holders = self.holders[row]
        self.holders[row] = 0
        while holders:  # lowest set bit first: ascending node id
            node_id = (holders & -holders).bit_length() - 1
            holders &= holders - 1
            self.nodes[node_id].remove(msg_id)
            self.log.append(LogRecord(time, KIND_EXPIRED, msg_id, node_id))

    def _on_transfer_complete(self, time: float, src: int, dst: int, row: int, flags: int) -> None:
        m = self.rows[row]
        if m.expires_at <= time:
            self.log.append(LogRecord(time, KIND_ABORTED, m.id, src, dst))
            return
        self._receive(time, src, dst, m, delete_after=bool(flags))

    def _receive(self, time: float, src: int, dst: int, m: Message, delete_after: bool) -> None:
        receiver = self.nodes[dst]
        if m.destination == dst:
            receiver.delivered_ids.add(m.id)
            self.log.append(LogRecord(time, KIND_REPLICATED, m.id, src, dst))
            self.log.append(LogRecord(time, KIND_DELIVERED, m.id, src, dst))
        else:
            if not receiver.holds(m.id):
                self._admit(time, receiver, m)
                self.log.append(LogRecord(time, KIND_REPLICATED, m.id, src, dst))
                self._queue_evals(dst)
        if delete_after and self.nodes[src].holds(m.id):
            self.nodes[src].remove(m.id)
            self.holders[m.row] &= ~(1 << src)
            self.log.append(LogRecord(time, KIND_DELETED_COMMUNITY, m.id, src))

    def _admit(self, time: float, node: NodeRuntime, m: Message) -> None:
        # every message fits an empty buffer (checked at startup), so it is admitted
        _, evicted = buffer_admit(node, m, self.cfg.drop_policy)
        for victim in evicted:
            self.holders[victim.row] &= ~(1 << node.node_id)
            self.log.append(LogRecord(time, KIND_DROPPED, victim.id, node.node_id))
        self.holders[m.row] |= 1 << node.node_id

    def _on_contact_end(self, time: float, index: int) -> None:
        oc = self.ongoing.pop(index)
        ev = oc.event
        self.ongoing_by_node[ev.node_a].discard(index)
        self.ongoing_by_node[ev.node_b].discard(index)
        for src, dst, msg_id in oc.aborts:
            self.log.append(LogRecord(time, KIND_ABORTED, msg_id, src, dst))
        rebased = ContactEvent(ev.node_a, ev.node_b, ev.start - self.epoch, ev.end - self.epoch)
        for slot, duration in split_contact_by_samples(rebased, self.cfg.sample):
            self.nodes[ev.node_a].ledger.record_contact_fragment(ev.node_b, slot, duration)
            self.nodes[ev.node_b].ledger.record_contact_fragment(ev.node_a, slot, duration)
        if self.meetings is not None:
            self.pair_seconds[ev.pair] = self.pair_seconds.get(ev.pair, 0.0) + ev.duration
            self.meetings.add(ev)

    def _on_roll(self, boundary_index: int) -> None:
        self._push_boundary(_PRI_ROLL, boundary_index + 1)
        finished = slot_from_linear(boundary_index - 1, self.cfg.sample)
        for node in self.nodes:
            node.ledger.roll_sample(finished)
        for oc in self.ongoing.values():
            ev = oc.event
            self.nodes[ev.node_a].ledger.mark_peer_seen(ev.node_b)
            self.nodes[ev.node_b].ledger.mark_peer_seen(ev.node_a)

    def _on_recompute(self, time: float, n: int) -> None:
        # contact ends sort before a recompute at the same instant, so the
        # history holds exactly the contacts ended by `time`
        self._push_boundary(_PRI_RECOMPUTE, n + 1)
        graph = build_familiar_graph(self.pair_seconds, self.cfg.familiar_threshold)
        self.communities = k_clique_communities(graph, self.cfg.k)
        self.centralities = self.meetings.centrality(self.communities, time)

    def _on_create(self, time: float, row: int) -> None:
        m = self.rows[row]
        self._admit(time, self.nodes[m.source], m)
        self.log.append(LogRecord(time, KIND_CREATED, m.id, m.source, m.destination, m.size))
        self._push(m.expires_at, _PRI_EXPIRE, 0, 0, row)
        self._queue_evals(m.source)

    def _on_contact_start(self, time: float, index: int) -> None:
        ev = self.cfg.trace.events[index]
        oc = _OngoingContact(ev, index)
        oc.busy_until = time
        self.ongoing[index] = oc
        a, b = ev.node_a, ev.node_b
        self.ongoing_by_node[a].add(index)
        self.ongoing_by_node[b].add(index)

        la, lb = self.nodes[a].ledger, self.nodes[b].ledger
        la.mark_peer_seen(b)
        lb.mark_peer_seen(a)
        # Opportunistic importance exchange: both sides recompute from cached
        # values, then cache each other's fresh result.
        ia = la.update_importance()
        ib = lb.update_importance()
        la.record_peer_importance(b, ib)
        lb.record_peer_importance(a, ia)

        if self.cfg.charge_summaries and self.cfg.bandwidth is not None:
            meta_bytes = sum(
                64 + 8 * len(self.nodes[n].ledger.weights_to_all_neighbors()) for n in (a, b)
            )
            oc.busy_until = time + meta_bytes * 8.0 / self.cfg.bandwidth

        self._evaluate_contact(index, time)

    # -- decisions ---------------------------------------------------------

    def _queue_evals(self, node_id: int) -> None:
        # A message just entered node_id's buffer, so re-evaluate node_id's
        # outbound directions. Inbound directions are not re-run: their only
        # possible gain is re-sending a message the receiver just evicted,
        # which (like the per-contact sent set) is suppressed until the next
        # contact to keep buffer churn from looping at one instant.
        for index in sorted(self.ongoing_by_node[node_id]):
            ev = self.ongoing[index].event
            other = ev.node_b if ev.node_a == node_id else ev.node_a
            key = (index, node_id, other)
            if key not in self._evals_pending:
                self._evals_pending.add(key)
                self._evals.append(key)

    def _drain_evals(self, time: float) -> None:
        while self._evals:
            key = self._evals.popleft()
            self._evals_pending.discard(key)
            index, src, dst = key
            if index in self.ongoing:
                self._evaluate_direction(self.ongoing[index], src, dst, time)

    def _evaluate_contact(self, index: int, time: float) -> None:
        oc = self.ongoing[index]
        a, b = oc.event.node_a, oc.event.node_b
        self._evaluate_direction(oc, a, b, time)
        self._evaluate_direction(oc, b, a, time)

    def _evaluate_direction(self, oc: _OngoingContact, src: int, dst: int, time: float) -> None:
        sender = self.nodes[src]
        if not sender.buffer:
            return
        receiver = self.nodes[dst]
        if self._reads_ledger:
            sender_weights = sender.ledger.weights_to_all_neighbors()
            sender_importance = sender.ledger.importance()
            peer_weights = receiver.ledger.weights_to_all_neighbors()
            peer_importance = receiver.ledger.importance()
        else:
            sender_weights = peer_weights = _NO_WEIGHTS
            sender_importance = peer_importance = 0.0
        carrier = CarrierState(
            node_id=src,
            messages=sender.messages_by_creation(),
            weights=sender_weights,
            importance=sender_importance,
        )
        peer = PeerSummary(
            node_id=dst,
            weights=peer_weights,
            importance=peer_importance,
            buffered=_already_held(sender, receiver, oc.sent[(src, dst)]),
        )
        decision = decide(self.cfg.router, carrier, peer, self.communities, self.centralities)
        if not decision.replicate:
            return
        self._apply_decision(oc, src, dst, time, decision)

    def _apply_decision(
        self, oc: _OngoingContact, src: int, dst: int, time: float, decision: RouterDecision
    ) -> None:
        delete_ids = set(decision.delete_after)
        msgs = [self.messages[mid] for mid in decision.replicate]
        sent = oc.sent[(src, dst)]
        if self.cfg.bandwidth is None:
            for m in msgs:
                sent.add(m.id)
                self._receive(time, src, dst, m, delete_after=m.id in delete_ids)
            return
        completed, aborted = transfer_within_contact(
            oc.event, msgs, self.cfg.bandwidth, start=max(time, oc.busy_until)
        )
        for m, done in completed:
            sent.add(m.id)
            oc.busy_until = done
            self._push(done, _PRI_TRANSFER, src, dst, m.row, int(m.id in delete_ids))
        for m in aborted:
            sent.add(m.id)  # the link is saturated for this contact; do not retry
            oc.aborts.append((src, dst, m.id))


def run_simulation(cfg: SimConfig) -> EventLog:
    """Execute one run and return its event log (deterministic for fixed cfg)."""
    return Simulation(cfg).run()

"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately re-derive results from first principles (literal formula
evaluation, exhaustive enumeration, log replay) so they share no code with
the implementation paths they check.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random

import numpy as np

from dtnsim import (
    CentralityTable,
    ContactEvent,
    ContactTrace,
    LedgerOrderingError,
    LogRecord,
    SampleConfig,
    Simulation,
    WindowMeetings,
)
from dtnsim.contacts import RelationActivity, RoutineSpec
from dtnsim.engine import (
    EVENT_LOG_CSV_HEADER,
    KIND_ABORTED,
    KIND_CREATED,
    KIND_DELETED_COMMUNITY,
    KIND_DELIVERED,
    KIND_DROPPED,
    KIND_EXPIRED,
    KIND_REPLICATED,
    _PRI_CONTACT_END,
)
from dtnsim.routing import LEDGER_ROUTERS, CarrierState, PeerSummary, decide


def cumulative_average(values):
    """Literal per-day cumulative moving average of a per-day series."""
    avg = 0.0
    for j, value in enumerate(values, start=1):
        avg = (value + (j - 1) * avg) / j
    return avg


def pair_weight(ad_row, start_sample, samples_per_day):
    """Literal decayed sum over one day of samples starting at start_sample."""
    t = samples_per_day
    return sum(
        t / (t + k - start_sample) * ad_row[k % t]
        for k in range(start_sample, start_sample + t)
    )


def node_importance(damping, neighbor_weights, neighbor_importances):
    """Literal damped importance from the current-sample neighbor set."""
    if not neighbor_weights:
        return 1.0 - damping
    total = sum(w * i for w, i in zip(neighbor_weights, neighbor_importances))
    return (1.0 - damping) + damping * total / len(neighbor_weights)


def split_by_day_and_sample(start, end, cfg):
    """Literal split of [start, end) into (linear slot, seconds) fragments:
    each fragment's slot is found as a day, then a sample within that day."""
    out = []
    cur = start
    while cur < end:
        day = int(cur // cfg.seconds_per_day)
        sample = int((cur - day * cfg.seconds_per_day) // cfg.sample_length)
        lin = day * cfg.samples_per_day + min(sample, cfg.samples_per_day - 1)
        upto = min(float((lin + 1) * cfg.sample_length), end)
        out.append((lin, upto - cur))
        cur = upto
    return out


def clique_percolation_bruteforce(adjacency, k):
    """Communities by enumerating every k-clique and flooding the
    share-(k-1)-nodes adjacency between them."""
    nodes = sorted(adjacency)
    kcliques = [
        frozenset(combo)
        for combo in itertools.combinations(nodes, k)
        if all(v in adjacency[u] for u, v in itertools.combinations(combo, 2))
    ]
    communities = []
    unused = set(range(len(kcliques)))
    while unused:
        start = min(unused)
        unused.remove(start)
        group = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for other in sorted(unused):
                if len(kcliques[cur] & kcliques[other]) == k - 1:
                    unused.remove(other)
                    group.add(other)
                    frontier.append(other)
        communities.append(frozenset(itertools.chain.from_iterable(kcliques[g] for g in group)))
    return set(communities)


def cumulative_window_centrality(contacts, window, communities, *, now, epoch=0.0):
    """`WindowMeetings.centrality` over the given contacts, all at once. Not
    an oracle: a batch helper for tests that check the engine's incremental
    path by examples and against `rescan_window_centrality`."""
    meetings = WindowMeetings(window, epoch)
    for ev in contacts:
        meetings.add(ev)
    return meetings.centrality(communities, now)


def rescan_window_centrality(contacts, window, communities, *, now, epoch=0.0):
    """Reference centrality table: rescan every contact given, clipping each
    to the windows elapsed by `now` (the engine's former path, which ran at
    every recompute over the whole contact history)."""
    if window <= 0:
        raise ValueError("window must be > 0")
    elapsed = now - epoch
    num_windows = max(1, math.ceil(elapsed / window)) if elapsed > 0 else 1

    met = {}  # (node, window index) -> peers
    for ev in contacts:
        first = int((ev.start - epoch) // window)
        last = int((ev.end - epoch) // window)
        if (ev.end - epoch) % window == 0:  # end is exclusive
            last -= 1
        last = min(last, num_windows - 1)
        for w in range(max(first, 0), last + 1):
            met.setdefault((ev.node_a, w), set()).add(ev.node_b)
            met.setdefault((ev.node_b, w), set()).add(ev.node_a)

    global_sum = {}
    local_sum = {}
    for (node, _w), peers in met.items():
        global_sum[node] = global_sum.get(node, 0) + len(peers)
        for cidx in communities.communities_of(node):
            members = communities.communities[cidx]
            n_local = len(peers & members)
            if n_local:
                key = (node, cidx)
                local_sum[key] = local_sum.get(key, 0) + n_local

    return CentralityTable(
        global_centrality={n: s / num_windows for n, s in global_sum.items()},
        local_centrality={k: s / num_windows for k, s in local_sum.items()},
        window=window,
        num_windows=num_windows,
    )


def earliest_delivery(events, source, destination, created_at, ttl):
    """Earliest space-time arrival of a message at its destination under
    flooding with unlimited resources, or None if unreachable within TTL.

    A contact [s, e) can pass the message at max(s, arrival_at_sender), and
    only strictly before both e and the expiry instant.
    """
    deadline = created_at + ttl
    arrival = {source: created_at}
    changed = True
    while changed:
        changed = False
        for ev in events:
            for u, v in ((ev.node_a, ev.node_b), (ev.node_b, ev.node_a)):
                if u not in arrival:
                    continue
                t = max(ev.start, arrival[u])
                if t < ev.end and t < deadline and t < arrival.get(v, math.inf):
                    arrival[v] = t
                    changed = True
    return arrival.get(destination)


class ReplayError(AssertionError):
    pass


def replay_log(log, capacity, node_count):
    """Replay an event log, checking buffer occupancy, causality, and replica
    conservation at every record. Returns summary counts."""
    buffers = {n: {} for n in range(node_count)}  # node -> msg id -> size
    occupancy = {n: 0 for n in range(node_count)}
    created = {}  # msg id -> (time, source, destination, size)
    ever_held = {n: set() for n in range(node_count)}
    delivered_first = {}
    replications = 0
    last_time = -math.inf

    def add(node, msg, size, time):
        if msg in buffers[node]:
            raise ReplayError(f"t={time}: duplicate copy of {msg} at node {node}")
        buffers[node][msg] = size
        occupancy[node] += size
        ever_held[node].add(msg)
        if occupancy[node] > capacity:
            raise ReplayError(f"t={time}: node {node} occupancy {occupancy[node]} > {capacity}")

    def remove(node, msg, time, why):
        if msg not in buffers[node]:
            raise ReplayError(f"t={time}: {why} of {msg} at node {node} which does not hold it")
        occupancy[node] -= buffers[node].pop(msg)

    for r in map(LogRecord._make, log):
        if r.time < last_time:
            raise ReplayError(f"log goes backwards at t={r.time}")
        last_time = r.time
        if r.kind == KIND_CREATED:
            if r.msg in created:
                raise ReplayError(f"duplicate creation of {r.msg}")
            created[r.msg] = (r.time, r.node, r.peer, r.size)
            add(r.node, r.msg, r.size, r.time)
        elif r.kind == KIND_REPLICATED:
            if r.msg not in created or created[r.msg][0] > r.time:
                raise ReplayError(f"replication of {r.msg} before creation")
            if r.msg not in ever_held[r.node]:
                raise ReplayError(f"t={r.time}: node {r.node} forwarded {r.msg} it never held")
            replications += 1
            destination = created[r.msg][2]
            if r.peer != destination:
                add(r.peer, r.msg, created[r.msg][3], r.time)
        elif r.kind == KIND_DELIVERED:
            if r.msg not in created or created[r.msg][0] > r.time:
                raise ReplayError(f"delivery of {r.msg} before creation")
            if r.peer != created[r.msg][2]:
                raise ReplayError(f"delivery of {r.msg} to non-destination {r.peer}")
            delivered_first.setdefault(r.msg, r.time)
        elif r.kind == KIND_DROPPED:
            remove(r.node, r.msg, r.time, "drop")
        elif r.kind == KIND_EXPIRED:
            remove(r.node, r.msg, r.time, "expiry")
            if r.time < created[r.msg][0] + 1e-12:
                raise ReplayError(f"expiry of {r.msg} at creation time or earlier")
        elif r.kind == KIND_DELETED_COMMUNITY:
            remove(r.node, r.msg, r.time, "community deletion")
        elif r.kind == KIND_ABORTED:
            if r.msg not in created:
                raise ReplayError(f"abort of unknown message {r.msg}")
        else:
            raise ReplayError(f"unknown record kind {r.kind}")

    for msg in delivered_first:
        if msg not in created:
            raise ReplayError(f"delivered message {msg} never created")
    return {
        "created": len(created),
        "delivered": len(delivered_first),
        "replications": replications,
        "delivered_first": delivered_first,
    }


class PerNodeLedger:
    """Reference model of the social ledger: the bookkeeping of one node
    alone, as the engine kept it per node before the shared table, with
    per-pair dot products for `tecd_weight` and a per-node matrix-vector
    product for `weights_to_all_neighbors`.

    Contact fragments accumulate per (peer, daily sample); at each sample
    boundary the finished sample is folded into a cumulative moving average
    over days (zero-contact days included, so stale pair strengths decay).
    Pair weights combine the averages of the next full day of samples with
    strictly decreasing coefficients. Node importance is a damped sum over
    the peers met in the current sample, weighted by pair weight and the
    peers' last exchanged importance values.
    """

    def __init__(self, owner: int, node_count: int, cfg: SampleConfig, damping: float = 0.8):
        if not 0.0 <= damping <= 1.0:
            raise ValueError("damping must be in [0, 1]")
        if not 0 <= owner < node_count:
            raise ValueError("owner must be a valid node id")
        self.owner = owner
        self.node_count = node_count
        self.cfg = cfg
        self.damping = float(damping)
        t = cfg.samples_per_day
        self._tct = np.zeros((node_count, t))
        self._ad = np.zeros((node_count, t))
        self._rolls = [0] * t  # completed days per sample index
        self._clock = 0  # linear index of the open slot
        self._neighbors: set[int] = set()
        # plain floats: the damped sums can grow without bound over long runs
        # and should saturate quietly at inf rather than warn
        self._importance = [1.0 - self.damping] * t
        self._peer_importance = [1.0 - self.damping] * node_count
        self._coeff = t / (t + np.arange(t, dtype=float))  # t/(t+j), j = 0..t-1
        self._weights_cache: tuple[int, dict[int, float]] | None = None

    @property
    def current_sample(self) -> int:
        return self._clock % self.cfg.samples_per_day

    def _check_peer(self, peer: int) -> None:
        if peer == self.owner:
            raise ValueError("a node has no social state toward itself")
        if not 0 <= peer < self.node_count:
            raise ValueError(f"peer {peer} out of range")

    def mark_peer_seen(self, peer: int) -> None:
        """Add a peer to the current-sample neighbor set (contact is up)."""
        self._check_peer(peer)
        self._neighbors.add(peer)

    def record_contact_fragment(self, peer: int, lin: int, duration: float) -> None:
        """Accumulate one contact fragment for the peer in linear slot `lin`.

        Fragments for the open slot or earlier are accepted; a fragment
        with a past slot simply joins that sample index's next fold. A
        future slot is an ordering error.
        """
        self._check_peer(peer)
        if duration <= 0:
            raise ValueError("fragment duration must be > 0")
        if lin > self._clock:
            raise LedgerOrderingError(f"fragment for future slot {lin} (clock at {self._clock})")
        self._tct[peer, lin % self.cfg.samples_per_day] += duration
        if lin == self._clock:
            self._neighbors.add(peer)

    def roll_sample(self) -> None:
        """Fold the open slot's sample into the per-day averages and open
        the next slot.

        Every peer's average for that sample index advances by one day,
        including peers with zero contact time.
        """
        i = self.current_sample
        j = self._rolls[i] + 1
        self._ad[:, i] = (self._tct[:, i] + (j - 1) * self._ad[:, i]) / j
        self._tct[:, i] = 0.0
        self._rolls[i] = j
        self._clock += 1
        self._neighbors.clear()
        self._weights_cache = None

    def neighbors_in_current_sample(self) -> frozenset[int]:
        return frozenset(self._neighbors)

    def tecd_weight(self, peer: int, sample_index: int | None = None) -> float:
        """Social strength toward a peer at the given sample (default: now).

        Sums the per-day averages of the next full day of samples, starting
        at the given one, scaled by strictly decreasing coefficients.
        Unknown peers weigh 0.
        """
        self._check_peer(peer)
        i = self.current_sample if sample_index is None else sample_index
        t = self.cfg.samples_per_day
        if not 0 <= i < t:
            raise ValueError(f"sample index {i} out of range")
        order = (i + np.arange(t)) % t
        return float(self._ad[peer, order] @ self._coeff)

    def weights_to_all_neighbors(self, sample_index: int | None = None) -> dict[int, float]:
        """Current weights toward every known peer (zero-weight peers omitted)."""
        i = self.current_sample if sample_index is None else sample_index
        cache_key = (self._clock, i)
        if self._weights_cache is not None and self._weights_cache[0] == cache_key:
            return self._weights_cache[1]
        t = self.cfg.samples_per_day
        order = (i + np.arange(t)) % t
        w = self._ad[:, order] @ self._coeff
        weights = {int(p): float(w[p]) for p in np.nonzero(w)[0] if p != self.owner}
        self._weights_cache = (cache_key, weights)
        return weights

    def record_peer_importance(self, peer: int, value: float) -> None:
        """Cache the importance a peer reported at contact time."""
        self._check_peer(peer)
        self._peer_importance[peer] = float(value)

    def update_importance(self, sample_index: int | None = None) -> float:
        """Recompute this node's importance for the given sample (default: now).

        Damped sum over the current-sample neighbor set of pair weight times
        the neighbor's cached importance, divided by the neighbor count.
        With no neighbors (or damping 0) this collapses to the base value.
        """
        i = self.current_sample if sample_index is None else sample_index
        base = 1.0 - self.damping
        n = len(self._neighbors)
        total = 0.0
        for peer in sorted(self._neighbors):
            w = self.tecd_weight(peer, i)
            if w > 0.0:  # zero-weight terms contribute nothing; also avoids 0 * inf
                total += w * self._peer_importance[peer]
        value = base + self.damping * (total / n) if n else base
        self._importance[i] = value
        return value

    def importance(self, sample_index: int | None = None) -> float:
        """Last computed importance for the given sample (default: now)."""
        i = self.current_sample if sample_index is None else sample_index
        return self._importance[i]


class MinScanBuffer:
    """Reference model of one node's bounded buffer: a plain dict whose
    eviction victim is found by a min (oldest_first) or max (newest_first)
    scan over (created_at, row) for every victim, with no kept order."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.buffer = {}  # row -> Message
        self.occupancy = 0

    def admit(self, m, drop_policy):
        """Returns (admitted, evicted messages in eviction order)."""
        if m.size > self.capacity:
            return False, []
        evicted = []
        pick = min if drop_policy == "oldest_first" else max
        while self.occupancy + m.size > self.capacity:
            victim = pick(self.buffer.values(), key=lambda v: (v.created_at, v.row))
            evicted.append(self.remove(victim.row))
        self.buffer[m.row] = m
        self.occupancy += m.size
        return True, evicted

    def remove(self, row):
        m = self.buffer.pop(row)
        self.occupancy -= m.size
        return m

    def messages_by_creation(self):
        return tuple(sorted(self.buffer.values(), key=lambda m: (m.created_at, m.row)))


def record_csv_row(r):
    """Reference CSV row of one log record, a tuple in `LogRecord` order."""
    time, kind, msg, node, peer, size = r
    peer = "" if peer is None else str(peer)
    size = "" if size is None else str(size)
    return f"{time!r},{kind},{msg},{node},{peer},{size}"


def event_log_csv(records):
    lines = [EVENT_LOG_CSV_HEADER]
    lines.extend(record_csv_row(r) for r in records)
    return "\n".join(lines) + "\n"


def split_at(records, cuts):
    """`records` cut into consecutive lists at the indices `cuts` (any
    order; a cut at 0 or at the end gives an empty first or last list)."""
    bounds = [0, *sorted(cuts), len(records)]
    return [list(records[a:b]) for a, b in zip(bounds, bounds[1:])]


def every_split(records):
    """Every way to cut `records` into consecutive non-empty lists."""
    inner = range(1, len(records))
    for keep in itertools.product((False, True), repeat=len(inner)):
        yield split_at(records, [i for i, cut in zip(inner, keep) if cut])


class FullScanSimulation(Simulation):
    """The engine with a decision path that keeps no state between scans:
    every scan walks the sender's whole buffer in creation order and offers
    the router each message that is not in the receiver's buffer, its
    deliveries or the contact's sent set. Equal event logs from this and
    `Simulation` show that looking only at the pending rows decides exactly
    as a full scan does."""

    def _evaluate_direction(self, direction, time):
        src, dst = direction.src, direction.dst
        sender = self.nodes[src]
        receiver = self.nodes[dst]
        sent = direction.sent
        candidates = [
            m for m in sender.ordered
            if m.row not in receiver.buffer and m.row not in receiver.delivered
            and m.row not in sent
        ]
        if not candidates:
            return
        if self.cfg.router in LEDGER_ROUTERS:
            ledger = self.ledger
            weights = ledger.weights_to_all_neighbors(src), ledger.weights_to_all_neighbors(dst)
            importance = ledger.importance(src), ledger.importance(dst)
        else:
            weights, importance = ((), ()), (0.0, 0.0)
        carrier = CarrierState(src, candidates, weights[0], importance[0])
        peer = PeerSummary(dst, weights[1], importance[1])
        decision = decide(self.cfg.router, carrier, peer, self.communities, self.centralities)
        if decision.replicate:
            self._apply_decision(direction, time, decision)


class EagerEndsSimulation(Simulation):
    """The engine with every contact's end pushed on the heap before the run
    starts, beside its start, instead of when the contact starts. Equal
    event logs from this and `Simulation` show that pushing an end late
    changes no event's order."""

    def _seed_events(self):
        super()._seed_events()
        for idx, ev in enumerate(self.cfg.trace.events):
            heapq.heappush(self._heap, (ev.end, _PRI_CONTACT_END, ev.node_a, ev.node_b, -1, idx))

    def _push(self, time, pri, a, b, row, extra=0):
        if pri != _PRI_CONTACT_END:  # every end is on the heap already
            super()._push(time, pri, a, b, row, extra)


class WholeHeapSimulation(Simulation):
    """The engine with a `run` that handles every event before it returns,
    the contacts, rolls and recomputes after the last one that can log
    included. Equal event logs and dumps from this and `Simulation` show
    that a run stopping once no event can log leaves out nothing that a log
    or a dump reads."""

    def run(self, sink=None):
        self._seed_events()
        self._play(sink, until_idle=False)
        return self.log


def weights_at_strided(ad, coeff, sample_index):
    """Every pair's weight at a sample, computed as `SocialLedger.weights_at`
    was when `ad` was stored pair-major, `(N, N, t)`: each node's block is
    gathered sample-major through a strided view of it."""
    t = ad.shape[2]
    order = (sample_index + np.arange(t)) % t
    return np.take(ad.transpose(0, 2, 1), order, axis=1).transpose(0, 2, 1) @ coeff


def neighbor_weight_dict(ledger, node):
    """The node's current weights in the form `weights_to_all_neighbors`
    once returned: `{peer: weight}` over the nonzero entries of the node's
    row of the slot's weight matrix, zero-weight peers left out."""
    row = ledger.weights_at(ledger.current_sample)[node].tolist()
    return {p: w for p, w in enumerate(row) if w}


def reference_routine_trace(spec: RoutineSpec, seed: int) -> ContactTrace:
    """Reference routine-trace generator: for every (day, sample, pair) it
    works out again which relations are active and whether the pair shares
    their group, then draws. `generate_routine_trace` must make the same
    draws in the same order, so both give the same trace."""
    rng = random.Random(seed)
    length = spec.cfg.sample_length
    relations = [
        (getattr(spec, name), getattr(spec, f"{name}_group")) for name in ("home", "work", "social")
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

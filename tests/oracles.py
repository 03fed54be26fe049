"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately re-derive results from first principles (literal formula
evaluation, exhaustive enumeration, log replay) so they share no code with
the implementation paths they check.
"""

from __future__ import annotations

import itertools
import json
import math

from dtnsim import CentralityTable
from dtnsim.engine import (
    EVENT_LOG_CSV_HEADER,
    KIND_ABORTED,
    KIND_CREATED,
    KIND_DELETED_COMMUNITY,
    KIND_DELIVERED,
    KIND_DROPPED,
    KIND_EXPIRED,
    KIND_REPLICATED,
)


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

    for r in log:
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


class MinScanBuffer:
    """Reference model of one node's bounded buffer: a plain dict whose
    eviction victim is found by a min (oldest_first) or max (newest_first)
    scan over (created_at, id) for every victim, with no kept order."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.buffer = {}  # msg id -> Message
        self.occupancy = 0

    def admit(self, m, drop_policy):
        """Returns (admitted, evicted messages in eviction order)."""
        if m.size > self.capacity:
            return False, []
        evicted = []
        pick = min if drop_policy == "oldest_first" else max
        while self.occupancy + m.size > self.capacity:
            victim = pick(self.buffer.values(), key=lambda v: (v.created_at, v.id))
            evicted.append(self.remove(victim.id))
        self.buffer[m.id] = m
        self.occupancy += m.size
        return True, evicted

    def remove(self, msg_id):
        m = self.buffer.pop(msg_id)
        self.occupancy -= m.size
        return m

    def messages_by_creation(self):
        return tuple(sorted(self.buffer.values(), key=lambda m: (m.created_at, m.id)))


def record_json(r):
    """Reference NDJSON line body of one log record: `json.dumps` of a dict."""
    return json.dumps(
        {
            "time": r.time,
            "kind": r.kind,
            "msg": r.msg,
            "node": r.node,
            "peer": r.peer,
            "size": r.size,
        },
        separators=(",", ":"),
    )


def record_csv_row(r):
    """Reference CSV row of one log record."""
    peer = "" if r.peer is None else str(r.peer)
    size = "" if r.size is None else str(r.size)
    return f"{r.time!r},{r.kind},{r.msg},{r.node},{peer},{size}"


def event_log_ndjson(records):
    return "".join(record_json(r) + "\n" for r in records)


def event_log_csv(records):
    lines = [EVENT_LOG_CSV_HEADER]
    lines.extend(record_csv_row(r) for r in records)
    return "\n".join(lines) + "\n"

"""Aggregated familiar-contact graph, clique-percolation communities, and
cumulative-window centralities."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .contacts import ContactEvent


def build_familiar_graph(
    pair_durations: Mapping[tuple[int, int], float], threshold: float
) -> dict[int, int]:
    """The familiar graph as node -> neighbour bitmask (bit i for node i):
    every node of a pair is a key, and a pair whose cumulative contact time
    reaches the familiarity threshold sets each node's bit in the other's
    mask. Node ids must be >= 0."""
    adjacency: dict[int, int] = {}
    for (a, b), seconds in pair_durations.items():
        if a == b:
            raise ValueError(f"self-pair for node {a}")
        if seconds < 0:
            raise ValueError("durations must be >= 0")
        familiar = int(seconds >= threshold)
        adjacency[a] = adjacency.get(a, 0) | (familiar << b)
        adjacency[b] = adjacency.get(b, 0) | (familiar << a)
    return adjacency


@dataclass(frozen=True)
class CommunityMap:
    """Overlapping communities plus a node -> community-index lookup."""

    communities: tuple[frozenset[int], ...]
    _membership: dict[int, frozenset[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        membership: dict[int, set[int]] = {}
        for idx, community in enumerate(self.communities):
            for node in community:
                membership.setdefault(node, set()).add(idx)
        object.__setattr__(
            self, "_membership", {n: frozenset(s) for n, s in membership.items()}
        )

    @classmethod
    def empty(cls) -> "CommunityMap":
        return cls(())

    def communities_of(self, node: int) -> frozenset[int]:
        return self._membership.get(node, frozenset())


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(adjacency: Mapping[int, int], k: int) -> Iterator[int]:
    """The maximal cliques of at least k nodes, as bitmasks: Bron-Kerbosch
    with Tomita pivoting, on an explicit stack so that a clique of any size
    fits."""
    # a node in a k-clique has k-1 neighbours at least
    candidates = sum(1 << n for n, nbrs in adjacency.items() if nbrs.bit_count() >= k - 1)
    stack = [(0, 0, candidates, 0)]  # (clique, its size, candidates, excluded)
    while stack:
        clique, size, cand, excl = stack.pop()
        if not cand:
            if not excl and size >= k:
                yield clique
            continue
        if size + cand.bit_count() < k:
            continue
        # branch only on the candidates the pivot does not neighbour
        pivot = max(_bits(cand | excl), key=lambda u: (cand & adjacency[u]).bit_count())
        for v in _bits(cand & ~adjacency[pivot]):
            nbrs = adjacency[v]
            stack.append((clique | (1 << v), size + 1, cand & nbrs, excl & nbrs))
            cand &= ~(1 << v)
            excl |= 1 << v


def k_clique_communities(adjacency: Mapping[int, int], k: int) -> CommunityMap:
    """Communities as unions of k-cliques reachable through k-1 shared nodes
    (clique percolation): maximal cliques of at least k nodes, joined when
    they share k-1 nodes."""
    if k < 3:
        raise ValueError("k must be >= 3")
    # each component as (the union of its cliques, its cliques); a clique
    # that shares fewer than k-1 nodes with the union shares fewer with each
    # of its cliques, so most components are ruled out by one test
    components: list[tuple[int, list[int]]] = []
    for clique in _maximal_cliques(adjacency, k):
        union, members, apart = clique, [clique], []
        for comp_union, comp_members in components:
            if (clique & comp_union).bit_count() >= k - 1 and any(
                (clique & other).bit_count() >= k - 1 for other in reversed(comp_members)
            ):
                union |= comp_union
                members += comp_members
            else:
                apart.append((comp_union, comp_members))
        apart.append((union, members))
        components = apart
    communities = (frozenset(_bits(union)) for union, _ in components)
    return CommunityMap(tuple(sorted(communities, key=lambda c: tuple(sorted(c)))))


@dataclass(frozen=True)
class CentralityTable:
    """Per-node popularity from averaging unique encounters per time window."""

    global_centrality: dict[int, float]
    local_centrality: dict[tuple[int, int], float]  # (node, community index)
    window: float
    num_windows: int

    def global_of(self, node: int) -> float:
        return self.global_centrality.get(node, 0.0)

    def local_of(self, node: int, community_index: int) -> float:
        return self.local_centrality.get((node, community_index), 0.0)

    @classmethod
    def empty(cls, window: float = 1.0) -> "CentralityTable":
        return cls({}, {}, window, 0)


class WindowMeetings:
    """The peers each node met in each centrality window, kept as contacts end.

    Windows are `window` seconds long and counted from `epoch`. A contact
    counts its peer in every window it overlaps; its end is exclusive, and
    the part before `epoch` counts in none. Node ids are a trace's dense
    0-based ids.
    """

    def __init__(self, window: float, epoch: float = 0.0):
        if window <= 0:
            raise ValueError("window must be > 0")
        self.window = window
        self.epoch = epoch
        # (node, window index) -> the peers met, bit i for node i; an int
        # takes far less memory than a set, and the history lives all run
        self.met: dict[tuple[int, int], int] = {}

    def add(self, ev: ContactEvent) -> None:
        epoch, window, met = self.epoch, self.window, self.met
        a, b = ev.node_a, ev.node_b
        first = int((ev.start - epoch) // window)
        last = int((ev.end - epoch) // window)
        if (ev.end - epoch) % window == 0:  # end is exclusive
            last -= 1
        for w in range(max(first, 0), last + 1):
            met[a, w] = met.get((a, w), 0) | (1 << b)
            met[b, w] = met.get((b, w), 0) | (1 << a)

    def centrality(self, communities: CommunityMap, now: float) -> CentralityTable:
        """Average the number of unique nodes met per window over the windows
        that start before `now` (at least one); later windows count for
        nothing.

        Local centrality counts only peers sharing the given community,
        computed for every (member node, community) pair.
        """
        elapsed = now - self.epoch
        num_windows = max(1, math.ceil(elapsed / self.window)) if elapsed > 0 else 1

        member_masks = [sum(1 << n for n in c) for c in communities.communities]
        global_sum: dict[int, int] = {}
        local_sum: dict[tuple[int, int], int] = {}
        for (node, w), peers in self.met.items():
            if w >= num_windows:
                continue
            global_sum[node] = global_sum.get(node, 0) + peers.bit_count()
            for cidx in communities.communities_of(node):
                n_local = (peers & member_masks[cidx]).bit_count()
                if n_local:
                    key = (node, cidx)
                    local_sum[key] = local_sum.get(key, 0) + n_local

        return CentralityTable(
            global_centrality={n: s / num_windows for n, s in global_sum.items()},
            local_centrality={k: s / num_windows for k, s in local_sum.items()},
            window=self.window,
            num_windows=num_windows,
        )


def communities_json(communities: CommunityMap) -> str:
    """Community dump: a JSON array of sorted node-id arrays."""
    return json.dumps([sorted(c) for c in communities.communities]) + "\n"


def centrality_csv(table: CentralityTable, communities: CommunityMap, node_count: int) -> str:
    """Centrality dump: one row per node, one local column per community."""
    header = ["node", "global"] + [f"local:{i}" for i in range(len(communities.communities))]
    lines = [",".join(header)]
    for node in range(node_count):
        cols = [str(node), repr(table.global_of(node))]
        cols += [
            repr(table.local_of(node, i)) for i in range(len(communities.communities))
        ]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"

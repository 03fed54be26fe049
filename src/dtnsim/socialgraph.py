"""Aggregated familiar-contact graph, clique-percolation communities, and
cumulative-window centralities."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .contacts import ContactEvent

if TYPE_CHECKING:
    import networkx as nx


def build_familiar_graph(
    pair_durations: Mapping[tuple[int, int], float], threshold: float
) -> nx.Graph:
    """Every node of a pair as a graph node, and an edge for every pair whose
    cumulative contact time reaches the familiarity threshold."""
    # networkx loads at the first community recompute, so the runs that
    # never recompute (dlife, epidemic) never pay for it
    import networkx as nx

    graph = nx.Graph()
    for (a, b), seconds in pair_durations.items():
        if a == b:
            raise ValueError(f"self-pair for node {a}")
        if seconds < 0:
            raise ValueError("durations must be >= 0")
        graph.add_nodes_from((a, b))
        if seconds >= threshold:
            graph.add_edge(a, b)
    return graph


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


def k_clique_communities(graph: nx.Graph, k: int) -> CommunityMap:
    """Communities as unions of k-cliques reachable through k-1 shared nodes."""
    if k < 3:
        raise ValueError("k must be >= 3")
    import networkx as nx

    communities = nx.community.k_clique_communities(graph, k)
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

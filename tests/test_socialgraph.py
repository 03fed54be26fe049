import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtnsim import (
    BANDWIDTH_WIFI_11MBPS,
    CentralityTable,
    CommunityMap,
    ContactEvent,
    WindowMeetings,
    build_familiar_graph,
    engine,
    k_clique_communities,
    run_simulation,
)

from oracles import (
    clique_percolation_bruteforce,
    cumulative_window_centrality,
    rescan_window_centrality,
)
from scenarios import (
    DAY,
    GOLDEN_CAPACITY,
    desk_scenario,
    desk_sim_config,
    golden_scenario,
)


def _graph_from_edges(edges):
    durations = {tuple(sorted(e)): 1.0 for e in edges}
    return build_familiar_graph(durations, threshold=1.0)


def test_build_familiar_graph_threshold():
    # node -> neighbour bitmask: the pair above the threshold is an edge, and
    # the pair below it keeps its nodes, with no edge
    durations = {(0, 1): 100.0, (1, 2): 50.0}
    assert build_familiar_graph(durations, threshold=60.0) == {0: 0b010, 1: 0b001, 2: 0}
    assert build_familiar_graph(durations, threshold=0.0) == {0: 0b010, 1: 0b101, 2: 0b010}
    assert build_familiar_graph(durations, threshold=1e9) == {0: 0, 1: 0, 2: 0}
    with pytest.raises(ValueError, match="self-pair"):
        build_familiar_graph({(2, 2): 10.0}, threshold=0.0)
    with pytest.raises(ValueError, match=">= 0"):
        build_familiar_graph({(0, 1): 10.0, (1, 2): -1.0}, threshold=0.0)


def test_kclique_single_clique():
    g = _graph_from_edges(itertools.combinations(range(4), 2))
    cm = k_clique_communities(g, 4)
    assert set(cm.communities) == {frozenset({0, 1, 2, 3})}


def test_kclique_triangles_sharing_edge_merge():
    # triangles 0-1-2 and 1-2-3 share the edge (1,2): one community of 4
    g = _graph_from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    cm = k_clique_communities(g, 3)
    assert set(cm.communities) == {frozenset({0, 1, 2, 3})}


def test_kclique_triangles_sharing_node_stay_apart():
    # sharing one node is fewer than k-1=2 shared nodes
    g = _graph_from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    cm = k_clique_communities(g, 3)
    assert set(cm.communities) == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}
    assert cm.communities_of(2) == frozenset({0, 1})
    assert cm.communities_of(0) & cm.communities_of(2)
    assert cm.communities_of(2) & cm.communities_of(4)
    assert not cm.communities_of(0) & cm.communities_of(4)
    with pytest.raises(ValueError):
        k_clique_communities(g, 2)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_kclique_clique_deeper_than_the_recursion_limit():
    # a recursive enumeration would nest once per clique member
    limit = _stack_depth() + 50
    graph = _graph_from_edges(itertools.combinations(range(4 * limit), 2))
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        cm = k_clique_communities(graph, 5)
    finally:
        sys.setrecursionlimit(saved)
    assert cm.communities == (frozenset(range(4 * limit)),)


@pytest.mark.parametrize("edges,k", [
    # an empty graph
    ([], 3),
    # a 4-cycle and an edge: no triangle
    ([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)], 3),
    # a 4-clique and a triangle: k above the largest clique
    (list(itertools.combinations(range(4), 2)) + [(3, 4), (4, 5), (3, 5)], 5),
])
def test_kclique_without_a_k_clique_is_empty(edges, k):
    assert k_clique_communities(_graph_from_edges(edges), k) == CommunityMap.empty()


def _random_adjacency(rng, n, p):
    adj = {i: set() for i in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def _communities_for_adj(adj, k):
    # isolated nodes can never join a k-clique, so dropping them is harmless
    durations = {(a, b): 1.0 for a in adj for b in adj[a] if a < b}
    g = build_familiar_graph(durations, threshold=1.0)
    return k_clique_communities(g, k)


def test_kclique_matches_bruteforce_oracle_sample():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(4, 10)
        adj = _random_adjacency(rng, n, rng.uniform(0.25, 0.7))
        for k in (3, 4):
            ours = set(_communities_for_adj(adj, k).communities)
            assert ours == clique_percolation_bruteforce(adj, k)


def test_raising_k_refines_communities():
    rng = random.Random(55)
    for _ in range(40):
        adj = _random_adjacency(rng, rng.randint(5, 11), 0.55)
        for k in (3, 4):
            coarse = _communities_for_adj(adj, k).communities
            fine = _communities_for_adj(adj, k + 1).communities
            for community in fine:
                assert any(community <= big for big in coarse)


def _networkx_communities(adjacency, k):
    # the reference: networkx's clique percolation on the same graph
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(adjacency)
    graph.add_edges_from(
        (a, b) for a, nbrs in adjacency.items() for b in range(a) if nbrs >> b & 1
    )
    found = nx.community.k_clique_communities(graph, k)
    return tuple(sorted(found, key=lambda c: tuple(sorted(c))))


@st.composite
def random_familiar_graph(draw):
    """A familiar graph of up to 60 nodes, every pair drawn above or below
    the threshold. The density stays at or below 0.4, where networkx's
    percolation takes well under a second."""
    n = draw(st.integers(0, 60))
    density = draw(st.floats(0.0, 0.4))
    rng = draw(st.randoms(use_true_random=False))
    durations = {
        (a, b): 1.0 if rng.random() < density else 0.0
        for a in range(n) for b in range(a + 1, n)
    }
    return build_familiar_graph(durations, threshold=1.0)


@settings(deadline=None)
@given(graph=random_familiar_graph(), k=st.integers(3, 6))
def test_kclique_matches_networkx(graph, k):
    assert k_clique_communities(graph, k).communities == _networkx_communities(graph, k)


@pytest.mark.parametrize("scenario", ["golden", "community_bw"])
def test_kclique_matches_networkx_at_every_recompute(monkeypatch, scenario):
    # the familiar graph that each recompute of a run builds; the graph
    # follows the trace alone, so one router stands for every community router
    if scenario == "golden":
        trace, workload = golden_scenario()
        cfg = desk_sim_config(trace, workload, "bubblerap", DAY, buffer_capacity=GOLDEN_CAPACITY)
    else:  # the benchmark's 45-node, 14-day desk routine, seed 1
        trace, workload = desk_scenario(1, node_count=45, days=14, messages=200)
        cfg = desk_sim_config(
            trace, workload, "bubblerap", 2 * DAY,
            buffer_capacity=20_000_000, bandwidth=BANDWIDTH_WIFI_11MBPS,
        )
    seen = []

    def recorded(graph, k):
        communities = k_clique_communities(graph, k)
        seen.append((dict(graph), k, communities))
        return communities

    monkeypatch.setattr(engine, "k_clique_communities", recorded)
    run_simulation(cfg)
    assert len(seen) > 1 and any(cm.communities for _, _, cm in seen)
    for graph, k, communities in seen:
        assert communities.communities == _networkx_communities(graph, k)


def test_centrality_examples():
    communities = CommunityMap.empty()
    # no contacts: centrality 0 (missing from the table, reads as 0)
    table = cumulative_window_centrality([], 3600.0, communities, now=7200.0)
    assert table.global_of(0) == 0.0

    # same single peer in every window
    events = [ContactEvent(0, 1, w * 3600.0 + 100.0, w * 3600.0 + 200.0) for w in range(4)]
    table = cumulative_window_centrality(events, 3600.0, communities, now=4 * 3600.0)
    assert table.global_of(0) == 1.0

    # 3 distinct peers in window 1, one in window 2: average 2 after two windows
    events = [
        ContactEvent(0, 1, 0.0, 10.0),
        ContactEvent(0, 2, 20.0, 30.0),
        ContactEvent(0, 3, 40.0, 50.0),
        ContactEvent(0, 1, 3700.0, 3800.0),
    ]
    table = cumulative_window_centrality(events, 3600.0, communities, now=7200.0)
    assert table.global_of(0) == 2.0


def test_centrality_local_counts_only_community_members():
    communities = CommunityMap((frozenset({0, 1, 2}),))
    events = [
        ContactEvent(0, 1, 0.0, 10.0),  # same community
        ContactEvent(0, 5, 20.0, 30.0),  # outsider
    ]
    table = cumulative_window_centrality(events, 100.0, communities, now=100.0)
    assert table.global_of(0) == 2.0
    assert table.local_of(0, 0) == 1.0
    assert table.local_of(5, 0) == 0.0  # not a member


def test_centrality_contact_spanning_windows_counts_in_each():
    table = cumulative_window_centrality(
        [ContactEvent(0, 1, 10.0, 7000.0)], 3600.0, CommunityMap.empty(), now=7200.0
    )
    assert table.global_of(0) == 1.0
    assert table.global_of(1) == 1.0


def test_centrality_invariant_under_relabeling():
    rng = random.Random(77)
    events = []
    for _ in range(80):
        a, b = rng.sample(range(8), 2)
        start = rng.uniform(0, 50000)
        events.append(ContactEvent(min(a, b), max(a, b), start, start + rng.uniform(1, 4000)))
    perm = list(range(8))
    rng.shuffle(perm)
    mapped = [
        ContactEvent(min(perm[e.node_a], perm[e.node_b]), max(perm[e.node_a], perm[e.node_b]), e.start, e.end)
        for e in events
    ]
    t1 = cumulative_window_centrality(events, 6000.0, CommunityMap.empty(), now=60000.0)
    t2 = cumulative_window_centrality(mapped, 6000.0, CommunityMap.empty(), now=60000.0)
    for node in range(8):
        assert t1.global_of(node) == pytest.approx(t2.global_of(perm[node]))


@st.composite
def window_history(draw):
    """A window, an epoch, contacts, communities over six nodes and ascending
    `now` instants. Instants fall on quarter windows from the epoch (window
    boundaries included) or anywhere between; contacts may start before the
    epoch and span several windows."""
    window = draw(st.sampled_from([100.0, 3600.0, 7.5, 0.1]))
    epoch = draw(st.sampled_from([0.0, 250.0, 86400.0, 1234.5]))

    def instant(lo, hi):  # in quarter windows from the epoch
        return st.one_of(
            st.integers(lo, hi).map(lambda q: epoch + q * (window / 4)),
            st.floats(epoch + lo * (window / 4), epoch + hi * (window / 4)),
        )

    contacts = draw(st.lists(
        st.builds(
            lambda pair, times: ContactEvent(*pair, *sorted(times)),
            st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True),
            st.lists(instant(-4, 40), min_size=2, max_size=2, unique=True),
        ),
        max_size=25,
    ))
    communities = CommunityMap(tuple(draw(st.lists(
        st.frozensets(st.integers(0, 5), min_size=1), max_size=3
    ))))
    nows = sorted(draw(st.lists(instant(-2, 44), min_size=1, max_size=6)))
    return window, epoch, contacts, communities, nows


@given(history=window_history())
@example(history=(
    3600.0,
    250.0,
    [
        ContactEvent(0, 1, 250.0, 3850.0),  # ends on a window boundary
        ContactEvent(1, 2, 1000.0, 12000.0),  # spans four windows
        ContactEvent(0, 2, 3850.0, 30000.0),  # ends after every `now`
    ],
    CommunityMap((frozenset({0, 1}),)),
    [3850.0, 5000.0, 12000.0],
))
def test_window_meetings_match_rescan(history):
    window, epoch, contacts, communities, nows = history
    ended = sorted(contacts, key=lambda ev: ev.end)
    meetings = WindowMeetings(window, epoch)
    done = 0
    for now in nows:
        while done < len(ended) and ended[done].end <= now:
            meetings.add(ended[done])
            done += 1
        expected = rescan_window_centrality(
            ended[:done], window, communities, now=now, epoch=epoch
        )
        assert meetings.centrality(communities, now) == expected
        # the batch form also takes contacts that end after `now`
        assert cumulative_window_centrality(
            contacts, window, communities, now=now, epoch=epoch
        ) == rescan_window_centrality(contacts, window, communities, now=now, epoch=epoch)


def test_empty_community_map():
    cm = CommunityMap.empty()
    assert cm.communities_of(3) == frozenset()
    assert not cm.communities_of(1) & cm.communities_of(2)
    assert CentralityTable.empty().global_of(0) == 0.0


def test_dump_formats():
    import json

    from dtnsim import centrality_csv, communities_json

    cm = CommunityMap((frozenset({2, 0, 1}), frozenset({1, 3})))
    assert json.loads(communities_json(cm)) == [[0, 1, 2], [1, 3]]
    assert communities_json(CommunityMap.empty()) == "[]\n"

    table = CentralityTable({0: 2.5, 1: 1.0}, {(0, 0): 1.5}, 3600.0, 4)
    text = centrality_csv(table, cm, node_count=4)
    lines = text.splitlines()
    assert lines[0] == "node,global,local:0,local:1"
    assert lines[1] == "0,2.5,1.5,0.0"
    assert lines[2] == "1,1.0,0.0,0.0"
    assert len(lines) == 5

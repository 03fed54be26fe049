"""Incremental scans: a direction of an ongoing contact offers its router
only the rows that changed since its last scan, unless the decision inputs
changed. `oracles.FullScanSimulation` looks at the whole buffer at every
scan; the event logs of the two must be equal.

Each hand-built scenario below pins one reason to offer more than the rows
that entered the sender: the receiver evicted a row, the receiver deleted a
row under the community rule, the dLife importance comparison flipped, the
ledger rolled, or the communities and centralities were recomputed.

On the golden cells, the engine must offer no more than the oracle, and
every router call must get only candidates: the engine is the one place
that leaves out what the receiver holds, was delivered or was sent.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnsim import (
    BANDWIDTH_WIFI_11MBPS,
    ContactEvent,
    ContactTrace,
    SampleConfig,
    SimConfig,
    Simulation,
)
from dtnsim import engine
from dtnsim.engine import DROP_POLICIES, KIND_DELETED_COMMUNITY, KIND_DROPPED, KIND_REPLICATED
from dtnsim.routing import ROUTER_NAMES
from dtnsim.workload import WorkloadEntry

import oracles
from oracles import FullScanSimulation
from scenarios import DAY, GOLDEN_CAPACITY, desk_sim_config, golden_scenario
from test_golden import GOLDEN, GOLDEN_CHARGED

# four 100-second samples a day, so short runs roll the ledger many times
SHORT_DAY = SampleConfig(4, 400)


def both_logs(cfg: SimConfig) -> tuple[str, str]:
    return Simulation(cfg).run().to_csv(), FullScanSimulation(cfg).run().to_csv()


def small_cfg(contacts, workload, node_count, **overrides) -> SimConfig:
    trace = ContactTrace.from_events([ContactEvent(*c) for c in contacts], node_count)
    params = dict(
        trace=trace,
        workload=tuple(WorkloadEntry(*w) for w in workload),
        router="epidemic",
        sample=SHORT_DAY,
        ttl=DAY,
        epoch=0.0,
        k=3,
        familiar_threshold=100.0,
        centrality_window=1000.0,
        recompute_interval=1000.0,
    )
    params.update(overrides)
    return SimConfig(**params)


def copies(log_csv: str, kind: str = KIND_REPLICATED) -> list[tuple[float, str, int, str]]:
    """(time, msg, node, peer) of every record of one kind."""
    out = []
    for line in log_csv.splitlines()[1:]:
        time, k, msg, node, peer, _ = line.split(",")
        if k == kind:
            out.append((float(time), msg, int(node), peer))
    return out


# -- equivalence over random small scenarios --------------------------------


@st.composite
def scenarios(draw):
    n = draw(st.integers(4, 6))
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    # a coarse time grid, so that contacts overlap, repeat and start together
    at = st.integers(0, 24).map(lambda i: 25.0 * i)
    duration = st.sampled_from([0.001, 50.0, 200.0, 600.0])
    many = dict(min_size=10, max_size=40)
    # long meetings at the start seed the communities
    contacts = [(a, b, 0.0, 150.0) for a, b in draw(st.lists(pair, max_size=8))]
    contacts += [
        (a, b, start, start + length)
        for (a, b), start, length in draw(st.lists(st.tuples(pair, at, duration), **many))
    ]
    size = st.sampled_from([300, 700, 1500])
    workload = [
        (created, a, b, s)
        for (a, b), created, s in draw(st.lists(st.tuples(pair, at, size), **many))
    ]
    return small_cfg(
        contacts,
        workload,
        n,
        router=draw(st.sampled_from(ROUTER_NAMES)),
        bandwidth=draw(st.sampled_from([None, BANDWIDTH_WIFI_11MBPS])),
        drop_policy=draw(st.sampled_from(DROP_POLICIES)),
        charge_summaries=draw(st.booleans()),
        buffer_capacity=draw(st.sampled_from([2000, 3000, 100_000])),
        ttl=draw(st.sampled_from([300.0, 1000.0, 3000.0])),
        familiar_threshold=draw(st.sampled_from([1.0, 100.0])),
        centrality_window=draw(st.sampled_from([50.0, 300.0])),
        recompute_interval=draw(st.sampled_from([30.0, 100.0, 250.0])),
    )


@settings(max_examples=300, deadline=None)
@given(cfg=scenarios())
def test_event_log_matches_full_scan_oracle(cfg):
    engine_csv, oracle_csv = both_logs(cfg)
    assert engine_csv == oracle_csv


# -- one scenario per reason to rescan more than the new rows ---------------


def test_rescan_offers_a_row_the_receiver_evicted():
    # m00000 reaches node 1 on the first contact, so the second contact does
    # not offer it; node 1 then evicts it for m00001, and the next scan of
    # 0 -> 1 (set off by m00002) must offer it again
    cfg = small_cfg(
        [(0, 1, 10.0, 20.0), (0, 1, 100.0, 1000.0)],
        [(0.0, 0, 3, 400), (200.0, 1, 0, 700), (300.0, 0, 3, 100)],
        4,
        buffer_capacity=1000,
    )
    engine_csv, oracle_csv = both_logs(cfg)
    assert engine_csv == oracle_csv
    assert (200.0, "m00000", 1, "") in copies(engine_csv, KIND_DROPPED)
    assert (300.0, "m00000", 0, "1") in copies(engine_csv)


def test_rescan_offers_a_row_the_receiver_deleted_under_the_community_rule():
    # {2, 3, 4} is a community; node 1 meets more nodes than node 0, so
    # Bubble Rap copies 0 -> 1 on global centrality. Node 1 hands m00000 to
    # node 2 inside the destination's community and drops its copy; the
    # next scan of 0 -> 1 (set off by m00001) must offer it again.
    cfg = small_cfg(
        [
            (2, 3, 0.0, 200.0), (2, 4, 0.0, 200.0), (3, 4, 0.0, 200.0),
            (1, 2, 300.0, 310.0), (1, 3, 320.0, 330.0),
            (0, 1, 1200.0, 1210.0), (0, 1, 1300.0, 1900.0), (1, 2, 1400.0, 1410.0),
        ],
        [(1100.0, 0, 4, 500), (1500.0, 0, 4, 500)],
        5,
        router="bubblerap",
    )
    engine_csv, oracle_csv = both_logs(cfg)
    assert engine_csv == oracle_csv
    assert (1400.0, "m00000", 1, "") in copies(engine_csv, KIND_DELETED_COMMUNITY)
    assert (1500.0, "m00000", 0, "1") in copies(engine_csv)


def test_rescan_after_the_importance_comparison_flips():
    # node 1 spent time with node 2 on day 0, so meeting node 2 again while
    # its contact with node 0 is up lifts its importance above node 0's: the
    # next scan of 0 -> 1 (set off by m00001) must offer m00000 again
    cfg = small_cfg(
        [(1, 2, 0.0, 50.0), (0, 1, 200.0, 290.0), (1, 2, 220.0, 280.0)],
        [(150.0, 0, 3, 500), (240.0, 0, 3, 500)],
        4,
        router="dlife",
    )
    engine_csv, oracle_csv = both_logs(cfg)
    assert engine_csv == oracle_csv
    assert (240.0, "m00000", 0, "1") in copies(engine_csv)


def test_rescan_after_a_roll():
    # node 1 met the destination in sample 1; from the roll at t=200 node 1
    # weighs more toward it than node 0 does, so the next scan of 0 -> 1
    # (set off by m00001) must offer m00000 again
    cfg = small_cfg(
        [(1, 3, 100.0, 140.0), (0, 1, 150.0, 390.0)],
        [(120.0, 0, 3, 500), (250.0, 0, 3, 500)],
        4,
        router="dlife",
    )
    engine_csv, oracle_csv = both_logs(cfg)
    assert engine_csv == oracle_csv
    assert (250.0, "m00000", 0, "1") in copies(engine_csv)


def test_rescan_after_a_recompute():
    # before the first recompute every centrality is 0; from t=1000 node 1,
    # which met two nodes, is more central than node 0, so the next scan of
    # 0 -> 1 (set off by m00001) must offer m00000 again
    cfg = small_cfg(
        [(1, 2, 100.0, 110.0), (1, 3, 120.0, 130.0), (0, 1, 900.0, 1500.0)],
        [(500.0, 0, 4, 500), (1100.0, 0, 4, 500)],
        5,
        router="bubblerap",
    )
    engine_csv, oracle_csv = both_logs(cfg)
    assert engine_csv == oracle_csv
    assert (1100.0, "m00000", 0, "1") in copies(engine_csv)


# -- regression guard: fewer messages offered, same logs --------------------

GOLDEN_CELLS = [(r, bw, dp, False) for r, bw, dp in sorted(GOLDEN, key=str)] + [
    (r, BANDWIDTH_WIFI_11MBPS, "oldest_first", True) for r in sorted(GOLDEN_CHARGED)
]


@pytest.fixture(scope="module")
def golden():
    return golden_scenario()


def golden_cfg(trace, workload, router, bandwidth, drop_policy, charged) -> SimConfig:
    return desk_sim_config(
        trace, workload, router, ttl=DAY, buffer_capacity=GOLDEN_CAPACITY,
        bandwidth=bandwidth, drop_policy=drop_policy, charge_summaries=charged,
    )


@pytest.mark.parametrize("router,bandwidth,drop_policy,charged", GOLDEN_CELLS)
def test_offers_no_more_than_the_full_scan(monkeypatch, golden, router, bandwidth, drop_policy,
                                           charged):
    # Both paths offer only candidates, so a full scan offers a row again
    # only when its answer was "no"; `epidemic` never answers "no", so there
    # the two offer the same rows, and elsewhere the engine offers fewer.
    calls, offered = [], []

    def counted(name, carrier, peer, communities, centralities):
        calls[-1] += 1
        offered[-1] += len(carrier.messages)
        return original(name, carrier, peer, communities, centralities)

    original = engine.decide
    monkeypatch.setattr(engine, "decide", counted)
    monkeypatch.setattr(oracles, "decide", counted)
    cfg = golden_cfg(*golden, router, bandwidth, drop_policy, charged)
    logs = []
    for sim in (Simulation(cfg), FullScanSimulation(cfg)):
        calls.append(0)
        offered.append(0)
        logs.append(sim.run().to_csv())
    assert logs[0] == logs[1]
    assert 0 < calls[0] <= calls[1]
    assert 0 < offered[0] <= offered[1]
    if router != "epidemic":
        assert offered[0] < offered[1]


class _ScanRecorder(Simulation):
    """Notes the direction of the scan in progress."""

    def _evaluate_direction(self, direction, time):
        self.scan = direction
        super()._evaluate_direction(direction, time)


def test_engine_offers_routers_only_candidates(monkeypatch, golden):
    # The engine alone filters the candidates, so no router is asked about a
    # message the receiver buffers, was delivered, or was sent on this
    # contact, nor about one addressed to the sender itself.
    def checked(name, carrier, peer, communities, centralities):
        direction = sim.scan
        src, dst = direction.src, direction.dst
        assert (carrier.node_id, peer.node_id) == (src, dst)
        receiver = sim.nodes[dst]
        sent = direction.sent
        keys = [m.order_key for m in carrier.messages]
        assert keys == sorted(set(keys))
        for m in carrier.messages:
            assert m.row not in receiver.buffer
            assert m.row not in receiver.delivered
            assert m.row not in sent
            assert m.destination != src
        counts[-1] += 1
        return original(name, carrier, peer, communities, centralities)

    original = engine.decide
    monkeypatch.setattr(engine, "decide", checked)
    counts = []
    for cell in GOLDEN_CELLS:
        counts.append(0)
        sim = _ScanRecorder(golden_cfg(*golden, *cell))
        sim.run()
    assert all(counts), counts

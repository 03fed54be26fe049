"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The directional-reproduction scenario (criterion 4) is the slow one;
the whole suite targets a few minutes.
"""

import math
import multiprocessing
import random
import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import pytest

from dtnsim import (
    CarrierState,
    CentralityTable,
    CommunityMap,
    ContactEvent,
    ContactTrace,
    EventLog,
    LogRecord,
    PeerSummary,
    SampleConfig,
    SocialLedger,
    WorkloadEntry,
    build_familiar_graph,
    compute_run_metrics,
    dlife_on_contact,
    k_clique_communities,
    messages_from_workload,
    parse_contact_trace,
    run_simulation,
    serialize_contact_trace,
    split_contact_by_samples,
)
from dtnsim.metrics import summarize

from oracles import (
    clique_percolation_bruteforce,
    cumulative_average,
    earliest_delivery,
    node_importance,
    pair_weight,
    replay_log,
)
from scenarios import DAY, desk_scenario, desk_sim_config


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def test_criterion_1_equation_oracles():
    """Ledger arithmetic matches literal re-evaluations of the contact-time
    sum, the per-day cumulative average, the decayed pair weight, and the
    damped importance."""
    rng = random.Random(0xD11FE)
    checked = 0
    for _ in range(120):
        t = rng.choice([2, 3, 4, 6, 8, 12, 24])
        cfg = SampleConfig(t, 86400)
        peers = rng.randint(1, 4)
        days = rng.randint(1, 4)
        damping = rng.uniform(0.0, 1.0)
        ledger = SocialLedger(peers + 1, cfg, damping)
        history = {(p, i): [] for p in range(1, peers + 1) for i in range(t)}
        for day in range(days):
            for i in range(t):
                lin = day * t + i
                for p in range(1, peers + 1):
                    fragments = [
                        rng.uniform(1.0, 86400 / t / 3) for _ in range(rng.randint(0, 2))
                    ]
                    for fragment in fragments:
                        ledger.record_contact_fragment(0, p, lin, fragment)
                    total = sum(fragments)
                    assert close(ledger.tct[0, p, i], total)
                    history[(p, i)].append(total)
                ledger.roll_sample()

        oracle_ad = {
            p: [cumulative_average(history[(p, i)]) for i in range(t)]
            for p in range(1, peers + 1)
        }
        for p in range(1, peers + 1):
            for i in range(t):
                assert close(ledger.ad[0, p, i], oracle_ad[p][i])
                assert close(ledger.weights_at(i)[0, p], pair_weight(oracle_ad[p], i, t))
                checked += 1

        neighbors = sorted(p for p in range(1, peers + 1) if rng.random() < 0.7)
        cached = {}
        for p in neighbors:
            ledger.mark_met(0, p)
            cached[p] = rng.uniform(1 - damping, 4.0)
            ledger._peer_importance[0][p] = cached[p]
        sample = ledger.current_sample
        expected = node_importance(
            damping,
            [pair_weight(oracle_ad[p], sample, t) for p in neighbors],
            [cached[p] for p in neighbors],
        )
        assert close(ledger.update_importance(0), expected)
        checked += 1
    assert checked >= 1000
    print(f"PASS criterion 1: equation oracles agree on {checked} randomized configurations")


def test_criterion_2_kclique_oracle_equivalence():
    """Clique percolation agrees exactly with brute-force enumeration on
    500 random graphs of up to 12 nodes for k in {3, 4, 5}."""
    rng = random.Random(0xC117)
    graphs = 0
    comparisons = 0
    for _ in range(500):
        n = rng.randint(4, 12)
        p = rng.uniform(0.2, 0.75)
        adjacency = {i: set() for i in range(n)}
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    adjacency[a].add(b)
                    adjacency[b].add(a)
        durations = {(a, b): 1.0 for a in adjacency for b in adjacency[a] if a < b}
        graph = build_familiar_graph(durations, threshold=1.0)
        graphs += 1
        for k in (3, 4, 5):
            ours = set(k_clique_communities(graph, k).communities)
            assert ours == clique_percolation_bruteforce(adjacency, k)
            comparisons += 1
    assert graphs >= 500
    print(
        f"PASS criterion 2: clique percolation matches the brute-force oracle on "
        f"{graphs} graphs ({comparisons} (graph, k) cases)"
    )


def test_criterion_3_engine_conservation_and_determinism():
    """Byte-identical reruns on the 30-node scenario, invariant-checked log
    replay, and exact agreement of flooding with space-time reachability."""
    trace, workload = desk_scenario(seed=11)
    cfg = desk_sim_config(trace, workload, "dlife", ttl=DAY)
    log_a = run_simulation(cfg)
    log_b = run_simulation(cfg)
    assert log_a.to_csv() == log_b.to_csv()

    stats = replay_log(log_a, capacity=2_000_000, node_count=30)
    assert stats["created"] == 500
    assert 0 < stats["delivered"] <= 500

    matched = 0
    for seed in (100, 101, 102, 103, 104):
        sub_trace, sub_workload = desk_scenario(seed, node_count=10, days=1, messages=20)
        sub = ContactTrace.from_events(sub_trace.events[:50], node_count=10)
        flood_cfg = desk_sim_config(sub, sub_workload, "epidemic", ttl=DAY, buffer_capacity=10**12)
        log = run_simulation(flood_cfg)
        first = {}
        for r in map(LogRecord._make, log):
            if r.kind == "delivered":
                first.setdefault(r.msg, r.time)
        for m in messages_from_workload(sub_workload, DAY):
            expected = earliest_delivery(sub.events, m.source, m.destination, m.created_at, m.ttl)
            assert first.get(m.id) == expected
            matched += 1
    print(
        "PASS criterion 3: byte-identical reruns, replay invariants hold "
        f"({stats['delivered']}/500 delivered), flooding matches reachability on "
        f"{matched} messages over 5 sub-traces"
    )


CRITERION_4_SEEDS = range(1, 11)
CRITERION_4_TTLS = (DAY, 2 * DAY, 4 * DAY)


def delivery_latencies(log):
    """Creation-to-first-delivery time of every message the log delivers."""
    created, latencies = {}, {}
    for r in map(LogRecord._make, log):
        if r.kind == "created":
            created[r.msg] = r.time
        elif r.kind == "delivered" and r.msg not in latencies:
            latencies[r.msg] = r.time - created[r.msg]
    return latencies


def _error_on_runtime_warnings():
    # pytest's `error::RuntimeWarning` filter does not reach worker processes
    warnings.simplefilter("error", RuntimeWarning)


@lru_cache(maxsize=None)
def _criterion_4_scenario(seed):
    return desk_scenario(seed)


def _criterion_4_run(task):
    """One criterion-4 run: its metrics and its per-message delivery
    latencies, not its log."""
    router, ttl, seed = task
    trace, workload = _criterion_4_scenario(seed)
    log = run_simulation(desk_sim_config(trace, workload, router, ttl=ttl))
    return compute_run_metrics(log), delivery_latencies(log)


@pytest.fixture(scope="module")
def criterion_4_runs():
    """The 60 runs behind the directional checks, made once per module on
    two processes: dlife and bubblerap at each TTL over the seeds of the
    desk-scale routine scenario. Each run keeps its metrics and its
    per-message delivery latencies, not its log."""
    keys = [(router, ttl) for router in ("dlife", "bubblerap") for ttl in CRITERION_4_TTLS]
    tasks = [(router, ttl, seed) for router, ttl in keys for seed in CRITERION_4_SEEDS]
    with ProcessPoolExecutor(
        max_workers=2,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_error_on_runtime_warnings,
    ) as pool:
        runs = iter(pool.map(_criterion_4_run, tasks))
        return {key: [next(runs) for _ in CRITERION_4_SEEDS] for key in keys}


def test_criterion_4_directional_reproduction(criterion_4_runs):
    """On the desk-scale routine scenario, the routine-weight router beats
    the centrality router on mean delivery and mean cost at every TTL, with
    the delivery gap significant at the 95% level for at least one TTL."""
    ttls = CRITERION_4_TTLS
    results = {key: [metrics for metrics, _ in runs] for key, runs in criterion_4_runs.items()}

    significant = []
    for ttl in ttls:
        dlife = results[("dlife", ttl)]
        bubble = results[("bubblerap", ttl)]
        d_dlife = [r.delivery_probability for r in dlife]
        d_bubble = [r.delivery_probability for r in bubble]
        c_dlife = [r.avg_cost for r in dlife]
        c_bubble = [r.avg_cost for r in bubble]
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(d_dlife) >= mean(d_bubble), f"delivery order violated at ttl={ttl}"
        assert mean(c_dlife) <= mean(c_bubble), f"cost order violated at ttl={ttl}"
        gap = summarize([a - b for a, b in zip(d_dlife, d_bubble)])
        if gap.ci_half_width is not None and gap.mean - gap.ci_half_width > 0:
            significant.append(ttl)
        print(
            f"  ttl={ttl / DAY:.0f}d delivery {mean(d_dlife):.3f} vs {mean(d_bubble):.3f} "
            f"(gap {gap.mean:.3f} +- {gap.ci_half_width:.3f}), "
            f"cost {mean(c_dlife):.1f} vs {mean(c_bubble):.1f}"
        )
    assert significant, "delivery gap not significant at any TTL"
    print(
        "PASS criterion 4: dlife >= bubblerap on delivery and <= on cost at all TTLs; "
        f"gap significant at 95% for TTL(s) {[f'{t / DAY:.0f}d' for t in significant]}"
    )


def test_paper_latency_claim(criterion_4_runs):
    """The paper's third claim on the criterion-4 runs: dlife's mean latency
    is below bubblerap's at every TTL. Each router delivers a different set
    of messages, so the mean over the messages both deliver in the same
    seed is reported beside it."""
    mean = lambda xs: sum(xs) / len(xs)
    for ttl in CRITERION_4_TTLS:
        dlife = criterion_4_runs[("dlife", ttl)]
        bubble = criterion_4_runs[("bubblerap", ttl)]
        l_dlife = mean([metrics.avg_latency for metrics, _ in dlife])
        l_bubble = mean([metrics.avg_latency for metrics, _ in bubble])
        assert l_dlife < l_bubble, f"latency order violated at ttl={ttl}"
        both_dlife, both_bubble = [], []
        for (_, lat_dlife), (_, lat_bubble) in zip(dlife, bubble):
            for msg in lat_dlife.keys() & lat_bubble.keys():
                both_dlife.append(lat_dlife[msg])
                both_bubble.append(lat_bubble[msg])
        print(
            f"  ttl={ttl / DAY:.0f}d latency {l_dlife / 3600:.2f} h vs {l_bubble / 3600:.2f} h; "
            f"over the {len(both_dlife)} messages both deliver "
            f"{mean(both_dlife) / 3600:.2f} h vs {mean(both_bubble) / 3600:.2f} h"
        )
    print("PASS paper latency claim: dlife's mean latency is below bubblerap's at all TTLs")


def test_criterion_5_metric_definitions():
    """Delivery, cost, and latency from hand-constructed logs match hand
    calculations exactly."""

    def created(msg, t=0.0):
        return LogRecord(t, "created", msg, 0, 1, 1000)

    def replicated(msg, t, dst=1):
        return LogRecord(t, "replicated", msg, 0, dst)

    def delivered(msg, t, src=0):
        return LogRecord(t, "delivered", msg, src, 1)

    # duplicate deliveries count once: 2 of 4 delivered
    log_a = EventLog(
        [
            created("m0"),
            created("m1"),
            created("m2"),
            created("m3"),
            replicated("m0", 50.0),
            delivered("m0", 50.0),
            replicated("m0", 70.0, dst=1),
            delivered("m0", 70.0, src=2),
            replicated("m1", 90.0),
            delivered("m1", 90.0),
        ]
    )
    assert compute_run_metrics(log_a).delivery_probability == 0.5

    # 7 replications (3 of them for a never-delivered message), 2 delivered
    log_b = EventLog(
        [
            created("a"),
            created("b"),
            created("lost"),
            replicated("a", 1.0),
            delivered("a", 1.0),
            replicated("a", 2.0, dst=5),
            replicated("b", 3.0),
            delivered("b", 3.0),
            replicated("b", 3.5, dst=6),
            replicated("lost", 4.0),
            replicated("lost", 5.0),
            replicated("lost", 6.0),
        ]
    )
    assert compute_run_metrics(log_b).avg_cost == 3.5

    # latency from first deliveries only: (100 + 300) / 2
    log_c = EventLog(
        [
            created("m0"),
            created("m1"),
            delivered("m0", 100.0),
            delivered("m1", 300.0),
            delivered("m0", 9999.0, src=7),
        ]
    )
    assert compute_run_metrics(log_c).avg_latency == 200.0
    print("PASS criterion 5: delivery/cost/latency match hand calculations on 3 hand-built logs")


def test_criterion_6_trace_round_trip_and_lossless_splitting():
    """Haggle input -> canonical CSV -> parse is identity, and sample
    splitting is duration-lossless on 10,000 random contacts."""
    rng = random.Random(0x7ACE)
    lines = ["# synthetic haggle-style trace", "# id id start end"]
    for _ in range(500):
        a, b = rng.sample(range(1, 80), 2)  # sparse original ids
        start = round(rng.uniform(0, 2_000_000), 3)
        lines.append(f"{a} {b} {start} {start + round(rng.uniform(0.5, 90000), 3)}")
    haggle_text = "\n".join(lines) + "\n"

    trace, id_map = parse_contact_trace(haggle_text, "haggle")
    canonical = serialize_contact_trace(trace)
    reparsed, identity = parse_contact_trace(canonical, "csv")
    assert reparsed == trace
    assert identity == {i: i for i in range(trace.node_count)}
    assert serialize_contact_trace(reparsed) == canonical

    checked = 0
    for _ in range(10000):
        t = rng.choice([1, 2, 3, 4, 6, 8, 12, 24, 48])
        cfg = SampleConfig(t, 86400)
        start = rng.uniform(0, 6 * 86400)
        ev = ContactEvent(0, 1, start, start + rng.uniform(1e-3, 3 * 86400))
        parts = split_contact_by_samples(ev.start, ev.end, cfg.sample_length)
        assert math.isclose(sum(d for _, d in parts), ev.duration, rel_tol=1e-12)
        checked += 1
    print(
        f"PASS criterion 6: haggle round-trip identity on {len(trace.events)} contacts, "
        f"splitting lossless on {checked} random contacts"
    )


def test_criterion_7_rank_invariances():
    """Replication decisions are unchanged under uniform positive scaling of
    all pair averages, and exact ties never replicate."""
    rng = random.Random(0x5CA1E)
    trials = 0
    cfg = SampleConfig(4, 86400)
    social = (CommunityMap.empty(), CentralityTable.empty())  # dlife reads neither
    for _ in range(1000):
        peers = 4
        ad = {
            p: [rng.choice([0.0, rng.uniform(1, 3600)]) for _ in range(4)]
            for p in range(1, peers + 1)
        }
        scale = rng.uniform(0.01, 100.0)

        def weights_for(factor):
            ledger = SocialLedger(peers + 1, cfg)
            for i in range(4):
                for p, row in ad.items():
                    if row[i] > 0:
                        ledger.record_contact_fragment(0, p, i, factor * row[i])
                ledger.roll_sample()
            return ledger.weights_to_all_neighbors(0)  # at sample 0: the clock is on day 1

        base_w = weights_for(1.0)
        scaled_w = weights_for(scale)

        msgs = messages_from_workload(
            [
                WorkloadEntry(rng.uniform(0, 100), 0, rng.randint(1, peers), rng.randint(1, 1000))
                for _ in range(3)
            ],
            ttl=DAY,
        )
        importance_c = rng.uniform(0, 2)
        importance_p = rng.uniform(0, 2)
        peer_id = rng.randint(1, peers)
        base = dlife_on_contact(
            CarrierState(0, msgs, base_w, importance_c),
            PeerSummary(peer_id, [2.0 * w for w in base_w], importance_p),
            *social,
        )
        scaled = dlife_on_contact(
            CarrierState(0, msgs, scaled_w, importance_c),
            PeerSummary(peer_id, [2.0 * w for w in scaled_w], importance_p),
            *social,
        )
        assert base == scaled
        trials += 1

    # strict ties keep the message on the carrier
    tie_msgs = messages_from_workload([WorkloadEntry(0.0, 0, 3, 100)], ttl=DAY)
    # rows indexed by node id: destination 3 unknown to both, then equally known
    for weights in ([0.0] * 4, [0.0, 0.0, 0.0, 5.0]):
        decision = dlife_on_contact(
            CarrierState(0, tie_msgs, weights, 0.6),
            PeerSummary(1, list(weights), 0.6),
            *social,
        )
        assert decision.replicate == ()
    assert trials >= 1000
    print(f"PASS criterion 7: dlife decisions scale-invariant over {trials} trials; ties never replicate")

import gc
import hashlib
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnsim import (
    ConfigError,
    ContactEvent,
    ContactTrace,
    LogRecord,
    Message,
    NodeRuntime,
    SampleConfig,
    SimConfig,
    Simulation,
    SocialLedger,
    buffer_admit,
    messages_from_workload,
    run_simulation,
    transfer_within_contact,
)
from dtnsim.engine import (
    BANDWIDTH_WIFI_11MBPS,
    KIND_ABORTED,
    KIND_CREATED,
    KIND_DELETED_COMMUNITY,
    KIND_DELIVERED,
    KIND_DROPPED,
    KIND_EXPIRED,
    KIND_REPLICATED,
)
from dtnsim.ledger import dump_ledgers_csv
from dtnsim.routing import ROUTER_NAMES
from dtnsim.socialgraph import centrality_csv, communities_json
from dtnsim.workload import WorkloadEntry

from oracles import (
    EagerEndsSimulation,
    WholeHeapSimulation,
    earliest_delivery,
    replay_log,
    rescan_window_centrality,
)
from scenarios import DAY, GOLDEN_CAPACITY, desk_scenario, desk_sim_config, golden_scenario


def trace_of(events, node_count=None):
    return ContactTrace.from_events([ContactEvent(*e) for e in events], node_count)


def entries(*rows):
    return tuple(WorkloadEntry(*row) for row in rows)


def kinds(log, kind):
    return [r for r in map(LogRecord._make, log) if r.kind == kind]


def simple_cfg(trace, workload, **overrides):
    params = dict(trace=trace, workload=workload, router="epidemic", ttl=DAY)
    params.update(overrides)
    return SimConfig(**params)


# -- node buffers -----------------------------------------------------------


def _node(capacity=2_000_000):
    return NodeRuntime(0, capacity)


def _msg(row, size, created=0.0):
    return Message(row, 0, 1, created, 86400.0, size)


def test_buffer_admit_plain():
    node = _node()
    ok, evicted = buffer_admit(node, _msg(0, 100_000))
    assert ok and evicted == []
    assert node.occupancy == 100_000


def test_buffer_admit_rejects_oversize():
    node = _node()
    ok, evicted = buffer_admit(node, _msg(0, 3_000_000))
    assert not ok and evicted == [] and node.occupancy == 0


def test_buffer_admit_evicts_oldest_until_fit():
    node = _node()
    for i in range(20):
        assert buffer_admit(node, _msg(i, 100_000, created=float(i)))[0]
    assert node.occupancy == 2_000_000
    ok, evicted = buffer_admit(node, _msg(20, 100_000, created=99.0))
    assert ok
    assert [m.row for m in evicted] == [0]
    assert node.occupancy == 2_000_000
    assert 0 not in node.buffer and 20 in node.buffer


def test_add_rejects_a_row_it_buffers():
    node = _node()
    node.add(_msg(3, 100_000))
    with pytest.raises(ValueError, match="duplicate message m00003 in buffer of node 0"):
        node.add(_msg(3, 100_000, created=5.0))
    assert list(node.buffer) == [3] and node.ordered == [node.buffer[3]]
    assert node.occupancy == 100_000


def test_buffer_admit_newest_first_policy():
    node = _node(capacity=200_000)
    buffer_admit(node, _msg(0, 100_000, created=0.0))  # old
    buffer_admit(node, _msg(1, 100_000, created=10.0))  # young
    ok, evicted = buffer_admit(node, _msg(2, 150_000, created=5.0), "newest_first")
    assert ok and [m.row for m in evicted] == [1, 0]  # young, then old


def test_buffer_order_follows_workload_row_past_100k_messages():
    # the log names m99999 and m100000 sort by row, not as strings
    msgs = messages_from_workload([WorkloadEntry(0.0, 0, 1, 1000)] * 100_001, ttl=DAY)
    m99999, m100000 = msgs[99_999], msgs[100_000]
    assert (m99999.id, m100000.id) == ("m99999", "m100000")
    for drop_policy, victim in (("oldest_first", m99999), ("newest_first", m100000)):
        node = _node(capacity=2000)
        buffer_admit(node, m100000, drop_policy)
        buffer_admit(node, m99999, drop_policy)
        assert node.ordered == [m99999, m100000]
        ok, evicted = buffer_admit(node, msgs[0], drop_policy)
        assert ok and evicted == [victim]


def test_equal_time_creations_run_in_row_order_past_100k_messages():
    # heap ties on the same instant, source and destination follow the row,
    # not the id string, under which m100000 sorts before m99999
    workload = entries(*[(0.0, 0, 1, 1000)] * 100_001)
    log = run_simulation(simple_cfg(trace_of([], node_count=2), workload))
    created = [r.msg for r in kinds(log, KIND_CREATED)]
    assert created == [f"m{i:05d}" for i in range(100_001)]


# -- link scheduling --------------------------------------------------------


def test_transfer_unlimited_bandwidth():
    contact = ContactEvent(0, 1, 0.0, 2.0)
    msgs = [_msg(0, 1000), _msg(1, 100_000)]
    completed, aborted = transfer_within_contact(contact, msgs, None)
    assert [(m.row, t) for m, t in completed] == [(0, 0.0), (1, 0.0)]
    assert aborted == []


def test_transfer_sequential_and_abort():
    contact = ContactEvent(0, 1, 0.0, 2.0)
    completed, aborted = transfer_within_contact(contact, [_msg(0, 1000)], 8000.0)
    assert [(m.row, t) for m, t in completed] == [(0, 1.0)]  # 8000 bits / 8000 bps

    completed, aborted = transfer_within_contact(
        contact, [_msg(1, 100_000), _msg(0, 1000)], 8000.0
    )
    assert completed == []  # the saturated link blocks everything behind it
    assert [m.row for m in aborted] == [1, 0]

    long_contact = ContactEvent(0, 1, 0.0, 3.0)
    completed, aborted = transfer_within_contact(
        long_contact, [_msg(0, 1000), _msg(1, 1000), _msg(2, 8000)], 8000.0
    )
    assert [(m.row, t) for m, t in completed] == [(0, 1.0), (1, 2.0)]
    assert [m.row for m in aborted] == [2]


# -- whole runs -------------------------------------------------------------


def test_two_node_delivery():
    trace = trace_of([(0, 1, 100.0, 200.0)])
    log = run_simulation(simple_cfg(trace, entries((50.0, 0, 1, 1000))))
    # the source keeps its copy after delivering, so it expires at TTL
    assert [r.kind for r in map(LogRecord._make, log)] == [
        KIND_CREATED,
        KIND_REPLICATED,
        KIND_DELIVERED,
        KIND_EXPIRED,
    ]
    delivered = kinds(log, KIND_DELIVERED)
    assert len(delivered) == 1 and delivered[0].time == 100.0


def test_empty_workload_logs_nothing():
    trace = trace_of([(0, 1, 100.0, 200.0)])
    log = run_simulation(simple_cfg(trace, ()))
    assert len(log) == 0


def test_eventless_trace_expires_everything():
    trace = ContactTrace.from_events([], node_count=3)
    log = run_simulation(simple_cfg(trace, entries((0.0, 0, 1, 500), (10.0, 1, 2, 600))))
    assert len(kinds(log, KIND_CREATED)) == 2
    assert len(kinds(log, KIND_EXPIRED)) == 2
    assert kinds(log, KIND_DELIVERED) == []


def test_determinism_byte_identical():
    trace, workload = desk_scenario(seed=3, node_count=10, days=2, messages=60)
    cfg = desk_sim_config(trace, workload, "dlife", ttl=DAY)
    log_a = run_simulation(cfg)
    log_b = run_simulation(cfg)
    assert log_a.to_csv() == log_b.to_csv()


def test_replay_invariants_small_run():
    trace, workload = desk_scenario(seed=4, node_count=10, days=2, messages=80)
    for router in ("epidemic", "dlife", "dlifecomm", "bubblerap"):
        cfg = desk_sim_config(trace, workload, router, ttl=DAY, buffer_capacity=400_000)
        log = run_simulation(cfg)
        stats = replay_log(log, capacity=400_000, node_count=10)
        assert stats["created"] == 80


def test_mid_contact_creation_is_forwarded():
    # the decision at contact start predates the message; its creation must
    # re-trigger the exchange mid-contact
    trace = trace_of([(0, 1, 0.0, 1000.0)])
    log = run_simulation(simple_cfg(trace, entries((500.0, 0, 1, 1000))))
    delivered = kinds(log, KIND_DELIVERED)
    assert len(delivered) == 1 and delivered[0].time == 500.0


def test_expiry_is_boundary_inclusive():
    # contact starts exactly at the expiry instant: too late
    trace = trace_of([(0, 1, 86400.0, 86500.0)])
    log = run_simulation(simple_cfg(trace, entries((0.0, 0, 1, 1000)), epoch=0.0))
    assert kinds(log, KIND_DELIVERED) == []
    assert len(kinds(log, KIND_EXPIRED)) == 1

    # one second earlier: delivered, and the source's residual copy expires
    trace = trace_of([(0, 1, 86399.0, 86500.0)])
    log = run_simulation(simple_cfg(trace, entries((0.0, 0, 1, 1000)), epoch=0.0))
    assert kinds(log, KIND_DELIVERED)[0].time == 86399.0
    assert len(kinds(log, KIND_EXPIRED)) == 1  # source copy at 86400


def test_residual_copies_expire_after_delivery():
    trace = trace_of([(0, 1, 100.0, 200.0), (1, 2, 300.0, 400.0)], node_count=3)
    log = run_simulation(simple_cfg(trace, entries((0.0, 0, 2, 1000)), ttl=7200.0))
    assert [r.time for r in kinds(log, KIND_DELIVERED)] == [300.0]
    expired = kinds(log, KIND_EXPIRED)
    assert [(r.node, r.time) for r in expired] == [(0, 7200.0), (1, 7200.0)]
    # delivery already counted; expiry of leftovers does not undo it
    from dtnsim import compute_run_metrics

    rm = compute_run_metrics(log)
    assert rm.delivery_probability == 1.0
    assert rm.avg_latency == 300.0
    assert rm.avg_cost == 2.0


def test_expiry_logs_holders_in_node_id_order():
    # the copies are made in descending node order (2 gets it first, then 1,
    # then 0), the destination 3 is never met, and expiry still logs 0, 1, 2
    trace = trace_of([(1, 2, 100.0, 200.0), (0, 1, 300.0, 400.0)], node_count=4)
    log = run_simulation(simple_cfg(trace, entries((0.0, 2, 3, 1000)), ttl=7200.0))
    copies = [(r.node, r.peer) for r in kinds(log, KIND_REPLICATED)]
    assert copies == [(2, 1), (1, 0)]
    expired = kinds(log, KIND_EXPIRED)
    assert [(r.node, r.time) for r in expired] == [(0, 7200.0), (1, 7200.0), (2, 7200.0)]


def test_finite_bandwidth_run():
    trace = trace_of([(0, 1, 0.0, 2.0)])
    workload = entries((0.0, 0, 1, 1000), (0.0, 0, 1, 100_000))
    log = run_simulation(simple_cfg(trace, workload, bandwidth=8000.0))
    delivered = kinds(log, KIND_DELIVERED)
    assert [(r.msg, r.time) for r in delivered] == [("m00000", 1.0)]
    aborted = kinds(log, KIND_ABORTED)
    assert [(r.msg, r.time) for r in aborted] == [("m00001", 2.0)]


def test_charging_summaries_delays_transfers():
    trace = trace_of([(0, 1, 0.0, 2.0)])
    workload = entries((0.0, 0, 1, 1000))
    log = run_simulation(
        simple_cfg(trace, workload, bandwidth=8000.0, charge_summaries=True)
    )
    # no social state yet: two 64-byte summaries occupy the link for
    # 128 * 8 / 8000 = 0.128 s before the 1 s payload transfer
    delivered = kinds(log, KIND_DELIVERED)
    assert len(delivered) == 1
    assert delivered[0].time == pytest.approx(1.128, rel=1e-12)


@pytest.mark.parametrize("router,reads", [
    ("epidemic", False), ("bubblerap", False), ("dlife", True), ("dlifecomm", True)
])
def test_ledger_reads_only_for_routers_that_use_them(monkeypatch, router, reads):
    calls = []

    def counted(name):
        original = getattr(SocialLedger, name)

        def wrapper(self, *args, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)

        return wrapper

    for name in ("weights_to_all_neighbors", "importance"):
        monkeypatch.setattr(SocialLedger, name, counted(name))
    trace = trace_of([(0, 1, 100.0, 200.0), (0, 2, 300.0, 400.0)])
    sim = Simulation(simple_cfg(trace, entries((0.0, 0, 2, 1000)), router=router))
    log = sim.run()
    assert kinds(log, KIND_DELIVERED)  # decisions ran
    assert sorted(set(calls)) == (["importance", "weights_to_all_neighbors"] if reads else [])
    # the table is built only for the routers that read it
    assert (sim.ledger is not None) == reads


def test_ledger_built_for_charged_summaries_and_dumps():
    trace = trace_of([(0, 1, 100.0, 200.0)])
    plain = simple_cfg(trace, entries((0.0, 0, 1, 1000)))
    assert Simulation(plain).ledger is None
    assert Simulation(plain, keep_ledger=True).ledger is not None
    # summaries cost link time only on a finite link, so only then is it read
    assert Simulation(replace(plain, charge_summaries=True)).ledger is None
    charged = replace(plain, charge_summaries=True, bandwidth=8000.0)
    assert Simulation(charged).ledger is not None


def test_startup_validation():
    trace = trace_of([(0, 1, 0.0, 10.0)])
    with pytest.raises(ConfigError, match="outside trace range"):
        Simulation(simple_cfg(trace, entries((0.0, 0, 5, 1000))))
    with pytest.raises(ConfigError, match="exceeds buffer capacity"):
        Simulation(simple_cfg(trace, entries((0.0, 0, 1, 3_000_000))))
    same_ends = entries((0.0, 0, 1, 1000), (0.0, 1, 1, 1000))
    with pytest.raises(ConfigError, match="row 1: source and destination are both node 1"):
        Simulation(simple_cfg(trace, same_ends))
    for size in (0, -5):
        with pytest.raises(ConfigError, match=f"workload row 0: size {size} must be > 0"):
            Simulation(simple_cfg(trace, entries((0.0, 0, 1, size))))
    with pytest.raises(ConfigError, match="router"):
        Simulation(simple_cfg(trace, (), router="flooding"))
    with pytest.raises(ConfigError, match="k: must"):
        Simulation(simple_cfg(trace, (), k=2))
    with pytest.raises(ConfigError, match="damping"):
        Simulation(simple_cfg(trace, (), damping=1.5))
    with pytest.raises(ConfigError, match="drop_policy"):
        Simulation(simple_cfg(trace, entries((0.0, 0, 1, 1000)), drop_policy="bogus"))
    day3 = trace_of([(0, 1, 3 * 86400.0, 3 * 86400 + 100.0)])
    with pytest.raises(ConfigError, match="before epoch"):
        Simulation(simple_cfg(day3, entries((100.0, 0, 1, 1000))))


@pytest.mark.parametrize("overrides,match", [
    (dict(ttl=math.inf), "ttl: must be finite"),
    (dict(ttl=math.nan), "ttl: must be finite"),
    (dict(epoch=-math.inf), "epoch: must be finite"),
    (dict(bandwidth=math.nan), "bandwidth"),
    (dict(workload=entries((math.inf, 0, 1, 1000))), "no finite expiry"),
    (dict(workload=entries((math.nan, 0, 1, 1000))), "no finite expiry"),
    (dict(workload=entries((1.7e308, 0, 1, 1000)), ttl=1.7e308), "no finite expiry"),
    (dict(trace=trace_of([(0, 1, 0.0, math.inf)])), "contact 0: times must be finite"),
    (dict(trace=trace_of([(0, 1, -math.inf, 10.0)])), "contact 0: times must be finite"),
])
def test_startup_rejects_non_finite_times(overrides, match):
    # construction only: run() on such a config would never reach its horizon
    params = dict(trace=trace_of([(0, 1, 0.0, 10.0)]), workload=entries((0.0, 0, 1, 1000)))
    params.update(overrides)
    with pytest.raises(ConfigError, match=match):
        Simulation(simple_cfg(**params))


@pytest.mark.parametrize("overrides,field", [
    (dict(router="flooding"), "router"),
    (dict(ttl=0.0), "ttl"),
    (dict(buffer_capacity=0), "buffer_capacity"),
    (dict(bandwidth=0.0), "bandwidth"),
    (dict(k=2), "k"),
    (dict(k=math.nan), "k"),
    (dict(damping=-0.1), "damping"),
    (dict(damping=math.nan), "damping"),
    (dict(epoch=math.nan), "epoch"),
    (dict(drop_policy=None), "drop_policy"),
])
def test_sim_config_names_the_field_it_rejects(overrides, field):
    # no trace or workload needed: SimConfig checks its settings when built
    with pytest.raises(ConfigError) as err:
        SimConfig(**overrides)
    assert err.value.field == field
    assert str(err.value).startswith(field)


def test_sim_config_template_needs_no_inputs():
    template = SimConfig()
    assert template.trace.events == [] and template.workload == ()
    assert Simulation(template).run().records == []


def test_epoch_auto_floors_to_day_boundary():
    trace = trace_of([(0, 1, 90000.0, 90100.0)])
    sim = Simulation(simple_cfg(trace, ()), keep_ledger=True)
    assert sim.epoch == 86400.0
    sim.run()
    sim.to_horizon()  # with no message, the run stops before the contact
    # relative slot: hour 1 of day 0; the slot is still open, so the
    # accumulated time has not been folded into the average yet
    assert sim.ledger.tct[0, 1, 1] == 100.0


def test_dlifecomm_community_deletion_run():
    trace = trace_of(
        [
            (1, 2, 1000.0, 5000.0),
            (1, 3, 2000.0, 6000.0),
            (2, 3, 3000.0, 7000.0),
            (0, 1, 90000.0, 90600.0),
            (1, 3, 91000.0, 92000.0),
        ]
    )
    cfg = simple_cfg(
        trace,
        entries((89000.0, 0, 3, 1000)),
        router="dlifecomm",
        ttl=2 * DAY,
        k=3,
        familiar_threshold=3600.0,
    )
    log = run_simulation(cfg)
    replicated = [(r.node, r.peer, r.time) for r in kinds(log, KIND_REPLICATED)]
    assert replicated == [(0, 1, 90000.0), (1, 3, 91000.0)]
    deleted = kinds(log, KIND_DELETED_COMMUNITY)
    assert [(r.node, r.time) for r in deleted] == [(0, 90000.0)]
    assert [r.time for r in kinds(log, KIND_DELIVERED)] == [91000.0]


def test_rolls_and_recomputes_are_pushed_one_at_a_time():
    # one message expiring about 11 years after the only contact: the heap
    # holds the contact's start (its end is pushed when it starts), the
    # creation, and at most one roll and one recompute, not one roll per
    # hourly sample up to the expiry
    trace = trace_of([(0, 1, 100.0, 200.0)])
    sim = Simulation(simple_cfg(trace, entries((3.6e8, 0, 1, 500)), router="bubblerap"))
    sim._seed_events()
    assert len(sim._heap) <= 1 + 1 + 2


@st.composite
def contact_lists(draw):
    """Contacts on a coarse grid, so that they start together, one ends as
    the next starts, and some repeat exactly."""
    n = draw(st.integers(3, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    at = st.integers(0, 12).map(lambda i: 50.0 * i)
    length = st.sampled_from([0.001, 50.0, 100.0, 300.0])
    contacts = [
        (a, b, start, start + d)
        for (a, b), start, d in draw(st.lists(st.tuples(pair, at, length), min_size=1, max_size=25))
    ]
    contacts += draw(st.lists(st.sampled_from(contacts), max_size=5))
    contacts += [(b, a, end, end + 50.0) for a, b, _, end in contacts[:3]]
    workload = [
        (created, a, b, size)
        for (a, b), created, size in draw(
            st.lists(st.tuples(pair, at, st.sampled_from([300, 1500, 100_000])), max_size=20)
        )
    ]
    return n, contacts, workload


def grid_cfg(router, bandwidth, case):
    """A `contact_lists` case as a config, with 100 s samples and a TTL that
    ends most messages before the last contacts."""
    n, contacts, workload = case
    return SimConfig(
        trace=trace_of(contacts, n),
        workload=entries(*workload),
        router=router,
        bandwidth=bandwidth,
        sample=SampleConfig(4, 400),
        ttl=400.0,
        epoch=0.0,
        buffer_capacity=200_000,
        k=3,
        familiar_threshold=50.0,
        centrality_window=100.0,
        recompute_interval=150.0,
    )


def horizon_dumps(sim):
    """Everything the dumps of `sim` read, once it is brought to its horizon."""
    sim.to_horizon()
    return (
        *map("".join, zip(*dump_ledgers_csv(sim.ledger))),
        communities_json(sim.communities),
        centrality_csv(sim.centralities, sim.communities, sim.cfg.trace.node_count),
        sim.ledger.clock,
    )


@pytest.mark.parametrize("bandwidth", [None, BANDWIDTH_WIFI_11MBPS])
@pytest.mark.parametrize("router", ROUTER_NAMES)
@settings(max_examples=40, deadline=None)
@given(case=contact_lists())
def test_contact_ends_pushed_at_start_keep_the_log(router, bandwidth, case):
    cfg = grid_cfg(router, bandwidth, case)
    assert Simulation(cfg).run().to_csv() == EagerEndsSimulation(cfg).run().to_csv()


@pytest.mark.parametrize("bandwidth", [None, BANDWIDTH_WIFI_11MBPS])
@pytest.mark.parametrize("router", ROUTER_NAMES)
@settings(max_examples=40, deadline=None)
@given(case=contact_lists())
def test_a_run_stops_where_no_event_can_log(router, bandwidth, case):
    # the run stops once no event can log; the oracle handles every event.
    # Bringing the run to its horizon logs nothing, and leaves the dumps of
    # the oracle's.
    cfg = grid_cfg(router, bandwidth, case)
    sim, whole = Simulation(cfg, keep_ledger=True), WholeHeapSimulation(cfg, keep_ledger=True)
    log = sim.run().to_csv()
    assert log == whole.run().to_csv()
    logged = len(sim.log)
    dumps = horizon_dumps(sim)
    assert len(sim.log) == logged
    assert dumps == horizon_dumps(whole)


def test_late_aborts_keep_the_run_going():
    # both messages expire at 100 s, before anything else is logged: m00000
    # goes 0 -> 1 on a 1 s transfer that completes at 100.5 s, past its
    # expiry, and m00001's transfer 2 -> 3 cannot finish by its contact's
    # end at 100.7 s. A run that stopped at the last expiry would log neither.
    size = int(BANDWIDTH_WIFI_11MBPS / 8)  # one second on the link
    trace = trace_of([(0, 1, 99.5, 200.0), (2, 3, 99.8, 100.7)], node_count=4)
    cfg = simple_cfg(
        trace, entries((0.0, 0, 1, size), (0.0, 2, 3, size)), ttl=100.0,
        bandwidth=BANDWIDTH_WIFI_11MBPS, epoch=0.0,
    )
    sim = Simulation(cfg)
    records = list(sim.run())
    assert records == [
        (0.0, KIND_CREATED, "m00000", 0, 1, size),
        (0.0, KIND_CREATED, "m00001", 2, 3, size),
        (100.0, KIND_EXPIRED, "m00000", 0, None, None),
        (100.0, KIND_EXPIRED, "m00001", 2, None, None),
        (100.5, KIND_ABORTED, "m00000", 0, 1, None),
        (100.7, KIND_ABORTED, "m00001", 2, 3, None),
    ]
    assert records == WholeHeapSimulation(cfg).run().records
    # the end of the first contact is left for `to_horizon`
    assert list(sim.ongoing) == [0]
    sim.to_horizon()
    assert not sim.ongoing and not sim._heap
    assert len(sim.log) == len(records)


def test_to_horizon_fails_loudly_on_a_late_record():
    # the stop rule rules a record out after `run`; were one logged, the
    # replay raises rather than leave it out of the event log
    trace = trace_of([(0, 1, 100.0, 200.0), (0, 1, 300.0, 400.0)])
    sim = Simulation(simple_cfg(trace, entries((0.0, 0, 1, 1000)), ttl=250.0, epoch=0.0))
    sim.run()
    assert sim._heap  # the second contact is unplayed
    on_start = sim._on_contact_start

    def logging_start(time, index):
        sim._record((time, KIND_CREATED, "m99999", 0, 1, 1))
        on_start(time, index)

    sim._on_contact_start = logging_start
    with pytest.raises(RuntimeError, match="1 records logged after the run stopped"):
        sim.to_horizon()


def test_recomputes_after_the_last_contact_skip_to_the_horizon():
    # one message expiring about 11 years after the only contact: no
    # decision runs after the contact ends, so the run makes no recompute,
    # and `to_horizon` makes only the last one before the horizon, which
    # leaves what the full chain leaves
    trace = trace_of([(0, 1, 100.0, 200.0)])
    cfg = simple_cfg(trace, entries((3.6e8, 0, 1, 500)), router="bubblerap")
    sim, chained = Simulation(cfg), Simulation(cfg)
    chained._last_end = chained.horizon  # the whole chain, one recompute a day
    times = []
    recompute = sim._on_recompute

    def record(time, n):
        times.append(time)
        recompute(time, n)

    sim._on_recompute = record
    assert sim.run().records == chained.run().records
    assert times == []
    sim.to_horizon()
    chained.to_horizon()
    assert times == [sim.epoch + (sim.horizon - sim.epoch) // DAY * DAY]
    assert (sim.communities, sim.centralities) == (chained.communities, chained.centralities)
    assert sim.centralities.num_windows > 1


def test_chained_rolls_reach_the_horizon():
    # the horizon is the expiry, 3.6e4 s + 1 day = 122,400 s: 34 hourly rolls
    trace = trace_of([(0, 1, 100.0, 200.0)])
    sim = Simulation(
        simple_cfg(trace, entries((3.6e4, 0, 1, 500)), router="bubblerap"), keep_ledger=True
    )
    sim.run()
    sim.to_horizon()
    assert sim.ledger.clock == 34


def test_ledger_clock_stops_at_the_last_contact_end():
    # one message created about 11 years after the only contact: no roll
    # falls within the contact, so the run makes none, and logs the creation
    # and the expiry
    trace = trace_of([(0, 1, 100.0, 200.0)])
    sim = Simulation(simple_cfg(trace, entries((3.6e8, 0, 1, 500)), router="dlife"))
    log = sim.run()
    assert sim.ledger.clock == 0
    assert [r[:2] for r in log] == [
        (3.6e8, KIND_CREATED), (3.6e8 + DAY, KIND_EXPIRED)
    ]


def test_a_trace_built_directly_runs_as_one_from_events():
    # the run reads the end of the trace from its contacts: a trace made
    # without `from_events` has the same horizon, and the same log
    events = [ContactEvent(0, 1, 0.0, 100.0), ContactEvent(0, 1, 7000.0, 8000.0)]
    sims = [
        Simulation(simple_cfg(trace, entries((0.0, 0, 1, 500)), router="dlife", ttl=3600.0))
        for trace in (ContactTrace(events, 2), ContactTrace.from_events(events))
    ]
    assert sims[0].horizon == sims[1].horizon == 8000.0
    assert sims[0].run().records == sims[1].run().records
    sims[0].to_horizon()  # the run stops at the expiry, before the second contact
    assert sims[0].ledger.clock == 2


def test_ledger_dump_reaches_the_horizon():
    # the dump of the chained-roll run: sample 0 rolled on days 0 and 1, so
    # the 100 s contact averages 50 s there; ten more hourly rolls on day 1.
    # The run stops rolling at the contact's end; `to_horizon` rolls on.
    trace = trace_of([(0, 1, 100.0, 200.0)])
    sim = Simulation(simple_cfg(trace, entries((3.6e4, 0, 1, 500)), router="dlife"))
    assert len(sim.run()) == 2
    assert sim.ledger.clock == 0
    sim.to_horizon()
    pair_csv, imp_csv = map("".join, zip(*dump_ledgers_csv(sim.ledger)))
    assert sim.ledger.clock == 34
    assert pair_csv.splitlines()[1] == "0,1,0,50.0,50.0"
    assert hashlib.sha256(pair_csv.encode()).hexdigest() == (
        "c7a1fdfcca5c7fcc578b9faadcd3143ad9a517fe3396d4e1f4cb56ced1a00242"
    )
    assert hashlib.sha256(imp_csv.encode()).hexdigest() == (
        "0f5aca350bbc3708faac73864f1564569f56737fa65856f02a2a1c889162a4f8"
    )


def test_bubblerap_centralities_match_rescan_of_ended_contacts():
    trace, workload = golden_scenario()
    sim = Simulation(
        desk_sim_config(trace, workload, "bubblerap", DAY, buffer_capacity=GOLDEN_CAPACITY)
    )
    times = []
    recompute = sim._on_recompute

    def record(time, n):
        times.append(time)
        recompute(time, n)

    sim._on_recompute = record
    sim.run()
    sim.to_horizon()
    interval = sim.cfg.recompute_interval
    assert times == [sim.epoch + n * interval for n in range(1, len(times) + 1)]
    assert times[-1] + interval > sim.horizon
    ended = [ev for ev in trace.events if ev.end <= times[-1]]
    assert sim.centralities == rescan_window_centrality(
        ended, sim.cfg.centrality_window, sim.communities, now=times[-1], epoch=sim.epoch
    )
    assert sim.centralities.num_windows > 1 and sim.communities.communities


def golden_run_past_the_last_contact(router):
    # TTL 4 days: the golden scenario's horizon lies days past its last contact
    trace, workload = golden_scenario()
    cfg = desk_sim_config(trace, workload, router, 4 * DAY, buffer_capacity=GOLDEN_CAPACITY)
    return Simulation(cfg, keep_ledger=True)


@pytest.mark.parametrize("router", ["bubblerap", "dlife"])
def test_no_roll_or_recompute_after_the_last_contact(router):
    sim = golden_run_past_the_last_contact(router)
    length, interval = sim.cfg.sample.sample_length, sim.cfg.recompute_interval
    rolls, recomputes = [], []
    on_roll, on_recompute = sim._on_roll, sim._on_recompute

    def roll(n):
        rolls.append(sim.epoch + n * length)
        on_roll(n)

    def recompute(time, n):
        recomputes.append(time)
        on_recompute(time, n)

    sim._on_roll, sim._on_recompute = roll, recompute
    sim.run()
    last_end = sim._last_end
    assert sim.horizon > last_end + 2 * DAY
    # the run rolls up to the last contact end, and no further
    assert max(rolls) <= last_end < max(rolls) + length
    if router == "bubblerap":
        assert max(recomputes) <= last_end < max(recomputes) + interval
    else:
        assert recomputes == []
    # `to_horizon` makes the rest: every roll, and the last recompute
    del rolls[:], recomputes[:]
    sim.to_horizon()
    assert sim.ledger.clock == (sim.horizon - sim.epoch) // length
    if router == "bubblerap":
        assert recomputes == [sim.epoch + (sim.horizon - sim.epoch) // interval * interval]
    else:
        assert recomputes == []


def test_to_horizon_twice_leaves_the_dumps_of_once():
    sim = golden_run_past_the_last_contact("bubblerap")
    sim.run()
    recomputes = []
    on_recompute = sim._on_recompute

    def recompute(time, n):
        recomputes.append(time)
        on_recompute(time, n)

    sim._on_recompute = recompute
    once = horizon_dumps(sim)
    assert len(recomputes) == 1
    assert horizon_dumps(sim) == once
    assert len(recomputes) == 1


def test_a_run_leaves_no_reference_cycle():
    # An ended contact drops its directions' links back to it and to each
    # other, so reference counting alone frees what a run is done with, and
    # the cyclic collector finds nothing to hold on to.
    trace, workload = golden_scenario()
    cfgs = [
        desk_sim_config(trace, workload, router, DAY, buffer_capacity=GOLDEN_CAPACITY,
                        bandwidth=bandwidth)
        for router in ROUTER_NAMES
        for bandwidth in (None, BANDWIDTH_WIFI_11MBPS)
    ]
    for cfg in cfgs:  # a first run's lazy imports leave cycles of their own
        Simulation(cfg).run()
    gc.collect()
    gc.disable()
    try:
        for cfg in cfgs:
            Simulation(cfg).run()
            assert gc.collect() == 0, (cfg.router, cfg.bandwidth)
    finally:
        gc.enable()



@pytest.mark.parametrize("router,bandwidth", [
    ("epidemic", None),
    ("dlifecomm", BANDWIDTH_WIFI_11MBPS),
])
def test_log_records_are_untracked_tuples(router, bandwidth):
    # A record is an exact tuple of atoms, which the cyclic collector
    # untracks at its first collection, so no full collection walks the log.
    # A tuple subclass such as a namedtuple is never untracked.
    trace, workload = golden_scenario()
    cfg = desk_sim_config(trace, workload, router, DAY, buffer_capacity=GOLDEN_CAPACITY,
                          bandwidth=bandwidth)
    log = run_simulation(cfg)
    assert len(log) > 0
    assert all(type(r) is tuple for r in log)
    gc.collect()
    assert not any(gc.is_tracked(r) for r in log)

def test_buffer_pressure_drops_are_logged():
    trace = trace_of([(0, 1, 100.0, 200.0)])
    workload = entries(*[(float(i), 0, 1, 400_000) for i in range(6)])
    cfg = simple_cfg(trace, workload, buffer_capacity=1_000_000)
    log = run_simulation(cfg)
    dropped = kinds(log, KIND_DROPPED)
    assert [r.msg for r in dropped] == ["m00000", "m00001", "m00002", "m00003"]
    # the two survivors are delivered once the contact comes up
    assert sorted(r.msg for r in kinds(log, KIND_DELIVERED)) == ["m00004", "m00005"]


def test_epidemic_matches_reachability_oracle_smoke():
    trace, workload = desk_scenario(seed=8, node_count=10, days=1, messages=15)
    sub = ContactTrace.from_events(trace.events[:50], node_count=10)
    cfg = simple_cfg(sub, workload, buffer_capacity=10**12, ttl=DAY)
    log = run_simulation(cfg)
    first = {}
    for r in kinds(log, KIND_DELIVERED):
        first.setdefault(r.msg, r.time)

    for m in messages_from_workload(workload, DAY):
        expected = earliest_delivery(sub.events, m.source, m.destination, m.created_at, m.ttl)
        assert first.get(m.id) == expected


def test_dlife_replicas_bounded_by_epidemic():
    trace, workload = desk_scenario(seed=6, node_count=9, days=2, messages=25)
    counts = {}
    for router in ("dlife", "epidemic"):
        cfg = desk_sim_config(trace, workload, router, ttl=DAY, buffer_capacity=10**12)
        log = run_simulation(cfg)
        per_msg = {}
        for r in kinds(log, KIND_REPLICATED):
            per_msg[r.msg] = per_msg.get(r.msg, 0) + 1
        counts[router] = per_msg
    for msg_id, n in counts["dlife"].items():
        assert n <= counts["epidemic"].get(msg_id, 0)

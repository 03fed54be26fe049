"""Golden event logs: the SHA-256 of `events.csv` for every router, link
model and drop policy on one small desk scenario and for runs that charge
summaries to the link, of the ledger dump of one `dlife` run, of the
community and centrality dumps of one `bubblerap` run whose horizon lies
days past its last contact, and of the logs and dumps of runs that stop
most of a day before their last contact.

A change that must not alter behaviour (a refactor, a faster buffer or
decision path) keeps every hash here; a change that alters a log on purpose
updates the hash and says why.
"""

import hashlib

import pytest

from dtnsim import BANDWIDTH_WIFI_11MBPS as MBPS_11
from dtnsim import Simulation, run_simulation
from dtnsim.engine import KIND_ABORTED, KIND_DROPPED, KIND_EXPIRED
from dtnsim.experiment import cell_dir_name, load_experiment_config, run_experiment
from dtnsim.ledger import dump_ledgers_csv
from dtnsim.socialgraph import centrality_csv, communities_json

from scenarios import (
    DAY,
    GOLDEN_CAPACITY,
    GOLDEN_MESSAGES,
    GOLDEN_SEED,
    GOLDEN_WINDOW,
    HOUR,
    desk_sim_config,
    golden_scenario,
    golden_spec,
    routine_dict,
)

# (router, bandwidth, drop policy) -> events.csv sha256
GOLDEN = {
    ("dlife", None, "oldest_first"):
        "b4c77f580a61e24f43db662ec581c1e77f47d91221eb647952ad671047c51837",
    ("dlife", None, "newest_first"):
        "da70f5c42082cdfd71ff03d9ea84f1e2ad40eefab11601cab54ea4a560be2b63",
    ("dlife", MBPS_11, "oldest_first"):
        "36b03cdb01622db4370071810cd05781559ffa70d4f3542e8731fa18095c0f0a",
    ("dlife", MBPS_11, "newest_first"):
        "792ae3cb19e7c1e16b1e9e56a8353b22f84954700151fd3a2c96a4c7e56ffc68",
    ("dlifecomm", None, "oldest_first"):
        "d4db56857e45eaf377aecd9d556f6c4f0c901d6a95750979af460b6538181d13",
    ("dlifecomm", None, "newest_first"):
        "07e6a78e874609afe1148cf129ddda6797a735376189cc5fc12f333ea908356b",
    ("dlifecomm", MBPS_11, "oldest_first"):
        "5262e081b8c5d0301500cd6dc0516127ab266d2806249be34690f16880d39df6",
    ("dlifecomm", MBPS_11, "newest_first"):
        "4041e3c04e672e930e8c6fdf57757eccdba1b15ec1633489a57c30632e2d87f0",
    ("bubblerap", None, "oldest_first"):
        "2b93f774ccd46ca9da6e673a48d6e807b0e4658a91121a356037c5cc2836f5e9",
    ("bubblerap", None, "newest_first"):
        "5ade831db6ed748f727610fc9265bde65f6f3754edd1c4bb47d89dd2bb67320e",
    ("bubblerap", MBPS_11, "oldest_first"):
        "7197fb1a032a24857ee00abf8198c6c6c00683244de43d43315ba2a96e783289",
    ("bubblerap", MBPS_11, "newest_first"):
        "409255fd40536de62da5bf7e9630e57ed147917ddd2a6e081c0b5c980c810ec8",
    ("epidemic", None, "oldest_first"):
        "b4b51f964cc7cc52a5e5684f77915803dfe44d2da273837cb92d9050aa1587b1",
    ("epidemic", None, "newest_first"):
        "b7291c8e3a973d90978319e2e7c9d3f729c9536ffc070337cbfde2af22c044e4",
    ("epidemic", MBPS_11, "oldest_first"):
        "1f80ab51c6ce98f201b5a81ccb590fd5297e059be2970b1d1bd84f7444502b58",
    ("epidemic", MBPS_11, "newest_first"):
        "1f667f179e9fd6bc038726cba0bfab01b0323e02b5b7b850687dc781c7fd3dba",
}

# charge_summaries at 11 Mbps, oldest first: router -> events.csv sha256
GOLDEN_CHARGED = {
    "dlife": "4c63dceb4a271db0d244600702ec48de7bedc1df74840755db373d3cfd738e24",
    "epidemic": "15bb60d95b5df95db5514674cfa010466fa1c6c42e60f39ff3675a889c960a32",
}

# dlife, unlimited bandwidth, oldest first, with the ledger dump:
# (ledger_pairs.csv sha256, ledger_importance.csv sha256)
GOLDEN_LEDGER_DUMP = (
    "bc607c83cc25db4d9728e062895efb57cce22a7d668df5103e984b9ed9b8079b",
    "bc6586daf7a51733fbefd9c8071d33dd14738a9e8108868e75a4a2270894f0a0",
)

# bubblerap, TTL 4 days, unlimited bandwidth, oldest first:
# (communities.json sha256, centrality.csv sha256)
GOLDEN_SOCIAL_DUMP = (
    "8fe0e951dedc91d414dbf149f50acaf80d2f1db3c541a1f4fd54844f4468931d",
    "d81012191c5f8ffa27270b76b648ed531c20abe7fd9c4f59c2bf6f9ec28b8e7a",
)


# TTL 6 hours, unlimited bandwidth, oldest first: the last message expires
# at day 2.24, so the run stops there, most of a day before the last contact
# end (the horizon), and `to_horizon` replays that day for the dumps. The
# ledger follows the contacts alone, so it dumps as the 1-day run's does;
# the communities are those of the 4-day run, the centralities are not.
GOLDEN_SHORT_TTL = 6 * HOUR
# router -> events.csv sha256
GOLDEN_SHORT_TTL_LOGS = {
    "dlife": "9925e867437771cfaafda7742a7343e89e49b06277c3ac38229229e6c2a9fbb5",
    "bubblerap": "a8d7ee8527fa592a41c9a359d6682d5c04f3b04fe6164e2e80a0702f7ccaaa5e",
}
# bubblerap: (communities.json sha256, centrality.csv sha256)
GOLDEN_SHORT_TTL_SOCIAL_DUMP = (
    "8fe0e951dedc91d414dbf149f50acaf80d2f1db3c541a1f4fd54844f4468931d",
    "010b675e3dd8169a7d90c5692acc2b2199a0e20ef8d37909970c7d851aaf01e8",
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def scenario():
    return golden_scenario()


@pytest.mark.parametrize("router,bandwidth,drop_policy", sorted(GOLDEN, key=str))
def test_golden_event_log(scenario, router, bandwidth, drop_policy):
    trace, workload = scenario
    cfg = desk_sim_config(
        trace,
        workload,
        router,
        ttl=DAY,
        buffer_capacity=GOLDEN_CAPACITY,
        bandwidth=bandwidth,
        drop_policy=drop_policy,
    )
    log = run_simulation(cfg)
    kinds = {kind for _, kind, *_ in log}
    assert KIND_DROPPED in kinds
    assert (KIND_ABORTED in kinds) == (bandwidth is not None)
    assert sha256(log.to_csv()) == GOLDEN[(router, bandwidth, drop_policy)]


# the golden cells as plans for `run_experiment`: (bandwidth, drop policy,
# charge_summaries) -> {router: events.csv sha256}
GOLDEN_PLANS = {
    (bandwidth, drop_policy, False): {
        router: pin for (router, bw, dp), pin in GOLDEN.items()
        if (bw, dp) == (bandwidth, drop_policy)
    }
    for _, bandwidth, drop_policy in GOLDEN
}
GOLDEN_PLANS[(MBPS_11, "oldest_first", True)] = GOLDEN_CHARGED


def golden_plan(tmp_path, routers, ttls, **settings):
    """The golden scenario as a plan for `run_experiment`, with the settings
    of `desk_sim_config` and GOLDEN_CAPACITY buffers unless overridden."""
    raw = {
        "routers": sorted(routers),
        "ttls": list(ttls),
        "seeds": [GOLDEN_SEED],
        "trace": {"routine": routine_dict(golden_spec())},
        "workload": {"count": GOLDEN_MESSAGES, "window": list(GOLDEN_WINDOW)},
        "buffer_capacity": GOLDEN_CAPACITY,
        "damping": 0.8,
        "k": 5,
        "familiar_threshold": 6 * HOUR,
        "centrality_window": 6 * HOUR,
        "recompute_interval": 6 * HOUR,
        **settings,
    }
    return load_experiment_config(raw, tmp_path)


@pytest.mark.parametrize("bandwidth,drop_policy,charged", sorted(GOLDEN_PLANS, key=str))
def test_golden_plan_cells_stream_the_pinned_log(tmp_path, bandwidth, drop_policy, charged):
    # the same runs as above, through the plan runner, which hands each
    # piece of the log to the file as the run goes
    pins = GOLDEN_PLANS[(bandwidth, drop_policy, charged)]
    cfg = golden_plan(
        tmp_path, pins, [DAY], bandwidth=bandwidth, drop_policy=drop_policy,
        charge_summaries=charged,
    )
    run_experiment(cfg)
    for router, pin in pins.items():
        events = cfg.out_dir / cell_dir_name(router, DAY, GOLDEN_SEED) / "events.csv"
        assert hashlib.sha256(events.read_bytes()).hexdigest() == pin, router


@pytest.mark.parametrize("router", sorted(GOLDEN_CHARGED))
def test_golden_charged_summaries(scenario, router):
    trace, workload = scenario
    cfg = desk_sim_config(
        trace,
        workload,
        router,
        ttl=DAY,
        buffer_capacity=GOLDEN_CAPACITY,
        bandwidth=MBPS_11,
        charge_summaries=True,
    )
    assert sha256(run_simulation(cfg).to_csv()) == GOLDEN_CHARGED[router]


def test_golden_ledger_dump(scenario):
    trace, workload = scenario
    sim = Simulation(
        desk_sim_config(trace, workload, "dlife", ttl=DAY, buffer_capacity=GOLDEN_CAPACITY)
    )
    sim.run()
    sim.to_horizon()
    pair_csv, imp_csv = map("".join, zip(*dump_ledgers_csv(sim.ledger)))
    assert (sha256(pair_csv), sha256(imp_csv)) == GOLDEN_LEDGER_DUMP


def test_golden_ledger_dump_streams_one_node_at_a_time(scenario):
    # the dump of the charged dlife run: a header chunk, then one chunk per
    # node, that join to the pinned files (the ledger follows the contacts
    # alone, so charging summaries to the link leaves it as it is)
    trace, workload = scenario
    sim = Simulation(
        desk_sim_config(
            trace,
            workload,
            "dlife",
            ttl=DAY,
            buffer_capacity=GOLDEN_CAPACITY,
            bandwidth=MBPS_11,
            charge_summaries=True,
        )
    )
    sim.run()
    sim.to_horizon()
    chunks = list(dump_ledgers_csv(sim.ledger))
    assert len(chunks) == trace.node_count + 1
    assert chunks[0] == ("node,peer,sample,ad,weight\n", "node,sample,importance\n")
    for node, texts in enumerate(chunks[1:]):
        for text in texts:
            assert all(line.startswith(f"{node},") for line in text.splitlines()), node
    pair_csv, imp_csv = map("".join, zip(*chunks))
    assert (sha256(pair_csv), sha256(imp_csv)) == GOLDEN_LEDGER_DUMP


def test_golden_social_dump_past_the_last_contact(scenario):
    trace, workload = scenario
    sim = Simulation(
        desk_sim_config(
            trace, workload, "bubblerap", ttl=4 * DAY, buffer_capacity=GOLDEN_CAPACITY
        )
    )
    sim.run()
    sim.to_horizon()
    assert sim.horizon > max(ev.end for ev in trace.events) + 2 * DAY
    dumps = (
        communities_json(sim.communities),
        centrality_csv(sim.centralities, sim.communities, trace.node_count),
    )
    assert tuple(sha256(d) for d in dumps) == GOLDEN_SOCIAL_DUMP


def test_golden_dumps_of_the_plan_runner(tmp_path):
    # the dumps above, written by `run_experiment`, which brings each cell
    # to its horizon before its dumps
    cfg = golden_plan(tmp_path, ["bubblerap", "dlife"], [DAY, 4 * DAY])
    run_experiment(cfg, dump_ledgers=True)

    def hashes(router, ttl, *names):
        cell = cfg.out_dir / cell_dir_name(router, ttl, GOLDEN_SEED)
        return tuple(hashlib.sha256((cell / name).read_bytes()).hexdigest() for name in names)

    assert hashes("dlife", DAY, "ledger_pairs.csv", "ledger_importance.csv") == GOLDEN_LEDGER_DUMP
    social = hashes("bubblerap", 4 * DAY, "communities.json", "centrality.csv")
    assert social == GOLDEN_SOCIAL_DUMP


def short_ttl_sim(scenario, router):
    trace, workload = scenario
    return Simulation(
        desk_sim_config(
            trace, workload, router, ttl=GOLDEN_SHORT_TTL, buffer_capacity=GOLDEN_CAPACITY
        )
    )


@pytest.mark.parametrize("router", sorted(GOLDEN_SHORT_TTL_LOGS))
def test_golden_dumps_of_a_run_that_stops_early(scenario, router):
    sim = short_ttl_sim(scenario, router)
    assert sha256(sim.run().to_csv()) == GOLDEN_SHORT_TTL_LOGS[router]
    sim.to_horizon()
    if router == "dlife":
        pair_csv, imp_csv = map("".join, zip(*dump_ledgers_csv(sim.ledger)))
        assert (sha256(pair_csv), sha256(imp_csv)) == GOLDEN_LEDGER_DUMP
    else:
        dumps = (
            communities_json(sim.communities),
            centrality_csv(sim.centralities, sim.communities, sim.cfg.trace.node_count),
        )
        assert tuple(sha256(d) for d in dumps) == GOLDEN_SHORT_TTL_SOCIAL_DUMP


def test_a_golden_run_stops_at_its_last_expiry(scenario):
    # the contacts that start after the last expiry are left on the heap
    # by `run`, and `to_horizon` plays them, each once
    sim = short_ttl_sim(scenario, "bubblerap")
    started = []
    on_start = sim._on_contact_start

    def start(time, index):
        started.append(index)
        on_start(time, index)

    sim._on_contact_start = start
    log = sim.run()
    last_expiry = max(m.expires_at for m in sim.rows)
    assert log.records[-1][:2] == (last_expiry, KIND_EXPIRED)
    events = sim.cfg.trace.events
    assert max(events[i].start for i in started) <= last_expiry
    unplayed = sorted(set(range(len(events))) - set(started))
    assert min(events[i].start for i in unplayed) >= last_expiry
    assert len(unplayed) > len(events) / 5
    assert sim.horizon - last_expiry > 0.5 * DAY
    logged = len(log)
    sim.to_horizon()
    assert sorted(started) == list(range(len(events)))
    assert not sim._heap and not sim.ongoing
    assert len(sim.log) == logged

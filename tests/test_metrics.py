import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtnsim import (
    EventLog,
    LogRecord,
    MetricsError,
    MetricsFold,
    RunMetrics,
    aggregate_runs,
    compute_run_metrics,
)
from dtnsim.metrics import summarize

from oracles import split_at

# published two-sided 95% critical values (t table), used as the independent
# reference for the scipy-backed implementation
T_TABLE_DF1 = 12.706
T_TABLE_DF9 = 2.262157163


def created(msg, t=0.0, source=0, dest=1, size=1000):
    return LogRecord(t, "created", msg, source, dest, size)


def replicated(msg, t, src=0, dst=1):
    return LogRecord(t, "replicated", msg, src, dst)


def delivered(msg, t, src=0, dst=1):
    return LogRecord(t, "delivered", msg, src, dst)


def log_of(*records):
    return EventLog(list(records))


def test_delivery_probability_examples():
    log = log_of(
        *[created(f"m{i}", float(i)) for i in range(4)],
        replicated("m0", 100.0),
        delivered("m0", 100.0),
        replicated("m1", 150.0),
        delivered("m1", 150.0),
    )
    assert compute_run_metrics(log).delivery_probability == 0.5

    undelivered = log_of(created("m0"), created("m1"))
    assert compute_run_metrics(undelivered).delivery_probability == 0.0

    assert compute_run_metrics(log_of()).delivery_probability is None


def test_duplicate_deliveries_count_once():
    log = log_of(
        created("m0"),
        replicated("m0", 10.0),
        delivered("m0", 10.0),
        replicated("m0", 99.0, src=2),
        delivered("m0", 99.0, src=2),
    )
    rm = compute_run_metrics(log)
    assert rm.delivery_probability == 1.0
    assert rm.avg_latency == 10.0  # first delivery only


def test_average_cost_examples():
    # 10 replications, 5 delivered
    records = [created(f"m{i}", float(i)) for i in range(5)]
    for i in range(5):
        records.append(replicated(f"m{i}", 50.0 + i))
        records.append(delivered(f"m{i}", 50.0 + i))
        records.append(replicated(f"m{i}", 60.0 + i, src=3, dst=4))
    assert compute_run_metrics(log_of(*records)).avg_cost == 2.0

    # direct deliveries only: cost 1.0
    records = []
    for i in range(4):
        records.append(created(f"m{i}", float(i)))
        records.append(replicated(f"m{i}", 10.0 + i))
        records.append(delivered(f"m{i}", 10.0 + i))
    assert compute_run_metrics(log_of(*records)).avg_cost == 1.0

    # 7 replications including 3 for never-delivered messages, 2 delivered
    records = [created("a"), created("b"), created("lost")]
    records += [replicated("a", 1.0), delivered("a", 1.0), replicated("a", 2.0, dst=5)]
    records += [replicated("b", 3.0), delivered("b", 3.0), replicated("b", 3.5, dst=6)]
    records += [replicated("lost", 4.0), replicated("lost", 5.0), replicated("lost", 6.0)]
    assert compute_run_metrics(log_of(*records)).avg_cost == 3.5

    assert compute_run_metrics(log_of(created("m0"))).avg_cost is None


def test_average_latency_examples():
    log = log_of(created("m0"), replicated("m0", 100.0), delivered("m0", 100.0))
    assert compute_run_metrics(log).avg_latency == 100.0

    log = log_of(
        created("m0"),
        created("m1"),
        delivered("m0", 100.0),
        delivered("m1", 300.0),
    )
    assert compute_run_metrics(log).avg_latency == 200.0

    assert compute_run_metrics(log_of(created("m0"))).avg_latency is None


def test_compute_run_metrics_handles_undefined():
    rm = compute_run_metrics(log_of(created("m0")))
    assert rm.delivery_probability == 0.0
    assert rm.avg_cost is None and rm.avg_latency is None
    empty = compute_run_metrics(log_of())
    assert empty.delivery_probability is None


def test_delivery_of_an_uncreated_message_is_named():
    # a log cut short, or cut by hand, can deliver a message it never created
    log = [(0.0, "created", "m0", 0, 1, 5), (0.0, "delivered", "m1", 0, 1, None)]
    with pytest.raises(MetricsError, match="message m1 is delivered but never created"):
        compute_run_metrics(log)


def test_metrics_pure_under_causal_reordering():
    base = [
        created("m0", 0.0),
        created("m1", 1.0),
        replicated("m0", 10.0),
        delivered("m0", 10.0),
        replicated("m1", 20.0),
    ]
    reordered = [base[1], base[0], base[2], base[3], base[4]]
    assert compute_run_metrics(log_of(*base)) == compute_run_metrics(log_of(*reordered))


MSGS = ["m0", "m1", "m2"]
log_time = st.floats(-1e9, 1e9) | st.integers(-(10**9), 10**9)
# after every message's creation, records whose kinds and messages repeat,
# so that a split falls between a creation and its deliveries, and between
# a first and a later delivery
creations = st.tuples(*(st.builds(created, st.just(m), log_time) for m in MSGS))
later = st.builds(
    LogRecord,
    time=log_time,
    kind=st.sampled_from(["created", "replicated", "delivered", "expired_ttl"]),
    msg=st.sampled_from(MSGS),
    node=st.integers(0, 3),
)


@given(creations, st.lists(later, max_size=30), st.data())
def test_fold_over_any_split_matches_the_whole_log(first, rest, data):
    records = [*first, *rest]
    cuts = data.draw(st.sets(st.integers(0, len(records))))
    fold = MetricsFold()
    for piece in split_at(records, cuts):
        fold.add(piece)
    assert fold.metrics() == compute_run_metrics(records)


def test_summarize_examples():
    identical = summarize([0.25, 0.25, 0.25])
    assert identical.mean == 0.25 and identical.ci_half_width == 0.0

    two = summarize([0.4, 0.6])
    assert two.mean == 0.5
    sd = math.sqrt(0.02)
    assert two.ci_half_width == pytest.approx(T_TABLE_DF1 * sd / math.sqrt(2), rel=1e-4)
    assert two.ci_half_width == pytest.approx(1.2706, rel=1e-4)

    single = summarize([0.7])
    assert single.mean == 0.7 and single.ci_half_width is None


def test_summarize_matches_manual_oracle_ten_runs():
    rng = random.Random(99)
    values = [rng.uniform(0.2, 0.9) for _ in range(10)]
    result = summarize(values)
    mean = sum(values) / 10
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / 9)
    expected = T_TABLE_DF9 * sd / math.sqrt(10)
    assert math.isclose(result.mean, mean, rel_tol=1e-12)
    assert math.isclose(result.ci_half_width, expected, rel_tol=1e-9)


def test_aggregate_runs_skips_undefined():
    runs = [
        RunMetrics(0.5, 2.0, 100.0),
        RunMetrics(0.7, 4.0, 200.0),
        RunMetrics(0.0, None, None),
    ]
    agg = aggregate_runs(runs)
    assert agg.delivery.runs == 3
    assert agg.delivery.mean == pytest.approx(0.4)
    assert agg.cost.runs == 2
    assert agg.cost.mean == 3.0
    assert agg.latency.mean == 150.0

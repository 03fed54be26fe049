"""Delivery probability, replication cost, and latency over event logs, with
multi-run aggregation at a 95% confidence level."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from .engine import KIND_CREATED, KIND_DELIVERED, KIND_REPLICATED


class MetricsError(ValueError):
    """Metrics were asked of input that has none: a summary of zero values,
    or a log that delivers a message it never created."""


@dataclass(frozen=True)
class RunMetrics:
    """One run's results; cost and latency are None when nothing was delivered."""

    delivery_probability: float | None
    avg_cost: float | None
    avg_latency: float | None


class MetricsFold:
    """`compute_run_metrics` folded over a log one list of records at a time
    (records in `LogRecord` field order), so that a run's metrics need not
    wait for its whole log: `add` each list in log order, then read
    `metrics()`."""

    def __init__(self):
        self.created: dict[str, float] = {}
        self.first_delivery: dict[str, float] = {}
        self.replications = 0

    def add(self, records: Iterable[tuple]) -> None:
        created, first_delivery = self.created, self.first_delivery
        replications = 0
        for time, kind, msg, _, _, _ in records:
            if kind == KIND_CREATED:
                created[msg] = time
            elif kind == KIND_REPLICATED:
                replications += 1
            elif kind == KIND_DELIVERED:
                if msg not in first_delivery:
                    first_delivery[msg] = time
        self.replications += replications

    def metrics(self) -> RunMetrics:
        created, delivered = self.created, self.first_delivery
        uncreated = delivered.keys() - created.keys()
        if uncreated:
            raise MetricsError(f"message {min(uncreated)} is delivered but never created")
        if not created:
            return RunMetrics(None, None, None)
        delivery = len(delivered) / len(created)
        if not delivered:
            return RunMetrics(delivery, None, None)
        cost = self.replications / len(delivered)
        latency = sum(t - created[msg] for msg, t in delivered.items()) / len(delivered)
        return RunMetrics(delivery, cost, latency)


def compute_run_metrics(log: Iterable[tuple]) -> RunMetrics:
    """Delivery probability: distinct delivered messages over created ones.
    Cost: all replications ever made (delivered or not, the delivered copy
    included) per distinct delivered message. Latency: mean time from
    creation to first delivery, over delivered messages. `log` is any
    iterable of records in `LogRecord` field order; this is `MetricsFold`
    over it whole."""
    fold = MetricsFold()
    fold.add(log)
    return fold.metrics()


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    ci_half_width: float | None  # None when fewer than 2 runs
    runs: int


@dataclass(frozen=True)
class AggregateMetrics:
    delivery: MetricSummary | None
    cost: MetricSummary | None
    latency: MetricSummary | None


def summarize(values: Sequence[float], confidence: float = 0.95) -> MetricSummary:
    """Mean plus Student-t confidence half-width on the sample standard
    deviation (n-1 degrees of freedom)."""
    n = len(values)
    if n == 0:
        raise MetricsError("cannot summarize zero values")
    mean = sum(values) / n
    if n < 2:
        return MetricSummary(mean, None, n)
    # imported here, so that a run that aggregates no more than one value
    # per metric never loads scipy
    from scipy import stats

    sd = statistics.stdev(values)
    t_crit = float(stats.t.ppf(0.5 + confidence / 2.0, n - 1))
    return MetricSummary(mean, t_crit * sd / n**0.5, n)


def aggregate_runs(runs: Sequence[RunMetrics], confidence: float = 0.95) -> AggregateMetrics:
    """Aggregate per-run metrics; runs where a metric is undefined are
    excluded from that metric's summary (the reported count reflects it)."""

    def agg(values: list[float]) -> MetricSummary | None:
        return summarize(values, confidence) if values else None

    return AggregateMetrics(
        delivery=agg([r.delivery_probability for r in runs if r.delivery_probability is not None]),
        cost=agg([r.avg_cost for r in runs if r.avg_cost is not None]),
        latency=agg([r.avg_latency for r in runs if r.avg_latency is not None]),
    )

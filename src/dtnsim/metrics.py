"""Delivery probability, replication cost, and latency over event logs, with
multi-run aggregation at a 95% confidence level."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

from scipy import stats as scipy_stats

from .engine import EventLog, KIND_CREATED, KIND_DELIVERED, KIND_REPLICATED


class MetricsError(ValueError):
    """A metric summary was asked of zero values."""


def _scan(log: EventLog) -> tuple[dict[str, float], dict[str, float], int]:
    created: dict[str, float] = {}
    first_delivery: dict[str, float] = {}
    replications = 0
    for r in log:
        if r.kind == KIND_CREATED:
            created[r.msg] = r.time
        elif r.kind == KIND_REPLICATED:
            replications += 1
        elif r.kind == KIND_DELIVERED:
            if r.msg not in first_delivery:
                first_delivery[r.msg] = r.time
    return created, first_delivery, replications


@dataclass(frozen=True)
class RunMetrics:
    """One run's results; cost and latency are None when nothing was delivered."""

    delivery_probability: float | None
    avg_cost: float | None
    avg_latency: float | None


def compute_run_metrics(log: EventLog) -> RunMetrics:
    """Delivery probability: distinct delivered messages over created ones.
    Cost: all replications ever made (delivered or not, the delivered copy
    included) per distinct delivered message. Latency: mean time from
    creation to first delivery, over delivered messages."""
    created, delivered, replications = _scan(log)
    if not created:
        return RunMetrics(None, None, None)
    delivery = len(delivered) / len(created)
    if not delivered:
        return RunMetrics(delivery, None, None)
    cost = replications / len(delivered)
    latency = sum(t - created[msg] for msg, t in delivered.items()) / len(delivered)
    return RunMetrics(delivery, cost, latency)


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
    sd = statistics.stdev(values)
    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, n - 1))
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

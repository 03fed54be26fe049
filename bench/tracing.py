"""Per-layer tracing from outside the program.

`Tracer` wraps the public functions of each dtnsim module (and the
experiment's per-cell step, when it exists) with timers and counters for the
length of a `with` block, then restores them. A name that no longer exists
is skipped. A wrapper replaces a function wherever a
dtnsim module has bound it, so names taken with `from .x import f` are
traced too. Per-event calls are aggregated into count, total and self time;
only coarse phases (cell, materialize, init, run, recompute, serialize) are
kept as spans.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[dict] = []
        self._child_time: list[float] = []  # per open wrapped call: time in wrapped children
        self._open_spans: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cell_communities = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, key: str, span: str | None, on_result):
        perf = time.perf_counter
        stat = self.stats.setdefault(key, Stat())
        child_time = self._child_time
        open_spans = self._open_spans
        spans = self.spans

        def wrapper(*args, **kwargs):
            if span is not None:
                record = {"id": len(spans), "name": span,
                          "parent": open_spans[-1] if open_spans else None}
                spans.append(record)
                open_spans.append(record["id"])
            child_time.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child_time.pop()
                if child_time:
                    child_time[-1] += dt
                if span is not None:
                    open_spans.pop()
                    record["start"], record["end"] = t0, t1
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _patch_function(self, module, name: str, key: str, span=None, on_result=None) -> None:
        original = getattr(module, name, None)
        if original is None:
            return
        wrapper = self._wrap(original, key, span, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dtnsim" or mod_name.startswith("dtnsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, name: str, key: str, span=None, on_result=None) -> None:
        original = cls.__dict__.get(name)
        if original is None:
            return
        self._restore.append((cls, name, original))
        setattr(cls, name, self._wrap(original, key, span, on_result))

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def __enter__(self) -> "Tracer":
        from dtnsim import contacts, engine, experiment, ledger, metrics, routing
        from dtnsim import socialgraph, workload

        fn, meth = self._patch_function, self._patch_method
        fn(contacts, "generate_routine_trace", "contacts.generate")
        fn(contacts, "parse_contact_trace", "contacts.parse")
        fn(contacts, "split_contact_by_samples", "contacts.split")
        fn(workload, "generate_workload", "workload.generate")
        fn(workload, "parse_workload", "workload.parse")

        led = ledger.SocialLedger
        meth(led, "record_contact_fragment", "ledger.fragment")
        meth(led, "roll_sample", "ledger.roll")
        meth(led, "update_importance", "ledger.importance",
             on_result=lambda a, r: self._count("ledger.importance_inf", not math.isfinite(r)))
        meth(led, "weights_to_all_neighbors", "ledger.weights")

        def on_decide(args, decision):
            self._count("routing.offered", len(args[1].messages))
            self._count("routing.replicated", len(decision.replicate))

        fn(routing, "decide", "routing.decide", on_result=on_decide)

        sim = engine.Simulation
        meth(sim, "__init__", "engine.init", span="init")
        meth(sim, "run", "engine.run", span="run")
        meth(sim, "_on_recompute", "engine.recompute", span="recompute")
        fn(engine, "buffer_admit", "engine.admit",
           on_result=lambda a, r: self._count("engine.evicted", len(r[1])))
        fn(engine, "transfer_within_contact", "engine.transfer",
           on_result=lambda a, r: self._count("engine.aborted", len(r[1])))

        def on_kclique(args, communities):
            self._count("socialgraph.recompute_count", 1)
            self._cell_communities = len(communities.communities)

        fn(socialgraph, "build_familiar_graph", "socialgraph.familiar")
        fn(socialgraph, "k_clique_communities", "socialgraph.kclique", on_result=on_kclique)
        fn(socialgraph, "cumulative_window_centrality", "socialgraph.centrality",
           on_result=lambda a, r: self._count("socialgraph.contacts_scanned", len(a[0])))

        def on_serialized(args, text):
            self._count("eventlog.bytes", len(text))  # the log is ASCII

        def on_csv(args, text):
            on_serialized(args, text)
            self._count("eventlog.records", len(args[0]))

        meth(engine.EventLog, "to_csv", "eventlog.csv", span="serialize", on_result=on_csv)
        meth(engine.EventLog, "to_ndjson", "eventlog.ndjson", span="serialize",
             on_result=on_serialized)

        fn(metrics, "compute_run_metrics", "metrics.compute")

        def on_cell(args, result):
            # communities as of each cell's final recompute, summed over cells
            self._count("socialgraph.communities", self._cell_communities)
            self._cell_communities = 0

        fn(experiment, "materialize_scenario", "experiment.materialize", span="materialize")
        fn(experiment, "_run_cell", "experiment.cell", span="cell", on_result=on_cell)
        fn(experiment, "run_experiment", "experiment.run", span="plan")
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- reporting ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        s = lambda key: self.stats.get(key, Stat())
        c = lambda key: self.counts.get(key, 0)
        out: dict[str, tuple[float, str]] = {}

        def calls_and_time(key: str) -> None:
            out[f"{key}_calls"] = (s(key).calls, "count")
            out[f"{key}_s"] = (s(key).total_s, "s")

        out["contacts.generate_s"] = (s("contacts.generate").total_s, "s")
        out["contacts.parse_s"] = (s("contacts.parse").total_s, "s")
        calls_and_time("contacts.split")
        out["workload.generate_s"] = (s("workload.generate").total_s, "s")
        out["workload.parse_s"] = (s("workload.parse").total_s, "s")
        calls_and_time("ledger.fragment")
        calls_and_time("ledger.roll")
        calls_and_time("ledger.importance")
        importance_calls = s("ledger.importance").calls
        out["ledger.importance_inf_ratio"] = (
            c("ledger.importance_inf") / importance_calls if importance_calls else 0.0, "ratio")
        calls_and_time("ledger.weights")
        calls_and_time("routing.decide")
        offered = c("routing.offered")
        out["routing.offered"] = (offered, "count")
        out["routing.replicated"] = (c("routing.replicated"), "count")
        out["routing.useful_ratio"] = (
            c("routing.replicated") / offered if offered else 0.0, "ratio")
        out["engine.init_s"] = (s("engine.init").total_s, "s")
        out["engine.run_s"] = (s("engine.run").total_s, "s")
        out["engine.self_s"] = (s("engine.run").self_s, "s")
        calls_and_time("engine.admit")
        out["engine.evicted"] = (c("engine.evicted"), "count")
        calls_and_time("engine.transfer")
        out["engine.aborted"] = (c("engine.aborted"), "count")
        out["socialgraph.recompute_count"] = (c("socialgraph.recompute_count"), "count")
        out["socialgraph.familiar_s"] = (s("socialgraph.familiar").total_s, "s")
        out["socialgraph.kclique_s"] = (s("socialgraph.kclique").total_s, "s")
        out["socialgraph.centrality_s"] = (s("socialgraph.centrality").total_s, "s")
        out["socialgraph.contacts_scanned"] = (c("socialgraph.contacts_scanned"), "count")
        out["socialgraph.communities"] = (c("socialgraph.communities"), "count")
        out["eventlog.records"] = (c("eventlog.records"), "count")
        out["eventlog.csv_s"] = (s("eventlog.csv").total_s, "s")
        out["eventlog.ndjson_s"] = (s("eventlog.ndjson").total_s, "s")
        out["eventlog.bytes"] = (c("eventlog.bytes"), "B")
        out["metrics.compute_s"] = (s("metrics.compute").total_s, "s")
        out["experiment.materialize_calls"] = (s("experiment.materialize").calls, "count")
        out["experiment.materialize_s"] = (s("experiment.materialize").total_s, "s")
        out["experiment.self_s"] = (
            s("experiment.run").self_s + s("experiment.cell").self_s, "s")
        return out

    def write_spans(self, path: Path) -> None:
        """Write the coarse spans (seconds on the perf_counter clock)."""
        path.write_text(json.dumps({"spans": self.spans}, indent=1) + "\n")

"""Command line entry point: run experiment plans, compare result sets, and
generate or convert traces and workloads.

Exit codes: 0 ok, 1 run failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .contacts import (
    TRACE_FORMATS,
    ConfigError,
    RoutineSpec,
    generate_routine_trace,
    load_contact_trace,
    serialize_contact_trace,
)
from .experiment import (
    compare_results,
    comparison_csv,
    load_experiment_config_file,
    parse_results_csv,
    run_experiment,
)
from .workload import DEFAULT_SIZE_RANGE, generate_workload, serialize_workload

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtnsim",
        description="Contact-trace simulator for social opportunistic routing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment plan from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None, help="override the config's output directory")
    run.add_argument("--jobs", type=int, default=1,
                     help="parallel plan cells (default 1)")
    run.add_argument("--dump-ledgers", action="store_true",
                     help="also write per-node social-ledger debug CSVs")

    cmp_p = sub.add_parser("compare", help="compare two result CSVs over one plan")
    cmp_p.add_argument("results_a")
    cmp_p.add_argument("results_b")
    cmp_p.add_argument("--router-a", default=None)
    cmp_p.add_argument("--router-b", default=None)
    cmp_p.add_argument("--out", default=None, help="write the comparison as CSV")

    gt = sub.add_parser("gen-trace", help="generate a routine-driven contact trace")
    gt.add_argument("--spec", required=True, help="routine spec JSON file")
    gt.add_argument("--seed", type=int, default=0)
    gt.add_argument("--out", required=True)

    gw = sub.add_parser("gen-workload", help="generate a random message workload")
    gw.add_argument("--count", type=int, required=True)
    gw.add_argument("--nodes", type=int, required=True)
    gw.add_argument("--start", type=float, default=0.0)
    gw.add_argument("--end", type=float, required=True)
    gw.add_argument("--min-size", type=int, default=DEFAULT_SIZE_RANGE[0])
    gw.add_argument("--max-size", type=int, default=DEFAULT_SIZE_RANGE[1])
    gw.add_argument("--seed", type=int, default=0)
    gw.add_argument("--out", required=True)

    ct = sub.add_parser("convert-trace", help="convert a trace to canonical CSV")
    ct.add_argument("--in", dest="input", required=True)
    ct.add_argument("--format", choices=TRACE_FORMATS, default="haggle")
    ct.add_argument("--out", required=True)
    return parser


def _cmd_run(args) -> int:
    try:
        cfg = load_experiment_config_file(args.config)
        if args.out:
            cfg = dataclasses.replace(cfg, out_dir=Path(args.out))
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:  # also an output directory that cannot be made
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        results_path, aggregate_path = run_experiment(
            cfg, jobs=args.jobs, dump_ledgers=args.dump_ledgers
        )
    except ConfigError as exc:  # an input that only a read scenario or a cell shows to be bad
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a failed cell fails the whole plan
        print(f"run failure: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    print(results_path)
    print(aggregate_path)
    return EXIT_OK


def _cmd_compare(args) -> int:
    try:
        rows_a = parse_results_csv(Path(args.results_a).read_text())
        rows_b = parse_results_csv(Path(args.results_b).read_text())
        comparison = compare_results(rows_a, rows_b, args.router_a, args.router_b)
    except (ValueError, OSError) as exc:
        print(f"compare error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = comparison_csv(comparison)
    if args.out:
        return _write_outputs("compare", {args.out: text})
    print(text, end="")
    return EXIT_OK


def _cmd_gen_trace(args) -> int:
    try:
        spec = RoutineSpec.from_dict(json.loads(Path(args.spec).read_text()))
    except (ValueError, OSError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    trace = generate_routine_trace(spec, args.seed)
    return _write_outputs("spec", {args.out: serialize_contact_trace(trace)})


def _cmd_gen_workload(args) -> int:
    try:
        entries = generate_workload(
            args.count,
            args.nodes,
            (args.start, args.end),
            args.seed,
            size_range=(args.min_size, args.max_size),
        )
    except ValueError as exc:
        print(f"workload error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _write_outputs("workload", {args.out: serialize_workload(entries)})


def _cmd_convert_trace(args) -> int:
    try:
        trace, id_map = load_contact_trace(args.input, args.format)
    except (ValueError, OSError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    id_map_json = json.dumps({str(k): v for k, v in sorted(id_map.items())}, indent=0) + "\n"
    return _write_outputs("trace", {
        out: serialize_contact_trace(trace),
        out.with_suffix(out.suffix + ".nodemap.json"): id_map_json,
    })


def _write_outputs(what: str, texts: dict) -> int:
    """Write each text to its path, then print the paths; an OSError is a `what` error."""
    try:
        for path, text in texts.items():
            Path(path).write_text(text)
    except OSError as exc:
        print(f"{what} error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for path in texts:
        print(path)
    return EXIT_OK


_DISPATCH = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "gen-trace": _cmd_gen_trace,
    "gen-workload": _cmd_gen_workload,
    "convert-trace": _cmd_convert_trace,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return _DISPATCH[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())

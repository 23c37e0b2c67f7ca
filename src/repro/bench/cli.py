"""The ``bench`` CLI verb: run the tracked perf suite, diff it against baselines.

:func:`mount` adds it to the ``repro-experiments`` command tree
(:func:`repro.experiments.__main__.build_parser`).  It lives in this
package so that deleting :mod:`repro.bench` takes its verb with it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.suite import (
    baseline_series,
    compare_payloads,
    run_suite,
    trajectory_rows,
)
from repro.experiments.report import print_table, write_json

__all__ = ["mount"]


def _existing_path(text: str) -> str:
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"no such file or directory: {text}")
    return text


def mount(
    verbs, common: argparse.ArgumentParser, output: argparse.ArgumentParser
) -> None:
    """Add ``bench`` to the root's subparsers (``common``/``output``: the
    root's shared ``--log-level``/``--profile`` and ``--json`` parents)."""
    bench = verbs.add_parser(
        "bench",
        parents=[common, output],
        help="run the tracked performance suite (see repro.bench)",
        description="Run the deterministic performance suite and print its "
        "rates; --json records the repro.bench payload.",
    )
    bench.add_argument(
        "--bench-scale",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="scale the suite's durations and history sizes (default: 1.0, "
        "the committed-baseline scale)",
    )
    bench.add_argument(
        "--baseline",
        type=_existing_path,
        metavar="PATH",
        default=None,
        help="recorded BENCH_*.json to diff against, or a directory whose "
        "whole BENCH_<n>.json series is walked as an oldest->newest "
        "trajectory (report-only; exits 0 regardless of drift)",
    )
    bench.set_defaults(run=_run_bench, error=bench.error)


def _run_bench(args) -> int:
    try:
        payload = run_suite(scale=args.bench_scale)
    except ValueError as exc:
        args.error(str(exc))
    results = payload["results"]
    rows = [
        {
            "probe": "column_throughput",
            "metric": "events/sec",
            "value": round(results["column_throughput"]["events_per_sec"], 1),
        },
        *(
            {
                "probe": f"sgt @{entry['history_size']} updates",
                "metric": "checks/sec",
                "value": round(entry["checks_per_sec"], 1),
            }
            for entry in results["sgt_checks"]["by_size"]
        ),
        {
            "probe": "deplist_merge (k=5)",
            "metric": "merges/sec",
            "value": round(results["deplist_merge"]["merges_per_sec"], 1),
        },
        {
            "probe": "scenario (2 backends)",
            "metric": "txns/wall-sec",
            "value": round(results["scenario"]["transactions_per_wall_sec"], 1),
        },
        *(
            {
                "probe": f"commit_path ({topology.replace('_', ' ')})",
                "metric": "commits/sec",
                "value": round(results["commit_path"][topology]["commits_per_sec"], 1),
            }
            for topology in ("one_participant", "two_shards")
        ),
        *(
            {
                "probe": f"kernel_sleep ({schedule.replace('_', '-')})",
                "metric": "wake-ups/sec",
                "value": round(results["kernel_sleep"][schedule]["wakeups_per_sec"], 1),
            }
            for schedule in ("tie_free", "tie_heavy")
        ),
        {
            "probe": "telemetry off",
            "metric": "events/sec",
            "value": round(
                results["telemetry_overhead"]["untraced_events_per_sec"], 1
            ),
        },
        {
            "probe": "telemetry on (all categories)",
            "metric": "events/sec",
            "value": round(
                results["telemetry_overhead"]["traced_events_per_sec"], 1
            ),
        },
    ]
    print_table(rows, title=f"Bench suite (scale={args.bench_scale:g})")
    if args.json_path:
        # Written before the baseline diff: a completed suite run is never
        # lost to a failed comparison (e.g. a scale mismatch).
        write_json(args.json_path, payload)
        print(f"[wrote {args.json_path}]")
    if args.baseline is not None:
        if os.path.isdir(args.baseline):
            return _print_bench_trajectory(args.baseline, payload)
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
        try:
            drift = compare_payloads(payload, baseline)
        except ValueError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print()
        print_table(drift, title=f"Drift vs {args.baseline} (report-only)")
        slower = [row["metric"] for row in drift if row["regressed"]]
        if slower:
            print(f"[report-only: slower than baseline tolerance on {slower}]")
    return 0


def _print_bench_trajectory(directory: str, payload: dict) -> int:
    """``bench --baseline <dir>``: the whole ``BENCH_<n>.json`` series.

    Walks every committed baseline oldest -> newest and appends the run
    just finished as the newest point when its scale matches (a smoke-scale
    run against full-scale baselines still prints the committed
    trajectory, report-only, with a note).
    """
    paths = baseline_series(directory)
    if not paths:
        print(f"bench: no BENCH_<n>.json series in {directory}", file=sys.stderr)
        return 1
    series = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            name = os.path.splitext(os.path.basename(path))[0]
            series.append((name, json.load(handle)))
    if payload.get("scale") == series[-1][1].get("scale"):
        series.append(("current", payload))
    else:
        print(
            f"[current run at scale {payload.get('scale')} excluded from the "
            f"scale-{series[-1][1].get('scale')} trajectory]"
        )
    try:
        rows = trajectory_rows(series)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print()
    print_table(
        rows,
        title=f"Trajectory {series[0][0]} -> {series[-1][0]} (report-only)",
    )
    slower = [row["metric"] for row in rows if row["regressed"]]
    if slower:
        print(f"[report-only: below trajectory tolerance on {slower}]")
    return 0

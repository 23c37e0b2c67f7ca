"""Command-line entry point for the paper's experiments.

Run any figure's sweep, fan its columns across worker processes — or
across *hosts* — print the series it plots, and optionally write a
machine-readable artifact::

    python -m repro.experiments fig3
    python -m repro.experiments fig7c --duration 20 --jobs 4
    python -m repro.experiments fig8 --jobs 4 --json fig8.json
    python -m repro.experiments scenario --edges 4 --backends 2 --json fleets.json
    python -m repro.experiments scenario --spec saved-scenario.json
    python -m repro.experiments all --duration 15

    # distributed: a daemon that lives for this run + any number of workers
    python -m repro.experiments fig3 --dispatch 0.0.0.0:7643 --json fig3.json
    python -m repro.experiments worker --connect serving-host:7643

    # fleet: a long-lived daemon serving many named sweeps with priorities
    python -m repro.experiments fleet serve --port 7650 --journal-dir journals/
    python -m repro.experiments worker --connect daemon-host:7650 --max-idle 60
    python -m repro.experiments fig3 --fleet daemon-host:7650 --json fig3.json
    python -m repro.experiments fleet status --connect daemon-host:7650

    # performance: the tracked bench suite, and profiling any experiment
    python -m repro.experiments bench --json BENCH.json --baseline BENCH_5.json
    python -m repro.experiments fig3 --duration 5 --profile fig3.prof

    # observability: deterministic traces and live fleet metrics
    python -m repro.experiments fig3 --trace fig3.jsonl --chrome-trace fig3.trace.json
    python -m repro.experiments fleet status --connect daemon-host:7650 --metrics

Experiment ids: fig3, fig4, fig5, fig6, fig7ab, fig7c, fig7d, fig8,
theorem1, sensitivity, scenario, protocol-race — plus three
non-experiment commands:
``worker``, a dispatch worker process; ``bench``, the deterministic
performance suite (see :mod:`repro.bench`; ``--bench-scale`` shrinks it,
``--baseline`` prints report-only drift against a recorded ``BENCH_*.json``);
and ``fleet``, the long-lived queue daemon and its submitter verbs
(``serve``/``submit``/``status``/``cancel`` — see
:mod:`repro.dispatch.daemon`; the shared secret always comes from the
``REPRO_FLEET_SECRET`` environment variable, never argv).
``--profile PATH`` wraps any command in :mod:`cProfile` and dumps the stats
file for ``pstats``/snakeviz.  ``scenario`` runs the
multi-edge library fleets (heterogeneous loss ramp sized by ``--edges``,
geo-skewed regions, flash crowd, plus — with ``--backends >= 2`` — the
routed backend tiers, the region-failure drill and the capacity-planning
grid) and reports per-edge rows, per-backend rows and fleet aggregates;
``scenario --spec file.json`` instead replays one scenario recorded with
``ScenarioSpec.as_dict`` (e.g. from a ``--json`` artifact).
``protocol-race`` races every registered consistency protocol
(:mod:`repro.protocols` — the paper's detector, causal, verified-read,
locking) across the library fleets and ranks them on inconsistency rate
vs read latency vs backend load.  ``--jobs``
defaults to every available CPU; ``--jobs 1`` runs serially and produces
identical series for the same root seed.  ``--dispatch HOST:PORT`` serves
every sweep of the experiment to remote workers instead of a local pool —
same bytes out, see :mod:`repro.dispatch`.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from functools import partial

from repro.dispatch import (
    DispatchSpec,
    FaultPlan,
    FleetSpec,
    parse_hostport,
    run_worker,
)
from repro.experiments import (
    fig3_alpha,
    fig4_convergence,
    fig5_drift,
    fig6_strategies,
    fig7_realistic,
    fig8_strategies,
    protocol_race,
    realistic,
    scenarios,
    sensitivity,
    theorem1,
)
from repro.experiments.report import (
    ARTIFACT_SCHEMA,
    experiment_payload,
    print_table,
    write_json,
)
from repro.errors import ConfigurationError, CoordinatorUnreachable, DispatchError
from repro.experiments.sweep import resolve_jobs, spec_artifact


def _hostport_type(text: str) -> tuple[str, int]:
    """argparse adapter around :func:`parse_hostport`'s validation."""
    try:
        return parse_hostport(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc))


_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _log_level_arg(text: str) -> str:
    level = text.upper()
    if level not in _LOG_LEVELS:
        raise argparse.ArgumentTypeError(
            f"expected one of {', '.join(_LOG_LEVELS)}, got {text!r}"
        )
    return level


def _configure_logging(level: str) -> None:
    """Root handler for the ``repro.dispatch.*`` diagnostic loggers.

    The daemon's lifecycle notes, the journal's truncated-tail warnings and
    the worker's per-sweep progress all flow through stdlib ``logging`` so
    operators can silence or redirect them; experiment tables and artifacts
    stay on plain stdout regardless of level.
    """
    logging.basicConfig(
        level=getattr(logging, level), format="[%(name)s] %(message)s"
    )


def _jobs_arg(text: str) -> int:
    """argparse adapter around :func:`resolve_jobs`'s validation."""
    try:
        return resolve_jobs(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc))


#: A printed/serialised unit: title + full rows (+ display stride for the
#: long time series, which are sampled on the terminal but kept whole in
#: ``--json`` artifacts).
Section = dict


def _section(title: str, rows: list[dict], stride: int = 1) -> Section:
    return {"title": title, "rows": rows, "stride": stride}


#: The experiments that are one sweep printed under one title.
_SINGLE_SWEEPS = {
    "fig3": (
        "Figure 3: detected inconsistencies vs Pareto alpha",
        fig3_alpha.run,
        fig3_alpha.spec,
    ),
    "fig6": (
        "Figure 6: strategies (synthetic, alpha=1)",
        fig6_strategies.run,
        fig6_strategies.spec,
    ),
    "fig7c": (
        "Figure 7c: dependency-list sweep",
        fig7_realistic.run_deplist_sweep,
        fig7_realistic.deplist_spec,
    ),
    "fig7d": (
        "Figure 7d: TTL sweep",
        fig7_realistic.run_ttl_sweep,
        fig7_realistic.ttl_spec,
    ),
    "fig8": (
        "Figure 8: strategies (realistic, k=3)",
        fig8_strategies.run,
        fig8_strategies.spec,
    ),
    "theorem1": ("Theorem 1: unbounded T-Cache", theorem1.run, theorem1.spec),
}


def _run_single_sweep(name: str, duration: float, jobs: int, dispatch=None):
    title, run, spec = _SINGLE_SWEEPS[name]
    rows = run(duration=duration, jobs=jobs, dispatch=dispatch)
    return [_section(title, rows)], [spec(duration=duration)]


def _run_fig4(duration: float, jobs: int, dispatch=None):
    scale = duration / 30.0
    rows = fig4_convergence.run(
        duration=160.0 * scale,
        switch_time=58.0 * scale,
        jobs=jobs,
        dispatch=dispatch,
    )
    summaries = fig4_convergence.phase_summaries(rows, switch_time=58.0 * scale)
    sections = [
        _section(
            "Figure 4: convergence (sampled windows)",
            rows,
            stride=max(1, len(rows) // 24),
        ),
        _section(
            "phase means [txn/s]",
            [
                {"phase": "before", **summaries["before"]},
                {"phase": "after", **summaries["after"]},
            ],
        ),
    ]
    return sections, [
        fig4_convergence.spec(duration=160.0 * scale, switch_time=58.0 * scale)
    ]


def _run_fig5(duration: float, jobs: int, dispatch=None):
    scale = duration / 30.0
    rows = fig5_drift.run(
        duration=800.0 * scale,
        shift_interval=180.0 * scale,
        window=5.0 * scale,
        jobs=jobs,
        dispatch=dispatch,
    )
    sections = [
        _section(
            "Figure 5: drifting clusters (sampled)",
            rows,
            stride=max(1, len(rows) // 32),
        ),
        _section(
            "spike profile",
            [fig5_drift.shift_spike_profile(rows, 180.0 * scale)],
        ),
    ]
    return sections, [
        fig5_drift.spec(
            duration=800.0 * scale,
            shift_interval=180.0 * scale,
            window=5.0 * scale,
        )
    ]


def _run_fig7ab(duration: float, jobs: int, dispatch=None):
    # Pure graph analysis: no simulation grid, nothing to dispatch.
    sections = [
        _section("Figure 7ab: topology statistics", realistic.run(jobs=jobs))
    ]
    return sections, []


def _run_scenario(
    duration: float,
    jobs: int,
    dispatch=None,
    edges: int = 3,
    backends: int = 2,
    spec_path: str | None = None,
    spec_duration: float | None = None,
):
    if spec_path is not None:
        # An explicit --duration overrides the recorded duration; without
        # it the replay honours what the spec file says.
        sweep_spec, per_edge, per_backend, per_fleet = scenarios.run_spec_file(
            spec_path, duration=spec_duration, jobs=jobs, dispatch=dispatch
        )
        specs = [sweep_spec]
    else:
        per_edge, per_backend, per_fleet = scenarios.run(
            edges=edges,
            backends=backends,
            duration=duration,
            jobs=jobs,
            dispatch=dispatch,
        )
        specs = [scenarios.spec(edges=edges, backends=backends, duration=duration)]
    sections = [
        _section("Scenarios: per-edge view", per_edge),
        _section("Scenarios: per-backend view", per_backend),
        _section("Scenarios: fleet aggregates", per_fleet),
    ]
    return sections, specs


def _run_protocol_race(duration: float, jobs: int, dispatch=None):
    rows, ranking, _payload = protocol_race.run(
        duration=duration, jobs=jobs, dispatch=dispatch
    )
    sections = [
        _section("Protocol race: per-scenario rows", rows),
        _section("Protocol race: ranking (fewest inconsistencies, then cheapest reads)", ranking),
    ]
    return sections, [protocol_race.spec(duration=duration)]


def _run_sensitivity(duration: float, jobs: int, dispatch=None):
    half = duration / 2.0
    sections = [
        _section(
            "Sensitivity: cluster size vs k",
            sensitivity.run_cluster_size_vs_k(
                duration=half, jobs=jobs, dispatch=dispatch
            ),
        ),
        _section(
            "Sensitivity: invalidation loss sweep",
            sensitivity.run_loss_sweep(duration=half, jobs=jobs, dispatch=dispatch),
        ),
        _section(
            "Sensitivity: update pressure sweep",
            sensitivity.run_update_pressure_sweep(
                duration=half, jobs=jobs, dispatch=dispatch
            ),
        ),
    ]
    return sections, [
        sensitivity.cluster_size_vs_k_spec(duration=half),
        sensitivity.loss_spec(duration=half),
        sensitivity.update_pressure_spec(duration=half),
    ]


EXPERIMENTS = {
    "fig3": partial(_run_single_sweep, "fig3"),
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": partial(_run_single_sweep, "fig6"),
    "fig7ab": _run_fig7ab,
    "fig7c": partial(_run_single_sweep, "fig7c"),
    "fig7d": partial(_run_single_sweep, "fig7d"),
    "fig8": partial(_run_single_sweep, "fig8"),
    "theorem1": partial(_run_single_sweep, "theorem1"),
    "sensitivity": _run_sensitivity,
    "scenario": _run_scenario,
    "protocol-race": _run_protocol_race,
}


def _run_bench_command(args, parser: argparse.ArgumentParser) -> int:
    """The ``bench`` command: run the tracked perf suite (see repro.bench)."""
    import json

    from repro.bench import compare_payloads, run_suite

    try:
        payload = run_suite(scale=args.bench_scale)
    except ValueError as exc:
        parser.error(str(exc))
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
    import json

    from repro.bench import baseline_series, trajectory_rows

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


def _run_worker_command(args, parser: argparse.ArgumentParser) -> int:
    """The ``worker`` command: serve fleet daemons at one address.

    Reconnects whenever a daemon says ``done`` or goes away (multi-sweep
    experiments like ``sensitivity`` under ``--dispatch`` start several
    one-sweep daemons back to back); exits once no daemon appears within
    ``--connect-timeout`` seconds, or — against a long-lived daemon, which
    only ever says ``wait`` — once the queue stays empty past
    ``--max-idle``.  Exit code 0 if at least one sweep was served
    before going idle (always 0 for a clean ``--max-idle`` exit: a drained
    fleet is success even for a worker that arrived late), 1 for a worker
    that never served anything or was refused (e.g. a protocol version
    mismatch or failed auth challenge) — refusals are real failures however
    many sweeps came before.
    """
    logger = logging.getLogger("repro.dispatch.worker")
    host, port = args.connect
    faults = args.fault
    runs = 0
    while True:
        try:
            stats = run_worker(
                host,
                port,
                name=args.worker_name,
                faults=faults,
                connect_timeout=args.connect_timeout,
                max_idle=args.max_idle,
            )
        except CoordinatorUnreachable as exc:
            if runs:
                logger.info("worker idle, served %d sweep(s); exiting", runs)
                return 0
            logger.error("%s", exc)
            return 1
        except DispatchError as exc:
            # Reachable but refused (handshake/version/auth failure):
            # always loud.
            logger.error("%s", exc)
            return 1
        runs += 1
        logger.info(
            "sweep %d: %d points in %d chunk(s), %d duplicate(s), "
            "%d heartbeat(s)%s",
            runs,
            stats.points_executed,
            stats.chunks_received,
            stats.duplicate_results,
            stats.heartbeats,
            ", disconnected" if stats.disconnected else "",
        )
        if stats.idled_out:
            logger.info(
                "worker idle past %gs (%d fleet sweep(s) served); exiting",
                args.max_idle,
                stats.sweeps_served,
            )
            return 0


def _run_fleet_command(argv: list[str]) -> int:
    """The ``fleet`` command family: serve a daemon, or talk to one.

    ``serve`` runs the long-lived queue daemon in the foreground;
    ``submit``/``status``/``cancel`` are submitter verbs against a running
    daemon.  The shared secret is read from the ``REPRO_FLEET_SECRET``
    environment variable on every verb — never from argv, where it would
    leak into process listings and shell history.
    """
    import json

    from repro.dispatch.client import (
        FleetClient,
        fleet_sweep_name,
        run_fleet_sweep,
    )
    from repro.dispatch.daemon import FleetConfig, run_daemon
    from repro.dispatch.auth import secret_from_env
    from repro.errors import AuthenticationError
    from repro.experiments.sweep import SweepSpec

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments fleet",
        description="Durable multi-sweep queue daemon (see "
        "repro.dispatch.daemon) and its submitter verbs.  Shared secret: "
        "the REPRO_FLEET_SECRET environment variable (unset = open daemon).",
    )
    # Shared by every verb so the flag reads naturally after the verb
    # (``fleet serve --log-level DEBUG``), the way the other per-verb
    # options do.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level",
        type=_log_level_arg,
        metavar="LEVEL",
        default="INFO",
        help="threshold for the repro.dispatch.* diagnostic loggers "
        "(DEBUG/INFO/WARNING/ERROR/CRITICAL; default: INFO)",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    serve = verbs.add_parser(
        "serve",
        parents=[common],
        help="run the daemon in the foreground (SIGINT/SIGTERM exit)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=7650,
        help="bind port (default: 7650; 0 picks a free port and logs it)",
    )
    serve.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help="append-only JSONL journals: every completed point lands here "
        "and a restarted daemon resumes from them (default: no journal)",
    )
    serve.add_argument(
        "--lease-timeout",
        type=float,
        metavar="SECONDS",
        default=30.0,
        help="reassign a worker's chunk this long after its last sign of "
        "life (default: 30)",
    )
    serve.add_argument(
        "--fsync",
        action="store_true",
        help="fsync the journal after every point (slower; survives power "
        "loss, not just process death)",
    )
    serve.add_argument(
        "--journal-expiry",
        type=float,
        metavar="SECONDS",
        default=None,
        help="at startup, archive finished journals idle for this long to "
        "<journal-dir>/archive/ so restore and status stay O(active "
        "sweeps); 0 archives every finished journal (default: keep all)",
    )

    def _client_args(
        sub: argparse.ArgumentParser, *, required: bool = True
    ) -> None:
        sub.add_argument(
            "--connect",
            type=_hostport_type,
            metavar="HOST:PORT",
            required=required,
            help="the daemon to talk to",
        )
        sub.add_argument(
            "--connect-timeout",
            type=float,
            metavar="SECONDS",
            default=30.0,
            help="keep retrying an unreachable daemon this long per "
            "operation (default: 30)",
        )

    submit = verbs.add_parser(
        "submit", parents=[common], help="submit a sweep-spec JSON file"
    )
    _client_args(submit)
    submit.add_argument(
        "spec_path",
        metavar="SPEC.json",
        help="a sweep spec payload (SweepSpec.as_dict — e.g. one of the "
        "sweep_specs entries of a --json artifact)",
    )
    submit.add_argument(
        "--name",
        default=None,
        help="sweep name (default: content-derived, so resubmitting the "
        "same spec resumes it instead of recomputing)",
    )
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="higher priorities drain first; ties serve in submission "
        "order (default: 0)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the sweep drains and fetch its results",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="with --wait: give up after this long (default: wait forever, "
        "riding out daemon restarts)",
    )
    submit.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="with --wait: write the completed SweepResult artifact here",
    )

    status = verbs.add_parser(
        "status",
        parents=[common],
        help="print sweep, worker and daemon status tables",
    )
    _client_args(status, required=False)
    status.add_argument("--sweep", default=None, help="only this sweep's row")
    status.add_argument(
        "--metrics",
        action="store_true",
        help="print the daemon's live repro.telemetry/1 snapshot instead of "
        "the status tables: per-sweep throughput and journal lag, worker "
        "EWMA rates, lease churn (live daemons only)",
    )
    status.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help="offline mode: summarise this journal directory instead of "
        "asking a live daemon — backed by the stat-cached index, so a "
        "directory full of finished sweeps costs one stat per file",
    )

    cancel = verbs.add_parser(
        "cancel", parents=[common], help="cancel a sweep and tear up its leases"
    )
    _client_args(cancel)
    cancel.add_argument("sweep", help="the sweep name to cancel")

    args = parser.parse_args(argv)
    _configure_logging(args.log_level)

    if args.verb == "serve":
        try:
            run_daemon(
                FleetConfig(
                    host=args.host,
                    port=args.port,
                    journal_dir=args.journal_dir,
                    lease_timeout=args.lease_timeout,
                    fsync=args.fsync,
                    journal_expiry=args.journal_expiry,
                )
            )
        except (DispatchError, ConfigurationError, OSError) as exc:
            print(f"fleet serve: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.verb == "submit" and args.json_path and not args.wait:
        parser.error("--json requires --wait (results exist only once drained)")
    if args.verb == "submit" and args.timeout is not None and not args.wait:
        parser.error("--timeout requires --wait")

    if args.verb == "status" and args.journal_dir is not None:
        if args.connect is not None:
            parser.error("--journal-dir and --connect are mutually exclusive")
        if args.metrics:
            parser.error(
                "--metrics needs a live daemon (--connect); journals record "
                "results, not rates"
            )
        from repro.dispatch.journal import journal_index
        from repro.errors import JournalError

        try:
            entries = journal_index(args.journal_dir)
        except (JournalError, OSError) as exc:
            print(f"fleet status: {exc}", file=sys.stderr)
            return 1
        if args.sweep is not None:
            entries = [e for e in entries if e.name == args.sweep]
        print_table(
            [
                {
                    "sweep": entry.name,
                    "state": "done" if entry.finished else "partial",
                    "completed": entry.completed,
                    "total": entry.total,
                    "priority": entry.priority,
                    "fingerprint": entry.fingerprint.removeprefix("sha256:")[
                        :12
                    ],
                }
                for entry in entries
            ],
            title=f"Journalled sweeps in {args.journal_dir}",
        )
        return 0
    if args.verb == "status" and args.connect is None:
        parser.error(
            "status needs --connect (live daemon) or --journal-dir (offline)"
        )

    host, port = args.connect
    try:
        if args.verb == "submit":
            with open(args.spec_path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict) or "columns" not in payload:
                parser.error(
                    f"{args.spec_path} is not a sweep spec payload (no "
                    "'columns' key — pass a SweepSpec.as_dict file, e.g. a "
                    "sweep_specs entry of a --json artifact)"
                )
            # Rebuild locally first: an unportable or corrupt spec must
            # fail here, not as a daemon-side refusal.
            spec = SweepSpec.from_dict(payload)
            name = args.name or fleet_sweep_name(spec)
            if args.wait:
                result = run_fleet_sweep(
                    spec,
                    FleetSpec(
                        host=host,
                        port=port,
                        priority=args.priority,
                        name=name,
                        connect_timeout=args.connect_timeout,
                        wait_timeout=args.timeout,
                    ),
                )
                print(
                    f"[sweep {name!r} complete: {len(result.results)} "
                    f"point(s), {result.jobs} worker(s)]"
                )
                if args.json_path:
                    write_json(args.json_path, result.to_artifact())
                    print(f"[wrote {args.json_path}]")
                return 0
            client = FleetClient(
                host,
                port,
                secret=secret_from_env(),
                connect_timeout=args.connect_timeout,
            )
            reply = client.submit(spec, name=name, priority=args.priority)
            # An attach keeps the daemon's original priority; only echo
            # ours when this submission actually set it.
            suffix = f", priority {args.priority}" if reply.get("created") else ""
            verb = "submitted" if reply.get("created") else "attached"
            print(
                f"[sweep {name!r} {verb}: {reply.get('completed')}/"
                f"{reply.get('total')} done, state {reply.get('state')}{suffix}]"
            )
            return 0
        client = FleetClient(
            host,
            port,
            secret=secret_from_env(),
            connect_timeout=args.connect_timeout,
        )
        if args.verb == "status":
            if args.metrics:
                from repro.telemetry import validate_telemetry

                if args.sweep is not None:
                    parser.error("--metrics reports the whole daemon; drop --sweep")
                section = client.metrics().get("telemetry")
                validate_telemetry(section)
                rows = [
                    {"metric": name, "kind": "counter", "value": value}
                    for name, value in section["counters"].items()
                ] + [
                    {"metric": name, "kind": "gauge", "value": value}
                    for name, value in section["gauges"].items()
                ]
                print_table(
                    rows, title=f"Daemon metrics ({section['schema']})"
                )
                return 0
            report = client.status(args.sweep)
            print_table(report.get("sweeps", []), title="Fleet sweeps")
            print()
            print_table(report.get("workers", []), title="Fleet workers")
            print()
            print_table([report.get("daemon", {})], title="Daemon")
            return 0
        reply = client.cancel(args.sweep)
        if reply.get("existed"):
            print(f"[sweep {args.sweep!r} cancelled]")
            return 0
        print(f"fleet cancel: no sweep named {args.sweep!r}", file=sys.stderr)
        return 1
    except AuthenticationError as exc:
        print(f"fleet {args.verb}: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, DispatchError) as exc:
        print(f"fleet {args.verb}: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"fleet {args.verb}: {exc}", file=sys.stderr)
        return 1


def _with_profile(path: str | None, work):
    """Run ``work()`` — under :mod:`cProfile` when ``--profile`` was given."""
    if path is None:
        return work()
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return work()
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        print(
            f"[profile written to {path}; inspect with "
            f"'python -m pstats {path}' or snakeviz]"
        )


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["fleet"]:
        # The fleet family has verbs of its own (serve/submit/status/cancel)
        # and shares nothing with the figure flags; parse it separately.
        return _run_fleet_command(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the figures of the T-Cache paper.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all", "worker", "bench", "fleet"],
        help="which figure to regenerate, 'worker' to pull work from a "
        "--dispatch run or a fleet daemon, 'bench' to run the tracked "
        "performance suite, or 'fleet serve|submit|status|cancel' for the "
        "long-lived sweep-queue daemon",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="measured simulated seconds per run (default: 30, the paper "
        "scale; in `scenario --spec` replays the default is the recorded "
        "duration)",
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=None,
        help="worker processes for sweep columns (default: all CPUs; 1 = serial)",
    )
    parser.add_argument(
        "--edges",
        type=int,
        default=3,
        help="edge count for the scenario experiment's loss-ramp fleet "
        "(default: 3; ignored by the figure experiments)",
    )
    parser.add_argument(
        "--backends",
        type=int,
        default=2,
        help="backend count for the scenario experiment's routed-tier "
        "fleets (default: 2; 1 disables them; ignored by the figure "
        "experiments)",
    )
    parser.add_argument(
        "--spec",
        dest="spec_path",
        metavar="PATH",
        default=None,
        help="replay one scenario from a ScenarioSpec.as_dict JSON file "
        "(scenario experiment only; overrides --edges/--backends)",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="write the full (unsampled) rows plus run metadata as JSON "
        "(for bench: the repro.bench payload)",
    )
    parser.add_argument(
        "--profile",
        dest="profile_path",
        metavar="PATH",
        default=None,
        help="run under cProfile and dump the stats file here",
    )
    telemetry_group = parser.add_argument_group(
        "telemetry (see repro.telemetry)"
    )
    telemetry_group.add_argument(
        "--trace",
        dest="trace_path",
        metavar="PATH",
        default=None,
        help="trace every sweep point (kernel dispatch, cache, channel, "
        "SGT, protocol decisions) and write the records as JSONL here; "
        "byte-identical across --jobs/--dispatch/--fleet modulo the "
        "wall-clock header line",
    )
    telemetry_group.add_argument(
        "--chrome-trace",
        dest="chrome_trace_path",
        metavar="PATH",
        default=None,
        help="with --trace: also write the records in Chrome trace_event "
        "JSON for chrome://tracing / Perfetto",
    )
    telemetry_group.add_argument(
        "--log-level",
        type=_log_level_arg,
        metavar="LEVEL",
        default="INFO",
        help="threshold for the repro.dispatch.* diagnostic loggers "
        "(DEBUG/INFO/WARNING/ERROR/CRITICAL; default: INFO)",
    )
    bench_group = parser.add_argument_group("performance suite (see repro.bench)")
    bench_group.add_argument(
        "--bench-scale",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="bench command only: scale the suite's durations and history "
        "sizes (default: 1.0, the committed-baseline scale)",
    )
    bench_group.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="bench command only: recorded BENCH_*.json to diff against, or "
        "a directory whose whole BENCH_<n>.json series is walked as an "
        "oldest->newest trajectory (report-only; exits 0 regardless of "
        "drift)",
    )

    def _fault_arg(text: str) -> FaultPlan:
        try:
            return FaultPlan.parse(text)
        except ConfigurationError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    dispatch_group = parser.add_argument_group(
        "distributed sweeps (see repro.dispatch)"
    )
    dispatch_group.add_argument(
        "--dispatch",
        type=_hostport_type,
        metavar="HOST:PORT",
        default=None,
        help="serve the experiment's sweeps to remote workers from a "
        "journal-less fleet daemon at this address, one per sweep, instead "
        "of running a local pool (results are identical; "
        "REPRO_FLEET_SECRET, if set, is demanded of the workers)",
    )
    dispatch_group.add_argument(
        "--connect",
        type=_hostport_type,
        metavar="HOST:PORT",
        default=None,
        help="worker command only: the daemon to pull work from",
    )
    dispatch_group.add_argument(
        "--connect-timeout",
        type=float,
        metavar="SECONDS",
        default=30.0,
        help="worker: how long to wait for a daemon before giving up "
        "(default: 30)",
    )
    dispatch_group.add_argument(
        "--worker-name",
        metavar="NAME",
        default=None,
        help="worker: name reported to the daemon (default: worker-PID)",
    )
    dispatch_group.add_argument(
        "--fault",
        type=_fault_arg,
        metavar="KIND:N[:SECS]",
        default=None,
        help="worker failure drill: crash:N (die hard after N points), "
        "stall:N:SECS (go silent mid-run), disconnect:N",
    )
    fleet_group = parser.add_argument_group(
        "fleet daemon (see repro.dispatch.daemon; secret via REPRO_FLEET_SECRET)"
    )
    fleet_group.add_argument(
        "--fleet",
        type=_hostport_type,
        metavar="HOST:PORT",
        default=None,
        help="submit the experiment's sweeps to a running fleet daemon "
        "('fleet serve') instead of starting one per sweep — identical resubmissions "
        "resume from the daemon's journal (results are identical either way)",
    )
    fleet_group.add_argument(
        "--fleet-priority",
        type=int,
        metavar="N",
        default=0,
        help="with --fleet: queue priority (higher drains first; default: 0)",
    )
    fleet_group.add_argument(
        "--fleet-wait-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="with --fleet: give up if a sweep has not drained in time "
        "(default: wait forever, riding out daemon restarts)",
    )
    fleet_group.add_argument(
        "--max-idle",
        type=float,
        metavar="SECONDS",
        default=None,
        help="worker: exit once the fleet queue stays empty this long — a "
        "daemon never says done (default: wait forever)",
    )
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    if args.chrome_trace_path is not None and args.trace_path is None:
        parser.error("--chrome-trace requires --trace (it converts the JSONL)")
    if args.experiment in ("worker", "bench") and args.trace_path is not None:
        # Workers trace when the point they pull says so; the bench suite
        # measures tracing itself (telemetry_overhead) on its own terms.
        parser.error(f"--trace does not apply to the {args.experiment} command")
    if args.experiment != "bench":
        # Bench-only flags fail loudly on every other command, including
        # worker — a silently dropped flag looks like a reduced-scale run.
        if args.baseline is not None:
            parser.error("--baseline only applies to the bench command")
        if args.bench_scale != 1.0:
            parser.error("--bench-scale only applies to the bench command")
    if args.experiment == "worker":
        if args.connect is None:
            parser.error("worker requires --connect HOST:PORT")
        if args.dispatch is not None:
            parser.error("--dispatch belongs to the serving side, not worker")
        if args.fleet is not None:
            parser.error("--fleet belongs to the submitter side, not worker")
        if args.max_idle is not None and args.max_idle <= 0:
            parser.error(f"--max-idle must be positive, got {args.max_idle:g}")
        return _with_profile(
            args.profile_path, lambda: _run_worker_command(args, parser)
        )
    if args.connect is not None:
        parser.error("--connect only applies to the worker command")
    if args.fault is not None:
        parser.error("--fault only applies to the worker command")
    if args.max_idle is not None:
        parser.error("--max-idle only applies to the worker command")
    if args.fleet is None:
        # Same rule as the bench-only flags: a silently dropped fleet flag
        # would look like a deliberately different submission.
        if args.fleet_priority != 0:
            parser.error("--fleet-priority requires --fleet HOST:PORT")
        if args.fleet_wait_timeout is not None:
            parser.error("--fleet-wait-timeout requires --fleet HOST:PORT")
    if args.experiment == "bench":
        if args.dispatch is not None:
            parser.error("the bench suite runs locally; --dispatch is not supported")
        if args.fleet is not None:
            parser.error("the bench suite runs locally; --fleet is not supported")
        if args.baseline is not None and not os.path.exists(args.baseline):
            parser.error(
                f"--baseline: no such file or directory: {args.baseline}"
            )
        return _with_profile(
            args.profile_path, lambda: _run_bench_command(args, parser)
        )
    if args.dispatch is not None and args.fleet is not None:
        parser.error("--dispatch and --fleet are mutually exclusive")
    if args.dispatch is not None and args.dispatch[1] == 0:
        # Port 0 binds an OS-chosen port nobody is told about; it is only
        # useful programmatically, where FleetDaemon.address can be read.
        parser.error("--dispatch needs an explicit port (port 0 is ephemeral)")
    if args.fleet is not None and args.fleet[1] == 0:
        parser.error("--fleet needs the daemon's explicit port")
    if args.fleet is not None:
        dispatch = FleetSpec(
            host=args.fleet[0],
            port=args.fleet[1],
            priority=args.fleet_priority,
            wait_timeout=args.fleet_wait_timeout,
        )
    else:
        dispatch = (
            None
            if args.dispatch is None
            else DispatchSpec(host=args.dispatch[0], port=args.dispatch[1])
        )
    jobs = resolve_jobs(args.jobs)
    duration = 30.0 if args.duration is None else args.duration
    if args.edges < 1:
        parser.error(f"--edges: need at least one edge, got {args.edges}")
    if args.backends < 1:
        parser.error(
            f"--backends: need at least one backend, got {args.backends}"
        )
    if args.spec_path is not None:
        if args.experiment != "scenario":
            parser.error("--spec only applies to the scenario experiment")
        if not os.path.isfile(args.spec_path):
            parser.error(f"--spec: no such file: {args.spec_path}")
    for flag, path in (
        ("--json", args.json_path),
        ("--trace", args.trace_path),
        ("--chrome-trace", args.chrome_trace_path),
    ):
        if not path:
            continue
        # Fail before the sweeps run, not after minutes of simulation.
        if os.path.isdir(path):
            parser.error(f"{flag}: path is a directory: {path}")
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            parser.error(f"{flag}: directory does not exist: {directory}")
        if not os.access(directory, os.W_OK):
            parser.error(f"{flag}: directory is not writable: {directory}")

    selected = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if isinstance(dispatch, FleetSpec):
        print(
            f"[fleet: submitting sweeps to the daemon at "
            f"{dispatch.host}:{dispatch.port} (priority {dispatch.priority})]"
        )
    elif dispatch is not None:
        print(
            f"[dispatch: serving sweeps at {dispatch.host}:{dispatch.port} — "
            f"start workers with 'python -m repro.experiments worker "
            f"--connect <this-host>:{dispatch.port}']"
        )
    payloads = []

    def _run_selected() -> None:
        nonlocal duration
        for name in selected:
            start = time.perf_counter()
            if name == "scenario":
                sections, specs = EXPERIMENTS[name](
                    duration,
                    jobs,
                    dispatch=dispatch,
                    edges=args.edges,
                    backends=args.backends,
                    spec_path=args.spec_path,
                    spec_duration=args.duration,
                )
                if args.spec_path is not None and args.duration is None:
                    # The replay honoured the recorded duration; make the
                    # artifact metadata report what was actually simulated.
                    duration = specs[0].points[0].scenario.duration
            else:
                sections, specs = EXPERIMENTS[name](duration, jobs, dispatch=dispatch)
            elapsed = time.perf_counter() - start
            for section in sections:
                stride = section.get("stride", 1)
                print_table(section["rows"][::stride], title=section["title"])
            print(f"[{name} done in {elapsed:.1f}s]\n")
            payloads.append(
                experiment_payload(
                    name,
                    sections,
                    wall_clock_seconds=elapsed,
                    sweep_specs=[spec_artifact(spec) for spec in specs],
                )
            )

    if args.trace_path is not None:
        from repro import telemetry

        telemetry.enable()
        try:
            _with_profile(args.profile_path, _run_selected)
            traced = telemetry.drain_recorded_sweeps()
        finally:
            telemetry.disable()
        telemetry.write_trace_jsonl(args.trace_path, traced)
        lines = sum(len(result.results) for result in traced) + len(traced)
        print(
            f"[trace: {len(traced)} sweep(s) -> {args.trace_path} "
            f"(records from {lines - len(traced)} point(s))]"
        )
        if args.chrome_trace_path is not None:
            telemetry.write_chrome_trace(
                args.chrome_trace_path,
                telemetry.trace_jsonl_lines(traced),
            )
            print(
                f"[chrome trace -> {args.chrome_trace_path}; open in "
                f"chrome://tracing or https://ui.perfetto.dev]"
            )
    else:
        _with_profile(args.profile_path, _run_selected)

    if args.json_path:
        write_json(
            args.json_path,
            {
                "schema": ARTIFACT_SCHEMA,
                "duration": duration,
                "jobs": jobs,
                "experiments": payloads,
            },
        )
        print(f"[wrote {args.json_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())

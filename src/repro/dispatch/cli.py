"""The dispatch CLI verbs: ``worker`` and ``fleet serve|submit|status|cancel``.

:func:`mount` adds them to the ``repro-experiments`` command tree
(:func:`repro.experiments.__main__.build_parser`); the handlers live here,
beside the code they drive.  The shared secret is read from the
``REPRO_FLEET_SECRET`` environment variable on every verb — never from
argv, where it would leak into process listings and shell history.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from repro.dispatch.auth import secret_from_env
from repro.dispatch.client import (
    FleetClient,
    FleetSpec,
    fleet_sweep_name,
    run_fleet_sweep,
)
from repro.dispatch.coordinator import parse_hostport
from repro.dispatch.daemon import FleetConfig, run_daemon
from repro.dispatch.faults import FaultPlan
from repro.dispatch.journal import SweepJournal, list_journals
from repro.dispatch.protocol import MAX_SECONDS, is_seconds
from repro.dispatch.worker import run_worker
from repro.errors import ConfigurationError, CoordinatorUnreachable, DispatchError
from repro.experiments.report import print_table, write_json
from repro.experiments.sweep import SweepSpec
from repro.telemetry import validate_telemetry

__all__ = ["hostport_arg", "mount"]


def _usage_type(parse):
    """argparse ``type=`` adapter: ``parse``'s ConfigurationError is a usage error."""

    def adapter(text: str):
        try:
            return parse(text)
        except ConfigurationError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return adapter


hostport_arg = _usage_type(parse_hostport)
_fault_arg = _usage_type(FaultPlan.parse)


def seconds_arg(text: str) -> float:
    value = float(text)
    if not is_seconds(value):
        raise argparse.ArgumentTypeError(
            f"must be a number of seconds in [0, {MAX_SECONDS:g}], got {text}"
        )
    return value


def positive_seconds_arg(text: str) -> float:
    value = seconds_arg(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value:g}")
    return value


def mount(
    verbs, common: argparse.ArgumentParser, output: argparse.ArgumentParser
) -> None:
    """Add ``worker`` and the ``fleet`` family to the root's subparsers.

    ``common`` (``--log-level``/``--profile``) and ``output`` (``--json``)
    are the root's shared parent parsers.
    """

    def connect_flags(required: bool) -> argparse.ArgumentParser:
        flags = argparse.ArgumentParser(add_help=False)
        flags.add_argument(
            "--connect",
            type=hostport_arg,
            metavar="HOST:PORT",
            required=required,
            help="the daemon to talk to",
        )
        flags.add_argument(
            "--connect-timeout",
            type=positive_seconds_arg,
            metavar="SECONDS",
            default=30.0,
            help="keep retrying an unreachable daemon this long before giving "
            "up (default: 30)",
        )
        return flags

    connect = connect_flags(required=True)

    worker = verbs.add_parser(
        "worker",
        parents=[common, connect],
        help="pull work from a --dispatch run or a fleet daemon",
        description=_run_worker.__doc__,
    )
    worker.add_argument(
        "--worker-name",
        metavar="NAME",
        default=None,
        help="name reported to the daemon (default: worker-PID)",
    )
    worker.add_argument(
        "--fault",
        type=_fault_arg,
        metavar="KIND:N[:SECS]",
        default=None,
        help="failure drill: crash:N (die hard after N points), "
        "stall:N:SECS (go silent mid-run), disconnect:N",
    )
    worker.add_argument(
        "--max-idle",
        type=positive_seconds_arg,
        metavar="SECONDS",
        default=None,
        help="exit once the fleet queue stays empty this long — a daemon "
        "never says done (default: wait forever)",
    )
    worker.set_defaults(run=_run_worker, error=worker.error)

    fleet = verbs.add_parser(
        "fleet",
        help="the long-lived sweep-queue daemon: serve|submit|status|cancel",
        description="Durable multi-sweep queue daemon (see "
        "repro.dispatch.daemon) and its submitter verbs.  Shared secret: "
        "the REPRO_FLEET_SECRET environment variable (unset = open daemon).",
    )
    fleet_verbs = fleet.add_subparsers(dest="fleet_verb", metavar="VERB", required=True)

    serve = fleet_verbs.add_parser(
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
        type=positive_seconds_arg,
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
        type=seconds_arg,
        metavar="SECONDS",
        default=None,
        help="at startup, archive finished journals idle for this long to "
        "<journal-dir>/archive/ so restore and status stay O(active "
        "sweeps); 0 archives every finished journal (default: keep all)",
    )

    submit = fleet_verbs.add_parser(
        "submit",
        parents=[common, output, connect],
        help="submit a sweep-spec JSON file",
    )
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
        help="block until the sweep drains and fetch its results "
        "(--json then writes the completed SweepResult artifact)",
    )
    submit.add_argument(
        "--timeout",
        type=positive_seconds_arg,
        metavar="SECONDS",
        default=None,
        help="with --wait: give up after this long (default: wait forever, "
        "riding out daemon restarts)",
    )

    status = fleet_verbs.add_parser(
        "status",
        parents=[common, connect_flags(required=False)],
        help="print sweep, worker and daemon status tables",
    )
    status.add_argument("--sweep", default=None, help="only this sweep's row")
    status.add_argument(
        "--metrics",
        action="store_true",
        help="print the daemon's live repro.telemetry/1 snapshot instead of "
        "the status tables: per-sweep progress and throughput, worker "
        "EWMA rates, lease churn (live daemons only)",
    )
    status.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help="offline mode: replay and validate each journal in this "
        "directory instead of asking a live daemon",
    )

    cancel = fleet_verbs.add_parser(
        "cancel",
        parents=[common, connect],
        help="cancel a sweep and tear up its leases",
    )
    cancel.add_argument("sweep", help="the sweep name to cancel")

    for sub, handler in (
        (serve, _fleet_serve),
        (submit, _fleet_submit),
        (status, _fleet_status),
        (cancel, _fleet_cancel),
    ):
        sub.set_defaults(run=_one_line_errors(handler), error=sub.error)


def _run_worker(args) -> int:
    """Serve fleet daemons at one address (this text is the verb's --help).

    Reconnects whenever a daemon says done or goes away (multi-sweep
    experiments like sensitivity under --dispatch start several
    one-sweep daemons back to back); exits once no daemon appears within
    --connect-timeout seconds, or — against a long-lived daemon, which
    only ever says wait — once the queue stays empty past
    --max-idle.  Exit code 0 if at least one sweep was served
    before going idle (always 0 for a clean --max-idle exit: a drained
    fleet is success even for a worker that arrived late), 1 for a worker
    that never served anything or was refused (e.g. a protocol version
    mismatch or failed auth challenge) — refusals are real failures however
    many sweeps came before.
    """
    logger = logging.getLogger("repro.dispatch.worker")
    host, port = args.connect
    runs = 0
    while True:
        try:
            stats = run_worker(
                host,
                port,
                name=args.worker_name,
                faults=args.fault,
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
            # Reachable but refused (version/auth failure): always loud.
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


#: The operational failures a fleet verb reports as one ``fleet VERB: why`` line.
_FAILURES = (ConfigurationError, DispatchError, OSError, json.JSONDecodeError)


def _one_line_errors(handler):
    def run(args) -> int:
        try:
            return handler(args)
        except _FAILURES as exc:
            print(f"fleet {args.fleet_verb}: {exc}", file=sys.stderr)
            return 1

    return run


def _client(args) -> FleetClient:
    host, port = args.connect
    return FleetClient(
        host, port, secret=secret_from_env(), connect_timeout=args.connect_timeout
    )


def _fleet_serve(args) -> int:
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
    return 0


def _fleet_submit(args) -> int:
    if args.json_path and not args.wait:
        args.error("--json requires --wait (results exist only once drained)")
    if args.timeout is not None and not args.wait:
        args.error("--timeout requires --wait")
    with open(args.spec_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "columns" not in payload:
        args.error(
            f"{args.spec_path} is not a sweep spec payload (no "
            "'columns' key — pass a SweepSpec.as_dict file, e.g. a "
            "sweep_specs entry of a --json artifact)"
        )
    # Rebuild locally first: an unportable or corrupt spec must
    # fail here, not as a daemon-side refusal.
    spec = SweepSpec.from_dict(payload)
    name = args.name or fleet_sweep_name(spec)
    if args.wait:
        host, port = args.connect
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
    reply = _client(args).submit(spec, name=name, priority=args.priority)
    # An attach keeps the daemon's original priority; only echo
    # ours when this submission actually set it.
    suffix = f", priority {args.priority}" if reply.get("created") else ""
    verb = "submitted" if reply.get("created") else "attached"
    print(
        f"[sweep {name!r} {verb}: {reply.get('completed')}/"
        f"{reply.get('total')} done, state {reply.get('state')}{suffix}]"
    )
    return 0


def _fleet_status(args) -> int:
    if args.journal_dir is not None:
        if args.connect is not None:
            args.error("--journal-dir and --connect are mutually exclusive")
        if args.metrics:
            args.error(
                "--metrics needs a live daemon (--connect); journals record "
                "results, not rates"
            )
        rows = []
        for path in list_journals(args.journal_dir):
            replayed = SweepJournal.replay(path)
            replayed.rebuild_artifact()  # the same checks a restart applies
            completed = len(replayed.results)
            rows.append(
                {
                    "sweep": replayed.name,
                    "state": "done" if completed >= replayed.total else "partial",
                    "completed": completed,
                    "total": replayed.total,
                    "priority": replayed.priority,
                    "fingerprint": replayed.fingerprint.removeprefix("sha256:")[:12],
                }
            )
        if args.sweep is not None:
            rows = [row for row in rows if row["sweep"] == args.sweep]
        print_table(rows, title=f"Journalled sweeps in {args.journal_dir}")
        return 0
    if args.connect is None:
        args.error("status needs --connect (live daemon) or --journal-dir (offline)")
    if args.metrics:
        if args.sweep is not None:
            args.error("--metrics reports the whole daemon; drop --sweep")
        section = _client(args).metrics().get("telemetry")
        validate_telemetry(section)
        rows = [
            {"metric": name, "kind": "counter", "value": value}
            for name, value in section["counters"].items()
        ] + [
            {"metric": name, "kind": "gauge", "value": value}
            for name, value in section["gauges"].items()
        ]
        print_table(rows, title=f"Daemon metrics ({section['schema']})")
        return 0
    report = _client(args).status(args.sweep)
    print_table(report.get("sweeps", []), title="Fleet sweeps")
    print()
    print_table(report.get("workers", []), title="Fleet workers")
    print()
    print_table([report.get("daemon", {})], title="Daemon")
    return 0


def _fleet_cancel(args) -> int:
    reply = _client(args).cancel(args.sweep)
    if reply.get("existed"):
        print(f"[sweep {args.sweep!r} cancelled]")
        return 0
    print(f"fleet cancel: no sweep named {args.sweep!r}", file=sys.stderr)
    return 1

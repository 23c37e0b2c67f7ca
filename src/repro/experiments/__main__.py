"""Command-line entry point: ``python -m repro.experiments VERB [flags]``.

Verbs: the twelve experiments (``fig3 fig4 fig5 fig6 fig7ab fig7c fig7d
fig8 theorem1 sensitivity scenario protocol-race``), ``all`` (every
experiment, in that order), ``worker`` (pull points from a ``--dispatch``
run or a fleet daemon), ``fleet serve|submit|status|cancel`` (the
long-lived sweep-queue daemon and its submitter verbs) and ``bench`` (the
tracked performance suite).

Flags follow the verb and every verb accepts only the flags it uses:
``VERB --help`` lists them.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

from repro import telemetry
from repro.bench import cli as bench_cli
from repro.dispatch import DispatchSpec, FleetSpec
from repro.dispatch import cli as dispatch_cli
from repro.errors import ConfigurationError
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
from repro.experiments.sweep import resolve_jobs, run_sweep, spec_artifact

#: The experiment table, in ``all`` order.  Each row — ``(help, specs(args),
#: sections(results))`` — is declared by the figure module that owns it.
EXPERIMENTS = {
    "fig3": fig3_alpha.EXPERIMENT,
    "fig4": fig4_convergence.EXPERIMENT,
    "fig5": fig5_drift.EXPERIMENT,
    "fig6": fig6_strategies.EXPERIMENT,
    "fig7ab": realistic.EXPERIMENT,
    "fig7c": fig7_realistic.DEPLIST_EXPERIMENT,
    "fig7d": fig7_realistic.TTL_EXPERIMENT,
    "fig8": fig8_strategies.EXPERIMENT,
    "theorem1": theorem1.EXPERIMENT,
    "sensitivity": sensitivity.EXPERIMENT,
    "scenario": scenarios.EXPERIMENT,
    "protocol-race": protocol_race.EXPERIMENT,
}

def _jobs_arg(text: str) -> int:
    """argparse adapter around :func:`resolve_jobs`'s validation."""
    try:
        return resolve_jobs(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _count_arg(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"need at least one, got {count}")
    return count


def _spec_file_arg(path: str) -> str:
    if not os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"no such file: {path}")
    return path


def _output_path_arg(path: str) -> str:
    """A path this process can create: fail before the sweeps run, not
    after minutes of simulation."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"path is a directory: {path}")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"directory does not exist: {directory}")
    if not os.access(directory, os.W_OK):
        raise argparse.ArgumentTypeError(f"directory is not writable: {directory}")
    return path


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: one root, one subparser per verb.

    A flag is defined once, on a parent parser, and a verb takes only the
    parents it uses — so a flag on the wrong verb is argparse's own
    "unrecognized arguments" usage error, with no placement check to write.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level",
        type=str.upper,
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        metavar="LEVEL",
        default="INFO",
        help="threshold for the repro.dispatch.* diagnostic loggers "
        "(DEBUG/INFO/WARNING/ERROR/CRITICAL; default: INFO)",
    )
    common.add_argument(
        "--profile",
        dest="profile_path",
        metavar="PATH",
        default=None,
        help="run under cProfile and dump the stats file here",
    )

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--json",
        dest="json_path",
        type=_output_path_arg,
        metavar="PATH",
        default=None,
        help="write the machine-readable artifact here (experiments: the "
        "full, unsampled rows plus run metadata; bench: the repro.bench "
        "payload; fleet submit --wait: the completed SweepResult)",
    )

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument(
        "--duration",
        type=float,
        default=None,
        help="measured simulated seconds per run (default: 30, the paper "
        "scale; in `scenario --spec` replays the default is the recorded "
        "duration)",
    )
    run.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=None,
        help="worker processes for sweep columns (default: all CPUs; 1 = "
        "serial, identical series for the same root seed)",
    )
    run.add_argument(
        "--trace",
        dest="trace_path",
        type=_output_path_arg,
        metavar="PATH",
        default=None,
        help="trace every sweep point (kernel dispatch, cache, channel, "
        "SGT, protocol decisions) and write the records as JSONL here; "
        "byte-identical across --jobs/--dispatch/--fleet modulo the "
        "wall-clock header line (see repro.telemetry)",
    )
    run.add_argument(
        "--chrome-trace",
        dest="chrome_trace_path",
        type=_output_path_arg,
        metavar="PATH",
        default=None,
        help="with --trace: also write the records in Chrome trace_event "
        "JSON for chrome://tracing / Perfetto",
    )
    remote = run.add_mutually_exclusive_group()
    remote.add_argument(
        "--dispatch",
        type=dispatch_cli.hostport_arg,
        metavar="HOST:PORT",
        default=None,
        help="serve the experiment's sweeps to remote workers from a "
        "journal-less fleet daemon at this address, one per sweep, instead "
        "of running a local pool (results are identical; "
        "REPRO_FLEET_SECRET, if set, is demanded of the workers)",
    )
    remote.add_argument(
        "--fleet",
        type=dispatch_cli.hostport_arg,
        metavar="HOST:PORT",
        default=None,
        help="submit the experiment's sweeps to a running fleet daemon "
        "('fleet serve') instead of starting one per sweep — identical "
        "resubmissions resume from the daemon's journal (results are "
        "identical either way)",
    )
    run.add_argument(
        "--fleet-priority",
        type=int,
        metavar="N",
        default=0,
        help="with --fleet: queue priority (higher drains first; default: 0)",
    )
    run.add_argument(
        "--fleet-wait-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="with --fleet: give up if a sweep has not drained in time "
        "(default: wait forever, riding out daemon restarts)",
    )
    # Only `scenario` has a --spec that can override this.
    run.set_defaults(run=_run_experiments, spec_path=None)

    fleets = argparse.ArgumentParser(add_help=False)
    fleets.add_argument(
        "--edges",
        type=_count_arg,
        default=3,
        help="edge count for the scenario experiment's loss-ramp fleet "
        "(default: 3)",
    )
    fleets.add_argument(
        "--backends",
        type=_count_arg,
        default=2,
        help="backend count for the scenario experiment's routed-tier "
        "fleets (default: 2; 1 disables them)",
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the figures of the T-Cache paper.  Flags "
        "follow the verb; `VERB --help` lists the flags that verb takes.",
    )
    verbs = parser.add_subparsers(dest="verb", metavar="VERB", required=True)
    helps = {name: experiment.help for name, experiment in EXPERIMENTS.items()}
    helps["all"] = "every experiment above, in that order"
    for name, text in helps.items():
        shaped = [fleets] if name in ("scenario", "all") else []
        sub = verbs.add_parser(
            name, parents=[common, output, run, *shaped], help=text, description=text
        )
        sub.set_defaults(error=sub.error)
    verbs.choices["scenario"].add_argument(
        "--spec",
        dest="spec_path",
        type=_spec_file_arg,
        metavar="PATH",
        default=None,
        help="replay one scenario from a ScenarioSpec.as_dict JSON file "
        "(e.g. out of a --json artifact) instead of the library fleets; "
        "overrides --edges/--backends",
    )
    dispatch_cli.mount(verbs, common, output)
    bench_cli.mount(verbs, common, output)
    return parser


def _run_experiments(args) -> int:
    """The one driver behind every experiment verb and ``all``.

    Builds each experiment's specs once, runs them, prints the sections
    and — holding the specs and results itself — writes the ``--json``
    artifact and the ``--trace`` exports from them.
    """
    if args.chrome_trace_path is not None and args.trace_path is None:
        args.error("--chrome-trace requires --trace (it converts the JSONL)")
    if args.fleet is None:
        # A silently dropped fleet flag would look like a deliberately
        # different submission.
        if args.fleet_priority != 0:
            args.error("--fleet-priority requires --fleet HOST:PORT")
        if args.fleet_wait_timeout is not None:
            args.error("--fleet-wait-timeout requires --fleet HOST:PORT")
    dispatch = None
    if args.dispatch is not None:
        host, port = args.dispatch
        if port == 0:
            # Port 0 binds an OS-chosen port nobody is told about; it is only
            # useful programmatically, where FleetDaemon.address can be read.
            args.error("--dispatch needs an explicit port (port 0 is ephemeral)")
        dispatch = DispatchSpec(host=host, port=port)
        print(
            f"[dispatch: serving sweeps at {host}:{port} — start workers with "
            f"'python -m repro.experiments worker --connect <this-host>:{port}']"
        )
    elif args.fleet is not None:
        host, port = args.fleet
        if port == 0:
            args.error("--fleet needs the daemon's explicit port")
        dispatch = FleetSpec(
            host=host,
            port=port,
            priority=args.fleet_priority,
            wait_timeout=args.fleet_wait_timeout,
        )
        print(
            f"[fleet: submitting sweeps to the daemon at {host}:{port} "
            f"(priority {dispatch.priority})]"
        )
    jobs = resolve_jobs(args.jobs)
    if args.duration is None and args.spec_path is None:
        args.duration = 30.0
    tracing = args.trace_path is not None
    if tracing:
        telemetry.enable()
    payloads = []
    traced = []
    try:
        for name in EXPERIMENTS if args.verb == "all" else [args.verb]:
            experiment = EXPERIMENTS[name]
            start = time.perf_counter()
            specs = experiment.specs(args)
            if args.duration is None:
                # Only a `scenario --spec` replay gets here: it honoured the
                # recorded duration, and the artifact reports what was run.
                args.duration = specs[0].points[0].scenario.duration
            sweeps = [run_sweep(spec, jobs=jobs, dispatch=dispatch) for spec in specs]
            sections = experiment.sections(sweeps)
            elapsed = time.perf_counter() - start
            for section in sections:
                print_table(
                    section["rows"][:: section["stride"]], title=section["title"]
                )
            print(f"[{name} done in {elapsed:.1f}s]\n")
            payloads.append(
                experiment_payload(
                    name,
                    sections,
                    wall_clock_seconds=elapsed,
                    # The specs as built, not as run_sweep stamped them for
                    # tracing: --json bytes do not move under --trace.
                    sweep_specs=[spec_artifact(spec) for spec in specs],
                )
            )
            if tracing:
                traced.extend(sweeps)
    finally:
        if tracing:
            telemetry.disable()

    if tracing:
        telemetry.write_trace_jsonl(args.trace_path, traced)
        print(
            f"[trace: {len(traced)} sweep(s) -> {args.trace_path} (records "
            f"from {sum(len(sweep.results) for sweep in traced)} point(s))]"
        )
        if args.chrome_trace_path is not None:
            telemetry.write_chrome_trace(
                args.chrome_trace_path, telemetry.trace_jsonl_lines(traced)
            )
            print(
                f"[chrome trace -> {args.chrome_trace_path}; open in "
                f"chrome://tracing or https://ui.perfetto.dev]"
            )
    if args.json_path:
        write_json(
            args.json_path,
            {
                "schema": ARTIFACT_SCHEMA,
                "duration": args.duration,
                "jobs": jobs,
                "experiments": payloads,
            },
        )
        print(f"[wrote {args.json_path}]")
    return 0


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
    args = build_parser().parse_args(argv)
    # The daemon's lifecycle notes, the journal's truncated-tail warnings
    # and the worker's per-sweep progress flow through stdlib logging so
    # operators can silence or redirect them; experiment tables and
    # artifacts stay on plain stdout regardless of level.
    logging.basicConfig(
        level=getattr(logging, args.log_level), format="[%(name)s] %(message)s"
    )
    return _with_profile(args.profile_path, lambda: args.run(args))


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Distributed sweeps: one daemon, expendable workers, identical bytes.

The sweep engine's grids are embarrassingly parallel, and they do not stop
at one process tree: ``run_sweep(spec, dispatch=DispatchSpec(...))`` starts
a fleet daemon that lives for exactly that sweep and serves the grid as a
lease-based work queue over TCP, and any number of workers — on any hosts
that can reach it — pull chunks, execute points, and stream results back.
Three properties matter:

* **Determinism.** Points travel as portable JSON, results come back keyed
  by point index, and the submitter reassembles them in spec order — so
  the distributed artifact is byte-identical to a serial ``jobs=1`` run.
* **Fault tolerance.** Chunks are *leases*: a worker that dies mid-chunk
  (its TCP connection drops) or goes silent past the lease timeout has its
  unfinished points re-queued.  Results it already streamed are kept.
* **Same executor surface.** The capacity-planning grid below is a plain
  ``SweepSpec``; swapping ``jobs=`` for ``dispatch=`` is the whole change.

This example stays on loopback so it runs anywhere: the "remote" workers
are threads, one of them rigged with a FaultPlan to disconnect mid-run.
Across real hosts the shape is identical, via the CLI::

    # on the serving host
    python -m repro.experiments scenario --dispatch 0.0.0.0:7643 --json out.json

    # on each worker host (same package version, any number of them)
    python -m repro.experiments worker --connect SERVING-HOST:7643

Run:  python examples/distributed_sweep.py
"""

import threading

from repro.dispatch import (
    FaultPlan,
    FleetConfig,
    FleetDaemon,
    run_worker,
    serve_sweep,
)
from repro.experiments.report import normalized_artifact, print_table
from repro.experiments.scenarios import backend_rows
from repro.experiments.sweep import run_sweep
from repro.scenario import capacity_planning_sweep


def main() -> None:
    # A real capacity question as a grid: how do per-backend load and
    # inconsistency move when client traffic doubles, and how much does
    # sharding the backends buy back?  (Scaled down to run in seconds.)
    spec = capacity_planning_sweep(
        regions=2,
        edges_per_region=2,
        objects_per_region=150,
        load_factors=(0.5, 1.0, 2.0),
        shard_options=(1, 2),
        duration=4.0,
        warmup=1.0,
    )
    print(f"grid: {len(spec)} scenario points ({spec.description})\n")

    # --- the distributed run: one-sweep daemon + 3 loopback workers -----
    # run_sweep(spec, dispatch=DispatchSpec(port=...)) builds exactly this
    # daemon; building it here lets the example bind port 0 and read the
    # address back before the workers start.  Two-point leases (instead of
    # sizes measured per worker) guarantee the flaky worker below drops
    # while still holding unfinished work.
    daemon = FleetDaemon(
        FleetConfig(
            port=0, lease_timeout=15.0, probe_chunk_points=2, max_chunk_points=2
        )
    )
    host, port = daemon.address
    workers = [
        threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs={"name": "steady-0"},
            daemon=True,
        ),
        threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs={"name": "steady-1"},
            daemon=True,
        ),
        threading.Thread(
            # This one is rigged: it drops its connection after one point,
            # like a spot instance being reclaimed.  The daemon re-leases
            # whatever it was holding.
            target=run_worker,
            args=(host, port),
            kwargs={
                "name": "flaky",
                "faults": FaultPlan(kind="disconnect", after_points=1),
            },
            daemon=True,
        ),
    ]
    for worker in workers:
        worker.start()
    distributed = serve_sweep(daemon, spec)
    for worker in workers:
        worker.join(timeout=30)
    print(
        f"distributed: {len(distributed.results)} points from "
        f"{distributed.jobs} workers in {distributed.wall_clock_seconds:.1f}s "
        f"({daemon.queue.leases_requeued} lease(s) re-queued after the flaky "
        "worker dropped)\n"
    )

    # --- determinism: the serial run must produce the same bytes --------
    serial = run_sweep(spec, jobs=1)
    assert normalized_artifact(distributed) == normalized_artifact(serial), (
        "determinism violated!"
    )
    print("distributed artifact is byte-identical to the jobs=1 run\n")

    # --- the capacity answer, per backend -------------------------------
    rows = []
    for point, result in distributed.pairs():
        rows.extend(backend_rows(point.label, result))
    print_table(
        rows,
        title="Capacity grid: per-backend load and consistency "
        "(load multiplier x shard count)",
    )


if __name__ == "__main__":
    main()

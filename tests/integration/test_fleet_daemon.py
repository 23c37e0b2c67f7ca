"""Integration tests for the fleet daemon: the elastic sweep-queue service.

Two load-bearing properties, mirroring the one-shot dispatch suite:

* **Byte-identity** — a sweep served through a fleet daemon (with auth and
  journaling enabled, across many named sweeps with priorities) produces a
  ``SweepResult.to_artifact()`` byte-identical to ``run_sweep(spec,
  jobs=1)``, modulo the two executor-metadata fields.
* **Durable resume** — SIGKILL the daemon mid-sweep, restart it against
  the same journal directory, and the run completes with byte-identical
  artifacts *without re-executing* any journaled point (asserted via the
  journal line count and the daemon's per-lifetime ``executed`` counter).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.dispatch.client import FleetClient, FleetSpec, fleet_sweep_name
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.journal import SweepJournal, journal_path
from repro.dispatch.worker import run_worker
from repro.errors import DispatchError
from repro.experiments.config import ColumnConfig
from repro.experiments.report import normalized_artifact
from repro.experiments.sweep import SweepPoint, SweepSpec, derive_seed, run_sweep
from repro.workloads.synthetic import PerfectClusterWorkload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SECRET = "integration-secret"


def small_spec(
    n_columns: int = 4, *, name: str = "fleet-sweep", root_seed: int = 1
) -> SweepSpec:
    workload = PerfectClusterWorkload(n_objects=80, cluster_size=5)
    config = ColumnConfig(seed=1, duration=0.8, warmup=0.3)
    return SweepSpec(
        name=name,
        root_seed=root_seed,
        points=[
            SweepPoint(
                label=f"col{index}",
                config=replace(config, seed=derive_seed(root_seed, index)),
                workload=workload,
                params={"index": index},
            )
            for index in range(n_columns)
        ],
    )


def comparable_artifact(result) -> str:
    # The executor's identity is allowed to differ; the results are not.
    return normalized_artifact(result)


def start_worker_thread(host, port, *, name, max_idle=3.0) -> threading.Thread:
    thread = threading.Thread(
        target=run_worker,
        args=(host, port),
        kwargs={
            "name": name,
            "secret": SECRET,
            "max_idle": max_idle,
            "heartbeat_interval": 0.5,
        },
        daemon=True,
    )
    thread.start()
    return thread


class TestByteIdentity:
    def test_two_prioritised_sweeps_match_serial_runs(self, tmp_path) -> None:
        """Two named sweeps with different priorities, two workers, auth and
        journaling on: both fleet-served artifacts must match ``jobs=1``."""
        bulk = small_spec(4, name="bulk", root_seed=1)
        urgent = small_spec(3, name="urgent", root_seed=2)
        serial = {
            "bulk": comparable_artifact(run_sweep(bulk, jobs=1)),
            "urgent": comparable_artifact(run_sweep(urgent, jobs=1)),
        }

        daemon = FleetDaemon(
            FleetConfig(
                port=0,
                journal_dir=str(tmp_path),
                secret=SECRET,
                lease_timeout=30.0,
                poll_interval=0.05,
            )
        )
        daemon.start()  # also the stale-lease sweeper
        host, port = daemon.address
        try:
            workers = [
                start_worker_thread(host, port, name=f"w{i}") for i in range(2)
            ]
            results: dict[str, object] = {}

            def submit(spec: SweepSpec, priority: int) -> None:
                results[spec.name] = run_sweep(
                    spec,
                    dispatch=FleetSpec(
                        host=host,
                        port=port,
                        secret=SECRET,
                        priority=priority,
                        poll_interval=0.1,
                        wait_timeout=120.0,
                    ),
                )

            submitters = [
                threading.Thread(target=submit, args=(bulk, 0), daemon=True),
                threading.Thread(target=submit, args=(urgent, 5), daemon=True),
            ]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=150.0)
                assert not thread.is_alive(), "submitter did not finish"
            for spec in (bulk, urgent):
                assert (
                    comparable_artifact(results[spec.name]) == serial[spec.name]
                )
            # Both sweeps journaled completely: header + one line per point.
            for spec in (bulk, urgent):
                path = journal_path(str(tmp_path), fleet_sweep_name(spec))
                replayed = SweepJournal.replay(path)
                assert sorted(replayed.results) == list(range(len(spec.points)))
        finally:
            daemon.shutdown()
        for thread in workers:
            thread.join(timeout=60.0)

    def test_resubmitted_sweep_resumes_without_reexecution(self, tmp_path) -> None:
        spec = small_spec(3, name="resume")
        fleet = FleetSpec(
            host="127.0.0.1",
            port=1,  # replaced below
            secret=SECRET,
            poll_interval=0.1,
            wait_timeout=120.0,
        )
        daemon = FleetDaemon(
            FleetConfig(port=0, journal_dir=str(tmp_path), secret=SECRET)
        )
        daemon.start()
        host, port = daemon.address
        fleet.host, fleet.port = host, port
        try:
            worker = start_worker_thread(host, port, name="w0", max_idle=2.0)
            first = run_sweep(spec, dispatch=fleet)
            worker.join(timeout=60.0)
            again = run_sweep(spec, dispatch=fleet)  # no workers alive now
            assert comparable_artifact(first) == comparable_artifact(again)
            entry = daemon.queue.entry(fleet_sweep_name(spec))
            assert entry.executed == len(spec.points)  # once, not twice
        finally:
            daemon.shutdown()


class TestCancelLifecycle:
    def test_cancel_then_identical_resubmit_revives(self) -> None:
        spec = small_spec(3, name="cancelme")
        daemon = FleetDaemon(FleetConfig(port=0, secret=SECRET))
        daemon.start()
        host, port = daemon.address
        try:
            client = FleetClient(host, port, secret=SECRET)
            name = fleet_sweep_name(spec)
            submitted = client.submit(spec, name=name)
            assert submitted["created"] and submitted["state"] == "running"
            assert client.fetch(name)["type"] == "pending"
            assert client.cancel(name)["existed"]
            (row,) = client.status(name)["sweeps"]
            assert row["state"] == "cancelled"
            revived = client.submit(spec, name=name)
            assert not revived["created"]
            assert revived["state"] == "running"
            with pytest.raises(DispatchError):
                client.fetch("never-submitted")
        finally:
            daemon.shutdown()


class TestKillRestartDrill:
    def test_sigkilled_daemon_resumes_from_journal(self, tmp_path) -> None:
        """SIGKILL the daemon subprocess mid-sweep; restart it on the same
        port against the same journal. The sweep must complete byte-identical
        to ``jobs=1`` and journaled points must provably not re-execute."""
        spec = small_spec(6, name="drill")
        serial = comparable_artifact(run_sweep(spec, jobs=1))
        journal_dir = tmp_path / "journals"
        env = {
            **os.environ,
            "PYTHONPATH": "src",
            "REPRO_FLEET_SECRET": SECRET,
        }

        def spawn_daemon(port: int) -> subprocess.Popen:
            return subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.experiments",
                    "fleet",
                    "serve",
                    "--host",
                    "127.0.0.1",
                    "--port",
                    str(port),
                    "--journal-dir",
                    str(journal_dir),
                    "--lease-timeout",
                    "20",
                ],
                env=env,
                cwd=REPO_ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )

        # Bind-and-release to pick a port the daemon can then claim; the
        # daemon sets SO_REUSEADDR so the restart can rebind it immediately.
        import socket as socketlib

        with socketlib.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        daemon = spawn_daemon(port)
        worker = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "worker",
                "--connect",
                f"127.0.0.1:{port}",
                "--max-idle",
                "8",
                "--connect-timeout",
                "60",
                "--worker-name",
                "survivor",
            ],
            env=env,
            cwd=REPO_ROOT,
        )
        fleet = FleetSpec(
            host="127.0.0.1",
            port=port,
            secret=SECRET,
            poll_interval=0.2,
            connect_timeout=60.0,
            wait_timeout=240.0,
        )
        name = fleet_sweep_name(spec)
        path = journal_path(str(journal_dir), name)
        result_box: dict[str, object] = {}

        def submit() -> None:
            # run_fleet_sweep's fresh-connection-per-operation contract is
            # what lets this thread ride out the daemon's death unharmed.
            result_box["result"] = run_sweep(spec, dispatch=fleet)

        submitter = threading.Thread(target=submit, daemon=True)
        restarted = None
        try:
            submitter.start()

            def journaled_points() -> int:
                if not os.path.exists(path):
                    return 0
                with open(path, encoding="utf-8") as handle:
                    return sum(
                        1 for line in handle if '"kind":"point"' in line
                    )

            deadline = time.monotonic() + 120.0
            while journaled_points() < 2:
                assert time.monotonic() < deadline, "no points journaled"
                assert daemon.poll() is None, (
                    f"daemon died early:\n{daemon.stdout.read()}"
                )
                time.sleep(0.1)
            os.kill(daemon.pid, signal.SIGKILL)
            daemon.wait(timeout=30)
            points_before_restart = journaled_points()
            assert points_before_restart >= 2
            assert points_before_restart < len(spec.points), (
                "sweep finished before the kill; drill proved nothing"
            )

            restarted = spawn_daemon(port)
            submitter.join(timeout=240.0)
            assert not submitter.is_alive(), "submitter never finished"
            assert worker.wait(timeout=120.0) == 0

            assert comparable_artifact(result_box["result"]) == serial

            # No re-execution: the journal gained exactly the missing
            # points (replay would raise on duplicate indices), and the
            # restarted daemon's own execution counter matches.
            replayed = SweepJournal.replay(path)
            assert sorted(replayed.results) == list(range(len(spec.points)))
            with open(path, encoding="utf-8") as handle:
                lines = [line for line in handle if line.strip()]
            assert len(lines) == 1 + len(spec.points)

            status = FleetClient(
                "127.0.0.1", port, secret=SECRET
            ).status(name)
            (row,) = status["sweeps"]
            assert row["resumed"] == points_before_restart
            assert row["executed"] == len(spec.points) - points_before_restart
        finally:
            for process in (daemon, restarted, worker):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=30)

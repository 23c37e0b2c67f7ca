"""Integration tests for ``--dispatch``: a fleet daemon living for one sweep.

The load-bearing property: a sweep served by an ephemeral, journal-less
:class:`FleetDaemon` to workers — including runs where a worker is killed
mid-chunk — produces a ``SweepResult.to_artifact()`` byte-identical to
``run_sweep(spec, jobs=1)``, modulo the two run-metadata fields (``jobs``,
``wall_clock_seconds``) that describe the executor rather than the results.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.dispatch import (
    DispatchSpec,
    FaultPlan,
    FleetClient,
    FleetConfig,
    FleetDaemon,
    FleetSpec,
    run_worker,
    serve_sweep,
)
from repro.dispatch.protocol import PROTOCOL_VERSION, recv_frame, send_frame
from repro.errors import ConfigurationError, DispatchError
from repro.experiments.config import ColumnConfig
from repro.experiments.report import normalized_artifact
from repro.experiments.sweep import SweepPoint, SweepSpec, derive_seed, run_sweep
from repro.scenario.library import heterogeneous_loss_fleet, region_failure_drill
from repro.workloads.synthetic import PerfectClusterWorkload


def small_spec(n_columns: int = 4, *, scenario: bool = True) -> SweepSpec:
    workload = PerfectClusterWorkload(n_objects=80, cluster_size=5)
    config = ColumnConfig(seed=1, duration=0.8, warmup=0.3)
    points = [
        SweepPoint(
            label=f"col{index}",
            config=replace(config, seed=derive_seed(1, index)),
            workload=workload,
            params={"index": index},
        )
        for index in range(n_columns)
    ]
    if scenario:
        points.append(
            SweepPoint(
                label="fleet",
                scenario=heterogeneous_loss_fleet(
                    edges=2, n_objects=80, duration=0.8, warmup=0.3
                ),
            )
        )
        points.append(
            SweepPoint(
                label="drill",
                scenario=region_failure_drill(
                    regions=2, objects_per_region=60, duration=0.8, warmup=0.3
                ),
            )
        )
    return SweepSpec(name="dispatch-spec", root_seed=1, points=points)


def comparable_artifact(result) -> str:
    # The executor's identity is allowed to differ; the results are not.
    return normalized_artifact(result)


def one_sweep_daemon(
    *, chunk_points: int = 1, lease_timeout: float = 20.0, poll_interval: float = 0.05
) -> FleetDaemon:
    """What ``run_dispatched`` builds, on an OS-chosen port the test can read
    back, handing out fixed ``chunk_points``-sized leases."""
    return FleetDaemon(
        FleetConfig(
            lease_timeout=lease_timeout,
            poll_interval=poll_interval,
            probe_chunk_points=chunk_points,
            max_chunk_points=chunk_points,
        )
    )


def serve_with_worker_threads(spec: SweepSpec, daemon: FleetDaemon, n_workers: int):
    host, port = daemon.address
    threads = [
        threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs={"name": f"w{index}"},
            daemon=True,
        )
        for index in range(n_workers)
    ]
    for thread in threads:
        thread.start()
    result = serve_sweep(daemon, spec)
    for thread in threads:
        thread.join(timeout=15)
        assert not thread.is_alive(), "worker was not told the sweep is done"
    return result


class TestDispatchEquivalence:
    def test_two_workers_byte_identical_to_serial(self) -> None:
        spec = small_spec()
        serial = run_sweep(spec, jobs=1)
        daemon = one_sweep_daemon(chunk_points=2)
        dispatched = serve_with_worker_threads(spec, daemon, n_workers=2)
        assert comparable_artifact(dispatched) == comparable_artifact(serial)
        assert dispatched.jobs == 2  # both workers participated
        assert daemon.queue.leases_requeued == 0

    def test_run_sweep_dispatch_argument(self) -> None:
        """``run_sweep(spec, dispatch=...)`` is the same executor behind the
        library API: workers dial the fixed port while the sweep serves."""
        spec = small_spec(2, scenario=False)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        def patient_worker(index: int) -> None:
            # Workers retry the connect until run_sweep's daemon binds the
            # port, so starting them first is fine; if the other worker
            # drains the whole sweep before this one ever connects, the
            # daemon being gone is a normal outcome, not a failure.
            try:
                run_worker(
                    "127.0.0.1", port, name=f"w{index}", connect_timeout=20.0
                )
            except DispatchError:
                pass

        workers = [
            threading.Thread(target=patient_worker, args=(index,), daemon=True)
            for index in range(2)
        ]
        for worker in workers:
            worker.start()
        dispatched = run_sweep(
            spec,
            dispatch=DispatchSpec(port=port, poll_interval=0.05),
        )
        for worker in workers:
            worker.join(timeout=15)
        serial = run_sweep(spec, jobs=1)
        assert comparable_artifact(dispatched) == comparable_artifact(serial)

    def test_non_portable_point_rejected_before_serving(self) -> None:
        class OpaqueWorkload:
            def access_set(self, rng, now):  # pragma: no cover - never runs
                return []

            def all_keys(self):
                return ["o%06d" % i for i in range(10)]

        spec = SweepSpec(
            name="opaque",
            points=[
                SweepPoint(
                    label="bad",
                    config=ColumnConfig(seed=1, duration=1.0),
                    workload=OpaqueWorkload(),
                )
            ],
        )
        daemon = one_sweep_daemon()
        with pytest.raises(ConfigurationError, match="portable"):
            serve_sweep(daemon, spec)
        assert daemon.queue.names() == []
        assert daemon.stats.connections == 0

    def test_empty_sweep_completes_without_workers(self) -> None:
        result = run_sweep(
            SweepSpec(name="empty", points=[]),
            dispatch=DispatchSpec(poll_interval=0.05),
        )
        assert result.results == []

    def test_dispatch_and_fleet_give_equal_bytes_and_dispatch_writes_nothing(
        self, tmp_path, monkeypatch
    ) -> None:
        """The same spec through ``dispatch=DispatchSpec`` (a daemon of its
        own, no journal) and ``dispatch=FleetSpec`` (submitted to a running,
        journaled one) yields equal artifact bytes; the ephemeral daemon
        reports ``journal_dir: None`` and leaves no file behind."""
        spec = small_spec(3, scenario=False)
        monkeypatch.chdir(tmp_path)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        status_box: dict[str, object] = {}

        def worker_after_status() -> None:
            # Ask the one-sweep daemon about itself while it is serving,
            # then do its work.
            status_box["daemon"] = FleetClient("127.0.0.1", port).status()["daemon"]
            run_worker("127.0.0.1", port, name="w0")

        worker = threading.Thread(target=worker_after_status, daemon=True)
        worker.start()
        dispatched = run_sweep(
            spec, dispatch=DispatchSpec(port=port, poll_interval=0.05)
        )
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert status_box["daemon"]["journal_dir"] is None
        assert list(tmp_path.iterdir()) == []

        journal_dir = tmp_path / "journals"
        fleet_daemon = FleetDaemon(
            FleetConfig(journal_dir=str(journal_dir), poll_interval=0.05)
        )
        fleet_daemon.start()
        host, fleet_port = fleet_daemon.address
        fleet_worker = threading.Thread(
            target=run_worker,
            args=(host, fleet_port),
            kwargs={"name": "w1", "max_idle": 2.0},
            daemon=True,
        )
        fleet_worker.start()
        try:
            fleet = run_sweep(
                spec,
                dispatch=FleetSpec(
                    host=host, port=fleet_port, poll_interval=0.05, wait_timeout=60.0
                ),
            )
        finally:
            fleet_daemon.shutdown()
        fleet_worker.join(timeout=30)
        assert comparable_artifact(dispatched) == comparable_artifact(fleet)
        assert comparable_artifact(dispatched) == comparable_artifact(
            run_sweep(spec, jobs=1)
        )


class TestWorkerFailure:
    def test_sigkilled_worker_mid_chunk_is_reassigned(self) -> None:
        """A worker is SIGKILLed while holding a part-finished chunk: the
        daemon must keep its streamed result, re-queue the rest, and the
        final artifact must stay byte-identical to the serial run."""
        spec = small_spec(6, scenario=False)
        serial = run_sweep(spec, jobs=1)

        # lease_timeout is deliberately long: recovery in this test must
        # come from the connection-loss path, not the lease clock.
        daemon = one_sweep_daemon(chunk_points=3, lease_timeout=120.0)
        entry = daemon.submit(spec)
        daemon.start()  # accept connections while we stage the drill
        host, port = daemon.address
        # The victim executes one point of its three-point chunk, then goes
        # silent (still connected, heartbeats suppressed) — a deterministic
        # "mid-chunk" state for the SIGKILL below.
        victim = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "worker",
                "--connect",
                f"{host}:{port}",
                "--fault",
                "stall:1:300",
                "--worker-name",
                "victim",
            ],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        try:
            deadline = time.monotonic() + 60.0
            while entry.completed < 1:
                assert time.monotonic() < deadline, "victim made no progress"
                assert victim.poll() is None, "victim died prematurely"
                time.sleep(0.05)
            completed_before_kill = entry.completed
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)

            rescuer = threading.Thread(
                target=run_worker,
                args=(host, port),
                kwargs={"name": "rescuer"},
                daemon=True,
            )
            rescuer.start()
            dispatched = serve_sweep(daemon, spec)
            rescuer.join(timeout=30)
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup on failure
                victim.kill()

        assert comparable_artifact(dispatched) == comparable_artifact(serial)
        # The victim's streamed results were kept, not re-run...
        assert completed_before_kill >= 1
        # ...and its unfinished lease really was reassigned.
        assert daemon.queue.leases_requeued >= 1

    def test_stalled_worker_loses_lease_to_timeout(self) -> None:
        """A connected-but-silent worker holds a lease past the timeout:
        the serve loop's expiry sweep must hand its chunk to a live worker
        without waiting for the connection to die."""
        spec = small_spec(3, scenario=False)
        serial = run_sweep(spec, jobs=1)
        daemon = one_sweep_daemon(
            chunk_points=3, lease_timeout=1.0, poll_interval=0.1
        )
        daemon.submit(spec)
        daemon.start()  # the zombie handshakes before the serve loop
        host, port = daemon.address

        # A protocol-level zombie: says hello, takes the whole sweep as one
        # chunk, then never speaks again (but keeps the socket open).
        zombie = socket.create_connection((host, port))
        send_frame(
            zombie,
            {"type": "hello", "worker": "zombie", "protocol": PROTOCOL_VERSION},
        )
        assert recv_frame(zombie)["type"] == "welcome"
        send_frame(zombie, {"type": "request"})
        chunk = recv_frame(zombie)
        assert chunk["type"] == "chunk" and len(chunk["points"]) == 3

        rescuer = threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs={"name": "rescuer"},
            daemon=True,
        )
        rescuer.start()
        dispatched = serve_sweep(daemon, spec)
        rescuer.join(timeout=30)
        # The zombie limps back with a result for a point the rescuer has
        # long since delivered.  A stopped daemon just hangs up on it; the
        # artifact below is what proves first-writer-wins.
        send_frame(
            zombie,
            {
                "type": "result",
                "sweep": chunk["sweep"],
                "index": 0,
                "result": {"kind": "column", "payload": {}},
            },
        )
        assert recv_frame(zombie) is None
        zombie.close()

        assert comparable_artifact(dispatched) == comparable_artifact(serial)
        assert daemon.queue.leases_requeued >= 1

    def test_crash_fault_plan_round_trip(self) -> None:
        """The in-process flavour of the kill drill: a worker thread using
        FaultPlan(disconnect) drops mid-chunk; a second worker finishes."""
        spec = small_spec(4, scenario=False)
        serial = run_sweep(spec, jobs=1)
        daemon = one_sweep_daemon(chunk_points=2)
        host, port = daemon.address
        flaky = threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs={
                "name": "flaky",
                "faults": FaultPlan(kind="disconnect", after_points=1),
            },
            daemon=True,
        )
        steady = threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs={"name": "steady"},
            daemon=True,
        )
        flaky.start()
        steady.start()
        dispatched = serve_sweep(daemon, spec)
        for thread in (flaky, steady):
            thread.join(timeout=15)
        assert comparable_artifact(dispatched) == comparable_artifact(serial)

    def test_after_points_zero_dies_before_any_work(self) -> None:
        """``disconnect:0`` is the connect-then-die drill: the worker takes
        a chunk and drops it untouched; another worker must finish."""
        spec = small_spec(2, scenario=False)
        serial = run_sweep(spec, jobs=1)
        daemon = one_sweep_daemon(chunk_points=2)
        daemon.submit(spec)
        daemon.start()  # the drone handshakes before the serve loop
        host, port = daemon.address
        stats_box: dict[str, object] = {}

        def useless_worker() -> None:
            stats_box["stats"] = run_worker(
                host,
                port,
                name="useless",
                faults=FaultPlan(kind="disconnect", after_points=0),
            )

        useless = threading.Thread(target=useless_worker, daemon=True)
        useless.start()
        useless.join(timeout=15)
        assert stats_box["stats"].points_executed == 0

        steady = threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs={"name": "steady"},
            daemon=True,
        )
        steady.start()
        dispatched = serve_sweep(daemon, spec)
        steady.join(timeout=15)
        assert comparable_artifact(dispatched) == comparable_artifact(serial)


class TestProtocolPolicing:
    def test_version_mismatch_refused_at_hello(self) -> None:
        daemon = one_sweep_daemon()
        daemon.submit(small_spec(1, scenario=False))
        daemon.start()
        host, port = daemon.address
        try:
            sock = socket.create_connection((host, port))
            send_frame(
                sock, {"type": "hello", "worker": "old", "protocol": -1}
            )
            reply = recv_frame(sock)
            assert reply["type"] == "error" and reply["code"] == "protocol"
            assert "version" in reply["message"]
            sock.close()
        finally:
            daemon.shutdown()

    def test_garbage_first_frame_gets_error_not_hang(self) -> None:
        daemon = one_sweep_daemon()
        daemon.submit(small_spec(1, scenario=False))
        daemon.start()
        host, port = daemon.address
        try:
            sock = socket.create_connection((host, port))
            sock.sendall(b"\x00\x00\x00\x03[1]")
            reply = recv_frame(sock)
            assert reply["type"] == "error" and reply["code"] == "protocol"
            sock.close()
        finally:
            daemon.shutdown()

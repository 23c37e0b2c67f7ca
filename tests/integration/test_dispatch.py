"""Integration tests for ``--dispatch``: a fleet daemon living for one sweep.

The load-bearing property: a sweep served by an ephemeral, journal-less
:class:`FleetDaemon` to workers — including runs where a worker is killed
mid-chunk — produces a ``SweepResult.to_artifact()`` byte-identical to
``run_sweep(spec, jobs=1)``, modulo the two run-metadata fields (``jobs``,
``wall_clock_seconds``) that describe the executor rather than the results.
Drills that need to reach into the daemon build it themselves and submit
through ``run_sweep(dispatch=FleetSpec(...))``, the client ``--dispatch``
uses (:func:`serve`).
"""

from __future__ import annotations

import json
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
)
from repro.dispatch import daemon as daemon_module
from repro.dispatch import fleet as fleet_module
from repro.dispatch import worker as worker_module
from repro.dispatch.journal import journal_path
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
    monkeypatch,
    *,
    chunk_points: int = 1,
    lease_timeout: float = 20.0,
    poll_interval: float = 0.05,
    journal_dir: str | None = None,
) -> FleetDaemon:
    """The daemon ``run_dispatched`` starts (journaled only if asked), on an
    OS-chosen port the test can read back, handing out fixed
    ``chunk_points``-sized leases."""
    monkeypatch.setattr(fleet_module, "PROBE_CHUNK_POINTS", chunk_points)
    monkeypatch.setattr(fleet_module, "MAX_CHUNK_POINTS", chunk_points)
    return FleetDaemon(
        FleetConfig(
            lease_timeout=lease_timeout,
            poll_interval=poll_interval,
            journal_dir=journal_dir,
        )
    )


def free_port() -> int:
    """A port nothing listens on, for a daemon that binds it later."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def record_frames(monkeypatch, module) -> list[dict]:
    """Every frame ``module`` sends from now on, in order."""
    frames: list[dict] = []
    send = module.send_frame

    def record(sock, payload: dict) -> None:
        frames.append(payload)
        send(sock, payload)

    monkeypatch.setattr(module, "send_frame", record)
    return frames


def journaled_indices(journal_dir: str, sweep: str) -> list[int]:
    """Every point index in ``sweep``'s journal, in file order."""
    with open(journal_path(journal_dir, sweep), encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    return [line["index"] for line in lines if line["kind"] == "point"]


def submit(daemon: FleetDaemon, spec: SweepSpec):
    """Start ``daemon`` and stage ``spec`` through the wire verb before any
    worker asks; returns the daemon's entry for it."""
    daemon.start()
    FleetClient(*daemon.address, secret=daemon.config.secret).submit(spec)
    return daemon.queue.entry(spec.name)


def serve(daemon: FleetDaemon, spec: SweepSpec):
    """What ``run_dispatched`` does, against a daemon the test built: start
    it, submit ``spec`` under its own name through the fleet client (so an
    entry the test queued in advance is attached, not duplicated), wait for
    the workers, and shut the daemon down."""
    daemon.start()
    try:
        return run_sweep(
            spec,
            dispatch=FleetSpec(
                *daemon.address,
                secret=daemon.config.secret,
                name=spec.name,
                poll_interval=daemon.config.poll_interval,
            ),
        )
    finally:
        daemon.shutdown()


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
    result = serve(daemon, spec)
    for thread in threads:
        thread.join(timeout=15)
        assert not thread.is_alive(), "worker was not told the sweep is done"
    return result


class TestDispatchEquivalence:
    def test_two_workers_byte_identical_to_serial(self, monkeypatch) -> None:
        spec = small_spec()
        serial = run_sweep(spec, jobs=1)
        daemon = one_sweep_daemon(monkeypatch, chunk_points=2)
        dispatched = serve_with_worker_threads(spec, daemon, n_workers=2)
        assert comparable_artifact(dispatched) == comparable_artifact(serial)
        assert dispatched.jobs == 2  # both workers participated
        assert daemon.queue.leases_requeued == 0

    def test_run_sweep_dispatch_argument(self) -> None:
        """``run_sweep(spec, dispatch=...)`` is the same executor behind the
        library API: workers dial the fixed port while the sweep serves."""
        spec = small_spec(2, scenario=False)
        port = free_port()

        def patient_worker(index: int) -> None:
            # Workers retry the connect until run_sweep's daemon binds the
            # port, so starting them first is fine; if the other worker
            # drains the whole sweep before this one ever connects, the
            # daemon being gone is a normal outcome, not a failure. The
            # connect deadline stays inside the join below, so a worker
            # that never got in gives up instead of outliving the test.
            try:
                run_worker(
                    "127.0.0.1", port, name=f"w{index}", connect_timeout=5.0
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
        assert not any(worker.is_alive() for worker in workers)
        serial = run_sweep(spec, jobs=1)
        assert comparable_artifact(dispatched) == comparable_artifact(serial)

    def test_non_portable_point_rejected_before_serving(self, monkeypatch) -> None:
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
        daemon = one_sweep_daemon(monkeypatch)
        with pytest.raises(ConfigurationError, match="portable"):
            serve(daemon, spec)
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
        port = free_port()
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
    def test_sigkilled_worker_mid_chunk_is_reassigned(self, monkeypatch) -> None:
        """A worker is SIGKILLed while holding a part-finished chunk: the
        daemon must keep its streamed result, re-queue the rest, and the
        final artifact must stay byte-identical to the serial run."""
        spec = small_spec(6, scenario=False)
        serial = run_sweep(spec, jobs=1)

        # lease_timeout is deliberately long: recovery in this test must
        # come from the connection-loss path, not the lease clock.
        daemon = one_sweep_daemon(monkeypatch, chunk_points=3, lease_timeout=120.0)
        entry = submit(daemon, spec)  # accept connections while we stage the drill
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
            dispatched = serve(daemon, spec)
            rescuer.join(timeout=30)
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup on failure
                victim.kill()

        assert comparable_artifact(dispatched) == comparable_artifact(serial)
        # The victim's streamed results were kept, not re-run...
        assert completed_before_kill >= 1
        # ...and its unfinished lease really was reassigned.
        assert daemon.queue.leases_requeued >= 1

    def test_stalled_worker_loses_lease_to_timeout(self, monkeypatch) -> None:
        """A connected-but-silent worker holds a lease past the timeout:
        the daemon's own lease clock must hand its chunk to a live worker
        without waiting for the connection to die."""
        spec = small_spec(3, scenario=False)
        serial = run_sweep(spec, jobs=1)
        daemon = one_sweep_daemon(
            monkeypatch, chunk_points=3, lease_timeout=1.0, poll_interval=0.1
        )
        submit(daemon, spec)  # the zombie handshakes before the submitter
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
        dispatched = serve(daemon, spec)
        rescuer.join(timeout=30)
        # The zombie limps back with a result for a point the rescuer has
        # long since delivered.  A stopped daemon just hangs up on it; the
        # artifact below is what proves first-writer-wins.
        send_frame(
            zombie,
            {
                "type": "heartbeat",
                "sweep": chunk["sweep"],
                "results": [[0, {"kind": "column", "payload": {}}]],
            },
        )
        assert recv_frame(zombie) is None
        zombie.close()

        assert comparable_artifact(dispatched) == comparable_artifact(serial)
        assert daemon.queue.leases_requeued >= 1

    def test_crash_fault_plan_round_trip(self, monkeypatch) -> None:
        """The in-process flavour of the kill drill: a worker thread using
        FaultPlan(disconnect) drops mid-chunk; a second worker finishes."""
        spec = small_spec(4, scenario=False)
        serial = run_sweep(spec, jobs=1)
        daemon = one_sweep_daemon(monkeypatch, chunk_points=2)
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
        dispatched = serve(daemon, spec)
        for thread in (flaky, steady):
            thread.join(timeout=15)
        assert comparable_artifact(dispatched) == comparable_artifact(serial)

    def test_after_points_zero_dies_before_any_work(self, monkeypatch) -> None:
        """``disconnect:0`` is the connect-then-die drill: the worker takes
        a chunk and drops it untouched; another worker must finish."""
        spec = small_spec(2, scenario=False)
        serial = run_sweep(spec, jobs=1)
        daemon = one_sweep_daemon(monkeypatch, chunk_points=2)
        submit(daemon, spec)  # the drone handshakes before the submitter
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
        dispatched = serve(daemon, spec)
        steady.join(timeout=15)
        assert comparable_artifact(dispatched) == comparable_artifact(serial)


class TestFrameBudget:
    """Finished results ride on the frames a worker sends anyway: one
    ``request`` per lease (or a ``heartbeat``), never a frame per point."""

    def test_one_request_per_lease_and_no_frame_per_point(
        self, monkeypatch, tmp_path
    ) -> None:
        spec = small_spec(12, scenario=False)
        serial = run_sweep(spec, jobs=1)
        # A long poll: the worker's last request is held until shutdown says
        # done, never answered wait and asked again.
        daemon = one_sweep_daemon(
            monkeypatch, chunk_points=4, poll_interval=5.0, journal_dir=str(tmp_path)
        )
        sent = record_frames(monkeypatch, worker_module)
        replies = record_frames(monkeypatch, daemon_module)
        dispatched = serve_with_worker_threads(spec, daemon, n_workers=1)

        # The submitter's hellos go through the worker module's handshake
        # too; everything else counted here is the worker connection's.
        sent = [frame for frame in sent if frame.get("role") != "submitter"]
        kinds = [frame["type"] for frame in sent]
        leases = [reply for reply in replies if reply["type"] == "chunk"]
        assert [len(lease["points"]) for lease in leases] == [4, 4, 4]
        assert set(kinds) <= {"hello", "request", "heartbeat", "goodbye"}
        assert kinds.count("hello") == kinds.count("goodbye") == 1
        # One request per lease, plus the last one, which is told done.
        assert kinds.count("request") == len(leases) + 1
        carried = [index for frame in sent for index, _ in frame.get("results", ())]
        assert sorted(carried) == list(range(12))
        assert sorted(journaled_indices(str(tmp_path), spec.name)) == list(range(12))
        assert comparable_artifact(dispatched) == comparable_artifact(serial)

    def test_undelivered_results_cost_only_reexecution(
        self, monkeypatch, tmp_path
    ) -> None:
        """A worker that drops its connection holding two finished points of
        a four-point lease loses them: the lease is re-queued whole, another
        worker recomputes it, and the bytes do not move."""
        spec = small_spec(4, scenario=False)
        serial = run_sweep(spec, jobs=1)
        daemon = one_sweep_daemon(monkeypatch, chunk_points=4, journal_dir=str(tmp_path))
        entry = submit(daemon, spec)
        host, port = daemon.address
        flaky = run_worker(
            host,
            port,
            name="flaky",
            faults=FaultPlan(kind="disconnect", after_points=2),
            heartbeat_interval=60.0,  # no heartbeat delivers them either
        )
        assert flaky.points_executed == 2 and flaky.disconnected
        assert entry.completed == 0

        steady = threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs={"name": "steady"},
            daemon=True,
        )
        steady.start()
        dispatched = serve(daemon, spec)
        steady.join(timeout=15)
        assert comparable_artifact(dispatched) == comparable_artifact(serial)
        assert entry.executed == 4
        assert daemon.queue.leases_requeued == 1
        assert sorted(journaled_indices(str(tmp_path), spec.name)) == list(range(4))


    def test_heartbeats_racing_the_worker_deliver_each_result_once(
        self, monkeypatch, tmp_path
    ) -> None:
        """Three workers on two-point leases of ~3 ms points heartbeat every
        millisecond with thread switches forced every 10 µs, so heartbeats
        keep taking results the worker thread is still appending: a result
        lost between the two stalls the sweep, one sent twice reads as a
        duplicate."""
        config = ColumnConfig(seed=1, duration=0.05, warmup=0.02)
        spec = SweepSpec(
            name="racing",
            root_seed=1,
            points=[
                SweepPoint(
                    label=f"col{index}",
                    config=replace(config, seed=derive_seed(1, index)),
                    workload=PerfectClusterWorkload(n_objects=40, cluster_size=4),
                )
                for index in range(60)
            ],
        )
        serial = run_sweep(spec, jobs=1)
        daemon = one_sweep_daemon(monkeypatch, chunk_points=2, journal_dir=str(tmp_path))
        sent = record_frames(monkeypatch, worker_module)
        host, port = daemon.address
        stats: list = []
        workers = [
            threading.Thread(
                target=lambda index=index: stats.append(
                    run_worker(host, port, name=f"w{index}", heartbeat_interval=0.001)
                ),
                daemon=True,
            )
            for index in range(3)
        ]
        served: dict[str, object] = {}
        server = threading.Thread(
            target=lambda: served.update(result=serve(daemon, spec)),
            daemon=True,
        )
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in workers + [server]:
                thread.start()
            server.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
            daemon.shutdown()  # frees the workers if a result was lost
        for thread in workers:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert "result" in served, "a held result never reached the daemon"
        assert any(
            frame["type"] == "heartbeat" and frame.get("results") for frame in sent
        )
        assert sum(worker.duplicate_results for worker in stats) == 0
        assert sorted(journaled_indices(str(tmp_path), spec.name)) == list(range(60))
        assert comparable_artifact(served["result"]) == comparable_artifact(serial)


class TestCancel:
    def test_cancelling_a_dispatched_sweep_fails_the_submitter(self) -> None:
        """``fleet cancel`` against a ``--dispatch`` address ends the run with
        an error naming the cancel, instead of blocking it for good."""
        port = free_port()
        outcome: dict[str, Exception] = {}

        def submit() -> None:
            try:
                run_sweep(
                    small_spec(3, scenario=False),
                    dispatch=DispatchSpec(port=port, poll_interval=0.05),
                )
            except Exception as exc:  # reported below
                outcome["error"] = exc

        submitter = threading.Thread(target=submit, daemon=True)
        submitter.start()
        client = FleetClient("127.0.0.1", port, connect_timeout=5.0)
        deadline = time.monotonic() + 10.0
        while not (sweeps := client.status()["sweeps"]):
            assert time.monotonic() < deadline, "the sweep was never submitted"
            time.sleep(0.01)
        (row,) = sweeps  # no worker ever connects
        assert client.cancel(row["sweep"])["existed"]
        submitter.join(timeout=5.0)
        assert not submitter.is_alive(), "run_sweep still blocked after the cancel"
        assert isinstance(outcome.get("error"), DispatchError), outcome
        assert "cancelled" in str(outcome["error"])


class TestProtocolPolicing:
    def test_version_mismatch_refused_at_hello(self, monkeypatch) -> None:
        daemon = one_sweep_daemon(monkeypatch)
        submit(daemon, small_spec(1, scenario=False))
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

    def test_garbage_first_frame_gets_error_not_hang(self, monkeypatch) -> None:
        daemon = one_sweep_daemon(monkeypatch)
        submit(daemon, small_spec(1, scenario=False))
        host, port = daemon.address
        try:
            sock = socket.create_connection((host, port))
            sock.sendall(b"\x00\x00\x00\x03[1]")
            reply = recv_frame(sock)
            assert reply["type"] == "error" and reply["code"] == "protocol"
            sock.close()
        finally:
            daemon.shutdown()

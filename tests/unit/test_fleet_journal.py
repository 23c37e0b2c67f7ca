"""Unit tests for the fleet daemon's append-only sweep journals.

The corruption policy is the contract under test: a truncated *final*
line (the one damage an interrupted append legitimately produces) is
skipped with a warning, while every other kind of damage — duplicate
point indices, a journal written by a different sweep spec, garbage in
the middle of the file — fails loudly with :class:`JournalError` rather
than silently seeding wrong results.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.dispatch.client import FleetClient
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.journal import (
    JOURNAL_SCHEMA,
    SweepJournal,
    artifact_fingerprint,
    journal_path,
    list_journals,
    sweep_fingerprint,
)
from repro.dispatch.worker import run_worker
from repro.errors import ConfigurationError, DispatchError, JournalError
from repro.experiments.config import ColumnConfig
from repro.experiments.sweep import (
    SweepPoint,
    SweepSpec,
    derive_seed,
    spec_artifact,
)
from repro.workloads.synthetic import PerfectClusterWorkload


def tiny_spec(n_points: int = 3, *, root_seed: int = 1) -> SweepSpec:
    workload = PerfectClusterWorkload(n_objects=40, cluster_size=4)
    config = ColumnConfig(seed=1, duration=0.4, warmup=0.2)
    return SweepSpec(
        name="journal-spec",
        root_seed=root_seed,
        points=[
            SweepPoint(
                label=f"col{index}",
                config=replace(config, seed=derive_seed(root_seed, index)),
                workload=workload,
                params={"index": index},
            )
            for index in range(n_points)
        ],
    )


def create(journal_dir, spec: SweepSpec, **kwargs) -> SweepJournal:
    """A fresh journal for ``spec``, from its one artifact and fingerprint."""
    return SweepJournal.create(
        str(journal_dir),
        spec_artifact(spec),
        fingerprint=sweep_fingerprint(spec),
        **kwargs,
    )


def wire_result(index: int) -> dict:
    """A stand-in for an ``encode_result`` payload; journals never decode."""
    return {"kind": "column", "payload": {"index": index}}


class TestFingerprint:
    def test_prefix_and_stability(self) -> None:
        spec = tiny_spec()
        fingerprint = sweep_fingerprint(spec)
        assert fingerprint.startswith("sha256:")
        assert fingerprint == sweep_fingerprint(tiny_spec())

    def test_different_grids_differ(self) -> None:
        assert sweep_fingerprint(tiny_spec(3)) != sweep_fingerprint(tiny_spec(4))
        assert sweep_fingerprint(tiny_spec(root_seed=1)) != sweep_fingerprint(
            tiny_spec(root_seed=2)
        )


class TestJournalPath:
    def test_unsafe_characters_sanitised(self, tmp_path) -> None:
        path = journal_path(str(tmp_path), "fig3 run/α#7")
        assert path.endswith(".jsonl")
        assert "/α" not in path and " " not in path.rsplit("/", 1)[-1]

    @pytest.mark.parametrize("name", ["", ".", ".."])
    def test_names_with_no_safe_filename_rejected(self, tmp_path, name) -> None:
        with pytest.raises(ConfigurationError):
            journal_path(str(tmp_path), name)

    def test_list_journals_sorted_and_missing_dir_empty(self, tmp_path) -> None:
        assert list_journals(str(tmp_path / "nope")) == []
        for name in ("b", "a"):
            create(tmp_path, tiny_spec(), name=name).close()
        (tmp_path / "not-a-journal.txt").write_text("ignored")
        assert [p.rsplit("/", 1)[-1] for p in list_journals(str(tmp_path))] == [
            "a.jsonl",
            "b.jsonl",
        ]


class TestRoundTrip:
    def test_create_record_replay(self, tmp_path) -> None:
        spec = tiny_spec()
        with create(tmp_path, spec, name="rt", priority=7) as journal:
            assert journal.record(1, wire_result(1))
            assert journal.record(0, wire_result(0))
        replayed = SweepJournal.replay(journal.path)
        assert replayed.name == "rt"
        assert replayed.total == len(spec.points)
        assert replayed.priority == 7
        assert replayed.results == {0: wire_result(0), 1: wire_result(1)}
        assert replayed.warnings == []

    def test_rebuild_spec_round_trips_through_from_dict(self, tmp_path) -> None:
        spec = tiny_spec()
        create(tmp_path, spec, name="rt").close()
        replayed = SweepJournal.replay(journal_path(str(tmp_path), "rt"))
        rebuilt = replayed.rebuild_artifact()
        # The journaled grid rebuilds to the same portable artifact, so
        # every SweepPoint survived its from_dict round-trip.
        assert rebuilt == spec_artifact(spec)
        assert artifact_fingerprint(rebuilt) == replayed.fingerprint

    def test_attach_resumes_and_keeps_appending(self, tmp_path) -> None:
        spec = tiny_spec()
        with create(tmp_path, spec, name="rt") as journal:
            journal.record(0, wire_result(0))
        attached, replayed = SweepJournal.attach(
            journal.path, expected_fingerprint=sweep_fingerprint(spec)
        )
        with attached:
            assert replayed.results == {0: wire_result(0)}
            assert not attached.record(0, wire_result(0))  # already durable
            assert attached.record(2, wire_result(2))
        final = SweepJournal.replay(journal.path)
        assert sorted(final.results) == [0, 2]

    def test_duplicate_create_refused(self, tmp_path) -> None:
        create(tmp_path, tiny_spec(), name="dup").close()
        with pytest.raises(JournalError, match="already exists"):
            create(tmp_path, tiny_spec(), name="dup")

    def test_record_out_of_range_refused(self, tmp_path) -> None:
        with create(tmp_path, tiny_spec(3), name="rt") as j:
            with pytest.raises(JournalError, match="outside"):
                j.record(3, wire_result(3))


class TestCorruptionPolicy:
    def make_journal(self, tmp_path, *, points=(0, 1)) -> str:
        spec = tiny_spec()
        with create(tmp_path, spec, name="c") as journal:
            for index in points:
                journal.record(index, wire_result(index))
        return journal.path

    def test_truncated_final_line_skipped_with_warning(self, tmp_path) -> None:
        path = self.make_journal(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "point", "index": 2, "res')  # no newline
        replayed = SweepJournal.replay(path)
        assert sorted(replayed.results) == [0, 1]
        assert len(replayed.warnings) == 1
        assert "truncated" in replayed.warnings[0]

    def test_empty_file_is_loud(self, tmp_path) -> None:
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            SweepJournal.replay(str(path))

    def test_truncated_header_fragment_is_loud(self, tmp_path) -> None:
        path = tmp_path / "frag.jsonl"
        path.write_text('{"kind": "sweep", "schema"')
        with pytest.raises(JournalError, match="no complete header"):
            SweepJournal.replay(str(path))

    def test_duplicate_point_index_is_loud(self, tmp_path) -> None:
        path = self.make_journal(tmp_path, points=(0,))
        line = json.dumps({"kind": "point", "index": 0, "result": wire_result(0)})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        with pytest.raises(JournalError, match="duplicate journal entry"):
            SweepJournal.replay(path)

    def test_mismatched_sweep_spec_is_loud(self, tmp_path) -> None:
        path = self.make_journal(tmp_path)
        other = sweep_fingerprint(tiny_spec(root_seed=99))
        with pytest.raises(JournalError, match="different sweep spec"):
            SweepJournal.replay(path, expected_fingerprint=other)

    def test_edited_spec_payload_cannot_masquerade(self, tmp_path) -> None:
        # Keep the header's fingerprint but swap in a different grid: the
        # rebuild re-hashes and refuses.
        path = self.make_journal(tmp_path)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["spec"] = spec_artifact(tiny_spec(root_seed=99))
        lines[0] = json.dumps(header, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        replayed = SweepJournal.replay(path)
        with pytest.raises(JournalError, match="rebuilds to fingerprint"):
            replayed.rebuild_artifact()

    def test_garbage_middle_line_is_loud(self, tmp_path) -> None:
        path = self.make_journal(tmp_path, points=(0,))
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        lines.insert(1, "not json at all")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="unreadable journal line"):
            SweepJournal.replay(path)

    def test_out_of_range_index_is_loud(self, tmp_path) -> None:
        # JSON true/false are Python bools, an int subclass: ``true`` would
        # pass a bare range check and seed a result under key ``True``.
        for case, index in enumerate((99, -1, True, False)):
            path = self.make_journal(tmp_path / str(case), points=())
            line = json.dumps({"kind": "point", "index": index, "result": {}})
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
            with pytest.raises(JournalError, match="outside"):
                SweepJournal.replay(path)

    @pytest.mark.parametrize("field", ["total", "priority"])
    def test_boolean_header_integer_is_loud(self, tmp_path, field) -> None:
        path = self.make_journal(tmp_path, points=())
        header = json.loads(Path(path).read_text(encoding="utf-8").splitlines()[0])
        header[field] = True
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
        with pytest.raises(JournalError, match="malformed sweep header"):
            SweepJournal.replay(path)

    def test_header_total_must_match_its_spec(self, tmp_path) -> None:
        # The fingerprint hashes the spec, not ``total``: a header claiming
        # fewer points than its grid would let the queue accept a result
        # the journal then refuses to record.
        path = self.make_journal(tmp_path, points=())
        header = json.loads(Path(path).read_text(encoding="utf-8").splitlines()[0])
        assert header["total"] == len(header["spec"]["columns"]) == 3
        header["total"] = 1
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
        with pytest.raises(JournalError, match=r"total 1 .* 3 columns"):
            SweepJournal.replay(path)

    def test_unknown_schema_is_loud(self, tmp_path) -> None:
        path = self.make_journal(tmp_path, points=())
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == JOURNAL_SCHEMA
        header["schema"] = "repro.fleet-journal/99"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
        with pytest.raises(JournalError, match="unknown journal schema"):
            SweepJournal.replay(path)

    def test_non_object_line_is_loud(self, tmp_path) -> None:
        path = self.make_journal(tmp_path, points=())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("[1, 2, 3]\n")
        with pytest.raises(JournalError, match="must be JSON objects"):
            SweepJournal.replay(path)


class TestOneSweepPerFile:
    def test_a_second_name_for_the_same_file_is_refused(self, tmp_path) -> None:
        """``a/b`` and ``a b`` both sanitise to ``a_b.jsonl``; the second
        submission must not append its points to the first one's journal."""
        daemon = FleetDaemon(FleetConfig(journal_dir=str(tmp_path), poll_interval=0.05))
        daemon.config.secret = None  # never pick up the test environment's
        daemon.start()
        client = FleetClient(*daemon.address)
        try:
            client.submit(tiny_spec(), name="a/b")
            with pytest.raises(DispatchError, match="sweep 'a/b'; sweep 'a b'"):
                client.submit(tiny_spec(), name="a b")
            assert daemon.queue.names() == ["a/b"]
            run_worker(*daemon.address, max_idle=0.5)
            assert daemon.queue.entry("a/b").state == "done"
        finally:
            daemon.shutdown()
        lines = (tmp_path / "a_b.jsonl").read_text(encoding="utf-8").splitlines()
        indices = [json.loads(line)["index"] for line in lines[1:]]
        assert sorted(indices) == [0, 1, 2]

        restarted = FleetDaemon(FleetConfig(journal_dir=str(tmp_path)))
        restarted.shutdown()
        assert restarted.queue.names() == ["a/b"]
        assert restarted.queue.entry("a/b").completed == 3


class TestFailedRestore:
    def test_a_corrupt_journal_releases_what_the_daemon_opened(
        self, tmp_path, monkeypatch
    ) -> None:
        """``a-good`` is attached before ``b-bad`` fails its replay.  While
        the exception — and through its traceback the half-built daemon —
        is still alive, the port binds again and nothing is left open."""
        with create(tmp_path, tiny_spec(), name="a-good") as journal:
            journal.record(0, wire_result(0))
        (tmp_path / "b-bad.jsonl").write_text("not json\n", encoding="utf-8")
        attached: list[SweepJournal] = []
        attach = SweepJournal.attach.__func__

        def tracking(cls, path, **kwargs):
            journal, replayed = attach(cls, path, **kwargs)
            attached.append(journal)
            return journal, replayed

        monkeypatch.setattr(SweepJournal, "attach", classmethod(tracking))
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        with pytest.raises(JournalError, match="b-bad") as excinfo:
            FleetDaemon(FleetConfig(port=port, journal_dir=str(tmp_path)))
        daemon = next(
            entry.frame.f_locals["self"]
            for entry in excinfo.traceback
            if isinstance(entry.frame.f_locals.get("self"), FleetDaemon)
        )
        with socket.create_server(("127.0.0.1", port)):
            pass
        sockets = (daemon._listener, daemon._wake_reader, daemon._wake_writer)
        assert [sock.fileno() for sock in sockets] == [-1, -1, -1]
        assert [os.path.basename(j.path) for j in attached] == ["a-good.jsonl"]
        assert all(journal._handle.closed for journal in attached)


class TestRestartArchiving:
    """``journal_expiry`` is decided inside a restart's one replay per file:
    a finished journal idle that long moves to ``archive/`` instead of being
    restored; a partial one is always restored."""

    @pytest.fixture()
    def journal_dir(self, tmp_path):
        for name, points in (("done", (0, 1, 2)), ("half", (0,))):
            with create(tmp_path, tiny_spec(), name=name) as j:
                for index in points:
                    j.record(index, wire_result(index))
        return tmp_path

    @pytest.fixture()
    def replays(self, monkeypatch):
        replayed: list[str] = []
        original = SweepJournal.replay

        def counting(path, **kwargs):
            replayed.append(os.path.basename(path))
            return original(path, **kwargs)

        monkeypatch.setattr(SweepJournal, "replay", staticmethod(counting))
        return replayed

    @staticmethod
    def restart(journal_dir, expiry) -> FleetDaemon:
        daemon = FleetDaemon(
            FleetConfig(journal_dir=str(journal_dir), journal_expiry=expiry)
        )
        daemon.shutdown()
        return daemon

    def test_zero_expiry_archives_every_finished_journal(
        self, journal_dir, replays
    ) -> None:
        daemon = self.restart(journal_dir, 0.0)
        assert replays == ["done.jsonl", "half.jsonl"]
        assert [row["sweep"] for row in daemon.queue.status_rows()] == ["half"]
        assert sorted(p.name for p in journal_dir.glob("*.jsonl")) == ["half.jsonl"]
        # Archived, not deleted: the results remain replayable by hand.
        archived = SweepJournal.replay(str(journal_dir / "archive" / "done.jsonl"))
        assert sorted(archived.results) == [0, 1, 2]

    @pytest.mark.parametrize("age, archived", [(120.0, True), (10.0, False)])
    def test_expiry_spares_recently_finished_journals(
        self, journal_dir, replays, age, archived
    ) -> None:
        stamp = time.time() - age
        os.utime(journal_dir / "done.jsonl", (stamp, stamp))
        daemon = self.restart(journal_dir, 60.0)
        assert replays == ["done.jsonl", "half.jsonl"]
        assert (journal_dir / "archive" / "done.jsonl").exists() is archived
        assert daemon.queue.names() == (["half"] if archived else ["done", "half"])

    def test_no_expiry_restores_everything(self, journal_dir, replays) -> None:
        # A sidecar cache left by an older daemon is neither read nor renewed.
        stale = journal_dir / ".index.json"
        stale.write_text("{stale", encoding="utf-8")
        daemon = self.restart(journal_dir, None)
        assert replays == ["done.jsonl", "half.jsonl"]
        assert daemon.queue.names() == ["done", "half"]
        assert not (journal_dir / "archive").exists()
        assert stale.read_text(encoding="utf-8") == "{stale"

    def test_negative_expiry_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="journal_expiry"):
            FleetConfig(journal_expiry=-1)

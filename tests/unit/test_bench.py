"""Unit tests for the tracked performance suite (repro.bench)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import BENCH_SCHEMA, compare_payloads, run_suite
from repro.bench.suite import sgt_history, sgt_read_sets
from repro.experiments.__main__ import main

#: Small enough for unit-test latency, big enough that every probe runs.
SCALE = 0.05


@pytest.fixture(scope="module")
def payload() -> dict:
    return run_suite(scale=SCALE)


class TestSuitePayload:
    def test_schema_and_sections(self, payload: dict) -> None:
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["scale"] == SCALE
        results = payload["results"]
        assert set(results) == {
            "column_throughput",
            "sgt_checks",
            "deplist_merge",
            "scenario",
            "commit_path",
            "kernel_sleep",
            "telemetry_overhead",
        }

    def test_column_probe_measures_events(self, payload: dict) -> None:
        column = payload["results"]["column_throughput"]
        assert column["events"] > 0
        assert column["events_per_sec"] > 0
        assert column["cache_reads"] > 0

    def test_sgt_probe_covers_three_sizes(self, payload: dict) -> None:
        by_size = payload["results"]["sgt_checks"]["by_size"]
        assert [entry["history_size"] < entry2["history_size"]
                for entry, entry2 in zip(by_size, by_size[1:])] == [True, True]
        for entry in by_size:
            assert entry["checks_per_sec"] > 0
            assert entry["records_per_sec"] > 0

    def test_commit_path_probe_covers_both_topologies(self, payload: dict) -> None:
        probe = payload["results"]["commit_path"]
        assert set(probe) == {"one_participant", "two_shards"}
        for topology in probe.values():
            assert topology["commits_per_sec"] > 0
            assert (
                topology["commits"] + topology["aborts"] == topology["transactions"]
            )
        # Same transactions either way; two shards add prepare rounds.
        assert probe["two_shards"]["events"] > probe["one_participant"]["events"]

    def test_kernel_sleep_probe_covers_both_wakes(self, payload: dict) -> None:
        probe = payload["results"]["kernel_sleep"]
        assert set(probe) == {"tie_free", "tie_heavy"}
        for schedule in probe.values():
            assert schedule["wakeups_per_sec"] > 0
            # One start per sleeper, two events per wake-up — inline or not.
            assert schedule["events"] == 16 + 2 * schedule["wakeups"]

    def test_telemetry_overhead_probe(self, payload: dict) -> None:
        probe = payload["results"]["telemetry_overhead"]
        assert probe["events_match"], "tracing changed the simulated work"
        assert probe["trace_records"] > 0
        assert probe["untraced_events_per_sec"] > 0
        assert probe["traced_events_per_sec"] > 0
        assert probe["overhead_ratio"] > 0

    def test_payload_is_json_serialisable(self, payload: dict) -> None:
        json.dumps(payload)

    def test_workload_is_deterministic(self, payload: dict) -> None:
        """Two runs at one scale measure the same work: every determinism
        witness (event counts, verdict counts) matches."""
        again = run_suite(scale=SCALE)
        assert (
            payload["results"]["column_throughput"]["events"]
            == again["results"]["column_throughput"]["events"]
        )
        first = [e["inconsistent"] for e in payload["results"]["sgt_checks"]["by_size"]]
        second = [e["inconsistent"] for e in again["results"]["sgt_checks"]["by_size"]]
        assert first == second
        for topology, probe in payload["results"]["commit_path"].items():
            rerun = again["results"]["commit_path"][topology]
            assert (probe["commits"], probe["events"]) == (
                rerun["commits"],
                rerun["events"],
            )

    def test_bad_scale_rejected(self) -> None:
        with pytest.raises(ValueError):
            run_suite(scale=0.0)
        with pytest.raises(ValueError):
            run_suite(scale=99.0)


class TestHistoryBuilders:
    def test_history_reads_see_current_versions(self) -> None:
        txns, current, previous = sgt_history(200)
        assert len(txns) == 200
        state: dict[str, int] = {}
        for txn in txns:
            for key, version in txn.reads.items():
                assert version == state.get(key, 0)
            for key, version in txn.writes.items():
                state[key] = version
        assert state == current
        for key, version in previous.items():
            assert version < current[key]

    def test_read_sets_are_bounded_staleness(self) -> None:
        _, current, previous = sgt_history(500)
        read_sets = sgt_read_sets(current, previous, 50)
        assert len(read_sets) == 50
        for reads in read_sets:
            for key, version in reads.items():
                assert version in (current[key], previous.get(key, 0))


class TestCompare:
    def test_identical_payloads_never_regress(self, payload: dict) -> None:
        rows = compare_payloads(payload, copy.deepcopy(payload))
        assert rows and all(not row["regressed"] for row in rows)
        assert all(row["ratio"] == 1.0 for row in rows)

    def test_big_slowdown_is_flagged(self, payload: dict) -> None:
        slower = copy.deepcopy(payload)
        slower["results"]["column_throughput"]["events_per_sec"] /= 10.0
        rows = compare_payloads(slower, payload)
        flagged = {row["metric"]: row["regressed"] for row in rows}
        assert flagged["column events/sec"] is True

    def test_mismatched_scales_refused(self, payload: dict) -> None:
        other = copy.deepcopy(payload)
        other["scale"] = 1.0
        with pytest.raises(ValueError, match="scales differ"):
            compare_payloads(payload, other)


class TestBenchCommand:
    def test_bench_writes_payload_and_diffs_baseline(
        self, tmp_path, capsys
    ) -> None:
        out = tmp_path / "bench.json"
        assert main(["bench", "--bench-scale", str(SCALE), "--json", str(out)]) == 0
        written = json.loads(out.read_text())
        assert written["schema"] == BENCH_SCHEMA

        # Report-only drift: exits 0 even if rates moved.
        assert (
            main(
                [
                    "bench",
                    "--bench-scale",
                    str(SCALE),
                    "--baseline",
                    str(out),
                ]
            )
            == 0
        )
        captured = capsys.readouterr().out
        assert "Drift vs" in captured

    def test_bench_scale_mismatch_fails_loudly(self, tmp_path) -> None:
        out = tmp_path / "bench.json"
        assert main(["bench", "--bench-scale", str(SCALE), "--json", str(out)]) == 0
        assert (
            main(["bench", "--bench-scale", "0.1", "--baseline", str(out)]) == 1
        )

    def test_baseline_outside_bench_rejected(self) -> None:
        with pytest.raises(SystemExit):
            main(["fig3", "--baseline", "whatever.json"])

    def test_profile_writes_stats_file(self, tmp_path) -> None:
        import pstats

        profile_path = tmp_path / "bench.prof"
        assert (
            main(
                [
                    "bench",
                    "--bench-scale",
                    str(SCALE),
                    "--profile",
                    str(profile_path),
                ]
            )
            == 0
        )
        stats = pstats.Stats(str(profile_path))
        assert stats.total_calls > 0

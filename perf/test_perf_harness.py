"""Tests of the benchmark's own machinery (collected by tier-1, a few seconds).

The workloads run here at the test-only ``TINY`` sizes and in this process;
what ``python3 perf/run.py`` measures is never asserted on — only that every
workload builds, runs, verifies and reports every declared metric once.
"""

from __future__ import annotations

import json
import os
import re
import threading

import pytest

from perf import compare, metrics, spans, workloads
from perf.child import run_child
from perf.run import contract_line, summarise

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------


def test_benchmark_json_matches_the_declared_names(benchmark_json):
    assert set(benchmark_json) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert benchmark_json["paths"] == ["perf"]
    assert [w["name"] for w in benchmark_json["workloads"]] == list(workloads.WORKLOADS)
    for kind, declared in (
        ("end_to_end", metrics.END_TO_END),
        ("per_layer", metrics.PER_LAYER),
    ):
        listed = [(m["name"], m["unit"], m["better"]) for m in benchmark_json[kind]]
        assert listed == list(declared)
    names = [w["name"] for w in benchmark_json["workloads"]]
    names += [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m[1]) for m in metrics.END_TO_END + metrics.PER_LAYER)
    assert all(m[2] in ("lower", "higher") for m in metrics.END_TO_END + metrics.PER_LAYER)
    for metric in benchmark_json["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert "setup_s" in [m["name"] for m in benchmark_json["end_to_end"]]
    assert set(metrics.EXACT) <= {m[0] for m in metrics.PER_LAYER}
    for workload in benchmark_json["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_span_targets_exist_and_name_a_known_layer():
    recorder = spans.Recorder(metrics.TARGETS)
    with recorder:
        pass
    assert recorder.missing == []
    assert {spans.layer_of(target.span) for target in metrics.TARGETS} <= set(
        metrics.LAYERS
    )


# ----------------------------------------------------------------------
# Every workload, tiny
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_verifies_and_reports_every_metric(name):
    untraced = run_child(name, 5, 0.0, tiny=True)
    traced = run_child(name, 5, 0.0, trace=True, tiny=True)
    reference = workloads.serial_reference(name, 5, tiny=True)
    record = summarise([untraced], traced, reference)

    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    # The traced run computed the same result as the untraced one.
    assert traced["units"][0]["digest"] == untraced["units"][0]["digest"]
    assert list(record["end_to_end"]) == [m[0] for m in metrics.END_TO_END]
    assert list(record["per_layer"]) == [m[0] for m in metrics.PER_LAYER]
    for stats in record["end_to_end"].values():
        assert stats["median"] > 0
    assert record["per_layer"]["trace.targets_missing"] == 0
    assert record["per_layer"]["trace.attributed_share"] > 0.5

    for trace in (False, True):
        line = json.loads(contract_line(record, trace=trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        declared = metrics.PER_LAYER if trace else metrics.END_TO_END
        assert list(line["metrics"]) == [m[0] for m in declared]
        assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def test_a_differing_point_or_digest_is_a_failed_op():
    report = run_child("dispatch_oneshot", 5, 0.0, tiny=True)
    reference = workloads.serial_reference("dispatch_oneshot", 5, tiny=True)
    assert summarise([report], None, reference)["failed"] == 0
    reference["points"][3] = "0" * 16
    record = summarise([report], None, reference)
    assert record["failed"] == 1 and not record["correct"]

    other = json.loads(json.dumps(report))
    other["units"][0]["digest"] = "f" * 64
    record = summarise([report, other], None, None)
    assert record["failed"] == other["units"][0]["ops"]


def test_workload_inputs_follow_the_seed():
    digests = {
        seed: run_child("sgt_replay", seed, 0.0, tiny=True)["units"][0]["digest"]
        for seed in (5, 5, 6)
    }
    assert len(digests) == 2 and len(set(digests.values())) == 2


# ----------------------------------------------------------------------
# spans.py
# ----------------------------------------------------------------------


class _Victim:
    def method(self, value):
        return value + 1

    @classmethod
    def build(cls):
        return cls()

    def steps(self, count):
        total = 0
        for index in range(count):
            total += yield index
        return total


def _victim_targets():
    return [
        spans.Target("cache.method", __name__, "_Victim.method"),
        spans.Target("cache.build", __name__, "_Victim.build"),
        spans.Target("db.steps", __name__, "_Victim.steps"),
        spans.Target("core.gone", __name__, "_Victim.removed_by_a_refactor"),
        spans.Target("core.gone", "perf.no_such_module", "anything"),
    ]


def test_recorder_restores_every_attribute_even_when_the_workload_raises():
    before = dict(vars(_Victim))
    recorder = spans.Recorder(_victim_targets())
    with pytest.raises(RuntimeError):
        with recorder:
            assert vars(_Victim)["method"] is not before["method"]
            assert isinstance(vars(_Victim)["build"], classmethod)
            assert _Victim.build().method(1) == 2
            raise RuntimeError("workload blew up")
    assert dict(vars(_Victim)) == before
    assert len(recorder.missing) == 2
    assert [span[spans.NAME] for span in recorder.spans] == [
        "cache.build",
        "cache.method",
    ]


def test_module_level_function_is_rebound_wherever_it_was_imported():
    from repro.core import detector, tcache

    original = detector.check_read
    assert tcache.check_read is original
    with spans.Recorder([spans.Target("core.check_read", detector.__name__, "check_read")]):
        assert detector.check_read is not original
        assert tcache.check_read is detector.check_read
    assert detector.check_read is original and tcache.check_read is original


def test_generator_entry_points_are_timed_per_resume():
    recorder = spans.Recorder(_victim_targets())
    with recorder:
        generator = _Victim().steps(2)
        assert next(generator) == 0
        assert generator.send(10) == 1
        with pytest.raises(StopIteration) as stop:
            generator.send(5)
    assert stop.value.value == 15
    assert recorder.generator_calls == {"db.steps": 1}
    assert [span[spans.NAME] for span in recorder.spans] == ["db.steps"] * 3


def test_self_time_on_a_hand_built_nested_and_threaded_span_set():
    # Thread A: unit [0, 10] > run [1, 9] > read [2, 4], read [5, 8] > check [6, 7].
    unit = ["perf.unit", 0.0, 10.0, None, "A", 1]
    run = ["sim.run", 1.0, 9.0, unit, None, None]
    read1 = ["cache.read", 2.0, 4.0, run, None, None]
    read2 = ["cache.read", 5.0, 8.0, run, None, None]
    check = ["core.check_read", 6.0, 7.0, read2, None, None]
    # Thread B overlaps A in time: recv [0, 6] is a root, with nothing below;
    # outer [6, 9] wraps an inner span of the same name (a delegating wrapper).
    recv = ["dispatch.frame.recv", 0.0, 6.0, None, "B", 1]
    outer = ["workloads.access_set", 6.0, 9.0, None, "B", 1]
    inner = ["workloads.access_set", 7.0, 8.0, outer, None, None]
    rows, root_s = spans.aggregate(
        [read1, check, read2, run, unit, recv, inner, outer]
    )
    assert root_s == 10.0 + 6.0 + 3.0
    assert rows["perf.unit"] == {"calls": 1, "busy_s": 10.0, "self_s": 2.0}
    assert rows["sim.run"] == {"calls": 1, "busy_s": 8.0, "self_s": 3.0}
    assert rows["cache.read"] == {"calls": 2, "busy_s": 5.0, "self_s": 4.0}
    assert rows["core.check_read"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert rows["dispatch.frame.recv"] == {"calls": 1, "busy_s": 6.0, "self_s": 6.0}
    # The nested same-name span is billed once for busy time, exactly for self.
    assert rows["workloads.access_set"] == {"calls": 1, "busy_s": 3.0, "self_s": 3.0}
    assert sum(row["self_s"] for row in rows.values()) == root_s


def test_span_stacks_are_per_thread(tmp_path):
    recorder = spans.Recorder(_victim_targets())
    victim = _Victim()
    with recorder, recorder.span("unit"):
        worker = threading.Thread(target=victim.method, args=(1,), name="perf-test")
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        victim.method(2)
    by_thread = {span[spans.THREAD]: span for span in recorder.spans if span[3] is None}
    assert set(by_thread) == {"perf-test", threading.current_thread().name}
    assert by_thread["perf-test"][spans.NAME] == "cache.method"
    path = tmp_path / "spans.jsonl"
    assert recorder.write_jsonl(str(path)) == 3
    written = [json.loads(line) for line in path.read_text().splitlines()]
    assert {row["thread"] for row in written} == set(by_thread)
    nested = [row for row in written if row["parent"] is not None]
    assert len(nested) == 1 and written[nested[0]["parent"]]["name"] == "perf.unit"


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------


def _document(wall, *, seed=21, digest="d", ops=100, failed=0):
    def stats(samples, unit):
        ordered = sorted(samples)
        return {
            "median": ordered[len(ordered) // 2],
            "min": ordered[0],
            "max": ordered[-1],
            "n": len(samples),
            "unit": unit,
            "samples": samples,
        }

    return {
        "seed": seed,
        "workloads": {
            "column_read": {
                "sim_digest": digest,
                "exact": {"ops_per_unit": ops, "sim.events": 7},
                "attempted": 600,
                "failed": failed,
                "end_to_end": {
                    "wall_s": stats(wall, "s"),
                    "ops_per_s": stats([ops / w for w in wall], "op/s"),
                },
            }
        },
    }


BOUNDS = {"wall_s": ("lower", 0.10), "ops_per_s": ("higher", 0.10)}


def _verdicts(base, candidate):
    rows = compare.compare(base, candidate, BOUNDS)
    return {row["metric"]: row["verdict"] for row in rows}


def test_compare_verdicts_on_synthetic_inputs():
    steady = _document([1.00, 1.01, 0.99, 1.00, 1.02, 0.98])
    same = _document([1.01, 1.00, 1.00, 0.99, 1.02, 1.01])
    assert _verdicts(steady, same) == {"wall_s": "ok", "ops_per_s": "ok"}

    slower = _document([1.20, 1.21, 1.19, 1.20, 1.22, 1.18])
    assert _verdicts(steady, slower) == {"wall_s": "worse", "ops_per_s": "worse"}
    # Faster is never worse, whatever the direction of the metric.
    assert _verdicts(slower, steady) == {"wall_s": "ok", "ops_per_s": "ok"}

    noisy = _document([0.80, 1.40, 1.00, 1.30, 0.90, 1.25])
    assert _verdicts(steady, noisy)["wall_s"] == "unresolved"
    # Wide spread, but every run of the candidate beats every run of the base.
    fast_noisy = _document([0.50, 0.90, 0.60, 0.80, 0.55, 0.85])
    assert _verdicts(steady, fast_noisy)["wall_s"] == "ok"
    slow_noisy = _document([1.50, 2.40, 1.60, 2.10, 1.70, 2.30])
    assert _verdicts(steady, slow_noisy)["wall_s"] == "worse"


def test_compare_reports_exact_values_that_moved_as_changed():
    base = _document([1.0, 1.0, 1.0, 1.0])
    moved = _document([1.0, 1.0, 1.0, 1.0], digest="e", ops=101, failed=3)
    verdicts = _verdicts(base, moved)
    assert verdicts["sim_digest"] == "changed"
    assert verdicts["ops_per_unit"] == "changed"
    assert verdicts["failed"] == "changed"
    assert "sim.events" not in verdicts
    # A different seed is different input: exact values are not compared.
    other_seed = _document([1.0, 1.0, 1.0, 1.0], seed=1409, digest="e", ops=101)
    assert "changed" not in _verdicts(base, other_seed).values()


def test_compare_exit_status(tmp_path, capsys):
    paths = []
    for index, wall in enumerate(([1.0, 1.0, 1.0, 1.0], [1.5, 1.5, 1.5, 1.5])):
        document = _document(wall)
        for name in ("setup_s", "cpu_s", "peak_rss_mb", "consistent_pct"):
            document["workloads"]["column_read"]["end_to_end"][name] = document[
                "workloads"
            ]["column_read"]["end_to_end"]["wall_s"]
        path = tmp_path / f"{index}.json"
        path.write_text(json.dumps(document))
        paths.append(str(path))
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 1
    assert "worse" in capsys.readouterr().out

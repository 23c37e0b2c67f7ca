"""One fresh process: set one workload up, repeat its unit, verify, report.

``run.py`` starts this file once per repeat so that set-up (interpreter
start, imports, input generation, topology or daemon build) is paid and
timed every time and ``ru_maxrss`` belongs to one workload alone. The
report is one JSON object on the last line of standard output.

Order of a run: set-up -> ``setup_s`` taken -> calibration -> then per unit
of work: ``gc.collect()``, the unit timed by ``perf_counter`` and
``process_time``, calibration, verification (untimed) -> tear-down.
``ru_maxrss`` is read after the first unit. A unit is started while the time
already measured plus the mean unit so far fits the budget; the first always
runs. Times are reported raw, each with the host slowdown measured around it;
``run.py`` divides.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)


#: Seconds :func:`calibrate`'s two loops take on the recording host (2-core
#: Xeon 2.1 GHz VM, CPython 3.11) when nothing else runs on it.
CALIBRATION_REFERENCE_S = 0.082


class _Cell:
    __slots__ = ("rank", "weight")

    def __init__(self, rank: int, weight: int) -> None:
        self.rank = rank
        self.weight = weight


def calibrate() -> float:
    """How much slower than the recording host this host is right now.

    Times a fixed pure-python mix owned by the benchmark — a dict update
    loop, then heap, generator, small-object and string churn, the kind of
    work the simulator's interpreter time goes into — and divides by what
    the same mix takes on the quiet recording host. 1.0 is that host; 1.5
    means the interpreter currently gets two thirds of its speed. Runs
    before the first unit and after every unit; a unit's time is divided by
    the mean of the two calibrations around it (see ``perf/README.md``,
    *Noise floor*, for why).
    """
    collecting = gc.isenabled()
    gc.disable()  # a full collection of the unit's heap must not land in here
    start = time.perf_counter()
    table: dict[int, int] = {}
    for index in range(400_000):
        table[index & 1023] = table.get(index & 1023, 0) + index

    def consumer():
        total = 0
        while True:
            cell = yield total
            total += cell.weight

    sink = consumer()
    next(sink)
    heap: list[tuple[int, int, _Cell]] = []
    cells: dict[str, _Cell] = {}
    for index in range(30_000):
        cell = _Cell((index * 7919) % 1013, index)
        heapq.heappush(heap, (cell.rank, index, cell))
        cells[f"k{index & 4095}"] = cell
        if len(heap) > 256:
            sink.send(heapq.heappop(heap)[2])
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed / CALIBRATION_REFERENCE_S


def telemetry_probe(workload) -> dict[str, float]:
    """One more ``column_read`` unit with ``repro.telemetry`` off, then on."""
    from repro import telemetry

    def timed_unit() -> tuple[int, float]:
        start = time.perf_counter()
        column, _ = workload.run_unit(0)
        return column.sim.events_executed, time.perf_counter() - start

    off_events, off_wall = timed_unit()
    with telemetry.capture("perf") as tracer:
        on_events, on_wall = timed_unit()
        records = len(tracer.records)
    return {
        "telemetry.on_ratio": on_wall / off_wall,
        "telemetry.records": records,
        "telemetry.events_match": int(off_events == on_events),
    }


def run_child(
    name: str,
    seed: int,
    budget_s: float,
    *,
    trace: bool = False,
    tiny: bool = False,
    trace_out: str | None = None,
    spawned_at: float | None = None,
) -> dict:
    """Everything one child does; importable so the tests can call it."""
    started = time.monotonic() if spawned_at is None else spawned_at
    from perf import metrics, spans, workloads

    workload = workloads.WORKLOADS[name](seed, tiny=tiny)
    recorder = spans.Recorder(metrics.TARGETS) if trace else None
    units: list[dict] = []
    workload.setup()
    try:
        setup_s = time.monotonic() - started
        slowdown = [calibrate()]
        measured = 0.0
        while True:
            index = len(units)
            gc.collect()
            if recorder is None:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                unit = workload.run_unit(index)
                cpu1, wall1 = time.process_time(), time.perf_counter()
            else:
                recorder.run_id = index + 1
                with recorder, recorder.span("unit"):
                    wall0, cpu0 = time.perf_counter(), time.process_time()
                    unit = workload.run_unit(index)
                    cpu1, wall1 = time.process_time(), time.perf_counter()
            if not units:
                # After the first unit, so that the peak does not depend on
                # how many units the budget had room for.
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            slowdown.append(calibrate())
            check = workload.check(unit)
            del unit
            units.append(
                {
                    "wall_s": wall1 - wall0,
                    "cpu_s": cpu1 - cpu0,
                    "slowdown": (slowdown[-2] + slowdown[-1]) / 2.0,
                    "ops": check.ops,
                    "failed": check.failed,
                    "digest": check.digest,
                    "consistent_pct": check.consistent_pct,
                    "exact": check.exact,
                    "timings": check.timings,
                    "points": check.points,
                    "problems": check.problems,
                }
            )
            measured += wall1 - wall0
            if measured + measured / len(units) > budget_s:
                break
        telemetry = None
        if trace and name == "column_read":
            telemetry = telemetry_probe(workload)
    finally:
        workload.close()
    report = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "constants": workload.constants(),
        "op": workload.op,
        "setup_s": setup_s,
        "setup_slowdown": slowdown[0],
        "peak_rss_mb": rss_kib / 1024.0,
        "units": units,
    }
    if recorder is not None:
        rows, root_s = spans.aggregate(recorder.spans)
        report["trace"] = {
            "rows": rows,
            "root_s": root_s,
            "generator_calls": dict(recorder.generator_calls),
            "frame_bytes": sum(recorder.sent_bytes),
            "missing": [repr(target) for target in recorder.missing],
            "spans": len(recorder.spans),
        }
        report["telemetry"] = telemetry
        if trace_out:
            recorder.write_jsonl(trace_out)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("budget_s", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    report = run_child(
        args.workload,
        args.seed,
        args.budget_s,
        trace=bool(args.trace),
        trace_out=args.trace_out,
        spawned_at=args.spawned_at,
    )
    print(json.dumps(report, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

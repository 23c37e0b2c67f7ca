"""The benchmark of record: ``python3 perf/run.py``.

Without ``--workload`` it runs all six workloads, repeats interleaved
round-robin (A B C D E F, A B C ...) so a noisy minute on the host is spread
over every workload instead of landing on one; with ``--workload NAME`` it
runs that one and ends with the driver's one-line JSON result. Every repeat
is a fresh child process (``perf/child.py``) with ``PYTHONHASHSEED=0``.

``--seconds S`` is what three repeats measure together: each child repeats
its unit of work for ``S / 3`` seconds, whatever ``--repeats`` is. End-to-end
metrics come from untraced children only. ``--trace`` (or ``--trace 1``) adds
one child per workload with ``perf/spans.py`` installed, which yields the
per-layer metrics; with it, untraced repeats default to 1 instead of 3.

Flags: ``--workload``, ``--seed``, ``--seconds``, ``--repeats``, ``--trace``,
``--trace-out``, ``--json``. There is no scale knob: sizes are constants in
``perf/workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

SCHEMA = "perf/1"
DEFAULT_REPEATS = 3
#: A child measures for ``--seconds / SHARES``.
SHARES = 3
CHILD_TIMEOUT_S = 150.0


def spawn_child(
    name: str, seed: int, budget_s: float, *, trace: bool, trace_out: str | None = None
) -> dict:
    """Run one fresh child to completion and return its report."""
    command = [
        sys.executable,
        os.path.join(PERF_DIR, "child.py"),
        name,
        str(seed),
        repr(budget_s),
        "1" if trace else "0",
        repr(time.monotonic()),
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(
        command,
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"child for {name!r} exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stats(samples: list[float], unit: str) -> dict:
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "unit": unit,
        "samples": samples,
    }


def summarise(
    untraced: list[dict], traced: dict | None, reference: dict | None
) -> dict:
    """One workload's record: end-to-end stats, correctness, layer metrics."""
    from perf import metrics

    units = [unit for child in untraced for unit in child["units"]]
    expected = units[0]["digest"]
    checked = units + (traced["units"] if traced else [])
    attempted = failed = 0
    problems: list[str] = []
    for unit in checked:
        attempted += unit["ops"]
        bad = unit["failed"]
        problems += unit["problems"]
        if unit["digest"] != expected:
            # Same seed, same inputs: a different result fails all its ops.
            bad = unit["ops"]
            problems.append(f"digest {unit['digest'][:12]} != {expected[:12]}")
        elif reference is not None and bad < unit["ops"]:
            theirs, ours = reference["points"], unit["points"]
            differing = sum(a != b for a, b in zip(theirs, ours))
            differing += abs(len(theirs) - len(ours))
            if differing:
                problems.append(f"{differing} points differ from the jobs=1 run")
            bad = min(unit["ops"], bad + differing)
        failed += bad

    # Host time is divided by the host slowdown measured around it.
    walls = metrics.unit_walls(units)
    end_to_end = {
        "setup_s": [child["setup_s"] / child["setup_slowdown"] for child in untraced],
        "wall_s": walls,
        "cpu_s": [unit["cpu_s"] / unit["slowdown"] for unit in units],
        "ops_per_s": [unit["ops"] / wall for unit, wall in zip(units, walls)],
        "peak_rss_mb": [child["peak_rss_mb"] for child in untraced],
        "consistent_pct": [unit["consistent_pct"] for unit in units],
    }
    record = {
        "op": untraced[0]["op"],
        "constants": untraced[0]["constants"],
        "ops_per_unit": units[0]["ops"],
        "units": len(units),
        "sim_digest": expected,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "problems": problems,
        "end_to_end": {
            metric: _stats(samples, metrics.UNITS[metric])
            for metric, samples in end_to_end.items()
        },
        # What the clock read, before dividing by the slowdown.
        "raw": {
            "setup_s": statistics.median(child["setup_s"] for child in untraced),
            "wall_s": statistics.median(unit["wall_s"] for unit in units),
            "cpu_s": statistics.median(unit["cpu_s"] for unit in units),
            "slowdown": statistics.median(unit["slowdown"] for unit in units),
        },
        "exact": {"ops_per_unit": units[0]["ops"], **units[0]["exact"]},
    }
    if reference is not None:
        record["raw"]["serial_wall_s"] = reference["wall_s"]
    if traced is not None:
        record["per_layer"] = metrics.layer_metrics(untraced[0], traced, reference)
        record["trace_spans"] = traced["trace"]["spans"]
        record["trace_missing"] = traced["trace"]["missing"]
    return record


def run_workloads(
    names: list[str],
    *,
    seed: int,
    seconds: float,
    repeats: int,
    trace: bool,
    trace_out: str | None = None,
) -> dict:
    """Run ``names`` and return the result document (``--json`` writes it)."""
    from perf import workloads

    budget_s = seconds / SHARES
    untraced: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(repeats):
        for name in names:
            report = spawn_child(name, seed, budget_s, trace=False)
            untraced[name].append(report)
            walls = " ".join(f"{unit['wall_s']:.3f}" for unit in report["units"])
            print(f"# {name} repeat {repeat + 1}/{repeats}: unit wall_s {walls}")
    traced: dict[str, dict] = {}
    if trace:
        for name in names:
            out = trace_out
            if out and len(names) > 1:
                stem, extension = os.path.splitext(out)
                out = f"{stem}.{name}{extension}"
            traced[name] = spawn_child(name, seed, budget_s, trace=True, trace_out=out)
            print(f"# {name} traced: {traced[name]['trace']['spans']} spans")
    return {
        "schema": SCHEMA,
        "claim": None,
        "seed": seed,
        "held_back_seed": workloads.HELD_BACK_SEED,
        "seconds": seconds,
        "repeats": repeats,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "journal_fsync": False,
        "workloads": {
            name: summarise(
                untraced[name],
                traced.get(name),
                workloads.serial_reference(name, seed),
            )
            for name in names
        },
    }


def print_report(document: dict) -> None:
    """Every metric by name with its unit, one workload after another."""
    from perf import metrics

    for name, record in document["workloads"].items():
        verdict = "ok" if record["correct"] else "FAILED"
        print(
            f"{name}: {record['units']} units x {record['ops_per_unit']} "
            f"{record['op']}, failed {record['failed']}/{record['attempted']} "
            f"({verdict}), sim_digest {record['sim_digest'][:16]}"
        )
        for problem in record["problems"]:
            print(f"  ! {problem}")
        for metric, stats in record["end_to_end"].items():
            print(
                f"  {metric:<16} {stats['median']:>14.4f} {stats['unit']:<5} "
                f"(min {stats['min']:.4f}, max {stats['max']:.4f}, n={stats['n']})"
            )
        raw = record["raw"]
        print(
            f"  raw clock: setup {raw['setup_s']:.4f} s, wall {raw['wall_s']:.4f} s, "
            f"cpu {raw['cpu_s']:.4f} s at host slowdown {raw['slowdown']:.3f}"
        )
        for metric, value in record.get("per_layer", {}).items():
            print(f"  {metric:<34} {value:>16.6f} {metrics.UNITS[metric]}")


def contract_line(record: dict, *, trace: bool) -> str:
    """The driver's result: exactly ``correct/attempted/failed/metrics``."""
    from perf import metrics

    if trace:
        values = {
            metric: {"value": value, "unit": metrics.UNITS[metric]}
            for metric, value in record["per_layer"].items()
        }
    else:
        values = {
            metric: {"value": stats["median"], "unit": stats["unit"]}
            for metric, stats in record["end_to_end"].items()
        }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": values,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, help="input seed (default 21)")
    parser.add_argument(
        "--seconds", type=float, help="measured seconds per workload (default: run_seconds)"
    )
    parser.add_argument("--repeats", type=int, help="untraced children per workload")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1))
    parser.add_argument("--trace-out", help="write the traced run's spans as JSONL")
    parser.add_argument("--json", help="write the result document here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"perf/run.py: no program to measure: {ROOT}/src/repro is missing",
            file=sys.stderr,
        )
        return 2
    from perf import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; one of {list(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    repeats = args.repeats or (1 if trace else DEFAULT_REPEATS)
    document = run_workloads(
        names,
        seed=workloads.DEFAULT_SEED if args.seed is None else args.seed,
        seconds=args.seconds or float(benchmark["run_seconds"]),
        repeats=repeats,
        trace=trace,
        trace_out=args.trace_out,
    )
    print_report(document)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    if args.workload:
        # The driver reads correctness from the result line, not the status.
        print(contract_line(document["workloads"][args.workload], trace=trace))
        return 0
    return 0 if all(r["correct"] for r in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

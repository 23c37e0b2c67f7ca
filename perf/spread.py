"""Measure the benchmark's own noise the way the driver does.

``python3 perf/spread.py OUT.json [FIRST_SEED]`` runs the driver's command
ten times on each workload, each time with another ``--seed``, and takes for
every end-to-end metric the distance between the first and third quartile
of its ten values (``statistics.quantiles(values, n=4)``) as a share of
their median. A bound in ``BENCHMARK.json`` must stay above that spread —
the contract asks for three times above.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def main(argv: list[str]) -> int:
    out = argv[0]
    first_seed = int(argv[1]) if len(argv) > 1 else 100
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    names = [workload["name"] for workload in benchmark["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {
        name: {metric: [] for metric in bounds} for name in names
    }
    for run in range(RUNS):
        for name in names:
            done = subprocess.run(
                benchmark["command"]
                + ["--workload", name, "--seed", str(first_seed + run)]
                + ["--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{name} seed {first_seed + run}: {result}")
            for metric in bounds:
                values[name][metric].append(result["metrics"][metric]["value"])
            print(f"run {run + 1}/{RUNS} {name} done", flush=True)
    report: dict[str, dict] = {}
    for name in names:
        report[name] = {}
        for metric, samples in values[name].items():
            first, _, third = statistics.quantiles(samples, n=4)
            median = statistics.median(samples)
            share = (third - first) / median
            report[name][metric] = {
                "median": median,
                "spread": share,
                "bound": bounds[metric],
                "values": samples,
            }
            flag = "" if share <= bounds[metric] / 3 else "  > bound/3"
            print(f"{name:<17} {metric:<15} median {median:>12.4f} spread {share:.4f}{flag}")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"first_seed": first_seed, "runs": RUNS, "spread": report}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

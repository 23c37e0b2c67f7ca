"""Compare two result documents of ``perf/run.py``: ``compare.py A.json B.json``.

``A`` is the base, ``B`` the candidate. One row per (workload, end-to-end
metric): both medians with min-max, the ratio ``B / A``, the bound from
``BENCHMARK.json`` and a verdict.

* ``ok`` — B's median is no worse than A's by more than the bound.
* ``worse`` — it is, and the runs resolve it.
* ``unresolved`` — either side's spread (interquartile range over its
  median; min-max below four samples) is wider than the bound and the runs
  are not strictly ordered, so the medians cannot be told apart. Strictly
  ordered runs resolve a row whatever the spread: every B better than
  every A is ``ok``, every B worse than every A by a median beyond the
  bound is ``worse``.
* ``changed`` — an exact-repeat value (op count, simulated statistic,
  ``sim_digest``) differs. These never move under a host-only change, so a
  difference is a behaviour change and is always reported.

Exit status is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

__all__ = ["compare", "load_bounds", "verdict"]


def load_bounds(path: str | None = None) -> dict[str, tuple[str, float]]:
    """``{metric: (better, bound)}`` from ``BENCHMARK.json``."""
    if path is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(root, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    return {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in benchmark["end_to_end"]
    }


def _spread(samples: list[float]) -> float:
    median = statistics.median(samples)
    if not median or len(samples) < 2:
        return 0.0
    if len(samples) < 4:
        return (max(samples) - min(samples)) / abs(median)
    first, _, third = statistics.quantiles(samples, n=4)
    return (third - first) / abs(median)


def verdict(
    base: list[float], candidate: list[float], better: str, bound: float
) -> tuple[str, float]:
    """``(verdict, ratio)`` of one metric; ratio is candidate / base median."""
    base_median = statistics.median(base)
    candidate_median = statistics.median(candidate)
    ratio = candidate_median / base_median if base_median else float("inf")
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (ratio - 1.0)
    # Signed so that "smaller is better" whatever the metric's direction.
    a = [sign * value for value in base]
    b = [sign * value for value in candidate]
    if max(b) < min(a):
        return "ok", ratio
    resolved = max(_spread(base), _spread(candidate)) <= bound or min(b) > max(a)
    if not resolved:
        return "unresolved", ratio
    return ("worse" if worse_by > bound else "ok"), ratio


def _changed(workload: str, metric: str, note: str) -> dict:
    return {"workload": workload, "metric": metric, "verdict": "changed", "note": note}


def compare(base: dict, candidate: dict, bounds: dict) -> list[dict]:
    """Every row of the comparison, end-to-end first, then exact values."""
    rows: list[dict] = []
    for name, ours in base["workloads"].items():
        theirs = candidate["workloads"].get(name)
        if theirs is None:
            rows.append(_changed(name, "-", "workload missing from candidate"))
            continue
        for metric, (better, bound) in bounds.items():
            a = ours["end_to_end"][metric]
            b = theirs["end_to_end"][metric]
            outcome, ratio = verdict(a["samples"], b["samples"], better, bound)
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "unit": a["unit"],
                    "base": a["median"],
                    "base_range": (a["min"], a["max"]),
                    "candidate": b["median"],
                    "candidate_range": (b["min"], b["max"]),
                    "ratio": ratio,
                    "bound": bound,
                    "better": better,
                    "verdict": outcome,
                }
            )
        exact = {"sim_digest": (ours["sim_digest"], theirs["sim_digest"])}
        if base["seed"] != candidate["seed"]:
            exact = {}  # different inputs: nothing is expected to repeat
        else:
            for key in sorted(set(ours["exact"]) | set(theirs["exact"])):
                exact[key] = (ours["exact"].get(key), theirs["exact"].get(key))
        for key, (a, b) in exact.items():
            if a != b:
                rows.append(_changed(name, key, f"{a} -> {b}"))
        for side, record in (("base", ours), ("candidate", theirs)):
            if record["failed"]:
                share = f"{record['failed']}/{record['attempted']}"
                rows.append(_changed(name, "failed", f"{side} failed {share}"))
    return rows


def render(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        if "ratio" not in row:
            lines.append(
                f"{row['workload']:<17} {row['metric']:<26} {row['verdict']:<10} "
                f"{row['note']}"
            )
            continue
        low_a, high_a = row["base_range"]
        low_b, high_b = row["candidate_range"]
        lines.append(
            f"{row['workload']:<17} {row['metric']:<15} "
            f"{row['base']:>12.4f} [{low_a:.4f}-{high_a:.4f}] -> "
            f"{row['candidate']:>12.4f} [{low_b:.4f}-{high_b:.4f}] {row['unit']:<5} "
            f"x{row['ratio']:.4f} of base, bound {row['bound']:.2f} "
            f"({row['better']} is better): {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BASE.json CANDIDATE.json", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare(documents[0], documents[1], load_bounds())
    print(render(rows))
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(" ".join(f"{key}={counts[key]}" for key in sorted(counts)))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())

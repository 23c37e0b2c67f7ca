"""``tools/explore.py``: the one breadth-first explorer of small state machines.

The toy machine is two counters, each stepped up to 2: the states within
``d`` steps are the pairs whose sum is at most ``d``, so every count is
known.  The fleet-ledger and lock-table checks are its real callers.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

from tools import explore as tool
from tools.explore import Violation, explore, replay


def initial() -> list[int]:
    return [0, 0]


def events(state: list[int]) -> list[int]:
    return [counter for counter in (0, 1) if state[counter] < 2]


def step(state: list[int], counter: int) -> None:
    state[counter] += 1


def key(state: list[int]) -> tuple:
    return tuple(state)


def never(state: list[int]) -> None:
    pass


def no_two_one(state: list[int]) -> None:
    if state == [2, 1]:
        raise Violation("reached (2, 1)")


@pytest.mark.parametrize(
    "depth, states", [(0, 1), (1, 3), (2, 6), (3, 8), (4, 9), (9, 9)]
)
def test_every_reachable_state_is_counted_once(depth: int, states: int) -> None:
    assert explore(initial, events, step, never, key, depth) == (states, None, "")


def test_the_shortest_counterexample_is_returned() -> None:
    found = explore(initial, events, step, no_two_one, key, depth=4)
    # (1, 0, 0) also reaches (2, 1); breadth-first finds the shorter path
    # first, and among equals the one whose events come first.
    assert found.path == (0, 0, 1)
    assert found.message == "reached (2, 1)"
    # Depth 2 reached six states; the failing step was the first of depth 3.
    assert found.states == 6


def test_the_counterexample_replays() -> None:
    found = explore(initial, events, step, no_two_one, key, depth=4)
    state = replay(initial, step, found.path)
    assert state == [2, 1]
    with pytest.raises(Violation, match="reached"):
        no_two_one(state)


def test_a_violation_raised_by_apply_is_found_too() -> None:
    def capped(state: list[int], counter: int) -> None:
        if state[counter]:
            raise Violation(f"counter {counter} stepped twice")
        step(state, counter)

    found = explore(initial, events, capped, never, key, depth=4)
    assert found.path == (0, 0)
    assert found.message == "counter 0 stepped twice"


def test_a_broken_root_is_the_empty_counterexample() -> None:
    def broken(state: list[int]) -> None:
        raise Violation("root")

    assert explore(initial, events, step, broken, key, depth=3) == (1, (), "root")


def outside_the_standard_library(source: str) -> set[str]:
    """The top-level modules ``source`` imports that are not stdlib."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("." if node.level else node.module.partition(".")[0])
    return roots - sys.stdlib_module_names


def test_the_tool_imports_only_the_standard_library() -> None:
    source = Path(tool.__file__).read_text(encoding="utf-8")
    assert outside_the_standard_library(source) == set()


@pytest.mark.parametrize(
    "line, flagged",
    [
        ("import repro.db.locks", "repro"),
        ("from repro.sim.core import Simulator", "repro"),
        ("def f():\n    import numpy", "numpy"),
        ("from . import identity", "."),
    ],
)
def test_a_planted_import_is_flagged(line: str, flagged: str) -> None:
    assert outside_the_standard_library(line) == {flagged}

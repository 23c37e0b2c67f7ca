"""Unit tests for per-transaction read records (the cache's §III-B state)."""

from __future__ import annotations

from repro.core.deplist import DependencyList
from repro.core.records import TransactionContext


def make_context() -> TransactionContext:
    return TransactionContext(txn_id=1, start_time=0.0)


class TestRecording:
    def test_reads_accumulate(self) -> None:
        context = make_context()
        context.record_read("a", 1, DependencyList())
        context.record_read("b", 2, DependencyList())
        assert context.read_count == 2
        assert context.keys_read() == {"a", "b"}
        assert context.version_read("a") == 1
        assert context.version_read("missing") is None

    def test_direct_read_raises_requirement(self) -> None:
        context = make_context()
        context.record_read("a", 5, DependencyList())
        assert context.required_version("a") == (5, "a")

    def test_dependency_raises_requirement_with_source(self) -> None:
        context = make_context()
        context.record_read("a", 5, DependencyList.from_pairs([("b", 9)]))
        assert context.required_version("b") == (9, "a")

    def test_requirements_are_monotone(self) -> None:
        context = make_context()
        context.record_read("a", 5, DependencyList.from_pairs([("x", 3)]))
        context.record_read("b", 6, DependencyList.from_pairs([("x", 9)]))
        context.record_read("c", 7, DependencyList.from_pairs([("x", 4)]))
        assert context.required_version("x") == (9, "b")

    def test_equal_requirement_keeps_first_source(self) -> None:
        context = make_context()
        context.record_read("a", 5, DependencyList.from_pairs([("x", 9)]))
        context.record_read("b", 6, DependencyList.from_pairs([("x", 9)]))
        assert context.required_version("x") == (9, "a")

    def test_repeated_read_tracks_max_version(self) -> None:
        context = make_context()
        context.record_read("a", 5, DependencyList())
        context.record_read("a", 8, DependencyList())
        assert context.version_read("a") == 8
        assert context.read_count == 2
        assert context.keys_read() == {"a"}

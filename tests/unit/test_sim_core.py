"""Unit tests for the discrete-event simulation kernel (event loop).

A simulation belongs to the one thread that runs it: nothing in the kernel
is shared between simulators, so none of these tests needs a second thread.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim: Simulator) -> None:
        assert sim.now == 0.0

    def test_callback_runs_at_scheduled_time(self, sim: Simulator) -> None:
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_callbacks_run_in_time_order(self, sim: Simulator) -> None:
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim: Simulator) -> None:
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_negative_delay_rejected(self, sim: Simulator) -> None:
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self, sim: Simulator) -> None:
        """NaN compares false both ways: ``delay < 0`` let it into the heap."""
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_nested_scheduling(self, sim: Simulator) -> None:
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]

    def test_run_until_stops_before_later_events(self, sim: Simulator) -> None:
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_advances_clock_when_queue_drains(self, sim: Simulator) -> None:
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_resume_after_partial_run(self, sim: Simulator) -> None:
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        sim.run()
        assert seen == [1, 10]

    def test_step_executes_one_event(self, sim: Simulator) -> None:
        seen = []
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(2.0, lambda: seen.append("b"))
        assert sim.step() is True
        assert seen == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_reentrant_run_rejected(self, sim: Simulator) -> None:
        failures = []

        def reenter() -> None:
            try:
                sim.run()
            except SimulationError as error:
                failures.append(error)

        sim.schedule(0.0, reenter)
        sim.run()
        assert len(failures) == 1

    def test_step_inside_run_rejected(self, sim: Simulator) -> None:
        """``step()`` from a callback would dispatch a nested event."""
        failures, seen = [], []

        def reenter() -> None:
            try:
                sim.step()
            except SimulationError as error:
                failures.append(error)

        sim.schedule(0.0, reenter)
        sim.schedule(0.0, lambda: seen.append(len(failures)))
        sim.run()
        assert len(failures) == 1 and "already running" in str(failures[0])
        assert seen == [1]  # dispatched by run(), after reenter returned
        assert sim.step() is False  # and step() works again once run() is over

    def test_run_until_nan_rejected(self, sim: Simulator) -> None:
        """NaN compares false everywhere: the call drained both queues."""
        seen = []
        sim.schedule(0.0, lambda: seen.append("now"))
        sim.schedule(5.0, lambda: seen.append("later"))
        with pytest.raises(SimulationError, match="NaN"):
            sim.run(until=float("nan"))
        assert seen == [] and sim.pending_events == 2 and sim.now == 0.0
        sim.run(until=1.0)  # the rejected call did not leave the loop "running"
        assert seen == ["now"]


class TestClose:
    """``close()`` ends a run for good: nothing pending, nothing runnable."""

    def test_close_drops_both_queues(self, sim: Simulator) -> None:
        seen = []
        sim.schedule(0.0, lambda: seen.append("now"))
        sim.schedule(5.0, lambda: seen.append("later"))
        sim.close()
        assert sim.pending_events == 0
        assert seen == []

    def test_close_is_idempotent(self, sim: Simulator) -> None:
        sim.schedule(1.0, lambda: None)
        sim.close()
        sim.close()
        assert sim.pending_events == 0

    def test_close_inside_run_rejected(self, sim: Simulator) -> None:
        failures = []

        def close_now() -> None:
            try:
                sim.close()
            except SimulationError as error:
                failures.append(error)

        sim.schedule(0.0, close_now)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert len(failures) == 1 and "inside run()" in str(failures[0])
        assert sim.now == 1.0  # the run went on, the simulator is not closed
        sim.close()

    def test_run_after_close_rejected(self, sim: Simulator) -> None:
        sim.close()
        with pytest.raises(SimulationError, match="closed"):
            sim.run()
        with pytest.raises(SimulationError, match="closed"):
            sim.run(until=1.0)

    def test_step_after_close_rejected(self, sim: Simulator) -> None:
        sim.schedule(1.0, lambda: None)
        sim.close()
        with pytest.raises(SimulationError, match="closed"):
            sim.step()


class TestImmediateQueueOrdering:
    """The immediate FIFO merges with the heap in (time, sequence) order.

    These pin the contract that made the zero-delay fast path safe: the
    executed order is exactly what a single heap keyed by
    ``(time, sequence)`` would produce, so seeded artifacts are unchanged.
    """

    def test_zero_delay_yields_to_same_time_heap_entries(self, sim: Simulator) -> None:
        """A delay-0 callback scheduled *during* an event at time t runs
        after heap entries already queued at t (their sequence is older)."""
        order = []

        def first() -> None:
            order.append("first")
            sim.schedule(0.0, lambda: order.append("immediate"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "immediate"]

    def test_zero_delay_precedes_strictly_later_heap_entries(
        self, sim: Simulator
    ) -> None:
        order = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: order.append("now")))
        sim.schedule(2.0, lambda: order.append("later"))
        sim.run()
        assert order == ["now", "later"]

    def test_immediates_run_fifo(self, sim: Simulator) -> None:
        order = []
        for tag in ("a", "b", "c"):
            sim.schedule(0.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_pending_events_counts_both_queues(self, sim: Simulator) -> None:
        sim.schedule(0.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.pending_events == 2

    def test_step_merges_queues_in_sequence_order(self, sim: Simulator) -> None:
        order = []
        sim.schedule(0.0, lambda: order.append("imm"))
        sim.schedule(1.0, lambda: order.append("timed"))
        assert sim.step() and order == ["imm"]
        assert sim.step() and order == ["imm", "timed"]
        assert sim.step() is False

    def test_schedule_arg_avoids_closures(self, sim: Simulator) -> None:
        seen = []
        sim.schedule(0.0, seen.append, "zero")
        sim.schedule(1.0, seen.append, "timed")
        sim.run()
        assert seen == ["zero", "timed"]

    def test_events_executed_counter(self, sim: Simulator) -> None:
        for _ in range(3):
            sim.schedule(0.5, lambda: None)
        sim.schedule(0.0, lambda: None)
        sim.run()
        assert sim.events_executed == 4

    def test_run_until_before_now_leaves_immediates_queued(
        self, sim: Simulator
    ) -> None:
        """An immediate queued at now=5 must not fire in run(until=3)."""
        sim.run(until=5.0)
        seen = []
        event = sim.event()
        event.succeed("late")
        event.add_callback(lambda e: seen.append(e.value))
        sim.run(until=3.0)
        assert seen == []
        assert sim.pending_events == 1
        sim.run()
        assert seen == ["late"]


class TestEvent:
    def test_succeed_delivers_value_to_callbacks(self, sim: Simulator) -> None:
        event = sim.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed(42)
        sim.run()
        assert seen == [42]

    def test_callback_added_after_trigger_still_runs(self, sim: Simulator) -> None:
        event = sim.event()
        event.succeed("late")
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["late"]

    def test_double_trigger_rejected(self, sim: Simulator) -> None:
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self, sim: Simulator) -> None:
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_fail_marks_not_ok(self, sim: Simulator) -> None:
        event = sim.event()
        error = ValueError("boom")
        event.fail(error)
        assert event.triggered and not event.ok
        assert event.value is error

    def test_fail_after_trigger_rejected(self, sim: Simulator) -> None:
        event = sim.event().succeed(1)
        with pytest.raises(SimulationError, match="event triggered twice"):
            event.fail(ValueError("late"))
        assert event.ok and event.value == 1  # the rejected fail changed nothing

    def test_fail_queues_callbacks_as_succeed_does(self) -> None:
        """One trigger body: a failed event's callbacks take the FIFO slots and
        sequence numbers a succeeded one's would."""

        def queued(trigger):
            sim = Simulator()
            sim.schedule(0.0, print)  # sequence 0 is taken
            event = sim.event()
            callbacks = [lambda _event, tag=tag: tag for tag in "abc"]
            for callback in callbacks:
                event.add_callback(callback)
            assert trigger(event) is event
            entries = [
                (sequence, callbacks.index(callback), arg is event)
                for sequence, callback, arg in list(sim._immediate)[1:]
            ]
            return entries, sim._sequence

        failed = queued(lambda event: event.fail(ValueError("boom")))
        assert failed == ([(1, 0, True), (2, 1, True), (3, 2, True)], 4)
        assert failed == queued(lambda event: event.succeed("fine"))

    def test_value_before_trigger_rejected(self, sim: Simulator) -> None:
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value


class TestTimeout:
    def test_timeout_fires_after_delay(self, sim: Simulator) -> None:
        timeout = sim.timeout(3.0, value="done")
        sim.run()
        assert timeout.triggered and timeout.ok
        assert timeout.value == "done"
        assert sim.now == 3.0

    def test_negative_delay_rejected(self, sim: Simulator) -> None:
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_nan_delay_rejected(self, sim: Simulator) -> None:
        with pytest.raises(SimulationError):
            sim.timeout(float("nan"))
        assert sim.pending_events == 0

    def test_zero_delay_fires_at_current_time(self, sim: Simulator) -> None:
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.triggered
        assert sim.now == 0.0


class TestComposites:
    def test_any_of_fires_on_first(self, sim: Simulator) -> None:
        slow = sim.timeout(10.0, value="slow")
        fast = sim.timeout(1.0, value="fast")
        first = sim.any_of([slow, fast])
        sim.run(until=2.0)
        assert first.triggered
        assert first.value is fast

    def test_any_of_requires_events(self, sim: Simulator) -> None:
        with pytest.raises(SimulationError):
            sim.any_of([])

    def test_all_of_waits_for_every_event(self, sim: Simulator) -> None:
        timeouts = [sim.timeout(t, value=t) for t in (1.0, 3.0, 2.0)]
        joined = sim.all_of(timeouts)
        sim.run(until=2.5)
        assert not joined.triggered
        sim.run()
        assert joined.triggered
        assert joined.value == [1.0, 3.0, 2.0]

    def test_all_of_empty_succeeds_immediately(self, sim: Simulator) -> None:
        joined = sim.all_of([])
        assert joined.triggered
        assert joined.value == []

    def test_all_of_fails_on_child_failure(self, sim: Simulator) -> None:
        good = sim.timeout(1.0)
        bad = sim.event()
        joined = sim.all_of([good, bad])
        bad.fail(RuntimeError("child failed"))
        sim.run()
        assert joined.triggered and not joined.ok
        assert isinstance(joined.value, RuntimeError)

    def test_any_of_failure_propagates(self, sim: Simulator) -> None:
        pending = sim.event()
        failing = sim.event()
        composite = sim.any_of([pending, failing])
        failing.fail(ValueError("first failure"))
        sim.run()
        assert composite.triggered and not composite.ok

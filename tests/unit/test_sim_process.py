"""Unit tests for generator-based simulation processes."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ProcessKilled, SimulationError
from repro.sim.core import Simulator
from repro.sim.process import Process


class TestBasicExecution:
    def test_process_advances_through_timeouts(self, sim: Simulator) -> None:
        trace = []

        def body():
            trace.append(("start", sim.now))
            yield sim.timeout(1.0)
            trace.append(("mid", sim.now))
            yield sim.timeout(2.0)
            trace.append(("end", sim.now))

        sim.process(body())
        sim.run()
        assert trace == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]

    def test_return_value_becomes_event_value(self, sim: Simulator) -> None:
        def body():
            yield sim.timeout(1.0)
            return "result"

        process = sim.process(body())
        sim.run()
        assert process.triggered and process.ok
        assert process.value == "result"

    def test_yield_value_is_event_value(self, sim: Simulator) -> None:
        received = []

        def body():
            value = yield sim.timeout(1.0, value="payload")
            received.append(value)

        sim.process(body())
        sim.run()
        assert received == ["payload"]

    def test_processes_start_in_creation_order(self, sim: Simulator) -> None:
        order = []

        def body(tag):
            order.append(tag)
            yield sim.timeout(0.0)

        sim.process(body("a"))
        sim.process(body("b"))
        sim.run()
        assert order == ["a", "b"]

    def test_non_generator_rejected(self, sim: Simulator) -> None:
        with pytest.raises(SimulationError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_yielding_non_event_fails_process(self, sim: Simulator) -> None:
        def body():
            yield 42  # type: ignore[misc]

        process = sim.process(body())
        sim.run()
        assert process.triggered and not process.ok
        assert isinstance(process.value, SimulationError)


class TestSleep:
    """``yield delay``: the process waits on the event heap itself."""

    def test_process_advances_through_sleeps(self, sim: Simulator) -> None:
        trace = []

        def body():
            trace.append(sim.now)
            resumed_with = yield 1.0
            trace.append((sim.now, resumed_with))
            yield 2.0
            trace.append(sim.now)

        sim.process(body())
        sim.run()
        assert trace == [0.0, (1.0, None), 3.0]
        assert sim.pending_events == 0

    def test_sleep_counts_the_two_events_of_a_timeout(self, sim: Simulator) -> None:
        def sleeper():
            yield 1.0

        def waiter(other):
            yield other.timeout(1.0)

        other = Simulator()
        sim.process(sleeper())
        other.process(waiter(other))
        sim.run()
        other.run()
        # Start, wake-up, resume — the resume ran inside the wake-up.
        assert sim.events_executed == other.events_executed == 3

    def test_zero_delay_sleep_yields_to_what_is_already_queued(
        self, sim: Simulator
    ) -> None:
        order = []

        def body(tag):
            order.append((tag, "start"))
            yield 0.0
            order.append((tag, "resumed"))

        sim.process(body("a"))
        sim.process(body("b"))
        sim.run()
        assert order == [
            ("a", "start"),
            ("b", "start"),
            ("a", "resumed"),
            ("b", "resumed"),
        ]
        assert sim.now == 0.0

    def test_simultaneous_sleepers_wake_in_sleep_order(self, sim: Simulator) -> None:
        order = []

        def body(tag):
            yield 1.0
            order.append(tag)
            yield 1.0
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(body(tag))
        sim.run()
        assert order == ["a", "b", "c", "a", "b", "c"]

    def test_sleep_ending_exactly_at_until_runs(self, sim: Simulator) -> None:
        seen = []

        def body():
            yield 1.0
            seen.append(sim.now)
            yield 1.0
            seen.append(sim.now)

        sim.process(body())
        sim.run(until=1.0)
        assert seen == [1.0]
        assert sim.now == 1.0
        sim.run(until=1.5)
        assert seen == [1.0] and sim.now == 1.5
        sim.run()
        assert seen == [1.0, 2.0]

    def test_step_over_a_sleeping_process(self, sim: Simulator) -> None:
        seen = []

        def body():
            yield 1.0
            seen.append(sim.now)

        process = sim.process(body())
        assert sim.step()  # the start
        assert seen == [] and sim.events_executed == 1
        assert sim.step()  # the wake-up, which resumes in place
        assert seen == [1.0] and sim.events_executed == 3
        assert not process.alive
        assert not sim.step()

    def test_killed_sleeper_never_wakes(self, sim: Simulator) -> None:
        seen = []

        def body():
            yield 5.0
            seen.append("woke")

        process = sim.process(body())
        sim.run(until=1.0)
        process.kill()
        sim.run()
        assert seen == []
        assert process.triggered and isinstance(process.value, ProcessKilled)

    @pytest.mark.parametrize("delay", [-1.0, float("nan"), float("-inf")])
    def test_invalid_delay_fails_the_process(self, sim: Simulator, delay) -> None:
        def body():
            yield delay

        process = sim.process(body())
        sim.run()
        assert process.triggered and not process.ok
        assert isinstance(process.value, SimulationError)
        assert sim.pending_events == 0

    @pytest.mark.parametrize("value", [1, True, np.float64(0.5), "1.0", None])
    def test_only_an_exact_float_sleeps(self, sim: Simulator, value) -> None:
        def body():
            yield value

        process = sim.process(body())
        sim.run()
        assert process.triggered and not process.ok
        assert isinstance(process.value, SimulationError)
        message = str(process.value)
        assert "Event" in message and "float" in message

    def test_traced_and_untraced_runs_execute_the_same_events(self) -> None:
        def program(sim: Simulator) -> int:
            def body(delay):
                for _ in range(20):
                    yield delay

            for delay in (0.001, 0.001, 0.0015, 0.002):
                sim.process(body(delay))
            sim.run()
            return sim.events_executed

        untraced = program(Simulator())
        with telemetry.capture("sleep") as tracer:
            traced = program(Simulator())
        assert traced == untraced
        resumes = [record for record in tracer.records if record[2] == "process_resume"]
        assert len(resumes) == 4 + 4 * 20

    @pytest.mark.parametrize(
        "delays, inline_wakes",
        [
            # No two wake-ups share an instant: each resumes in its dispatch.
            ([0.001 * 2**0.5, 0.001 * 3**0.5, 0.001 * 5**0.5], 30),
            # Every wake-up has a peer due at the same instant: all queue.
            ([0.001, 0.001, 0.001], 0),
        ],
    )
    def test_wake_is_inline_exactly_when_nothing_else_is_due(
        self, delays, inline_wakes
    ) -> None:
        with telemetry.capture("sleep") as tracer:
            sim = Simulator()

            def body(delay):
                for _ in range(10):
                    yield delay

            for delay in delays:
                sim.process(body(delay))
            sim.run()
        dispatched = tracer.snapshot()["counters"]["sim.events_dispatched"]
        assert sim.events_executed == 3 + 2 * 30
        assert sim.events_executed - dispatched == inline_wakes


class TestErrorPropagation:
    def test_exception_fails_the_process_event(self, sim: Simulator) -> None:
        def body():
            yield sim.timeout(1.0)
            raise RuntimeError("inner failure")

        process = sim.process(body())
        sim.run()
        assert process.triggered and not process.ok
        assert isinstance(process.value, RuntimeError)

    def test_failed_event_raises_inside_generator(self, sim: Simulator) -> None:
        caught = []
        failing = None

        def body():
            try:
                yield failing
            except ValueError as error:
                caught.append(error)

        failing = sim.event()
        sim.process(body())
        failing.fail(ValueError("delivered"))
        sim.run()
        assert len(caught) == 1

    def test_uncaught_failure_from_event_fails_process(self, sim: Simulator) -> None:
        failing = sim.event()

        def body():
            yield failing

        process = sim.process(body())
        failing.fail(KeyError("kaboom"))
        sim.run()
        assert process.triggered and not process.ok
        assert isinstance(process.value, KeyError)


class TestJoinAndKill:
    def test_waiting_on_another_process(self, sim: Simulator) -> None:
        def child():
            yield sim.timeout(2.0)
            return "child-result"

        results = []

        def parent():
            value = yield sim.process(child())
            results.append((value, sim.now))

        sim.process(parent())
        sim.run()
        assert results == [("child-result", 2.0)]

    def test_kill_interrupts_waiting_process(self, sim: Simulator) -> None:
        cleanup = []

        def body():
            try:
                yield sim.timeout(100.0)
            except ProcessKilled:
                cleanup.append(sim.now)
                raise

        process = sim.process(body())
        sim.run(until=1.0)
        process.kill()
        sim.run(until=2.0)
        assert cleanup == [1.0]
        assert not process.alive
        assert process.triggered

    def test_kill_of_a_traced_sleeper_is_a_recorded_resume(self) -> None:
        """``kill()`` throws through ``_resume``, the one place a resume is
        recorded; the wake-up it leaves queued finds the process dead and is
        recorded too, as every dropped resume is."""
        with telemetry.capture("kill") as tracer:
            sim = Simulator()

            def sleeper():
                yield 5.0

            process = sim.process(sleeper())
            sim.run(until=1.0)
            resumes = tracer.snapshot()["counters"]["sim.process_resumes"]
            assert resumes == 1  # the start
            process.kill()
            killed = (1.0, "sim", "process_resume", {"process": "sleeper"})
            assert tracer.records[-1] == killed
            sim.run()
        assert isinstance(process.value, ProcessKilled)
        times = [t for t, _, name, _ in tracer.records if name == "process_resume"]
        assert times == [0.0, 1.0, 5.0]  # start, kill, the dropped wake-up
        assert tracer.snapshot()["counters"]["sim.process_resumes"] == 3

    def test_kill_after_completion_is_noop(self, sim: Simulator) -> None:
        def body():
            yield sim.timeout(1.0)
            return "done"

        process = sim.process(body())
        sim.run()
        process.kill()
        assert process.value == "done"

    def test_alive_tracks_lifecycle(self, sim: Simulator) -> None:
        def body():
            yield sim.timeout(5.0)

        process = sim.process(body())
        assert process.alive
        sim.run()
        assert not process.alive


class _Tracked(Process):
    """A ``Process`` a test can hold weakly (the real one has no slot for it)."""

    __slots__ = ("__weakref__",)


@pytest.fixture
def collector_off():
    """Only reference counts may free anything while the test runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.usefixtures("collector_off")
class TestFreedByReferenceCount:
    """A finished process is not a reference cycle: one is created per
    transaction, and the cyclic collector is the only thing that could free
    a cycle. Each case drops the last outside reference and looks at once."""

    def test_a_process_that_returned(self, sim: Simulator) -> None:
        def body():
            yield 1.0
            return "done"

        process = _Tracked(sim, body())
        sim.run()
        assert process.value == "done"
        ref = weakref.ref(process)
        del process
        assert ref() is None

    def test_a_process_that_raised(self, sim: Simulator) -> None:
        def body():
            yield 1.0
            raise ValueError("boom")

        process = _Tracked(sim, body())
        sim.run()
        assert not process.ok
        error = process.value
        ref = weakref.ref(process)
        del process
        assert ref() is None
        # The traceback still says where the generator raised.
        assert error.__traceback__.tb_frame.f_code.co_name == "body"

    def test_a_process_killed_while_waiting_on_an_event(self, sim: Simulator) -> None:
        def body(gate):
            yield gate

        process = _Tracked(sim, body(sim.event()))
        sim.run()
        process.kill()
        assert isinstance(process.value, ProcessKilled)
        ref = weakref.ref(process)
        del process
        assert ref() is None

    def test_a_process_killed_while_asleep(self, sim: Simulator) -> None:
        def sleeper():
            yield 5.0

        process = _Tracked(sim, sleeper())
        sim.run(until=1.0)
        process.kill()
        before = sim.events_executed
        sim.run()  # the wake-up it left on the heap
        assert sim.now == 5.0
        assert sim.events_executed == before + 2  # as the Timeout form counts
        ref = weakref.ref(process)
        del process
        assert ref() is None

    def test_the_dropped_wake_up_is_traced_as_before(self) -> None:
        with telemetry.capture("kill") as tracer:
            sim = Simulator()

            def sleeper():
                yield 5.0

            process = _Tracked(sim, sleeper())
            sim.run(until=1.0)
            process.kill()
            seen = len(tracer.records)
            sim.run()
        assert tracer.records[seen:] == [
            (5.0, "sim", "dispatch", {"callback": "Process._wake"}),
            (5.0, "sim", "process_resume", {"process": "sleeper"}),
        ]
        ref = weakref.ref(process)
        del process
        assert ref() is None

    def test_a_wake_up_queued_behind_other_work_still_runs(
        self, sim: Simulator
    ) -> None:
        """The other branch of ``_wake``: something else is due at the same
        instant, so the dead sleeper's resume takes a FIFO slot."""

        def sleeper():
            yield 5.0

        process = _Tracked(sim, sleeper())
        sim.schedule(5.0, lambda: None)  # due at the wake-up's instant, after it
        sim.run(until=1.0)
        process.kill()
        before = sim.events_executed
        sim.run()
        assert sim.events_executed == before + 3  # wake, callback, dropped resume
        ref = weakref.ref(process)
        del process
        assert ref() is None

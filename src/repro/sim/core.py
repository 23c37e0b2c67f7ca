"""Event loop and wait primitives for the simulation kernel.

The design follows the classic event-list pattern — a heap of
``(time, sequence, callback, arg)`` entries and a monotonically advancing
float clock — with one refinement for the dominant case: zero-delay
scheduling. Every event trigger, every callback added after a trigger, and
every process start fires "now"; pushing those through the heap paid an
``O(log n)`` push/pop plus a closure allocation per occurrence. They go
through a FIFO *immediate queue* (a deque) instead, merged with the heap by
the shared ``(time, sequence)`` order, so the executed event order — and
therefore every seeded artifact — is identical to the pure-heap kernel's.

``schedule`` also takes an optional single ``arg`` so hot callers
(:class:`Event` triggers, :class:`Timeout`, :class:`Process` resumption, the
channel delivery path) can pass a bound method plus its argument instead of
allocating a closure per event.

Implementation note: the trigger/timeout fast paths below, and the sleep
path in :mod:`repro.sim.process`, intentionally duplicate
:meth:`Simulator.schedule`'s branches (an inline sequence bump plus a deque
append or a heap push) rather than calling it — these run once per event and
the call overhead was a measurable slice of every figure experiment. Any
change to the queueing discipline must be applied to ``schedule`` *and* the
inlined sites; ``tests/unit/test_sim_core.py`` pins the shared
``(time, sequence)`` ordering contract. Every one of them rejects a delay
with ``if not delay >= 0``, which is false for NaN as well as for negatives:
a NaN time in the heap would silently break its ordering.

Tracing is not a second path: :meth:`Simulator.run` is the only dispatch
loop, ``Process._resume`` the only resume (and :meth:`Event.succeed` the only
trigger body). Both test ``Simulator.tracer``, resolved at construction,
against ``None`` before they emit; that costs an untraced run 5–10 ns per
dispatch and 20–30 ns per resume, under 1 % of a figure point's ~5 µs event.

Components never block; they schedule callbacks or, more conveniently, run
as generator :class:`~repro.sim.process.Process` objects. A process waits in
one of two forms. ``yield delay`` (an exact, non-negative ``float``) sleeps:
the process itself is the heap entry, no :class:`Timeout` is built — this
is how every process in the package waits on the clock. ``yield event`` waits on an
:class:`Event`. :class:`Timeout` stays for what only an event can do — be
shared between waiters, be composed in :class:`AnyOf` / :class:`AllOf`,
carry callbacks or a value; ``yield sim.timeout(d)`` and ``yield d`` execute
the same ``(time, sequence)`` order (:mod:`repro.sim.process` gives the
argument), the second in one dispatch instead of two.

Lifecycle: build, :meth:`Simulator.run` (as often as wanted), read the
results, then :meth:`Simulator.close`. Closing clears both queues and closes
the generator of every process that has not ended, in creation order — the
``GeneratorExit`` the cyclic collector would otherwise throw into it later,
at a moment and in a thread nobody chose. After that the run holds no
reference cycle through the kernel, so dropping it frees it at once;
``run`` and ``step`` on a closed simulator raise, and closing again does
nothing. The scenario and column runners close every run they build.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable

from repro.errors import SimulationError
from repro.telemetry import Tracer, active_tracer as _active_tracer

__all__ = ["Simulator", "Event", "Timeout", "AnyOf", "AllOf"]


class _NoArg:
    """Sentinel: ``schedule`` without an argument calls ``callback()``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<no-arg>"


_NO_ARG = _NoArg()


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail` makes
    it *triggered* and schedules its callbacks to run at the current
    simulation time. Triggering twice is an error — occurrences in a
    discrete-event simulation happen exactly once.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_ok", "_value")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._callbacks: list[Callable[[Event], None]] = []
        self._triggered = False
        self._ok = True
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        # The hot path of the whole kernel (every timeout and process exit
        # lands here): the zero-delay schedule is inlined.
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            sim = self.sim
            sequence = sim._sequence
            immediate = sim._immediate
            for callback in callbacks:
                immediate.append((sequence, callback, self))
                sequence += 1
            sim._sequence = sequence
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger as failed: each waiter gets ``exception`` thrown into it.

        Failing an event that nobody waits on does not raise, and must not:
        :meth:`Process.kill <repro.sim.process.Process.kill>` fails a fresh
        event that no one waits on, and a waiter may attach after the fail
        (``test_sim_process.py::test_failed_event_raises_inside_generator``
        fails the event before the process that yields it has started).  A
        failure nobody handles surfaces through the process that receives it.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception instance")
        self.succeed(exception)  # raises, changing nothing, if already triggered
        self._ok = False  # callbacks are only queued so far: none has looked yet
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event triggers.

        If the event already triggered, the callback runs at the current
        simulation time (not retroactively).
        """
        if self._triggered:
            sim = self.sim
            sequence = sim._sequence
            sim._sequence = sequence + 1
            sim._immediate.append((sequence, callback, self))
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """An event that triggers automatically after ``delay`` sim-seconds.

    A process that only needs to wait should ``yield delay`` instead; a
    ``Timeout`` is for a wait that is shared, composed or given callbacks.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        # Event.__init__ and schedule(delay, self.succeed, value), inlined.
        self.sim = sim
        self._callbacks = []
        self._triggered = False
        self._ok = True
        self._value = None
        self.delay = delay
        sequence = sim._sequence
        sim._sequence = sequence + 1
        if delay == 0.0:
            sim._immediate.append((sequence, self.succeed, value))
        else:
            heapq.heappush(
                sim._queue, (sim.now + delay, sequence, self.succeed, value)
            )


class AnyOf(Event):
    """Triggers as soon as any of the given events triggers.

    The value is the first triggering event. A failure of any child fails
    the composite.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: list[Event]) -> None:
        super().__init__(sim)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for event in events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed(event)
        else:
            self.fail(event.value)


class AllOf(Event):
    """Triggers once every one of the given events has triggered.

    The value is the list of child values in construction order. The first
    child failure fails the composite immediately.

    ``AllOf`` takes ownership of ``events`` and does not copy it: direct
    constructors must pass a fresh list they will not mutate afterwards.
    The public :meth:`Simulator.all_of` wrapper copies on behalf of its
    callers.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: list[Event]) -> None:
        super().__init__(sim)
        self._children = events
        self._remaining = len(events)
        if self._remaining == 0:
            self.succeed([])
            return
        for event in events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child.value for child in self._children])


class Simulator:
    """Discrete-event scheduler: a heap plus an immediate FIFO, one clock.

    Zero-delay work (the bulk of a run: event triggers, process wake-ups)
    lands in the FIFO; timed work lands in the heap. Both draw sequence
    numbers from one shared counter and the loop executes strictly in
    ``(time, sequence)`` order, so the interleaving is exactly the one a
    single heap would produce — ties broken by insertion order, runs
    deterministic.

    ``now`` is a plain (read-only by convention) attribute, not a property:
    nearly every component reads the clock on every event, and descriptor
    dispatch was measurable. Only the run loop may assign it.

    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(2.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [2.5]
    """

    def __init__(self) -> None:
        #: Current simulated time in seconds. Assigned only by the event loop.
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[..., None], Any]] = []
        self._immediate: deque[tuple[int, Callable[..., None], Any]] = deque()
        self._sequence = 0
        self._running = False
        self._closed = False
        #: Processes not yet ended, in creation order (a dict used as an
        #: ordered set): what :meth:`close` has to close.
        self._processes: dict[Process, None] = {}
        #: Callbacks executed so far, for throughput (events/sec) reporting.
        #: A sleeper resumed in the dispatch that woke it counts as the two
        #: events it replaces, so the count does not depend on the wait form.
        self.events_executed = 0
        #: The thread's active telemetry tracer, captured once at
        #: construction; ``None`` on every untraced run. Each component that
        #: emits keeps it from its own construction, so an instrumentation
        #: site pays one attribute load plus an ``is None`` test — the
        #: zero-cost-when-off contract. The kernel's own sites (the loop,
        #: :meth:`step`, ``Process._resume``) test it directly.
        self.tracer: Tracer | None = _active_tracer()

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        arg: Any = _NO_ARG,
    ) -> None:
        """Run ``callback`` (or ``callback(arg)``) ``delay`` sim-seconds from now.

        Ties are broken by insertion order, which keeps runs deterministic.
        Passing ``arg`` lets hot paths hand over a bound method plus its
        argument instead of allocating a closure per event.
        """
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"schedule delay must be >= 0, got {delay}")
        sequence = self._sequence
        self._sequence = sequence + 1
        if delay == 0.0:
            self._immediate.append((sequence, callback, arg))
        else:
            heapq.heappush(
                self._queue, (self.now + delay, sequence, callback, arg)
            )

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def any_of(self, events: list[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: list[Event]) -> AllOf:
        # Copy at the public boundary: AllOf takes ownership of its list,
        # and callers of this API may reuse theirs.
        return AllOf(self, list(events))

    def process(self, generator) -> "Process":  # noqa: ANN001 - documented in process.py
        """Start a generator as a cooperative process (see ``sim.process``)."""
        return Process(self, generator)

    def run(self, until: float | None = None) -> None:
        """Execute events in ``(time, sequence)`` order.

        Without ``until`` the loop drains both queues. With ``until`` the
        loop stops once the next event would fire strictly after ``until``
        and the clock is advanced to exactly ``until``.

        Traced, each callback is one ``dispatch`` record named by its
        ``__qualname__`` (never ``repr``: addresses differ across processes);
        ``sim.events_dispatched`` counts them — a sleeper resumed inside its
        wake-up is one dispatch but two ``events_executed``.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if self._closed:
            raise SimulationError("simulator is closed")
        if until != until:  # NaN: false in every comparison below, would drain all
            raise SimulationError(f"run until must not be NaN, got {until}")
        self._running = True
        executed = 0
        immediate = self._immediate
        queue = self._queue
        no_arg = _NO_ARG
        tracer = self.tracer
        try:
            if until is not None and self.now > until:
                # Nothing may fire: even immediates sit beyond the horizon.
                return
            while True:
                if immediate:
                    # A heap entry wins only on an exact time tie with an
                    # older sequence number (heap times are never in the
                    # past, so `<= now` means `== now`).
                    if (
                        queue
                        and queue[0][0] <= self.now
                        and queue[0][1] < immediate[0][0]
                    ):
                        entry = heapq.heappop(queue)
                        self.now = entry[0]
                        callback, arg = entry[2], entry[3]
                    else:
                        _, callback, arg = immediate.popleft()
                elif queue:
                    time = queue[0][0]
                    if until is not None and time > until:
                        break
                    entry = heapq.heappop(queue)
                    self.now = time
                    callback, arg = entry[2], entry[3]
                else:
                    break
                executed += 1
                if tracer is not None:
                    name = getattr(callback, "__qualname__", type(callback).__name__)
                    tracer.emit(self.now, "sim", "dispatch", {"callback": name})
                if arg is no_arg:
                    callback()
                else:
                    callback(arg)
            if until is not None and self.now < until:
                self.now = until
        finally:
            self.events_executed += executed
            self._running = False

    def step(self) -> bool:
        """Execute a single event; returns False when nothing is pending."""
        if self._running:
            raise SimulationError("simulator is already running (step() inside run())")
        if self._closed:
            raise SimulationError("simulator is closed")
        immediate = self._immediate
        queue = self._queue
        if immediate:
            if (
                queue
                and queue[0][0] <= self.now
                and queue[0][1] < immediate[0][0]
            ):
                time, _, callback, arg = heapq.heappop(queue)
                self.now = time
            else:
                _, callback, arg = immediate.popleft()
        elif queue:
            time, _, callback, arg = heapq.heappop(queue)
            self.now = time
        else:
            return False
        self.events_executed += 1
        tracer = self.tracer
        if tracer is not None:
            name = getattr(callback, "__qualname__", type(callback).__name__)
            tracer.emit(self.now, "sim", "dispatch", {"callback": name})
        if arg is _NO_ARG:
            callback()
        else:
            callback(arg)
        return True

    def close(self) -> None:
        """End the simulation: drop what is pending, close what is suspended.

        Closes the generator of every process that has not ended, in
        creation order, and marks it not alive: each receives the
        :class:`GeneratorExit` the cyclic collector's finalizer would
        otherwise throw into it at some later moment, possibly in another
        thread. Then both queues are cleared. If a generator raises anything
        else, the rest are still closed and the first such exception is
        raised after them.

        A closed simulator refuses :meth:`run` and :meth:`step`; closing
        again does nothing. Closing inside :meth:`run` is an error.
        """
        if self._running:
            raise SimulationError("simulator is running (close() inside run())")
        self._closed = True
        processes = self._processes
        error: Exception | None = None
        while processes:  # a closing generator may start another process
            for process in list(processes):
                if process not in processes:  # ended by an earlier close
                    continue
                del processes[process]
                process._resume_callback = None
                try:
                    process._generator.close()
                except Exception as exc:  # raised once the rest are closed
                    if error is None:
                        error = exc
        # After the generators: whatever a closing one scheduled never runs.
        self._queue.clear()
        self._immediate.clear()
        if error is not None:
            raise error

    @property
    def pending_events(self) -> int:
        return len(self._queue) + len(self._immediate)


# Imported last so that ``Simulator.process`` can reference the class without
# a per-call import: process.py subclasses Event, so the import must run
# after the definitions above regardless of which module loads first.
from repro.sim.process import Process  # noqa: E402

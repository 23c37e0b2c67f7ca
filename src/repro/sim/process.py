"""Generator-based cooperative processes for the simulation kernel.

A *process* is a Python generator that yields what it waits for, mirroring
how a thread would block on I/O — but deterministically and with zero
concurrency hazards. There are two wait forms:

* ``yield delay`` — **sleep**. ``delay`` is an exact ``float`` (not an
  ``int``, a ``bool`` or a numpy scalar: convert at the boundary), ``>= 0``
  and not NaN. The process puts *itself* on the event heap as
  ``(now + delay, sequence, self._wake, None)``: no ``Timeout`` is built, no
  callback list walked, no ``succeed`` called. This is how every process in
  the package waits on the clock, traced or not.
* ``yield event`` — wait on an :class:`~repro.sim.core.Event` (a lock grant,
  another process, an ``any_of``); the process is resumed with the event's
  value, or the event's exception is thrown into it.

Anything else fails the process with a :class:`~repro.errors.SimulationError`.

**Why a sleep executes the order a ``Timeout`` would.** ``yield
sim.timeout(d)`` takes one sequence number for the heap entry; when that
entry is dispatched, ``succeed`` takes a second one and appends the waiter's
resume to the immediate FIFO, and the resume is a second dispatch. A sleep
takes the same first number for the same heap slot. When the entry is
dispatched, :meth:`Process._wake` looks at what the loop would run next: if
the FIFO is empty and the heap holds nothing at ``now``, the appended resume
would be exactly that, so ``_wake`` runs it in place and counts it in
``events_executed``; otherwise it appends the resume with a fresh sequence
number — the slot ``succeed`` would have given it. The only difference is
that the in-place case never draws the second number; its entry would have
been popped before anything else was queued, so it was never compared with
another, and every later number keeps its place relative to the rest. Ties
included, the executed ``(time, sequence)`` order is the same
(``tests/property/test_sleep_equivalence.py`` runs random tie-heavy programs
both ways; the golden kernel digest did not move).

:class:`~repro.sim.core.Timeout` therefore remains only as what it uniquely
is: an event — shareable, composable in ``any_of`` / ``all_of``, able to
carry callbacks and a value.

Example::

    def client(sim, cache):
        while True:
            yield 0.002                       # inter-arrival gap
            value = cache.read("user:42")     # synchronous model call
            ...

    sim.process(client(sim, cache))
    sim.run(until=60.0)
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator

from repro.errors import ProcessKilled, SimulationError
from repro.sim.core import Event, Simulator

__all__ = ["Process"]


class Process(Event):
    """Drives a generator, waking it when what it yielded is due.

    A ``Process`` is itself an :class:`Event`: it triggers when the generator
    returns (successfully, with the ``return`` value) or raises (failure).
    That makes ``yield other_process`` a natural join operation.

    :meth:`_resume` doubles as the wait-completion callback — the triggered
    event is handed to it directly, which removes one function call and one
    bound-method allocation from every wake-up (the kernel's hottest chain).
    ``_resume_callback`` is that bound method, allocated once per process:
    always ``self._resume``, traced or not (it tests ``sim.tracer``).

    It is dropped (set to ``None``) on every termination path, and that is
    what "not alive" means. A bound method of ``self`` stored on ``self`` is a
    reference cycle, so a finished process — one per transaction — could
    otherwise only be freed by the cyclic collector, together with its
    generator and callback list; without it the last outside reference frees
    the process at once. For the same reason the exception a process ends
    with is stored without this module's frame in its traceback (that frame
    holds ``self``). A wake-up that is already queued for a process that
    ended while asleep still runs: :meth:`_wake` falls back to
    ``self._resume``, which counts and traces it and returns.
    """

    __slots__ = ("_generator", "_resume_callback")

    def __init__(self, sim: Simulator, generator: Generator[Event | float, Any, Any]) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                "Process requires a generator; did you forget to call the function?"
            )
        # Event.__init__, inlined: a Process is created per transaction.
        self.sim = sim
        self._callbacks = []
        self._triggered = False
        self._ok = True
        self._value = None
        self._generator = generator
        self._resume_callback = self._resume
        # First resumption happens as a scheduled event so that process
        # start order matches creation order at the current instant.
        sequence = sim._sequence
        sim._sequence = sequence + 1
        sim._immediate.append((sequence, self._resume_callback, None))

    @property
    def alive(self) -> bool:
        return self._resume_callback is not None

    def kill(self) -> None:
        """Throw :class:`ProcessKilled` into the generator.

        A process may intercept the exception for cleanup; re-raising (or not
        catching) marks the process as failed unless it exits normally. A
        traced run records the throw as the ``process_resume`` it is (the
        package itself never kills a process, so no committed trace moves).
        """
        if self._resume_callback is None:
            return
        # The regular resume path, handed a synthetic failed event.
        self._resume(Event(self.sim).fail(ProcessKilled("killed")))

    def _resume(self, event: Event | None = None) -> None:
        """Advance the generator with the outcome of ``event``.

        ``event`` is ``None`` for the initial start and after a sleep. This
        is registered directly as the awaited event's callback, so the
        event's triggered state is already final when it runs.

        A traced run records every call, a dead process's dropped wake-up
        included, under the generator function's ``__name__`` (no id in it).
        """
        tracer = self.sim.tracer
        if tracer is not None:
            name = self._generator.__name__
            tracer.emit(self.sim.now, "sim", "process_resume", {"process": name})
            tracer.metrics.count("sim.process_resumes")
        if self._resume_callback is None:
            return
        generator = self._generator
        try:
            if event is None:
                target = generator.send(None)
            elif event._ok:
                target = generator.send(event._value)
            else:
                error = event._value
                if not isinstance(error, BaseException):
                    error = SimulationError(f"event failed with {error!r}")
                target = generator.throw(error)
        except StopIteration as stop:
            self._resume_callback = None
            self.succeed(stop.value)
            return
        except ProcessKilled as killed:
            self._resume_callback = None
            # The value is a marker, not an error to report; its traceback
            # holds this frame (so ``self``) and the generator's, which may
            # hold the awaited event that still lists this process.
            killed.__traceback__ = None
            self.succeed(killed)
            return
        except BaseException as exc:  # noqa: BLE001 - propagated via the event
            self._resume_callback = None
            # Keep the generator's frames, not this one: it holds ``self``,
            # and the stored exception would tie the process into a cycle.
            exc.__traceback__ = exc.__traceback__.tb_next
            self.fail(exc)
            return

        if type(target) is float:
            # A sleep: the process itself is the heap entry.
            if not target >= 0:  # negative or NaN
                self._resume_callback = None
                self.fail(
                    SimulationError(f"sleep delay must be >= 0, got {target}")
                )
                return
            sim = self.sim
            sequence = sim._sequence
            sim._sequence = sequence + 1
            if target == 0.0:
                sim._immediate.append((sequence, self._wake, None))
            else:
                heappush(sim._queue, (sim.now + target, sequence, self._wake, None))
        elif not isinstance(target, Event):
            self._resume_callback = None
            self.fail(
                SimulationError(
                    f"process yielded {target!r}; a process yields an Event "
                    "to wait on or a float delay to sleep (exactly float: "
                    "not int, bool or a numpy scalar)"
                )
            )
        # target.add_callback(self._resume_callback), inlined.
        elif target._triggered:
            sim = self.sim
            sequence = sim._sequence
            sim._sequence = sequence + 1
            sim._immediate.append((sequence, self._resume_callback, target))
        else:
            target._callbacks.append(self._resume_callback)

    def _wake(self, _arg: None) -> None:
        """A sleep ended: resume now if nothing else is due at this instant.

        ``Timeout.succeed`` would append the waiter's resume to the immediate
        FIFO with a fresh sequence number. When the FIFO is empty and the
        heap holds nothing at ``now``, that entry would be the very next one
        dispatched, so running it here — counted as the event it replaces —
        executes the same ``(time, sequence)`` order in one dispatch. In any
        other case the resume takes that FIFO slot. A killed sleeper goes the
        same way and :meth:`_resume` drops it, so ``events_executed`` matches
        the ``Timeout`` form exactly.
        """
        sim = self.sim
        queue = sim._queue
        # A process that ended while asleep has dropped its callback.
        resume = self._resume_callback or self._resume
        if sim._immediate or (queue and queue[0][0] <= sim.now):
            sequence = sim._sequence
            sim._sequence = sequence + 1
            sim._immediate.append((sequence, resume, None))
        else:
            sim.events_executed += 1
            resume(None)

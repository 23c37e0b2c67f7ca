"""Deterministic discrete-event simulation kernel.

The paper evaluates a live prototype; this reproduction replays the same
architecture inside a small, fully deterministic discrete-event simulator so
that every figure is seedable and runs in seconds. The kernel is a genuine
substrate with its own test suite:

* :class:`~repro.sim.core.Simulator` — heap-based event loop with a float
  simulated clock.
* :class:`~repro.sim.core.Event` / :class:`~repro.sim.core.Timeout` — wait
  primitives.
* :class:`~repro.sim.process.Process` — generator-based cooperative
  processes (clients, invalidation pipelines, cluster-shift schedulers);
  a process sleeps by yielding a bare ``float`` delay and waits on anything
  else by yielding the event.
* :class:`~repro.sim.channel.Channel` — unidirectional message channel with
  configurable latency and loss, used for DB→cache invalidations and
  cache→DB reads.
* :class:`~repro.sim.rng.RngStreams` — named, independently seeded random
  streams, plus the bounded-Pareto sampler from §V-A1.
"""

from repro.sim.channel import Channel, ChannelStats
from repro.sim.core import AllOf, AnyOf, Event, Simulator, Timeout
from repro.sim.process import Process
from repro.sim.rng import BoundedPareto, RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "BoundedPareto",
    "Channel",
    "ChannelStats",
    "Event",
    "Process",
    "RngStreams",
    "Simulator",
    "Timeout",
]

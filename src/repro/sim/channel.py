"""Unidirectional message channels with latency and loss.

Models the paper's two asynchronous paths:

* **DB → cache invalidations** (§IV): best-effort; the experiment drops 20 %
  of invalidations uniformly at random, and delivery latency jitter may
  reorder the survivors — exactly the failure modes §II blames for stale
  caches.
* **cache → DB reads** (§III-B): reliable but slow (that is the whole reason
  edge caches exist); we model them with a latency-only channel.

A channel delivers by invoking a receiver callback inside the simulation, so
components stay decoupled: the database knows only that it `send()`s
invalidation records somewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.core import Simulator

__all__ = ["Channel", "ChannelStats"]


@dataclass(slots=True)
class ChannelStats:
    """Counters a channel maintains for the experiment reports."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    #: Sum of delivery latencies, for mean-latency reporting.
    total_latency: float = 0.0
    #: Messages delivered out of send order (a later send arriving earlier).
    reordered: int = 0
    _last_delivered_seq: int = field(default=-1, repr=False)

    @property
    def loss_ratio(self) -> float:
        return self.dropped / self.sent if self.sent else 0.0

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.delivered if self.delivered else 0.0


class Channel:
    """Point-to-point channel with configurable latency and loss.

    ``latency`` may be a constant (seconds) or a callable drawing from the
    provided random generator — e.g. ``lambda rng: rng.exponential(0.05)``.
    ``loss_probability`` drops messages independently and uniformly, matching
    the experiment's 20 % invalidation loss; it may also be a callable of the
    current simulation time, which models the §II pathologies where loss is
    bursty ("due to a system configuration change, buffer saturation") —
    see :meth:`outage` for the common case of a total loss window.
    """

    def __init__(
        self,
        sim: Simulator,
        receiver: Callable[[Any], None],
        *,
        latency: float | Callable[[np.random.Generator], float] = 0.0,
        loss_probability: float | Callable[[float], float] = 0.0,
        rng: np.random.Generator | None = None,
        name: str = "channel",
    ) -> None:
        if not callable(loss_probability) and not 0.0 <= loss_probability <= 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1], got {loss_probability}"
            )
        uses_randomness = (
            callable(loss_probability) or loss_probability > 0.0 or callable(latency)
        )
        if uses_randomness and rng is None:
            raise ConfigurationError(
                f"channel {name!r} uses randomness but no rng was provided"
            )
        self._sim = sim
        #: The run's tracer (None untraced), read once at construction.
        self._tracer = sim.tracer
        self._receiver = receiver
        self._latency = latency
        self._loss_probability = loss_probability
        self._rng = rng
        self.name = name
        self.stats = ChannelStats()
        self._send_seq = 0
        #: Half-open outage windows [(start, end)] with total loss.
        self._outages: list[tuple[float, float]] = []

    def outage(self, start: float, end: float) -> None:
        """Drop every message sent within ``[start, end)`` sim-seconds.

        Models an invalidation-pipeline outage (configuration change,
        buffer saturation); composes with the base loss probability.
        """
        if end <= start:
            raise ConfigurationError(f"empty outage window [{start}, {end})")
        self._outages.append((start, end))

    def _current_loss(self) -> float:
        now = self._sim.now
        for start, end in self._outages:
            if start <= now < end:
                return 1.0
        if callable(self._loss_probability):
            probability = self._loss_probability(now)
            if not 0.0 <= probability <= 1.0:
                raise ConfigurationError(
                    f"loss_probability callable returned {probability}"
                )
            return probability
        return self._loss_probability

    def send(self, message: Any) -> bool:
        """Enqueue ``message``; returns False if the channel dropped it.

        Delivery happens by calling the receiver after the sampled latency.
        Nothing is delivered synchronously, even at latency zero, preserving
        the asynchrony the paper's protocol must tolerate.
        """
        self.stats.sent += 1
        sequence = self._send_seq
        self._send_seq += 1
        loss = self._loss_probability
        if self._outages or callable(loss):
            loss = self._current_loss()
        if loss >= 1.0 or (loss > 0.0 and self._rng.random() < loss):
            self.stats.dropped += 1
            tracer = self._tracer
            if tracer is not None:
                now = self._sim.now
                in_outage = any(start <= now < end for start, end in self._outages)
                tracer.emit(
                    now,
                    "channel",
                    "drop",
                    {"channel": self.name, "seq": sequence, "outage": in_outage},
                )
                tracer.metrics.count(
                    "channel.outage_drops" if in_outage else "channel.drops"
                )
            return False
        delay = self._latency(self._rng) if callable(self._latency) else self._latency
        if delay < 0:
            raise ConfigurationError(f"channel {self.name!r} sampled negative latency")
        self._sim.schedule(delay, self._deliver, (message, sequence, delay))
        return True

    def _deliver(self, packed: tuple[Any, int, float]) -> None:
        message, sequence, delay = packed
        self.stats.delivered += 1
        self.stats.total_latency += delay
        reordered = sequence < self.stats._last_delivered_seq
        if reordered:
            self.stats.reordered += 1
        else:
            self.stats._last_delivered_seq = sequence
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                self._sim.now,
                "channel",
                "deliver",
                {
                    "channel": self.name,
                    "seq": sequence,
                    "latency_ms": delay * 1000.0,
                    "reordered": reordered,
                },
            )
            tracer.metrics.count("channel.delivered")
            tracer.metrics.observe("channel.latency_ms", delay * 1000.0)
        self._receiver(message)

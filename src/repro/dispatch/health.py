"""Per-worker heartbeat/health tracking and adaptive chunk sizing.

Sizing every chunk identically is fine for a fleet of clones but wasteful
for heterogeneous hosts: a chunk sized for a fast machine strands a slow
one holding work everyone else could have finished — the classic straggler
tail.  The daemon therefore tracks, per worker connection:

* liveness — the last time any frame (request, result, heartbeat)
  arrived, against a silence threshold;
* observed throughput — an exponentially weighted moving average of
  completed points per second, updated on every result frame.

:meth:`HealthTracker.chunk_points_for` turns the throughput estimate into
a per-worker chunk size targeting ``target_chunk_seconds`` of work, so a
host that completes 10 points/s is handed ~10× the chunk of a host doing
1 point/s and both drain their final lease at roughly the same moment.
Workers with no history yet get a deliberately small probe chunk — the
cost of underestimating a fast host for one lease is far lower than
parking a sweep's tail on a slow one.

Chunk sizing never touches result *values*: points are deterministic
functions of their payloads, so adaptive assignment changes wall-clock
shape only, never bytes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError

__all__ = ["HealthTracker", "WorkerHealth"]

#: Weight of the newest inter-result interval in the throughput EWMA.
_EWMA_ALPHA = 0.3


@dataclass(slots=True)
class WorkerHealth:
    """One worker connection's observed behaviour."""

    worker: str
    connected_at: float
    last_seen: float
    points_completed: int = 0
    heartbeats: int = 0
    #: EWMA of completed points per second; ``None`` until the first result.
    points_per_sec: float | None = None
    connected: bool = True

    def as_row(self, now: float, alive_after: float) -> dict[str, object]:
        """A JSON-safe status row for ``fleet status`` reports."""
        silence = max(0.0, now - self.last_seen)
        return {
            "worker": self.worker,
            "connected": self.connected,
            "alive": self.connected and silence <= alive_after,
            "silence_seconds": round(silence, 3),
            "points_completed": self.points_completed,
            "heartbeats": self.heartbeats,
            "points_per_sec": (
                None
                if self.points_per_sec is None
                else round(self.points_per_sec, 4)
            ),
        }


class HealthTracker:
    """Thread-safe registry of :class:`WorkerHealth`, one per connection.

    ``clock`` is injectable for tests; the default is ``time.monotonic``.
    """

    def __init__(
        self,
        *,
        target_chunk_seconds: float = 5.0,
        probe_chunk_points: int = 1,
        max_chunk_points: int = 64,
        alive_after: float = 15.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if target_chunk_seconds <= 0:
            raise ConfigurationError(
                f"target_chunk_seconds must be positive, got {target_chunk_seconds}"
            )
        if probe_chunk_points < 1:
            raise ConfigurationError(
                f"probe_chunk_points must be >= 1, got {probe_chunk_points}"
            )
        if max_chunk_points < probe_chunk_points:
            raise ConfigurationError(
                f"max_chunk_points ({max_chunk_points}) must be >= "
                f"probe_chunk_points ({probe_chunk_points})"
            )
        self.target_chunk_seconds = target_chunk_seconds
        self.probe_chunk_points = probe_chunk_points
        self.max_chunk_points = max_chunk_points
        self.alive_after = alive_after
        self._clock = clock
        self._lock = threading.Lock()
        self._workers: dict[str, WorkerHealth] = {}
        self._last_result_at: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------

    def on_connect(self, owner: str) -> None:
        now = self._clock()
        with self._lock:
            self._workers[owner] = WorkerHealth(
                worker=owner, connected_at=now, last_seen=now
            )

    def on_frame(self, owner: str) -> None:
        """Any frame from ``owner`` proves liveness."""
        now = self._clock()
        with self._lock:
            health = self._workers.get(owner)
            if health is not None:
                health.last_seen = now

    def on_heartbeat(self, owner: str) -> None:
        now = self._clock()
        with self._lock:
            health = self._workers.get(owner)
            if health is not None:
                health.last_seen = now
                health.heartbeats += 1

    def on_result(self, owner: str) -> None:
        """A completed point: update liveness and the throughput EWMA."""
        now = self._clock()
        with self._lock:
            health = self._workers.get(owner)
            if health is None:
                return
            health.last_seen = now
            health.points_completed += 1
            previous = self._last_result_at.get(owner)
            self._last_result_at[owner] = now
            if previous is None:
                return
            interval = now - previous
            if interval <= 0:
                return
            rate = 1.0 / interval
            if health.points_per_sec is None:
                health.points_per_sec = rate
            else:
                health.points_per_sec += _EWMA_ALPHA * (
                    rate - health.points_per_sec
                )

    def on_disconnect(self, owner: str) -> None:
        with self._lock:
            health = self._workers.get(owner)
            if health is not None:
                health.connected = False
            self._last_result_at.pop(owner, None)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def chunk_points_for(self, owner: str) -> int:
        """How many points to lease ``owner`` next (adaptive, bounded).

        ``target_chunk_seconds × observed points/sec``, clamped to
        ``[1, max_chunk_points]``; a worker with no throughput history yet
        gets the small probe chunk.
        """
        with self._lock:
            health = self._workers.get(owner)
            rate = None if health is None else health.points_per_sec
        if rate is None or rate <= 0:
            return self.probe_chunk_points
        sized = int(round(rate * self.target_chunk_seconds))
        return max(1, min(self.max_chunk_points, sized))

    def snapshot(self) -> list[dict[str, object]]:
        """Status rows for every worker this daemon has seen, stable order."""
        now = self._clock()
        with self._lock:
            return [
                health.as_row(now, self.alive_after)
                for _, health in sorted(self._workers.items())
            ]

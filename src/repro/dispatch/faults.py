"""Worker failure drills for the dispatch tier.

TransEdge-style deployments assume edge workers are unreliable; this module
makes that assumption *rehearsable*.  A :class:`FaultPlan` rides along with
:func:`repro.dispatch.worker.run_worker` (CLI: ``repro-experiments worker
--fault crash:3``) and injects one of three canonical failure modes after
the worker has completed a given number of points:

* ``crash`` — hard process death (``os._exit``): the kernel closes the TCP
  connection, exactly like a SIGKILL or OOM kill.  The daemon's fast
  path (connection loss → :meth:`WorkQueue.release`) reassigns the chunk.
* ``stall`` — the worker stops executing *and stops heartbeating* while its
  connection stays open, like a worker stuck in GC or swapped out.  Only
  lease expiry can recover this one; the worker resumes afterwards and its
  late results are dropped as duplicates.
* ``disconnect`` — the worker closes its socket mid-chunk without a
  goodbye and exits cleanly, like a deploy draining a node.

The integration tests use these plans (plus a genuine ``SIGKILL`` of a
worker subprocess) to assert the daemon's contract: a killed worker
never loses finished results and never perturbs the final sweep bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["FaultPlan"]

_KINDS = ("crash", "stall", "disconnect")


@dataclass(slots=True)
class FaultPlan:
    """Inject one failure once ``after_points`` points have completed.

    The worker checks the plan before executing each point and after
    streaming each result, so ``after_points=0`` fires as soon as the
    worker holds its first chunk — the connect-then-die drill — while
    ``after_points=N`` fires right after the N-th result.
    ``stall_seconds`` only applies to ``kind="stall"``: how long the worker
    goes silent (no execution, no heartbeats) before resuming.
    """

    kind: str
    after_points: int
    stall_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; one of {_KINDS}"
            )
        if self.after_points < 0:
            raise ConfigurationError(
                f"after_points must be >= 0, got {self.after_points}"
            )
        if self.stall_seconds <= 0:
            raise ConfigurationError(
                f"stall_seconds must be positive, got {self.stall_seconds}"
            )

    def triggers_after(self, points_done: int) -> bool:
        """Whether the fault fires once ``points_done`` points completed."""
        return points_done >= self.after_points

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI form ``kind:after_points[:stall_seconds]``.

        Examples: ``crash:3`` (die hard after 3 points), ``stall:1:10``
        (after 1 point, go silent for 10 s), ``disconnect:2``.
        """
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ConfigurationError(
                f"fault spec {text!r} is not kind:after_points[:stall_seconds]"
            )
        kind = parts[0]
        try:
            after_points = int(parts[1])
            stall_seconds = float(parts[2]) if len(parts) == 3 else 30.0
        except ValueError as exc:
            raise ConfigurationError(f"bad fault spec {text!r}: {exc}") from exc
        return cls(
            kind=kind, after_points=after_points, stall_seconds=stall_seconds
        )

"""``--dispatch HOST:PORT``: a fleet daemon that lives for one sweep.

:func:`run_dispatched` starts a journal-less
:class:`~repro.dispatch.daemon.FleetDaemon` at the given address, submits
through the ``--fleet`` client (:func:`~repro.dispatch.client.run_fleet_sweep`)
and shuts the daemon down on the way out; ``fleet status`` and ``fleet
cancel`` work against the address while it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dispatch.client import FleetSpec, run_fleet_sweep
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.errors import ConfigurationError
from repro.experiments.sweep import SweepResult, SweepSpec

__all__ = ["DispatchSpec", "parse_hostport", "run_dispatched"]


def parse_hostport(text: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` CLI argument."""
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise ConfigurationError(f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ConfigurationError(f"bad port in {text!r}: {exc}") from exc
    if not 0 <= port <= 65535:
        raise ConfigurationError(f"port must be in [0, 65535], got {port}")
    return host, port


@dataclass(slots=True)
class DispatchSpec:
    """Where to serve one sweep to remote workers.

    ``port=0`` binds an OS-chosen port nobody is told about; code that
    needs the address starts a :class:`~repro.dispatch.daemon.FleetDaemon`
    itself and passes ``FleetSpec(*daemon.address)`` instead.
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: The daemon's stale-lease tick, and the longest a worker's ``request``
    #: or the submitter's ``fetch`` is held.
    poll_interval: float = 0.5

    def __post_init__(self) -> None:
        self.config()  # FleetConfig's range checks, at construction

    def config(self) -> FleetConfig:
        """The journal-less daemon configuration this spec describes."""
        return FleetConfig(
            host=self.host, port=self.port, poll_interval=self.poll_interval
        )

    def run(self, spec: SweepSpec) -> SweepResult:
        return run_dispatched(spec, self)


def run_dispatched(spec: SweepSpec, dispatch: DispatchSpec) -> SweepResult:
    """Serve ``spec`` at ``dispatch``'s address until workers complete it."""
    daemon = FleetDaemon(dispatch.config())
    daemon.start()
    try:
        return run_fleet_sweep(
            spec,
            FleetSpec(
                *daemon.address,
                secret=daemon.config.secret,
                poll_interval=dispatch.poll_interval,
            ),
        )
    finally:
        daemon.shutdown()

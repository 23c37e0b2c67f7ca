"""Protocol registry: pluggable edge-consistency protocols by name.

The paper evaluates exactly one protocol family — the T-Cache detector of
§III with its ABORT / EVICT / RETRY strategies — but the scenario harness
(:mod:`repro.scenario`) is protocol-agnostic: it wires a cache per edge, a
database per backend, invalidation channels and clients, and aggregates
whatever the caches report. This module makes that seam explicit. A
:class:`ProtocolSpec` packages an edge-side cache constructor plus optional
backend-side cooperation (a per-backend service such as a lock manager or a
version signer), registered under a stable name. That name is the one way
to pick a cache: the ``protocol`` field of :class:`~repro.scenario.spec.EdgeSpec`
and :class:`~repro.experiments.config.ColumnConfig`. What a protocol needs of
the spec that names it (a positive ``ttl``; whether a ``deplist_limit``
means anything to it) is declared here too and enforced by
:func:`check_protocol_options`, so no spec module knows a protocol by name.

Built-in protocols (registered by :mod:`repro.protocols.builtin` on package
import):

``tcache-detector``
    The paper's detector — the incumbent, and :data:`DEFAULT_PROTOCOL`.
``multiversion``
    The §VI extension: the detector over a short per-key version history.
``ttl`` / ``plain``
    The paper's consistency-unaware baselines (Fig. 7d).
``causal``
    Per-session causal floors with client migration between edges
    (CausalMesh-style); see :mod:`repro.protocols.causal`.
``verified-read``
    Backend-signed version vectors verified before every serve
    (TransEdge-style); see :mod:`repro.protocols.verified`.
``locking``
    Pessimistic S/X coherence over :class:`~repro.db.locks.LockManager` —
    the zero-inconsistency / high-latency bound; see
    :mod:`repro.protocols.locking`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cache.base import CacheServer
    from repro.db.database import Database
    from repro.scenario.spec import EdgeSpec
    from repro.sim.core import Simulator

__all__ = [
    "DEFAULT_PROTOCOL",
    "ProtocolSpec",
    "check_protocol_options",
    "register_protocol",
    "get_protocol",
    "protocol_names",
    "protocol_for_edge",
]

#: What an edge runs unless it says otherwise: the paper's detector.
DEFAULT_PROTOCOL = "tcache-detector"


@dataclass(frozen=True, slots=True)
class ProtocolSpec:
    """One registered edge-consistency protocol.

    ``build_cache(sim, database, edge, service)`` constructs the edge-side
    cache; ``service`` is the memoised result of ``backend_service(sim,
    database)`` for the backend this edge reads from (``None`` when the
    protocol declares no backend-side cooperation). The scenario runner
    builds at most one service per ``(protocol, backend)`` pair, so edges
    sharing a backend share its service — that is what makes lock coherence
    and cross-edge causal migration possible.
    """

    name: str
    family: str
    description: str
    build_cache: Callable[["Simulator", "Database", "EdgeSpec", object | None], "CacheServer"]
    backend_service: Callable[["Simulator", "Database"], object] | None = None
    #: Protocols that guarantee serializable read-only transactions by
    #: construction (the pessimistic bound); asserted by the property suite.
    zero_inconsistency: bool = field(default=False)
    #: The cache expires entries, so the spec must carry a positive ``ttl``.
    requires_ttl: bool = False

    @property
    def consults_deplists(self) -> bool:
        """Whether the cache checks reads against dependency lists — the
        ``detector`` family — and so may carry a per-edge ``deplist_limit``."""
        return self.family == "detector"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("protocol name must be non-empty")
        if not self.family:
            raise ConfigurationError(f"protocol {self.name!r}: family must be non-empty")


_REGISTRY: dict[str, ProtocolSpec] = {}


def register_protocol(spec: ProtocolSpec) -> ProtocolSpec:
    """Add ``spec`` to the registry; duplicate names fail loudly."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(
            f"protocol {spec.name!r} is already registered"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_protocol(name: str) -> ProtocolSpec:
    """Resolve a protocol by name, listing the registered names on a miss."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; registered protocols: "
            f"{', '.join(protocol_names())}"
        ) from None


def protocol_names() -> tuple[str, ...]:
    """All registered protocol names, sorted for stable error messages."""
    return tuple(sorted(_REGISTRY))


def protocol_for_edge(edge: "EdgeSpec") -> ProtocolSpec:
    """The protocol an edge runs."""
    return get_protocol(edge.protocol)


def check_protocol_options(
    name: str,
    *,
    ttl: float | None,
    deplist_limit: int | None = None,
    owner: str = "",
) -> None:
    """Reject a spec whose options its protocol cannot honour.

    Called by every spec that names a protocol, at construction, so a bad
    name (the registered ones are listed) or a missing ``ttl`` fails there
    and on JSON replay, not at build time deep inside the runner.
    """
    protocol = get_protocol(name)
    if protocol.requires_ttl and (ttl is None or ttl <= 0):
        raise ConfigurationError(
            f"{owner}protocol {name!r} requires a positive ttl, got {ttl}"
        )
    if deplist_limit is not None and not protocol.consults_deplists:
        raise ConfigurationError(
            f"{owner}deplist_limit only applies to protocols that consult "
            f"dependency lists, not {name!r}"
        )

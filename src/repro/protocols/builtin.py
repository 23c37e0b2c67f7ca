"""Built-in protocol registrations.

Imported (once) by :mod:`repro.protocols`. The ``tcache-detector`` /
``multiversion`` / ``ttl`` / ``plain`` constructors pass exactly the
arguments the paper's evaluation gives those caches; the golden digests of
the integration suite hold them to that.
"""

from __future__ import annotations

from repro.cache.base import CacheServer
from repro.cache.ttl import TTLCache
from repro.core.tcache import TCache
from repro.protocols.causal import CausalCache, CausalService
from repro.protocols.locking import LockCoherentCache, LockingService
from repro.protocols.registry import ProtocolSpec, register_protocol
from repro.protocols.verified import (
    DEFAULT_FRESHNESS,
    VerifiedReadCache,
    VerifiedReadService,
)

__all__ = ["register_builtins"]


def _build_tcache(sim, database, edge, service):
    return TCache(
        sim,
        database,
        strategy=edge.strategy,
        capacity=edge.cache_capacity,
        deplist_limit=edge.deplist_limit,
        name=edge.name,
    )


def _build_multiversion(sim, database, edge, service):
    from repro.core.multiversion import MultiversionTCache

    return MultiversionTCache(
        sim,
        database,
        capacity=edge.cache_capacity,
        deplist_limit=edge.deplist_limit,
        name=edge.name,
    )


def _build_ttl(sim, database, edge, service):
    return TTLCache(sim, database, ttl=edge.ttl, capacity=edge.cache_capacity, name=edge.name)


def _build_plain(sim, database, edge, service):
    return CacheServer(sim, database, capacity=edge.cache_capacity, name=edge.name)


def _build_causal(sim, database, edge, service):
    return CausalCache(
        sim, database, service=service, capacity=edge.cache_capacity, name=edge.name
    )


def _build_verified(sim, database, edge, service):
    return VerifiedReadCache(
        sim,
        database,
        service=service,
        freshness=edge.ttl if edge.ttl is not None else DEFAULT_FRESHNESS,
        capacity=edge.cache_capacity,
        name=edge.name,
    )


def _build_locking(sim, database, edge, service):
    return LockCoherentCache(
        sim, database, service=service, capacity=edge.cache_capacity, name=edge.name
    )


def register_builtins() -> None:
    register_protocol(
        ProtocolSpec(
            name="tcache-detector",
            family="detector",
            description="The paper's T-Cache dependency detector (§III) with "
            "its ABORT/EVICT/RETRY strategies — the incumbent.",
            build_cache=_build_tcache,
        )
    )
    register_protocol(
        ProtocolSpec(
            name="multiversion",
            family="detector",
            description="Multiversion T-Cache: RETRY strategy over a short "
            "per-key version history.",
            build_cache=_build_multiversion,
        )
    )
    register_protocol(
        ProtocolSpec(
            name="ttl",
            family="best-effort",
            description="Plain TTL cache: bounded staleness, no detection.",
            build_cache=_build_ttl,
            requires_ttl=True,
        )
    )
    register_protocol(
        ProtocolSpec(
            name="plain",
            family="best-effort",
            description="Invalidation-only cache with no consistency checks.",
            build_cache=_build_plain,
        )
    )
    register_protocol(
        ProtocolSpec(
            name="causal",
            family="causal",
            description="Per-session causal floors with client migration "
            "between edges (CausalMesh-style); refreshes instead of aborting.",
            build_cache=_build_causal,
            backend_service=CausalService,
        )
    )
    register_protocol(
        ProtocolSpec(
            name="verified-read",
            family="verified",
            description="Backend-signed version proofs with a freshness "
            "bound, HMAC-verified before every serve (TransEdge-style).",
            build_cache=_build_verified,
            backend_service=VerifiedReadService,
        )
    )
    register_protocol(
        ProtocolSpec(
            name="locking",
            family="pessimistic",
            description="Shared/exclusive coherence over the wound-wait "
            "LockManager: serializable reads, backend round trip per read.",
            build_cache=_build_locking,
            backend_service=LockingService,
            zero_inconsistency=True,
        )
    )

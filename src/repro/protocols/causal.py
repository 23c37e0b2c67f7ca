"""Causally consistent edge caching with client migration (CausalMesh-style).

Each backend gets one :class:`CausalService` shared by every edge reading
from it. Client sessions are modelled as equivalence classes of transaction
ids (``txn_id % sessions``); because the mapping ignores which edge issued
the id, a session's reads land on different edges over its lifetime — that
is the client-migration scenario CausalMesh targets, where a client's
causal context must follow it from edge to edge.

Per session the service keeps a *causal floor*: for every key, the highest
version the session has depended on (either by reading it or by reading a
value whose dependency list references it). A cached entry older than the
session's floor for its key would violate causality — "read your
dependencies" — so the cache refuses to serve it and reads through to the
backend instead (counted in ``causal_rejections`` and, as a backend round
trip, in ``stats.retries``). The protocol never aborts: causal consistency
is enforced by refreshing, not refusing, so its cost surfaces as backend
load and read latency rather than abort rate.

``served_below_floor`` is a self-check counter: it records any serve whose
version is still below the pre-read floor (impossible while the backend
returns the newest committed version, since floors only ever reference
committed versions). The property suite asserts it stays zero.
"""

from __future__ import annotations

from repro.cache.base import CacheServer
from repro.errors import ConfigurationError
from repro.types import (
    Key,
    ReadOnlyTransactionRecord,
    TxnId,
    Version,
    VersionedValue,
)

__all__ = ["CausalService", "CausalCache", "DEFAULT_SESSIONS"]

#: Number of virtual client sessions per backend. Transaction ids from all
#: edges fold into this many sessions, so most sessions are served by more
#: than one edge over a run (migration).
DEFAULT_SESSIONS = 32


class CausalService:
    """Per-backend session registry holding each session's causal floor."""

    def __init__(self, sim, database, *, sessions: int = DEFAULT_SESSIONS) -> None:
        if sessions < 1:
            raise ConfigurationError(f"sessions must be >= 1, got {sessions}")
        self._sim = sim
        self.sessions = sessions
        self.namespace: str | None = getattr(database, "namespace", None)
        #: ``floors[session][key]`` — the minimum version of ``key`` the
        #: session may still be served.
        self.floors: list[dict[Key, Version]] = [{} for _ in range(sessions)]
        self._last_edge: dict[int, str] = {}
        #: Sessions observed moving between edges mid-run.
        self.migrations = 0

    def session_for(self, txn_id: TxnId) -> int:
        return txn_id % self.sessions

    def observe_edge(self, session: int, edge_name: str) -> None:
        """Track which edge served the session last, counting migrations."""
        previous = self._last_edge.get(session)
        if previous is not None and previous != edge_name:
            self.migrations += 1
        self._last_edge[session] = edge_name


class CausalCache(CacheServer):
    """Edge cache that never serves a read below its session's floor."""

    def __init__(self, sim, backend, *, service: CausalService, capacity=None, name="causal-cache"):
        super().__init__(sim, backend, capacity=capacity, name=name)
        self._service = service
        #: Cached entries refused because they sat below the causal floor.
        self.causal_rejections = 0
        #: Serves that would still have violated the floor after refresh;
        #: asserted zero by the property suite.
        self.served_below_floor = 0

    # ------------------------------------------------------------------
    # Consistency hook
    # ------------------------------------------------------------------

    def _check_read(
        self,
        txn_id: TxnId,
        record: ReadOnlyTransactionRecord,
        entry: VersionedValue,
    ) -> tuple[VersionedValue, bool]:
        service = self._service
        session = service.session_for(txn_id)
        service.observe_edge(session, self.name)
        floor = service.floors[session]
        key = entry.key
        required = floor.get(key, 0)
        retried = False
        if entry.version < required:
            self.causal_rejections += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(
                    self._sim.now,
                    "protocol",
                    "floor_refuse",
                    {
                        "cache": self.name,
                        "session": session,
                        "key": key,
                        "cached_version": entry.version,
                        "floor": required,
                    },
                )
                tracer.metrics.count("protocol.floor_refusals")
            entry = self._read_through(key)
            retried = True
        if entry.version < required:  # self-check; must be unreachable
            self.served_below_floor += 1
        # Fold the serve and its dependency list into the session's floor:
        # everything this value causally depends on is now part of the
        # session's history, wherever the session reads next.
        if entry.version > required:
            floor[key] = entry.version
        for dep in entry.deps:
            if dep.version > floor.get(dep.key, 0):
                floor[dep.key] = dep.version
        return entry, retried

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _read_through(self, key: Key) -> VersionedValue:
        self.stats.retries += 1
        entry = self._backend.read_entry(key)
        self.storage.put(entry, self._sim.now)
        return entry

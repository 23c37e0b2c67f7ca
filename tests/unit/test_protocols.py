"""Unit tests for the protocol registry and the three zoo protocols."""

from __future__ import annotations

import pytest

from repro.cache.base import CacheServer
from repro.core.tcache import TCache
from repro.db.invalidation import InvalidationRecord
from repro.dispatch.journal import sweep_fingerprint
from repro.errors import ConfigurationError, TransactionAborted
from repro.experiments.config import ColumnConfig
from repro.experiments.sweep import SweepPoint, SweepSpec
from repro.protocols import (
    CausalCache,
    CausalService,
    LockCoherentCache,
    LockingService,
    ProtocolSpec,
    VerifiedReadCache,
    VerifiedReadService,
    get_protocol,
    protocol_for_edge,
    protocol_names,
    register_protocol,
)
from repro.protocols import registry as registry_module
from repro.scenario.spec import EdgeSpec, ScenarioSpec
from repro.sim.core import Simulator
from repro.workloads.synthetic import PerfectClusterWorkload
from tests.helpers import FakeBackend

WORKLOAD = PerfectClusterWorkload(n_objects=50, cluster_size=5)


def edge(**overrides) -> EdgeSpec:
    defaults = dict(name="edge0", workload=WORKLOAD)
    defaults.update(overrides)
    return EdgeSpec(**defaults)


class ListenedBackend(FakeBackend):
    """FakeBackend plus the commit-listener surface backend services need."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._listeners = []

    def add_commit_listener(self, listener) -> None:
        self._listeners.append(listener)

    def commit(self, keys, value=None):
        txn = super().commit(keys, value)
        for listener in self._listeners:
            listener(txn)
        return txn


class TestRegistry:
    def test_builtins_registered(self) -> None:
        names = protocol_names()
        for expected in (
            "tcache-detector",
            "multiversion",
            "ttl",
            "plain",
            "causal",
            "verified-read",
            "locking",
        ):
            assert expected in names

    def test_unknown_name_lists_registered(self) -> None:
        with pytest.raises(ConfigurationError) as excinfo:
            get_protocol("paxos")
        message = str(excinfo.value)
        assert "paxos" in message
        assert "tcache-detector" in message and "locking" in message

    def test_duplicate_registration_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="already registered"):
            register_protocol(get_protocol("causal"))

    def test_custom_registration_resolves(self) -> None:
        spec = ProtocolSpec(
            name="unit-test-protocol",
            family="test",
            description="registered by the unit suite",
            build_cache=lambda sim, db, edge_spec, service: CacheServer(
                sim, db, name=edge_spec.name
            ),
        )
        try:
            assert register_protocol(spec) is spec
            assert get_protocol("unit-test-protocol") is spec
        finally:
            registry_module._REGISTRY.pop("unit-test-protocol")

    def test_protocol_for_edge_defaults_to_cache_kind(self) -> None:
        """A v1 payload that names no protocol runs its ``cache_kind``'s."""

        def loaded(kind: str, **overrides) -> EdgeSpec:
            payload = edge(**overrides).as_dict()
            payload.update(cache_kind=kind, protocol=None)
            return EdgeSpec.from_dict(payload)

        assert protocol_for_edge(edge()).name == "tcache-detector"
        assert protocol_for_edge(loaded("TCACHE")).name == "tcache-detector"
        assert protocol_for_edge(loaded("PLAIN")).name == "plain"
        assert protocol_for_edge(loaded("TTL", ttl=1.0)).name == "ttl"
        assert protocol_for_edge(loaded("MULTIVERSION")).name == "multiversion"

    def test_explicit_protocol_overrides_cache_kind(self) -> None:
        """...and one that names both runs the protocol, as the runtime did."""
        payload = edge().as_dict()
        payload.update(cache_kind="PLAIN", protocol="locking")
        spec = protocol_for_edge(EdgeSpec.from_dict(payload))
        assert spec.name == "locking"
        assert spec.zero_inconsistency is True

    def test_empty_name_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="non-empty"):
            ProtocolSpec(
                name="",
                family="test",
                description="",
                build_cache=lambda *a: None,
            )


class TestEdgeSpecIntegration:
    def test_unknown_protocol_fails_at_construction(self) -> None:
        with pytest.raises(ConfigurationError) as excinfo:
            edge(protocol="made-up")
        assert "made-up" in str(excinfo.value)
        assert "registered protocols" in str(excinfo.value)

    def test_protocol_round_trips_through_json(self) -> None:
        original = edge(protocol="verified-read", ttl=0.25)
        rebuilt = EdgeSpec.from_dict(original.as_dict())
        assert rebuilt.protocol == "verified-read"
        assert rebuilt.ttl == 0.25

    def test_legacy_payload_without_protocol_key(self) -> None:
        payload = edge().as_dict()
        payload.pop("protocol")
        assert EdgeSpec.from_dict(payload).protocol == "tcache-detector"

    def test_unknown_cache_kind_lists_valid_names(self) -> None:
        payload = edge().as_dict()
        payload["cache_kind"] = "QUANTUM"
        with pytest.raises(ConfigurationError) as excinfo:
            EdgeSpec.from_dict(payload)
        message = str(excinfo.value)
        assert "QUANTUM" in message
        assert "TCACHE" in message and "MULTIVERSION" in message

    def test_unknown_strategy_lists_valid_names(self) -> None:
        payload = edge().as_dict()
        payload["strategy"] = "PANIC"
        with pytest.raises(ConfigurationError) as excinfo:
            EdgeSpec.from_dict(payload)
        message = str(excinfo.value)
        assert "PANIC" in message
        assert "ABORT" in message and "RETRY" in message

    def test_unknown_protocol_in_payload_lists_registered(self) -> None:
        payload = edge().as_dict()
        payload["protocol"] = "gossip"
        with pytest.raises(ConfigurationError) as excinfo:
            EdgeSpec.from_dict(payload)
        assert "gossip" in str(excinfo.value)

    def test_ttl_protocol_requires_ttl(self) -> None:
        with pytest.raises(ConfigurationError, match="positive ttl"):
            edge(protocol="ttl")

    def test_builders_match_historical_kinds(self, sim: Simulator) -> None:
        backend = FakeBackend({"a": "a0"})
        built = get_protocol("tcache-detector").build_cache(
            sim, backend, edge(deplist_limit=3), None
        )
        assert isinstance(built, TCache)
        assert built.deplist_limit == 3
        assert built.name == "edge0"


class TestOneSelector:
    """``protocol`` is the only cache selector, and the registry — not the
    spec modules — says what each protocol needs of the spec naming it."""

    def test_deplist_limit_needs_a_protocol_that_consults_deplists(self) -> None:
        with pytest.raises(ConfigurationError, match="deplist_limit.*'plain'"):
            edge(protocol="plain", deplist_limit=2)
        for name in protocol_names():
            if get_protocol(name).consults_deplists:
                assert edge(protocol=name, deplist_limit=2).deplist_limit == 2
            else:
                with pytest.raises(ConfigurationError, match=repr(name)):
                    edge(protocol=name, ttl=1.0, deplist_limit=2)

    def test_ttl_requirement_names_the_protocol(self) -> None:
        with pytest.raises(ConfigurationError, match="'ttl' requires a positive ttl"):
            edge(protocol="ttl")
        with pytest.raises(ConfigurationError, match="'ttl' requires a positive ttl"):
            ColumnConfig(protocol="ttl")
        assert ColumnConfig(protocol="ttl", ttl=0.5).ttl == 0.5

    def test_column_config_names_any_registered_protocol(self) -> None:
        assert ColumnConfig(protocol="locking").protocol == "locking"
        with pytest.raises(ConfigurationError, match="registered protocols"):
            ColumnConfig(protocol="made-up")

    def test_naming_the_default_changes_nothing(self) -> None:
        implicit, explicit = edge(), edge(protocol="tcache-detector")
        assert implicit.as_dict() == explicit.as_dict()

        def one_point(only: EdgeSpec) -> SweepSpec:
            scenario = ScenarioSpec(name="s", edges=[only], duration=1.0)
            return SweepSpec(name="x", points=[SweepPoint(label="p", scenario=scenario)])

        assert sweep_fingerprint(one_point(implicit)) == sweep_fingerprint(
            one_point(explicit)
        )

    def test_no_constructor_accepts_cache_kind(self) -> None:
        with pytest.raises(TypeError, match="cache_kind"):
            edge(cache_kind="PLAIN")
        with pytest.raises(TypeError, match="cache_kind"):
            ColumnConfig(cache_kind="PLAIN")


class TestCausalProtocol:
    def test_refuses_read_below_session_floor(self, sim: Simulator) -> None:
        backend = FakeBackend({"a": "a0", "b": "b0"})
        service = CausalService(sim, backend, sessions=1)
        cache = CausalCache(sim, backend, service=service)
        cache.read(1, "a", last_op=True)  # caches a@0, floor a>=0
        backend.commit(["a", "b"])  # a,b -> 1; cache keeps stale a@0
        # Reading b misses and serves b@1, whose deps pull a@1 into the floor.
        cache.read(2, "b", last_op=True)
        result = cache.read(3, "a", last_op=True)
        assert result.version == 1
        assert cache.causal_rejections == 1
        assert cache.served_below_floor == 0

    def test_sessions_span_caches_on_one_backend(self, sim: Simulator) -> None:
        backend = FakeBackend({"a": "a0", "b": "b0"})
        service = CausalService(sim, backend, sessions=1)
        east = CausalCache(sim, backend, service=service, name="east")
        west = CausalCache(sim, backend, service=service, name="west")
        east.read(1, "a", last_op=True)
        backend.commit(["a", "b"])
        east.read(2, "b", last_op=True)  # east learns a@1 via deps
        # West has stale a@0 cached? No — west never read a. Prime it stale:
        # serve the session at west; the shared floor forbids a@0 anywhere.
        west.read(3, "a", last_op=True)
        assert west.storage.version_of("a") == 1
        assert service.migrations >= 1

    def test_never_aborts(self, sim: Simulator) -> None:
        backend = FakeBackend({"a": "a0"})
        service = CausalService(sim, backend, sessions=2)
        cache = CausalCache(sim, backend, service=service)
        for txn in range(1, 20):
            backend.commit(["a"])
            cache.read(txn, "a", last_op=True)
        assert cache.stats.transactions_aborted == 0

    def test_session_count_validated(self, sim: Simulator) -> None:
        with pytest.raises(ConfigurationError, match="sessions"):
            CausalService(sim, FakeBackend(), sessions=0)


class TestVerifiedReadProtocol:
    def test_every_serve_is_verified(self, sim: Simulator) -> None:
        backend = FakeBackend({"a": "a0"})
        service = VerifiedReadService(sim, backend)
        cache = VerifiedReadCache(sim, backend, service=service, freshness=10.0)
        cache.read(1, "a", last_op=True)
        cache.read(2, "a", last_op=True)
        assert cache.signatures_verified == 2
        assert cache.signature_failures == 0
        assert service.signatures_issued == 1  # one proof covers both

    def test_expired_proof_forces_resign(self, sim: Simulator) -> None:
        backend = FakeBackend({"a": "a0"})
        service = VerifiedReadService(sim, backend)
        cache = VerifiedReadCache(sim, backend, service=service, freshness=0.5)
        cache.read(1, "a", last_op=True)
        sim.schedule(1.0, lambda _: None, None)
        sim.run()  # advance past the freshness bound
        result = cache.read(2, "a", last_op=True)
        assert result.retried is True
        assert cache.proof_refreshes == 1
        assert service.signatures_issued == 2

    def test_invalidation_drops_proof(self, sim: Simulator) -> None:
        backend = FakeBackend({"a": "a0"})
        service = VerifiedReadService(sim, backend)
        cache = VerifiedReadCache(sim, backend, service=service, freshness=10.0)
        cache.read(1, "a", last_op=True)
        backend.commit(["a"])
        cache.handle_invalidation(
            InvalidationRecord(key="a", version=1, txn_id=1, commit_time=0.0)
        )
        result = cache.read(2, "a", last_op=True)
        assert result.version == 1
        assert cache.signature_failures == 0

    def test_tampered_mac_detected(self, sim: Simulator) -> None:
        backend = FakeBackend({"a": "a0"})
        service = VerifiedReadService(sim, backend)
        assert service.verify("a", 0, 0.0, "not-a-real-mac") is False
        assert service.verify("a", 0, 0.0, None) is False
        mac = service.sign("a", 0, 0.0)
        assert service.verify("a", 0, 0.0, mac) is True
        assert service.verify("a", 1, 0.0, mac) is False

    def test_freshness_validated(self, sim: Simulator) -> None:
        with pytest.raises(ConfigurationError, match="freshness"):
            VerifiedReadCache(
                sim,
                FakeBackend(),
                service=VerifiedReadService(sim, FakeBackend()),
                freshness=0.0,
            )


class TestLockingProtocol:
    def test_reads_always_current(self, sim: Simulator) -> None:
        backend = ListenedBackend({"a": "a0"})
        service = LockingService(sim, backend)
        cache = LockCoherentCache(sim, backend, service=service)
        cache.read(1, "a", last_op=True)
        backend.commit(["a"])
        sim.schedule(1.0, lambda _: None, None)
        sim.run()  # deliver wounds and advance past the validation stamp
        result = cache.read(2, "a", last_op=True)
        assert result.version == 1
        assert cache.validation_refreshes == 1

    def test_overwritten_read_set_wounds_the_reader(self, sim: Simulator) -> None:
        backend = ListenedBackend({"a": "a0", "b": "b0"})
        service = LockingService(sim, backend)
        cache = LockCoherentCache(sim, backend, service=service)
        cache.read(5, "a")  # open txn holds S(a)
        backend.commit(["a"])  # writer X(a) wounds txn 5
        sim.run()
        with pytest.raises(TransactionAborted):
            cache.read(5, "b", last_op=True)
        assert cache.wound_aborts == 1
        assert cache.stats.transactions_aborted == 1

    def test_commit_releases_locks(self, sim: Simulator) -> None:
        backend = ListenedBackend({"a": "a0"})
        service = LockingService(sim, backend)
        cache = LockCoherentCache(sim, backend, service=service)
        cache.read(9, "a", last_op=True)
        assert service.locks.holders("a") == {}
        assert cache.stats.transactions_committed == 1

    def test_writers_never_blocked_by_readers(self, sim: Simulator) -> None:
        backend = ListenedBackend({"a": "a0"})
        service = LockingService(sim, backend)
        cache = LockCoherentCache(sim, backend, service=service)
        cache.read(3, "a")  # reader holds S(a) in an open txn
        backend.commit(["a"])  # must not deadlock or queue forever
        assert service.write_locks_replayed == 1
        assert backend.version_of("a") == 1

"""Property-based tests for the protocol zoo's headline guarantees.

Randomized fleets (seeds, loss rates, update rates, edge counts) are run
end to end through the scenario harness; each protocol's defining property
must hold on every draw:

* ``locking`` — validated reads + S-locks-to-commit + wounding writers make
  committed read sets serializable, so the omniscient monitor must record
  **zero** inconsistent transactions;
* ``causal`` — a cache never serves a version below its session's
  dependency floor (the ``served_below_floor`` self-check stays zero);
* ``verified-read`` — every serve carries a MAC that verifies against the
  backend service's secret (``signature_failures`` stays zero, and every
  serve was checked).

Plus one property of the selector itself: over every registered protocol,
an edge spec constructs exactly when the registry says its options fit, and
what constructs round-trips through the v1 wire format.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.protocols import get_protocol, protocol_names
from repro.scenario.runner import build_scenario, run_scenario
from repro.scenario.spec import EdgeSpec, ScenarioSpec
from repro.workloads.synthetic import PerfectClusterWorkload

WORKLOAD = PerfectClusterWorkload(n_objects=60, cluster_size=5)


def fleet_spec(protocol: str, seed: int, losses, update_rate: float) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"props-{protocol}",
        seed=seed,
        duration=1.5,
        warmup=0.3,
        edges=[
            EdgeSpec(
                name=f"edge{i}",
                workload=WORKLOAD,
                protocol=protocol,
                update_rate=update_rate,
                read_rate=400.0,
                invalidation_loss=loss,
            )
            for i, loss in enumerate(losses)
        ],
    )


fleet_draws = st.tuples(
    st.integers(min_value=1, max_value=10_000),
    st.lists(
        st.floats(min_value=0.0, max_value=0.9), min_size=1, max_size=3
    ),
    st.floats(min_value=20.0, max_value=300.0),
)


class TestLockingProperty:
    @given(fleet_draws)
    @settings(max_examples=15, deadline=None)
    def test_zero_inconsistencies(self, draw) -> None:
        seed, losses, update_rate = draw
        result = run_scenario(fleet_spec("locking", seed, losses, update_rate))
        assert result.fleet.inconsistency_ratio == 0.0
        for edge in result.spec.edges:
            assert result.edge(edge.name).inconsistency_ratio == 0.0


class TestCausalProperty:
    @given(fleet_draws)
    @settings(max_examples=15, deadline=None)
    def test_never_serves_below_the_floor(self, draw) -> None:
        seed, losses, update_rate = draw
        scenario = build_scenario(
            fleet_spec("causal", seed, losses, update_rate)
        )
        scenario.sim.run(until=1.5)
        for edge in scenario.edges:
            assert edge.cache.served_below_floor == 0


class TestVerifiedReadProperty:
    @given(fleet_draws)
    @settings(max_examples=15, deadline=None)
    def test_every_serve_verifies(self, draw) -> None:
        seed, losses, update_rate = draw
        scenario = build_scenario(
            fleet_spec("verified-read", seed, losses, update_rate)
        )
        scenario.sim.run(until=1.5)
        for edge in scenario.edges:
            assert edge.cache.signature_failures == 0
            assert edge.cache.signatures_verified >= edge.cache.stats.hits


class TestSelectorProperty:
    @given(
        st.sampled_from(protocol_names()),
        st.one_of(st.none(), st.floats(min_value=-1.0, max_value=5.0)),
        st.one_of(st.none(), st.integers(min_value=-2, max_value=8)),
    )
    @settings(max_examples=200, deadline=None)
    def test_construction_follows_the_registry_and_round_trips(
        self, name, ttl, deplist_limit
    ) -> None:
        protocol = get_protocol(name)
        fits = not (protocol.requires_ttl and (ttl is None or ttl <= 0)) and (
            deplist_limit is None
            or (protocol.consults_deplists and deplist_limit >= 0)
        )
        options = dict(
            name="edge0",
            workload=WORKLOAD,
            protocol=name,
            ttl=ttl,
            deplist_limit=deplist_limit,
        )
        if not fits:
            with pytest.raises(ConfigurationError):
                EdgeSpec(**options)
            return
        edge = EdgeSpec(**options)
        payload = edge.as_dict()
        assert payload["cache_kind"] == "TCACHE" or payload["protocol"] is None
        rebuilt = EdgeSpec.from_dict(payload)
        assert rebuilt.protocol == name
        assert rebuilt.as_dict() == payload

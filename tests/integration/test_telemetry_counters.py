"""The ``repro.telemetry/1`` counters of every registered protocol, pinned.

One small traced scenario per protocol: a capacity-bounded cache (so it
evicts), an invalidation outage window (so the channel drops) and a ``ttl``
(so entries expire and proofs go stale). Its snapshot hash is recorded, together
with the set of counter names that at least one run reaches. The snapshot is
a view of the trace records, so any counter that moves without its record
moving — or a record that stops feeding its counter — breaks a digest.

A counter no seeded run reaches is pinned in ``tests/unit/test_telemetry.py``,
which feeds hand-built records to the derivation. Runs happen in a child
interpreter with ``PYTHONHASHSEED=0``, as ``TestKernelTraceGolden`` does and
for its reason.
"""

from __future__ import annotations

import pytest

from repro import protocol_names
from repro.experiments.sweep import SweepPoint, SweepSpec, run_sweep
from repro.scenario.spec import EdgeSpec, ScenarioSpec
from repro.workloads.synthetic import PerfectClusterWorkload
from tests.helpers import canonical_sha256, json_from_child

PROTOCOLS = (
    "causal",
    "locking",
    "multiversion",
    "plain",
    "tcache-detector",
    "ttl",
    "verified-read",
)


def _scenario(protocol: str) -> ScenarioSpec:
    edge = EdgeSpec(
        name="edge0",
        workload=PerfectClusterWorkload(n_objects=60, cluster_size=5),
        protocol=protocol,
        # The expiry of ``ttl`` and the proof freshness of ``verified-read``;
        # the other protocols ignore it.
        ttl=0.2,
        cache_capacity=30,
        read_rate=200.0,
        update_rate=60.0,
        invalidation_outages=((0.4, 0.6),),
    )
    return ScenarioSpec(
        name=f"counters/{protocol}", edges=[edge], seed=5, duration=0.6, warmup=0.2
    )


def _protocol_snapshots() -> dict[str, object]:
    """Every protocol's traced snapshot digest, plus the counters reached."""
    spec = SweepSpec(
        name="counters",
        points=[
            SweepPoint(label=protocol, scenario=_scenario(protocol), trace=True)
            for protocol in PROTOCOLS
        ],
    )
    sweep = run_sweep(spec, jobs=1)
    reached: set[str] = set()
    digests = {}
    for point, result in sweep.pairs():
        counters = result.telemetry["counters"]
        reached.update(name for name, value in counters.items() if value)
        digests[point.label] = canonical_sha256(result.telemetry)
    return {"digests": digests, "reached": sorted(reached)}


_CHILD: dict[str, object] = {}


def child_snapshots() -> dict[str, object]:
    if not _CHILD:
        _CHILD.update(
            json_from_child(
                "tests.integration.test_telemetry_counters", "_protocol_snapshots"
            )
        )
    return _CHILD


#: Recorded at 948692c, the last commit that booked each counter by hand
#: beside its trace record.
GOLDEN = {
    "causal": "bcb3f4af263e214f1e622c4787cb1abe32c47d824376c7eb4a61be83e7595359",
    "locking": "a5e58c0a223fd33ea169fb5b308da221652833a5e5933ecd0bd9024356a04b82",
    "multiversion": "9bdcd13d53840c11e1d5c0c4de98c08bcf05127cfbc50ba1caabdb38d730dab7",
    "plain": "64d84d7dc4dc7666feea70d8a56e4312bfafb3bb204ce3bf9102182184a8e65c",
    "tcache-detector": "495617198d6f39a9c7f52f9ab920664c7f2c900646967dc2775dc3088cdc7457",
    "ttl": "cdad797f3b9331cbc541d8ecb3d203235397b48d3f68285da2c53ffa037aa1d9",
    "verified-read": "7ca8a9cc6611c87fdcce04cd2b35f8ae5e700cc536ba9aa02fc68a05948a5a63",
}

#: Every counter but ``protocol.proof_verify_failures`` (a MAC that fails
#: to verify is a wiring bug; ``test_telemetry.py`` feeds it by hand).
REACHED = [
    "cache.capacity_evictions",
    "cache.fetches",
    "cache.hits",
    "cache.invalidations_applied",
    "cache.invalidations_ignored",
    "cache.misses",
    "cache.ttl_expirations",
    "cache.txn_aborted",
    "cache.txn_committed",
    "channel.delivered",
    "channel.drops",
    "channel.outage_drops",
    "db.commits",
    "db.entry_reads",
    "protocol.floor_refusals",
    "protocol.proof_refreshes",
    "protocol.wound_aborts",
    "sgt.aborted_necessary",
    "sgt.aborted_unnecessary",
    "sgt.consistent",
    "sgt.inconsistent",
    "sgt.update_commits",
    "sim.events_dispatched",
    "sim.process_resumes",
]


def test_every_registered_protocol_is_pinned() -> None:
    assert set(PROTOCOLS) == set(protocol_names())


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_snapshot_matches_the_recorded_bytes(protocol: str) -> None:
    assert child_snapshots()["digests"][protocol] == GOLDEN[protocol]


def test_reached_counters() -> None:
    assert child_snapshots()["reached"] == REACHED

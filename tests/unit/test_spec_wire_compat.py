"""The v1 wire format of a cache selector, held against recorded bytes.

``protocol`` is the only way to pick a cache, but payloads written before
1.6.0 spell it as a ``cache_kind`` / ``protocol`` key pair, and every
``--json`` artifact, sweep fingerprint and fleet-journal header recorded
since depends on that spelling. ``tests/data/spec_wire_v1.json`` was
recorded at commit 288d641 — the last one that had a ``CacheKind`` enum —
and holds, for four sweeps, the ``spec_artifact`` payload, the
``sweep_fingerprint`` and the ``SweepJournal`` header line:

* ``fig7d`` — ``fig7_realistic.ttl_spec(duration=0.5)``: PLAIN and TTL
  columns. Its graph-backed workloads are not portable (``workload_spec:
  null``), so neither commit can rebuild it from JSON; the live builder is
  compared with the recording instead, and its configs round-trip alone.
* ``scenario`` — one scenario point: a detector edge with a
  ``deplist_limit`` beside a TTL edge.
* ``protocol-race`` — ``protocol_race.spec(protocols=("causal", "locking",
  "verified-read"), duration=1.0)``.
* ``multiversion`` — one MULTIVERSION column.

If a change here is ever *intended* (the alias dropped, a key renamed),
re-record the fixture in the same commit and say so: every journal on disk
stops resuming at that commit.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.dispatch.journal import SweepJournal, sweep_fingerprint
from repro.errors import ConfigurationError
from repro.experiments import fig7_realistic
from repro.experiments.sweep import (
    SweepSpec,
    config_as_dict,
    config_from_dict,
    spec_artifact,
)
from repro.scenario.spec import EdgeSpec

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "data", "spec_wire_v1.json")
PORTABLE = ("scenario", "protocol-race", "multiversion")


def ordered(payload: object) -> str:
    """Key-for-key, in order: ``json.dumps`` keeps insertion order."""
    return json.dumps(payload)


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)["sweeps"]


def replay_header(tmp_path, record: dict):
    path = tmp_path / "recorded.jsonl"
    path.write_text(record["journal_header"] + "\n", encoding="utf-8")
    return SweepJournal.replay(str(path))


class TestRecordedSweeps:
    @pytest.mark.parametrize("name", PORTABLE)
    def test_payload_round_trips_key_for_key(self, recorded, name) -> None:
        payload = recorded[name]["payload"]
        assert ordered(spec_artifact(SweepSpec.from_dict(payload))) == ordered(payload)

    @pytest.mark.parametrize("name", PORTABLE)
    def test_fingerprint_holds(self, recorded, name) -> None:
        spec = SweepSpec.from_dict(recorded[name]["payload"])
        assert sweep_fingerprint(spec) == recorded[name]["fingerprint"]

    @pytest.mark.parametrize("name", PORTABLE)
    def test_journal_header_rebuilds(self, recorded, name, tmp_path) -> None:
        replayed = replay_header(tmp_path, recorded[name])
        assert replayed.fingerprint == recorded[name]["fingerprint"]
        rebuilt = replayed.rebuild_artifact()  # raises unless it hashes back
        assert ordered(rebuilt) == ordered(recorded[name]["payload"])

    def test_fig7d_builder_matches_the_recording(self, recorded, tmp_path) -> None:
        record = recorded["fig7d"]
        spec = fig7_realistic.ttl_spec(duration=0.5)
        assert ordered(spec_artifact(spec)) == ordered(record["payload"])
        assert sweep_fingerprint(spec) == record["fingerprint"]
        replayed = replay_header(tmp_path, record)
        assert replayed.fingerprint == record["fingerprint"]
        assert ordered(replayed.spec_payload) == ordered(record["payload"])

    def test_fig7d_configs_round_trip(self, recorded) -> None:
        columns = recorded["fig7d"]["payload"]["columns"]
        configs = [column["config"] for column in columns]
        assert {config["cache_kind"] for config in configs} == {"PLAIN", "TTL"}
        for config in configs:
            assert "protocol" not in config
            assert ordered(config_as_dict(config_from_dict(config))) == ordered(config)

    def test_every_v1_kind_is_covered(self, recorded) -> None:
        text = json.dumps(recorded)
        for kind in ("TCACHE", "PLAIN", "TTL", "MULTIVERSION"):
            assert f'"cache_kind": "{kind}"' in text
        for protocol in ("causal", "locking", "verified-read"):
            pair = f'"cache_kind": "TCACHE", "strategy": "ABORT", "protocol": "{protocol}"'
            assert pair in text


class TestLegacyPayloads:
    @pytest.fixture
    def edge_payload(self, recorded) -> dict:
        scenario = recorded["scenario"]["payload"]["columns"][0]["scenario"]
        return dict(scenario["edges"][0])

    def test_protocol_wins_when_both_keys_are_set(self, edge_payload) -> None:
        edge_payload.update(cache_kind="PLAIN", protocol="locking", deplist_limit=None)
        assert EdgeSpec.from_dict(edge_payload).protocol == "locking"

    def test_column_config_accepts_both_keys(self, recorded) -> None:
        config = dict(recorded["multiversion"]["payload"]["columns"][0]["config"])
        assert config_from_dict(config).protocol == "multiversion"
        config["protocol"] = "locking"
        loaded = config_from_dict(config)
        assert loaded.protocol == "locking"
        emitted = config_as_dict(loaded)
        assert (emitted["cache_kind"], emitted["protocol"]) == ("TCACHE", "locking")
        # ...and the pair sits where ``cache_kind`` always sat.
        keys = list(emitted)
        after_strategy = keys[keys.index("strategy") + 1 :]
        assert after_strategy[:3] == ["cache_kind", "protocol", "ttl"]

    def test_payload_with_neither_key_runs_the_default(self, edge_payload) -> None:
        del edge_payload["cache_kind"], edge_payload["protocol"]
        assert EdgeSpec.from_dict(edge_payload).protocol == "tcache-detector"

    def test_unknown_cache_kind_lists_valid_names(self, edge_payload, recorded) -> None:
        edge_payload["cache_kind"] = "QUANTUM"
        with pytest.raises(ConfigurationError) as excinfo:
            EdgeSpec.from_dict(edge_payload)
        message = str(excinfo.value)
        assert "QUANTUM" in message
        for kind in ("TCACHE", "PLAIN", "TTL", "MULTIVERSION"):
            assert kind in message
        config = dict(recorded["multiversion"]["payload"]["columns"][0]["config"])
        config["cache_kind"] = "QUANTUM"
        with pytest.raises(ConfigurationError, match="QUANTUM"):
            config_from_dict(config)

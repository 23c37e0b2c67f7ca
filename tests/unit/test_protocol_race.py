"""Unit tests for the protocol-race experiment (spec, rows, ranking)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments import protocol_race


def make_rows(
    protocols=("alpha", "beta"), scenarios=("s1", "s2", "s3")
) -> list[dict[str, object]]:
    """Synthetic race rows: alpha is perfectly consistent, beta is cheap."""
    rows = []
    for scenario in scenarios:
        for protocol in protocols:
            consistent = protocol == "alpha"
            rows.append(
                {
                    "scenario": scenario,
                    "protocol": protocol,
                    "inconsistency_pct": 0.0 if consistent else 4.5,
                    "abort_pct": 12.0 if consistent else 0.0,
                    "read_latency_ms": 21.0 if consistent else 1.5,
                    "backend_reads_per_s": 900.0 if consistent else 60.0,
                    "hit_pct": 0.0 if consistent else 95.0,
                    "update_commits": 100,
                }
            )
    return rows


class TestSpec:
    def test_grid_is_protocols_times_scenarios(self) -> None:
        sweep = protocol_race.spec(duration=10.0)
        assert len(sweep.points) == 3 * len(protocol_race.RACE_PROTOCOLS)
        labels = [point.label for point in sweep.points]
        assert labels[0] == "hetero-loss/tcache-detector"
        assert labels[-1] == "flash-crowd/locking"
        assert len(set(labels)) == len(labels)

    def test_points_carry_scenario_and_protocol_params(self) -> None:
        sweep = protocol_race.spec(duration=10.0, protocols=("locking",))
        assert [point.params for point in sweep.points] == [
            {"scenario": "hetero-loss", "protocol": "locking"},
            {"scenario": "geo-skew", "protocol": "locking"},
            {"scenario": "flash-crowd", "protocol": "locking"},
        ]

    def test_every_edge_gets_the_protocol(self) -> None:
        sweep = protocol_race.spec(duration=10.0, protocols=("causal",))
        for point in sweep.points:
            assert all(edge.protocol == "causal" for edge in point.scenario.edges)

    def test_scenario_major_layout_keeps_seeds_stable(self) -> None:
        narrow = protocol_race.spec(duration=10.0, protocols=("locking",))
        wide = protocol_race.spec(
            duration=10.0, protocols=("tcache-detector", "locking")
        )
        # locking's hetero-loss point sits in the same scenario block in
        # both fields; the underlying base scenario must be identical.
        narrow_scenario = narrow.points[0].scenario
        wide_scenario = wide.points[1].scenario
        assert narrow_scenario.name == wide_scenario.name
        assert narrow_scenario.seed == wide_scenario.seed

    def test_unknown_protocol_rejected_before_any_run(self) -> None:
        with pytest.raises(ConfigurationError, match="registered protocols"):
            protocol_race.spec(protocols=("tcache-detector", "nope"))

    def test_empty_field_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="at least one"):
            protocol_race.spec(protocols=())


class TestRanking:
    def test_fewest_inconsistencies_wins(self) -> None:
        ranking = protocol_race.ranking_rows(make_rows())
        assert [row["protocol"] for row in ranking] == ["alpha", "beta"]
        assert [row["rank"] for row in ranking] == [1, 2]
        assert ranking[0]["inconsistency_pct"] == 0.0
        assert ranking[0]["scenarios"] == 3

    def test_latency_breaks_ties(self) -> None:
        rows = make_rows()
        for row in rows:
            row["inconsistency_pct"] = 0.0
        ranking = protocol_race.ranking_rows(rows)
        # beta's 1.5 ms beats alpha's 21 ms once inconsistency ties.
        assert [row["protocol"] for row in ranking] == ["beta", "alpha"]

    def test_means_are_across_scenarios(self) -> None:
        rows = make_rows(protocols=("alpha",), scenarios=("s1", "s2"))
        rows[0]["read_latency_ms"] = 10.0
        rows[1]["read_latency_ms"] = 20.0
        ranking = protocol_race.ranking_rows(rows)
        assert ranking[0]["read_latency_ms"] == 15.0

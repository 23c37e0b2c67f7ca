"""Unit tests for experiment configuration and the table renderer."""

from __future__ import annotations

import pytest

from repro.core.deplist import UNBOUNDED
from repro.errors import ConfigurationError
from repro.experiments.config import ColumnConfig
from repro.experiments.report import format_percent, format_table


class TestColumnConfig:
    def test_defaults_match_the_paper(self) -> None:
        config = ColumnConfig()
        assert config.update_rate == 100.0
        assert config.read_rate == 500.0
        assert config.invalidation_loss == 0.2
        assert config.deplist_max == 5

    def test_unbounded_deplist_accepted(self) -> None:
        assert ColumnConfig(deplist_max=UNBOUNDED).deplist_max == UNBOUNDED

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration": 0.0},
            {"duration": -1.0},
            {"warmup": -1.0},
            {"read_rate": 0.0},
            {"invalidation_loss": 1.5},
            {"deplist_max": -2},
            {"protocol": "ttl"},                    # missing ttl
            {"protocol": "ttl", "ttl": 0.0},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs) -> None:
        with pytest.raises(ConfigurationError):
            ColumnConfig(**kwargs)

    def test_total_time(self) -> None:
        assert ColumnConfig(duration=30.0, warmup=5.0).total_time == 35.0


class TestReport:
    def test_format_percent(self) -> None:
        assert format_percent(0.1234) == "12.3%"
        assert format_percent(0.1234, digits=2) == "12.34%"

    def test_table_alignment_and_content(self) -> None:
        rows = [
            {"name": "alpha", "value": 1.23456, "flag": True},
            {"name": "b", "value": 20.0, "flag": False},
        ]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert "alpha" in lines[3]
        assert "1.235" in lines[3]  # four significant digits
        assert "True" in lines[3]

    def test_column_selection_and_order(self) -> None:
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_empty_rows(self) -> None:
        assert "(no rows)" in format_table([], title="t")
        assert format_table([]) == "(no rows)"

    def test_missing_cells_render_empty(self) -> None:
        rows = [{"a": 1}, {"a": 2, "b": "x"}]
        text = format_table(rows, columns=["a", "b"])
        assert "x" in text

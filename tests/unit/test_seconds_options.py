"""Every seconds-valued fleet option takes one rule: ``is_seconds``, > 0
where zero means nothing.

NaN passes ``value <= 0``, so ``--lease-timeout nan`` once served with
leases that never expired, ``--journal-expiry nan`` archived every finished
journal, ``--max-idle nan`` never idled out, ``--connect-timeout nan``
retried forever, and ``--timeout -1`` / ``--fleet-wait-timeout 0`` submitted
a sweep before failing. Each value is refused up front, in the config
object and on the command line.
"""

from __future__ import annotations

import pytest

from repro.dispatch.client import FleetSpec
from repro.dispatch.daemon import FleetConfig
from repro.dispatch.worker import run_worker
from repro.errors import ConfigurationError, DispatchError
from repro.experiments.__main__ import build_parser

BAD = ("nan", "inf", "-1", "0")


@pytest.mark.parametrize("text", BAD)
@pytest.mark.parametrize("field", ["lease_timeout", "poll_interval"])
def test_fleet_config_positive_seconds(field: str, text: str) -> None:
    with pytest.raises(ConfigurationError, match=field):
        FleetConfig(**{field: float(text)})


@pytest.mark.parametrize("text", BAD)
def test_fleet_config_journal_expiry(text: str) -> None:
    if text == "0":  # archive every finished journal
        assert FleetConfig(journal_expiry=0.0).journal_expiry == 0.0
        return
    with pytest.raises(ConfigurationError, match="journal_expiry"):
        FleetConfig(journal_expiry=float(text))


@pytest.mark.parametrize("text", BAD)
@pytest.mark.parametrize("field", ["poll_interval", "connect_timeout", "wait_timeout"])
def test_fleet_spec_positive_seconds(field: str, text: str) -> None:
    with pytest.raises(ConfigurationError, match=field):
        FleetSpec(port=7650, secret="s", **{field: float(text)})


def test_fleet_spec_waits_forever_by_default() -> None:
    assert FleetSpec(port=7650, secret="s").wait_timeout is None


@pytest.mark.parametrize("text", BAD)
def test_worker_max_idle(text: str) -> None:
    # Refused before any connection attempt: nothing listens on port 9.
    with pytest.raises(DispatchError, match="max_idle"):
        run_worker("127.0.0.1", 9, secret="s", max_idle=float(text))


@pytest.mark.parametrize("text", BAD)
@pytest.mark.parametrize(
    "argv",
    [
        ["fleet", "serve", "--lease-timeout={}"],
        ["fleet", "serve", "--journal-expiry={}"],
        ["worker", "--connect", "127.0.0.1:9", "--max-idle={}"],
        ["worker", "--connect", "127.0.0.1:9", "--connect-timeout={}"],
        ["fleet", "status", "--connect", "127.0.0.1:9", "--connect-timeout={}"],
        ["fleet", "submit", "s.json", "--connect", "h:9", "--wait", "--timeout={}"],
        ["fig3", "--fleet", "127.0.0.1:9", "--fleet-wait-timeout={}"],
    ],
    ids=lambda argv: " ".join(argv[:2]) + " " + argv[-1].split("=")[0],
)
def test_cli_rejects_at_parse_time(argv: list[str], text: str, capsys) -> None:
    argv = [arg.format(text) for arg in argv]
    if text == "0" and argv[-1].startswith("--journal-expiry"):
        assert build_parser().parse_args(argv).journal_expiry == 0.0
        return
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)  # parse only: nothing may run
    assert excinfo.value.code == 2
    assert "must be" in capsys.readouterr().err

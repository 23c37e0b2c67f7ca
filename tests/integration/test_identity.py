"""``tools/identity.py``: the one check that a seed gives the same bytes on
every executor.

``same`` must name the first difference of each file kind it compares;
``record`` must decide each verb's modes before running, agree on real
verbs under all five modes, and catch a one-bit change that only one
executor makes.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.dispatch import coordinator
from repro.experiments.report import ARTIFACT_SCHEMA
from tools import identity


def artifact(rows: list[dict], *, wall: float, jobs: int) -> dict:
    return {
        "schema": ARTIFACT_SCHEMA,
        "duration": 0.5,
        "jobs": jobs,
        "experiments": [
            {
                "experiment": "fig3",
                "wall_clock_seconds": wall,
                "sweep_specs": [{"spec": "fig3", "root_seed": 3, "columns": []}],
                "sections": [{"title": "Figure 3", "rows": rows}],
            }
        ],
    }


def trace(records: list[str], *, wall: float) -> str:
    header = {
        "kind": "header",
        "schema": "repro.trace/1",
        "sweep": "fig3",
        "wall_clock_seconds": wall,
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":")), *records]
    return "".join(line + "\n" for line in lines)


def manifest(json_hash: str) -> dict:
    return {
        "schema": identity.MANIFEST_SCHEMA,
        "duration": identity.DURATION,
        "verbs": {"fig3": {"serial": {"stdout": "sha256:aa", "json": json_hash}}},
    }


RECORD = (
    '{"cat":"cache","fields":{"hit":%s},"kind":"record","name":"serve",'
    '"point":"p0","t":0.5}'
)
ROWS = [{"alpha": 1, "detected": 2.0}, {"alpha": 2, "detected": 4.0}]
CHANGED_ROWS = [ROWS[0], {"alpha": 2, "detected": 4.5}]

#: kind -> (reference, the same run elsewhere, a changed run, the message).
CASES = {
    "json": (
        artifact(ROWS, wall=1.0, jobs=1),
        artifact(ROWS, wall=9.0, jobs=2),
        artifact(CHANGED_ROWS, wall=1.0, jobs=1),
        "'fig3' / 'sections' / 'Figure 3' / 1 / 'detected': 4.0 != 4.5",
    ),
    "trace": (
        trace([RECORD % "true", RECORD % "false"], wall=1.0),
        trace([RECORD % "true", RECORD % "false"], wall=7.0),
        trace([RECORD % "true", RECORD % "true"], wall=1.0),
        f"line 3: {RECORD % 'false'} != {RECORD % 'true'}",
    ),
    "manifest": (
        manifest("sha256:bb"),
        manifest("sha256:bb"),
        manifest("sha256:cc"),
        "'verbs' / 'fig3' / 'serial' / 'json': sha256:bb != sha256:cc",
    ),
}


class TestSame:
    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_names_the_first_difference(self, kind, tmp_path, capsys) -> None:
        paths = []
        for name, content in zip(("a", "b", "c"), CASES[kind][:3]):
            path = tmp_path / name
            text = content if isinstance(content, str) else json.dumps(content)
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        assert identity.same(paths) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{paths[1]}: same as {paths[0]}",
            f"{paths[2]}: {CASES[kind][3]}",
        ]

    def test_refuses_files_of_different_kinds(self, tmp_path) -> None:
        (tmp_path / "a").write_text(json.dumps(CASES["json"][0]), encoding="utf-8")
        (tmp_path / "b").write_text(CASES["trace"][0], encoding="utf-8")
        with pytest.raises(SystemExit, match="different kinds"):
            identity.same([str(tmp_path / "a"), str(tmp_path / "b")])


class TestPlan:
    @pytest.mark.parametrize(
        "verb, skipped",
        [
            ("fig4", {}),
            ("fig7ab", dict.fromkeys(identity.MODES[1:], "no sweeps")),
            ("theorem1", dict.fromkeys(identity.REMOTE, "not portable")),
        ],
    )
    def test_modes_are_decided_before_running(self, verb, skipped) -> None:
        plan = identity.plan(verb)
        assert list(plan) == list(identity.MODES)
        assert {mode: why for mode, why in plan.items() if why} == skipped


def flip_lowest_bit(value: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


class TestRecord:
    def test_real_verbs_agree_under_every_mode(self, tmp_path, capsys) -> None:
        """``protocol-race`` runs ``locking`` and the detector, the trace's
        two protocol decision paths; ``fig4`` is one cheap column."""
        out = tmp_path / "identity.json"
        assert identity.record(str(out), ["protocol-race", "fig4"]) == 0
        verbs = json.loads(out.read_text(encoding="utf-8"))["verbs"]
        for verb in ("protocol-race", "fig4"):
            hashes = verbs[verb]
            assert list(hashes) == list(identity.MODES)
            for part in ("stdout", "json"):
                assert len({hashes[mode][part] for mode in identity.MODES}) == 1
            traced = [mode for mode in identity.MODES if mode.endswith("+trace")]
            assert len({hashes[mode]["trace"] for mode in traced}) == 1
        assert "DISAGREE" not in capsys.readouterr().out

    def test_a_bit_flipped_on_the_dispatch_path_is_named(
        self, tmp_path, monkeypatch, capsys
    ) -> None:
        run_dispatched = coordinator.run_dispatched

        def flipped(spec, dispatch):
            result = run_dispatched(spec, dispatch)
            series = result.results[0].series
            series[-1]["consistent"] = flip_lowest_bit(series[-1]["consistent"])
            return result

        monkeypatch.setattr(coordinator, "run_dispatched", flipped)
        assert identity.record(str(tmp_path / "identity.json"), ["fig4"]) == 1
        out = capsys.readouterr().out
        failures = [line for line in out.splitlines() if "disagrees" in line]
        assert len(failures) == 1, out
        assert failures[0].startswith(
            "fig4: dispatch disagrees with serial on json: 'fig4' / 'sections' / "
            "'Figure 4: convergence (sampled windows)' / "
        )
        assert "/ 'consistent_tps': " in failures[0]

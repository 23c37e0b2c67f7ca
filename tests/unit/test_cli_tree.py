"""The command tree: flag placement is structural, an experiment is a table
row, and the driver — not a process global — feeds ``--json`` and ``--trace``.

``test_cli.py`` pins the behaviours users see (exit codes, messages); this
file pins the shape that produces them, read from ``build_parser()`` itself
rather than from rendered ``--help`` text (which differs across Pythons).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shlex
from dataclasses import replace

import pytest

from repro import telemetry
from repro.experiments import (
    fig3_alpha,
    fig4_convergence,
    fig6_strategies,
    fig7_realistic,
    fig8_strategies,
    theorem1,
)
from repro.experiments.__main__ import EXPERIMENTS, build_parser, main
from repro.experiments.sweep import run_sweep, spec_artifact

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

COMMON = ["--log-level", "--profile"]
RUN = COMMON + [
    "--chrome-trace", "--dispatch", "--duration", "--fleet", "--fleet-priority",
    "--fleet-wait-timeout", "--jobs", "--json", "--trace",
]  # fmt: skip
CONNECT = ["--connect", "--connect-timeout"]

#: Every ``Experiment.single_sweep`` verb -> its module's (spec, rows).
SINGLE_SWEEP = {
    "fig3": (fig3_alpha.spec, fig3_alpha.rows),
    "fig6": (fig6_strategies.spec, fig6_strategies.rows),
    "fig7c": (fig7_realistic.deplist_spec, fig7_realistic.deplist_rows),
    "fig7d": (fig7_realistic.ttl_spec, fig7_realistic.ttl_rows),
    "fig8": (fig8_strategies.spec, fig8_strategies.rows),
    "theorem1": (theorem1.spec, theorem1.rows),
}

#: verb -> every option string it accepts (plus <positionals>), sorted.
GOLDEN = {
    **{name: sorted(RUN) for name in EXPERIMENTS},
    "scenario": sorted(RUN + ["--backends", "--edges", "--spec"]),
    "all": sorted(RUN + ["--backends", "--edges"]),
    "worker": sorted(COMMON + CONNECT + ["--fault", "--max-idle", "--worker-name"]),
    "fleet serve": sorted(
        COMMON
        + ["--fsync", "--host", "--journal-dir", "--journal-expiry"]
        + ["--lease-timeout", "--port"]
    ),
    "fleet submit": sorted(
        COMMON
        + CONNECT
        + ["--json", "--name", "--priority", "--timeout", "--wait", "<spec_path>"]
    ),
    "fleet status": sorted(
        COMMON + CONNECT + ["--journal-dir", "--metrics", "--sweep"]
    ),
    "fleet cancel": sorted(COMMON + CONNECT + ["<sweep>"]),
}

#: What each verb needs before any optional flag parses.
REQUIRED = {
    "worker": ["--connect", "127.0.0.1:1"],
    "fleet submit": ["spec.json", "--connect", "127.0.0.1:1"],
    "fleet cancel": ["some-sweep", "--connect", "127.0.0.1:1"],
}

#: A *valid* value for every flag that takes one, so a misplaced flag can
#: only fail for being misplaced.
VALUES = {
    "--backends": "2", "--chrome-trace": "t.json", "--connect": "127.0.0.1:1",
    "--connect-timeout": "1", "--dispatch": "127.0.0.1:7643", "--duration": "3",
    "--edges": "4", "--fault": "crash:1", "--fleet": "127.0.0.1:7650",
    "--fleet-priority": "1", "--fleet-wait-timeout": "5", "--host": "127.0.0.1",
    "--jobs": "2", "--journal-dir": ".", "--journal-expiry": "0",
    "--json": "x.json", "--lease-timeout": "5", "--log-level": "INFO",
    "--max-idle": "5", "--name": "n", "--port": "7650", "--priority": "1",
    "--profile": "x.prof", "--spec": "spec.json", "--sweep": "s",
    "--timeout": "5", "--trace": "t.jsonl", "--worker-name": "w",
}  # fmt: skip
SWITCHES = {"--fsync", "--metrics", "--wait"}
ALL_FLAGS = sorted(set(VALUES) | SWITCHES)

#: The ``bench`` verb retired in 1.8.0, and ``--baseline``, the flag only it
#: owned. Neither may come back as an alias or a hidden verb: the flag stays
#: in the misplaced-flag matrix, and the verb is refused whatever follows it.
RETIRED_VERB = "bench"
RETIRED = {"--baseline": "."}


def with_value(flag: str) -> list[str]:
    return [flag] if flag in SWITCHES else [flag, {**VALUES, **RETIRED}[flag]]


def leaf_verbs(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """(verb path, parser) for every leaf of the command tree."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_verbs(sub, (*path, name))
            return
    yield " ".join(path), parser


def accepted(parser: argparse.ArgumentParser) -> list[str]:
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        names.extend(action.option_strings or [f"<{action.dest}>"])
    return sorted(names)


class TestPlacementIsStructural:
    def test_golden_option_strings_per_verb(self) -> None:
        assert {
            verb: accepted(parser) for verb, parser in leaf_verbs(build_parser())
        } == GOLDEN

    def test_no_option_added_or_removed(self) -> None:
        # 21 on the old flat parser + 12 that only the fleet parser had,
        # less the two flags of the retired bench verb.
        options = {flag for flags in GOLDEN.values() for flag in flags}
        assert options - {"<spec_path>", "<sweep>"} == set(ALL_FLAGS)
        assert len(ALL_FLAGS) == 31

    @pytest.mark.parametrize(
        "verb, flag",
        [
            (verb, flag)
            for verb, owned in GOLDEN.items()
            for flag in [*ALL_FLAGS, *RETIRED]
            if flag not in owned
        ],
    )
    def test_flag_on_a_verb_that_does_not_own_it_is_a_usage_error(
        self, verb, flag, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text("{}")
        argv = [*verb.split(), *REQUIRED.get(verb, []), *with_value(flag)]
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)  # parse only: nothing may run
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tail",
        [[], ["--help"], *(with_value(flag) for flag in [*ALL_FLAGS, *RETIRED])],
        ids=lambda tail: " ".join(tail) or "bare",
    )
    def test_retired_verb_is_an_invalid_choice(self, tail, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([RETIRED_VERB, *tail])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{RETIRED_VERB}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--jobs", "2", "fig3"], ["--duration", "1"]])
    def test_flags_before_the_verb_are_usage_errors(self, argv, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_one_root_parser(self) -> None:
        """Every ArgumentParser the CLI modules construct by hand, bar the
        root, is an ``add_help=False`` parent (subparsers come from
        ``add_parser``), and ``main`` never looks at ``argv`` itself."""
        constructed = []
        for module in ("experiments/__main__", "dispatch/cli"):
            path = os.path.join(REPO_ROOT, "src", "repro", f"{module}.py")
            source = open(path, encoding="utf-8").read()
            constructed += re.findall(r"ArgumentParser\(([^\n]*)", source)
            assert "argv[" not in source and "sys.argv" not in source
        assert sorted(constructed) == [""] + ["add_help=False)"] * 5


class TestExperimentTable:
    def test_registry_order_is_the_all_order(self) -> None:
        assert list(EXPERIMENTS) == [
            "fig3", "fig4", "fig5", "fig6", "fig7ab", "fig7c", "fig7d", "fig8",
            "theorem1", "sensitivity", "scenario", "protocol-race",
        ]  # fmt: skip

    def test_fig4_row_is_the_module_api_at_the_scaled_timeline(
        self, tmp_path, capsys
    ) -> None:
        path = tmp_path / "fig4.json"
        assert main(["fig4", "--duration", "3", "--jobs", "1", "--json", str(path)]) == 0
        scale = 3.0 / 30.0
        timeline = {"duration": 160.0 * scale, "switch_time": 58.0 * scale}
        rows = fig4_convergence.rows(
            run_sweep(fig4_convergence.spec(**timeline), jobs=1)
        )
        means = fig4_convergence.phase_summaries(rows, switch_time=58.0 * scale)
        (experiment,) = json.loads(path.read_text())["experiments"]
        assert experiment["sections"] == [
            {"title": "Figure 4: convergence (sampled windows)", "rows": rows},
            {
                "title": "phase means [txn/s]",
                "rows": [
                    {"phase": "before", **means["before"]},
                    {"phase": "after", **means["after"]},
                ],
            },
        ]
        assert experiment["sweep_specs"] == [
            spec_artifact(fig4_convergence.spec(**timeline))
        ]

    @pytest.mark.parametrize("verb", sorted(SINGLE_SWEEP))
    def test_single_sweep_row_is_the_module_api(self, verb, tmp_path, capsys) -> None:
        """A one-table verb prints exactly ``rows(run_sweep(spec(...)))``:
        the composition any Python caller writes."""
        spec, rows = SINGLE_SWEEP[verb]
        path = tmp_path / f"{verb}.json"
        run = [verb, "--duration", "0.1", "--jobs", "1", "--json", str(path)]
        assert main(run) == 0
        (experiment,) = json.loads(path.read_text())["experiments"]
        assert experiment["sections"] == [
            {
                "title": EXPERIMENTS[verb].help,
                "rows": rows(run_sweep(spec(duration=0.1), jobs=1)),
            }
        ]
        assert experiment["sweep_specs"] == [spec_artifact(spec(duration=0.1))]


class TestTraceThroughMain:
    def test_fig6_trace_is_the_sweeps_the_driver_ran(self, tmp_path, capsys) -> None:
        trace = tmp_path / "t.jsonl"
        traced, plain = tmp_path / "traced.json", tmp_path / "plain.json"
        run = ["fig6", "--duration", "1", "--jobs", "1"]
        assert main([*run, "--trace", str(trace), "--json", str(traced)]) == 0
        assert main([*run, "--json", str(plain)]) == 0

        spec = fig6_strategies.spec(duration=1.0)
        stamped = [replace(point, trace=True) for point in spec.points]
        sweep = run_sweep(replace(spec, points=stamped), jobs=1)
        lines = trace.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        assert len(lines) > 1000
        assert lines[1:] == telemetry.trace_jsonl_lines([sweep])[1:]

        def without_wall_clock(path) -> list[str]:
            return [
                line
                for line in path.read_text().splitlines()
                if "wall_clock_seconds" not in line
            ]

        # Byte-equal: tracing stamps the points run_sweep executes, not the
        # specs the artifact records.
        assert without_wall_clock(traced) == without_wall_clock(plain)

    def test_chrome_trace_converts_the_same_lines(self, tmp_path, capsys) -> None:
        trace, chrome = tmp_path / "t.jsonl", tmp_path / "t.chrome.json"
        assert main(
            ["fig4", "--duration", "0.3", "--jobs", "1",
             "--trace", str(trace), "--chrome-trace", str(chrome)]
        ) == 0  # fmt: skip
        lines = trace.read_text().splitlines()
        assert json.loads(chrome.read_text()) == telemetry.chrome_trace(lines)
        assert len(lines) > 1000

    def test_chrome_trace_needs_trace(self, tmp_path, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["fig7ab", "--chrome-trace", str(tmp_path / "c.json")])
        assert excinfo.value.code == 2
        assert "--trace" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "first, second",
        [
            ("--json", "--trace"),
            ("--trace", "--chrome-trace"),
            ("--json", "--chrome-trace"),
            ("--json", "--profile"),
        ],
    )
    def test_two_outputs_cannot_share_a_file(
        self, first, second, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.chdir(tmp_path)
        argv = ["fig4", "--duration", "0.3", first, "out", second, "./out"]
        if "--chrome-trace" in argv and "--trace" not in argv:
            argv += ["--trace", "t.jsonl"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"{first} and {second} both name ./out" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


INVOCATION = re.compile(
    r"(?:python3? -m repro\.experiments|repro-experiments)[ \t]+([^`#|;>&\n\"']+)"
)


def documented_invocations() -> list[tuple[str, list[str]]]:
    found = []
    for pattern in ("README.md", ".github/workflows/ci.yml", "examples/*.py"):
        for path in sorted(glob.glob(os.path.join(REPO_ROOT, pattern))):
            text = open(path, encoding="utf-8").read()
            text = re.sub(r"\\\n\s*", " ", text)  # shell line continuations
            for match in INVOCATION.finditer(text):
                argv = shlex.split(match.group(1))
                if not argv[0].startswith("$"):  # CI's `$verb --help` loop
                    found.append((os.path.basename(path), argv))
    return found


class TestDocumentedInvocationsParse:
    def test_the_scan_finds_them(self) -> None:
        sources = {source for source, _ in documented_invocations()}
        assert {"README.md", "ci.yml", "fleet_daemon.py"} <= sources
        assert len(documented_invocations()) > 50

    @pytest.mark.parametrize(
        "source, argv",
        documented_invocations(),
        ids=lambda value: value if isinstance(value, str) else " ".join(value),
    )
    def test_parses(self, source, argv, tmp_path, monkeypatch) -> None:
        # Parse only, in a scratch cwd holding the files the line names.
        monkeypatch.chdir(tmp_path)
        if "--spec" in argv:
            (tmp_path / argv[argv.index("--spec") + 1]).touch()
        args = build_parser().parse_args(argv)
        assert args.verb == argv[0]

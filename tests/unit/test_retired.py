"""Retired names stay retired: one table, one check per row.

``tests/data/retired.json`` lists everything a simplification deleted and
that must not come back, each row naming the change that retired it:

* ``grep`` — a regular expression that must match no line under ``paths``
  (files, or directories searched recursively; ``globs`` narrows by file
  name), except in the ``allowed`` files.  ``hit`` is a line the pattern
  matches.
* ``name`` — ``name`` must not resolve on ``owner`` (a module, or an object
  reached from one): no attribute, no ``__all__`` entry, no dataclass
  field, no importable submodule.
* ``exit`` — the command line ``argv`` exits with ``code``.

Every row is checked twice: against the tree, and against a planted hit —
the row's own ``hit`` written into a scratch tree, the name set on its
owner, the verb added to the command tree — which the same checker must
flag.  So no row can pass by never being able to fail.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import json
import re
from fnmatch import fnmatch
from pathlib import Path, PurePosixPath

import pytest

ROOT = Path(__file__).resolve().parents[2]
TABLE = "tests/data/retired.json"
ROWS = json.loads((ROOT / TABLE).read_text(encoding="utf-8"))


def row_id(row: dict) -> str:
    if row["kind"] == "grep":
        return "grep:" + re.sub(r"\W+", "_", row["pattern"]).strip("_")
    if row["kind"] == "name":
        return f"name:{row['owner']}.{row['name']}"
    return "exit:" + " ".join(row["argv"])


def rows_of(kind: str) -> list:
    rows = [row for row in ROWS if row["kind"] == kind]
    return [pytest.param(row, id=row_id(row)) for row in rows]


# ----------------------------------------------------------------------
# The three checkers
# ----------------------------------------------------------------------


def _searched_files(root: Path, row: dict):
    for base in row["paths"]:
        top = root / base
        if not top.exists():
            raise FileNotFoundError(f"{row_id(row)} searches missing {base}")
        for path in [top] if top.is_file() else sorted(top.rglob("*")):
            # Hidden and cache directories are skipped below a searched
            # directory; a path a row names (``.github/...``) is searched.
            if not path.is_file() or any(
                part.startswith(".") or part == "__pycache__"
                for part in path.relative_to(top).parts
            ):
                continue
            if row.get("globs") and not any(
                fnmatch(path.name, glob) for glob in row["globs"]
            ):
                continue
            yield path, path.relative_to(root).as_posix()


def grep_hits(root: Path, row: dict) -> list[str]:
    """``path:line: text`` for every line the row's pattern matches."""
    pattern = re.compile(row["pattern"])
    skipped = {TABLE, *row.get("allowed", ())}
    hits = []
    for path, relative in _searched_files(root, row):
        if relative in skipped:
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue
        for number, line in enumerate(text.splitlines(), 1):
            if pattern.search(line):
                hits.append(f"{relative}:{number}: {line.strip()}")
    return hits


def owner_of(dotted: str) -> object:
    """The module ``dotted`` names, or the object reached from one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            owner = getattr(owner, part)
        return owner
    raise ModuleNotFoundError(dotted)


def resolves(row: dict) -> bool:
    owner, name = owner_of(row["owner"]), row["name"]
    if hasattr(owner, name) or name in getattr(owner, "__all__", ()):
        return True
    if dataclasses.is_dataclass(owner) and name in owner.__dataclass_fields__:
        return True
    if hasattr(owner, "__path__"):
        return importlib.util.find_spec(f"{owner.__name__}.{name}") is not None
    return False


def exit_code(row: dict) -> object:
    from repro.experiments import __main__ as cli

    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(list(row["argv"]))
        except SystemExit as exit:
            return exit.code


# ----------------------------------------------------------------------
# The tree has none of them
# ----------------------------------------------------------------------


def test_every_row_is_well_formed() -> None:
    fields = {
        "grep": {"pattern", "paths", "hit"},
        "name": {"owner", "name"},
        "exit": {"argv", "code"},
    }
    for row in ROWS:
        required = {"kind", "retired_by"} | fields[row["kind"]]
        optional = {"globs", "allowed"} if row["kind"] == "grep" else set()
        assert required <= set(row) <= required | optional, row
        assert row["retired_by"], row
    ids = [row_id(row) for row in ROWS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("row", rows_of("grep"))
def test_no_line_matches(row: dict) -> None:
    assert grep_hits(ROOT, row) == []


@pytest.mark.parametrize("row", rows_of("name"))
def test_name_does_not_resolve(row: dict) -> None:
    assert not resolves(row)


@pytest.mark.parametrize("row", rows_of("exit"))
def test_command_line_exits_with_its_code(row: dict) -> None:
    assert exit_code(row) == row["code"]


# ----------------------------------------------------------------------
# Each row can fail
# ----------------------------------------------------------------------


def _plant(root: Path, row: dict, where: str) -> None:
    """Lay out the row's search paths under ``root`` with the hit at ``where``."""
    for base in row["paths"]:
        path = root / base
        if PurePosixPath(base).suffix:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.touch()
        else:
            path.mkdir(parents=True, exist_ok=True)
    target = root / where
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(f"{row['hit']}\n", encoding="utf-8")


def _planted_path(row: dict) -> str:
    base = row["paths"][0]
    if PurePosixPath(base).suffix:
        return base
    glob = row.get("globs", ["*.py"])[0]
    return f"{base}/planted/{glob.replace('*', 'module')}"


@pytest.mark.parametrize("row", rows_of("grep"))
def test_a_planted_line_is_flagged(row: dict, tmp_path: Path) -> None:
    _plant(tmp_path, row, _planted_path(row))
    assert grep_hits(tmp_path, row) == [f"{_planted_path(row)}:1: {row['hit'].strip()}"]


@pytest.mark.parametrize(
    "row", [param for param in rows_of("grep") if param.values[0].get("allowed")]
)
def test_the_allowed_files_are_not_flagged(row: dict, tmp_path: Path) -> None:
    for allowed in row["allowed"]:
        _plant(tmp_path, row, allowed)
    assert grep_hits(tmp_path, row) == []


@pytest.mark.parametrize("row", rows_of("name"))
def test_a_planted_name_is_flagged(row: dict, monkeypatch) -> None:
    monkeypatch.setattr(owner_of(row["owner"]), row["name"], object(), raising=False)
    assert resolves(row)


@pytest.mark.parametrize("row", rows_of("exit"))
def test_a_planted_verb_is_flagged(row: dict, monkeypatch) -> None:
    from repro.experiments import __main__ as cli

    build = cli.build_parser

    def planted() -> argparse.ArgumentParser:
        parser = build()
        (verbs,) = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        verbs.add_parser(row["argv"][0]).set_defaults(
            run=lambda args: 0, log_level="INFO", profile_path=None
        )
        return parser

    monkeypatch.setattr(cli, "build_parser", planted)
    assert exit_code(row) != row["code"]

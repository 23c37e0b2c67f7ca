"""The package structure, as data: one ordered list of layers.

A layer may import only layers that come before it in :data:`LAYERS`.  The
rule is checked over every ``import`` statement under ``src/repro`` — at
module level and inside function bodies alike — read with stdlib ``ast``,
so a deferred import cannot hide an upward edge.  ``cli`` is
``repro.experiments.__main__``; ``repro/__init__.py`` is the façade, which
no layer may import, and which is checked by the child-interpreter probe at
the bottom instead: importing the paper's packages must not load the sweep
engine, the scenario layer, the fleet or the CLI.

The upward edges that remain are named below with their reason.  Entries
may be deleted as their edges go; an upward edge not listed here fails.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path, PurePosixPath

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

LAYERS = (
    "errors",
    "types",
    "telemetry",
    "sim",
    "monitor",
    "workloads",
    "cache",
    "core",
    "db",
    "clients",
    "protocols",
    "scenario",
    "experiments",
    "dispatch",
    "cli",
)

#: Stands for ``repro/__init__.py``: above every layer.
FACADE = "repro"

#: Upward imports executed at run time: ``(file, imported layer) -> reason``.
RUNTIME_EXCEPTIONS: dict[tuple[str, str], str] = {}

#: Upward imports under ``if TYPE_CHECKING:``.  They load nothing at run
#: time.  Entries may be deleted, never added.
ANNOTATION_ONLY = frozenset(
    {
        ("cache/base.py", "db"),
        # Each cache factory takes the EdgeSpec it builds for.
        ("protocols/registry.py", "scenario"),
        ("scenario/spec.py", "experiments"),
    }
)
ANNOTATION_ONLY_CEILING = 3


def layer_of(path: PurePosixPath) -> str | None:
    """The layer a source file belongs to (``None`` for the façade)."""
    if path == PurePosixPath("__init__.py"):
        return None
    if path == PurePosixPath("experiments/__main__.py"):
        return "cli"
    return path.parts[0].removesuffix(".py")


def layer_of_module(dotted: str) -> str:
    parts = dotted.split(".")
    if parts == ["repro"]:
        return FACADE
    if parts[1:3] == ["experiments", "__main__"]:
        return "cli"
    return parts[1]


def _type_checking_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            for child in node.body:
                for inner in ast.walk(child):
                    if hasattr(inner, "lineno"):
                        lines.add(inner.lineno)
    return lines


def _imported_modules(node: ast.AST, package: str) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:
        anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
        base = ".".join(anchor + ([base] if base else []))
    if base == "repro":
        # ``from repro import telemetry`` names a layer; anything else is
        # the façade.
        return [
            f"repro.{alias.name}" if alias.name in LAYERS else "repro"
            for alias in node.names
        ]
    return [base]


def scan() -> dict[tuple[str, str], dict[str, list[int]]]:
    """Every upward edge: ``(file, layer) -> {"runtime"|"annotation": lines}``."""
    edges: dict[tuple[str, str], dict[str, list[int]]] = {}
    order = {name: index for index, name in enumerate((*LAYERS, FACADE))}
    for path in sorted(SRC.rglob("*.py")):
        relative = PurePosixPath(path.relative_to(SRC).as_posix())
        source = layer_of(relative)
        if source is None:
            continue
        package = ".".join(("repro", *relative.parent.parts))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        annotation_lines = _type_checking_lines(tree)
        for node in ast.walk(tree):
            for module in _imported_modules(node, package):
                if module != "repro" and not module.startswith("repro."):
                    continue
                target = layer_of_module(module)
                if order[target] <= order[source]:
                    continue
                kind = "annotation" if node.lineno in annotation_lines else "runtime"
                edge = edges.setdefault((str(relative), target), {})
                edge.setdefault(kind, []).append(node.lineno)
    return edges


def test_every_package_is_a_layer() -> None:
    found = {
        layer_of(PurePosixPath(path.relative_to(SRC).as_posix()))
        for path in SRC.rglob("*.py")
    }
    assert found - {None} == set(LAYERS)


def test_runtime_upward_imports_are_the_named_exceptions() -> None:
    runtime = {
        edge: kinds["runtime"] for edge, kinds in scan().items() if "runtime" in kinds
    }
    assert set(runtime) == set(RUNTIME_EXCEPTIONS), runtime


def test_annotation_only_upward_imports_are_frozen() -> None:
    annotation = {
        edge: kinds["annotation"]
        for edge, kinds in scan().items()
        if "annotation" in kinds
    }
    assert set(annotation) == ANNOTATION_ONLY, annotation
    assert len(ANNOTATION_ONLY) <= ANNOTATION_ONLY_CEILING


@pytest.mark.parametrize(
    ("statement", "package", "expected"),
    [
        ("import repro.sim.core", "repro.cache", ["repro.sim.core"]),
        ("from repro.db import wal", "repro.cache", ["repro.db"]),
        (
            "from repro import telemetry, TCache",
            "repro.sim",
            ["repro.telemetry", "repro"],
        ),
        ("from ..experiments import sweep", "repro.scenario", ["repro.experiments"]),
        ("from . import base", "repro.cache", ["repro.cache"]),
    ],
)
def test_the_scanner_resolves_each_import_form(
    statement: str, package: str, expected: list[str]
) -> None:
    (node,) = ast.parse(statement).body
    assert _imported_modules(node, package) == expected


#: What importing the paper's layer — T-Cache over a 2PC database, a lossy
#: invalidation channel and the consistency monitor — may load.
PAPER_LAYERS = ("sim", "core", "cache", "monitor", "db")
PAPER_MAY_LOAD = {
    "errors",
    "types",
    "telemetry",
    "sim",
    "monitor",
    "cache",
    "core",
    "db",
}


def test_the_paper_layer_imports_without_the_upper_layers() -> None:
    imports = ", ".join(f"repro.{name}" for name in PAPER_LAYERS)
    probe = (
        f"import json, sys, {imports}; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('repro.'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        timeout=60,
        check=True,
    )
    loaded = json.loads(done.stdout)
    above = [name for name in loaded if layer_of_module(name) not in PAPER_MAY_LOAD]
    assert not above, f"{len(above)} of {len(loaded)} modules from above: {above}"

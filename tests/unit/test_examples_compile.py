"""The examples must at least parse and import-resolve against the API.

Running them takes minutes (they simulate full columns), so the suite
checks compilation and the import surface; the examples themselves are
executed in documentation/CI passes.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import py_compile
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path: Path) -> None:
    py_compile.compile(str(path), doraise=True)


def resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` finds ``name``: an attribute, or
    a submodule, which is an attribute only once something imported it."""
    package = importlib.import_module(module)
    if hasattr(package, name):
        return True
    return (
        hasattr(package, "__path__")
        and importlib.util.find_spec(f"{module}.{name}") is not None
    )


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path: Path) -> None:
    """Every ``from X import Y`` in an example resolves today."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                assert resolves(node.module, alias.name), (
                    f"{path.name}: {node.module}.{alias.name} does not exist"
                )


def test_a_submodule_resolves_when_not_an_attribute(monkeypatch) -> None:
    import repro.experiments

    monkeypatch.delattr(repro.experiments, "protocol_race", raising=False)
    assert resolves("repro.experiments", "protocol_race")


@pytest.mark.parametrize(
    "module, name",
    [("repro.experiments", "protocol_rcae"), ("repro.experiments.sweep", "SweepSpek")],
)
def test_a_misspelled_name_does_not_resolve(module: str, name: str) -> None:
    assert not resolves(module, name)


def test_examples_exist() -> None:
    names = {path.name for path in EXAMPLES}
    assert {"quickstart.py", "online_retailer.py", "social_network.py",
            "web_album_acl.py"} <= names
    assert len(EXAMPLES) >= 5


def test_examples_have_docstrings() -> None:
    for path in EXAMPLES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert ast.get_docstring(tree), f"{path.name} lacks a docstring"

"""No simulation layer lets a ``set``'s order reach a result.

A ``set`` of strings iterates in an order that follows ``PYTHONHASHSEED``,
so a simulation that walks one can grant, wound or log in a different
order under another interpreter — and a fleet worker spawned with another
seed would disagree with ``jobs=1``.  The rule, checked with stdlib
``ast`` over every module in the layers from ``sim`` to ``scenario``: no
set is iterated (a ``for`` loop, a comprehension,
``list``/``tuple``/``iter``/``enumerate``, ``*`` unpacking,
``yield from``) or ``pop()``-ed.  A set is a set display or comprehension,
a ``set()``/``frozenset()`` call, a name or attribute annotated
``set``/``frozenset`` or assigned a set, and an item of a mapping annotated
``dict[K, set[V]]`` (by subscript, ``get``, ``pop`` or ``setdefault``).
An attribute's annotation counts in every module under ``src/repro``,
anything else in its own.  Iterations whose order cannot show are not
counted: a set comprehension, and a comprehension handed straight to
``sorted``, ``sum``, ``any``, ``all``, ``min``, ``max``, ``len``, ``set``
or ``frozenset``.

What the rule does not see: call results (``record.keys()``) and sets in
containers it has no annotation for.  The sites that remain are named
below with the reason their order is unobservable.  Entries may be deleted
as their sites go, never added.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath

import pytest

from tests.unit.test_layers import LAYERS, SRC, layer_of

#: The layers the rule covers: the simulation, from ``sim`` to ``scenario``.
CHECKED = LAYERS[LAYERS.index("sim") : LAYERS.index("scenario") + 1]

SET_TYPES = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
#: Calls whose result does not depend on their argument's order.
ORDERLESS = {"sorted", "sum", "any", "all", "min", "max", "len", "set", "frozenset"}
#: Calls that expose their argument's order.
ORDERED = {"list", "tuple", "iter", "enumerate"}
MAPPINGS = {"dict", "Dict", "Mapping", "MutableMapping", "defaultdict"}

#: ``(file, expression) -> why its order is unobservable``.
ALLOWED: dict[tuple[str, str], str] = {
    ("db/coordinator.py", "set(shards.values())"): "sorted by name when two or more",
    ("monitor/sgt.py", "starts"): "int ids hash to themselves; the verdict is not",
    ("workloads/stats.py", "pairs"): "each pair is only counted",
}
ALLOWED_CEILING = 3


def _parsed(annotation: ast.expr | None) -> ast.expr | None:
    """A string annotation parsed; any other as it is."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return ast.parse(annotation.value, mode="eval").body
    return annotation


def _base(annotation: ast.expr | None) -> str | None:
    """The name a type is spelled with: ``Set`` for ``typing.Set[int]``."""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    return annotation.id if isinstance(annotation, ast.Name) else None


def is_set_annotation(annotation: ast.expr | None) -> bool:
    return _base(_parsed(annotation)) in SET_TYPES


def is_holder_annotation(annotation: ast.expr | None) -> bool:
    """``dict[K, set[V]]`` and its spellings: a mapping to sets."""
    annotation = _parsed(annotation)
    return (
        isinstance(annotation, ast.Subscript)
        and _base(annotation) in MAPPINGS
        and isinstance(annotation.slice, ast.Tuple)
        and is_set_annotation(annotation.slice.elts[-1])
    )


def ref(node: ast.AST) -> str | None:
    """``x`` for a name, ``.x`` for an attribute (of any object)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return "." + node.attr
    return None


def declared(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The refs annotated as sets, and as mappings to sets, in ``tree``;
    a name annotated in a class body is a field, so an attribute."""
    sets: set[str] = set()
    holders: set[str] = set()
    fields = {
        id(statement.target)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for statement in node.body
        if isinstance(statement, ast.AnnAssign)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            name, annotation = node.arg, node.annotation
        elif isinstance(node, ast.AnnAssign):
            name, annotation = ref(node.target), node.annotation
            if id(node.target) in fields:
                name = "." + node.target.id
        else:
            continue
        if is_set_annotation(annotation):
            sets.add(name)
        elif is_holder_annotation(annotation):
            holders.add(name)
    return sets, holders


def is_set(node: ast.AST, sets: set[str], holders: set[str]) -> bool:
    """Whether ``node`` evaluates to a set, as far as the refs tell."""
    if isinstance(node, (ast.Set, ast.SetComp)) or ref(node) in sets:
        return True
    if isinstance(node, ast.Subscript):
        return ref(node.value) in holders
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in ("get", "pop", "setdefault")
        and ref(node.func.value) in holders
    )


def inferred(tree: ast.AST, sets: set[str], holders: set[str]) -> set[str]:
    """``sets`` plus every ref ``tree`` assigns a set to."""
    assignments = [
        (node.targets if isinstance(node, ast.Assign) else [node.target], node.value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
    ]
    sets = set(sets)
    while True:
        more = {
            ref(target)
            for targets, value in assignments
            if is_set(value, sets, holders)
            for target in targets
        } - {None} - sets
        if not more:
            return sets
        sets |= more


def ordered_uses(tree: ast.AST, sets: set[str], holders: set[str]) -> list:
    """``(line, expression)`` for each use of a set in ``tree`` that
    exposes its order."""
    orderless: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.SetComp):
            orderless.add(id(node))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ORDERLESS
        ):
            orderless.update(id(arg) for arg in node.args)
    uses = []
    for node in ast.walk(tree):
        iterated: list[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterated = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            if id(node) not in orderless:
                iterated = [generator.iter for generator in node.generators]
        elif isinstance(node, (ast.Starred, ast.YieldFrom)):
            iterated = [node.value]
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ORDERED:
                iterated = node.args[:1]
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and not node.args
            ):
                iterated = [node.func.value]
        uses.extend(
            (node.lineno, ast.unparse(expression))
            for expression in iterated
            if is_set(expression, sets, holders)
        )
    return sorted(uses)


def scan() -> dict[tuple[str, str], list[int]]:
    """Every site: ``(file, expression) -> lines``."""
    trees = {
        PurePosixPath(path.relative_to(SRC).as_posix()): ast.parse(
            path.read_text(encoding="utf-8")
        )
        for path in sorted(SRC.rglob("*.py"))
    }
    declarations = {relative: declared(tree) for relative, tree in trees.items()}
    attributes: set[str] = set()
    holders: set[str] = set()
    for sets, mappings in declarations.values():
        attributes |= {name for name in sets if name.startswith(".")}
        holders |= {name for name in mappings if name.startswith(".")}
    sites: dict[tuple[str, str], list[int]] = {}
    for relative, (sets, mappings) in declarations.items():
        if layer_of(relative) not in CHECKED:
            continue
        tree = trees[relative]
        mappings = mappings | holders
        sets = inferred(tree, sets | attributes, mappings)
        for line, expression in ordered_uses(tree, sets, mappings):
            sites.setdefault((str(relative), expression), []).append(line)
    return sites


def test_no_set_order_reaches_a_result() -> None:
    found = scan()
    assert set(found) == set(ALLOWED), found
    assert len(ALLOWED) <= ALLOWED_CEILING


PLANTED = '''
class Table:
    held: set[str] = field(default_factory=set)

    def __init__(self):
        self._by_txn: dict[int, set[str]] = {}

    def walk(self, keys: set[str], ordered: list[str], txn: int):
        seen = set()
        for key in keys: pass
        [key for key in self.held]
        first = self.held.pop()
        rows = list(seen)
        print(*keys)
        released = self._by_txn.pop(txn, set())
        for key in released: pass
        for key in self._by_txn[txn]: pass
        for key in ordered: pass
        ordered.pop()
        fine = sorted(key for key in keys)
        fine = {key for key in seen}
        fine = len(self.held) + sum(1 for _ in seen) + max(self._by_txn[txn])
        fine = [key for key in ordered if key in seen]
'''


def test_the_scanner_finds_each_planted_site() -> None:
    tree = ast.parse(PLANTED)
    sets, holders = declared(tree)
    assert (sets, holders) == ({".held", "keys"}, {"._by_txn"})
    sets = inferred(tree, sets, holders)
    assert sets == {".held", "keys", "seen", "released", "fine"}
    assert ordered_uses(tree, sets, holders) == [
        (10, "keys"),
        (11, "self.held"),
        (12, "self.held"),
        (13, "seen"),
        (14, "keys"),
        (16, "released"),
        (17, "self._by_txn[txn]"),
    ]


@pytest.mark.parametrize(
    "annotation, is_set, is_holder",
    [
        ("set[str]", True, False),
        ("'frozenset[int]'", True, False),
        ("typing.AbstractSet", True, False),
        ("dict[str, set[int]]", False, True),
        ("'Mapping[str, frozenset[int]]'", False, True),
        ("dict[str, list[int]]", False, False),
        ("list[str]", False, False),
    ],
)
def test_each_annotation_is_classified(annotation, is_set, is_holder) -> None:
    (statement,) = ast.parse(f"x: {annotation}").body
    assert is_set_annotation(statement.annotation) is is_set
    assert is_holder_annotation(statement.annotation) is is_holder

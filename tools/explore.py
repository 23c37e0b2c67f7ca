"""Every short event sequence of a small state machine, breadth-first.

A checker describes its machine by five callables and a depth::

    from tools.explore import Violation, explore, replay

    found = explore(initial, events, apply, check, key, depth=6)
    if found.path is not None:  # a shortest event list that breaks a rule
        state = replay(initial, apply, found.path)  # the state it broke in

``initial()`` builds the root state; ``events(state)`` lists what may
happen next; ``apply(state, event)`` makes it happen, in place;
``check(state)`` raises :class:`AssertionError` (such as a
:class:`Violation`) when an invariant fails, and so may ``apply``;
``key(state)`` is a hashable summary of everything that decides what
happens next, so two paths that reach one key are explored once.

States are never copied: each is rebuilt by :func:`replay` of its event
list from a fresh root, so a state may hold a simulator, a ledger with
its clock or anything else that will not deep-copy.  Breadth-first
order makes the first failing path a shortest one.  The module imports
only the standard library.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, NamedTuple, TypeVar

__all__ = ["Exploration", "Violation", "explore", "replay"]

State = TypeVar("State")


class Violation(AssertionError):
    """An invariant that does not hold: the message says which and how."""


class Exploration(NamedTuple):
    #: Distinct keys reached, the root's included (so far, on a failure).
    states: int
    #: The shortest event list whose last event broke an invariant, or None.
    path: tuple | None
    #: What broke, or "" when nothing did.
    message: str


def replay(
    initial: Callable[[], State],
    apply: Callable[[State, object], object],
    path: Iterable[object],
) -> State:
    """The state ``path`` reaches from a fresh root."""
    state = initial()
    for event in path:
        apply(state, event)
    return state


def explore(
    initial: Callable[[], State],
    events: Callable[[State], Iterable[object]],
    apply: Callable[[State, object], object],
    check: Callable[[State], object],
    key: Callable[[State], Hashable],
    depth: int,
) -> Exploration:
    """Apply every event sequence up to ``depth`` long, checking after each
    event, and stop at the first sequence that breaks an invariant."""
    try:
        root = initial()
        check(root)
    except AssertionError as violation:
        return Exploration(1, (), str(violation))
    seen = {key(root)}
    frontier: list[tuple] = [()]
    for _ in range(depth):
        following: list[tuple] = []
        for path in frontier:
            for event in events(replay(initial, apply, path)):
                state = replay(initial, apply, path)
                try:
                    apply(state, event)
                    check(state)
                except AssertionError as violation:
                    return Exploration(len(seen), (*path, event), str(violation))
                state_key = key(state)
                if state_key not in seen:
                    seen.add(state_key)
                    following.append((*path, event))
        frontier = following
    return Exploration(len(seen), None, "")

"""Span tracing from the benchmark's own files (no change to ``src/repro``).

:class:`Recorder` replaces a list of public callables with timing shims for
the length of one traced run and puts the originals back afterwards. A span
is the list ``[name, start, end, parent, thread, run]`` (``parent`` is the
enclosing span's list or ``None``; ``thread`` and ``run`` are filled in on
root spans only and inherited by everything below them). Spans stay in
memory until :meth:`Recorder.write_jsonl`.

The span stack is thread-local, so the loopback workloads — a driver
thread, two worker threads and the daemon's handler threads — each build
their own trees. Generator entry points (``Coordinator.run_transaction``)
are timed per resume: one span per ``send``/``throw``, so the simulated
waits between resumes are not billed to the transaction.

:func:`aggregate` turns spans into per-name ``calls``, ``busy_s`` and
``self_s``. Self time is a span's duration minus the time its direct
children cover; children of one parent never overlap because they share a
thread, so that is a plain subtraction.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

__all__ = ["HARNESS", "Recorder", "Target", "aggregate", "layer_of"]

#: Name prefix of the spans the benchmark opens around its own unit of
#: work; their self time is what no layer accounts for.
HARNESS = "perf"

NAME, START, END, PARENT, THREAD, RUN = range(6)


class Target:
    """One callable to wrap: ``module`` + dotted ``qualname`` -> span name.

    ``count_bytes`` marks a ``f(sock, payload)`` sender: the shim hands it a
    socket proxy that adds up what ``sendall`` is given.
    """

    __slots__ = ("span", "module", "qualname", "count_bytes")

    def __init__(
        self, span: str, module: str, qualname: str, *, count_bytes: bool = False
    ) -> None:
        self.span = span
        self.module = module
        self.qualname = qualname
        self.count_bytes = count_bytes

    def __repr__(self) -> str:
        return f"Target({self.span!r}, {self.module}:{self.qualname})"


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return span_name.split(".", 1)[0]


class Recorder:
    """Installs timing shims, collects spans, restores the originals."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.spans: list[list] = []
        #: Generator entry points started, by span name (their spans count
        #: resumes, not calls).
        self.generator_calls: dict[str, int] = defaultdict(int)
        #: Targets that no longer exist in the program (a later refactor
        #: removed them); reported, never fatal.
        self.missing: list[Target] = []
        #: Sizes handed to ``sendall`` by ``count_bytes`` targets.
        self.sent_bytes: list[int] = []
        #: Id stamped on root spans; the harness bumps it per unit of work.
        self.run_id = 0
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------

    def __enter__(self) -> "Recorder":
        self.missing = []
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every replaced attribute back (idempotent)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _install(self, target: Target) -> None:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            self.missing.append(target)
            return
        *path, attribute = target.qualname.split(".")
        owner: object = module
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attribute not in vars(owner):
            self.missing.append(target)
            return
        if inspect.isclass(owner):
            raw = vars(owner)[attribute]
            if isinstance(raw, classmethod):
                shim: object = classmethod(self._shim(target.span, raw.__func__))
            elif isinstance(raw, staticmethod):
                shim = staticmethod(self._shim(target.span, raw.__func__))
            else:
                shim = self._shim(target.span, raw)
            self._replace(owner, attribute, raw, shim)
            return
        # A module-level function: every module that imported it by name
        # holds its own binding, so rebind each one that is this function.
        original = getattr(owner, attribute)
        timed = original
        if target.count_bytes:
            timed = _counting_sender(original, self.sent_bytes)
        shim = functools.wraps(original)(self._shim(target.span, timed))
        for holder in list(sys.modules.values()):
            namespace = getattr(holder, "__dict__", None)
            if namespace is not None and namespace.get(attribute) is original:
                self._replace(holder, attribute, original, shim)

    def _replace(self, owner, attribute: str, original, shim) -> None:
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, shim)

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------

    def _open(self, name: str) -> list:
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        if stack:
            span = [name, 0.0, 0.0, stack[-1], None, None]
        else:
            span = [name, 0.0, 0.0, None, threading.current_thread().name, self.run_id]
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    def span(self, name: str):
        """Context manager opening a harness span (``perf.<name>``)."""
        return _SpanContext(self, f"{HARNESS}.{name}")

    def _shim(self, name: str, function):
        if inspect.isgeneratorfunction(function):
            return self._generator_shim(name, function)
        open_span, close_span = self._open, self._close

        @functools.wraps(function)
        def shim(*args, **kwargs):
            span = open_span(name)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(span)

        return shim

    def _generator_shim(self, name: str, function):
        recorder = self

        @functools.wraps(function)
        def shim(*args, **kwargs):
            recorder.generator_calls[name] += 1
            generator = function(*args, **kwargs)
            value, error = None, None
            while True:
                span = recorder._open(name)
                try:
                    if error is None:
                        yielded = generator.send(value)
                    else:
                        yielded = generator.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    recorder._close(span)
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as thrown:  # forwarded on the next resume
                    value, error = None, thrown

        return shim

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        """One JSON object per span, ids in completion order."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                root = span
                while root[PARENT] is not None:
                    root = root[PARENT]
                parent = span[PARENT]
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": None if parent is None else ids.get(id(parent)),
                            "thread": root[THREAD],
                            "run": root[RUN],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        return len(self.spans)


class _CountingSocket:
    """Stands in for a socket inside one send; counts the bytes sent."""

    __slots__ = ("_sock", "_sizes")

    def __init__(self, sock, sizes: list[int]) -> None:
        self._sock = sock
        self._sizes = sizes

    def sendall(self, data) -> None:
        self._sizes.append(len(data))
        self._sock.sendall(data)


def _counting_sender(send, sizes: list[int]):
    def counted(sock, payload):
        return send(_CountingSocket(sock, sizes), payload)

    return counted


class _SpanContext:
    __slots__ = ("_recorder", "_name", "_span")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> None:
        self._span = self._recorder._open(self._name)

    def __exit__(self, *exc_info) -> None:
        self._recorder._close(self._span)


def aggregate(spans: list[list]) -> tuple[dict[str, dict[str, float]], float]:
    """``({span name: {calls, busy_s, self_s}}, root_s)``.

    ``busy_s`` and ``calls`` count the outermost spans of a name only — a
    span opened directly inside a span of the same name (a wrapper workload
    delegating to the one it wraps) is not billed twice. ``self_s`` is
    exact for any nesting: every span's duration is added to its own name
    and subtracted from its parent's. ``root_s`` is the summed duration of
    the spans that have no parent (thread-seconds).
    """
    rows: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    root_s = 0.0
    for span in spans:
        name = span[NAME]
        duration = span[END] - span[START]
        row = rows[name]
        row["self_s"] += duration
        parent = span[PARENT]
        if parent is None:
            root_s += duration
        else:
            rows[parent[NAME]]["self_s"] -= duration
        if parent is None or parent[NAME] != name:
            row["calls"] += 1
            row["busy_s"] += duration
    return dict(rows), root_s

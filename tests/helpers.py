"""Test doubles and small utilities shared across the suite."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.deplist import DependencyList, UNBOUNDED
from repro.errors import KeyNotFound
from repro.types import CommittedTransaction, Key, Version, VersionedValue

__all__ = ["FakeBackend", "canonical_sha256", "json_from_child"]


def canonical_sha256(payload: object) -> str:
    """SHA-256 of ``payload`` as compact JSON with sorted keys."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def json_from_child(module: str, function: str, hash_seed: str = "0") -> object:
    """``module.function()`` evaluated in a child interpreter, back as JSON.

    The child runs with ``PYTHONHASHSEED=hash_seed``; the default ``"0"`` is
    what the benchmark's children use, and golden digests of seeded runs
    are recorded under it.  A drill passes other seeds to show that a
    result does not follow the string hash.
    """
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import json; from {module} import {function}; "
            f"print(json.dumps({function}()))",
        ],
        env={
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join(path for path in sys.path if path),
        },
        cwd=Path(__file__).resolve().parents[1],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


class FakeBackend:
    """An in-memory stand-in for the database's cache-facing surface.

    Provides ``read_entry`` plus helpers to install new versions with
    §III-A dependency-list maintenance, so cache unit tests can drive
    arbitrary version histories without a simulator or 2PC machinery.
    """

    def __init__(self, initial: dict[Key, object] | None = None, *, deplist_max: int = UNBOUNDED) -> None:
        self._entries: dict[Key, VersionedValue] = {}
        self._version: Version = 0
        self.deplist_max = deplist_max
        self.reads = 0
        self.history: list[CommittedTransaction] = []
        for key, value in (initial or {}).items():
            self._entries[key] = VersionedValue(key=key, value=value, version=0)

    # ------------------------------------------------------------------
    # BackendReader protocol
    # ------------------------------------------------------------------

    def read_entry(self, key: Key) -> VersionedValue:
        self.reads += 1
        entry = self._entries.get(key)
        if entry is None:
            raise KeyNotFound(key)
        return entry

    # ------------------------------------------------------------------
    # History construction
    # ------------------------------------------------------------------

    def commit(self, keys: list[Key], value: object = None) -> CommittedTransaction:
        """Run a read-all-write-all update transaction over ``keys``."""
        self._version += 1
        version = self._version
        reads = {key: self._entries[key].version for key in keys}
        direct = {key: version for key in keys}
        inherited = [DependencyList(self._entries[key].deps) for key in keys]
        for key in keys:
            deps = DependencyList.merge(
                direct, inherited, max_len=self.deplist_max, exclude=key
            )
            self._entries[key] = VersionedValue(
                key=key,
                value=value if value is not None else f"v{version}",
                version=version,
                deps=deps.entries,
            )
        committed = CommittedTransaction(
            txn_id=version, reads=reads, writes={key: version for key in keys}
        )
        self.history.append(committed)
        return committed

    def entry(self, key: Key) -> VersionedValue:
        return self._entries[key]

    def version_of(self, key: Key) -> Version:
        return self._entries[key].version

"""Append-only JSONL journals: the fleet daemon's durable memory.

Every completed sweep point the daemon accepts is appended — one JSON
object per line — to a per-sweep journal file before the worker is told
``ok``.  A daemon that is SIGKILLed mid-sweep therefore loses nothing it
acknowledged: restarted against the same ``--journal`` directory it
replays each file, rebuilds the sweep spec recorded in the header line
(through the same :meth:`SweepSpec.from_dict` round-trip the dispatch
layer already validates points with), and resumes serving only the
indices that have no journaled result.  Resubmitting an *identical* sweep
to a live daemon hits the same path: matching fingerprints attach to the
journaled state instead of recomputing.  The files are the only state:
``fleet status --journal-dir`` replays them too, and a daemon started with
``--journal-expiry`` moves finished ones to ``<journal_dir>/archive/``
during that same replay.

File layout (``<journal_dir>/<sweep>.jsonl``)::

    {"kind": "sweep", "schema": "repro.fleet-journal/1", "name": ...,
     "fingerprint": "sha256:...", "total": N, "spec": {...spec_artifact...}}
    {"kind": "point", "index": 3, "result": {...encode_result...}}
    {"kind": "point", "index": 0, "result": {...}}
    ...

Trust model — what replay does with a damaged file:

* **Truncated final line** (daemon died mid-append): skipped with a
  warning and the point is simply recomputed.  This is the one corruption
  an interrupted append legitimately produces, so it must not brick the
  journal.
* **Duplicate point index**: :class:`~repro.errors.JournalError`.  The
  daemon never appends an index twice, so a duplicate means the file was
  edited or two daemons shared a directory — silently trusting either
  line would hide real corruption.
* **Fingerprint mismatch** against the sweep being resumed:
  :class:`~repro.errors.JournalError`.  A journal written by a different
  grid must never seed this one's results.
* **Header ``total`` disagreeing with its spec's column count**:
  :class:`~repro.errors.JournalError`.  The fingerprint hashes the spec,
  not ``total``, and :meth:`SweepJournal.create` always writes the two
  equal — a mismatch means an edited header, which would otherwise queue
  points the journal then refuses to record.
* **Garbage anywhere else** (unreadable header, non-final corrupt line,
  out-of-range index): :class:`~repro.errors.JournalError` — loud, never
  silently recomputed.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import re
from dataclasses import dataclass, field
from typing import Mapping

from repro.dispatch.protocol import is_index
from repro.errors import ConfigurationError, JournalError
from repro.experiments.sweep import SweepSpec, spec_artifact

_LOGGER = logging.getLogger("repro.dispatch.journal")

__all__ = [
    "JOURNAL_SCHEMA",
    "ReplayedJournal",
    "SweepJournal",
    "journal_path",
    "list_journals",
    "sweep_fingerprint",
]

#: Version tag of the journal file layout, recorded in every header.
JOURNAL_SCHEMA = "repro.fleet-journal/1"

_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


def sweep_fingerprint(spec: SweepSpec) -> str:
    """Content hash of a sweep's full grid (spec, points, seeds).

    Two specs with the same fingerprint produce byte-identical results, so
    the fingerprint is what makes "resubmitting an identical sweep resumes
    it" safe: the daemon compares fingerprints, never just names.
    """
    canonical = json.dumps(
        spec_artifact(spec), sort_keys=True, separators=(",", ":")
    )
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def journal_path(journal_dir: str, name: str) -> str:
    """Where ``name``'s journal lives under ``journal_dir``."""
    safe = _SAFE_NAME.sub("_", name)
    if not safe or safe in (".", ".."):
        raise ConfigurationError(f"sweep name {name!r} has no safe filename")
    return os.path.join(journal_dir, f"{safe}.jsonl")


def list_journals(journal_dir: str) -> list[str]:
    """Every journal file in ``journal_dir``, sorted for determinism."""
    if not os.path.isdir(journal_dir):
        return []
    return sorted(
        os.path.join(journal_dir, entry)
        for entry in os.listdir(journal_dir)
        if entry.endswith(".jsonl")
    )


@dataclass(slots=True)
class ReplayedJournal:
    """What :meth:`SweepJournal.replay` recovered from one file."""

    path: str
    name: str
    fingerprint: str
    total: int
    #: Priority the sweep was submitted with (restored across restarts).
    priority: int
    #: The header's recorded grid, rebuildable via ``SweepSpec.from_dict``.
    spec_payload: dict
    #: Journaled wire results keyed by point index.
    results: dict[int, dict] = field(default_factory=dict)
    #: Human-readable notes for tolerated damage (truncated final line).
    warnings: list[str] = field(default_factory=list)

    def rebuild_spec(self) -> SweepSpec:
        """The journaled sweep as a live :class:`SweepSpec`.

        The round-trip is validated twice over: ``from_dict`` itself fails
        loudly for non-portable points, and the rebuilt spec must hash back
        to the journal's recorded fingerprint — a journal whose spec payload
        was edited cannot masquerade as the sweep it claims to be.
        """
        spec = SweepSpec.from_dict(self.spec_payload)
        rebuilt = sweep_fingerprint(spec)
        if rebuilt != self.fingerprint:
            raise JournalError(
                f"{self.path}: journaled spec rebuilds to fingerprint "
                f"{rebuilt}, header claims {self.fingerprint}"
            )
        return spec


class SweepJournal:
    """One sweep's append-only journal, open for appending.

    Use :meth:`create` for a brand-new sweep (writes the header) or
    :meth:`attach` to resume an existing file (replays, validates the
    fingerprint, then appends).  ``fsync=True`` makes every append survive
    machine crashes, not just process kills; the default flush-per-line is
    enough for the SIGKILL drills (the OS keeps flushed bytes).
    """

    def __init__(
        self,
        path: str,
        *,
        name: str,
        fingerprint: str,
        total: int,
        handle: io.TextIOBase,
        journaled: set[int],
        fsync: bool = False,
    ) -> None:
        self.path = path
        self.name = name
        self.fingerprint = fingerprint
        self.total = total
        self._handle = handle
        self._journaled = journaled
        self._fsync = fsync

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        journal_dir: str,
        spec: SweepSpec,
        *,
        name: str,
        priority: int = 0,
        fsync: bool = False,
    ) -> "SweepJournal":
        """Start a fresh journal for ``spec``; the file must not exist."""
        os.makedirs(journal_dir, exist_ok=True)
        path = journal_path(journal_dir, name)
        if os.path.exists(path):
            raise JournalError(
                f"journal {path} already exists; attach to it instead"
            )
        fingerprint = sweep_fingerprint(spec)
        handle = open(path, "x", encoding="utf-8")
        header = {
            "kind": "sweep",
            "schema": JOURNAL_SCHEMA,
            "name": name,
            "fingerprint": fingerprint,
            "total": len(spec.points),
            "priority": priority,
            "spec": spec_artifact(spec),
        }
        handle.write(json.dumps(header, separators=(",", ":")) + "\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
        return cls(
            path,
            name=name,
            fingerprint=fingerprint,
            total=len(spec.points),
            handle=handle,
            journaled=set(),
            fsync=fsync,
        )

    @classmethod
    def attach(
        cls,
        path: str,
        *,
        expected_fingerprint: str | None = None,
        fsync: bool = False,
    ) -> tuple["SweepJournal", ReplayedJournal]:
        """Replay ``path`` and reopen it for appending.

        ``expected_fingerprint`` guards resubmission: a live sweep being
        re-attached must hash to the same grid the journal recorded.
        """
        replayed = cls.replay(path, expected_fingerprint=expected_fingerprint)
        handle = open(path, "a", encoding="utf-8")
        journal = cls(
            path,
            name=replayed.name,
            fingerprint=replayed.fingerprint,
            total=replayed.total,
            handle=handle,
            journaled=set(replayed.results),
            fsync=fsync,
        )
        return journal, replayed

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    @staticmethod
    def replay(
        path: str, *, expected_fingerprint: str | None = None
    ) -> ReplayedJournal:
        """Read one journal file back; loud on corruption (module docstring)."""
        try:
            with open(path, encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") from exc
        lines = raw.split("\n")
        # A well-formed file ends in "\n", so the final split element is
        # empty; anything else is a mid-append truncation of the tail.
        truncated_tail = lines[-1] != ""
        tail = lines[-1]
        lines = lines[:-1]
        if not lines and not truncated_tail:
            raise JournalError(f"journal {path} is empty")
        if not lines:  # only a truncated fragment, not even a header
            raise JournalError(
                f"journal {path} has no complete header line "
                f"(found truncated fragment {tail[:80]!r})"
            )
        header = _parse_line(path, 1, lines[0])
        if header.get("kind") != "sweep":
            raise JournalError(
                f"{path}:1: first line must be the sweep header, "
                f"got kind={header.get('kind')!r}"
            )
        if header.get("schema") != JOURNAL_SCHEMA:
            raise JournalError(
                f"{path}:1: unknown journal schema {header.get('schema')!r} "
                f"(this build reads {JOURNAL_SCHEMA!r})"
            )
        name = header.get("name")
        fingerprint = header.get("fingerprint")
        total = header.get("total")
        priority = header.get("priority", 0)
        spec_payload = header.get("spec")
        if (
            not isinstance(name, str)
            or not isinstance(fingerprint, str)
            or not is_index(total)
            or total < 0
            or not is_index(priority)
            or not isinstance(spec_payload, Mapping)
            or not isinstance(spec_payload.get("columns"), list)
        ):
            raise JournalError(f"{path}:1: malformed sweep header")
        if total != len(spec_payload["columns"]):
            raise JournalError(
                f"{path}:1: header total {total} does not match the "
                f"{len(spec_payload['columns'])} columns of its spec"
            )
        if (
            expected_fingerprint is not None
            and fingerprint != expected_fingerprint
        ):
            raise JournalError(
                f"{path}: journal was written by a different sweep spec "
                f"(journal {fingerprint}, submitted {expected_fingerprint}) — "
                "refusing to seed its results"
            )
        replayed = ReplayedJournal(
            path=path,
            name=name,
            fingerprint=fingerprint,
            total=total,
            priority=priority,
            spec_payload=dict(spec_payload),
        )
        for lineno, line in enumerate(lines[1:], start=2):
            record = _parse_line(path, lineno, line)
            if record.get("kind") != "point":
                raise JournalError(
                    f"{path}:{lineno}: expected a point record, "
                    f"got kind={record.get('kind')!r}"
                )
            index = record.get("index")
            result = record.get("result")
            if not is_index(index) or not 0 <= index < total:
                raise JournalError(
                    f"{path}:{lineno}: point index {index!r} outside "
                    f"sweep of {total} points"
                )
            if index in replayed.results:
                raise JournalError(
                    f"{path}:{lineno}: duplicate journal entry for point "
                    f"{index} — the append-only contract was violated"
                )
            if not isinstance(result, Mapping):
                raise JournalError(
                    f"{path}:{lineno}: point {index} carries no result object"
                )
            replayed.results[index] = dict(result)
        if truncated_tail:
            # Kept on the replay record for the daemon's status report, and
            # logged so an operator replaying by hand sees it immediately.
            message = (
                f"{path}: final line is a truncated fragment "
                f"({len(tail)} bytes) — skipped; its point will be recomputed"
            )
            replayed.warnings.append(message)
            _LOGGER.warning("%s", message)
        return replayed

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def journaled_indices(self) -> frozenset[int]:
        return frozenset(self._journaled)

    def record(self, index: int, result: Mapping[str, object]) -> bool:
        """Append one completed point; ``False`` if it was already journaled.

        Flushed (and optionally fsynced) before returning, so the caller
        may acknowledge the worker knowing the result is durable.
        """
        if not 0 <= index < self.total:
            raise JournalError(
                f"{self.path}: refusing to journal index {index} outside "
                f"sweep of {self.total} points"
            )
        if index in self._journaled:
            return False
        line = json.dumps(
            {"kind": "point", "index": index, "result": dict(result)},
            separators=(",", ":"),
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
        self._journaled.add(index)
        return True

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _parse_line(path: str, lineno: int, line: str) -> dict:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise JournalError(
            f"{path}:{lineno}: unreadable journal line ({exc}) — "
            "only a truncated *final* line is tolerated"
        ) from exc
    if not isinstance(payload, dict):
        raise JournalError(
            f"{path}:{lineno}: journal lines must be JSON objects, "
            f"got {type(payload).__name__}"
        )
    return payload


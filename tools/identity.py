"""One check that a seed gives the same bytes on every executor::

    PYTHONPATH=src python tools/identity.py same A B [C ...]
    PYTHONPATH=src python tools/identity.py record OUT [VERB ...]

``same`` compares ``--json`` artifacts, ``--trace`` JSONL or ``record``
manifests modulo the run environment and names the first difference, with
both values.  ``record`` runs verbs (default: all twelve) through the CLI's
``main`` in this process under each of :data:`MODES`, hashes each run's
stdout, ``--json`` and trace, and names the verb, both modes and the first
difference when two modes disagree.  It measures the ``repro`` on
``PYTHONPATH``, so a parent commit is recorded from its worktree's ``src``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import logging
import os
import socket
import sys
import tempfile
import threading
from itertools import zip_longest

from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.worker import run_worker
from repro.errors import ConfigurationError, CoordinatorUnreachable
from repro.experiments.__main__ import EXPERIMENTS, build_parser, main
from repro.experiments.report import ARTIFACT_SCHEMA, normalized_artifact
from repro.experiments.sweep import SweepSpec, spec_artifact

MANIFEST_SCHEMA = "repro.identity/1"
#: Every verb's columns see traffic; all twelve verbs take ~4 min on 2 CPUs.
DURATION = 0.5
#: Each part of a run is compared with the first of these modes that has it.
MODES = ("serial", "serial+trace", "pool+trace", "dispatch", "fleet+trace")
REMOTE = ("dispatch", "fleet+trace")
#: The parts of a run; each is also the kind :func:`difference` reads it as.
PARTS = ("stdout", "json", "trace")
HOST = "127.0.0.1"
MISSING = object()
#: Canonical JSON sorts keys: a trace header opens so, a record with "cat".
HEADER = '{"kind":"header"'
_canonical = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _shown(value: object, limit: int = 120) -> str:
    text = "<missing>" if value is MISSING else value
    text = text if isinstance(text, str) else _canonical(text)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _first_difference(a: object, b: object, path: tuple = ()):
    """``(path, a, b)`` at the first leaf where two JSON values differ."""
    if type(a) is type(b) and isinstance(a, (dict, list)):
        a, b = (dict(enumerate(v)) if isinstance(v, list) else v for v in (a, b))
        for k in {**a, **b}:
            found = _first_difference(a.get(k, MISSING), b.get(k, MISSING), (*path, k))
            if found:
                return found
        return None
    if a is MISSING or b is MISSING or _canonical(a) != _canonical(b):
        return path, a, b
    return None


def comparable_artifact(document: dict) -> dict:
    """Each experiment's sections (by title) and sweep specs, normalised."""
    comparable = {}
    for experiment in document["experiments"]:
        sections = {part["title"]: part["rows"] for part in experiment["sections"]}
        comparable[experiment["experiment"]] = json.loads(
            normalized_artifact(
                {"sections": sections, "sweep_specs": experiment["sweep_specs"]}
            )
        )
    return comparable


def lines(kind: str, path: str):
    """A file's lines minus run metadata: stdout's bracketed lines
    (``[fig3 done in 1.2s]``), the wall clock of each trace header."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if kind == "trace" and line.startswith(HEADER):
                yield normalized_artifact(json.loads(line))
            elif kind == "trace" or not (line[:1] == "[" and line[-1:] == "]"):
                yield line


def difference(kind: str, a_path: str, b_path: str) -> str | None:
    """Where ``b_path`` first differs from ``a_path`` (None: nowhere); ``kind``
    is a part of :data:`PARTS` (an artifact is ``json``) or ``manifest``."""
    if kind in ("trace", "stdout"):
        pairs = zip_longest(lines(kind, a_path), lines(kind, b_path), fillvalue=MISSING)
        for number, (a, b) in enumerate(pairs, 1):
            if a != b:
                return f"line {number}: {_shown(a)} != {_shown(b)}"
        return None
    load = comparable_artifact if kind == "json" else lambda manifest: manifest
    with open(a_path, encoding="utf-8") as a, open(b_path, encoding="utf-8") as b:
        found = _first_difference(load(json.load(a)), load(json.load(b)))
    if found is None:
        return None
    path, a_value, b_value = found
    where = " / ".join(map(repr, path))
    return f"{where}: {_shown(a_value)} != {_shown(b_value)}"


def _kind(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        if handle.readline().startswith(HEADER):
            return "trace"
        handle.seek(0)
        schema = json.load(handle).get("schema")
    kinds = {ARTIFACT_SCHEMA: "json", MANIFEST_SCHEMA: "manifest"}
    if schema not in kinds:
        raise SystemExit(f"{path}: not a --json artifact, a trace or a manifest")
    return kinds[schema]


def same(paths: list[str]) -> int:
    """``same``'s exit status: 0 when every file matches the first."""
    kinds = set(map(_kind, paths))
    if len(kinds) > 1:
        raise SystemExit(f"same: files of different kinds: {sorted(kinds)}")
    kind, status = kinds.pop(), 0
    for path in paths[1:]:
        where = difference(kind, paths[0], path)
        print(f"{path}: {'same as ' + paths[0] if where is None else where}")
        status |= where is not None
    return status


def plan(verb: str) -> dict[str, str | None]:
    """Each mode's fate for ``verb``, from the specs the CLI builds for it:
    ``None`` runs the mode, a string says why it is skipped."""
    args = build_parser().parse_args([verb, "--duration", str(DURATION)])
    specs = EXPERIMENTS[verb].specs(args)
    if not specs:
        return {mode: None if mode == "serial" else "no sweeps" for mode in MODES}
    try:
        for spec in specs:  # what a dispatch daemon does with a submission
            SweepSpec.from_dict(spec_artifact(spec))
    except ConfigurationError:
        return {mode: "not portable" if mode in REMOTE else None for mode in MODES}
    return dict.fromkeys(MODES)


@contextlib.contextmanager
def _workers(mode: str, journal_dir: str):
    """Two worker threads serving ``--dispatch`` (a journal-less daemon per
    sweep, on one port) or a journaled ``--fleet`` daemon; yields the flag."""
    daemon = None
    if mode == "dispatch":
        with socket.socket() as probe:
            probe.bind((HOST, 0))
            port = probe.getsockname()[1]
    else:
        daemon = FleetDaemon(FleetConfig(host=HOST, journal_dir=journal_dir))
        port = daemon.address[1]
        daemon.start()
    stop = threading.Event()

    def serve(name: str) -> None:
        while not stop.is_set():
            with contextlib.suppress(CoordinatorUnreachable):
                run_worker(HOST, port, name=name, connect_timeout=0.5)

    threads = [threading.Thread(target=serve, args=(f"w{i}",)) for i in range(2)]
    for thread in threads:
        thread.start()
    try:
        yield [f"--{mode.removesuffix('+trace')}", f"{HOST}:{port}"]
    finally:
        stop.set()
        if daemon is not None:
            daemon.shutdown()
        for thread in threads:
            thread.join()


def _run(verb: str, mode: str, workdir: str) -> dict[str, str]:
    """Run ``verb`` under ``mode``; the file holding each part of the run."""
    prefix = os.path.join(workdir, mode)
    files = {"stdout": prefix + ".stdout", "json": prefix + ".json"}
    argv = [verb, "--duration", str(DURATION), "--json", files["json"]]
    if mode.endswith("+trace"):
        files["trace"] = prefix + ".trace.jsonl"
        argv += ["--trace", files["trace"]]
    if mode in REMOTE:
        executor = _workers(mode, prefix + ".journals")
    else:
        executor = contextlib.nullcontext(["--jobs", "2" if "pool" in mode else "1"])
    # In memory, not a file: a forked pool worker flushes what it inherited.
    stdout = io.StringIO()
    with executor as flags, contextlib.redirect_stdout(stdout):
        main(argv + flags)
    with open(files["stdout"], "w", encoding="utf-8") as handle:
        handle.write(stdout.getvalue())
    return files


def _hashes(files: dict[str, str]) -> dict[str, str]:
    """The sha256 of each part of a run, as :func:`difference` reads it."""
    hashes = {}
    for part, path in files.items():
        if part == "json":
            with open(path, encoding="utf-8") as handle:
                content = [_canonical(comparable_artifact(json.load(handle)))]
        else:
            content = lines(part, path)
        digest = hashlib.sha256()
        for line in content:
            digest.update(line.encode("utf-8") + b"\n")
        hashes[part] = "sha256:" + digest.hexdigest()
    return hashes


def record(out: str, verbs: list[str]) -> int:
    """``record``'s exit status: 0 when every verb agrees across its modes."""
    logging.basicConfig(level=logging.WARNING)  # daemon notes stay off the report
    manifest = {"schema": MANIFEST_SCHEMA, "duration": DURATION, "verbs": {}}
    failures = []
    for verb in verbs:
        before = len(failures)
        skipped = {mode: why for mode, why in plan(verb).items() if why}
        runs = [mode for mode in MODES if mode not in skipped]
        # Traces run to hundreds of megabytes: keep one verb's files at a time.
        with tempfile.TemporaryDirectory(prefix="identity-") as workdir:
            files = {mode: _run(verb, mode, workdir) for mode in runs}
            hashes = {mode: _hashes(files[mode]) for mode in runs}
            for part in PARTS:
                holders = [mode for mode in runs if part in files[mode]]
                for mode in holders[1:]:
                    first = holders[0]
                    if hashes[mode][part] != hashes[first][part]:
                        where = difference(part, files[first][part], files[mode][part])
                        failures.append(
                            f"{verb}: {mode} disagrees with {first} on {part}: {where}"
                        )
        manifest["verbs"][verb] = {m: hashes.get(m) or skipped[m] for m in MODES}
        status = "DISAGREE" if len(failures) > before else "same"
        notes = "".join(f"; {mode} {why}" for mode, why in skipped.items())
        print(f"{verb}: {status} across {', '.join(runs)}{notes}", flush=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    print("\n".join([*failures, f"[wrote {out}]"]))
    return 1 if failures else 0


def cli(argv: list[str]) -> int:
    command, *args = argv or [""]
    if command == "same" and len(args) >= 2:
        return same(args)
    if command == "record" and args and set(args[1:]) <= set(EXPERIMENTS):
        return record(args[0], args[1:] or list(EXPERIMENTS))
    usage = __doc__.split("\n\n")[1]
    print(f"{usage}\nVERB: {', '.join(EXPERIMENTS)}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(cli(sys.argv[1:]))

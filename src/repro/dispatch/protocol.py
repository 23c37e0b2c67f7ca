"""Length-prefixed JSON framing for the dispatch protocol.

Every dispatch message is one *frame*: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON encoding a single object.  The
framing is deliberately boring — stdlib ``socket`` on both sides, no
pickling (frames are inspectable on the wire and survive version skew
loudly instead of silently), bounded frame sizes so a corrupt or hostile
length prefix cannot make a peer allocate gigabytes.

The conversation is strictly request/reply from the peer's point of view:
the peer sends one frame (``hello``, ``request``, ``heartbeat``,
``goodbye``, …) and reads exactly one reply (``welcome``,
``chunk``/``wait``/``done``, ``ok``, ``error``, …).  That keeps both ends
free of interleaving concerns; the worker's background heartbeat thread
shares the socket under a lock (see :mod:`repro.dispatch.worker`).  A
worker's finished results ride on its next ``request`` or ``heartbeat``.

Message types (protocol version 3)
----------------------------------

There is one server — the :class:`~repro.dispatch.daemon.FleetDaemon`,
whether it lives for one ``--dispatch`` sweep or for months — and two
peer roles: workers (``wrk``) and submitters (``sub``).  After
``welcome`` the daemon answers from one verb table keyed by ``(role,
type)`` (:class:`~repro.dispatch.daemon.FleetDaemon`): a ``wrk → srv`` or
``sub → srv`` type sent by the other role, or any type not listed, gets
``error`` with ``code`` ``"protocol"``.

=============== ============ ===============================================
type            direction    payload
=============== ============ ===============================================
hello           peer → srv   ``worker`` (name), ``protocol`` (version),
                             ``role`` (``worker``, the default, or
                             ``submitter``)
challenge       srv → peer   ``nonce`` (only when the daemon has a secret;
                             see :mod:`repro.dispatch.auth`)
auth            peer → srv   ``mac`` (HMAC-SHA256 over the nonce)
welcome         srv → peer   ``service`` = ``"fleet"``, ``role``
request         wrk → srv    optional ``sweep``, ``results``: [[index,
                             result], …] (see :mod:`repro.dispatch.codec`);
                             with nothing to lease, the daemon holds the
                             reply up to its poll interval and answers
                             the moment work arrives or it stops
chunk           srv → wrk    ``sweep``, ``chunk_id``, ``points``:
                             [{``index``, ``point``}]
wait            srv → wrk    ``delay``: seconds to sleep before asking
                             again — 0, as the daemon held the request up
                             to its poll interval before answering; a
                             number in ``[0, MAX_SECONDS]``, else the
                             worker disconnects
done            srv → wrk    the daemon is stopping: leave cleanly (a
                             running daemon only ever says ``wait`` — new
                             sweeps may arrive at any time)
heartbeat       wrk → srv    optional ``sweep``, ``results`` as for
                             ``request``; extends the worker's leases
goodbye         peer → srv   — (clean disconnect)
ok              srv → wrk    ``extended`` (leases, for a heartbeat)
error           srv → peer   ``code`` (``"auth"`` for a failed challenge,
                             ``"protocol"`` for any other violation),
                             ``message``; the connection closes
submit          sub → srv    ``sweep`` (name), ``priority``, ``spec``
                             (a ``spec_artifact`` payload)
submitted       srv → sub    ``sweep``, ``created``, ``state``, ``total``,
                             ``completed``, ``resumed``
status          sub → srv    optional ``sweep`` filter
status_report   srv → sub    ``sweeps``: rows, ``workers``: rows,
                             ``daemon``: info
metrics         sub → srv    —
metrics_report  srv → sub    ``telemetry``: a ``repro.telemetry/1``
                             snapshot (daemon counters, per-sweep
                             progress/throughput gauges, worker EWMAs)
cancel          sub → srv    ``sweep``
cancelled       srv → sub    ``sweep``, ``existed``
fetch           sub → srv    ``sweep``, optional ``wait`` (seconds in
                             ``[0, MAX_SECONDS]``): the daemon holds a
                             running sweep's reply until it is done and
                             journaled, up to ``min(wait, lease_timeout)``
results         srv → sub    ``sweep``, ``total``, ``results``:
                             [[index, payload], …] (only once done)
pending         srv → sub    ``sweep``, ``state``, ``completed``, ``total``
                             (fetch before the sweep finished)
=============== ============ ===============================================

The reply to a frame carrying ``results`` adds ``accepted``: how many were new.

Integer fields (``index``, ``priority``) must be JSON integers: JSON
``true``/``false`` decode to Python ``bool``, an ``int`` subclass, so every
reader checks them with :func:`is_index` rather than ``isinstance(x, int)``.
Durations (``delay``, ``wait``) are checked with :func:`is_seconds`.
"""

from __future__ import annotations

import json
import socket
import struct

from repro.errors import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "MAX_SECONDS",
    "PROTOCOL_VERSION",
    "is_index",
    "is_seconds",
    "recv_frame",
    "send_frame",
]

#: Version of the message schema.  A peer whose version differs from the
#: server's is refused at ``hello`` time — mixed fleets must fail loudly,
#: not corrupt results.  Version 2 added the auth handshake and the
#: submitter verbs; version 3 retired the per-point ``result`` frame.
PROTOCOL_VERSION = 3

#: Upper bound on one frame's JSON payload.  Scenario results carry full
#: per-edge time series, so frames are allowed to be large — but never
#: unbounded: a corrupt length prefix must not turn into a giant allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Upper bound on a ``delay`` or ``wait``: a year, far past any poll
#: interval and well inside what ``time.sleep`` and lock timeouts accept.
MAX_SECONDS = 365 * 24 * 3600.0

_LENGTH = struct.Struct(">I")


def is_index(value: object) -> bool:
    """A JSON integer — ``bool`` is an ``int`` subclass and is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_seconds(value: object) -> bool:
    """A JSON number in ``[0, MAX_SECONDS]`` (and not ``true``/``false``)."""
    # int/float comparisons are exact, so no JSON integer is too large to
    # check, and NaN fails both bounds.
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 <= value <= MAX_SECONDS
    )


def send_frame(sock: socket.socket, payload: dict) -> None:
    """Serialise ``payload`` and send it as one length-prefixed frame."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frames must be JSON objects, got {type(payload).__name__}"
        )
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    sock.sendall(_LENGTH.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`ProtocolError` for truncated frames (EOF mid-frame), a
    length prefix of zero or beyond :data:`MAX_FRAME_BYTES`, payloads that
    are not valid UTF-8 JSON, and JSON values that are not objects.
    """
    header = _recv_exact(sock, _LENGTH.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    body = _recv_exact(sock, length, allow_eof=False)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frames must be JSON objects, got {type(payload).__name__}"
        )
    return payload


def _recv_exact(
    sock: socket.socket, count: int, *, allow_eof: bool
) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on immediate EOF if allowed."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)

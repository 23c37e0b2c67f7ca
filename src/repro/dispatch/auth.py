"""Shared-secret HMAC authentication for daemon connections.

A :class:`~repro.dispatch.daemon.FleetDaemon` without a secret trusts its
LAN: anyone who can reach the port can pull work.  With one — and workers
and submitters joining from anywhere — every connection must prove it
knows the fleet secret *before* any frame touches the queue.  The secret
is read from the ``REPRO_FLEET_SECRET`` environment variable by daemon,
worker and submitter alike, so a ``--dispatch`` run is authenticated the
same way a ``fleet serve`` one is.

The scheme is a classic challenge/response over the existing framing:

1. the peer sends ``hello`` (role, name, protocol version) as usual;
2. the daemon replies ``challenge`` carrying a fresh random *nonce*
   (one per connection, never reused, so a captured exchange cannot be
   replayed);
3. the peer replies ``auth`` with ``mac = HMAC-SHA256(secret,
   nonce || role || name)`` hex-encoded;
4. the daemon verifies with :func:`hmac.compare_digest` (constant-time,
   no timing oracle) and only then sends ``welcome``.

Binding the *role* and *name* into the MAC means a frame recorded from a
worker handshake cannot be replayed to authenticate a submitter, and vice
versa.  The secret itself never crosses the wire.  A daemon constructed
without a secret skips the challenge entirely (trusted-LAN mode); the
environment variable keeps the secret out of ``argv`` and shell history.
A failed challenge is answered with an ``error`` frame whose ``code`` is
``"auth"``, which is what peers raise :class:`AuthenticationError` from.

This is deliberately *authentication only*: frames are still cleartext on
the wire.  TLS for WAN deployments is the named follow-up in ROADMAP.md.
"""

from __future__ import annotations

import hmac
import os
import secrets

from repro.errors import AuthenticationError

__all__ = [
    "SECRET_ENV_VAR",
    "compute_mac",
    "issue_nonce",
    "secret_from_env",
    "verify_mac",
]

#: Where the CLI (``fleet serve``/``submit``/… and ``worker``) looks for
#: the shared secret.  Unset means unauthenticated (trusted-LAN) mode.
SECRET_ENV_VAR = "REPRO_FLEET_SECRET"

#: Bytes of entropy per challenge nonce (hex-encoded on the wire).
_NONCE_BYTES = 32


def issue_nonce() -> str:
    """A fresh per-connection challenge nonce (hex)."""
    return secrets.token_hex(_NONCE_BYTES)


def _message(nonce: str, role: str, name: str) -> bytes:
    # NUL separators keep ("ab", "c") and ("a", "bc") from colliding.
    return b"\x00".join(
        part.encode("utf-8") for part in ("repro-fleet-v1", nonce, role, name)
    )


def compute_mac(secret: str, nonce: str, role: str, name: str) -> str:
    """The hex MAC a peer presents for ``nonce`` as ``role``/``name``."""
    if not secret:
        raise AuthenticationError("cannot compute a MAC with an empty secret")
    return hmac.new(
        secret.encode("utf-8"), _message(nonce, role, name), "sha256"
    ).hexdigest()


def verify_mac(secret: str, nonce: str, role: str, name: str, mac: object) -> bool:
    """Constant-time check of a presented MAC; ``False`` for any mismatch.

    Never raises for bad *peer* input (a non-string MAC is simply wrong);
    an empty *local* secret is a configuration bug and raises.
    """
    if not isinstance(mac, str):
        return False
    expected = compute_mac(secret, nonce, role, name)
    return hmac.compare_digest(expected, mac)


def secret_from_env(env: dict[str, str] | None = None) -> str | None:
    """The fleet secret from :data:`SECRET_ENV_VAR`, ``None`` if unset/empty."""
    mapping = os.environ if env is None else env
    secret = mapping.get(SECRET_ENV_VAR)
    return secret or None

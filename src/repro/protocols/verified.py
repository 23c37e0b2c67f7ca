"""Verified reads: backend-signed version proofs at the edge (TransEdge-style).

TransEdge's threat model treats edges as untrusted: a client only accepts a
read if it carries a proof, signed by the backend, that the (key, version)
pair is genuine and recent. This module reproduces that shape inside the
simulator using the same HMAC plumbing idiom as the fleet's frame auth
(:mod:`repro.dispatch.auth`): a domain-tagged, NUL-joined message MAC'd
with SHA-256 and verified with :func:`hmac.compare_digest`.

Each backend gets one :class:`VerifiedReadService` acting as the signer;
its secret is derived deterministically from the backend's version
namespace so distributed runs reproduce serial runs bit-for-bit (there is
no real adversary inside the simulation — what the protocol pays for is
measured instead: every proof older than the freshness bound forces a
backend round trip to re-sign, which shows up as ``stats.retries`` /
backend load in the race artifact).

The cache keeps, per key, the proof for the cached version. A read is
served only when (a) the proof covers exactly the served version, (b) the
proof is younger than the freshness bound, and (c) the MAC verifies. A
failed bound or version match triggers a refetch-and-resign
(``proof_refreshes``); an actual MAC failure (``signature_failures``) is a
wiring bug and the unit suite asserts it stays zero.
"""

from __future__ import annotations

import hmac

from repro.cache.base import CacheServer
from repro.db.invalidation import InvalidationRecord
from repro.errors import ConfigurationError
from repro.types import (
    Key,
    ReadOnlyTransactionRecord,
    TxnId,
    Version,
    VersionedValue,
)

__all__ = ["VerifiedReadService", "VerifiedReadCache", "DEFAULT_FRESHNESS"]

#: Seconds a proof stays valid when the edge declares no ``ttl``.
DEFAULT_FRESHNESS = 0.5

#: Domain tag, mirroring ``repro.dispatch.auth``'s ``repro-fleet-v1``.
_SIGNATURE_DOMAIN = b"repro-verified-v1"


def _message(key: Key, version: Version, signed_at: float) -> bytes:
    # NUL-joined like dispatch.auth._message: none of the fields can contain
    # NUL once stringified, so the encoding is unambiguous.
    return b"\x00".join(
        (_SIGNATURE_DOMAIN, str(key).encode(), str(version).encode(), repr(signed_at).encode())
    )


class VerifiedReadService:
    """Per-backend signer issuing version proofs to its edges."""

    def __init__(self, sim, database) -> None:
        self._sim = sim
        self.namespace: str | None = getattr(database, "namespace", None)
        # Deterministic per-namespace secret: the simulation has no real
        # adversary, and a derived secret keeps fleet runs byte-identical.
        self._secret = f"repro-verified/{self.namespace or 'db'}".encode()
        #: Proofs issued, i.e. signing load on the backend.
        self.signatures_issued = 0

    def sign(self, key: Key, version: Version, signed_at: float) -> str:
        self.signatures_issued += 1
        return self._mac(key, version, signed_at)

    def verify(self, key: Key, version: Version, signed_at: float, mac: object) -> bool:
        if not isinstance(mac, str):
            return False
        return hmac.compare_digest(self._mac(key, version, signed_at), mac)

    def _mac(self, key: Key, version: Version, signed_at: float) -> str:
        return hmac.new(self._secret, _message(key, version, signed_at), "sha256").hexdigest()


class VerifiedReadCache(CacheServer):
    """Edge cache that refuses to serve a version without a live proof."""

    def __init__(
        self,
        sim,
        backend,
        *,
        service: VerifiedReadService,
        freshness: float = DEFAULT_FRESHNESS,
        capacity=None,
        name="verified-cache",
    ):
        if freshness <= 0:
            raise ConfigurationError(f"freshness must be positive, got {freshness}")
        super().__init__(sim, backend, capacity=capacity, name=name)
        self._service = service
        self.freshness = freshness
        #: key -> (version, signed_at, mac) for the cached entry.
        self._proofs: dict[Key, tuple[Version, float, str]] = {}
        #: Serves that needed a refetch-and-resign round trip.
        self.proof_refreshes = 0
        #: Proof MACs verified before serving.
        self.signatures_verified = 0
        #: MACs that failed verification — a wiring bug if ever nonzero.
        self.signature_failures = 0

    # ------------------------------------------------------------------
    # Consistency hook
    # ------------------------------------------------------------------

    def _check_read(
        self,
        txn_id: TxnId,
        record: ReadOnlyTransactionRecord,
        entry: VersionedValue,
    ) -> tuple[VersionedValue, bool]:
        key = entry.key
        now = self._sim.now
        proof = self._proofs.get(key)
        retried = False
        if (
            proof is None
            or proof[0] != entry.version
            or now - proof[1] >= self.freshness
        ):
            # Stale or missing proof: refetch the authoritative version and
            # have the backend sign it (one round trip covers both).
            self.proof_refreshes += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(
                    now,
                    "protocol",
                    "proof_refresh",
                    {
                        "cache": self.name,
                        "key": key,
                        "reason": "missing"
                        if proof is None
                        else ("version" if proof[0] != entry.version else "expired"),
                    },
                )
            self.stats.retries += 1
            entry = self._backend.read_entry(key)
            self.storage.put(entry, now)
            proof = self._issue_proof(entry, now)
            retried = True
        version, signed_at, mac = proof
        self.signatures_verified += 1
        if not self._service.verify(key, version, signed_at, mac):
            self.signature_failures += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.emit(
                    now,
                    "protocol",
                    "proof_verify_fail",
                    {"cache": self.name, "key": key, "version": version},
                )
        return entry, retried

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _issue_proof(self, entry: VersionedValue, signed_at: float) -> tuple[Version, float, str]:
        proof = (
            entry.version,
            signed_at,
            self._service.sign(entry.key, entry.version, signed_at),
        )
        self._proofs[entry.key] = proof
        return proof

    def _fetch(self, key: Key) -> VersionedValue:
        entry = super()._fetch(key)
        # A miss is served straight from the backend; sign it on the way in.
        self._issue_proof(entry, self._sim.now)
        return entry

    def handle_invalidation(self, record: InvalidationRecord) -> None:
        super().handle_invalidation(record)
        proof = self._proofs.get(record.key)
        if proof is not None and proof[0] < record.version:
            del self._proofs[record.key]

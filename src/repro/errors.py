"""Exception hierarchy for the T-Cache reproduction.

Every error raised by this package derives from :class:`ReproError`, so
applications can catch the whole family with a single ``except`` clause while
still being able to distinguish the transactional outcomes that the paper's
protocol produces (aborts, detected inconsistencies) from genuine misuse of
the API (unknown keys, double commits, protocol violations).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TransactionError",
    "TransactionAborted",
    "InconsistencyDetected",
    "DeadlockDetected",
    "LockTimeout",
    "TwoPhaseCommitError",
    "ParticipantFailure",
    "KeyNotFound",
    "InvalidTransactionState",
    "SimulationError",
    "ProcessKilled",
    "ConfigurationError",
    "CoordinatorUnreachable",
    "DispatchError",
    "AuthenticationError",
    "JournalError",
    "ProtocolError",
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class TransactionError(ReproError):
    """Base class for transaction-related failures."""

    def __init__(self, txn_id: int, message: str) -> None:
        super().__init__(f"transaction {txn_id}: {message}")
        self.txn_id = txn_id


class TransactionAborted(TransactionError):
    """The transaction was aborted and its effects discarded.

    Raised both by the database (deadlock avoidance, explicit abort,
    participant failure) and by T-Cache when the ABORT / EVICT / RETRY
    strategies decide that a read-only transaction must not commit.
    """

    def __init__(self, txn_id: int, reason: str = "aborted") -> None:
        super().__init__(txn_id, reason)
        self.reason = reason


class InconsistencyDetected(TransactionAborted):
    """T-Cache detected a dependency violation (Eq. 1 or Eq. 2, §III-B).

    Carries enough structure for the strategies (and for tests) to know which
    object violated which expectation.
    """

    def __init__(
        self,
        txn_id: int,
        key: str,
        found_version: int,
        required_version: int,
        *,
        stale_read_is_current: bool,
    ) -> None:
        kind = "current read too old" if stale_read_is_current else "earlier read too old"
        super().__init__(
            txn_id,
            (
                f"inconsistency on {key!r}: found version {found_version}, "
                f"dependencies require >= {required_version} ({kind})"
            ),
        )
        self.key = key
        self.found_version = found_version
        self.required_version = required_version
        #: True when Eq. 2 fired (the object being read right now is stale);
        #: False when Eq. 1 fired (an object read earlier in the transaction
        #: turned out to be stale).
        self.stale_read_is_current = stale_read_is_current


class DeadlockDetected(TransactionError):
    """The lock manager refused a lock to break a deadlock (wound-wait)."""


class LockTimeout(TransactionError):
    """A lock request waited longer than the configured bound."""


class TwoPhaseCommitError(TransactionError):
    """The two-phase-commit protocol could not complete."""


class ParticipantFailure(ReproError):
    """A storage participant crashed or voted NO during 2PC."""

    def __init__(self, participant: str, message: str) -> None:
        super().__init__(f"participant {participant}: {message}")
        self.participant = participant


class KeyNotFound(ReproError):
    """The requested key does not exist in the store."""

    def __init__(self, key: str) -> None:
        super().__init__(f"key not found: {key!r}")
        self.key = key


class InvalidTransactionState(TransactionError):
    """An operation was attempted in a state that does not allow it."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation kernel."""


class ProcessKilled(ReproError):
    """Injected into a simulation process that is being killed."""


class ConfigurationError(ReproError):
    """An experiment or component was configured with invalid parameters."""


class DispatchError(ReproError):
    """The cross-host dispatch layer could not complete an operation.

    Raised by the daemon/worker machinery (:mod:`repro.dispatch`) for
    failures that are not mere worker deaths — those are tolerated and
    reassigned.  Serving side: a name collision between different grids,
    or results missing after serving stopped.  Worker side: no daemon
    reachable within the connect timeout (:class:`CoordinatorUnreachable`)
    or a refused handshake.  A daemon whose workers all die simply keeps
    serving the re-queued work until new workers arrive — that is a wait,
    not an error.
    """


class CoordinatorUnreachable(DispatchError):
    """No daemon accepted the peer's connection before the timeout.

    The one :class:`DispatchError` that means "nothing is listening" rather
    than "something went wrong" — long-lived workers use it to decide they
    are idle and may exit cleanly.
    """


class ProtocolError(DispatchError):
    """A malformed frame arrived on a dispatch connection.

    Covers framing violations (bad length prefix, oversized or truncated
    frames), payloads that are not JSON objects, and messages whose type or
    fields do not fit the dispatch protocol.
    """


class AuthenticationError(DispatchError):
    """A fleet peer failed the shared-secret HMAC handshake.

    Raised server-side when a connection presents no credential, a stale
    nonce, or a MAC computed with the wrong secret — always *before* the
    connection touches the fleet queue — and client-side when a daemon
    demands a challenge the client has no secret for (or rejects ours).
    """


class JournalError(DispatchError):
    """A fleet journal cannot be trusted.

    Raised when replaying an append-only sweep journal finds structural
    corruption: an unreadable header, a record for a point index outside
    the sweep, a *duplicate* point index (the append-only contract was
    violated), or a journal whose recorded spec fingerprint does not match
    the sweep being resumed.  A truncated *final* line — the one failure
    mode an interrupted append legitimately produces — is skipped with a
    warning instead, because everything before it is still intact.
    """

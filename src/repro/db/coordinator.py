"""The two-phase-commit driver for update transactions.

The coordinator executes each update transaction as a simulation process:
lock acquisition (strict 2PL, wound-wait), execution (read the current
versions, compute new values), PREPARE at every involved participant, then
the commit decision — at which point the transaction receives its *version*
(a global commit-sequence number, satisfying §III-A's requirement that a
transaction's version exceed the versions of all objects it accessed) and its
§III-A dependency lists are computed and installed with every written object.

Every per-transaction decision is taken once, when the process starts: which
participant stores each key (one ``key -> participant`` dict in the order the
keys are read), the participant list derived from it, the write set, and the
wound callback. The lock, execute, commit and abort code are handed those;
none of them asks the placement function again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Callable, Mapping, Sequence

from repro.core.deplist import UNBOUNDED, DependencyList
from repro.db.participant import Participant
from repro.db.wal import RecordType, WriteAheadLog
from repro.errors import (
    DeadlockDetected,
    InvalidTransactionState,
    ParticipantFailure,
    ReproError,
    TransactionAborted,
    TwoPhaseCommitError,
)
from repro.db.locks import LockMode
from repro.sim.core import Simulator
from repro.types import CommittedTransaction, Key, TxnId, Version, VersionedValue

__all__ = ["Coordinator", "TransactionHandle", "TransactionState", "TimingProfile"]

#: 2PC visits the participants of a transaction in name order.
_PARTICIPANT_NAME = attrgetter("name")


class TransactionState(Enum):
    ACTIVE = "active"
    PREPARING = "preparing"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(slots=True)
class TimingProfile:
    """Simulated latencies of the transaction phases, in seconds.

    Defaults give an update transaction a footprint of a few milliseconds,
    matching the paper's setting where 100 update transactions per second
    overlap only occasionally but genuinely contend under clustered access.
    """

    lock_delay: float = 0.0
    execute_delay: float = 0.002
    prepare_delay: float = 0.001
    commit_delay: float = 0.001


@dataclass(slots=True)
class TransactionHandle:
    """Coordinator-side state of one update transaction."""

    txn_id: TxnId
    age: int
    read_keys: tuple[Key, ...]
    write_keys: tuple[Key, ...]
    #: Every key the transaction touches, once each: the read keys, then the
    #: keys it only writes. The order its reads happen in.
    keys: tuple[Key, ...]
    compute: Callable[[dict[Key, VersionedValue]], Mapping[Key, object]]
    start_time: float
    state: TransactionState = TransactionState.ACTIVE
    wounded: bool = False
    abort_reason: str | None = None
    reads: dict[Key, VersionedValue] = field(default_factory=dict)


class Coordinator:
    """Drives 2PC over a set of participants with a shared version counter."""

    def __init__(
        self,
        sim: Simulator,
        shard_for: Callable[[Key], Participant],
        *,
        timing: TimingProfile,
        allocate_version: Callable[[], Version],
        deplist_max: int,
        wal: WriteAheadLog,
        deplist_bound_for: Callable[[Key], int] | None = None,
        pinned_for: Callable[[Key], frozenset[Key]] | None = None,
        pruning_policy: str = "lru",
    ) -> None:
        self._sim = sim
        self._shard_for = shard_for
        # Phase delays are slept on (``yield delay``), which takes an exact
        # float; a profile built from JSON may carry ints.
        self._lock_delay = float(timing.lock_delay)
        self._execute_delay = float(timing.execute_delay)
        self._prepare_delay = float(timing.prepare_delay)
        self._commit_delay = float(timing.commit_delay)
        self._allocate_version = allocate_version
        self._deplist_max = deplist_max
        self._deplist_bound_for = deplist_bound_for
        self._pinned_for = pinned_for
        self._pruning_policy = pruning_policy
        self.wal = wal
        #: Commit decisions by txn id, consulted during participant recovery
        #: (presumed abort: missing means aborted).
        self.decisions: dict[TxnId, bool] = {}
        self.committed_count = 0
        self.aborted_count = 0

    # ------------------------------------------------------------------
    # The transaction process
    # ------------------------------------------------------------------

    def run_transaction(self, txn: TransactionHandle):
        """Generator to be driven as a simulation process.

        Returns the :class:`CommittedTransaction` on success; raises
        :class:`TransactionAborted` when wounded or when a participant
        fails.
        """
        # The plan: placement asked once per key, everything else derived.
        shard_for = self._shard_for
        shards = {key: shard_for(key) for key in txn.keys}
        participants = list(set(shards.values()))
        if len(participants) > 1:  # one participant: nothing to order
            participants.sort(key=_PARTICIPANT_NAME)
        write_set = frozenset(txn.write_keys)
        on_wound = self._wound_handler(txn, participants)
        try:
            for participant in participants:
                participant.register_txn(txn.txn_id, txn.age, on_wound)
            yield from self._lock_phase(txn, shards, write_set)
            yield from self._execute_phase(txn, shards, write_set)
            votes_ok = yield from self._prepare_phase(txn, participants)
            if not votes_ok:
                raise TwoPhaseCommitError(txn.txn_id, "a participant voted NO")
            result = yield from self._commit_phase(txn, participants, write_set)
            return result
        except ReproError as error:
            self._abort(txn, participants, reason=str(error))
            raise TransactionAborted(txn.txn_id, txn.abort_reason or str(error)) from error

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _lock_phase(
        self,
        txn: TransactionHandle,
        shards: Mapping[Key, Participant],
        write_set: frozenset[Key],
    ):
        txn_id = txn.txn_id
        lock_delay = self._lock_delay
        # Deterministic global order keeps the common path deadlock-light;
        # wound-wait still protects arbitrary orders (exercised in tests).
        for key in sorted(shards):
            self._check_wounded(txn)
            mode = LockMode.EXCLUSIVE if key in write_set else LockMode.SHARED
            yield shards[key].lock(txn_id, key, mode)
            if lock_delay:
                yield lock_delay
        self._check_wounded(txn)

    def _execute_phase(
        self,
        txn: TransactionHandle,
        shards: Mapping[Key, Participant],
        write_set: frozenset[Key],
    ):
        if self._execute_delay:
            yield self._execute_delay
        self._check_wounded(txn)
        txn_id = txn.txn_id
        reads = txn.reads
        for key, participant in shards.items():
            reads[key] = participant.read(txn_id, key)
        new_values = txn.compute(dict(reads))
        unexpected = [key for key in new_values if key not in write_set]
        if unexpected:
            raise InvalidTransactionState(
                txn_id, f"writes outside the declared write set: {sorted(unexpected)}"
            )
        for key, value in new_values.items():
            shards[key].buffer_write(txn_id, key, value)

    def _prepare_phase(self, txn: TransactionHandle, participants: Sequence[Participant]):
        self._check_wounded(txn)
        txn.state = TransactionState.PREPARING
        votes: list[bool] = []
        for participant in participants:
            if self._prepare_delay:
                yield self._prepare_delay
            votes.append(participant.prepare(txn.txn_id))
        if all(votes):
            txn.state = TransactionState.PREPARED
            return True
        return False

    def _commit_phase(
        self,
        txn: TransactionHandle,
        participants: Sequence[Participant],
        write_set: frozenset[Key],
    ):
        version = self._allocate_version()
        deps_per_key = self._dependency_lists(txn, version, write_set)
        self.decisions[txn.txn_id] = True
        self.wal.append(RecordType.DECISION_COMMIT, txn.txn_id, version)
        if self._commit_delay:
            yield self._commit_delay
        installed: list[VersionedValue] = []
        for participant in participants:
            installed.extend(participant.commit(txn.txn_id, version, deps_per_key))
        txn.state = TransactionState.COMMITTED
        self.committed_count += 1
        committed = CommittedTransaction(
            txn_id=version,
            reads={key: value.version for key, value in txn.reads.items()},
            writes=dict.fromkeys(txn.write_keys, version),
            commit_time=self._sim.now,
        )
        return _CommitOutcome(committed, tuple(installed), version)

    # ------------------------------------------------------------------
    # Dependency list computation (§III-A)
    # ------------------------------------------------------------------

    def _dependency_lists(
        self, txn: TransactionHandle, version: Version, write_set: frozenset[Key]
    ) -> dict[Key, DependencyList]:
        """The full-dep-list aggregation, pruned per written object.

        Direct entries: written objects at the *new* version (a dependant
        must see the transaction's effect), purely-read objects at the
        version observed. Inherited entries: the dependency lists stored
        with every object in the read and write sets. Each written object
        stores the merge minus its self-entry, pruned to its own bound.

        The aggregation runs once per commit and is projected per written
        object; only an object with pinned dependencies (§VII), whose
        pruning order is its own, is merged separately. The shared merge
        keeps one entry more than the largest bound among the objects it
        serves: an object with bound ``b`` stores the first ``b`` entries
        that are not its own, all of which sit among the leading ``b + 1``.
        """
        # The execute phase read every key of the transaction, written-only
        # keys included, so ``txn.reads`` covers the write set.
        direct = {
            key: version if key in write_set else entry.version
            for key, entry in txn.reads.items()
        }
        # Stored deps tuples are the entries of lists this merge built at
        # earlier commits; merge takes them as they are.
        inherited = [entry.deps for entry in txn.reads.values()]
        policy = self._pruning_policy
        pinned_for = self._pinned_for
        deps_per_key: dict[Key, DependencyList] = {}
        shared: dict[Key, int] = {}
        for key in txn.write_keys:
            pinned = pinned_for(key) if pinned_for else None
            if pinned:
                deps_per_key[key] = DependencyList.merge(
                    direct,
                    inherited,
                    max_len=self._bound_for(key),
                    exclude=key,
                    pinned=pinned,
                    policy=policy,
                )
            else:
                shared[key] = self._bound_for(key)
        if shared:
            bounds = shared.values()
            full = DependencyList.merge(
                direct,
                inherited,
                max_len=UNBOUNDED if UNBOUNDED in bounds else max(bounds) + 1,
                policy=policy,
            )
            for key, bound in shared.items():
                deps_per_key[key] = full.without(key, bound)
        return deps_per_key

    def _bound_for(self, key: Key) -> int:
        """Per-object dependency-list bound (§VII extension).

        Falls back to the global bound when no override is registered.
        """
        if self._deplist_bound_for is not None:
            override = self._deplist_bound_for(key)
            if override is not None:
                return override
        return self._deplist_max

    # ------------------------------------------------------------------
    # Abort handling
    # ------------------------------------------------------------------

    def _wound_handler(
        self, txn: TransactionHandle, participants: Sequence[Participant]
    ) -> Callable[[TxnId], None]:
        """The callback every participant of ``txn`` registers: one per
        transaction, whichever participant's lock manager delivers it."""

        def on_wound(_victim: TxnId) -> None:
            # A transaction that reached PREPARING is immune: a prepared
            # participant may no longer unilaterally abort, and prepared
            # transactions never wait for locks, so no deadlock can involve
            # them.
            if txn.state is not TransactionState.ACTIVE or txn.wounded:
                return
            txn.wounded = True
            txn.abort_reason = "wounded by an older transaction"
            self._abort_at(participants, txn.txn_id)

        return on_wound

    def _check_wounded(self, txn: TransactionHandle) -> None:
        if txn.wounded:
            raise DeadlockDetected(txn.txn_id, "wounded by an older transaction")

    def _abort(
        self, txn: TransactionHandle, participants: Sequence[Participant], *, reason: str
    ) -> None:
        if txn.state in (TransactionState.COMMITTED, TransactionState.ABORTED):
            return
        txn.state = TransactionState.ABORTED
        txn.abort_reason = txn.abort_reason or reason
        self.decisions.setdefault(txn.txn_id, False)
        self.wal.append(RecordType.DECISION_ABORT, txn.txn_id, reason)
        self.aborted_count += 1
        self._abort_at(participants, txn.txn_id)

    @staticmethod
    def _abort_at(participants: Sequence[Participant], txn_id: TxnId) -> None:
        for participant in participants:
            try:
                participant.abort(txn_id)
            except ParticipantFailure:
                continue


@dataclass(slots=True)
class _CommitOutcome:
    """Internal return value of a successful transaction process."""

    committed: CommittedTransaction
    installed: tuple[VersionedValue, ...]
    version: Version

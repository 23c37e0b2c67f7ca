"""The inconsistency checks of §III-B (Equations 1 and 2).

On a read of ``key_curr`` returning version ``ver_curr`` with dependency list
``deps_curr``, the cache checks the read against every previous read of the
same transaction:

* **Equation 1** — a previously read version ``v'`` of some key ``k`` is
  older than the version ``v`` the current read's dependency list expects::

      exists k, v, v': v > v' and (k, v) in depList_curr
                                and (k, v') in readSet

  Here the *previous* read is the stale one: the transaction already returned
  a value that the current read proves outdated.

* **Equation 2** — the version of the current read is older than the version
  expected by the dependencies (or direct reads) of a previous read::

      exists v: v > ver_curr and (key_curr, v) in readSet-with-deps

  Here the *current* read is the stale one: the cache entry for ``key_curr``
  predates a version some earlier read depends on.

The distinction matters to the strategies (§III-B): RETRY can repair an
Equation 2 violation by re-reading ``key_curr`` from the database, but an
Equation 1 violation poisons a value already handed to the client, so the
transaction must abort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.records import TransactionContext
from repro.types import DepEntry, Key, Version

__all__ = ["InconsistencyReport", "check_read", "check_equation1", "check_equation2"]


@dataclass(frozen=True, slots=True)
class InconsistencyReport:
    """A detected dependency violation.

    ``stale_key`` names the object whose observed version is too old —
    the current read for Equation 2, an earlier read for Equation 1.
    """

    #: Which rule fired: 1 or 2.
    equation: int
    #: The object observed at a too-old version.
    stale_key: Key
    #: The too-old version that was observed.
    found_version: Version
    #: The minimum version the dependencies demand.
    required_version: Version
    #: The read whose dependency list raised the requirement.
    demanding_key: Key

    @property
    def stale_read_is_current(self) -> bool:
        """True when the *current* read is the stale one (Equation 2)."""
        return self.equation == 2


def check_equation2(
    context: TransactionContext, key_curr: Key, ver_curr: Version
) -> InconsistencyReport | None:
    """Is the current read older than what previous reads require?"""
    requirement = context.required_version(key_curr)
    if requirement is None:
        return None
    required, demanding_key = requirement
    if required > ver_curr:
        return InconsistencyReport(
            equation=2,
            stale_key=key_curr,
            found_version=ver_curr,
            required_version=required,
            demanding_key=demanding_key,
        )
    return None


def check_equation1(
    context: TransactionContext, key_curr: Key, deps_curr: Iterable[DepEntry]
) -> InconsistencyReport | None:
    """Does the current read prove some previous read stale?"""
    for entry in deps_curr:
        previous = context.version_read(entry.key)
        if previous is not None and entry.version > previous:
            return InconsistencyReport(
                equation=1,
                stale_key=entry.key,
                found_version=previous,
                required_version=entry.version,
                demanding_key=key_curr,
            )
    return None


def check_repeated_read(
    context: TransactionContext, key_curr: Key, ver_curr: Version
) -> InconsistencyReport | None:
    """Non-repeatable read: the same key was read earlier at an *older*
    version.

    Equation 2 covers the mirror case (earlier read newer than the current
    one). Here the earlier read is the stale one — no serialization point
    can expose two versions of the same object to one transaction — so the
    violation is classified like Equation 1: the value already returned is
    poisoned and the transaction must abort.
    """
    previous = context.version_read(key_curr)
    if previous is not None and ver_curr > previous:
        return InconsistencyReport(
            equation=1,
            stale_key=key_curr,
            found_version=previous,
            required_version=ver_curr,
            demanding_key=key_curr,
        )
    return None


def check_read(
    context: TransactionContext,
    key_curr: Key,
    ver_curr: Version,
    deps_curr: Iterable[DepEntry],
) -> InconsistencyReport | None:
    """Run all checks for a read, Equation 2 first.

    Equation 2 is checked first because its violation is repairable by
    RETRY; if both violations exist, repairing the current read first is
    strictly better — the Equation 1 check then runs against the fresh
    value's dependency list inside the retry path.
    """
    # The three checks are inlined (rather than delegated to the functions
    # above, which remain the documented/testable forms) because this runs
    # once per transactional read and is dominated by call overhead. The
    # fast path — no violation — is three dict probes and a deplist scan.
    requirement = context.requirements.get(key_curr)
    if requirement is not None and requirement[0] > ver_curr:
        return InconsistencyReport(
            equation=2,
            stale_key=key_curr,
            found_version=ver_curr,
            required_version=requirement[0],
            demanding_key=requirement[1],
        )
    previous = context.read_versions.get(key_curr)
    if previous is not None and ver_curr > previous:
        return InconsistencyReport(
            equation=1,
            stale_key=key_curr,
            found_version=previous,
            required_version=ver_curr,
            demanding_key=key_curr,
        )
    read_versions = context.read_versions
    for entry in deps_curr:
        previous = read_versions.get(entry.key)
        if previous is not None and entry.version > previous:
            return InconsistencyReport(
                equation=1,
                stale_key=entry.key,
                found_version=previous,
                required_version=entry.version,
                demanding_key=key_curr,
            )
    return None

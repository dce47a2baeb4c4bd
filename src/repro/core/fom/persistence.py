"""Volatile/persistent marking and crash recovery.

Paper §3.1: "all data lives in files that can be marked at any time as
volatile or persistent to indicate whether they should survive process
terminations and system restarts" — an O(1) flag flip on the inode, not a
data copy.  And the security obligation that follows: "for volatile data,
the OS explicitly erases memory before reusing it following a failure",
which is linear unless an O(1) erase strategy (crypto erase) is plugged
in.

:class:`PersistenceManager` implements both: the marking API, and the
post-crash recovery sweep that erases (or crypto-revokes) volatile files
and reports the persistent survivors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.fom.manager import FileOnlyMemory, FomRegion
from repro.errors import FileSystemError
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel


@dataclass
class RecoveryReport:
    """Outcome of a post-crash recovery sweep."""

    survivors: List[str]
    erased: List[str]
    erase_ns: int
    #: True when the O(1) (crypto) erase path was used.
    constant_time_erase: bool


class PersistenceManager:
    """Marks files volatile/persistent and recovers after crashes."""

    def __init__(self, fom: FileOnlyMemory, crypto_erase: bool = False) -> None:
        self._fom = fom
        self._kernel = fom._kernel
        #: With crypto erase, revoking a per-file key erases it in O(1).
        self.crypto_erase = crypto_erase

    # ------------------------------------------------------------------
    # Marking — O(1), whole-file
    # ------------------------------------------------------------------
    def mark_persistent(self, region: FomRegion) -> None:
        """Flag a region's file to survive restarts (one inode bit)."""
        if not region.inode.fs.persistent:
            raise FileSystemError(
                f"{region.path!r} lives on volatile fs "
                f"{region.inode.fs.name!r}; move it to PMFS to persist"
            )
        region.persistent = True
        region.inode.persistent = True
        self._kernel.counters.bump("fom_mark_persistent")

    def mark_volatile(self, region: FomRegion) -> None:
        """Flag a region's file to be erased at recovery."""
        region.persistent = False
        region.inode.persistent = False
        self._kernel.counters.bump("fom_mark_volatile")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Post-crash sweep of the persistent file system.

        Persistent files survive untouched.  Volatile files must be
        erased before their frames can be reused: linearly (zero every
        page) by default, or in constant time per file with crypto erase.
        Pre-created page-table caches drop their non-persistent entries.
        """
        fs = self._fom.fs
        if not fs.persistent:
            # Nothing survived at all; recovery is trivially empty.
            return RecoveryReport(
                survivors=[], erased=[], erase_ns=0, constant_time_erase=self.crypto_erase
            )
        clock = self._kernel.clock
        costs = self._kernel.costs
        survivors: List[str] = []
        erased: List[str] = []
        erase_start = clock.now
        chaos = self._kernel.counters.chaos
        for path, inode in list(fs.iter_files()):
            if chaos is not None:
                # One crash point per file examined: recovery itself must
                # survive a power failure at any step (it is idempotent —
                # already-unlinked files are gone from iter_files).
                chaos.hit("fom.recover.file")
            if inode.persistent:
                survivors.append(path)
                continue
            if self.crypto_erase:
                # Key revocation: constant per file.
                clock.advance(120)
                self._kernel.counters.bump("crypto_key_destroy")
            else:
                clock.advance(
                    costs.zero_page_ns(PAGE_SIZE) * inode.page_count
                )
                self._kernel.counters.bump("recovery_zero_pages", inode.page_count)
            fs.unlink(path)
            erased.append(path)
        self._fom.ptcache.on_crash()
        self._kernel.counters.bump("fom_recover")
        return RecoveryReport(
            survivors=sorted(survivors),
            erased=sorted(erased),
            erase_ns=clock.now - erase_start,
            constant_time_erase=self.crypto_erase,
        )

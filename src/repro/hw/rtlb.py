"""Range TLB: the hardware half of range translations (paper §3.2/§4.3).

A range-table entry (RTE) maps an *arbitrary length* of contiguous virtual
addresses to contiguous physical addresses with a fixed-size
(base, limit, offset, protection) tuple — Figure 4/9 of the paper, after
Gandhi et al.'s "Range translations for fast virtual memory" [9].  The
range TLB caches a small number of RTEs fully associatively; a hit
translates any address inside the range with one comparison, so a multi-GiB
mapping consumes one entry instead of millions of page-TLB entries.

This module holds only the hardware cache; the architectural range *table*
lives in :mod:`repro.core.rangetrans.table`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.lint import allocbound, allocfree, o1


@dataclass(frozen=True)
class RangeEntry:
    """One cached range translation.

    Translates ``vaddr`` in ``[base, base + limit)`` to ``vaddr + offset``.
    ``offset`` may be negative; physical = virtual + offset, as in the
    BASE/LIMIT/OFFSET structure of the paper's Figure 4.
    """

    base: int
    limit: int
    offset: int
    writable: bool
    asid: int = 0

    def covers(self, vaddr: int) -> bool:
        """True if this entry translates ``vaddr``."""
        return self.base <= vaddr < self.base + self.limit

    def translate(self, vaddr: int) -> int:
        """Physical address for ``vaddr`` (caller must check covers())."""
        return vaddr + self.offset


class RangeTlb:
    """Small, fully associative cache of range translations.

    Real proposals size this at tens of entries because each entry covers
    an unbounded region; 32 entries cover an entire address space mapped as
    a handful of files.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[RangeEntry, None]" = OrderedDict()

    @property
    def capacity(self) -> int:
        """Maximum number of resident range entries."""
        return self._capacity

    @o1(note="fully associative probe bounded by fixed capacity (<= 32)")
    @allocfree(note="scan and move-to-end: no per-probe objects")
    def lookup(self, vaddr: int, asid: int = 0) -> Optional[RangeEntry]:
        """Entry covering ``vaddr`` for ``asid``, or None on miss."""
        # o1: allow(flow-bounded) -- associative scan capped at capacity
        for entry in self._entries:
            if entry.asid == asid and entry.covers(vaddr):
                self._entries.move_to_end(entry)
                return entry
        return None

    @o1(note="one associative fill + possible LRU eviction")
    @allocbound(1, note="one association per fill; eviction hands the entry back")
    def insert(self, entry: RangeEntry) -> Optional[RangeEntry]:
        """Install ``entry``; returns the LRU entry evicted, if any."""
        if entry.limit <= 0:
            raise ValueError(f"range limit must be positive, got {entry.limit}")
        self._entries[entry] = None
        self._entries.move_to_end(entry)
        if len(self._entries) > self._capacity:
            evicted, _ = self._entries.popitem(last=False)
            return evicted
        return None

    @o1(note="one shootdown over a <= 32-entry associative array")
    def invalidate_overlap(self, base: int, limit: int, asid: int = 0) -> int:  # o1: allow(flow-bounded) -- capacity-bounded scan
        """Shoot down every entry overlapping ``[base, base + limit)``.

        Unmapping a file is one such call — the O(1) shootdown the paper
        contrasts with per-page invlpg storms.
        """
        stale = [
            entry
            for entry in self._entries
            if entry.asid == asid
            and entry.base < base + limit
            and entry.base + entry.limit > base
        ]
        for entry in stale:
            del self._entries[entry]
        return len(stale)

    def flush_asid(self, asid: int) -> int:
        """Drop all entries for one address space."""
        stale = [entry for entry in self._entries if entry.asid == asid]
        for entry in stale:
            del self._entries[entry]
        return len(stale)

    def flush_all(self) -> int:
        """Drop everything."""
        count = len(self._entries)
        self._entries.clear()
        return count

    def resident_count(self) -> int:
        """Number of valid entries."""
        return len(self._entries)

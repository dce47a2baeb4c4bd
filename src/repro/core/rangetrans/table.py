"""The architectural range table (paper Figures 4/5/9).

A per-address-space table of (BASE, LIMIT, OFFSET + protection) entries —
"analogous to a page table, but a different data structure".  Writing one
entry maps an entire contiguous range, which is the O(1) operation the
whole design funnels through.  The CPU consults this table on range-TLB
misses via :meth:`lookup`.
"""

from __future__ import annotations

import bisect
from typing import List, Optional

from repro.errors import MappingError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.hw.rtlb import RangeEntry
from repro.lint import o1
from repro.obs.metrics import MetricsRegistry


class RangeTable:
    """Sorted, non-overlapping range translations for one address space."""

    def __init__(
        self,
        asid: int,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
    ) -> None:
        self._asid = asid
        self._clock = clock
        self._costs = costs
        self._counters = counters
        self._entries: List[RangeEntry] = []
        self._bases: List[int] = []

    @property
    def asid(self) -> int:
        """Owning address-space id (tags the entries)."""
        return self._asid

    @property
    def entry_count(self) -> int:
        """Live range-table entries."""
        return len(self._entries)

    def entries(self) -> List[RangeEntry]:
        """All entries, ascending by base."""
        return list(self._entries)

    # ------------------------------------------------------------------
    # The O(1) operations
    # ------------------------------------------------------------------
    @o1(note="bisect + one RTE write, any extent size")
    def insert(self, base: int, limit: int, paddr: int, writable: bool) -> RangeEntry:
        """Map ``[base, base+limit)`` -> ``[paddr, paddr+limit)``: one write."""
        if limit <= 0:
            raise MappingError(f"range limit must be positive, got {limit}")
        entry = RangeEntry(
            base=base,
            limit=limit,
            offset=paddr - base,
            writable=writable,
            asid=self._asid,
        )
        index = bisect.bisect_left(self._bases, base)
        if index > 0:
            prev = self._entries[index - 1]
            if prev.base + prev.limit > base:
                raise MappingError(f"range at {base:#x} overlaps {prev!r}")
        if index < len(self._entries):
            nxt = self._entries[index]
            if base + limit > nxt.base:
                raise MappingError(f"range at {base:#x} overlaps {nxt!r}")
        self._entries.insert(index, entry)
        self._bases.insert(index, base)
        self._clock.advance(self._costs.rte_write_ns)
        self._counters.bump("rte_write")
        return entry

    @o1(note="bisect + one RTE write")
    def remove(self, base: int) -> RangeEntry:
        """Unmap the entry starting at ``base``: one write."""
        index = bisect.bisect_left(self._bases, base)
        if index >= len(self._entries) or self._entries[index].base != base:
            raise MappingError(f"no range entry at base {base:#x}")
        entry = self._entries.pop(index)
        self._bases.pop(index)
        self._clock.advance(self._costs.rte_write_ns)
        self._counters.bump("rte_remove")
        return entry

    # ------------------------------------------------------------------
    # CPU-side lookup (range-TLB miss path)
    # ------------------------------------------------------------------
    @o1(note="one charged bisect walk")
    def lookup(self, vaddr: int) -> Optional[RangeEntry]:
        """Entry covering ``vaddr``, or None; charges the table walk."""
        self._clock.advance(self._costs.range_table_lookup_ns)
        self._counters.bump("range_table_lookup")
        index = bisect.bisect_right(self._bases, vaddr) - 1
        if index >= 0 and self._entries[index].covers(vaddr):
            return self._entries[index]
        return None

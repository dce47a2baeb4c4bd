"""Hardware page-walk engine with cache-priced memory references.

On a TLB miss the walker reads one page-table entry per level, each a real
memory reference priced through the shared cache model — so walks over warm
page tables cost a few nanoseconds while cold walks pay DRAM latency per
level.  This is what makes the paper's observation measurable that reading
16 KiB via ``read()`` can beat touching a cold mapping (§3.2).

Under virtualization each guest page-table reference is itself a
guest-physical address that must be translated by the host's tables, so a
2-D walk costs ``(g + 1) * (h + 1) - 1`` references — 24 for two 4-level
tables, 35 for two 5-level tables, the number §2 cites for Intel's 5-level
EPT.  The walker models the host-side references as additional cache
references against the nested tables' synthetic addresses.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.cache import CacheModel
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.hw.tlb import TlbEntry
from repro.lint import allocbound, o1
from repro.obs.metrics import MetricsRegistry
from repro.paging.pagetable import INDEX_MASK, PageTable, Pte


class PageWalker:
    """Walks a :class:`PageTable` charging per-level reference costs."""

    def __init__(
        self,
        cache: CacheModel,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
        virtualized: bool = False,
        nested_levels: Optional[int] = None,
    ) -> None:
        self._cache = cache
        self._clock = clock
        self._costs = costs
        self._counters = counters
        self._virtualized = virtualized
        #: Levels of the host (nested) table when virtualized; defaults to
        #: matching the guest table's depth at walk time.
        self._nested_levels = nested_levels
        #: Synthetic base for host-EPT node lines, distinct per walker.
        self._ept_base = 1 << 53

    @property
    def virtualized(self) -> bool:
        """True if walks pay 2-D (nested) translation costs."""
        return self._virtualized

    def references_per_walk(self, levels: int) -> int:
        """Worst-case memory references for one walk of ``levels`` tables."""
        if not self._virtualized:
            return levels
        host = self._nested_levels or levels
        return (levels + 1) * (host + 1) - 1

    @o1(note="4-5 fixed levels, independent of mapping size")
    @allocbound(2, note="one node-path list and one TlbEntry per walk")
    def walk(self, table: PageTable, vaddr: int, asid: int = 0) -> Optional[TlbEntry]:
        """Translate ``vaddr``; None if no valid leaf exists.

        Charges one cache reference per table node actually visited (plus
        nested references when virtualized), whether or not the walk
        succeeds — hardware pays for failed walks too.
        """
        tracer = self._counters.tracer
        if tracer is not None and tracer.enabled:
            tracer.begin("page_walk", "paging")
            try:
                return self._walk(table, vaddr, asid)
            finally:
                tracer.end()
        return self._walk(table, vaddr, asid)

    @o1(note="visits the fixed radix levels, nested or not")
    @allocbound(2, note="one node-path list and one TlbEntry per walk")
    def _walk(self, table: PageTable, vaddr: int, asid: int) -> Optional[TlbEntry]:
        self._counters.bump("walk_start")
        nodes = table.path_nodes(vaddr)
        shifts = table.shifts
        host_levels = self._nested_levels or table.levels
        pte: Optional[Pte] = None
        write_protected = False
        # o1: allow(o1-size-loop, o1-charge-in-loop) -- path_nodes is at most the level count
        for node in nodes:
            index = (vaddr >> shifts[node.depth]) & INDEX_MASK
            if index in node.wp_slots:
                write_protected = True
            if self._virtualized:
                # The guest-physical address of this node must itself be
                # translated: one reference per host level against the
                # nested tables, modeled as distinct synthetic lines so
                # locality behaves (hot nested nodes cache like real ones).
                # o1: allow(o1-size-loop, o1-charge-in-loop) -- host level count is a hardware constant
                for host_depth in range(host_levels):
                    host_line = (
                        self._ept_base
                        + (node.paddr >> 12 << 6)
                        + host_depth * 8
                    )
                    self._cache.reference(host_line)
                    self._counters.bump("nested_walk_ref")
            self._cache.reference(node.paddr + index * 8)  # 8-byte entries
            self._counters.bump("walk_ref")
            entry = node.entries.get(index)
            if isinstance(entry, Pte):
                pte = entry
                break
            if entry is None:
                return None
        if pte is None:
            return None
        if self._virtualized:
            # The final data address is guest-physical too: one more host
            # walk before the access proper.
            # o1: allow(o1-size-loop, o1-charge-in-loop) -- host level count is a hardware constant
            for host_depth in range(host_levels):
                host_line = self._ept_base + (pte.paddr >> 12 << 6) + host_depth * 8
                self._cache.reference(host_line)
                self._counters.bump("nested_walk_ref")
        return TlbEntry(
            vpn=vaddr // pte.page_size,
            pfn=pte.pfn,
            page_size=pte.page_size,
            writable=pte.writable and not write_protected,
            asid=asid,
        )

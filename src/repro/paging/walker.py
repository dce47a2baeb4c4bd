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

The simulated charge is still one cache reference per level read (and per
nested reference).  On the host, the walk collects those references' line
addresses in visit order and prices the whole path with one
:meth:`~repro.hw.cache.CacheModel.reference_lines` call, bumping its own
counters once per walk — the same clock, counters and cache state as one
reference per line, at a fraction of the interpreter's work.

A demand fault's host work follows the model's one walk.  A flat walk
that finds an empty slot keeps its descent as :attr:`PageWalker.missed`
(a :class:`MissedWalk`), and the fault handler starts from it instead of
descending again.  When the handler writes the leaf into the node that
walk reached, it hands the descent back as :attr:`PageWalker.reread`,
and the retry walks no path: it prices the recorded lines again through
:meth:`~repro.hw.cache.CacheModel.reference_again` and reads the new
leaf from the slot.  Either record lives until the next walk.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.hw.cache import CacheModel
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.hw.tlb import TlbEntry
from repro.lint import allocbound, o1
from repro.obs.metrics import MetricsRegistry
from repro.paging.pagetable import INDEX_MASK, PageTable, PageTableNode, Pte
from repro.units import CACHE_LINE, PAGE_SIZE

#: Masks a reference's address down to its cache line, as the cache does.
_LINE_MASK = ~(CACHE_LINE - 1)


class MissedWalk(NamedTuple):
    """The descent of a flat walk that found ``page_va``'s slot empty.

    ``node``, ``index``, ``write_protected`` and ``shared`` are what
    :meth:`PageTable.descend` returns for ``page_va`` (its leaf is None);
    ``lines`` are the lines the walk priced, in visit order.  Built with
    ``tuple.__new__``, as the walker builds its :class:`TlbEntry`.
    """

    table: PageTable
    page_va: int
    node: PageTableNode
    index: int
    write_protected: bool
    shared: bool
    lines: List[int]


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
        #: The last walk's descent when it was flat and found its slot
        #: empty, else None: the fault the CPU raises next starts from it.
        self.missed: Optional[MissedWalk] = None
        #: A descent whose node the fault handler wrote the leaf into,
        #: else None: the next walk re-reads it if it is for the same
        #: table and page.  That walk is the CPU's retry: nothing in the
        #: fault path fills the TLB or a range table for the faulting
        #: page, so the retry's translation misses both and walks.
        self.reread: Optional[MissedWalk] = None

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
    @allocbound(3, note="one node-path list, one line list and one TlbEntry or MissedWalk per walk")
    def walk(self, table: PageTable, vaddr: int, asid: int = 0) -> Optional[TlbEntry]:
        """Translate ``vaddr``; None if no valid leaf exists.

        Charges one cache reference per table node actually visited (plus
        nested references when virtualized), whether or not the walk
        succeeds — hardware pays for failed walks too.  Every walk
        replaces :attr:`missed` and clears :attr:`reread`.
        """
        reread = self.reread
        if reread is not None:
            self.reread = None
            if reread.table is table and reread.page_va == vaddr - vaddr % PAGE_SIZE:
                pte = reread.node.entries.get(reread.index)
                if isinstance(pte, Pte):
                    # The retry of the fault that wrote this leaf into
                    # the node the failed walk reached: that walk's path,
                    # which was not write-protected, priced again, and
                    # the new leaf.
                    self.missed = None
                    lines = reread.lines
                    counters = self._counters
                    counters.bump("walk_start")
                    self._cache.reference_again(lines)
                    counters.bump("walk_ref", len(lines))
                    page_size = pte.page_size
                    return tuple.__new__(TlbEntry, (
                        vaddr // page_size, pte.pfn, page_size, pte.writable, asid,
                    ))
        # path_nodes stops at the node whose slot holds the leaf (or
        # nothing), so every node it returns is read, and only the last
        # one's slot can hold the Pte.
        nodes = table.path_nodes(vaddr)
        shifts = table.shifts
        virtualized = self._virtualized
        host_levels = self._nested_levels or table.levels
        # Line addresses of the walk's references, in visit order.
        lines: List[int] = []
        write_protected = False
        # o1: allow(flow-bounded) -- path_nodes is at most the level count
        for node in nodes:
            index = (vaddr >> shifts[node.depth]) & INDEX_MASK
            if index in node.wp_slots:
                write_protected = True
            if virtualized:
                # The guest-physical address of this node must itself be
                # translated: one reference per host level against the
                # nested tables, modeled as distinct synthetic lines so
                # locality behaves (hot nested nodes cache like real ones).
                host_base = self._ept_base + (node.paddr >> 12 << 6)
                # o1: allow(flow-bounded) -- host level count is a hardware constant
                for host_depth in range(host_levels):
                    lines.append((host_base + host_depth * 8) & _LINE_MASK)
            lines.append((node.paddr + index * 8) & _LINE_MASK)  # 8-byte entries
        entry = node.entries.get(index)
        pte = entry if isinstance(entry, Pte) else None
        if virtualized and pte is not None:
            # The final data address is guest-physical too: one more host
            # walk before the access proper.
            host_base = self._ept_base + (pte.paddr >> 12 << 6)
            # o1: allow(flow-bounded) -- host level count is a hardware constant
            for host_depth in range(host_levels):
                lines.append((host_base + host_depth * 8) & _LINE_MASK)
        counters = self._counters
        counters.bump("walk_start")
        self._cache.reference_lines(lines)
        counters.bump("walk_ref", len(nodes))
        if virtualized:
            counters.bump("nested_walk_ref", len(lines) - len(nodes))
        if pte is not None:
            self.missed = None
            page_size = pte.page_size
            return tuple.__new__(TlbEntry, (
                vaddr // page_size,
                pte.pfn,
                page_size,
                pte.writable and not write_protected,
                asid,
            ))
        missed = None
        if entry is None and not virtualized:
            # Kept for the fault.  ``shared`` as descend reports it: a
            # node below the root (depth 0) with refs > 1.
            shared = False
            # o1: allow(flow-bounded) -- path_nodes is at most the level count
            for below in nodes:
                if below.refs > 1 and below.depth:
                    shared = True
            missed = tuple.__new__(MissedWalk, (
                table, vaddr - vaddr % PAGE_SIZE, node, index,
                write_protected, shared, lines,
            ))
        self.missed = missed
        return None

"""Address spaces: mmap/munmap/mprotect, demand faults, populate.

:class:`AddressSpace` is the simulator's ``mm_struct``.  It owns the VMA
list and the page table, implements the CPU's
:class:`~repro.hw.cpu.TranslationContext` protocol, and charges the
baseline's per-page costs exactly where Linux pays them:

* ``mmap(MAP_POPULATE)`` walks every page of the request, allocating a
  frame and writing a PTE for each — the linear curve of Figure 1a/6a;
* a demand fault pays trap + VMA lookup + allocation + accounting — the
  per-page cost whose total, Figure 1b/6b shows, exceeds 50x the populate
  path's;
* ``munmap`` and ``mprotect`` visit every mapped page.

The O(1) designs bypass these loops: file-only memory maps whole extents
(optionally as huge pages or linked subtrees), and range translations
attach a range table via :attr:`range_provider` so the CPU never walks at
all.

The simulated clock pays those costs per page; the host does its share
of the work coarser where the model allows.  A 4 KiB populate descends
the page table once per 2 MiB window and writes each PTE into that
window's node; and the first store into a fork-shared window looks up
one VMA per run of leaves, not per leaf.  An eviction and each page of
the per-page munmap descend the page table once
(:meth:`PageTable.descend`).  A demand fault starts from the descent of
the hardware walk that failed (:attr:`PageWalker.missed`) and descends
only after a COW break rewrote the window, or when the walk kept none:
a leaf on an unshared path is written into, cleared from, or (on a COW
fault) replaced in the node that descent reached.  When the leaf goes
into the node the failed walk reached, the retry walk re-reads that
walk's path (:attr:`PageWalker.reread`) instead of walking it again.
Every charge, counter and hook still comes per page, in the same order
and at the same clock.
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Optional, Tuple

from repro.errors import MappingError, OutOfMemoryError, ProtectionError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.hw.rtlb import RangeEntry
from repro.hw.tlb import TlbEntry
from repro.lint import complexity, o1
from repro.mem.buddy import BuddyAllocator
from repro.mem.frame_meta import FrameTable, PageFlags
from repro.obs.metrics import MetricsRegistry
from repro.paging.fault import FAULT_COUNTERS, FaultType
from repro.paging.hugepages import SUPPORTED_PAGE_SIZES, choose_page_runs
from repro.paging.pagetable import PageTable, PageTableNode, Pte
from repro.paging.walker import PageWalker
from repro.units import CACHE_LINE, PAGE_SIZE, align_up
from repro.vm.vma import MapFlags, MemoryBacking, Protection, Vma

#: Default base of the mmap area (x86-64 userland convention-ish).
_MMAP_BASE = 0x7F00_0000_0000


class AddressSpace:
    """One process's virtual address space."""

    def __init__(
        self,
        asid: int,
        page_table: PageTable,
        walker: PageWalker,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
        buddy: BuddyAllocator,
        frame_table: Optional[FrameTable] = None,
        mmap_base: int = _MMAP_BASE,
    ) -> None:
        #: Address-space identifier tagging TLB entries (the
        #: :class:`~repro.hw.cpu.TranslationContext` attribute).
        self.asid = asid
        self._pt = page_table
        self._walker = walker
        self._clock = clock
        self._costs = costs
        self._counters = counters
        #: The DRAM buddy every private (COW) copy comes from and goes
        #: back to, whatever the backing's media.
        self._buddy = buddy
        self._frame_table = frame_table
        self._vmas: List[Vma] = []  # sorted by start
        self._starts: List[int] = []
        self._mmap_cursor = mmap_base
        #: Optional architectural range table (set by core.rangetrans).
        self.range_provider: Optional[Callable[[int], Optional[RangeEntry]]] = None
        #: Optional CPU back-reference for TLB maintenance on unmap.
        self.cpu = None
        #: "page" (per-PTE teardown, the baseline) or "extent" (whole
        #: PTE-subtree drops); the kernel sets this from its config.
        self.munmap_policy = "page"
        #: Optional LRU registry for the reclaim baseline.
        self.lru = None
        #: Resolved faults per kind, indexed by a :class:`FaultType` int.
        self.fault_stats: List[int] = [0] * len(FAULT_COUNTERS)

    # ------------------------------------------------------------------
    # TranslationContext protocol
    # ------------------------------------------------------------------
    @property
    def page_table(self) -> PageTable:
        """The backing page-table tree."""
        return self._pt

    @property
    def vmas(self) -> List[Vma]:
        """All VMAs, sorted by start address."""
        return list(self._vmas)

    def walk(self, vaddr: int) -> Optional[TlbEntry]:
        """Hardware walk of this space's page table (costs charged)."""
        return self._walker.walk(self._pt, vaddr, asid=self.asid)

    def lookup_range(self, vaddr: int) -> Optional[RangeEntry]:
        """Architectural range-table lookup, if range hardware is wired."""
        if self.range_provider is None:
            return None
        return self.range_provider(vaddr)

    # ------------------------------------------------------------------
    # VMA bookkeeping
    # ------------------------------------------------------------------
    def find_vma(self, vaddr: int) -> Optional[Vma]:
        """VMA containing ``vaddr`` (no cost charged — internal)."""
        index = bisect.bisect_right(self._starts, vaddr) - 1
        # The VMA at ``index`` starts at or below ``vaddr``.
        if index >= 0 and vaddr < self._vmas[index].end:
            return self._vmas[index]
        return None

    def range_is_free(self, start: int, end: int) -> bool:
        """True if no VMA overlaps ``[start, end)``.

        Two sorted-bound probes — the predecessor (last VMA starting at
        or before ``start``) and its successor — decide the question,
        because ``_vmas`` is kept sorted and non-overlapping; no scan of
        the VMA list is needed (no cost charged — internal).
        """
        index = bisect.bisect_right(self._starts, start) - 1
        if index >= 0 and self._vmas[index].end > start:
            return False
        if index + 1 < len(self._vmas) and self._vmas[index + 1].start < end:
            return False
        return True

    @o1(note="sorted-neighbour probes; no scan of the VMA list")
    def _insert_vma(self, vma: Vma) -> Vma:
        """Insert, merging with neighbours when Linux would.

        Because ``_vmas`` is sorted and non-overlapping, only the
        predecessor and successor of the insertion point can conflict
        with (or merge into) the new VMA — two probes replace the old
        whole-list overlap scan.
        """
        self._clock.advance(self._costs.vma_insert_ns)
        self._counters.bump("vma_insert")
        index = bisect.bisect_left(self._starts, vma.start)
        if index > 0 and self._vmas[index - 1].end > vma.start:
            raise MappingError(
                f"{vma!r} overlaps existing {self._vmas[index - 1]!r}"
            )
        if index < len(self._vmas) and self._vmas[index].start < vma.end:
            raise MappingError(
                f"{vma!r} overlaps existing {self._vmas[index]!r}"
            )
        # Merge with predecessor / successor when compatible.
        if index > 0 and self._vmas[index - 1].can_merge_with(vma):
            prev = self._vmas[index - 1]
            prev.merge_with(vma)
            self._counters.bump("vma_merge")
            vma = prev
            index -= 1
        else:
            self._vmas.insert(index, vma)
            self._starts.insert(index, vma.start)
        if index + 1 < len(self._vmas) and vma.can_merge_with(self._vmas[index + 1]):
            nxt = self._vmas.pop(index + 1)
            self._starts.pop(index + 1)
            vma.merge_with(nxt)
            self._counters.bump("vma_merge")
        return vma

    def _remove_vma(self, vma: Vma) -> None:
        self._clock.advance(self._costs.vma_remove_ns)
        self._counters.bump("vma_remove")
        index = self._vmas.index(vma)
        self._vmas.pop(index)
        self._starts.pop(index)

    def pick_address(self, length: int, alignment: int = PAGE_SIZE) -> int:
        """Reserve a fresh virtual range for a mapping (bump allocator)."""
        addr = align_up(self._mmap_cursor, alignment)
        self._mmap_cursor = addr + align_up(length, PAGE_SIZE)
        return addr

    # ------------------------------------------------------------------
    # mmap / munmap / mprotect
    # ------------------------------------------------------------------
    @o1(note="constant map cost; MAP_POPULATE opts into the linear fill")
    def mmap(
        self,
        length: int,
        prot: int,
        flags: int,
        backing: MemoryBacking,
        addr: Optional[int] = None,
        backing_offset: int = 0,
        name: str = "",
        align: int = PAGE_SIZE,
    ) -> Vma:
        """Create a mapping; with MAP_POPULATE, pre-fill every PTE.

        Charges the constant mmap cost always, plus the linear populate
        loop when requested.  Returns the (possibly merged) VMA.
        """
        if length <= 0:
            raise MappingError(f"mmap length must be positive, got {length}")
        length = align_up(length, PAGE_SIZE)
        if addr is None:
            addr = self.pick_address(length, align)
        self._clock.advance(self._costs.mmap_lock_ns + self._costs.mmap_base_ns)
        self._counters.bump("mmap_call")
        vma = Vma(
            start=addr,
            end=addr + length,
            prot=prot,
            flags=flags,
            backing=backing,
            backing_offset=backing_offset,
            name=name,
        )
        vma = self._insert_vma(vma)
        if flags & MapFlags.POPULATE:
            # o1: allow(flow-bounded) -- MAP_POPULATE is explicit caller opt-in to the linear fill
            self.populate(addr, length)
        return vma

    @complexity("n", note="one PTE write per page — the baseline's linear curve")
    def populate(self, addr: int, length: int) -> int:
        """Pre-fault ``[addr, addr+length)``; returns PTEs written.

        The baseline linear loop: one frame lookup/allocation, one
        metadata touch, and one PTE write per 4 KiB page (or fewer with
        huge pages when the VMA allows them and alignment cooperates).
        On the host it descends once per 2 MiB window.
        """
        vma = self.find_vma(addr)
        if vma is None or addr + length > vma.end:
            raise MappingError(
                f"populate range {addr:#x}+{length:#x} not covered by one VMA"
            )
        first_page = vma.backing_page(addr)
        npages = length // PAGE_SIZE
        allow_huge = bool(vma.flags & MapFlags.HUGEPAGE)
        writable = self._map_writable(vma)
        # Per-4KiB-frame metadata updates: the baseline pays these
        # regardless of mapping granularity (mapcount, flags).  DAX
        # backings opt out — their frames have no struct page.
        frame_table = self._frame_table
        if not vma.backing.tracks_frame_meta:
            frame_table = None
        pt = self._pt
        write_leaf = pt.write_leaf
        advance = self._clock.advance
        populate_ns = self._costs.populate_page_ns
        window_span = pt.span_at(pt.bottom_depth - 1)
        # [window_base, window_end) of the bottom node last descended to.
        window_base = window_end = 0
        node = None
        written = 0
        # o1: allow(flow-bounded) -- the runs partition the declared n pages
        for page_index, first_pfn, run_pages in vma.backing.frame_runs(
            first_page, npages
        ):
            va = vma.start + (page_index - vma.backing_offset) * PAGE_SIZE
            if allow_huge:
                # o1: allow(flow-bounded) -- the runs partition the declared n pages
                tiles = choose_page_runs(
                    va, first_pfn * PAGE_SIZE, run_pages * PAGE_SIZE,
                    allowed=SUPPORTED_PAGE_SIZES,
                )
                for tile_va, tile_pa, size in tiles:
                    pt.map(tile_va, tile_pa // size, page_size=size, writable=writable)
                    advance(populate_ns)
                    written += 1
            else:
                for pfn in range(first_pfn, first_pfn + run_pages):
                    if not window_base <= va < window_end:
                        # The first page in this window: descend once.
                        node = pt.leaf_node(va)
                        window_base = va - va % window_span
                        window_end = window_base + window_span
                    write_leaf(node, va, pfn, PAGE_SIZE, writable)
                    advance(populate_ns)
                    va += PAGE_SIZE
                written += run_pages
            if frame_table is not None:
                for pfn in range(first_pfn, first_pfn + run_pages):
                    meta = frame_table.scan_meta(pfn)
                    meta.refcount += 1
                    meta.mapcount += 1
                frame_table.scan_charge(run_pages)
        self._counters.bump("populate_pages", npages)
        return written

    def _map_writable(self, vma: Vma) -> bool:
        """Whether PTEs for this VMA are installed writable.

        COW mappings (private file maps, fork-shared anon) start
        read-only so stores trap and copy; everything else follows the
        VMA protection.
        """
        if not vma.prot & Protection.WRITE:
            return False
        if vma.needs_cow():
            return False
        return True

    @complexity("n", note="per-PTE baseline; extent policy pays per window instead")
    def munmap(self, addr: int, length: int) -> int:
        """Unmap ``[addr, addr+length)``; returns pages unmapped.

        Only whole-VMA and prefix/suffix unmaps are supported (enough for
        every path in the paper); a mid-VMA hole raises.
        """
        length = align_up(length, PAGE_SIZE)
        end = addr + length
        self._clock.advance(self._costs.mmap_lock_ns)
        self._counters.bump("munmap_call")
        unmapped = 0
        # The overlapping VMAs form one contiguous run of the sorted
        # list: bisect its bounds instead of scanning every VMA.
        first = bisect.bisect_right(self._starts, addr) - 1
        if first < 0 or self._vmas[first].end <= addr:
            first += 1
        last = bisect.bisect_left(self._starts, end)
        # o1: allow(flow-bounded) -- the overlapped VMAs partition the declared n pages
        for vma in self._vmas[first:last]:
            if addr > vma.start and end < vma.end:
                raise MappingError(
                    "punching a hole inside a VMA is not supported; unmap "
                    "the whole VMA or a prefix/suffix"
                )
            cut_start = max(addr, vma.start)
            cut_end = min(end, vma.end)
            unmapped += self._unmap_vma_range(vma, cut_start, cut_end)
        if self.cpu is not None:
            self.cpu.invalidate_space_range(addr, length, asid=self.asid)
        return unmapped

    @complexity("n", note="page (or window) teardown plus COW-copy returns")
    def _unmap_vma_range(self, vma: Vma, start: int, end: int) -> int:
        """Tear down PTEs and backing for ``[start, end)`` of ``vma``."""
        extent = self.munmap_policy == "extent"
        first_page = vma.backing_page(start)
        npages = (end - start) // PAGE_SIZE
        if extent:
            pages = self._teardown_extent(vma, start, end)
            vma.backing.release_extent(first_page, npages)
        else:
            pages = self._teardown_pages(vma, start, end)
            vma.backing.release(first_page, npages)
        # COW copies for the range were order-0 DRAM frames the VMA owns;
        # return them to the buddy so they do not leak.
        doomed = [
            vma.private_copies.pop(page_index)
            for page_index in list(vma.private_copies)
            if first_page <= page_index < first_page + npages
        ]
        if doomed and extent:
            self._buddy.free_many(doomed)
        elif doomed:
            for pfn in doomed:
                self._buddy.free(pfn)
        # Adjust or remove the VMA itself.
        if start == vma.start and end == vma.end:
            self._remove_vma(vma)
            vma.backing.detach_user()
        elif start == vma.start:
            index = self._vmas.index(vma)
            vma.start = end
            vma.backing_offset = first_page + npages
            self._starts[index] = end
        else:  # suffix
            vma.end = start
        return pages

    @complexity("n", note="one PTE visit per page — the baseline's linear loop")
    def _teardown_pages(self, vma: Vma, start: int, end: int) -> int:
        """Per-PTE teardown — the baseline's linear loop, one descent per
        leaf."""
        tracks_meta = vma.backing.tracks_frame_meta
        pt = self._pt
        pages = 0
        va = start
        while va < end:
            node, index, pte, _write_protected, shared = pt.descend(va)
            if pte is not None:
                page_base = va - va % pte.page_size
                if shared:
                    # unmap unshares the path first, and charges for it.
                    pt.unmap(page_base, page_size=pte.page_size)
                else:
                    pt.clear_slot(node, index, pte)
                if self._frame_table is not None and tracks_meta:
                    # o1: allow(flow-bounded) -- 4 KiB frames of one PTE; pages partition the declared n
                    for pfn4k in range(
                        pte.paddr // PAGE_SIZE,
                        (pte.paddr + pte.page_size) // PAGE_SIZE,
                    ):
                        meta = self._frame_table.touch(pfn4k)
                        meta.mapcount = max(0, meta.mapcount - 1)
                        if meta.refcount:
                            meta.refcount -= 1
                va = page_base + pte.page_size
                pages += pte.page_size // PAGE_SIZE
            else:
                va += PAGE_SIZE
        return pages

    @complexity("n", note="one pointer drop per window; packed windows fall back per-PTE")
    def _teardown_extent(self, vma: Vma, start: int, end: int) -> int:
        """Extent-granularity teardown: drop whole bottom-level subtrees.

        A 2 MiB window is droppable with one pointer clear when the cut
        covers everything this VMA maps inside it and no other VMA lives
        in the window.  Windows failing the test (VMA boundaries packed
        together by the bump allocator) fall back to the per-PTE loop,
        bounded by the fixed window span — so a whole-VMA unmap costs
        O(windows dropped), not O(pages resident).  Per-4KiB struct-page
        bookkeeping is skipped on dropped windows: that churn is exactly
        the linear cost the paper's extent design eliminates.
        """
        bottom = self._pt.bottom_depth
        window_span = self._pt.span_at(bottom - 1)
        dead_nodes: List[int] = []
        pages = 0
        window_va = start - start % window_span
        while window_va < end:
            window_end = window_va + window_span
            if not self._window_droppable(vma, window_va, window_end, start, end):
                # o1: allow(flow-bounded) -- fallback is capped by the fixed window span
                pages += self._teardown_pages(
                    vma, max(start, window_va), min(end, window_end)
                )
                window_va = window_end
                continue
            leaf = self._pt.lookup(window_va)
            if leaf is not None and leaf.page_size >= window_span:
                # A huge leaf covers the window (and possibly more): one
                # unmap at its base; later windows it spans see None.
                base = window_va - window_va % leaf.page_size
                if base == window_va:
                    self._pt.unmap(base, page_size=leaf.page_size)
                    pages += leaf.page_size // PAGE_SIZE
            else:
                entry = self._pt.subtree_at(window_va, bottom)
                if entry is not None:
                    # A bottom-level node holds only 4 KiB leaves.
                    pages += len(entry.entries)
                    node = self._pt.unlink_subtree(window_va, bottom)
                    if node.refs <= 0:
                        pfn = self._pt.node_frame_pfn(node)
                        if pfn is not None:
                            dead_nodes.append(pfn)
            window_va = window_end
        self._pt.sink_node_frames(dead_nodes)
        return pages

    @o1(note="sorted-neighbour probes decide the window, no VMA scan")
    def _window_droppable(
        self, vma: Vma, window_va: int, window_end: int, start: int, end: int
    ) -> bool:
        """True when the whole window's subtree may be unlinked at once."""
        # Everything this VMA maps in the window must be inside the cut.
        if max(window_va, vma.start) < start or min(window_end, vma.end) > end:
            return False
        # No other VMA may have translations in the window.
        index = bisect.bisect_right(self._starts, window_va) - 1
        if index >= 0:
            prev = self._vmas[index]
            if prev is not vma and prev.end > window_va:
                return False
        # ``vma`` appears at most once among the successors, so the first
        # two starting before window_end decide the question — no scan.
        # o1: allow(flow-bounded) -- two-element slice of the sorted VMA list
        for probe in self._vmas[index + 1 : index + 3]:
            if probe.start >= window_end:
                break
            if probe is not vma:
                return False
        return True

    @o1(note="one ordered VMA insert; fork duplicates per-VMA, not per-page")
    def adopt_vma(self, vma: Vma) -> Vma:
        """Insert an externally built VMA (the fork duplication path).

        Charges the VMA insertion like any mapping, but skips the mmap
        syscall constants — fork duplicates in-kernel.  Advances the
        mmap cursor past the adopted range so later mmaps in the child
        don't collide with inherited mappings.
        """
        self._mmap_cursor = max(self._mmap_cursor, vma.end)
        return self._insert_vma(vma)

    @o1(note="one VMA removal and one range invalidation — the O(1) unmap")
    def detach_vma(self, vma: Vma) -> None:
        """Remove a VMA *without* per-page PTE teardown.

        The O(1) unmap path: regions whose translations live in shared
        subtrees or range tables are detached by their owner (file-only
        memory, PBM, range manager), which unlinks the one pointer / RTE
        itself; the per-page loop of :meth:`munmap` never runs.
        """
        self._remove_vma(vma)
        if self.cpu is not None:
            self.cpu.invalidate_space_range(vma.start, vma.length, asid=self.asid)

    @complexity("n", note="rewrites every resident PTE of the VMA")
    def mprotect(self, addr: int, length: int, prot: int) -> None:
        """Change protection; rewrites every resident PTE (linear)."""
        length = align_up(length, PAGE_SIZE)
        vma = self.find_vma(addr)
        if vma is None or addr + length > vma.end:
            raise MappingError(
                f"mprotect range {addr:#x}+{length:#x} not covered by one VMA"
            )
        if addr != vma.start or length != vma.length:
            raise MappingError("partial-VMA mprotect is not supported")
        self._clock.advance(self._costs.mmap_lock_ns)
        vma.prot = prot
        writable = self._map_writable(vma)
        va = vma.start
        while va < vma.end:
            pte = self._pt.lookup(va)
            if pte is not None:
                base = va - va % pte.page_size
                self._pt.protect(base, writable=writable, page_size=pte.page_size)
                va = base + pte.page_size
            else:
                va += PAGE_SIZE
        if self.cpu is not None:
            self.cpu.invalidate_space_range(vma.start, vma.length, asid=self.asid)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def handle_fault(self, vaddr: int, write: bool) -> None:
        """Resolve a page fault at ``vaddr`` or raise ProtectionError.

        The CPU raises the fault right after the hardware walk that
        failed; when the walker kept that walk's descent for this table
        and page, the handler starts from it instead of descending.
        """
        walker = self._walker
        missed = walker.missed
        # A kept descent serves this fault at most, whatever it does.
        walker.missed = None
        self._clock.advance(self._costs.vma_find_ns)
        vma = self.find_vma(vaddr)
        if vma is None:
            raise ProtectionError(f"segfault: {vaddr:#x} maps no VMA")
        if write and not vma.prot & Protection.WRITE:
            raise ProtectionError(f"write to read-only mapping at {vaddr:#x}")
        if not write and not vma.prot & Protection.READ:
            raise ProtectionError(f"read from PROT_NONE mapping at {vaddr:#x}")
        page_va = vaddr - vaddr % PAGE_SIZE
        pt = self._pt
        if missed is not None and missed.table is pt and missed.page_va == page_va:
            # The walk found the slot empty: descend's answer, leaf None.
            node = missed.node
            leaf = None
            write_protected = missed.write_protected
            shared = missed.shared
        else:
            missed = None
            node, _index, leaf, write_protected, shared = pt.descend(page_va)
        if write and write_protected:
            # First store into a fork-shared page-table window: break the
            # share once, for the whole window, charged to this access.
            # The break rewrote the window, so descend again, and the
            # retry walks in full.
            self._cow_break_window(page_va)
            node, _index, leaf, write_protected, shared = pt.descend(page_va)
            missed = None
        if leaf is None:
            # The leaf goes straight into a bottom node on an unshared
            # path; otherwise map creates or unshares the path, after the
            # data frame, as ever.  From the failed walk to that write
            # the node stays attached and private: the frame allocation
            # may run reclaim, but eviction pins shared paths and never
            # unshares, unmap never frees nodes, and the OOM killer never
            # tears down the running process.  Nothing touches the table
            # between that write and the retry walk, so when the descent
            # is the failed walk's, the retry would read the same nodes
            # and lines; it re-reads them instead (the cache prices the
            # lines again) unless the path was write-protected, whose bit
            # a COW break of the window in between (a userfault handler's
            # store) may have cleared.
            private = not shared and node.depth == pt.bottom_depth
            self._minor_fault(vma, page_va, write, node if private else None)
            if private and missed is not None and not write_protected:
                walker.reread = missed
        elif write and (write_protected or not leaf.writable):
            # On an unshared path the copy replaces the leaf in the node
            # this descent reached; a shared path unshares on the way.
            self._cow_fault(vma, page_va, leaf, None if shared else node)
        # Otherwise spurious — the translation is already valid.

    def _cow_break_window(self, page_va: int) -> None:
        """Privatize the fork-shared window containing ``page_va``.

        The COW fork installed one write-protected pointer per 2 MiB
        window instead of per-PTE copies.  The first write into such a
        window (a) clones the shared bottom-level node so this space owns
        its slice, (b) downgrades the raw writable bit on every leaf a
        COW VMA covers (so the per-page COW machinery sees them exactly
        as the eager fork would have left them), and (c) clears the slot
        write-protect.  All three steps are bounded by the fixed window
        span — O(1) in mapping size.  The leaf downgrades are free on the
        clock: the privatizing node copy already wrote the whole node.
        Leaves are matched to VMAs one run at a time: a VMA lookup
        covers every following leaf up to that VMA's end.
        """
        window_span = self._pt.span_at(self._pt.bottom_depth - 1)
        window_va = page_va - page_va % window_span
        node = self._pt.privatize_window(page_va)
        chaos = self._counters.chaos
        if chaos is not None:
            # Torn point: node privatized (refcounts consistent) but the
            # write-protect bit and leaf downgrades are still pending.
            chaos.hit("vm.cow_break")
        if node is not None:
            entries = node.entries
            # [first, last) leaf indexes of the VMA run last looked up.
            first = last = 0
            cow = False
            # Only values change, so the entries can be walked in place.
            for index, entry in entries.items():
                if not entry.writable:
                    continue
                if not first <= index < last:
                    leaf_va = window_va + index * PAGE_SIZE
                    vma = self.find_vma(leaf_va)
                    if vma is None:
                        first = last = 0
                        continue
                    first = index - (leaf_va - vma.start) // PAGE_SIZE
                    last = index + (vma.end - leaf_va) // PAGE_SIZE
                    cow = vma.needs_cow()
                if cow:
                    entries[index] = entry.read_only()
        self._pt.window_write_protect(window_va, protect=False)
        self._counters.bump("cow_break")

    def _minor_fault(
        self, vma: Vma, page_va: int, write: bool, node: Optional[PageTableNode]
    ) -> None:
        """Map ``page_va``'s frame: into ``node``, the private bottom node
        that holds its slot, or through :meth:`PageTable.map` when None."""
        self._clock.advance(self._costs.fault_accounting_ns)
        page_index = vma.backing_page(page_va)
        pfn = vma.private_copies.get(page_index)
        major = False
        if pfn is None:
            backing = vma.backing
            # The fault is major when the page waits on the swap device.
            major = backing.is_swapped(page_index)
            pfn = backing.frame_for(page_index, write=write)
        cow = vma.needs_cow()
        writable = (
            not cow and vma.prot & Protection.WRITE != 0
        ) or page_index in vma.private_copies
        if write and cow:
            # Write fault on a COW page (private file / forked anon):
            # copy immediately rather than mapping read-only and
            # re-faulting.
            pfn = self._make_private_copy(vma, page_index, pfn)
            writable = True
        if node is None:
            self._pt.map(page_va, pfn, writable=writable)
        else:
            self._pt.write_leaf(node, page_va, pfn, PAGE_SIZE, writable)
        meta = None
        if self._frame_table is not None and vma.backing.tracks_frame_meta:
            meta = self._frame_table.get_ref(pfn)
            meta.mapcount += 1
            meta.flags |= PageFlags.REFERENCED
        if self.lru is not None:
            self.lru.page_mapped(pfn, self, page_va, meta)
        kind = FaultType.MAJOR if major else FaultType.MINOR
        self.fault_stats[kind] += 1
        self._counters.bump(FAULT_COUNTERS[kind])

    def _cow_fault(
        self, vma: Vma, page_va: int, old: Pte, node: Optional[PageTableNode]
    ) -> None:
        """Copy the read-only leaf ``old`` that a store at ``page_va`` hit.

        ``node`` holds ``old`` on a path this table owns alone, or is None
        when :meth:`PageTable.replace_leaf` must descend (and unshare)
        itself.  Either way the old leaf's clear and the new leaf's write
        charge and hook in that order, and the new leaf lands last in the
        node's entry order.  Reclaim run by the copy's allocation may
        evict ``old`` first (a shared path is pinned, so only from
        ``node``); the copy then maps into the emptied slot.
        """
        if not vma.is_private():
            raise ProtectionError(
                f"write to read-only shared mapping at {page_va:#x}"
            )
        if old.page_size != PAGE_SIZE:
            # A huge leaf: split it as Linux splits a file THP on a write
            # fault.  Drop it, then copy the one 4 KiB page the store
            # needs; the rest of the old leaf refaults on demand.
            page_base = page_va - page_va % old.page_size
            self._teardown_pages(vma, page_base, page_base + old.page_size)
            if self.cpu is not None:
                self.cpu.invalidate_page(page_base, asid=self.asid)
            self._minor_fault(vma, page_va, True, None)
            return
        page_index = vma.backing_page(page_va)
        new_pfn = self._make_private_copy(vma, page_index, old.pfn)
        pt = self._pt
        if node is None:
            pt.replace_leaf(page_va, new_pfn, writable=True)
        else:
            index = pt.index_at(page_va, pt.bottom_depth)
            if node.entries.get(index) is old:
                pt.clear_slot(node, index, old)
            pt.write_leaf(node, page_va, new_pfn, PAGE_SIZE, True)
        if self._frame_table is not None:
            self._frame_table.get_ref(new_pfn)
        self.fault_stats[FaultType.COW] += 1
        self._counters.bump(FAULT_COUNTERS[FaultType.COW])

    def _make_private_copy(self, vma: Vma, page_index: int, src_pfn: int) -> int:
        """Allocate and fill a private DRAM copy of a backing page."""
        existing = vma.private_copies.get(page_index)
        if existing is not None:
            return existing
        new_pfn = self._buddy.alloc(0)
        lines = PAGE_SIZE // CACHE_LINE
        self._clock.advance(self._costs.copy_line_ns * lines * 2)
        self._counters.bump("cow_copy")
        vma.private_copies[page_index] = new_pfn
        return new_pfn

    # ------------------------------------------------------------------
    # Eviction (used by the reclaim baseline)
    # ------------------------------------------------------------------
    def evict_page(self, vaddr: int) -> bool:
        """Unmap one resident page so its frame can be reclaimed.

        Returns False if the page was not resident.  The backing decides
        whether eviction needs a swap write (dirty anon) or is free
        (clean file page).
        """
        page_va = vaddr - vaddr % PAGE_SIZE
        node, index, pte, write_protected, shared = self._pt.descend(page_va)
        if pte is None:
            return False
        vma = self.find_vma(page_va)
        # A COW-shared translation (fork's subtree sharing) is pinned:
        # unmapping here would privatize only this table's path while
        # the sibling keeps a live PTE to the frame swap-out is about to
        # free — a cross-space dangling translation.  Without a reverse
        # map the share cannot be broken from this side, so the page
        # waits until a write fault breaks the share (or a sharer exits).
        pinned = shared or write_protected
        page_index = 0
        if vma is not None:
            page_index = vma.backing_page(page_va)
            # A shared backing (anon frames after a COW fork) pins every
            # frame but this space's private copies: a sibling space
            # whose page table we cannot reach may map it.
            if vma.backing.shared and vma.private_copies.get(page_index) != pte.pfn:
                pinned = True
        if pinned:
            self._counters.bump("vm_evict_pinned")
            return False
        # The path is this table's alone: clear the leaf where the
        # descent found it.
        self._pt.clear_slot(node, index, pte)
        if self.cpu is not None:
            self.cpu.invalidate_page(page_va, asid=self.asid)
        if vma is not None:
            if vma.backing.resident_frame(page_index) == pte.pfn:
                # Only write back the frame we actually unmapped: a
                # private COW copy must not push out (and free) the
                # backing's original, possibly still-mapped frame.
                vma.backing.swap_out(page_index)
        self._counters.bump("vm_page_evict")
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @complexity("n", note="one pass over the live leaves; introspection only")
    def resident_pages(self) -> int:
        """Number of 4 KiB pages with live translations."""
        # o1: allow(flow-bounded) -- the leaves are the declared n, visited once
        return sum(
            pte.page_size // PAGE_SIZE for _, pte in self._pt.iter_leaves()
        )

    def total_mapped_bytes(self) -> int:
        """Sum of VMA lengths (virtual footprint)."""
        return sum(vma.length for vma in self._vmas)

    def fault_stats_total(self) -> int:
        """Total faults of all kinds this space has taken."""
        return sum(self.fault_stats)

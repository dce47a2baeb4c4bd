"""tmpfs: the page-cache-backed memory file system (per-page baseline).

Linux's tmpfs stores file data as individual page-cache pages: every page
is found, allocated and tracked separately through a radix tree.  That
per-page granularity is exactly what the paper's Figure 1 measures — so
this implementation charges one ``pagecache_op_ns`` per page on every
lookup, allocation and populate run, and its :meth:`frame_runs` can never
return a run longer than one page.

Contrast with :mod:`repro.fs.pmfs`, whose extent trees return whole-file
runs.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.errors import FileSystemError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.lint import complexity, o1
from repro.mem.buddy import BuddyAllocator
from repro.fs.vfs import FileSystem, Inode
from repro.obs.metrics import MetricsRegistry
from repro.units import PAGE_SIZE
from repro.vm.vma import MemoryBacking


class _TmpfsBacking(MemoryBacking):
    """mmap backing over one tmpfs inode's page cache.

    Pages belong to the file, not the mapping: munmap releases nothing
    until the file is unlinked.
    """

    def __init__(self, fs: "Tmpfs", inode: Inode) -> None:
        self._fs = fs
        self.inode = inode

    def frame_for(self, page_index: int, write: bool) -> int:
        return self._fs._page_in(self.inode, page_index)

    @complexity("n", note="one page-cache lookup per page")
    def frame_runs(self, start_page: int, npages: int) -> Iterator[Tuple[int, int, int]]:
        # Page-cache pages are individually placed: one run per page.
        for page_index in range(start_page, start_page + npages):
            yield page_index, self._fs._page_in(self.inode, page_index), 1


class Tmpfs(FileSystem):
    """Page-cache memory file system over a DRAM buddy allocator."""

    tech = MemoryTechnology.DRAM
    persistent = False

    def __init__(
        self,
        name: str,
        buddy: BuddyAllocator,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
    ) -> None:
        super().__init__(name, clock, costs, counters)
        self._buddy = buddy
        #: ino -> {page_index -> pfn}: the per-file radix tree.
        self._pages: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Page cache
    # ------------------------------------------------------------------
    def _cache_of(self, inode: Inode) -> Dict[int, int]:
        return self._pages.setdefault(inode.ino, {})

    @o1(note="one radix probe; the cold alloc is the miss path")
    def _page_in(self, inode: Inode, page_index: int) -> int:
        """Find-or-allocate one page-cache page (charged per page)."""
        self._clock.advance(self._costs.pagecache_op_ns)
        self._counters.bump("pagecache_lookup")
        cache = self._cache_of(inode)
        pfn = cache.get(page_index)
        if pfn is None:
            # o1: allow(flow-bounded) -- cold page-in; order-0 allocs hit the exact free list
            pfn = self._buddy.alloc(0)
            self._clock.advance(self._costs.zero_page_ns(PAGE_SIZE))
            cache[page_index] = pfn
            self._counters.bump("pagecache_alloc")
        return pfn

    # ------------------------------------------------------------------
    # FileSystem storage interface
    # ------------------------------------------------------------------
    @complexity("n", note="one page-cache insert per block — the per-page baseline")
    def allocate_blocks(self, inode: Inode, nblocks: int) -> None:
        cache = self._cache_of(inode)
        start = inode.page_count
        for page_index in range(start, start + nblocks):
            if page_index not in cache:
                self._page_in(inode, page_index)

    @complexity("n", note="one free per dropped page-cache page")
    def shrink_blocks(self, inode: Inode, keep_blocks: int) -> None:
        cache = self._cache_of(inode)
        doomed = [p for p in cache if p >= keep_blocks]
        for page_index in doomed:
            self._buddy.free(cache.pop(page_index))
            self._counters.bump("pagecache_free")

    @complexity("n", note="one free per cached page — per-page reclamation")
    def free_blocks(self, inode: Inode) -> None:
        cache = self._pages.pop(inode.ino, {})
        for pfn in cache.values():
            self._buddy.free(pfn)
            self._counters.bump("pagecache_free")
        inode.payload.clear()

    @o1(note="one page-cache probe per block")
    def charge_block_lookup(self, inode: Inode, page_index: int) -> int:
        return self._page_in(inode, page_index)

    def backing_for(self, inode: Inode) -> MemoryBacking:
        return _TmpfsBacking(self, inode)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cached_pages(self, inode: Inode) -> int:
        """Resident page-cache pages for ``inode``."""
        return len(self._pages.get(inode.ino, {}))

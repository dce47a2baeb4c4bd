"""Shared page-table subtrees for physically based mappings.

A bottom-level page-table node covers a 2 MiB-aligned window of virtual
addresses.  Under PBM the virtual window of an extent is fixed by its
physical address, so the node's *contents* are identical for every process
mapping that extent with the same permissions — build it once, link it
everywhere.  This module owns the build-once cache; PTE-writing costs are
paid on first build and amortize across processes (the sharing win bench
E3 measures).

Extents whose physical base is not 2 MiB-aligned cannot share whole
windows (their first/last windows would mix neighbouring memory); callers
fall back to private per-page mapping for those.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.obs.metrics import MetricsRegistry
from repro.paging.pagetable import PageTable, PageTableNode
from repro.units import HUGE_PAGE_2M, PAGE_SIZE


class SharedSubtrees:
    """Cache of built subtrees keyed by (first_pfn, count, writable)."""

    def __init__(
        self,
        levels: int,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
    ) -> None:
        self._levels = levels
        self._clock = clock
        self._costs = costs
        self._counters = counters
        #: Donor tables own the nodes; keep them alive with the cache.
        self._donors: Dict[Tuple[int, int, bool], PageTable] = {}
        self._windows: Dict[
            Tuple[int, int, bool], List[Tuple[int, PageTableNode]]
        ] = {}

    @property
    def window_span(self) -> int:
        """VA bytes one shared node covers."""
        return HUGE_PAGE_2M

    def shareable(self, va_base: int, pfn: int, count: int) -> bool:
        """True if the extent can be shared as whole windows.

        Needs the mapped VA range to start and end on window boundaries;
        under PBM that reduces to physical alignment of the extent.
        """
        length = count * PAGE_SIZE
        return (
            va_base % self.window_span == 0 and length % self.window_span == 0
        )

    def windows_for_extent(
        self,
        va_base: int,
        pfn: int,
        count: int,
        writable: bool,
    ) -> Optional[List[Tuple[int, PageTableNode]]]:
        """(window_va, node) pairs covering the extent, or None if the
        extent cannot be shared.

        First call for a given (extent, permission) builds the subtree —
        linear in extent pages, charged once.  Subsequent calls (other
        processes, remaps) hit the cache.
        """
        if not self.shareable(va_base, pfn, count):
            return None
        key = (pfn, count, writable)
        cached = self._windows.get(key)
        if cached is not None:
            self._counters.bump("pbm_subtree_hit")
            return cached
        self._counters.bump("pbm_subtree_build")
        donor = PageTable(
            levels=self._levels,
            clock=self._clock,
            costs=self._costs,
            counters=self._counters,
        )
        for page in range(count):
            donor.map(va_base + page * PAGE_SIZE, pfn + page, writable=writable)
        windows: List[Tuple[int, PageTableNode]] = []
        offset = 0
        length = count * PAGE_SIZE
        while offset < length:
            node = donor.subtree_at(va_base + offset, self._levels - 1)
            assert node is not None, "donor build left a hole"
            windows.append((va_base + offset, node))
            offset += self.window_span
        self._donors[key] = donor
        self._windows[key] = windows
        return windows

    @property
    def cached_extents(self) -> int:
        """Distinct (extent, permission) subtree sets held."""
        return len(self._windows)

    def invalidate_extent(self, pfn: int, count: int) -> None:
        """Drop cached subtrees for an extent (file deleted/reallocated).

        Tearing the donor down (not just forgetting it) matters: its
        PTEs are live translations into the extent, and the frames are
        about to be reallocatable.  ``clear`` detaches rather than
        recursing into nodes still linked by a process, so a mapping
        that outlives the file keeps its own (soon-dangling, and
        sanitizer-visible) subtree.
        """
        for writable in (False, True):
            self._windows.pop((pfn, count, writable), None)
            donor = self._donors.pop((pfn, count, writable), None)
            if donor is not None:
                donor.clear()

"""IOMMU and DMA-pinning model (paper §3.1, "Memory locking").

"Currently letting a device access memory often requires locking the page
in memory; even devices that support page faults through an IOMMU incur
high penalties.  With file-only memory, data is implicitly pinned in
memory, as pages are never reclaimed or relocated until the file is
explicitly unmapped."

Three device-access regimes are modeled:

* **pin/unpin** (baseline): before DMA the driver pins every page
  (get_user_pages: one frame-metadata update + refcount per page) and
  builds one IOMMU entry per page; after DMA it unpins — linear both ways.
* **IOMMU page faults** (ATS/PRI): no pinning, but each device-side fault
  pays the PRI round trip the paper calls "high penalties".
* **implicitly pinned** (file-only memory): the buffer is a mapped file
  extent — never reclaimed or moved — so the driver installs one IOMMU
  entry per *extent* and transfers immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import MappingError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.mem.frame_meta import FrameTable, PageFlags
from repro.obs.metrics import MetricsRegistry
from repro.units import PAGE_SIZE

#: IOMMU page-request-interface round trip (device fault -> OS -> resume);
#: Intel VT-d measurements put this in the tens of microseconds.
PRI_FAULT_NS = 20_000
#: Install/remove one IOMMU translation entry.
IOMMU_ENTRY_NS = 120
#: Pin one page: get_user_pages fast path (refcount + flags).
PIN_PAGE_NS = 180


@dataclass
class DmaRegion:
    """A device-visible window over physical memory."""

    iova: int
    length: int
    #: (paddr, length) runs backing the window, in order.
    runs: List[Tuple[int, int]]
    pinned_pfns: List[int]
    implicit: bool


class Iommu:
    """One device's IOMMU context: maps, pins, and fault accounting."""

    def __init__(
        self,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
        frame_table: Optional[FrameTable] = None,
    ) -> None:
        self._clock = clock
        self._costs = costs
        self._counters = counters
        self._frame_table = frame_table
        self._next_iova = 1 << 40
        self._regions: Dict[int, DmaRegion] = {}

    # ------------------------------------------------------------------
    # Baseline: pin per page, map per page
    # ------------------------------------------------------------------
    def map_pinned(self, runs: Iterable[Tuple[int, int]]) -> DmaRegion:
        """Pin and map a buffer page by page (the get_user_pages path)."""
        run_list = list(runs)
        pinned: List[int] = []
        entries = 0
        for paddr, length in run_list:
            self._check_run(paddr, length)
            for pfn in range(paddr // PAGE_SIZE, (paddr + length) // PAGE_SIZE):
                self._clock.advance(PIN_PAGE_NS + IOMMU_ENTRY_NS)
                self._counters.bump("dma_page_pinned")
                if self._frame_table is not None:
                    meta = self._frame_table.get_ref(pfn)
                    meta.set_flag(PageFlags.MLOCKED)
                pinned.append(pfn)
                entries += 1
        region = self._install(run_list, pinned, implicit=False)
        return region

    def unmap_pinned(self, region: DmaRegion) -> None:
        """Unpin and unmap — linear again."""
        self._remove(region)
        for pfn in region.pinned_pfns:
            self._clock.advance(PIN_PAGE_NS + IOMMU_ENTRY_NS)
            self._counters.bump("dma_page_unpinned")
            if self._frame_table is not None:
                meta = self._frame_table.touch(pfn)
                meta.clear_flag(PageFlags.MLOCKED)
                if meta.refcount:
                    meta.refcount -= 1

    # ------------------------------------------------------------------
    # File-only memory: implicit pinning, map per extent
    # ------------------------------------------------------------------
    def map_implicit(self, runs: Iterable[Tuple[int, int]]) -> DmaRegion:
        """Map a file-extent buffer: one IOMMU entry per contiguous run.

        No pinning work at all — the pages "are never reclaimed or
        relocated until the file is explicitly unmapped".
        """
        run_list = list(runs)
        for paddr, length in run_list:
            self._check_run(paddr, length)
            self._clock.advance(IOMMU_ENTRY_NS)
            self._counters.bump("dma_extent_mapped")
        return self._install(run_list, pinned=[], implicit=True)

    def unmap_implicit(self, region: DmaRegion) -> None:
        """Remove the per-extent entries — O(#extents)."""
        if not region.implicit:
            raise MappingError("region was pin-mapped; use unmap_pinned")
        self._remove(region)
        for _ in region.runs:
            self._clock.advance(IOMMU_ENTRY_NS)
            self._counters.bump("dma_extent_unmapped")

    # ------------------------------------------------------------------
    # ATS/PRI: no pinning, pay per device fault
    # ------------------------------------------------------------------
    def device_fault(self) -> None:
        """One IOMMU page-request round trip (the 'high penalty')."""
        self._clock.advance(PRI_FAULT_NS)
        self._counters.bump("iommu_pri_fault")

    # ------------------------------------------------------------------
    # Transfers / internals
    # ------------------------------------------------------------------
    def transfer(self, region: DmaRegion, bytes_count: int) -> None:
        """Model a DMA transfer through the window (per-line media cost
        is borne by the device; we charge a nominal setup)."""
        if bytes_count <= 0 or bytes_count > region.length:
            raise MappingError(
                f"transfer of {bytes_count} bytes exceeds region "
                f"of {region.length}"
            )
        self._counters.bump("dma_transfer")

    def _check_run(self, paddr: int, length: int) -> None:
        if paddr % PAGE_SIZE or length <= 0 or length % PAGE_SIZE:
            raise MappingError(
                f"DMA run ({paddr:#x}, {length}) must be page-aligned"
            )

    def _install(
        self, runs: List[Tuple[int, int]], pinned: List[int], implicit: bool
    ) -> DmaRegion:
        length = sum(run_length for _, run_length in runs)
        region = DmaRegion(
            iova=self._next_iova,
            length=length,
            runs=runs,
            pinned_pfns=pinned,
            implicit=implicit,
        )
        self._next_iova += max(length, PAGE_SIZE)
        self._regions[region.iova] = region
        return region

    def _remove(self, region: DmaRegion) -> None:
        if self._regions.pop(region.iova, None) is None:
            raise MappingError(f"region at iova {region.iova:#x} not mapped")

    @property
    def mapped_regions(self) -> int:
        """Live device-visible windows."""
        return len(self._regions)

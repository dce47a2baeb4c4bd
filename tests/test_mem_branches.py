"""Branch coverage for mem-layer edge cases the main suites skip."""

import pytest

from repro.errors import NoSpaceError, OutOfMemoryError
from repro.fs.extent import Extent
from repro.fs.pmfs import BlockAllocator
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.mem.bitmap import Bitmap
from repro.mem.buddy import BuddyAllocator
from repro.mem.physical import MemoryRegion
from repro.obs.metrics import MetricsRegistry
from repro.units import KIB, MIB, PAGE_SIZE


class TestBuddyOddRegions:
    def test_non_power_of_two_region_fully_usable(self):
        # 3 MiB region = 768 frames; seeding must cover every frame.
        region = MemoryRegion(start=0, size=3 * MIB, tech=MemoryTechnology.DRAM)
        buddy = BuddyAllocator(region, max_order=10)
        assert buddy.free_frames == 768
        taken = 0
        while True:
            try:
                buddy.alloc(0)
                taken += 1
            except OutOfMemoryError:
                break
        assert taken == 768

    def test_offset_region_seed_alignment(self):
        # A region whose start is 2 MiB-aligned in absolute PFNs seeds a
        # full order-9 block at its base.
        region = MemoryRegion(
            start=4 * MIB, size=2 * MIB, tech=MemoryTechnology.DRAM
        )
        buddy = BuddyAllocator(region, max_order=9)
        pfn = buddy.alloc(9)  # one 2 MiB block
        assert pfn == 4 * MIB // PAGE_SIZE

    def test_misaligned_region_cannot_mint_aligned_blocks(self):
        # 5 MiB start is not 2 MiB-aligned: no order-9 block can exist,
        # because buddy alignment is absolute.
        region = MemoryRegion(
            start=5 * MIB, size=2 * MIB, tech=MemoryTechnology.DRAM
        )
        buddy = BuddyAllocator(region, max_order=9)
        with pytest.raises(OutOfMemoryError):
            buddy.alloc(9)
        assert buddy.free_frames == 512  # nothing lost, just fragmented

    def test_max_order_zero_degenerates_to_page_allocator(self):
        region = MemoryRegion(start=0, size=64 * KIB, tech=MemoryTechnology.DRAM)
        buddy = BuddyAllocator(region, max_order=0)
        pfns = [buddy.alloc(0) for _ in range(16)]
        assert len(set(pfns)) == 16
        for pfn in pfns:
            buddy.free(pfn)
        assert buddy.largest_free_order() == 0  # cannot coalesce past order 0


class TestBitmapWrap:
    def test_hint_beyond_size_wraps(self):
        bitmap = Bitmap(32)
        assert bitmap.find_clear_run(4, start_hint=100) is not None

    def test_run_straddling_hint_found_after_wrap(self):
        bitmap = Bitmap(16)
        bitmap.set_range(6, 10)  # free: 0..5
        assert bitmap.find_clear_run(4, start_hint=8) == 0

    def test_full_scan_none(self):
        bitmap = Bitmap(8)
        bitmap.set_range(0, 4)
        bitmap.set_range(5, 3)
        assert bitmap.find_clear_run(2) is None
        assert bitmap.find_clear_run(1) == 4


class TestBlockAllocatorRollback:
    def make(self, blocks=64):
        region = MemoryRegion(
            start=0, size=blocks * PAGE_SIZE, tech=MemoryTechnology.NVM
        )
        return BlockAllocator(
            region, SimClock(), CostModel(), MetricsRegistry()
        )

    def test_best_effort_rolls_back_on_failure(self):
        alloc = self.make(blocks=64)
        alloc.alloc_extent(32)
        free_before = alloc.free_blocks
        held = [Extent(logical=0, pfn=0, count=1)]  # an earlier piece, not ours
        with pytest.raises(NoSpaceError):
            alloc.alloc_best_effort(64, held, logical=1)  # more than remains
        assert alloc.free_blocks == free_before  # partial grabs undone
        assert held == [Extent(logical=0, pfn=0, count=1)]  # and unlisted

    def test_aligned_search_skips_misaligned_candidates(self):
        alloc = self.make(blocks=64)
        alloc.alloc_extent(1)  # occupy block 0
        extent = alloc.alloc_extent(16, align_frames=16)
        assert extent.pfn % 16 == 0

    def test_alignment_impossible_returns_nospace(self):
        alloc = self.make(blocks=64)
        alloc.alloc_extent(1)  # the only 128-aligned start is now taken
        with pytest.raises(NoSpaceError):
            alloc.alloc_extent(32, align_frames=128)

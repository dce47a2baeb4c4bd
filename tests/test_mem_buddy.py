"""Buddy allocator: splitting, coalescing, accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OutOfMemoryError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.mem.buddy import BuddyAllocator
from repro.mem.physical import MemoryRegion
from repro.obs.metrics import MetricsRegistry
from repro.units import MIB, PAGE_SIZE


def make_buddy(size=4 * MIB, max_order=10, start=0):
    region = MemoryRegion(start=start, size=size, tech=MemoryTechnology.DRAM)
    return BuddyAllocator(region, max_order=max_order)


class TestAllocation:
    def test_simple_alloc_free(self):
        buddy = make_buddy()
        pfn = buddy.alloc(0)
        assert buddy.is_allocated(pfn)
        assert buddy.free_frames == 4 * MIB // PAGE_SIZE - 1
        buddy.free(pfn)
        assert buddy.free_frames == 4 * MIB // PAGE_SIZE

    def test_higher_order_alloc_is_aligned(self):
        buddy = make_buddy()
        pfn = buddy.alloc(4)  # 16 frames
        assert pfn % 16 == 0

    def test_nonzero_region_start_alignment(self):
        buddy = make_buddy(start=3 * MIB)
        pfn = buddy.alloc(4)
        first = 3 * MIB // PAGE_SIZE
        assert (pfn - first) % 16 == 0

    def test_alloc_pages_rounds_to_power_of_two(self):
        buddy = make_buddy()
        before = buddy.free_frames
        buddy.alloc_pages(5)  # rounds up to 8
        assert before - buddy.free_frames == 8

    def test_order_for_pages(self):
        assert BuddyAllocator.order_for_pages(1) == 0
        assert BuddyAllocator.order_for_pages(2) == 1
        assert BuddyAllocator.order_for_pages(3) == 2
        assert BuddyAllocator.order_for_pages(512) == 9
        with pytest.raises(ValueError):
            BuddyAllocator.order_for_pages(0)

    def test_exhaustion_raises(self):
        buddy = make_buddy(size=64 * PAGE_SIZE, max_order=6)
        buddy.alloc(6)
        with pytest.raises(OutOfMemoryError):
            buddy.alloc(0)

    def test_out_of_range_order_rejected(self):
        buddy = make_buddy(max_order=5)
        with pytest.raises(ValueError):
            buddy.alloc(6)
        with pytest.raises(ValueError):
            buddy.alloc(-1)

    def test_distinct_blocks_never_overlap(self):
        buddy = make_buddy()
        seen = set()
        for _ in range(16):
            pfn = buddy.alloc(2)  # 4-frame blocks
            block = set(range(pfn, pfn + 4))
            assert not block & seen
            seen |= block


class TestCoalescing:
    def test_free_merges_back_to_whole_region(self):
        buddy = make_buddy(size=16 * PAGE_SIZE, max_order=4)
        pfns = [buddy.alloc(0) for _ in range(16)]
        for pfn in pfns:
            buddy.free(pfn)
        assert buddy.largest_free_order() == 4

    def test_partial_free_keeps_fragmentation(self):
        buddy = make_buddy(size=16 * PAGE_SIZE, max_order=4)
        pfns = [buddy.alloc(0) for _ in range(16)]
        for pfn in pfns[::2]:
            buddy.free(pfn)
        assert buddy.largest_free_order() == 0
        assert buddy.fragmentation_index() > 0.8

    def test_double_free_rejected(self):
        buddy = make_buddy()
        pfn = buddy.alloc(0)
        buddy.free(pfn)
        with pytest.raises(ValueError):
            buddy.free(pfn)

    def test_free_unallocated_rejected(self):
        buddy = make_buddy()
        with pytest.raises(ValueError):
            buddy.free(12345)


class TestAccounting:
    def test_charges_costs(self):
        clock = SimClock()
        counters = MetricsRegistry()
        region = MemoryRegion(start=0, size=MIB, tech=MemoryTechnology.DRAM)
        buddy = BuddyAllocator(
            region, clock=clock, costs=CostModel(), counters=counters
        )
        buddy.alloc(0)
        assert clock.now >= CostModel().frame_alloc_ns
        assert counters.get("buddy_alloc") == 1

    def test_free_blocks_by_order(self):
        buddy = make_buddy(size=16 * PAGE_SIZE, max_order=4)
        info = buddy.free_blocks_by_order()
        assert info == {4: 1}
        buddy.alloc(0)
        info = buddy.free_blocks_by_order()
        assert sum(count * (1 << order) for order, count in info.items()) == 15

    def test_fragmentation_index_bounds(self):
        buddy = make_buddy(size=16 * PAGE_SIZE, max_order=4)
        assert buddy.fragmentation_index() == 0.0

    @given(st.data())
    @settings(max_examples=50)
    def test_conservation_invariant(self, data):
        """free_frames + live frames == region frames, always."""
        buddy = make_buddy(size=64 * PAGE_SIZE, max_order=6)
        total = 64
        live = {}
        for _ in range(data.draw(st.integers(1, 60))):
            if live and data.draw(st.booleans()):
                pfn = data.draw(st.sampled_from(sorted(live)))
                buddy.free(pfn)
                del live[pfn]
            else:
                order = data.draw(st.integers(0, 3))
                try:
                    pfn = buddy.alloc(order)
                except OutOfMemoryError:
                    continue
                live[pfn] = order
            live_frames = sum(1 << order for order in live.values())
            assert buddy.free_frames + live_frames == total


class TestFreeMany:
    def test_batch_free_returns_every_block(self):
        buddy = make_buddy()
        pfns = [buddy.alloc(0) for _ in range(8)]
        buddy.free_many(pfns)
        assert buddy.free_frames == 4 * MIB // PAGE_SIZE
        for pfn in pfns:
            assert not buddy.is_allocated(pfn)

    def test_batch_free_charges_once(self):
        clock = SimClock()
        counters = MetricsRegistry()
        region = MemoryRegion(start=0, size=MIB, tech=MemoryTechnology.DRAM)
        buddy = BuddyAllocator(
            region, clock=clock, costs=CostModel(), counters=counters
        )
        pfns = [buddy.alloc(0) for _ in range(16)]
        before = clock.now
        buddy.free_many(pfns)
        # One charged frame_free_ns for the whole batch; per-block work
        # and merges ride along at 0 ns (the O(1) crypto-erase contract).
        assert clock.now - before == CostModel().frame_free_ns

    def test_empty_batch_is_noop(self):
        clock = SimClock()
        region = MemoryRegion(start=0, size=MIB, tech=MemoryTechnology.DRAM)
        buddy = BuddyAllocator(region, clock=clock, costs=CostModel())
        buddy.free_many([])
        assert clock.now == 0

    def test_batch_free_still_rejects_bad_pfn(self):
        buddy = make_buddy()
        pfn = buddy.alloc(0)
        with pytest.raises(ValueError):
            buddy.free_many([pfn, pfn + 1])

"""Pre-zeroed frame pool: O(1) foreground, background ledger."""

import pytest

from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.mem.buddy import BuddyAllocator
from repro.mem.physical import MemoryRegion
from repro.mem.zeropool import ZeroPool
from repro.obs.metrics import MetricsRegistry
from repro.units import MIB, PAGE_SIZE


def make_pool(target=8, region_size=MIB):
    clock = SimClock()
    counters = MetricsRegistry()
    region = MemoryRegion(start=0, size=region_size, tech=MemoryTechnology.DRAM)
    buddy = BuddyAllocator(region)
    pool = ZeroPool(buddy, target, clock=clock, costs=CostModel(), counters=counters)
    return pool, buddy, clock, counters


class TestForeground:
    def test_stocked_take_is_free_of_zeroing(self):
        pool, _, clock, counters = make_pool()
        pool.refill()
        before = clock.now
        pool.take()
        assert clock.now == before  # no foreground zeroing charged
        assert counters.get("zeropool_hit") == 1

    def test_empty_pool_falls_back_to_foreground_zero(self):
        pool, _, clock, counters = make_pool()
        before = clock.now
        pool.take()
        assert clock.now - before >= CostModel().zero_page_ns(PAGE_SIZE)
        assert counters.get("zeropool_miss") == 1
        assert pool.ledger()["foreground_zero_ns"] > 0

    def test_give_back_returns_frame(self):
        pool, buddy, _, _ = make_pool()
        pool.refill()
        free_before = buddy.free_frames
        pfn = pool.take()
        pool.give_back(pfn)
        assert buddy.free_frames == free_before + 1


class TestBackground:
    def test_refill_reaches_target(self):
        pool, _, _, _ = make_pool(target=8)
        added = pool.refill()
        assert added == 8
        assert pool.available == 8

    def test_refill_bounded(self):
        pool, _, _, _ = make_pool(target=8)
        assert pool.refill(max_frames=3) == 3
        assert pool.available == 3

    def test_refill_charges_background_not_foreground(self):
        pool, _, clock, _ = make_pool(target=4)
        pool.refill()
        assert clock.now == 0  # foreground clock untouched
        assert pool.ledger()["background_zero_ns"] == 4 * CostModel().zero_page_ns(
            PAGE_SIZE
        )

    def test_refill_stops_at_oom(self):
        pool, _, _, _ = make_pool(target=10_000, region_size=16 * PAGE_SIZE)
        added = pool.refill()
        assert added == 16

    def test_ledger_reports_reserved_space(self):
        pool, _, _, _ = make_pool(target=4)
        pool.refill()
        assert pool.ledger()["reserved_bytes"] == 4 * PAGE_SIZE

    def test_negative_target_rejected(self):
        region = MemoryRegion(start=0, size=MIB, tech=MemoryTechnology.DRAM)
        with pytest.raises(ValueError):
            ZeroPool(BuddyAllocator(region), -1)

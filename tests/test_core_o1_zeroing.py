"""Erase strategies: eager (linear) vs pooled vs crypto (O(1))."""

import pytest

from repro.core.o1.zeroing import CryptoErase, EagerZeroing, PooledZeroing
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.mem.buddy import BuddyAllocator
from repro.mem.physical import MemoryRegion
from repro.mem.zeropool import ZeroPool
from repro.obs.metrics import MetricsRegistry
from repro.units import MIB, PAGE_SIZE


def make_env(region_size=16 * MIB):
    clock = SimClock()
    counters = MetricsRegistry()
    costs = CostModel()
    region = MemoryRegion(start=0, size=region_size, tech=MemoryTechnology.DRAM)
    buddy = BuddyAllocator(region, max_order=12)
    return buddy, clock, costs, counters


class TestEagerZeroing:
    def test_cost_linear_in_frames(self):
        buddy, clock, costs, counters = make_env()
        strategy = EagerZeroing(buddy, clock, costs, counters)
        strategy.take_frames(1)
        one = clock.now
        strategy.take_frames(64)
        assert clock.now - one == 64 * one  # 64x the single-frame cost...

    def test_frames_returned(self):
        buddy, clock, costs, counters = make_env()
        strategy = EagerZeroing(buddy, clock, costs, counters)
        before = buddy.free_frames
        pfns = strategy.take_frames(8)
        strategy.return_frames(pfns)
        assert buddy.free_frames == before

    def test_no_background_work(self):
        buddy, clock, costs, counters = make_env()
        strategy = EagerZeroing(buddy, clock, costs, counters)
        strategy.take_frames(16)
        assert strategy.background_ns() == 0


class TestPooledZeroing:
    def test_foreground_constant_while_stocked(self):
        buddy, clock, costs, counters = make_env()
        pool = ZeroPool(buddy, 256, clock=clock, costs=costs, counters=counters)
        strategy = PooledZeroing(pool)
        strategy.replenish()
        start = clock.now
        strategy.take_frames(1)
        one = clock.now - start
        start = clock.now
        strategy.take_frames(128)
        many = clock.now - start
        # No per-frame zeroing in the foreground: both near zero.
        assert one == 0 and many == 0

    def test_background_ledger_accumulates(self):
        buddy, clock, costs, counters = make_env()
        pool = ZeroPool(buddy, 32, clock=clock, costs=costs, counters=counters)
        strategy = PooledZeroing(pool)
        strategy.replenish()
        assert strategy.background_ns() == 32 * costs.zero_page_ns(PAGE_SIZE)

    def test_exhausted_pool_degrades_to_foreground(self):
        buddy, clock, costs, counters = make_env()
        pool = ZeroPool(buddy, 2, clock=clock, costs=costs, counters=counters)
        strategy = PooledZeroing(pool)
        strategy.replenish()
        start = clock.now
        strategy.take_frames(4)  # 2 pooled + 2 foreground
        assert clock.now - start == 2 * costs.zero_page_ns(PAGE_SIZE)


class TestCryptoErase:
    def test_constant_cost_regardless_of_size(self):
        buddy, clock, costs, counters = make_env()
        strategy = CryptoErase(buddy, clock, costs, counters)
        start = clock.now
        small = strategy.take_frames(1)
        small_cost = clock.now - start
        start = clock.now
        big = strategy.take_frames(512)
        big_cost = clock.now - start
        assert small_cost == big_cost == CryptoErase.KEY_OP_NS

    def test_return_destroys_key(self):
        buddy, clock, costs, counters = make_env()
        strategy = CryptoErase(buddy, clock, costs, counters)
        pfns = strategy.take_frames(8)
        assert strategy.live_keys == 1
        strategy.return_frames(pfns)
        assert strategy.live_keys == 0
        assert counters.get("crypto_key_destroy") == 1

    def test_return_gives_frames_back(self):
        buddy, clock, costs, counters = make_env()
        strategy = CryptoErase(buddy, clock, costs, counters)
        before = buddy.free_frames
        pfns = strategy.take_frames(16)
        strategy.return_frames(pfns)
        assert buddy.free_frames == before

    def test_empty_batch_tolerated(self):
        buddy, clock, costs, counters = make_env()
        strategy = CryptoErase(buddy, clock, costs, counters)
        strategy.return_frames([])
        assert strategy.live_keys == 0

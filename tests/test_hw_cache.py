"""Cache-hierarchy model: hit levels, LRU, technology pricing."""

import pytest

from repro.hw.cache import CacheModel
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.obs.metrics import MetricsRegistry
from repro.units import CACHE_LINE


def make_cache(l1_lines=4, llc_lines=16, tech=MemoryTechnology.DRAM):
    clock = SimClock()
    counters = MetricsRegistry()
    costs = CostModel()
    cache = CacheModel(
        clock,
        costs,
        counters,
        tech_of=lambda _pa: tech,
        l1_lines=l1_lines,
        llc_lines=llc_lines,
    )
    return cache, clock, counters, costs


class TestReferenceCosts:
    def test_cold_miss_costs_dram(self):
        cache, _, _, costs = make_cache()
        assert cache.reference(0) == costs.dram_read_ns

    def test_cold_write_miss_costs_dram_write(self):
        cache, _, _, costs = make_cache()
        assert cache.reference(0, write=True) == costs.dram_write_ns

    def test_nvm_miss_costs_nvm(self):
        cache, _, _, costs = make_cache(tech=MemoryTechnology.NVM)
        assert cache.reference(0) == costs.nvm_read_ns
        assert cache.reference(CACHE_LINE, write=True) == costs.nvm_write_ns

    def test_second_reference_hits_l1(self):
        cache, _, _, costs = make_cache()
        cache.reference(0)
        assert cache.reference(0) == costs.l1_hit_ns

    def test_same_line_different_bytes_hit(self):
        cache, _, _, costs = make_cache()
        cache.reference(128)
        assert cache.reference(128 + CACHE_LINE - 1) == costs.l1_hit_ns

    def test_l1_eviction_falls_to_llc(self):
        cache, _, _, costs = make_cache(l1_lines=2, llc_lines=64)
        cache.reference(0)
        cache.reference(CACHE_LINE)
        cache.reference(2 * CACHE_LINE)  # evicts line 0 from L1
        assert cache.reference(0) == costs.llc_hit_ns

    def test_llc_eviction_back_to_memory(self):
        cache, _, _, costs = make_cache(l1_lines=1, llc_lines=2)
        for index in range(4):
            cache.reference(index * CACHE_LINE)
        assert cache.reference(0) == costs.dram_read_ns

    def test_clock_advances_by_reference_cost(self):
        cache, clock, _, costs = make_cache()
        cache.reference(0)
        cache.reference(0)
        assert clock.now == costs.dram_read_ns + costs.l1_hit_ns


class TestCounters:
    def test_hit_miss_counters(self):
        cache, _, counters, _ = make_cache()
        cache.reference(0)
        cache.reference(0)
        assert counters.get("cache_miss") == 1
        assert counters.get("cache_l1_hit") == 1


class TestRangeAndMaintenance:
    def test_touch_range_covers_every_line(self):
        cache, _, counters, _ = make_cache(l1_lines=64, llc_lines=256)
        cache.touch_range(0, 4 * CACHE_LINE)
        assert counters.get("cache_miss") == 4

    def test_touch_range_zero_size(self):
        cache, clock, _, _ = make_cache()
        assert cache.touch_range(0, 0) == 0
        assert clock.now == 0

    def test_flush_makes_cold(self):
        cache, _, _, costs = make_cache()
        cache.reference(0)
        cache.flush()
        assert cache.reference(0) == costs.dram_read_ns

    def test_evict_range(self):
        cache, _, _, costs = make_cache()
        cache.reference(0)
        cache.reference(CACHE_LINE)
        cache.evict_range(0, CACHE_LINE)
        assert not cache.is_cached(0)
        assert cache.is_cached(CACHE_LINE)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            CacheModel(SimClock(), CostModel(), MetricsRegistry(), l1_lines=0)

    def test_warm_range_free_and_llc_resident(self):
        cache, clock, _, costs = make_cache(l1_lines=2, llc_lines=64)
        cache.warm_range(0, 8 * CACHE_LINE)
        assert clock.now == 0  # warming charges nothing
        # Warmed lines hit the LLC, not L1.
        assert cache.reference(0) == costs.llc_hit_ns

    def test_warm_range_does_not_overflow_l1(self):
        cache, _, _, costs = make_cache(l1_lines=2, llc_lines=64)
        cache.reference(1024)  # L1-resident line
        cache.warm_range(0, 32 * CACHE_LINE)
        assert cache.reference(1024) == costs.l1_hit_ns  # undisturbed

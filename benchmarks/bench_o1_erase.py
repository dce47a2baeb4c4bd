"""E9 — §3.1: erasing memory before reuse, linear vs O(1) strategies.

"For security purposes memory must be zeroed out before being reused ...
This is currently a linear-time operation and suggests the need for new
techniques to efficiently erase memory in constant time."  Sweep: eager
inline zeroing (baseline) vs a pre-zeroed pool vs crypto erase, foreground
cost per allocation size, plus each strategy's off-critical-path bill.
"""

from conftest import run_once

from repro.analysis import Series, format_series_table
from repro.core.o1.zeroing import CryptoErase, EagerZeroing, PooledZeroing
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.mem.buddy import BuddyAllocator
from repro.mem.physical import MemoryRegion
from repro.mem.zeropool import ZeroPool
from repro.obs.metrics import MetricsRegistry
from repro.units import GIB, KIB, MIB, PAGE_SIZE

SIZES_KB = [4, 64, 1024, 16 * 1024, 256 * 1024]  # up to 256 MiB


def make_buddy():
    region = MemoryRegion(start=0, size=1 * GIB, tech=MemoryTechnology.DRAM)
    return BuddyAllocator(region, max_order=18)


def foreground_cost(strategy_name: str, size_kb: int):
    clock = SimClock()
    counters = MetricsRegistry()
    costs = CostModel()
    buddy = make_buddy()
    if strategy_name == "eager":
        strategy = EagerZeroing(buddy, clock, costs, counters)
    elif strategy_name == "pooled":
        pool = ZeroPool(
            buddy, target_size=262_144, clock=clock, costs=costs,
            counters=counters,
        )
        strategy = PooledZeroing(pool)
        strategy.replenish()
    else:
        strategy = CryptoErase(buddy, clock, costs, counters)
    frames = size_kb * KIB // PAGE_SIZE
    start = clock.now
    strategy.take_frames(frames)
    return clock.now - start, strategy.background_ns()


def run_experiment():
    series = {name: Series(name) for name in ("eager", "pooled", "crypto")}
    background = {}
    for name in series:
        for size_kb in SIZES_KB:
            fg, bg = foreground_cost(name, size_kb)
            series[name].add(size_kb, fg)
            background[name] = bg
    return series, background


def test_o1_erase_strategies(benchmark, record_result):
    series, background = run_once(benchmark, run_experiment)
    table = format_series_table(list(series.values()), x_label="alloc KB")
    bg = "  ".join(f"{k}: {v / 1e6:.2f}ms" for k, v in background.items())
    record_result("o1_erase", table + f"\nbackground work: {bg}")
    # Baseline is linear: 64K x the size -> ~64K x the cost.
    assert series["eager"].growth_factor() > 10_000
    # Pooled foreground is zero while the pool holds.
    assert max(series["pooled"].ys) == 0
    # Crypto erase is constant regardless of size.
    assert series["crypto"].is_roughly_constant(0.01)
    # The pool's zeroing didn't vanish — it moved off the critical path.
    assert background["pooled"] > 0
    assert background["crypto"] == 0  # truly O(1) total work

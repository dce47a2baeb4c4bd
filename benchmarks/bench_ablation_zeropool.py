"""Ablation — zero-pool sizing: reserve frames vs foreground stalls.

The pre-zeroed pool is only O(1) while stocked.  Sweep the pool target
against a bursty allocation pattern and report foreground zeroing stalls
and the reserved-memory bill — the sizing curve an operator would tune.
"""

from conftest import run_once

from repro.analysis import format_table
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.mem.buddy import BuddyAllocator
from repro.mem.physical import MemoryRegion
from repro.mem.zeropool import ZeroPool
from repro.obs.metrics import MetricsRegistry
from repro.units import GIB, KIB, MIB, PAGE_SIZE

POOL_TARGETS = [0, 64, 512, 4096]
BURSTS = 32
BURST_FRAMES = 128  # 512 KiB per burst


def run_pool(target: int):
    clock = SimClock()
    counters = MetricsRegistry()
    costs = CostModel()
    region = MemoryRegion(start=0, size=1 * GIB, tech=MemoryTechnology.DRAM)
    buddy = BuddyAllocator(region, max_order=18)
    pool = ZeroPool(buddy, target, clock=clock, costs=costs, counters=counters)
    pool.refill()
    for _ in range(BURSTS):
        frames = [pool.take() for _ in range(BURST_FRAMES)]
        for pfn in frames:
            pool.give_back(pfn)
        pool.refill()  # background zeroer runs between bursts
    ledger = pool.ledger()
    return (
        ledger["foreground_zero_ns"],
        ledger["background_zero_ns"],
        counters.get("zeropool_miss"),
        target * PAGE_SIZE // KIB,
    )


def run_experiment():
    rows = []
    for target in POOL_TARGETS:
        fg, bg, misses, reserved_kib = run_pool(target)
        rows.append((target, fg / 1000, bg / 1000, misses, reserved_kib))
    return rows


def test_ablation_zeropool_sizing(benchmark, record_result):
    rows = run_once(benchmark, run_experiment)
    record_result(
        "ablation_zeropool",
        format_table(
            ["pool frames", "foreground us", "background us", "misses", "reserved KiB"],
            [
                (t, f"{fg:.1f}", f"{bg:.1f}", misses, kib)
                for t, fg, bg, misses, kib in rows
            ],
        ),
    )
    foregrounds = [fg for _, fg, _, _, _ in rows]
    # Bigger pools strictly reduce foreground stalls; a pool covering the
    # burst eliminates them.
    assert foregrounds == sorted(foregrounds, reverse=True)
    assert foregrounds[-1] == 0.0
    # No pool = everything in the foreground.
    assert rows[0][3] == BURSTS * BURST_FRAMES

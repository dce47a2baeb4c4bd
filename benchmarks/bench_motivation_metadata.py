"""E8 — §2 motivation: per-page metadata work is linear in memory size.

"The Linux PAGE structure has 25 separate flags ... Any operations that
are linear in the amount of memory available (physical) or used (virtual)
may get relatively slower."  Measured: the cost of one metadata pass over
all frames (what reclaim scans, memory hotplug, and compaction do) as
physical memory grows — against the O(1) alternative of per-extent
bitmap state.
"""

from conftest import run_once

from repro.analysis import Series, format_series_table
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.mem.bitmap import Bitmap
from repro.mem.frame_meta import FrameTable
from repro.obs.metrics import MetricsRegistry
from repro.units import GIB, PAGE_SIZE

SIZES_GB = [1, 4, 16, 64]


def scan_cost(size_gb: int) -> int:
    clock = SimClock()
    table = FrameTable(clock, CostModel(), MetricsRegistry())
    frames = size_gb * GIB // PAGE_SIZE
    # One aging pass: update every frame's metadata (as kswapd would),
    # charged in closed form, exactly the sum of per-frame touches.
    table.scan_charge(frames)
    return clock.now


def bitmap_cost(size_gb: int) -> int:
    clock = SimClock()
    costs = CostModel()
    frames = size_gb * GIB // PAGE_SIZE
    bitmap = Bitmap(frames)
    # The file-system equivalent: one run update covering the same state.
    bitmap.set_range(0, frames)
    clock.advance(costs.bitmap_run_ns)
    return clock.now


def run_experiment():
    struct_page = Series("struct-page scan")
    extent_bitmap = Series("extent bitmap")
    for size_gb in SIZES_GB:
        struct_page.add(size_gb, scan_cost(size_gb))
        extent_bitmap.add(size_gb, bitmap_cost(size_gb))
    return struct_page, extent_bitmap


def test_motivation_metadata_linear(benchmark, record_result):
    struct_page, extent_bitmap = run_once(benchmark, run_experiment)
    record_result(
        "motivation_metadata",
        format_series_table(
            [struct_page, extent_bitmap], x_label="phys GB",
            y_unit_divisor=1e6, y_suffix="ms",
        ),
    )
    assert struct_page.growth_factor() >= 60  # linear in frames
    assert extent_bitmap.is_roughly_constant(0.01)
    # At 64 GB the gap is astronomical — the paper's point.
    assert struct_page.y_at(64) > 1_000_000 * extent_bitmap.y_at(64)

"""Reclaim baselines: clock and 2Q scanning, eviction, swap integration."""

import pytest

from repro.kernel import Kernel, MachineConfig
from repro.mem.frame_meta import PageFlags
from repro.units import GIB, KIB, MIB, PAGE_SIZE
from repro.vm.reclaimd import ClockReclaimer, TwoQueueReclaimer


@pytest.fixture
def machine():
    kernel = Kernel(
        MachineConfig(dram_bytes=256 * MIB, nvm_bytes=0, swap_pages=4096)
    )
    process = kernel.spawn("t", track_lru=True)
    return kernel, process, kernel.syscalls(process)


def fault_in(kernel, process, sys, pages):
    va = sys.mmap(pages * PAGE_SIZE)
    kernel.access_range(process, va, pages * PAGE_SIZE)
    return va


class TestLruRegistration:
    def test_faulted_pages_tracked(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 8)
        assert kernel.lru.resident_count == 8
        assert len(kernel.lru.inactive) == 8

    def test_untracked_space_not_registered(self, machine):
        kernel, _, _ = machine
        other = kernel.spawn("untracked")  # track_lru=False
        sys = kernel.syscalls(other)
        va = sys.mmap(PAGE_SIZE)
        kernel.access(other, va)
        assert kernel.lru.resident_count == 0


class TestClockReclaimer:
    def test_reclaims_requested_pages(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 16)
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        # Faulted pages start REFERENCED; one scan pass clears, second evicts.
        assert reclaimer.reclaim(4) == 4
        assert process.space.resident_pages() == 12

    def test_referenced_pages_get_second_chance(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 8)
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        before = kernel.counters.get("reclaim_scanned")
        reclaimer.reclaim(1)
        scanned = kernel.counters.get("reclaim_scanned") - before
        # Must have scanned more than it evicted (second chances).
        assert scanned > 1

    def test_scanning_cost_linear_in_resident(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 64)
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        before_ns = kernel.clock.now
        before_scanned = kernel.counters.get("reclaim_scanned")
        reclaimer.reclaim(32)
        assert kernel.counters.get("reclaim_scanned") - before_scanned >= 64
        assert kernel.clock.now > before_ns

    def test_evicted_page_faults_back_from_swap(self, machine):
        kernel, process, sys = machine
        va = fault_in(kernel, process, sys, 4)
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        reclaimer.reclaim(4)
        assert kernel.counters.get("swap_out") == 4
        kernel.access(process, va)  # major fault
        assert kernel.counters.get("swap_in") == 1

    def test_empty_lists_reclaim_zero(self, machine):
        kernel, _, _ = machine
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        assert reclaimer.reclaim(10) == 0


class TestStaleEntries:
    """munmap and exit leave entries behind; reclaim must cope with them."""

    def test_reused_pfns_are_tracked_and_reclaimable(self, machine):
        kernel, first, sys = machine
        va = fault_in(kernel, first, sys, 64)
        first_pfns = {
            first.space.page_table.lookup(va + i * PAGE_SIZE).pfn
            for i in range(64)
        }
        sys.munmap(va, 64 * PAGE_SIZE)
        second = kernel.spawn("second", track_lru=True)
        va = fault_in(kernel, second, kernel.syscalls(second), 64)
        second_pfns = {
            second.space.page_table.lookup(va + i * PAGE_SIZE).pfn
            for i in range(64)
        }
        assert len(first_pfns & second_pfns) >= 32  # the frames were reused
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        assert reclaimer.reclaim(16) == 16
        assert second.space.resident_pages() == 48

    def test_exited_process_entries_are_dropped(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 16)
        process.exit()
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        assert reclaimer.reclaim(16) == 0
        # Dead entries fall off both lists instead of cycling forever.
        assert not kernel.lru.active and not kernel.lru.inactive
        assert kernel.lru.resident_count == 0


class TestTwoQueueReclaimer:
    def test_reclaims(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 16)
        reclaimer = TwoQueueReclaimer(
            kernel.lru, kernel.frame_table, kernel.counters
        )
        assert reclaimer.reclaim(4) == 4

    def test_protected_fraction_bounds_promotion(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 16)
        reclaimer = TwoQueueReclaimer(
            kernel.lru, kernel.frame_table, kernel.counters,
            protected_fraction=0.25,
        )
        reclaimer.reclaim(8)
        assert len(kernel.lru.active) <= 4

    def test_bad_fraction_rejected(self, machine):
        kernel, _, _ = machine
        with pytest.raises(ValueError):
            TwoQueueReclaimer(
                kernel.lru, kernel.frame_table, kernel.counters,
                protected_fraction=1.5,
            )


class TestSwapDevice:
    def test_write_read_roundtrip(self, machine):
        kernel, _, _ = machine
        slot = kernel.swap.write_page()
        assert kernel.swap.used_slots == 1
        kernel.swap.read_page(slot)
        assert kernel.swap.used_slots == 0

    def test_costs_charged(self, machine):
        kernel, _, _ = machine
        before = kernel.clock.now
        slot = kernel.swap.write_page()
        assert kernel.clock.now - before == kernel.costs.swap_write_page_ns
        before = kernel.clock.now
        kernel.swap.read_page(slot)
        assert kernel.clock.now - before == kernel.costs.swap_read_page_ns

    def test_slot_reuse(self, machine):
        kernel, _, _ = machine
        slot = kernel.swap.write_page()
        kernel.swap.read_page(slot)
        assert kernel.swap.write_page() == slot

    def test_bad_read_rejected(self, machine):
        kernel, _, _ = machine
        with pytest.raises(ValueError):
            kernel.swap.read_page(7)

    def test_capacity_exhaustion(self):
        from repro.errors import OutOfMemoryError
        from repro.hw.clock import SimClock
        from repro.obs.metrics import MetricsRegistry
        from repro.hw.costmodel import CostModel
        from repro.vm.swap import SwapDevice

        swap = SwapDevice(2, SimClock(), CostModel(), MetricsRegistry())
        swap.write_page()
        swap.write_page()
        with pytest.raises(OutOfMemoryError):
            swap.write_page()

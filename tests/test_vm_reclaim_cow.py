"""Reclaim vs fork-shared COW windows: eviction must not strand siblings.

Regression tests for the window where kswapd-style eviction raced
fork's page-table subtree sharing: evicting a page whose translation
path is COW-shared would unmap it from one table while the sibling kept
a live PTE to the frame swap-out was about to free.  Pinned pages are
now refused (``vm_evict_pinned``) and kept on the LRU until the share
is broken.
"""

from __future__ import annotations

import pytest

from repro.kernel import Kernel, MachineConfig
from repro.sanitize import SanitizerSuite
from repro.units import GIB, MIB, PAGE_SIZE
from repro.vm.reclaimd import ClockReclaimer
from repro.vm.vma import MapFlags

PAGES = 16


@pytest.fixture
def swap_kernel() -> Kernel:
    return Kernel(
        MachineConfig(dram_bytes=64 * MIB, nvm_bytes=1 * GIB, swap_pages=1024)
    )


def _faulted_parent(kernel):
    parent = kernel.spawn("parent", track_lru=True)
    va = kernel.syscalls(parent).mmap(PAGES * PAGE_SIZE, flags=MapFlags.PRIVATE)
    for i in range(PAGES):
        kernel.access(parent, va + i * PAGE_SIZE, write=True)
    return parent, va


def _reclaimer(kernel) -> ClockReclaimer:
    return ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)


class TestPinnedWindows:
    def test_fork_shared_pages_refuse_eviction(self, swap_kernel):
        kernel = swap_kernel
        parent, _va = _faulted_parent(kernel)
        kernel.fork(parent)

        resident_before = kernel.lru.resident_count
        reclaimed = _reclaimer(kernel).reclaim(PAGES)

        assert reclaimed == 0
        assert kernel.counters.get("vm_evict_pinned") > 0
        assert kernel.counters.get("swap_out") == 0
        # Refused pages go back on the active list, not off both lists:
        # once the share breaks they must still be findable.
        assert kernel.lru.resident_count == resident_before

    def test_sibling_survives_reclaim_attempt(self, swap_kernel):
        """TransSan-armed: after a refused pass both spaces stay coherent."""
        kernel = swap_kernel
        kernel.arm_sanitizers(SanitizerSuite())
        parent, va = _faulted_parent(kernel)
        child = kernel.fork(parent)

        _reclaimer(kernel).reclaim(PAGES)

        # The bug this guards against: the child translating to a frame
        # eviction had already pushed to swap and freed.  With sharing
        # respected, every access on both sides checks out.
        for i in range(PAGES):
            kernel.access(child, va + i * PAGE_SIZE, write=False)
            kernel.access(parent, va + i * PAGE_SIZE, write=False)
        assert kernel.counters.get("sanitize_violation") == 0

    def test_broken_share_becomes_evictable(self, swap_kernel):
        kernel = swap_kernel
        kernel.arm_sanitizers(SanitizerSuite())
        parent, va = _faulted_parent(kernel)
        child = kernel.fork(parent)
        assert _reclaimer(kernel).reclaim(PAGES) == 0

        child.exit()
        # Parent writes break the COW protection window by window; the
        # pages are private again and reclaim may unmap them.
        for i in range(PAGES):
            kernel.access(parent, va + i * PAGE_SIZE, write=True)
        reclaimed = _reclaimer(kernel).reclaim(PAGES // 2)
        assert reclaimed == PAGES // 2
        assert parent.space.resident_pages() == PAGES - PAGES // 2

        # The other half of the fix: evicting a COW private copy must
        # NOT push out (and free) the backing's original frame — the
        # copy itself keeps the data, so no writeback happens and the
        # next access re-installs it as a minor fault.
        assert kernel.counters.get("swap_out") == 0
        for i in range(PAGES):
            kernel.access(parent, va + i * PAGE_SIZE, write=False)
        assert parent.space.resident_pages() == PAGES
        assert kernel.counters.get("fault_major") == 0
        assert kernel.counters.get("sanitize_violation") == 0

    def test_never_forked_pages_swap_out_and_back(self, swap_kernel):
        """Control: without COW sharing eviction still writes back."""
        kernel = swap_kernel
        kernel.arm_sanitizers(SanitizerSuite())
        parent, va = _faulted_parent(kernel)
        assert _reclaimer(kernel).reclaim(PAGES // 2) == PAGES // 2
        assert kernel.counters.get("swap_out") == PAGES // 2

        for i in range(PAGES):
            kernel.access(parent, va + i * PAGE_SIZE, write=False)
        assert kernel.counters.get("swap_in") == PAGES // 2
        assert kernel.counters.get("fault_major") == PAGES // 2
        assert kernel.counters.get("sanitize_violation") == 0


class TestTargetedReclaim:
    """Reclaim aimed at one memory cgroup runs over that cgroup's lists."""

    def test_cgroup_lists_protect_other_tenants_pages(self, swap_kernel):
        kernel = swap_kernel
        qos = kernel.arm_qos()
        cg_a, cg_b = qos.cgroup("a"), qos.cgroup("b")
        a = kernel.spawn("a", track_lru=True, cgroup=cg_a)
        b = kernel.spawn("b", track_lru=True, cgroup=cg_b)
        for process in (a, b):
            va = kernel.syscalls(process).mmap(
                PAGES * PAGE_SIZE, flags=MapFlags.PRIVATE
            )
            for i in range(PAGES):
                kernel.access(process, va + i * PAGE_SIZE, write=True)
        assert (cg_a.lru.resident_count, cg_b.lru.resident_count) == (PAGES, PAGES)
        assert kernel.lru.resident_count == 0  # root's lists are kernel.lru

        reclaimer = ClockReclaimer(cg_b.lru, kernel.frame_table, kernel.counters)
        assert reclaimer.reclaim(4) == 4
        # Only b's pages were taken, and a's lists were never scanned.
        assert a.space.resident_pages() == PAGES
        assert b.space.resident_pages() == PAGES - 4
        assert len(cg_a.lru.inactive) == PAGES

    def test_max_scan_caps_work_when_nothing_qualifies(self, swap_kernel):
        kernel = swap_kernel
        _faulted_parent(kernel)  # every page fresh, so referenced
        scanned_before = kernel.counters.get("reclaim_scanned")
        reclaimer = _reclaimer(kernel)
        assert reclaimer.reclaim(8, max_scan=4) == 0
        assert kernel.counters.get("reclaim_scanned") - scanned_before <= 4
        assert reclaimer.scanned == 4


class TestCowFaultUnderReclaim:
    """A COW copy whose allocation reclaims the very page being copied."""

    def test_store_completes_when_reclaim_evicts_the_source_leaf(self):
        # The copy's buddy allocation runs the cgroup's direct reclaim,
        # which evicts the read-only file leaf the fault is replacing;
        # the copy must still land, writable, in the emptied slot.
        kernel = Kernel(MachineConfig(dram_bytes=64 * MIB, nvm_bytes=1 * GIB))
        cg = kernel.arm_qos().cgroup("t", high=40)
        process = kernel.spawn("t", track_lru=True, cgroup=cg)
        sys_calls = kernel.syscalls(process)
        pages = 32
        fd = sys_calls.open(kernel.tmpfs, "/f", create=True, size=pages * PAGE_SIZE)
        va = sys_calls.mmap(pages * PAGE_SIZE, fd=fd, flags=MapFlags.PRIVATE)
        for i in range(pages):
            kernel.access(process, va + i * PAGE_SIZE)
        vma = process.space.find_vma(va)
        evicted_before = kernel.counters.get("vm_page_evict")
        for i in range(pages):
            page_va = va + i * PAGE_SIZE
            kernel.access(process, page_va, write=True)
            pte = process.space.page_table.lookup(page_va)
            assert pte is not None and pte.writable, f"store {i}"
            assert pte.pfn == vma.private_copies[i]
        assert kernel.counters.get("cow_copy") == pages
        assert kernel.counters.get("vm_page_evict") > evicted_before

"""Terabyte-scale smoke tests: the regime the paper is actually about.

"Intel and Micron's much-delayed 3D XPoint DIMM product promises 6TB of
storage in a 2-socket server" (§2).  These tests build a 1 TiB-NVM
machine and verify the O(1) claims hold at that scale — constant-size
structures (one extent, one RTE, one range-TLB entry) fronting half a
terabyte of data, with simulated costs identical to the megabyte cases.
"""

import pytest

from repro.core.rangetrans import RangeMemory
from repro.kernel import Kernel, MachineConfig
from repro.units import GIB, MIB, PAGE_SIZE, TIB, USEC


@pytest.fixture(scope="module")
def big_kernel():
    return Kernel(
        MachineConfig(
            dram_bytes=4 * GIB,
            nvm_bytes=1 * TIB,
            range_hardware=True,
            pmfs_extent_align_frames=512,
        )
    )


class TestTerabyteScale:
    def test_half_terabyte_file_is_one_extent(self, big_kernel):
        kernel = big_kernel
        inode = kernel.pmfs.create("/huge", size=512 * GIB)
        assert kernel.pmfs.extent_count(inode) == 1
        assert kernel.pmfs.fsck() == []

    def test_range_map_512gb_costs_same_as_1mb(self, big_kernel):
        kernel = big_kernel
        rm = RangeMemory(kernel)
        small = kernel.pmfs.create("/small", size=1 * MIB)
        process = kernel.spawn("p")
        with kernel.measure() as m_small:
            rm.map_file(process, small)
        huge = kernel.pmfs.lookup("/huge")
        with kernel.measure() as m_huge:
            mapping = rm.map_file(process, huge)
        assert m_huge.elapsed_ns == m_small.elapsed_ns
        assert mapping.entry_count == 1

    def test_sparse_scan_of_terabyte_data(self, big_kernel):
        kernel = big_kernel
        rm = RangeMemory(kernel)
        process = kernel.spawn("scanner")
        huge = kernel.pmfs.lookup("/huge")
        mapping = rm.map_file(process, huge)
        with kernel.measure() as m:
            # One byte per GiB: 512 touches over half a terabyte.
            kernel.access_range(
                process, mapping.vaddr, 512 * GIB, stride=1 * GIB
            )
        assert m.counter_delta.get("walk_start") is None
        assert m.counter_delta.get("rtlb_hit", 0) >= 511
        # Each touch costs ~an NVM reference, nothing size-dependent.
        assert m.elapsed_ns < 512 * 2 * USEC

    def test_unmap_half_terabyte_constant(self, big_kernel):
        kernel = big_kernel
        rm = RangeMemory(kernel)
        process = kernel.spawn("q")
        huge = kernel.pmfs.lookup("/huge")
        mapping = rm.map_file(process, huge)
        with kernel.measure() as m:
            rm.unmap(mapping)
        assert m.elapsed_ns < 20 * USEC

    def test_whole_file_reclamation_at_scale(self, big_kernel):
        kernel = big_kernel
        free_before = kernel.nvm_allocator.free_blocks
        kernel.pmfs.create("/ephemeral", size=128 * GIB)
        with kernel.measure() as m:
            kernel.pmfs.unlink("/ephemeral")
        assert kernel.nvm_allocator.free_blocks == free_before
        # Deleting 128 GiB: a few journal records and one bitmap run.
        assert m.counter_delta.get("extent_free") == 1
        assert m.elapsed_ns < 20 * USEC

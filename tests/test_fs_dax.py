"""DAX helpers: direct runs and natural alignment."""

import pytest

from repro.fs.dax import direct_map_runs, is_dax, largest_natural_alignment
from repro.kernel import Kernel, MachineConfig
from repro.units import GIB, HUGE_PAGE_2M, KIB, MIB, PAGE_SIZE


class TestDaxPredicates:
    def test_pmfs_is_dax(self, kernel):
        assert is_dax(kernel.pmfs)
        assert not is_dax(kernel.tmpfs)

    def test_dax_disabled_pmfs(self, kernel):
        kernel.pmfs.dax = False
        assert not is_dax(kernel.pmfs)

    def test_setup_extra_cost(self, kernel):
        assert kernel.pmfs.mmap_setup_extra_ns == kernel.costs.dax_setup_ns
        assert kernel.tmpfs.mmap_setup_extra_ns == 0


class TestDirectMapRuns:
    def test_single_extent_one_run(self, kernel):
        inode = kernel.pmfs.create("/d", size=1 * MIB)
        runs = list(direct_map_runs(inode))
        assert len(runs) == 1
        assert runs[0][2] == 256

    def test_empty_file_no_runs(self, kernel):
        inode = kernel.pmfs.create("/empty")
        assert list(direct_map_runs(inode)) == []

    def test_non_dax_rejected(self, kernel):
        inode = kernel.tmpfs.create("/t", size=4 * KIB)
        with pytest.raises(ValueError, match="not DAX"):
            list(direct_map_runs(inode))


class TestNaturalAlignment:
    def test_aligned_extents_allow_2m(self):
        kernel = Kernel(
            MachineConfig(
                dram_bytes=256 * MIB, nvm_bytes=1 * GIB,
                pmfs_extent_align_frames=512,
            )
        )
        inode = kernel.pmfs.create("/a", size=2 * MIB)
        assert largest_natural_alignment(inode) == HUGE_PAGE_2M

    def test_unaligned_extent_falls_to_base_pages(self, kernel):
        kernel.nvm_allocator.alloc_extent(3)  # skew subsequent allocations
        inode = kernel.pmfs.create("/u", size=2 * MIB)
        assert largest_natural_alignment(inode) == PAGE_SIZE

    def test_small_file_base_pages(self, kernel):
        inode = kernel.pmfs.create("/s", size=4 * KIB)
        assert largest_natural_alignment(inode) == PAGE_SIZE

    def test_tmpfs_always_base_pages(self, kernel):
        inode = kernel.tmpfs.create("/t", size=2 * MIB)
        assert largest_natural_alignment(inode) == PAGE_SIZE

"""Address spaces: mmap, faults, COW, populate, munmap, mprotect."""

import pytest

from repro.errors import MappingError, ProtectionError
from repro.kernel import Kernel, MachineConfig
from repro.paging.fault import FaultType
from repro.units import GIB, KIB, MIB, PAGE_SIZE
from repro.vm.vma import AnonBacking, MapFlags, Protection


@pytest.fixture
def machine():
    kernel = Kernel(MachineConfig(dram_bytes=512 * MIB, nvm_bytes=1 * GIB))
    process = kernel.spawn("t")
    return kernel, process, kernel.syscalls(process)


class TestAnonymousMmap:
    def test_demand_mapping_faults_on_touch(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(64 * KIB)
        assert process.space.resident_pages() == 0
        kernel.access(process, va)
        assert process.space.resident_pages() == 1
        assert process.space.fault_stats[FaultType.MINOR] == 1

    def test_populate_eliminates_faults(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(64 * KIB, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
        assert process.space.resident_pages() == 16
        kernel.access_range(process, va, 64 * KIB)
        assert process.space.fault_stats[FaultType.MINOR] == 0

    def test_length_rounds_to_pages(self, machine):
        _, process, sys = machine
        sys.mmap(100)
        assert process.space.vmas[-1].length == PAGE_SIZE

    def test_zero_length_rejected(self, machine):
        _, _, sys = machine
        with pytest.raises(MappingError):
            sys.mmap(0)

    def test_adjacent_anon_mappings_do_not_merge_distinct_backings(self, machine):
        # Each mmap gets a fresh AnonBacking, so Linux-style merging does
        # not apply (different "files").
        _, process, sys = machine
        sys.mmap(PAGE_SIZE)
        sys.mmap(PAGE_SIZE)
        assert len(process.space.vmas) == 2

    def test_reads_return_zeros_semantics(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(PAGE_SIZE)
        # Access works and is backed by a zeroed frame (zero cost charged).
        kernel.access(process, va)
        assert process.space.resident_pages() == 1


class TestFaultHandling:
    def test_unmapped_access_segfaults(self, machine):
        kernel, process, _ = machine
        with pytest.raises(ProtectionError, match="segfault"):
            kernel.access(process, 0xDEAD000)

    def test_write_to_readonly_segfaults(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(PAGE_SIZE, prot=Protection.READ)
        kernel.access(process, va)  # read ok
        with pytest.raises(ProtectionError, match="read-only"):
            kernel.access(process, va, write=True)

    def test_read_from_prot_none_segfaults(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(PAGE_SIZE, prot=Protection.NONE)
        with pytest.raises(ProtectionError):
            kernel.access(process, va)

    def test_fault_counters_bumped(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(16 * KIB)
        kernel.access_range(process, va, 16 * KIB)
        assert kernel.counters.get("fault_minor") == 4
        assert kernel.counters.get("fault_trap") == 4

    def test_second_touch_no_fault(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(PAGE_SIZE)
        kernel.access(process, va)
        before = kernel.counters.get("fault_trap")
        kernel.access(process, va + 64)
        assert kernel.counters.get("fault_trap") == before


class TestFileMappingAndCow:
    def _file_fd(self, kernel, sys, size=16 * KIB, fs=None):
        fs = fs or kernel.tmpfs
        return sys.open(fs, "/cowfile", create=True, size=size)

    def test_shared_file_write_hits_file_frame(self, machine):
        kernel, process, sys = machine
        fd = self._file_fd(kernel, sys)
        va = sys.mmap(16 * KIB, fd=fd, flags=MapFlags.SHARED)
        paddr = kernel.access(process, va, write=True)
        inode = process.fd(fd).inode
        cached = kernel.tmpfs._pages[inode.ino][0]
        assert paddr // PAGE_SIZE == cached

    def test_private_file_write_triggers_cow(self, machine):
        kernel, process, sys = machine
        fd = self._file_fd(kernel, sys)
        va = sys.mmap(16 * KIB, fd=fd, flags=MapFlags.PRIVATE)
        kernel.access(process, va)  # read fault: read-only mapping
        kernel.access(process, va, write=True)  # COW fault
        assert process.space.fault_stats[FaultType.COW] == 1
        inode = process.fd(fd).inode
        pte = process.space.page_table.lookup(va)
        assert pte.pfn != kernel.tmpfs._pages[inode.ino][0]

    def test_private_write_first_copies_immediately(self, machine):
        kernel, process, sys = machine
        fd = self._file_fd(kernel, sys)
        va = sys.mmap(16 * KIB, fd=fd, flags=MapFlags.PRIVATE)
        kernel.access(process, va + PAGE_SIZE, write=True)
        assert kernel.counters.get("cow_copy") == 1
        # Subsequent reads stay on the private copy.
        pte = process.space.page_table.lookup(va + PAGE_SIZE)
        assert pte.writable

    def test_two_processes_see_own_private_copies(self, machine):
        kernel, p1, sys1 = machine
        p2 = kernel.spawn("other")
        sys2 = kernel.syscalls(p2)
        fd1 = sys1.open(kernel.tmpfs, "/shared2", create=True, size=PAGE_SIZE)
        fd2 = sys2.open(kernel.tmpfs, "/shared2")
        va1 = sys1.mmap(PAGE_SIZE, fd=fd1, flags=MapFlags.PRIVATE)
        va2 = sys2.mmap(PAGE_SIZE, fd=fd2, flags=MapFlags.PRIVATE)
        pa1 = kernel.access(p1, va1, write=True)
        pa2 = kernel.access(p2, va2, write=True)
        assert pa1 != pa2


class TestMunmap:
    def test_whole_vma_unmap(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(64 * KIB, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
        sys.munmap(va, 64 * KIB)
        assert process.space.resident_pages() == 0
        assert process.space.vmas == []

    def test_unmap_returns_frames(self, machine):
        kernel, process, sys = machine
        free_before = kernel.dram_buddy.free_frames
        va = sys.mmap(64 * KIB, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
        sys.munmap(va, 64 * KIB)
        # Page-table node frames stay allocated; data frames return.
        assert kernel.dram_buddy.free_frames >= free_before - 8

    def test_unmap_frees_private_cow_copies(self, machine):
        kernel, process, sys = machine
        fd = sys.open(kernel.tmpfs, "/cowleak", create=True, size=16 * KIB)
        va = sys.mmap(16 * KIB, fd=fd, flags=MapFlags.PRIVATE)
        pfns = [
            kernel.access(process, va + i * PAGE_SIZE, write=True) // PAGE_SIZE
            for i in range(4)
        ]
        sys.munmap(va, 16 * KIB)
        # The COW copies belong to the VMA, not the file; the unmap must
        # return every one of them to the buddy.
        for pfn in pfns:
            assert not kernel.dram_buddy.is_allocated(pfn)

    def test_partial_unmap_frees_only_covered_cow_copies(self, machine):
        kernel, process, sys = machine
        fd = sys.open(kernel.tmpfs, "/cowpart", create=True, size=16 * KIB)
        va = sys.mmap(16 * KIB, fd=fd, flags=MapFlags.PRIVATE)
        low = kernel.access(process, va, write=True) // PAGE_SIZE
        high = (
            kernel.access(process, va + 3 * PAGE_SIZE, write=True) // PAGE_SIZE
        )
        sys.munmap(va, PAGE_SIZE)  # prefix only
        assert not kernel.dram_buddy.is_allocated(low)
        assert kernel.dram_buddy.is_allocated(high)
        # The surviving copy still serves the mapping, and the final
        # unmap releases it too.
        assert kernel.access(process, va + 3 * PAGE_SIZE) // PAGE_SIZE == high
        sys.munmap(va + PAGE_SIZE, 15 * KIB)
        assert not kernel.dram_buddy.is_allocated(high)

    def test_unmap_frees_pmfs_cow_copies(self, machine):
        # A private DAX mapping copies into DRAM and takes no NVM block.
        kernel, process, sys = machine
        fd = sys.open(kernel.pmfs, "/cowdax", create=True, size=16 * KIB)
        free_before = kernel.pmfs.allocator.free_blocks
        va = sys.mmap(16 * KIB, fd=fd, flags=MapFlags.PRIVATE)
        copy = kernel.access(process, va, write=True) // PAGE_SIZE
        assert kernel.dram_buddy.is_allocated(copy)
        assert kernel.pmfs.allocator.free_blocks == free_before
        sys.munmap(va, 16 * KIB)
        assert not kernel.dram_buddy.is_allocated(copy)
        assert kernel.pmfs.allocator.free_blocks == free_before

    def test_prefix_unmap_shrinks_vma(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(16 * KIB)
        sys.munmap(va, 8 * KIB)
        vma = process.space.vmas[0]
        assert vma.start == va + 8 * KIB
        assert vma.backing_offset == 2

    def test_suffix_unmap_shrinks_vma(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(16 * KIB)
        sys.munmap(va + 8 * KIB, 8 * KIB)
        vma = process.space.vmas[0]
        assert vma.end == va + 8 * KIB

    def test_hole_punch_rejected(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(16 * KIB)
        with pytest.raises(MappingError, match="hole"):
            sys.munmap(va + PAGE_SIZE, PAGE_SIZE)

    def test_unmap_invalidates_tlb(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(PAGE_SIZE)
        kernel.access(process, va)
        assert kernel.tlb.resident_count() == 1
        sys.munmap(va, PAGE_SIZE)
        assert kernel.tlb.resident_count() == 0

    def test_access_after_unmap_segfaults(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(PAGE_SIZE)
        kernel.access(process, va)
        sys.munmap(va, PAGE_SIZE)
        with pytest.raises(ProtectionError):
            kernel.access(process, va)


class TestMprotect:
    def test_downgrade_to_readonly(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(8 * KIB, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
        kernel.access(process, va, write=True)
        sys.mprotect(va, 8 * KIB, Protection.READ)
        with pytest.raises(ProtectionError):
            kernel.access(process, va, write=True)

    def test_upgrade_allows_writes(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(PAGE_SIZE, prot=Protection.READ)
        kernel.access(process, va)
        sys.mprotect(va, PAGE_SIZE, Protection.rw())
        kernel.access(process, va, write=True)  # no longer raises

    def test_partial_mprotect_rejected(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(16 * KIB)
        with pytest.raises(MappingError):
            sys.mprotect(va, 8 * KIB, Protection.READ)


class TestDetachVma:
    def test_detach_skips_pte_teardown(self, machine):
        kernel, process, sys = machine
        va = sys.mmap(64 * KIB, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
        vma = process.space.vmas[0]
        before = kernel.counters.get("pte_write")
        process.space.detach_vma(vma)
        # No per-page PTE writes happened during detach.
        assert kernel.counters.get("pte_write") == before
        assert process.space.vmas == []


class TestRangeIsFree:
    def test_empty_space_is_free(self, machine):
        _kernel, process, _sys = machine
        assert process.space.range_is_free(0x10000, 0x20000)

    def test_overlap_with_existing_vma(self, machine):
        _kernel, process, sys = machine
        va = sys.mmap(64 * KIB)
        assert not process.space.range_is_free(va, va + PAGE_SIZE)
        assert not process.space.range_is_free(va - PAGE_SIZE, va + PAGE_SIZE)
        assert not process.space.range_is_free(
            va + 63 * KIB, va + 65 * KIB
        )

    def test_gap_between_vmas_is_free(self, machine):
        _kernel, process, sys = machine
        low = sys.mmap(16 * KIB)
        high = sys.mmap(16 * KIB, addr=low + 64 * KIB)
        assert process.space.range_is_free(low + 16 * KIB, high)
        assert process.space.range_is_free(high + 16 * KIB, high + 32 * KIB)

    def test_exactly_adjacent_is_free(self, machine):
        _kernel, process, sys = machine
        va = sys.mmap(16 * KIB)
        assert process.space.range_is_free(va + 16 * KIB, va + 32 * KIB)

"""Huge-page populate paths through the vm layer."""

import pytest

from repro.kernel import Kernel, MachineConfig
from repro.units import GIB, HUGE_PAGE_2M, MIB, PAGE_SIZE
from repro.vm.vma import MapFlags, Protection


@pytest.fixture
def machine():
    kernel = Kernel(
        MachineConfig(
            dram_bytes=512 * MIB, nvm_bytes=2 * GIB,
            pmfs_extent_align_frames=512,
        )
    )
    process = kernel.spawn("p")
    return kernel, process, kernel.syscalls(process)


def huge_map(kernel, process, sys, size=4 * MIB):
    fd = sys.open(kernel.pmfs, "/huge", create=True, size=size)
    va = process.space.pick_address(size, alignment=HUGE_PAGE_2M)
    sys.mmap(
        size, fd=fd,
        flags=MapFlags.SHARED | MapFlags.POPULATE | MapFlags.HUGEPAGE,
        addr=va,
    )
    return va


class TestHugePopulate:
    def test_huge_ptes_installed(self, machine):
        kernel, process, sys = machine
        va = huge_map(kernel, process, sys)
        pte = process.space.page_table.lookup(va)
        assert pte.page_size == HUGE_PAGE_2M
        assert process.space.page_table.leaf_count() == 2

    def test_access_through_huge_mapping(self, machine):
        kernel, process, sys = machine
        va = huge_map(kernel, process, sys)
        paddr = kernel.access(process, va + 3 * MIB + 123)
        inode = kernel.pmfs.lookup("/huge")
        base_pfn = kernel.pmfs._tree_of(inode).extents()[0].pfn
        assert paddr == base_pfn * PAGE_SIZE + 3 * MIB + 123

    def test_one_tlb_entry_covers_2mib(self, machine):
        kernel, process, sys = machine
        va = huge_map(kernel, process, sys)
        kernel.access(process, va)
        before = kernel.counters.get("tlb_miss")
        kernel.access_range(process, va, HUGE_PAGE_2M)  # 512 page touches
        assert kernel.counters.get("tlb_miss") == before
        assert kernel.tlb.resident_count(HUGE_PAGE_2M) >= 1

    def test_resident_pages_counts_4k_units(self, machine):
        kernel, process, sys = machine
        huge_map(kernel, process, sys, size=4 * MIB)
        assert process.space.resident_pages() == 1024

    def test_munmap_huge_mapping(self, machine):
        from repro.errors import ProtectionError

        kernel, process, sys = machine
        va = huge_map(kernel, process, sys)
        kernel.access(process, va)
        sys.munmap(va, 4 * MIB)
        assert process.space.resident_pages() == 0
        with pytest.raises(ProtectionError):
            kernel.access(process, va)

    def test_unaligned_file_degrades_to_small_pages(self, machine):
        kernel, process, sys = machine
        kernel.nvm_allocator.alloc_extent(3)  # skew physical alignment
        saved = kernel.pmfs.extent_align_frames
        kernel.pmfs.extent_align_frames = 1
        try:
            fd = sys.open(kernel.pmfs, "/skewed", create=True, size=2 * MIB)
        finally:
            kernel.pmfs.extent_align_frames = saved
        va = process.space.pick_address(2 * MIB, alignment=HUGE_PAGE_2M)
        sys.mmap(
            2 * MIB, fd=fd,
            flags=MapFlags.SHARED | MapFlags.POPULATE | MapFlags.HUGEPAGE,
            addr=va,
        )
        pte = process.space.page_table.lookup(va)
        assert pte.page_size == PAGE_SIZE  # graceful degradation


class TestPrivateHugeStore:
    def test_store_splits_the_leaf_and_copies_one_page(self):
        # MAP_PRIVATE over a 2 MiB-aligned file: populate installs one
        # read-only huge leaf; a store splits it, as Linux splits a file
        # THP on a write fault, and copies only the page it wrote.
        kernel = Kernel(
            MachineConfig(
                dram_bytes=64 * MIB, nvm_bytes=64 * MIB,
                pmfs_extent_align_frames=512,
            )
        )
        suite = kernel.arm_sanitizers()
        process = kernel.spawn("p")
        sys = kernel.syscalls(process)
        fd = sys.open(kernel.pmfs, "/huge", create=True, size=2 * MIB)
        inode = kernel.pmfs.lookup("/huge")
        base_pfn = kernel.pmfs._tree_of(inode).extents()[0].pfn
        nvm_free = kernel.nvm_allocator.free_blocks
        va = process.space.pick_address(2 * MIB, alignment=HUGE_PAGE_2M)
        sys.mmap(
            2 * MIB, fd=fd,
            flags=MapFlags.PRIVATE | MapFlags.POPULATE | MapFlags.HUGEPAGE,
            addr=va,
        )
        table = process.space.page_table
        assert table.lookup(va).page_size == HUGE_PAGE_2M
        kernel.access(process, va)  # the huge leaf is in the TLB now
        kernel.access(process, va + 5 * PAGE_SIZE + 8, write=True)
        copy = table.lookup(va + 5 * PAGE_SIZE)
        assert copy.page_size == PAGE_SIZE and copy.writable
        assert copy.pfn == process.space.vmas[0].private_copies[5]
        assert copy.pfn != base_pfn + 5
        assert list(table.iter_leaves()) == [(va + 5 * PAGE_SIZE, copy)]
        # The rest of the old leaf refaults on demand, read-only, onto
        # the file's own NVM frames.
        for page in (0, 4, 6, 511):
            paddr = kernel.access(process, va + page * PAGE_SIZE)
            assert paddr == (base_pfn + page) * PAGE_SIZE
            assert not table.lookup(va + page * PAGE_SIZE).writable
        assert kernel.access(process, va + 5 * PAGE_SIZE) == copy.pfn * PAGE_SIZE
        sys.munmap(va, 2 * MIB)
        assert kernel.nvm_allocator.free_blocks == nvm_free
        assert kernel.pmfs.fsck() == []
        assert suite.violations == []

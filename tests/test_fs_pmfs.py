"""PMFS: extent allocation, alignment, journal, persistence."""

import pytest

from repro.errors import NoSpaceError
from repro.fs.extent import Extent
from repro.fs.pmfs import BlockAllocator
from repro.kernel import Kernel, MachineConfig
from repro.units import GIB, KIB, MIB, PAGE_SIZE


@pytest.fixture
def fs(kernel):
    return kernel.pmfs


class TestBlockAllocator:
    def test_contiguous_extent(self, kernel):
        alloc = kernel.nvm_allocator
        extent = alloc.alloc_extent(100)
        assert extent.count == 100
        assert alloc.free_blocks == alloc.total_blocks - 100

    def test_next_fit_from_hint(self, kernel):
        alloc = kernel.nvm_allocator
        first = alloc.alloc_extent(10)
        second = alloc.alloc_extent(10)
        assert second.pfn == first.pfn + 10

    def test_alignment_honored(self):
        kernel = Kernel(MachineConfig(dram_bytes=256 * MIB, nvm_bytes=1 * GIB))
        alloc = kernel.nvm_allocator
        alloc.alloc_extent(3)  # misalign the hint
        extent = alloc.alloc_extent(512, align_frames=512)
        assert extent.pfn % 512 == 0

    def test_free_extent_returns_blocks(self, kernel):
        alloc = kernel.nvm_allocator
        extent = alloc.alloc_extent(64)
        free_before = alloc.free_blocks
        alloc.free_extent(extent)
        assert alloc.free_blocks == free_before + 64

    def test_exhaustion_raises_nospace(self, kernel):
        alloc = kernel.nvm_allocator
        with pytest.raises(NoSpaceError):
            alloc.alloc_extent(alloc.total_blocks + 1)

    def test_best_effort_fragmented_allocation(self, kernel):
        alloc = kernel.nvm_allocator
        held = [alloc.alloc_extent(1) for _ in range(3)]
        # Interleave frees to fragment.
        alloc.free_extent(held[1])
        pieces = []
        alloc.alloc_best_effort(alloc.free_blocks, pieces, logical=7)
        assert sum(piece.count for piece in pieces) > 0
        assert alloc.free_blocks == 0
        # Pieces carry consecutive file blocks from ``logical`` on.
        assert pieces[0].logical == 7
        for before, after in zip(pieces, pieces[1:]):
            assert after.logical == before.logical + before.count

    def test_charged_per_extent_not_per_block(self, kernel):
        with kernel.measure() as small:
            kernel.nvm_allocator.alloc_extent(1)
        with kernel.measure() as big:
            kernel.nvm_allocator.alloc_extent(10_000)
        assert small.elapsed_ns == big.elapsed_ns  # O(1) per extent

    def test_bad_count_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.nvm_allocator.alloc_extent(0)


class TestPmfsFiles:
    def test_create_allocates_one_extent(self, fs):
        inode = fs.create("/big", size=4 * MIB)
        assert fs.extent_count(inode) == 1

    def test_frame_runs_per_extent(self, fs, kernel):
        inode = fs.create("/big", size=4 * MIB)
        before = kernel.counters.get("extent_lookup")
        runs = list(fs.backing_for(inode).frame_runs(0, 1024))
        assert len(runs) == 1  # one extent, one run — the O(1) economy
        assert kernel.counters.get("extent_lookup") - before == 1

    def test_growth_merges_adjacent_extents(self, fs):
        inode = fs.create("/grow", size=4 * KIB)
        fs.truncate(inode, 8 * KIB)
        # Next-fit makes the second extent physically adjacent -> merged.
        assert fs.extent_count(inode) == 1

    def test_write_past_eof_extends(self, fs):
        with fs.open("/ext", create=True) as handle:
            handle.pwrite(10 * PAGE_SIZE, b"x")
        inode = fs.lookup("/ext")
        assert inode.page_count == 11

    def test_shrink_returns_blocks(self, fs, kernel):
        inode = fs.create("/shrink", size=16 * KIB)
        free_before = kernel.nvm_allocator.free_blocks
        fs.truncate(inode, 4 * KIB)
        assert kernel.nvm_allocator.free_blocks == free_before + 3

    def test_unlink_frees_extents(self, fs, kernel):
        fs.create("/gone", size=1 * MIB)
        free_before = kernel.nvm_allocator.free_blocks
        fs.unlink("/gone")
        assert kernel.nvm_allocator.free_blocks == free_before + 256

    def test_journal_records_metadata_ops(self, fs):
        journal_before = len(fs.journal)
        fs.create("/j", size=4 * KIB)
        assert len(fs.journal) > journal_before

    def test_nvm_technology(self, fs):
        from repro.hw.costmodel import MemoryTechnology

        assert fs.tech is MemoryTechnology.NVM

    def test_dax_mmap_setup_cost(self, fs, kernel):
        assert fs.mmap_setup_extra_ns == kernel.costs.dax_setup_ns
        fs.dax = False
        assert fs.mmap_setup_extra_ns == 0
        fs.dax = True


class TestPersistence:
    def test_crash_preserves_files(self, fs):
        with fs.open("/survive", create=True) as handle:
            handle.write(b"important")
        fs.crash()
        with fs.open("/survive") as handle:
            assert handle.read(9) == b"important"

    def test_crash_replays_and_clears_journal(self, fs):
        fs.create("/a", size=4 * KIB)
        assert fs.journal
        fs.crash()
        assert fs.journal == []

    def test_kernel_crash_keeps_pmfs_loses_tmpfs(self, kernel):
        kernel.pmfs.create("/p", size=4 * KIB)
        kernel.tmpfs.create("/t", size=4 * KIB)
        kernel.crash()
        assert kernel.pmfs.exists("/p")
        assert not kernel.tmpfs.exists("/t")

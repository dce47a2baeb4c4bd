"""PMFS crash consistency: journal undo/redo under injected failures."""

import pytest
from hypothesis import given, strategies as st

from repro.chaos import FaultPlan, explore
from repro.errors import NoSpaceError, SimulatedCrashError
from repro.fs.extent import Extent
from repro.fs.pmfs import BlockAllocator, Pmfs
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.kernel import Kernel, MachineConfig
from repro.mem.physical import MemoryRegion
from repro.obs.metrics import MetricsRegistry
from repro.units import KIB, MIB, PAGE_SIZE


@pytest.fixture
def fs(kernel):
    return kernel.pmfs


class TestFsck:
    def test_clean_fs_passes(self, fs):
        fs.create("/a", size=1 * MIB)
        fs.create("/b", size=64 * KIB)
        assert fs.fsck() == []

    def test_after_unlink_passes(self, fs):
        fs.create("/a", size=1 * MIB)
        fs.unlink("/a")
        assert fs.fsck() == []

    def test_detects_leaked_block(self, fs):
        fs.create("/a", size=4 * KIB)
        # Leak: allocate a block no file owns.
        fs.allocator.alloc_extent(1)
        problems = fs.fsck()
        assert any("owned by no file" in p for p in problems)


def _per_block_fsck(fs):
    """The per-block fsck the bitmap XOR replaced: tests every block."""
    problems = []
    claimed = {}
    for ino, tree in fs._trees.items():
        for extent in tree.extents():
            for pfn in range(extent.pfn, extent.pfn + extent.count):
                if pfn in claimed:
                    problems.append(
                        f"block {pfn} claimed by ino {claimed[pfn]} and ino {ino}"
                    )
                claimed[pfn] = ino
    region = fs.allocator._region
    bitmap = fs.allocator._bitmap
    for index in range(bitmap.size):
        pfn = region.first_pfn + index
        allocated = bitmap.test(index)
        if allocated and pfn not in claimed:
            problems.append(f"block {pfn} allocated but owned by no file")
        elif not allocated and pfn in claimed:
            problems.append(f"block {pfn} owned by ino {claimed[pfn]} but free in bitmap")
    return problems


def _corrupted_fs(files, flips, forged):
    """A 256-block PMFS (from pfn 256) holding ``files``, with bitmap bits
    ``flips`` flipped and extents ``forged`` appended to its trees."""
    clock, costs, counters = SimClock(), CostModel(), MetricsRegistry()
    region = MemoryRegion(start=1 * MIB, size=1 * MIB, tech=MemoryTechnology.NVM, name="nv")
    allocator = BlockAllocator(region, clock, costs, counters)
    fs = Pmfs("pmfs-small", allocator, clock, costs, counters)
    bitmap = allocator._bitmap
    for number, pages in enumerate(files):
        fs.create(f"/f{number}", size=pages * PAGE_SIZE)
    for index in flips:
        if bitmap.test(index):
            bitmap.clear_range(index, 1)
        else:
            bitmap.set_range(index, 1)
    trees = list(fs._trees.values())
    for number, (offset, count) in enumerate(forged):
        if trees:
            tree = trees[number % len(trees)]
            logical = tree.block_count + 1000 * (number + 1)
            tree.insert(Extent(logical=logical, pfn=region.first_pfn + offset, count=count))
    return fs


_CORRUPTIONS = dict(
    files=st.lists(st.integers(1, 24), max_size=8),
    flips=st.lists(st.integers(0, 255), max_size=10),
    #: (offset from the region's first block, count): may straddle
    #: either end of the region or overlap a live file.
    forged=st.lists(st.tuples(st.integers(-6, 262), st.integers(1, 8)), max_size=4),
)


class TestFsckMatchesPerBlockReference:
    @given(**_CORRUPTIONS)
    def test_same_problems_in_same_order(self, files, flips, forged):
        fs = _corrupted_fs(files, flips, forged)
        assert fs.fsck() == _per_block_fsck(fs)

    @given(**_CORRUPTIONS)
    def test_scrub_frees_exactly_the_unowned_blocks(self, files, flips, forged):
        fs = _corrupted_fs(files, flips, forged)
        bitmap = fs.allocator._bitmap
        reference = _per_block_fsck(fs)
        leaked = [problem for problem in reference if "owned by no file" in problem]
        set_before = bitmap.set_count
        fs._scrub()
        assert fs._counters.get("recovery_scrub_blocks") == len(leaked)
        assert bitmap.set_count == set_before - len(leaked)
        assert fs.fsck() == [problem for problem in reference if problem not in leaked]


def _crash_during(kernel, plan, operation, *args):
    """Run ``operation(*args)`` under ``plan`` and expect the power cut."""
    kernel.arm_chaos(plan)
    try:
        with pytest.raises(SimulatedCrashError):
            operation(*args)
    finally:
        kernel.disarm_chaos()


def _fragmented_kernel(blocks, hole):
    """A machine whose PMFS has ``blocks`` blocks, every other ``hole``
    of them free: no free run is longer than ``hole``."""
    kernel = Kernel(MachineConfig(dram_bytes=64 * MIB, nvm_bytes=blocks * PAGE_SIZE))
    fs = kernel.pmfs
    for index in range(blocks // hole):
        fs.create(f"/fill{index}", size=hole * PAGE_SIZE)
    for index in range(0, blocks // hole, 2):
        fs.unlink(f"/fill{index}")
    return kernel


class TestInjectedCrashes:
    def test_crash_before_commit_is_undone(self, fs, kernel):
        free_before = fs.allocator.free_blocks
        _crash_during(
            kernel, FaultPlan.crash_at_site("pmfs.journal.commit.pre"),
            fs.create, "/doomed", 1 * MIB,
        )
        kernel.crash()
        # The allocation rolled back: no leak, fsck clean.
        assert fs.allocator.free_blocks == free_before
        assert fs.fsck() == []

    def test_crash_after_commit_is_redone(self, fs, kernel):
        fs.create("/pre", size=4 * KIB)  # something in the trees
        inode = fs.lookup("/pre")
        _crash_during(
            kernel, FaultPlan.crash_at_site("pmfs.journal.commit.post"),
            fs.truncate, inode, 1 * MIB,
        )
        kernel.crash()
        assert fs.fsck() == []
        # Committed, so replay finishes the growth: fully applied.
        assert fs._tree_of(inode).block_count == 256

    def test_crash_during_free_keeps_consistency(self, fs, kernel):
        fs.create("/gone", size=1 * MIB)
        free_before = fs.allocator.free_blocks
        _crash_during(
            kernel, FaultPlan.crash_at_site("pmfs.journal.commit.pre"),
            fs.unlink, "/gone",
        )
        kernel.crash()
        assert fs.fsck() == []
        # An uncommitted free changed nothing durable.
        assert fs.allocator.free_blocks == free_before


class TestCrashWindows:
    """What each crash point of the journal protocol leaves behind.

    An allocation's durable steps are: take each extent from the bitmap
    and record it in the journal entry, commit, apply.  ``pmfs.extent.alloc``
    is hit before each extent is taken, ``pmfs.journal.commit.pre`` once
    every extent is recorded (undo window) and ``.post`` once the record
    is committed but not applied (redo window).
    """

    def test_crash_after_first_journaled_write_is_commit_pre(self, fs, kernel):
        free_before = fs.allocator.free_blocks
        # The last crash point before the write: the extent is not taken.
        _crash_during(
            kernel, FaultPlan.crash_at_site("pmfs.extent.alloc"),
            fs.create, "/e", PAGE_SIZE,
        )
        assert fs.journal[-1].extents == []
        assert fs.allocator.free_blocks == free_before
        kernel.crash()
        assert fs.allocator.free_blocks == free_before
        assert fs.fsck() == []
        # The first crash point after it: the extent was taken from the
        # bitmap and recorded, and the record is not yet committed.
        _crash_during(
            kernel, FaultPlan.crash_at_site("pmfs.journal.commit.pre"),
            fs.create, "/f", PAGE_SIZE,
        )
        record = fs.journal[-1]
        assert not record.committed
        assert len(record.extents) == 1
        assert fs.allocator.free_blocks == free_before - 1
        kernel.crash()
        assert fs.allocator.free_blocks == free_before

    def test_crash_at_commit_pre_is_undone(self, fs, kernel):
        free_before = fs.allocator.free_blocks
        _crash_during(
            kernel, FaultPlan.crash_at_site("pmfs.journal.commit.pre"),
            fs.create, "/f", PAGE_SIZE,
        )
        record = fs.journal[-1]
        assert not record.committed and not record.applied
        kernel.crash()
        assert fs.allocator.free_blocks == free_before
        assert fs.fsck() == []
        # Undone: the file's storage never became durable.
        tree = fs._trees.get(fs.lookup("/f").ino)
        assert tree is None or tree.block_count == 0

    def test_crash_at_commit_post_is_redone(self, fs, kernel):
        _crash_during(
            kernel, FaultPlan.crash_at_site("pmfs.journal.commit.post"),
            fs.create, "/f", PAGE_SIZE,
        )
        record = fs.journal[-1]
        assert record.committed and not record.applied
        kernel.crash()
        # Redone: the extent landed in the tree despite the crash.
        assert fs._tree_of(fs.lookup("/f")).block_count == 1
        assert fs.fsck() == []

    def test_crash_between_pieces_undoes_every_piece(self):
        # Free blocks {0, 2}: a 2-block file takes two 1-block pieces.
        # Hit 0 of pmfs.extent.alloc is the failed contiguous attempt,
        # hits 1 and 2 precede the two pieces.
        kernel = _fragmented_kernel(blocks=4, hole=1)
        fs = kernel.pmfs
        _crash_during(
            kernel, FaultPlan.crash_at_site("pmfs.extent.alloc", nth=2),
            fs.create, "/big", 2 * PAGE_SIZE,
        )
        record = fs.journal[-1]
        assert not record.committed
        assert len(record.extents) == 1  # the first piece, recorded as taken
        assert fs.allocator.free_blocks == 1
        kernel.crash()
        assert fs.fsck() == []
        assert fs.allocator.free_blocks == 2

    def test_crash_at_commit_post_of_pieces_is_redone(self):
        kernel = _fragmented_kernel(blocks=4, hole=1)
        fs = kernel.pmfs
        _crash_during(
            kernel, FaultPlan.crash_at_site("pmfs.journal.commit.post"),
            fs.create, "/big", 2 * PAGE_SIZE,
        )
        record = fs.journal[-1]
        assert record.committed and not record.applied
        assert len(record.extents) == 2
        kernel.crash()
        assert fs.fsck() == []
        # Redone: both pieces are durable, nothing is free.
        assert fs.allocator.free_blocks == 0

    def test_error_between_pieces_leaves_nothing_to_undo(self):
        kernel = _fragmented_kernel(blocks=4, hole=1)
        fs = kernel.pmfs
        kernel.arm_chaos(FaultPlan.fault_at_site("pmfs.extent.alloc", "error", nth=2))
        with pytest.raises(NoSpaceError):
            fs.create("/big", size=2 * PAGE_SIZE)
        kernel.disarm_chaos()
        # The first piece went back to the bitmap and off the record, so
        # a later replay does not free it a second time.
        assert fs.allocator.free_blocks == 2
        assert fs.journal[-1].extents == []
        kernel.crash()
        assert fs.allocator.free_blocks == 2
        assert fs.fsck() == []

    def test_any_crash_point_recovers_consistent(self):
        """Crash at every fault-site hit of a workload whose allocations
        fragment (eight 4-block holes), and every recovery is clean."""

        def build():
            kernel = _fragmented_kernel(blocks=64, hole=4)
            fs = kernel.pmfs

            def run():
                fs.create("/a", size=10 * PAGE_SIZE)  # pieces of 2, 4, 4
                fs.truncate(fs.lookup("/a"), 4 * PAGE_SIZE)
                fs.create("/b", size=6 * PAGE_SIZE)  # pieces of 3, 3
                fs.unlink("/a")

            return kernel, run

        report = explore(build)
        assert report.baseline_problems == []
        assert report.failures == [], report.summary()
        # Two failed contiguous attempts, then one hit before each of
        # the five pieces: 19 crash points in all.
        assert report.census["pmfs.extent.alloc"] == 7
        assert report.crash_points == 19

"""PMFS crash consistency: journal undo/redo under injected failures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulatedCrashError
from repro.fs.extent import Extent
from repro.fs.pmfs import BlockAllocator, Pmfs
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.kernel import Kernel, MachineConfig
from repro.mem.physical import MemoryRegion
from repro.obs.metrics import MetricsRegistry
from repro.units import GIB, KIB, MIB, PAGE_SIZE


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


class TestInjectedCrashes:
    def test_crash_before_commit_is_undone(self, fs, kernel):
        free_before = fs.allocator.free_blocks
        fs.schedule_crash(0)  # first tick: after the first extent alloc
        with pytest.raises(SimulatedCrashError):
            fs.create("/doomed", size=1 * MIB)
        kernel.crash()
        # The allocation rolled back: no leak, fsck clean.
        assert fs.allocator.free_blocks == free_before
        assert fs.fsck() == []

    def test_crash_after_commit_is_redone(self, fs, kernel):
        fs.create("/pre", size=4 * KIB)  # something in the trees
        inode = fs.lookup("/pre")
        fs.schedule_crash(2)  # after alloc tick + commit's first tick
        with pytest.raises(SimulatedCrashError):
            fs.truncate(inode, 1 * MIB)
        kernel.crash()
        assert fs.fsck() == []
        # Either fully rolled back or fully applied, never in-between:
        assert inode.page_count * PAGE_SIZE in (4 * KIB, 4 * KIB)
        tree_blocks = fs._tree_of(inode).block_count
        assert tree_blocks in (1, 256)

    def test_crash_during_free_keeps_consistency(self, fs, kernel):
        fs.create("/gone", size=1 * MIB)
        fs.schedule_crash(0)
        with pytest.raises(SimulatedCrashError):
            fs.unlink("/gone")
        kernel.crash()
        assert fs.fsck() == []

    def test_schedule_validation(self, fs):
        with pytest.raises(ValueError):
            fs.schedule_crash(-1)


class TestTickSemantics:
    """Nail down exactly where each ``schedule_crash`` tick fires.

    For a single-extent allocation the durable steps are: record the
    extent in the journal (tick 0), commit-pre (tick 1), commit-post
    (tick 2).  Tick 0 therefore fires *after* the first journaled write —
    there is no tick before it, because nothing durable has happened yet.
    """

    def test_tick0_fires_after_first_journaled_write(self, fs, kernel):
        free_before = fs.allocator.free_blocks
        fs.schedule_crash(0)
        with pytest.raises(SimulatedCrashError):
            fs.create("/f", size=PAGE_SIZE)
        # The extent was taken from the bitmap and recorded before the
        # crash fired: the journal holds an uncommitted record with it.
        record = fs.journal[-1]
        assert not record.committed
        assert len(record.extents) == 1
        assert fs.allocator.free_blocks == free_before - 1
        kernel.crash()
        assert fs.allocator.free_blocks == free_before

    def test_tick1_fires_at_commit_pre(self, fs, kernel):
        fs.schedule_crash(1)
        with pytest.raises(SimulatedCrashError):
            fs.create("/f", size=PAGE_SIZE)
        record = fs.journal[-1]
        assert not record.committed and not record.applied
        kernel.crash()
        assert fs.fsck() == []
        # Undone: the file's storage never became durable.
        tree = fs._trees.get(fs.lookup("/f").ino)
        assert tree is None or tree.block_count == 0

    def test_tick2_fires_at_commit_post(self, fs, kernel):
        fs.schedule_crash(2)
        with pytest.raises(SimulatedCrashError):
            fs.create("/f", size=PAGE_SIZE)
        record = fs.journal[-1]
        assert record.committed and not record.applied
        kernel.crash()
        # Redone: the extent landed in the tree despite the crash.
        assert record.extents[0].count == 1
        assert fs.fsck() == []

    @staticmethod
    def _fragmented_fs(clock, costs, counters):
        """A 4-block PMFS whose only free blocks are non-contiguous."""
        region = MemoryRegion(
            start=0, size=4 * PAGE_SIZE, tech=MemoryTechnology.NVM, name="nv"
        )
        fs = Pmfs(
            "pmfs-tiny",
            BlockAllocator(region, clock, costs, counters),
            clock,
            costs,
            counters,
        )
        for name in "abcd":
            fs.create(f"/{name}", size=PAGE_SIZE)
        fs.unlink("/a")
        fs.unlink("/c")
        return fs  # free blocks: {0, 2} — no contiguous pair

    def test_multi_extent_alloc_gets_one_tick_per_extent(
        self, clock, costs, counters
    ):
        # A 2-block allocation over fragmented space takes two 1-block
        # extents, so the tick map shifts: 0 and 1 land after each extent
        # record, commit-pre is tick 2, commit-post is tick 3.
        fs = self._fragmented_fs(clock, costs, counters)
        fs.schedule_crash(1)
        with pytest.raises(SimulatedCrashError):
            fs.create("/big", size=2 * PAGE_SIZE)
        record = fs.journal[-1]
        assert not record.committed
        assert len(record.extents) == 2
        fs.crash()
        assert fs.fsck() == []
        assert fs.allocator.free_blocks == 2

    def test_multi_extent_commit_post_is_final_tick(
        self, clock, costs, counters
    ):
        fs = self._fragmented_fs(clock, costs, counters)
        fs.schedule_crash(3)
        with pytest.raises(SimulatedCrashError):
            fs.create("/big", size=2 * PAGE_SIZE)
        record = fs.journal[-1]
        assert record.committed and not record.applied
        fs.crash()
        assert fs.fsck() == []
        # Redone: both extents are durable, nothing is free.
        assert fs.allocator.free_blocks == 0

    @given(
        crash_tick=st.integers(0, 12),
        sizes=st.lists(st.integers(1, 64), min_size=1, max_size=5),
    )
    @settings(max_examples=40)
    def test_any_crash_point_recovers_consistent(self, crash_tick, sizes):
        """Property: crash at *any* journal tick during a random op mix,
        and post-recovery fsck is clean with no leaked blocks."""
        kernel = Kernel(MachineConfig(dram_bytes=128 * MIB, nvm_bytes=256 * MIB))
        fs = kernel.pmfs
        for index, pages in enumerate(sizes[:-1]):
            fs.create(f"/warm{index}", size=pages * PAGE_SIZE)
        fs.schedule_crash(crash_tick)
        try:
            fs.create("/victim", size=sizes[-1] * PAGE_SIZE)
            inode = fs.lookup("/victim")
            fs.truncate(inode, (sizes[-1] + 8) * PAGE_SIZE)
            fs.unlink("/victim")
            if len(sizes) > 1:
                fs.unlink("/warm0")
        except SimulatedCrashError:
            pass
        kernel.crash()
        assert fs.fsck() == []
        # Bitmap accounting matches the trees exactly.
        tree_blocks = sum(
            tree.block_count for tree in fs._trees.values()
        )
        used = fs.allocator.total_blocks - fs.allocator.free_blocks
        assert tree_blocks == used

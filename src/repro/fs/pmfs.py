"""PMFS: extent-based persistent-memory file system (after Dulloor [7]).

The file system the paper's Figure 2/7 allocates through.  Three properties
make it the natural substrate for file-only memory:

* **extent allocation** — a file's storage is a handful of contiguous
  runs, allocated with one bitmap update per run, so creating even a
  gigabyte file is O(#extents), not O(#pages);
* **direct access (DAX)** — file data lives in NVM at stable physical
  addresses, so mmap maps those frames directly with no page cache;
* **journaled metadata** — creates/allocations write undo-log records so
  the namespace survives crashes, which :meth:`crash`/:meth:`recover`
  exercise for the paper's persistence-management story.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import FileSystemError, NoSpaceError
from repro.fs.extent import Extent, ExtentTree
from repro.fs.vfs import FileSystem, Inode
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.lint import complexity, o1
from repro.mem.bitmap import Bitmap
from repro.mem.physical import MemoryRegion
from repro.obs.metrics import MetricsRegistry
from repro.units import PAGE_SIZE
from repro.vm.vma import MemoryBacking


class BlockAllocator:
    """Bitmap-backed extent allocator over one NVM region.

    One bit per 4 KiB block; allocation finds a contiguous clear run
    (next-fit from the last allocation point) and charges per *extent*,
    not per block — "unused blocks are represented by a single bit in a
    bitmap" (§3.1).
    """

    def __init__(
        self,
        region: MemoryRegion,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
    ) -> None:
        self._region = region
        self._clock = clock
        self._costs = costs
        self._counters = counters
        self._bitmap = Bitmap(region.frame_count)
        self._hint = 0

    @property
    def free_blocks(self) -> int:
        """Blocks not allocated."""
        return self._bitmap.clear_count

    @property
    def total_blocks(self) -> int:
        """Blocks managed."""
        return self._bitmap.size

    @o1(note="one bitmap run update, any extent size")
    def alloc_extent(self, nblocks: int, align_frames: int = 1) -> Extent:
        """Allocate one contiguous extent of ``nblocks`` blocks.

        ``align_frames`` forces the extent's physical start onto a frame
        boundary (e.g. 512 for 2 MiB alignment) so file-only memory can
        map it with huge pages or linked page-table subtrees.
        """
        if nblocks <= 0:
            raise ValueError(f"nblocks must be positive, got {nblocks}")
        chaos = self._counters.chaos
        if chaos is not None and chaos.hit("pmfs.extent.alloc") == "error":
            raise NoSpaceError(
                f"chaos: injected exhaustion in {self._region.name or 'nvm'}"
            )
        self._clock.advance(self._costs.extent_alloc_ns + self._costs.bitmap_run_ns)
        self._counters.bump("extent_alloc")
        # o1: allow(flow-bounded) -- the bitmap scan is priced as one bitmap_run_ns, the model's slow path
        start = self._find_aligned_run(nblocks, align_frames)
        if start is None:
            raise NoSpaceError(
                f"no contiguous run of {nblocks} blocks "
                f"(align {align_frames}) in {self._region.name or 'nvm'}: "
                f"{self.free_blocks} free but fragmented"
            )
        return Extent(logical=0, pfn=self._take_run(start, nblocks), count=nblocks)

    def _take_run(self, start: int, nblocks: int) -> int:
        """Mark ``nblocks`` clear blocks from bitmap index ``start``
        allocated, tell the armed ledgers, and return the first pfn."""
        self._bitmap.set_range(start, nblocks)
        self._hint = start + nblocks
        pfn = self._region.first_pfn + start
        san = self._counters.sanitize
        if san is not None:
            san.on_nvm_alloc(self, pfn, nblocks)
        qos = self._counters.qos
        if qos is not None:
            # PMFS block charging: billed to the calling tenant's cgroup
            # (an informational side ledger; no watermark actions).
            qos.on_nvm_alloc(nblocks)
        return pfn

    @complexity("n", note="next-fit bitmap scan for an aligned run")
    def _find_aligned_run(self, nblocks: int, align_frames: int) -> Optional[int]:
        if align_frames <= 1:
            return self._bitmap.find_clear_run(nblocks, self._hint)
        # Alignment is relative to physical frame numbers.
        first = self._region.first_pfn
        candidate = self._bitmap.find_clear_run(nblocks, self._hint)
        scanned_from = candidate
        # o1: allow(flow-bounded) -- candidates advance monotonically; one bitmap pass total
        while candidate is not None:
            misalign = (first + candidate) % align_frames
            if misalign == 0:
                return candidate
            next_try = candidate + (align_frames - misalign)
            if next_try + nblocks > self._bitmap.size:
                break
            if self._bitmap.run_is_clear(next_try, nblocks):
                return next_try
            candidate = self._bitmap.find_clear_run(nblocks, next_try + 1)
            if candidate == scanned_from:
                break
        return None

    @complexity("n", note="few extents when contiguity exists; the scan is the fragmentation fallback")
    def alloc_best_effort(self, nblocks: int, into: List[Extent], logical: int) -> None:
        """Allocate ``nblocks`` as few extents as possible (fragmentation
        fallback): repeatedly grab the largest run available.

        Each piece is appended to ``into`` (a journal record's extent
        list), at file block ``logical`` onward, as soon as it is taken,
        and ``pmfs.extent.alloc`` is hit before each piece: a crash
        between pieces leaves every taken block on the record for undo.
        Out of space, or on an injected error, the pieces taken here are
        freed and removed from ``into`` again, so the record has nothing
        left to undo.
        """
        first = len(into)
        remaining = nblocks
        while remaining > 0:
            chaos = self._counters.chaos
            injected = chaos is not None and chaos.hit("pmfs.extent.alloc") == "error"
            # An injected error fails the allocation as exhaustion does.
            run = 0 if injected else remaining
            start = None
            # o1: allow(flow-bounded) -- run halves each probe, a log-bounded search
            while run > 0:
                # o1: allow(flow-bounded) -- the bitmap scan is the priced fragmentation fallback
                start = self._bitmap.find_clear_run(run, self._hint)
                if start is not None:
                    break
                run //= 2
            if start is None or run == 0:
                # o1: allow(flow-bounded) -- error-path rollback of the few extents grabbed
                for extent in into[first:]:
                    self.free_extent(extent)
                del into[first:]
                raise NoSpaceError(
                    f"cannot allocate {nblocks} blocks even fragmented"
                )
            self._clock.advance(
                self._costs.extent_alloc_ns + self._costs.bitmap_run_ns
            )
            self._counters.bump("extent_alloc")
            into.append(Extent(logical=logical, pfn=self._take_run(start, run), count=run))
            logical += run
            remaining -= run

    @o1(note="one bitmap test")
    def block_is_free(self, pfn: int) -> bool:
        """Whether the block at ``pfn`` is unallocated."""
        index = pfn - self._region.first_pfn
        if not 0 <= index < self._bitmap.size:
            raise ValueError(
                f"pfn {pfn:#x} outside {self._region.name or 'nvm'}"
            )
        return not self._bitmap.test(index)

    @o1(note="one bitmap bit update")
    def claim_block(self, pfn: int) -> None:
        """Mark one specific *free* block allocated (badblock adoption).

        Unlike :meth:`alloc_extent` this claims an exact block rather
        than searching for a run — the RAS engine uses it to pin a
        failing-but-free block so it can never be handed out again.
        """
        index = pfn - self._region.first_pfn
        if not 0 <= index < self._bitmap.size:
            raise ValueError(
                f"pfn {pfn:#x} outside {self._region.name or 'nvm'}"
            )
        if self._bitmap.test(index):
            raise NoSpaceError(f"block {pfn:#x} is not free")
        self._clock.advance(self._costs.bitmap_run_ns)
        self._counters.bump("extent_alloc")
        self._bitmap.set_range(index, 1)
        san = self._counters.sanitize
        if san is not None:
            san.on_nvm_alloc(self, pfn, 1)

    @o1(note="one bitmap run update")
    def free_extent(self, extent: Extent) -> None:
        """Return an extent's blocks to the bitmap (one run update)."""
        san = self._counters.sanitize
        if san is not None:
            san.on_nvm_free(self, extent.pfn, extent.count)
        self._clock.advance(self._costs.bitmap_run_ns)
        self._counters.bump("extent_free")
        qos = self._counters.qos
        if qos is not None:
            qos.on_nvm_free(extent.count)
        self._bitmap.clear_range(extent.pfn - self._region.first_pfn, extent.count)


class _PmfsBacking(MemoryBacking):
    """DAX mmap backing: file pages map straight to NVM frames.

    ``tracks_frame_meta`` is False: DAX mappings are pfn-based — there is
    no ``struct page`` for the media's frames, so the vm layer performs no
    per-4KiB metadata updates on populate or teardown.  This is exactly
    the coarse-metadata property §3.1 claims for file-managed memory.
    A store into a private mapping copies the page into DRAM, as Linux
    does, so every block this file system hands out belongs to a file.
    """

    tracks_frame_meta = False

    def __init__(self, fs: "Pmfs", inode: Inode) -> None:
        self._fs = fs
        self.inode = inode

    def frame_for(self, page_index: int, write: bool) -> int:
        return self._fs.charge_block_lookup(self.inode, page_index)

    @complexity("n", note="one extent lookup per run; runs never outnumber pages")
    def frame_runs(self, start_page: int, npages: int) -> Iterator[Tuple[int, int, int]]:
        tree = self._fs._tree_of(self.inode)
        for logical, pfn, run in tree.runs(start_page, npages):
            # One extent lookup per run — the extent economy in action.
            self._fs._charge_extent_lookup()
            yield logical, pfn, run


@dataclass
class JournalRecord:
    """One durable journal entry (undo log for allocs, redo for frees).

    Lives in NVM: still present after a crash, which is what recovery
    reads.  ``extents`` carry (logical, pfn, count) so both undo (bitmap
    frees) and redo (tree inserts / frees) are possible.
    """

    op: str
    ino: int
    extents: List[Extent] = field(default_factory=list)
    committed: bool = False
    applied: bool = False
    #: shrink records remember the target size for idempotent redo.
    keep_blocks: int = 0
    #: Torn while being made durable: the record's contents cannot be
    #: trusted, so recovery must skip it (and scrub any blocks it leaks).
    corrupted: bool = False
    #: migrate records: the failing extent being vacated.  ``extents``
    #: holds only the freshly allocated replacement, so an uncommitted
    #: crash undoes exactly the new allocation and never the old data.
    migrate_from: Optional[Extent] = None
    #: migrate records: inode number of the badblock list that adopts the
    #: vacated blocks at apply time.
    badblock_ino: int = 0


class Pmfs(FileSystem):
    """Extent-based persistent-memory FS with journaled metadata."""

    tech = MemoryTechnology.NVM
    persistent = True

    def __init__(
        self,
        name: str,
        allocator: BlockAllocator,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
        dax: bool = True,
        extent_align_frames: int = 1,
    ) -> None:
        super().__init__(name, clock, costs, counters)
        self.allocator = allocator
        self.dax = dax
        #: Force new extents onto this frame alignment (512 = 2 MiB), the
        #: "natural granularities of page table structures" knob.
        self.extent_align_frames = extent_align_frames
        self._trees: Dict[int, ExtentTree] = {}
        #: Undo/redo journal records (they live in NVM, so they survive
        #: crashes and drive :meth:`crash` recovery).
        self.journal: List[JournalRecord] = []
        #: ``callback(ino, first_pfn, count)`` hooks run whenever file
        #: extents stop being valid (free, shrink, migration) so shared
        #: translation caches can drop entries for the vacated media.
        self._extent_invalidators: List = []

    def register_extent_invalidator(self, callback) -> None:
        """Register ``callback(ino, first_pfn, count)`` for extent death.

        Invoked once per extent whenever blocks leave a file — whole-file
        frees (unlink), truncation, and RAS migration — so caches holding
        physical translations into file extents (premapped page-table
        subtrees, PBM shared windows) can invalidate instead of serving
        stale media.
        """
        self._extent_invalidators.append(callback)

    def _notify_extent_invalidators(self, ino: int, first_pfn: int, count: int) -> None:
        # o1: allow(flow-bounded) -- a handful of registered caches
        for callback in self._extent_invalidators:
            callback(ino, first_pfn, count)

    # ------------------------------------------------------------------
    # Journal — undo log for allocations, redo log for frees
    # ------------------------------------------------------------------
    def _journal_begin(self, op: str, ino: int) -> "JournalRecord":
        self._clock.advance(self._costs.journal_record_ns)
        self._counters.bump("journal_record")
        record = JournalRecord(op=op, ino=ino)
        self.journal.append(record)
        san = self._counters.sanitize
        if san is not None:
            san.on_journal_begin(self, record)
        chaos = self._counters.chaos
        if chaos is not None:
            chaos.hit("pmfs.journal.begin")
        return record

    def _journal_commit(self, record: "JournalRecord") -> None:
        chaos = self._counters.chaos
        if chaos is not None and chaos.hit("pmfs.journal.commit.pre") == "corrupt":
            # The commit write is torn: the record is unreadable and the
            # machine loses power before anything else happens.
            record.corrupted = True
            chaos.power_cut("pmfs.journal.commit.pre")
        self._clock.advance(self._costs.journal_record_ns // 2)
        self._counters.bump("journal_commit")
        tracer = self._counters.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant(
                "journal_commit",
                "fs",
                args={"op": record.op, "ino": record.ino},
            )
        record.committed = True
        san = self._counters.sanitize
        if san is not None:
            san.on_journal_commit(self, record)
        if chaos is not None:
            chaos.hit("pmfs.journal.commit.post")

    def _charge_extent_lookup(self) -> None:
        self._clock.advance(self._costs.extent_lookup_ns)
        self._counters.bump("extent_lookup")

    def _tree_of(self, inode: Inode) -> ExtentTree:
        tree = self._trees.get(inode.ino)
        if tree is None:
            tree = self._trees[inode.ino] = ExtentTree()
        return tree

    # ------------------------------------------------------------------
    # FileSystem storage interface
    # ------------------------------------------------------------------
    @o1(note="one journal record + one extent in the aligned common case")
    def allocate_blocks(self, inode: Inode, nblocks: int) -> None:
        """Grow a file by ``nblocks``, crash-safely.

        Protocol: journal-begin, allocate extents from the bitmap (each
        recorded in the journal entry as soon as it is taken, so a crash
        between the pieces of a fragmented allocation undoes every one),
        commit, then apply (insert into the extent tree).  A crash before
        commit is undone (bitmap frees); after commit it is redone (tree
        inserts) — see :meth:`crash`.
        """
        logical = self._tree_of(inode).block_count
        record = self._journal_begin("alloc", inode.ino)
        try:
            extent = self.allocator.alloc_extent(
                nblocks, align_frames=self.extent_align_frames
            )
            record.extents.append(
                Extent(logical=logical, pfn=extent.pfn, count=extent.count)
            )
        except NoSpaceError:
            try:
                # o1: allow(flow-bounded) -- pieces only under fragmentation; one extent in the common case
                self.allocator.alloc_best_effort(nblocks, record.extents, logical)
            except NoSpaceError:
                san = self._counters.sanitize
                if san is not None:
                    # The transaction dies before its commit: close the
                    # epoch so later writes to this inode aren't blamed.
                    san.on_journal_abort(self, record)
                raise
        self._journal_commit(record)
        # o1: allow(flow-bounded) -- one tree insert per piece; one piece in the common case
        self._apply_alloc(record)

    @complexity("n", note="one tree insert per journaled extent")
    def _apply_alloc(self, record: "JournalRecord") -> None:
        san = self._counters.sanitize
        if san is not None:
            san.on_journal_apply(self, record)
        tree = self._trees.get(record.ino)
        if tree is None:
            tree = self._trees[record.ino] = ExtentTree()
        for extent in record.extents:
            if tree.lookup(extent.logical) is None:
                tree.insert(extent)
        record.applied = True

    @complexity("n", note="one journaled record covering the tail extents")
    def shrink_blocks(self, inode: Inode, keep_blocks: int) -> None:
        """Truncate a file's tail, crash-safely (redo-logged frees)."""
        tree = self._tree_of(inode)
        record = self._journal_begin("shrink", inode.ino)
        for extent in tree.extents():
            if extent.logical_end <= keep_blocks:
                continue
            if extent.logical >= keep_blocks:
                record.extents.append(extent)
            else:
                keep = keep_blocks - extent.logical
                record.extents.append(
                    Extent(
                        extent.logical + keep,
                        extent.pfn + keep,
                        extent.count - keep,
                    )
                )
        record.keep_blocks = keep_blocks
        self._journal_commit(record)
        self._apply_shrink(record)

    @complexity("n", note="tree rebuild plus one free per journaled extent")
    def _apply_shrink(self, record: "JournalRecord") -> None:
        san = self._counters.sanitize
        if san is not None:
            san.on_journal_apply(self, record)
        tree = self._trees.get(record.ino)
        if tree is not None:
            survivors: List[Extent] = []
            for extent in tree.remove_all():
                if extent.logical_end <= record.keep_blocks:
                    survivors.append(extent)
                elif extent.logical < record.keep_blocks:
                    keep = record.keep_blocks - extent.logical
                    survivors.append(Extent(extent.logical, extent.pfn, keep))
            for extent in survivors:
                tree.insert(extent)
        for extent in record.extents:
            # Invalidate cached translations (premap tables, PBM shared
            # subtrees) before the free: once the allocator reclaims the
            # blocks, any surviving translation dangles into memory the
            # next allocation may own.
            self._notify_extent_invalidators(record.ino, extent.pfn, extent.count)
            self.allocator.free_extent(extent)
        record.applied = True

    @o1(note="whole-file free: one journaled record")
    def free_blocks(self, inode: Inode) -> None:
        """Release all of a file's storage, crash-safely."""
        tree = self._trees.get(inode.ino)
        if tree is None:
            return
        record = self._journal_begin("free", inode.ino)
        record.extents = tree.extents()
        self._journal_commit(record)
        # o1: allow(flow-bounded) -- one free per extent; the extent design keeps those few
        self._apply_free(record)
        inode.payload.clear()

    @complexity("n", note="one free per journaled extent")
    def _apply_free(self, record: "JournalRecord") -> None:
        san = self._counters.sanitize
        if san is not None:
            san.on_journal_apply(self, record)
        tree = self._trees.pop(record.ino, None)
        if tree is not None:
            tree.remove_all()
        for extent in record.extents:
            # Same ordering as the truncate path: drop cached
            # translations before the blocks become reallocatable.
            self._notify_extent_invalidators(record.ino, extent.pfn, extent.count)
            self.allocator.free_extent(extent)
        record.applied = True

    @o1(note="one charged extent-tree bisect")
    def charge_block_lookup(self, inode: Inode, page_index: int) -> int:
        self._charge_extent_lookup()
        found = self._tree_of(inode).lookup(page_index)
        if found is None:
            # Hole: PMFS pre-allocates on truncate, so this means the file
            # is being written past EOF — extend by the missing amount.
            tree = self._tree_of(inode)
            missing = page_index + 1 - tree.block_count
            self.allocate_blocks(inode, missing)
            found = tree.lookup(page_index)
            assert found is not None
        return found[0]

    def backing_for(self, inode: Inode) -> MemoryBacking:
        return _PmfsBacking(self, inode)

    # ------------------------------------------------------------------
    # RAS: badblock adoption & live-extent migration (journaled)
    # ------------------------------------------------------------------
    @o1(note="one claimed bit + one journal record; badblock tree is tiny")
    def adopt_badblock(self, badblock_inode: Inode, pfn: int) -> None:
        """Persist one *free* NVM block onto the badblock list, crash-safely.

        Reuses the alloc journal protocol: begin, claim the exact bit,
        record the extent, commit, apply.  A crash before commit undoes
        the claim (the scrubber re-finds and re-adopts the frame after
        recovery); a crash after commit redoes the tree insert.  Either
        way :meth:`fsck`'s one-owner invariant holds — the badblock file
        owns the quarantined block.
        """
        tree = self._tree_of(badblock_inode)
        if self._tree_claims(tree, pfn):
            return
        # o1: allow(flow-bounded) -- one extent per retired frame, few total
        ends = [extent.logical_end for extent in tree.extents()]
        next_logical = max(ends, default=0)
        record = self._journal_begin("alloc", badblock_inode.ino)
        self.allocator.claim_block(pfn)
        record.extents.append(Extent(logical=next_logical, pfn=pfn, count=1))
        self._journal_commit(record)
        # o1: allow(flow-bounded) -- the record holds one single-block extent
        self._apply_alloc(record)
        self._counters.bump("ras_badblock_persisted")

    @complexity("n", note="repair path: scans one file's extents for the block")
    def migrate_block(
        self, inode: Inode, bad_pfn: int, badblock_inode: Inode
    ) -> int:
        """Move one failing block's data to fresh media, crash-safely.

        Protocol: journal-begin, allocate the replacement block (recorded
        in ``extents`` so an uncommitted crash undoes exactly that),
        remember the vacated extent in ``migrate_from``, copy the data
        old→new *before* commit, commit, then apply — remap the file's
        extent tree onto the new block and quarantine the old one on the
        badblock list.  Returns the new block's pfn.  The caller owns
        translation teardown (PTEs/TLB); the registered extent
        invalidators fire here for the shared caches.
        """
        tree = self._tree_of(inode)
        logical = None
        for extent in tree.extents():
            if extent.pfn <= bad_pfn < extent.pfn + extent.count:
                logical = extent.logical + (bad_pfn - extent.pfn)
                break
        if logical is None:
            raise FileSystemError(
                f"block {bad_pfn:#x} is not mapped by ino {inode.ino}"
            )
        chaos = self._counters.chaos
        if chaos is not None:
            chaos.hit("ras.migrate.extent")
        record = self._journal_begin("migrate", inode.ino)
        record.badblock_ino = badblock_inode.ino
        try:
            new = self.allocator.alloc_extent(1)
        except NoSpaceError:
            san = self._counters.sanitize
            if san is not None:
                san.on_journal_abort(self, record)
            raise
        record.extents.append(Extent(logical=logical, pfn=new.pfn, count=1))
        record.migrate_from = Extent(logical=logical, pfn=bad_pfn, count=1)
        # Copy the data off the failing media before commit: if power
        # dies here, undo releases the new block and the old data — still
        # the only durable copy — is untouched.
        self._clock.advance(self._costs.ras_migrate_block_ns)
        self._journal_commit(record)
        self._apply_migrate(record)
        return new.pfn

    @complexity("n", note="extent split/remap around the migrated block")
    def _apply_migrate(self, record: "JournalRecord") -> None:
        san = self._counters.sanitize
        if san is not None:
            san.on_journal_apply(self, record)
        old = record.migrate_from
        assert old is not None and record.extents, "malformed migrate record"
        new = record.extents[0]
        tree = self._trees.get(record.ino)
        found = tree.lookup(old.logical) if tree is not None else None
        if found is not None and found[0] == old.pfn:
            # Remap: split the containing extent around the migrated
            # block and point its logical position at the new media.
            rebuilt: List[Extent] = []
            for extent in tree.remove_all():
                if extent.logical <= old.logical < extent.logical_end:
                    before = old.logical - extent.logical
                    if before:
                        rebuilt.append(
                            Extent(extent.logical, extent.pfn, before)
                        )
                    rebuilt.append(Extent(old.logical, new.pfn, old.count))
                    after = extent.logical_end - (old.logical + old.count)
                    if after:
                        rebuilt.append(
                            Extent(
                                old.logical + old.count,
                                extent.pfn + before + old.count,
                                after,
                            )
                        )
                else:
                    rebuilt.append(extent)
            for extent in rebuilt:
                tree.insert(extent)
        # Quarantine the vacated block on the badblock list: its bitmap
        # bit stays set and the badblock inode becomes its owner, so
        # fsck's one-owner invariant holds and the block can never be
        # reallocated.
        bad_tree = self._trees.get(record.badblock_ino)
        if bad_tree is None:
            bad_tree = self._trees[record.badblock_ino] = ExtentTree()
        if not self._tree_claims(bad_tree, old.pfn):
            next_logical = max(
                (extent.logical_end for extent in bad_tree.extents()),
                default=0,
            )
            bad_tree.insert(Extent(next_logical, old.pfn, old.count))
            self._counters.bump("ras_badblock_persisted")
        self._notify_extent_invalidators(record.ino, old.pfn, old.count)
        record.applied = True

    @staticmethod
    def _tree_claims(tree: ExtentTree, pfn: int) -> bool:
        # o1: allow(flow-bounded) -- badblock tree: one extent per frame
        return any(
            extent.pfn <= pfn < extent.pfn + extent.count
            for extent in tree.extents()
        )

    @complexity("n", note="repair path: scans file extents for the owner")
    def owner_of_block(self, pfn: int) -> Optional[Inode]:
        """The inode owning the allocated block at ``pfn``, if any."""
        owner_ino: Optional[int] = None
        for ino, tree in self._trees.items():
            if self._tree_claims(tree, pfn):
                owner_ino = ino
                break
        if owner_ino is None:
            return None
        # o1: allow(flow-bounded) -- one directory walk after the tree scan, within the declared n
        for _path, inode in self.iter_files():
            if inode.ino == owner_ino:
                return inode
        return None

    # ------------------------------------------------------------------
    # mmap integration
    # ------------------------------------------------------------------
    @property
    def mmap_setup_extra_ns(self) -> int:
        """Extra constant mmap cost: the DAX setup path (~7 us slower than
        tmpfs in the paper's student measurements: 15 us vs 8 us)."""
        return self._costs.dax_setup_ns if self.dax else 0

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    @complexity("n", note="one replay pass over the journal")
    def crash(self) -> None:
        """Power failure: replay the journal to a consistent state.

        Uncommitted records are *undone* (their bitmap allocations
        released); committed-but-unapplied records are *redone* (applied
        idempotently).  Records torn mid-commit (``corrupted``) cannot be
        trusted in either direction: replay skips them and a scrub pass
        frees any blocks they leaked, so replay stays idempotent even
        under journal corruption.  After recovery, :func:`fsck` holds.
        """
        san = self._counters.sanitize
        if san is not None:
            # Power was lost: volatile shadow state (translations, open
            # journal epochs) is gone before any replay runs.
            san.on_fs_crash(self)
        corrupted_seen = False
        for record in self.journal:
            self._clock.advance(self._costs.journal_record_ns // 2)
            self._counters.bump("journal_replay")
            if record.corrupted:
                # Torn record: extents/op may be garbage.  Don't undo or
                # redo from it; the scrub below reclaims what it leaked.
                corrupted_seen = True
                self._counters.bump("journal_corrupt_skipped")
                continue
            if record.applied:
                continue
            if not record.committed:
                if record.op in ("alloc", "migrate"):
                    # Undo: the extents were taken from the bitmap but
                    # never became part of any file.  (For migrate that
                    # is only the replacement block — the failing extent
                    # still holds the sole durable copy of the data.)
                    # o1: allow(flow-bounded) -- few extents per undone record
                    for extent in record.extents:
                        self.allocator.free_extent(extent)
                # Uncommitted frees/shrinks changed nothing durable.
                continue
            # Committed but not applied: redo.  The commit already made it
            # durable before the crash, so applying here is inside the
            # original transaction's fence.
            if record.op == "alloc":
                self._apply_alloc(record)  # o1: allow(persist-outside-txn, flow-persist-outside-txn, flow-bounded) -- committed redo; records partition the replay
            elif record.op == "shrink":
                self._apply_shrink(record)  # o1: allow(persist-outside-txn, flow-persist-outside-txn, flow-bounded) -- committed redo; records partition the replay
            elif record.op == "free":
                self._apply_free(record)  # o1: allow(persist-outside-txn, flow-persist-outside-txn, flow-bounded) -- committed redo; records partition the replay
            elif record.op == "migrate":
                self._apply_migrate(record)  # o1: allow(persist-outside-txn, flow-persist-outside-txn, flow-bounded) -- committed redo; records partition the replay
        self.journal.clear()
        if corrupted_seen:
            self._scrub()

    @complexity("n", note="one pass over the trees and the block bitmap")
    def _scrub(self) -> None:
        """Free allocated blocks owned by no file.

        After replay the extent trees are the only ground truth; any
        bitmap bit set outside them was leaked by a record recovery could
        not trust.  Bits are re-checked individually so scrubbing is safe
        to run (and re-run) against any bitmap state.
        """
        region = self.allocator._region
        bitmap = self.allocator._bitmap
        san = self._counters.sanitize
        scrubbed = 0
        mismatched = bitmap.mismatches(self._owned_bits())
        for index in mismatched:
            if not bitmap.test(index):
                continue  # owned but free: fsck's problem, not a leak
            if san is not None:
                # Leaked block reclaim, not a free of a live
                # allocation: skip the double-free check.
                san.on_nvm_free(
                    self.allocator, region.first_pfn + index, 1, check=False
                )
            bitmap.clear_range(index, 1)
            scrubbed += 1
        if scrubbed:
            self._clock.advance(self._costs.bitmap_run_ns * scrubbed)
            self._counters.bump("recovery_scrub_blocks", scrubbed)

    @complexity("n", note="one pass over the extents, one XOR over the bitmap")
    def _owned_bits(self) -> int:
        """Bitset over the allocator's region: bit ``i`` is set iff some
        file extent claims block ``first_pfn + i``.

        Claims below the region are clipped here; those past its end
        are ignored by :meth:`Bitmap.mismatches`.
        """
        first_pfn = self.allocator._region.first_pfn
        owned = 0
        for tree in self._trees.values():
            # o1: allow(flow-bounded) -- extents across all trees fit the declared n
            for extent in tree.extents():
                lo = max(extent.pfn - first_pfn, 0)
                hi = extent.pfn + extent.count - first_pfn
                if hi > lo:
                    owned |= (1 << (hi - lo)) - 1 << lo
        return owned

    def fsck(self) -> List[str]:
        """Consistency check: every allocated block belongs to exactly
        one file extent.  Returns human-readable problems (empty = clean).

        Double claims are found per extent: a sweep of the extents
        sorted by first block finds the runs that overlap, and only
        their blocks are visited one by one, in claim order (file, then
        extent, then block), so the messages come as a per-block check
        over every extent makes them.  A block the bitmap disagrees on
        is owned by its last claimer: the overlapping runs' per-block
        record, else a bisect over the sorted extents.
        """
        problems: List[str] = []
        # Every extent in claim order: (first block, end, ino).
        extents = [
            (extent.pfn, extent.pfn + extent.count, ino)
            for ino, tree in self._trees.items()
            for extent in tree.extents()
        ]
        ranked = sorted(range(len(extents)), key=lambda claim: extents[claim][0])
        overlapping: List[int] = []
        run: List[int] = []
        run_end = 0
        for claim in ranked:
            start, end, _ino = extents[claim]
            if run and start < run_end:
                run.append(claim)
                run_end = max(run_end, end)
                continue
            if len(run) > 1:
                overlapping.extend(run)
            run = [claim]
            run_end = end
        if len(run) > 1:
            overlapping.extend(run)
        claimed: Dict[int, int] = {}
        for claim in sorted(overlapping):
            start, end, ino = extents[claim]
            for pfn in range(start, end):
                if pfn in claimed:
                    problems.append(
                        f"block {pfn} claimed by ino {claimed[pfn]} "
                        f"and ino {ino}"
                    )
                claimed[pfn] = ino
        starts = [extents[claim][0] for claim in ranked]
        first_pfn = self.allocator._region.first_pfn
        for index in self.allocator._bitmap.mismatches(self._owned_bits()):
            pfn = first_pfn + index
            owner = claimed.get(pfn)
            if owner is None:
                # Outside the overlapping runs a covered block has one
                # claimer: the last extent starting at or below it.
                at = bisect.bisect_right(starts, pfn) - 1
                if at >= 0 and pfn < extents[ranked[at]][1]:
                    owner = extents[ranked[at]][2]
            if owner is not None:
                problems.append(
                    f"block {pfn} owned by ino {owner} but free in bitmap"
                )
            else:
                problems.append(f"block {pfn} allocated but owned by no file")
        return problems

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def extent_count(self, inode: Inode) -> int:
        """Extents backing ``inode`` (1 = perfectly contiguous)."""
        return self._tree_of(inode).extent_count

"""RAS policy engine: traps, graceful degradation, retirement, migration.

The engine is armed on a machine with ``kernel.arm_ras()``, lives in the
registry's one ``counters.ras`` slot (as the chaos engine and sanitizers
live in theirs), and is reached from the hot paths by reading that
attribute, so an unarmed machine pays one attribute read per site and
golden figures stay bit-identical.

Policy, in one paragraph: a load that consumes poison raises a
machine-check-style :class:`~repro.errors.MemoryPoisonError` from the
CPU; the kernel degrades gracefully — anonymous/private memory SIGBUS-
kills *only* the faulting process, file-backed NVM data is migrated off
the failing media and the access retried, transient media errors are
retried with bounded backoff charged on the simulated clock, and
file-API reads of dead blocks surface :class:`~repro.errors.MediaError`
(EIO).  A patrol scrubber walks a bounded batch of frames per
invocation and proactively retires failing ones; retired frames leave
the allocators permanently and NVM retirements land on a journaled,
PMFS-persisted badblock list that survives crash/recovery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.errors import MediaError, MemoryPoisonError, NoSpaceError
from repro.fs.pmfs import Pmfs
from repro.lint import complexity, o1
from repro.ras.model import FaultKind, MediaFaultModel
from repro.ras.scrub import PatrolScrubber
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fs.vfs import Inode
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process

#: Where the persisted badblock list lives in the PMFS namespace.
BADBLOCK_PATH = "/.badblocks"

#: DRAM retirements persist here as file *data* (fixed-width records),
#: not as adopted extents: adopting a DRAM pfn into the badblock file's
#: extent tree would claim an NVM block number that conservation audits
#: check against the NVM bitmap.
DRAM_BADBLOCK_PATH = "/.badblocks.dram"

#: Bytes per DRAM badblock record: ``pfn + 1`` big-endian, so a torn
#: tail (prefix of zeros, since sim pfns never reach 2**32) can never be
#: mistaken for a valid record.
_DRAM_RECORD_BYTES = 8


class RasEngine:
    """Reliability/availability/serviceability policy for one machine."""

    #: A transient fault still failing after this many media retries is
    #: escalated (trap on the CPU path, EIO on the file path).
    _MAX_MEDIA_RETRIES = 4

    def __init__(
        self,
        kernel: "Kernel",
        model: Optional[MediaFaultModel] = None,
        scrub_batch_frames: int = 64,
    ) -> None:
        self._kernel = kernel
        self._clock = kernel.clock
        self._costs = kernel.costs
        self._counters = kernel.counters
        self.model = model if model is not None else MediaFaultModel()
        if not self.model.spans():
            self.model.bind_dram(
                kernel.dram_region.first_pfn, kernel.dram_region.frame_count
            )
            if kernel.nvm_region is not None:
                self.model.bind_nvm(
                    kernel.nvm_region.first_pfn, kernel.nvm_region.frame_count
                )
        self.scrubber = PatrolScrubber(self, batch_frames=scrub_batch_frames)
        # A fresh engine on a recovered machine re-learns DRAM badblocks
        # from the persisted list before the allocator can reuse them.
        self._adopt_persisted_dram_badblocks()

    # ------------------------------------------------------------------
    # Armed-path hooks (reached through ``counters.ras``)
    # ------------------------------------------------------------------
    @o1(note="one dict probe; faulting frames charge their own repair paths")
    def check_access(self, paddr: int, write: bool) -> None:
        """CPU access hook: trap on poison, retry transient media errors.

        Raises :class:`MemoryPoisonError` for a load that consumes
        poison (sticky or dead).  A store to a sticky poisoned line
        overwrites — and thereby clears — the poison, as real hardware
        does.
        """
        pfn = paddr // PAGE_SIZE
        fault = self.model.probe(pfn)
        if fault is None:
            return
        if fault.kind is FaultKind.TRANSIENT:
            if self._retry_transient(pfn):
                return
            # Retries exhausted: the "transient" fault is behaving like a
            # hard one; escalate to the machine-check path.
        elif fault.kind is FaultKind.POISON and write:
            self.model.clear_poison(pfn)
            self._counters.bump("ras_poison_cleared")
            return
        self._counters.bump("ras_poison_trap")
        self._clock.advance(self._costs.fault_trap_ns)
        tracer = self._kernel.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant("ras_poison_trap", "ras", args={"pfn": pfn})
        raise MemoryPoisonError(
            f"machine check: {fault.kind.value} frame {pfn:#x} consumed "
            f"at paddr {paddr:#x}",
            pfn=pfn,
            paddr=paddr,
            write=write,
        )

    @o1(note="one dict probe per block; faulting blocks retry bounded")
    def on_file_block(self, inode: "Inode", pfn: int, write: bool) -> None:
        """File-API hook: one block of a read/write touched ``pfn``.

        Transient errors are retried with bounded, clock-charged backoff
        (reads and writes alike).  Reads of poisoned or dead blocks
        surface :class:`MediaError` — EIO through the VFS, the paper-
        world's equivalent of ``read()`` returning -EIO.  A write to a
        sticky poisoned line clears it.
        """
        fault = self.model.probe(pfn)
        if fault is None:
            return
        if fault.kind is FaultKind.TRANSIENT:
            if self._retry_transient(pfn):
                return
        elif fault.kind is FaultKind.POISON and write:
            self.model.clear_poison(pfn)
            self._counters.bump("ras_poison_cleared")
            return
        self._counters.bump("ras_read_eio")
        raise MediaError(
            f"EIO: {fault.kind.value} media at block {pfn:#x} "
            f"(ino {inode.ino})",
            pfn=pfn,
        )

    @o1(note="retry budget is a small constant")
    def _retry_transient(self, pfn: int) -> bool:
        """Bounded retry-with-backoff on the simulated clock.

        Returns True once an attempt succeeds, False when the retry
        budget is exhausted.
        """
        attempt = 0
        # o1: allow(flow-bounded) -- bounded by _MAX_MEDIA_RETRIES
        while attempt < self._MAX_MEDIA_RETRIES:
            if not self.model.transient_fails(pfn, attempt):
                return True
            # Linear backoff, charged where the waiting happens.
            self._clock.advance(self._costs.ras_backoff_ns * (attempt + 1))
            self._counters.bump("ras_io_retry")
            attempt += 1
        return not self.model.transient_fails(pfn, attempt)

    # ------------------------------------------------------------------
    # Degradation policy — called by the kernel on a poison trap
    # ------------------------------------------------------------------
    @o1(note="policy dispatch; the repair itself charges its own paths")
    def handle_poison(
        self, process: "Process", vaddr: int, write: bool, exc: MemoryPoisonError
    ) -> bool:
        """Degrade gracefully after a poison trap.

        Returns True when the access can be retried (file-backed data
        was migrated off the failing media); False after SIGBUS-killing
        the faulting process (anonymous/private memory has no other
        copy).
        """
        pfn = exc.pfn
        pmfs = self._kernel.pmfs
        vma = process.space.find_vma(vaddr)
        if vma is not None and pmfs is not None and pfn is not None:
            inode = vma.backing.inode
            is_private_copy = pfn in set(vma.private_copies.values())
            if inode is not None and inode.fs is pmfs and not is_private_copy:
                # File-backed NVM: the file system owns a durable home
                # for the data — migrate it off the failing media, then
                # let the caller re-fault onto the fresh frame.
                # o1: allow(flow-bounded) -- media repair is the rare slow path, not the retried access
                if self.retire_frame(pfn):
                    return True
        return self._sigbus(process, pfn)

    @o1(note="fatal path: the kill tears down at most one process")
    def _sigbus(self, process: "Process", pfn: Optional[int]) -> bool:
        """Kill only the faulting process; quarantine its bad frame."""
        self._counters.bump("ras_sigbus_kill")
        tracer = self._kernel.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant(
                "ras_sigbus", "ras", pid=process.pid, args={"pfn": pfn}
            )
        if process.alive:
            # o1: allow(flow-bounded) -- one-time teardown of the killed process's mappings
            process.exit()
        self._kernel.processes.pop(process.pid, None)
        if pfn is not None:
            # The exit released the process's frames; the bad one must
            # never be handed out again.  A frame still shared with
            # another live process stays busy — the patrol scrubber
            # retires it once the last user exits.
            # o1: allow(flow-bounded) -- media repair slow path after a fatal kill
            self.retire_frame(pfn)
        return False

    # ------------------------------------------------------------------
    # Patrol scrubbing — called per frame by the PatrolScrubber
    # ------------------------------------------------------------------
    @o1(note="one probe; clearing/retirement charge their own paths")
    def scrub_frame(self, pfn: int) -> None:
        """Patrol-probe one frame: clear correctable poison, retire dead.

        Transient faults are tolerated (the demand path's bounded retry
        handles them); sticky poison is corrected in place by a patrol
        write-back; permanently dead frames are retired.  A busy DRAM
        frame that cannot be retired yet is skipped and counted — the
        wrapping cursor revisits it on a later pass.
        """
        self._clock.advance(self._costs.ras_probe_ns)
        self._counters.bump("ras_scrub_frame")
        fault = self.model.probe(pfn)
        if fault is None or fault.kind is FaultKind.TRANSIENT:
            return
        if fault.kind is FaultKind.POISON:
            self._clock.advance(
                self._costs.nvm_write_ns
                if not self._in_dram(pfn)
                else self._costs.dram_write_ns
            )
            self.model.clear_poison(pfn)
            self._counters.bump("ras_poison_cleared")
            return
        # o1: allow(flow-bounded) -- retirement is the rare repair path; probes stay O(1)
        if not self.retire_frame(pfn):
            self._counters.bump("ras_scrub_busy")

    # ------------------------------------------------------------------
    # Retirement — frames leave service permanently
    # ------------------------------------------------------------------
    @complexity(
        "n", note="NVM repair may migrate one block and sweep the file's mappings"
    )
    def retire_frame(self, pfn: int) -> bool:
        """Retire one frame; False when it must wait (busy DRAM frame)."""
        chaos = self._counters.chaos
        if chaos is not None:
            chaos.hit("ras.retire.frame")
        if self._in_dram(pfn):
            done = self._retire_dram(pfn)
        else:
            done = self._retire_nvm(pfn)
        if done:
            self._clock.advance(self._costs.ras_retire_ns)
            self._counters.bump("ras_frame_retired")
            self.model.retire(pfn)
            tracer = self._kernel.tracer
            if tracer is not None and tracer.enabled:
                tracer.instant("ras_frame_retired", "ras", args={"pfn": pfn})
        return done

    def _in_dram(self, pfn: int) -> bool:
        region = self._kernel.dram_region
        return region.first_pfn <= pfn < region.first_pfn + region.frame_count

    @complexity("log n", note="one buddy retirement plus one record append")
    def _retire_dram(self, pfn: int) -> bool:
        if not self._kernel.dram_buddy.retire(pfn):
            return False
        # o1: allow(flow-bounded) -- one 8-byte record append; path depth, not frame count
        self._persist_dram_badblock(pfn)
        return True

    @complexity("n", note="one fixed-width append through the file API")
    def _persist_dram_badblock(self, pfn: int) -> None:
        """Append one record to the DRAM badblock file.

        DRAM retirement state is otherwise volatile (the buddy's retired
        set dies with the power); the record is what lets a rebooted
        machine keep the frame out of service.  Torn appends leave an
        all-zero prefix chunk that the loader skips.
        """
        pmfs = self._kernel.pmfs
        if pmfs is None:
            return  # no durable home; retirement lasts until power-off
        chaos = self._counters.chaos
        if chaos is not None:
            chaos.hit("ras.badblock.persist")
        inode = self.dram_badblock_inode()
        record = (pfn + 1).to_bytes(_DRAM_RECORD_BYTES, "big")
        with pmfs.open_inode(inode) as handle:
            handle.pwrite(inode.size, record)
        self._counters.bump("ras_badblock_persisted")

    @complexity("n", note="arming-time sweep of the persisted record file")
    def _adopt_persisted_dram_badblocks(self) -> None:
        """Re-retire every persisted DRAM badblock into the buddy.

        Runs once at arming time.  Idempotent: frames the buddy already
        holds retired (same boot, or duplicate records from a crash
        between buddy retirement and record append) adopt as no-ops.
        """
        # o1: allow(flow-bounded) -- cold arming sweep, one visit per persisted record
        for pfn in sorted(self.dram_badblock_pfns()):
            if self._kernel.dram_buddy.retire(pfn):
                self._counters.bump("ras_dram_badblock_adopted")
            self.model.retire(pfn)

    @complexity("n", note="badblock adoption or one-block migration + mapping sweep")
    def _retire_nvm(self, pfn: int) -> bool:
        pmfs = self._kernel.pmfs
        if pmfs is None:
            return False
        badblocks = self.badblock_inode()
        if pmfs.allocator.block_is_free(pfn):
            chaos = self._counters.chaos
            if chaos is not None:
                chaos.hit("ras.badblock.persist")
            try:
                pmfs.adopt_badblock(badblocks, pfn)
            except NoSpaceError:
                return False
            san = self._counters.sanitize
            if san is not None:
                san.on_nvm_retired(pmfs.allocator, pfn, 1)
            return True
        owner = pmfs.owner_of_block(pfn)
        if owner is None:
            return False
        if owner.ino == badblocks.ino:
            return True  # already quarantined on the badblock list
        new_pfn = pmfs.migrate_block(owner, pfn, badblocks)
        self._invalidate_translations(owner, pfn, 1)
        san = self._counters.sanitize
        if san is not None:
            san.on_nvm_retired(pmfs.allocator, pfn, 1)
        self._counters.bump("ras_extent_migrated")
        tracer = self._kernel.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant(
                "ras_extent_migrated",
                "ras",
                args={"ino": owner.ino, "old_pfn": pfn, "new_pfn": new_pfn},
            )
        return True

    @complexity("n", note="repair path: per resident PTE of mappings of the file")
    def _invalidate_translations(
        self, inode: "Inode", first_pfn: int, count: int
    ) -> None:
        """Tear down every translation into the vacated frames.

        Migration moved the data; any PTE, TLB entry, premapped subtree
        or PBM window still translating to the old frames would read
        stale media.  Per-process PTE teardown plus one ranged TLB
        shootdown per affected VMA; the premap/PBM caches are dropped by
        the PMFS extent-invalidation callbacks at apply time.
        """
        end_pfn = first_pfn + count
        # o1: allow(flow-bounded) -- process-table sweep; migration is the slow path
        for process in self._kernel.processes.values():
            space = process.space
            # o1: allow(flow-bounded) -- migration is the slow path
            for vma in space.vmas:
                if vma.backing.inode is not inode:
                    continue
                dropped = False
                # o1: allow(flow-bounded) -- per-PTE teardown sweep
                for page_va, pte in list(space.page_table.iter_leaves()):
                    if not vma.start <= page_va < vma.end:
                        continue
                    pte_first = pte.paddr // PAGE_SIZE
                    pte_end = (pte.paddr + pte.page_size) // PAGE_SIZE
                    if pte_first < end_pfn and first_pfn < pte_end:
                        space.page_table.unmap(
                            page_va, page_size=pte.page_size
                        )
                        dropped = True
                if dropped:
                    self._kernel.cpu.invalidate_space_range(
                        vma.start, vma.length, asid=space.asid
                    )

    # ------------------------------------------------------------------
    # Badblock list — PMFS-persisted, journaled, survives crashes
    # ------------------------------------------------------------------
    @complexity("n", note="one path lookup (or first-time create) of the badblock file")
    def badblock_inode(self) -> "Inode":
        """The badblock list file, created on first retirement."""
        pmfs = self._kernel.pmfs
        assert pmfs is not None
        if pmfs.exists(BADBLOCK_PATH):
            return pmfs.lookup(BADBLOCK_PATH)
        inode = pmfs.create(BADBLOCK_PATH, size=0)
        inode.persistent = True
        return inode

    def badblock_pfns(self) -> frozenset:
        """Frames on the persisted badblock list (ground truth: PMFS)."""
        pmfs = self._kernel.pmfs
        if pmfs is None or not pmfs.exists(BADBLOCK_PATH):
            return frozenset()
        tree = pmfs._tree_of(pmfs.lookup(BADBLOCK_PATH))
        return frozenset(
            pfn
            for extent in tree.extents()
            for pfn in range(extent.pfn, extent.pfn + extent.count)
        )

    @complexity("n", note="one path lookup (or first-time create) of the record file")
    def dram_badblock_inode(self) -> "Inode":
        """The DRAM badblock record file, created on first retirement."""
        pmfs = self._kernel.pmfs
        assert pmfs is not None
        if pmfs.exists(DRAM_BADBLOCK_PATH):
            return pmfs.lookup(DRAM_BADBLOCK_PATH)
        inode = pmfs.create(DRAM_BADBLOCK_PATH, size=0)
        inode.persistent = True
        return inode

    @complexity("n", note="one visit per persisted record")
    def dram_badblock_pfns(self) -> frozenset:
        """DRAM frames on the persisted record list (ground truth: PMFS).

        All-zero chunks — the residue of an append torn by a power cut —
        are not records and are skipped.
        """
        pmfs = self._kernel.pmfs
        if pmfs is None or not pmfs.exists(DRAM_BADBLOCK_PATH):
            return frozenset()
        inode = pmfs.lookup(DRAM_BADBLOCK_PATH)
        with pmfs.open_inode(inode) as handle:
            raw = handle.pread(0, inode.size)
        pfns = set()
        for start in range(0, len(raw) - len(raw) % _DRAM_RECORD_BYTES, _DRAM_RECORD_BYTES):
            value = int.from_bytes(raw[start : start + _DRAM_RECORD_BYTES], "big")
            if value:
                pfns.add(value - 1)
        return frozenset(pfns)

    # ------------------------------------------------------------------
    # Oracle + report
    # ------------------------------------------------------------------
    def audit(self) -> List[str]:
        """RAS invariants; non-empty list = problems (the sweep oracle).

        Every permanently failed (DEAD) frame must end up retired, and
        every retired NVM frame must be on the persisted badblock list.
        """
        problems: List[str] = []
        for fault in self.model.faults():
            if fault.kind is FaultKind.DEAD:
                problems.append(
                    f"dead frame {fault.pfn:#x} is still in service"
                )
        persisted = self.badblock_pfns()
        persisted_dram = self.dram_badblock_pfns()
        has_pmfs = self._kernel.pmfs is not None
        for pfn in sorted(self.model.retired):
            if self._in_dram(pfn):
                if has_pmfs and pfn not in persisted_dram:
                    problems.append(
                        f"retired DRAM frame {pfn:#x} missing from the "
                        f"persisted DRAM badblock records"
                    )
            elif pfn not in persisted:
                problems.append(
                    f"retired NVM frame {pfn:#x} missing from the "
                    f"persisted badblock list"
                )
        return problems

    def report(self) -> dict:
        """Machine-readable state for the CLI's ``--json``."""
        return {
            "seed": self.model.seed,
            "active_faults": [
                {
                    "pfn": fault.pfn,
                    "kind": fault.kind.value,
                    "fail_count": fault.fail_count,
                }
                for fault in self.model.faults()
            ],
            "retired": sorted(self.model.retired),
            "badblock_pfns": sorted(self.badblock_pfns()),
            "dram_badblock_pfns": sorted(self.dram_badblock_pfns()),
            "problems": self.audit(),
        }

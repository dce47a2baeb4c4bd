"""The armable sanitizer suite: hook dispatch, arming, and reporting.

``SanitizerSuite`` is the single object the machine sees.  Arming
mirrors the chaos engine: ``kernel.arm_sanitizers(suite)`` binds the
suite to the kernel's counters registry and stores it in that
registry's one ``sanitize`` slot, which every instrumented hot path
reads as a plain attribute::

    san = self._counters.sanitize
    if san is not None:
        san.on_frame_free(self, pfn)

Unarmed cost is that one attribute read — no simulated-clock charge,
no counter bump — so every ``@o1`` declaration holds with sanitizers
compiled out of the picture.  Armed, the hooks maintain pure-Python
shadow state and never touch the simulated clock either: a fully
armed run produces bit-identical simulated timings (the golden-figure
tier enforces this).

Violations are surfaced three ways at once: collected on
``suite.violations``, counted as the ``sanitize_violation`` event plus
a typed obs trace instant, and — in halt mode (the default) — raised
immediately as :class:`~repro.sanitize.violations.SanitizerError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.lint.decorators import o1
from repro.obs.metrics import MetricsRegistry
from repro.sanitize.framesan import FrameSan
from repro.sanitize.persistsan import PersistSan
from repro.sanitize.transsan import TransSan
from repro.sanitize.violations import SanitizerError, SanitizerViolation
from repro.units import PAGE_SIZE

#: All detector names, in report order.
DETECTORS: Tuple[str, ...] = ("trans", "frame", "persist")


class SanitizerSuite:
    """Shadow-state sanitizers for the simulated machine."""

    def __init__(
        self,
        detectors: Sequence[str] = DETECTORS,
        halt: bool = True,
    ) -> None:
        unknown = set(detectors) - set(DETECTORS)
        if unknown:
            raise ValueError(
                f"unknown detector(s) {sorted(unknown)}; valid: {list(DETECTORS)}"
            )
        if not detectors:
            raise ValueError("at least one detector must be armed")
        self.detectors: Tuple[str, ...] = tuple(d for d in DETECTORS if d in set(detectors))
        self.halt = halt
        self.violations: List[SanitizerViolation] = []
        self.checks: Dict[str, int] = {}
        #: Its own registry until :meth:`bind` hands it the kernel's.
        self._counters = MetricsRegistry()
        self._trans: Optional[TransSan] = (
            TransSan(self._make_report("trans")) if "trans" in self.detectors else None
        )
        self._frame: Optional[FrameSan] = (
            FrameSan(self._make_report("frame")) if "frame" in self.detectors else None
        )
        self._persist: Optional[PersistSan] = (
            PersistSan(self._make_report("persist")) if "persist" in self.detectors else None
        )

    # ------------------------------------------------------------------
    # Arming / violation sink
    # ------------------------------------------------------------------
    def bind(self, counters: MetricsRegistry) -> None:
        """Attach to a kernel's counters registry (called by arm_sanitizers)."""
        self._counters = counters

    def _make_report(self, detector: str) -> Any:
        def report(kind: str, message: str, details: Dict[str, Any]) -> None:
            self._violate(detector, kind, message, details)

        return report

    def _violate(
        self, detector: str, kind: str, message: str, details: Dict[str, Any]
    ) -> None:
        violation = SanitizerViolation(
            detector=detector, kind=kind, message=message, details=details
        )
        self.violations.append(violation)
        self._counters.bump("sanitize_violation")
        tracer = self._counters.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant(
                "sanitize_violation",
                "kernel",
                args={"detector": detector, "kind": kind, "message": message},
            )
        if self.halt:
            raise SanitizerError(violation.format())

    def _count(self, check: str) -> None:
        self.checks[check] = self.checks.get(check, 0) + 1

    # ------------------------------------------------------------------
    # TransSan hooks (paging / hw / pbm)
    # ------------------------------------------------------------------
    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_pte_map(self, pte: Any) -> None:
        """A PTE was installed in some page table (incl. donor tables)."""
        if self._trans is not None:
            # o1: allow(flow-bounded) -- shadow refcount walk; audit work is off the charged path
            self._trans.register_pte(pte)

    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_pte_unmap(self, pte: Any) -> None:
        """A PTE was removed."""
        if self._trans is not None:
            # o1: allow(flow-bounded) -- shadow refcount walk; audit work is off the charged path
            self._trans.unregister_pte(pte)

    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_subtree_dead(self, node: Any) -> None:
        """A shared subtree's last reference was unlinked."""
        if self._trans is not None:
            # o1: allow(flow-bounded) -- shadow teardown of a dead subtree; audit work is off the charged path
            self._trans.unregister_subtree(node)

    def check_tlb_hit(self, space: Any, vaddr: int, entry: Any, write: bool) -> None:
        """Validate a page-TLB hit against the page table."""
        if self._trans is not None:
            self._count("tlb_hit")
            self._trans.check_tlb_hit(space, vaddr, entry, write)

    def check_rtlb_hit(self, space: Any, vaddr: int, entry: Any, write: bool) -> None:
        """Validate a range-TLB hit against the range table."""
        if self._trans is not None:
            self._count("rtlb_hit")
            self._trans.check_rtlb_hit(space, vaddr, entry, write)

    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_pbm_claim(self, ino: int, first_frame: int, frame_count: int) -> None:
        """A PBM mapping claimed a physical extent for ``ino``."""
        if self._trans is not None:
            self._count("pbm_claim")
            # o1: allow(flow-bounded) -- shadow claim walk; audit work is off the charged path
            self._trans.claim_frames(ino, first_frame, frame_count)

    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_pbm_release(self, ino: int, first_frame: int, frame_count: int) -> None:
        """A PBM mapping released a physical extent."""
        if self._trans is not None:
            # o1: allow(flow-bounded) -- shadow release walk; audit work is off the charged path
            self._trans.release_frames(ino, first_frame, frame_count)

    # ------------------------------------------------------------------
    # FrameSan hooks (mem / zeroing / cpu)
    # ------------------------------------------------------------------
    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_frame_alloc(self, allocator: Any, pfn: int, order: int) -> None:
        """The buddy allocator handed out a block."""
        if self._frame is not None:
            self._frame.on_dram_alloc(allocator, pfn, order)

    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_frame_free(self, allocator: Any, pfn: int) -> None:
        """The buddy allocator is freeing a block."""
        if self._frame is not None:
            self._count("dram_free")
            self._frame.on_dram_free(allocator, pfn)
        if self._trans is not None:
            order = allocator._allocated.get(pfn)
            frames = 1 << order if order is not None else 1
            # o1: allow(flow-bounded) -- dangling-translation audit; off the charged path
            self._trans.check_frames_freed(pfn, frames, "buddy")

    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_nvm_alloc(self, allocator: Any, first_block: int, block_count: int) -> None:
        """The PMFS block allocator carved out an extent."""
        if self._frame is not None:
            self._frame.on_nvm_alloc(allocator, first_block, block_count)

    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_nvm_free(
        self,
        allocator: Any,
        first_block: int,
        block_count: int,
        check: bool = True,
    ) -> None:
        """The PMFS block allocator released an extent.

        ``check=False`` marks fsck's leak scrub, which reclaims blocks
        the bitmap holds without an extent-tree owner — not a free of a
        live allocation, so the double-free check is skipped.
        """
        if self._frame is not None:
            self._count("nvm_free")
            self._frame.on_nvm_free(allocator, first_block, block_count, check)
        if self._trans is not None and check:
            # o1: allow(flow-bounded) -- dangling-translation audit; off the charged path
            self._trans.check_frames_freed(first_block, block_count, "pmfs")

    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_frame_access(self, paddr: int) -> None:
        """A CPU data access resolved to ``paddr``."""
        if self._frame is not None:
            self._count("frame_access")
            self._frame.check_access(paddr)

    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_frames_tainted(self, frames: Sequence[int]) -> None:
        """These frames now hold non-zero (or unrecoverable) contents."""
        if self._frame is not None:
            self._frame.taint(frames)

    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_frames_zeroed(self, frames: Sequence[int]) -> None:
        """These frames were zeroed."""
        if self._frame is not None:
            self._frame.untaint(frames)

    def on_zeropool_take(self, pfn: int) -> None:
        """The zero pool's pre-zeroed fast path handed out ``pfn``."""
        if self._frame is not None:
            self._count("zeropool_take")
            self._frame.check_zeroed_handout(pfn)

    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_frame_retired(self, allocator: Any, pfn: int) -> None:
        """RAS permanently retired a DRAM frame from the buddy allocator.

        Retirement implies the frame left service: any page-table entry
        still translating to it is a dangling translation (a migration
        or kill path forgot its TLB/PTE teardown).
        """
        if self._frame is not None:
            self._count("frame_retired")
            self._frame.on_dram_retired(allocator, pfn)
        if self._trans is not None:
            # o1: allow(flow-bounded) -- single-frame dangling-translation audit; off the charged path
            self._trans.check_frames_freed(pfn, 1, "ras")

    @o1(note="clock-neutral shadow audit, compiled out when unarmed")
    def on_nvm_retired(self, allocator: Any, first_block: int, block_count: int) -> None:
        """RAS retired NVM blocks onto the persisted badblock list."""
        if self._frame is not None:
            self._count("nvm_retired")
            # o1: allow(flow-bounded) -- shadow ledger walk; audit work is off the charged path
            self._frame.on_nvm_retired(allocator, first_block, block_count)
        if self._trans is not None:
            # o1: allow(flow-bounded) -- dangling-translation audit; off the charged path
            self._trans.check_frames_freed(first_block, block_count, "ras")

    # ------------------------------------------------------------------
    # PersistSan hooks (fs)
    # ------------------------------------------------------------------
    def on_journal_begin(self, fs: Any, record: Any) -> None:
        """A journal record was appended."""
        if self._persist is not None:
            self._persist.on_begin(record)

    def on_journal_commit(self, fs: Any, record: Any) -> None:
        """A journal record's commit write completed."""
        if self._persist is not None:
            self._persist.on_commit(record)

    def on_journal_abort(self, fs: Any, record: Any) -> None:
        """A journaled transaction failed before its commit."""
        if self._persist is not None:
            self._persist.on_abort(record)

    def on_journal_apply(self, fs: Any, record: Any) -> None:
        """A journaled mutation is being applied to the FS structures."""
        if self._persist is not None:
            self._count("journal_apply")
            self._persist.check_apply(record)

    def on_data_visible(self, inode: Any) -> None:
        """File data is being stored through the VFS write path."""
        if self._persist is not None:
            self._count("data_visible")
            self._persist.check_data_visible(inode)

    # ------------------------------------------------------------------
    # Crash lifecycle
    # ------------------------------------------------------------------
    def on_machine_crash(self) -> None:
        """Power failure: volatile shadow state (translations, epochs) dies."""
        if self._trans is not None:
            self._trans.reset()
        if self._persist is not None:
            self._persist.reset()

    def on_fs_crash(self, fs: Any) -> None:
        """PMFS-level crash/replay (also reached via machine crash)."""
        self.on_machine_crash()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """Machine-readable summary (the ``sanitize_report.json`` payload)."""
        shadow: Dict[str, Any] = {}
        if self._trans is not None:
            shadow["trans"] = self._trans.stats()
        if self._frame is not None:
            shadow["frame"] = self._frame.stats()
        if self._persist is not None:
            shadow["persist"] = self._persist.stats()
        return {
            "version": 1,
            "tool": "repro-o1 sanitize",
            "armed_detectors": list(self.detectors),
            "halt": self.halt,
            "violation_count": len(self.violations),
            "violations": [v.to_dict() for v in self.violations],
            "checks": dict(sorted(self.checks.items())),
            "shadow": shadow,
            "page_size": PAGE_SIZE,
        }

    def write_report(self, path: Path) -> None:
        """Write :meth:`report` as JSON to ``path``."""
        path.write_text(json.dumps(self.report(), indent=2) + "\n")

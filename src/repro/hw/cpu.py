"""Simulated CPU front-end: the path every memory access takes.

:meth:`Cpu.access` models what an x86-64 core does on a load or store:

1. probe the range TLB (if the machine has range-translation hardware);
2. probe the page TLB;
3. on miss, walk the current address space's page tables (the walk itself
   issues memory references that are priced through the cache model);
4. if no valid translation exists — or a store hits a read-only mapping —
   raise a fault to the operating system, which resolves it and the access
   retries.

The CPU knows nothing about VMAs, files or processes; it talks to an
abstract :class:`TranslationContext` so the vm/kernel layers above can plug
in without circular imports.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.errors import ProtectionError
from repro.hw.cache import CacheModel
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.hw.rtlb import RangeEntry, RangeTlb
from repro.hw.tlb import Tlb, TlbEntry
from repro.lint.decorators import allocbound, allocfree, complexity, o1
from repro.obs.metrics import MetricsRegistry
from repro.units import CACHE_LINE


@runtime_checkable
class TranslationContext(Protocol):
    """What the CPU needs from an address space.

    Implemented by :class:`repro.vm.addrspace.AddressSpace`.  All three
    methods charge their own simulated costs through the shared clock.
    """

    @property
    def asid(self) -> int:
        """Address-space identifier used to tag TLB entries."""
        ...

    def walk(self, vaddr: int) -> Optional[TlbEntry]:
        """Hardware page-table walk; None if no valid translation."""
        ...

    def lookup_range(self, vaddr: int) -> Optional[RangeEntry]:
        """Architectural range-table lookup; None if absent/uncovered."""
        ...

    def handle_fault(self, vaddr: int, write: bool) -> None:
        """OS fault handler: establish a translation or raise ProtectionError."""
        ...


class Cpu:
    """One simulated core with private TLBs and a shared cache hierarchy."""

    #: A fault handler that fails to establish a translation after this
    #: many retries indicates a simulator bug, not a workload property.
    _MAX_FAULT_RETRIES = 4

    def __init__(
        self,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
        cache: CacheModel,
        tlb: Optional[Tlb] = None,
        rtlb: Optional[RangeTlb] = None,
    ) -> None:
        self._clock = clock
        self._costs = costs
        self._counters = counters
        self._cache = cache
        self._tlb = tlb if tlb is not None else Tlb()
        #: None means the machine has no range-translation hardware.
        self._rtlb = rtlb
        #: Other cores that may cache this machine's translations; every
        #: invalidation broadcast pays one IPI round trip per remote core
        #: (batched per operation, as Linux's flush_tlb_mm_range is).
        self.remote_cpus = 0

    @property
    def tlb(self) -> Tlb:
        """This core's page TLB."""
        return self._tlb

    @property
    def rtlb(self) -> Optional[RangeTlb]:
        """This core's range TLB, or None if absent."""
        return self._rtlb

    @property
    def cache(self) -> CacheModel:
        """The cache hierarchy this core prices references through."""
        return self._cache

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    @o1(note="TLB hit or one fault round-trip; the retry cap is a constant")
    @allocfree(note="the hit path constructs nothing; the fault world is cold")
    def access(self, space: TranslationContext, vaddr: int, write: bool = False) -> int:
        """Perform one 1-line memory access at ``vaddr``.

        Returns the physical address accessed.  Raises
        :class:`~repro.errors.ProtectionError` if the OS cannot resolve a
        fault on this address.
        """
        if vaddr < 0:
            raise ProtectionError(f"negative virtual address {vaddr:#x}")
        paddr = self._translate(space, vaddr, write)
        if paddr is not None:
            return self._finish_access(paddr, write)
        # alloc: allow(cold-call) -- fault path; the trap world charges itself
        return self._access_fault(space, vaddr, write)

    @o1(note="bounded fault retry; every charge lives in the round-trip helper")
    @allocbound(1, note="fault world: handler-side state is charged to the OS path")
    def _access_fault(self, space: TranslationContext, vaddr: int, write: bool) -> int:
        """Slow path, entered after one failed translation.

        The charge sequence is identical to the pre-split retry loop:
        success after ``k`` faults costs ``k + 1`` translations and ``k``
        round trips; exhaustion costs ``_MAX_FAULT_RETRIES`` of each.
        """
        # o1: allow(flow-bounded) -- fault retries capped at _MAX_FAULT_RETRIES
        for _ in range(self._MAX_FAULT_RETRIES - 1):
            self._fault_round_trip(space, vaddr, write)
            paddr = self._translate(space, vaddr, write)
            if paddr is not None:
                return self._finish_access(paddr, write)
        self._fault_round_trip(space, vaddr, write)
        raise ProtectionError(
            f"fault handler failed to map {vaddr:#x} after "
            f"{self._MAX_FAULT_RETRIES} retries"
        )

    @o1(note="one trap, one handler invocation, one return — fixed charges")
    @allocbound(2, note="the OS handler may build bounded per-fault state")
    def _fault_round_trip(
        self, space: TranslationContext, vaddr: int, write: bool
    ) -> None:
        """One fault trap: enter the OS, resolve (or not), return."""
        self._clock.advance(self._costs.fault_trap_ns)
        self._counters.bump("fault_trap")
        space.handle_fault(vaddr, write)
        self._clock.advance(self._costs.fault_return_ns)

    @o1(note="hook checks plus one cache reference")
    @allocfree(note="sanitizer/RAS worlds are cold; the reference is shape-free")
    def _finish_access(self, paddr: int, write: bool) -> int:
        """Post-translation tail: hooks, then the data reference itself."""
        san = self._counters.sanitize
        if san is not None:
            # alloc: allow(cold-call) -- sanitized runs only
            san.on_frame_access(paddr)
        ras = self._counters.ras
        if ras is not None:
            # Media check: retries transient errors on the simulated
            # clock; consuming poison raises the machine-check trap.
            # (The untyped handle keeps this edge out of the certified
            # closure; RAS-armed runs pay for their own checks.)
            ras.check_access(paddr, write=write)
        self._cache.reference(paddr, write=write)
        return paddr

    @complexity("n", note="one access per stride step across the range")
    @allocbound(1, note="one range object for the stride walk")
    def access_range(
        self,
        space: TranslationContext,
        vaddr: int,
        size: int,
        write: bool = False,
        stride: int = CACHE_LINE,
    ) -> None:
        """Access every ``stride``-th byte of ``[vaddr, vaddr + size)``.

        ``stride=CACHE_LINE`` models a streaming read/write of the region;
        a page-sized stride models the paper's "touch one byte per page".
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        for offset in range(0, size, stride):
            self.access(space, vaddr + offset, write=write)

    # ------------------------------------------------------------------
    # Translation machinery
    # ------------------------------------------------------------------
    @allocfree(note="probe-and-bump only; miss-path fills are cold")
    def _translate(
        self, space: TranslationContext, vaddr: int, write: bool
    ) -> Optional[int]:
        """Translate without accessing data; None means 'must fault'."""
        self._clock.advance(self._costs.tlb_lookup_ns)
        asid = space.asid

        if self._rtlb is not None:
            entry = self._rtlb.lookup(vaddr, asid=asid)
            if entry is not None:
                if write and not entry.writable:
                    return None
                self._counters.bump("rtlb_hit")
                san = self._counters.sanitize
                if san is not None:
                    san.check_rtlb_hit(space, vaddr, entry, write)
                return entry.translate(vaddr)
            # Range-TLB miss: consult the architectural range table before
            # falling back to paging, as the range hardware would.
            range_entry = space.lookup_range(vaddr)
            if range_entry is not None:
                self._counters.bump("rtlb_miss")
                self._clock.advance(self._costs.rtlb_fill_ns)
                # alloc: allow(cold-call) -- miss fill; the hit certificate excludes refills
                self._rtlb.insert(range_entry)
                if write and not range_entry.writable:
                    return None
                return range_entry.translate(vaddr)

        entry = self._tlb.lookup(vaddr, asid=asid)
        if entry is not None:
            self._counters.bump("tlb_hit")
            if write and not entry.writable:
                # Permission fault (e.g. COW): drop the stale entry so the
                # retry after the OS upgrades the PTE re-walks.
                self._tlb.invalidate(vaddr, asid=asid)
                return None
            san = self._counters.sanitize
            if san is not None:
                san.check_tlb_hit(space, vaddr, entry, write)
            page_size = entry.page_size
            return entry.pfn * page_size + vaddr % page_size

        self._counters.bump("tlb_miss")
        walked = space.walk(vaddr)
        if walked is None:
            return None
        if write and not walked.writable:
            return None
        self._clock.advance(self._costs.tlb_fill_ns)
        # alloc: allow(cold-call) -- miss fill; the hit certificate excludes refills
        self._tlb.insert(walked)
        page_size = walked.page_size
        return walked.pfn * page_size + vaddr % page_size

    # ------------------------------------------------------------------
    # TLB maintenance entry points used by the OS
    # ------------------------------------------------------------------
    @o1(note="one IPI broadcast; the retry cap is a constant")
    def _broadcast_shootdown(self, attempts: int = 4) -> None:
        if self.remote_cpus <= 0:
            return
        chaos = self._counters.chaos
        # o1: allow(flow-bounded) -- broadcast retries capped at `attempts`
        for _attempt in range(attempts):
            if chaos is not None and chaos.hit("cpu.shootdown") == "error":
                # Interrupted broadcast: part of the IPI fan-out went out
                # (charge roughly half) but not every core acked, so the
                # whole broadcast must be re-issued — remote TLBs may
                # still hold the stale translation.
                self._clock.advance(
                    self._costs.tlb_shootdown_ipi_ns
                    * max(1, self.remote_cpus // 2)
                )
                self._counters.bump("tlb_shootdown_retry")
                continue
            self._clock.advance(
                self._costs.tlb_shootdown_ipi_ns * self.remote_cpus
            )
            self._counters.bump("tlb_shootdown_ipi", self.remote_cpus)
            return
        raise RuntimeError(
            f"TLB shootdown failed {attempts} times; remote TLBs stale"
        )

    def invalidate_page(self, vaddr: int, asid: int = 0) -> None:
        """invlpg: drop one translation, charging the invalidate cost."""
        dropped = self._tlb.invalidate(vaddr, asid=asid)
        if dropped:
            self._clock.advance(self._costs.tlb_invalidate_ns * dropped)
        if self.remote_cpus > 0:
            self._broadcast_shootdown()

    @o1(note="one range drop plus one broadcast, however large the range")
    def invalidate_space_range(self, vaddr: int, length: int, asid: int = 0) -> None:
        """Drop all translations overlapping a virtual range.

        One shootdown broadcast per call, however large the range — which
        is why batched (whole-file) unmaps beat per-page loops on SMP.
        """
        dropped = self._tlb.invalidate_range(vaddr, length, asid=asid)
        if self._rtlb is not None:
            dropped += self._rtlb.invalidate_overlap(vaddr, length, asid=asid)
        if dropped:
            self._clock.advance(self._costs.tlb_invalidate_ns * dropped)
        self._broadcast_shootdown()

    def switch_address_space(self, asid: int, flush: bool = False) -> None:
        """Model a CR3 write; with ``flush`` the whole TLB is discarded."""
        self._clock.advance(self._costs.cr3_switch_ns)
        self._counters.bump("cr3_switch")
        if flush:
            self._tlb.flush_all()
            if self._rtlb is not None:
                self._rtlb.flush_all()

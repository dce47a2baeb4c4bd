"""OS-side range-translation management.

:class:`RangeMemory` is what the kernel's mmap path becomes on a machine
with range hardware: mapping a file writes one range-table entry per
extent (one, for single-extent files); unmapping removes those entries
and shoots down the range TLB — "a single operation to update the range
table and shoot down the entry in the TLB" (§3.2).  No page tables are
touched at all for range-mapped regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.core.rangetrans.table import RangeTable
from repro.errors import ConfigurationError, MappingError
from repro.fs.vfs import Inode
from repro.lint import complexity, o1
from repro.units import PAGE_SIZE, align_up
from repro.vm.addrspace import AddressSpace
from repro.vm.vma import MapFlags, MemoryBacking, Protection, Vma

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process


@dataclass
class RangeMapping:
    """One live range-mapped region."""

    space: AddressSpace
    vaddr: int
    length: int
    vma: Vma
    #: Bases of the RTEs installed for this mapping.
    rte_bases: List[int]
    inode_ino: int = 0

    @property
    def entry_count(self) -> int:
        """RTEs consumed — the paper's O(1)-per-extent metric."""
        return len(self.rte_bases)


class RangeMemory:
    """Maps files and anonymous extents through range translations."""

    def __init__(self, kernel: "Kernel") -> None:
        if kernel.rtlb is None:
            raise ConfigurationError(
                "RangeMemory needs range hardware; construct the Kernel "
                "with MachineConfig(range_hardware=True)"
            )
        self._kernel = kernel
        #: asid -> architectural range table.
        self._tables: Dict[int, RangeTable] = {}

    def table_for(self, space: AddressSpace) -> RangeTable:
        """The space's range table, wiring the CPU provider on first use."""
        table = self._tables.get(space.asid)
        if table is None:
            table = RangeTable(
                space.asid,
                self._kernel.clock,
                self._kernel.costs,
                self._kernel.counters,
            )
            self._tables[space.asid] = table
            space.range_provider = table.lookup
        return table

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    @complexity("n", note="one RTE per extent, never per page")
    def map_file(
        self,
        process: "Process",
        inode: Inode,
        prot: int = Protection.rw(),
    ) -> RangeMapping:
        """Map a whole file: one RTE per extent.

        The VMA is still created (protection bookkeeping and a home for
        faults on holes), but its cost is the constant mmap cost — no
        per-page work anywhere.
        """
        space = process.space
        table = self.table_for(space)
        npages = inode.page_count
        if npages == 0:
            raise MappingError(f"cannot range-map empty file ino={inode.ino}")
        length = npages * PAGE_SIZE
        vaddr = space.pick_address(length)
        vma = space.mmap(
            length=length,
            prot=prot,
            flags=MapFlags.SHARED,
            backing=inode.fs.backing_for(inode),
            addr=vaddr,
            name=f"range:ino{inode.ino}",
        )
        writable = bool(prot & Protection.WRITE)
        rte_bases: List[int] = []
        backing = inode.fs.backing_for(inode)
        for page_index, pfn, run in backing.frame_runs(0, npages):
            base = vaddr + page_index * PAGE_SIZE
            table.insert(
                base=base,
                limit=run * PAGE_SIZE,
                paddr=pfn * PAGE_SIZE,
                writable=writable,
            )
            rte_bases.append(base)
        return RangeMapping(
            space=space,
            vaddr=vaddr,
            length=length,
            vma=vma,
            rte_bases=rte_bases,
            inode_ino=inode.ino,
        )

    @o1(note="exactly one RTE insert")
    def map_extent(
        self,
        process: "Process",
        paddr: int,
        length: int,
        prot: int = Protection.rw(),
        backing=None,
        name: str = "range:anon",
    ) -> RangeMapping:
        """Map one raw physical extent (eager anonymous allocation)."""
        if length <= 0 or length % PAGE_SIZE:
            raise MappingError(
                f"length must be a positive page multiple, got {length}"
            )
        space = process.space
        table = self.table_for(space)
        vaddr = space.pick_address(length)
        if backing is None:
            backing = _RawExtentBacking(paddr // PAGE_SIZE)
        vma = space.mmap(
            length=length,
            prot=prot,
            flags=MapFlags.SHARED,
            backing=backing,
            addr=vaddr,
            name=name,
        )
        table.insert(
            base=vaddr,
            limit=length,
            paddr=paddr,
            writable=bool(prot & Protection.WRITE),
        )
        return RangeMapping(
            space=space, vaddr=vaddr, length=length, vma=vma, rte_bases=[vaddr]
        )

    # ------------------------------------------------------------------
    # Unmapping — the O(1) teardown
    # ------------------------------------------------------------------
    @o1(note="one RTE remove per extent + one range-TLB shootdown")
    def unmap(self, mapping: RangeMapping) -> None:
        """Remove the mapping's RTEs and shoot down the range TLB."""
        table = self.table_for(mapping.space)
        # o1: allow(flow-bounded) -- per extent, not per page
        for base in mapping.rte_bases:
            table.remove(base)
        rtlb = self._kernel.rtlb
        assert rtlb is not None
        dropped = rtlb.invalidate_overlap(
            mapping.vaddr, mapping.length, asid=mapping.space.asid
        )
        if dropped:
            self._kernel.clock.advance(
                self._kernel.costs.tlb_invalidate_ns * dropped
            )
        self._kernel.counters.bump("range_unmap")
        mapping.space.detach_vma(mapping.vma)


class _RawExtentBacking(MemoryBacking):
    """Backing for a bare physical extent mapped via ranges.

    Faults should never reach it (the range table translates first); the
    methods exist to complete the backing and to catch design errors.
    """

    def __init__(self, first_pfn: int) -> None:
        self._first_pfn = first_pfn

    def frame_for(self, page_index: int, write: bool) -> int:
        return self._first_pfn + page_index

    def frame_runs(self, start_page: int, npages: int):
        yield start_page, self._first_pfn + start_page, npages

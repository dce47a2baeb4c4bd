"""Pre-created (and persistent) page tables: O(1) file mapping.

Paper §3.1: "as files are stored in memory, it is possible to pre-create
page tables, so that mapping becomes changing a single pointer in a page
table to refer to existing page tables ... pre-created page tables can be
stored persistently, so that even when mapping a file the first time, an
existing page table can be re-used for O(1) operations."

:class:`PageTableCache` builds, per file, a set of page-table subtrees
covering its pages (built once, linear — the amortized investment), and
then *attaches* them to any address space with one pointer write per
2 MiB/1 GiB window.  For files up to 2 MiB that is exactly one write; for
larger files it is size/2 MiB writes — 512x fewer than per-page, and the
constant the paper trades space for.

The "natural granularities" constraint is honored: attach addresses must
be aligned to the subtree span, which the FOM address allocator provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import MappingError, OutOfMemoryError
from repro.fs.vfs import Inode
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.lint import complexity, o1
from repro.obs.metrics import MetricsRegistry
from repro.paging.pagetable import PageTable, PageTableNode
from repro.units import PAGE_SIZE
from repro.vm.addrspace import AddressSpace
from repro.vm.vma import MapFlags, Protection, Vma


@dataclass
class PremappedFile:
    """Cached translation subtrees for one file.

    ``windows`` lists (va_offset_in_file, subtree_node); the donor table
    owns the nodes and keeps them alive between attachments.
    """

    ino: int
    size: int
    writable: bool
    donor: PageTable
    windows: List[Tuple[int, PageTableNode]]
    persistent: bool = False
    attach_count: int = 0

    @property
    def window_span(self) -> int:
        """Bytes of VA covered per attach operation (alignment required)."""
        return 2 * 1024 * 1024  # bottom-level subtree span (2 MiB)


@dataclass
class Attachment:
    """One live attachment of a premapped file into an address space."""

    space: AddressSpace
    vaddr: int
    premap: PremappedFile
    vma: Vma


class PageTableCache:
    """Builds and attaches pre-created page-table subtrees for files."""

    def __init__(
        self,
        levels: int,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
    ) -> None:
        self._levels = levels
        self._clock = clock
        self._costs = costs
        self._counters = counters
        #: (ino, writable) -> premapped subtrees.
        self._cache: Dict[Tuple[int, bool], PremappedFile] = {}

    # ------------------------------------------------------------------
    # Building (once per file — the amortized linear investment)
    # ------------------------------------------------------------------
    @complexity("n", note="per-page build, paid once per file and cached")
    def premap(self, inode: Inode, writable: bool = True) -> PremappedFile:
        """Build (or fetch) the subtree set covering ``inode``'s pages."""
        key = (inode.ino, writable)
        cached = self._cache.get(key)
        if cached is not None and cached.size >= inode.page_count * PAGE_SIZE:
            self._counters.bump("premap_cache_hit")
            return cached
        chaos = self._counters.chaos
        if chaos is not None and chaos.hit("premap.attach") == "error":
            raise OutOfMemoryError(
                f"chaos: no frames for premap subtree of ino={inode.ino}"
            )
        self._counters.bump("premap_build")
        donor = PageTable(
            levels=self._levels,
            clock=self._clock,
            costs=self._costs,
            counters=self._counters,
        )
        backing = inode.fs.backing_for(inode)
        npages = inode.page_count
        if npages == 0:
            raise MappingError(f"cannot premap empty file ino={inode.ino}")
        # o1: allow(flow-bounded) -- the runs partition the file's declared n pages
        for page_index, pfn, run in backing.frame_runs(0, npages):
            for page in range(run):
                donor.map(
                    (page_index + page) * PAGE_SIZE,
                    pfn + page,
                    writable=writable,
                )
        span = 2 * 1024 * 1024
        windows: List[Tuple[int, PageTableNode]] = []
        offset = 0
        size = npages * PAGE_SIZE
        while offset < size:
            node = donor.subtree_at(offset, self._levels - 1)
            if node is None:
                raise MappingError(
                    f"premap hole at offset {offset:#x} of ino={inode.ino}"
                )
            windows.append((offset, node))
            offset += span
        premapped = PremappedFile(
            ino=inode.ino,
            size=size,
            writable=writable,
            donor=donor,
            windows=windows,
        )
        self._cache[key] = premapped
        return premapped

    # ------------------------------------------------------------------
    # Attach / detach (the O(1) operations)
    # ------------------------------------------------------------------
    @o1(note="one pointer write per 2 MiB window, 512x coarser than pages")
    def attach(
        self,
        space: AddressSpace,
        inode: Inode,
        prot: int = Protection.rw(),
        vaddr: Optional[int] = None,
    ) -> Attachment:
        """Map ``inode`` into ``space`` by linking cached subtrees.

        Cost: one VMA insert plus one pointer write per 2 MiB window —
        independent of how many *pages* the file holds.
        """
        writable = bool(prot & Protection.WRITE)
        # o1: allow(flow-bounded) -- first-touch donor build; cached reattach is O(1)
        premapped = self.premap(inode, writable=writable)
        span = premapped.window_span
        if vaddr is None:
            vaddr = space.pick_address(max(premapped.size, span), alignment=span)
        elif vaddr % span:
            raise MappingError(
                f"attach address {vaddr:#x} not aligned to subtree span {span:#x}"
            )
        vma = space.mmap(
            length=premapped.size,
            prot=prot,
            flags=MapFlags.SHARED,
            backing=inode.fs.backing_for(inode),
            addr=vaddr,
            name=f"premap:ino{inode.ino}",
        )
        # o1: allow(flow-bounded) -- one link per 2 MiB window, not per page
        for offset, node in premapped.windows:
            space.page_table.link_subtree(vaddr + offset, node)
        premapped.attach_count += 1
        self._counters.bump("premap_attach")
        return Attachment(space=space, vaddr=vaddr, premap=premapped, vma=vma)

    @o1(note="one pointer unlink per 2 MiB window")
    def detach(self, attachment: Attachment) -> None:
        """Unmap: unlink each window pointer and drop the VMA — O(windows)."""
        span = attachment.premap.window_span
        # o1: allow(flow-bounded) -- one unlink per 2 MiB window
        for offset, _node in attachment.premap.windows:
            attachment.space.page_table.unlink_subtree(
                attachment.vaddr + offset, self._levels - 1
            )
        attachment.space.detach_vma(attachment.vma)
        attachment.premap.attach_count -= 1
        self._counters.bump("premap_detach")

    # ------------------------------------------------------------------
    # Persistence (paper: store pre-created tables persistently)
    # ------------------------------------------------------------------
    def persist(self, inode: Inode, writable: bool = True) -> None:
        """Mark a file's premapped tables as stored in NVM.

        They then survive :meth:`on_crash`, so the *first* map after a
        reboot is O(1) too.
        """
        key = (inode.ino, writable)
        if key not in self._cache:
            self.premap(inode, writable=writable)
        premapped = self._cache[key]
        if not inode.fs.persistent:
            raise MappingError(
                "persistent page tables need a persistent file system; "
                f"{inode.fs.name!r} is volatile"
            )
        premapped.persistent = True
        self._counters.bump("premap_persist")

    @complexity("n", note="one dropped donor per cached variant of the file")
    def invalidate(self, ino: int) -> int:
        """Drop cached subtrees for ``ino`` (the file is being deleted).

        The donor tables are cleared, not just dropped, so no cached
        translation can outlive the file's storage; windows still linked
        into live address spaces keep their own references and stay
        valid until those attachments detach.  Returns entries dropped.
        """
        dropped = 0
        doomed = [key for key in self._cache if key[0] == ino]
        for key in doomed:
            premapped = self._cache.pop(key)
            premapped.donor.clear()
            dropped += 1
        if dropped:
            self._counters.bump("premap_invalidate", dropped)
        return dropped

    def on_crash(self) -> int:
        """Drop non-persistent entries (DRAM page tables are gone).

        Returns the number of surviving (persistent) entries.
        """
        survivors = {
            key: value for key, value in self._cache.items() if value.persistent
        }
        dropped = len(self._cache) - len(survivors)
        self._cache = survivors
        if dropped:
            self._counters.bump("premap_crash_dropped", dropped)
        return len(survivors)

    @property
    def cached_files(self) -> int:
        """Entries currently cached."""
        return len(self._cache)

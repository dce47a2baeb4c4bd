"""The PBM manager: algorithmic addresses + cross-process table sharing.

``va = PBM_BASE + pa``: one global offset applied to an extent's physical
address yields its virtual address, identical in every process (paper
§4.2).  Mapping a file under PBM therefore:

1. computes each extent's fixed VA (no address-space search);
2. links the extent's *shared* page-table subtree when alignment allows —
   PTEs written once machine-wide, one pointer write per 2 MiB window per
   process;
3. falls back to private per-page mapping for unshareable extents, so the
   benefit degrades gracefully rather than failing.

Collision-freedom is inherited from physical memory: distinct extents
occupy distinct physical ranges, hence distinct VAs — property-tested in
tests/test_core_pbm.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.pbm.share import SharedSubtrees
from repro.errors import MappingError
from repro.fs.vfs import Inode
from repro.lint import complexity, o1
from repro.units import PAGE_SIZE
from repro.vm.addrspace import AddressSpace
from repro.vm.vma import MapFlags, Protection, Vma

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process

#: Default base of the PBM window, below the regular mmap area.
PBM_BASE = 0x6000_0000_0000


@dataclass
class _Segment:
    """One extent's mapping inside a PbmMapping."""

    vaddr: int
    length: int
    vma: Vma
    #: (window_va, depth) links to unlink on teardown; empty if the
    #: segment was mapped per-page privately.
    linked_windows: List[int] = field(default_factory=list)
    mapped_pages: int = 0


@dataclass
class PbmMapping:
    """A file mapped via physically based mappings."""

    space: AddressSpace
    inode_ino: int
    segments: List[_Segment]

    @property
    def vaddr(self) -> int:
        """VA of the first segment (the whole file for single-extent files)."""
        return self.segments[0].vaddr

    @property
    def total_length(self) -> int:
        """Bytes mapped across all segments."""
        return sum(segment.length for segment in self.segments)

    @property
    def shared_window_count(self) -> int:
        """Pointer-write links used instead of per-page PTEs."""
        return sum(len(segment.linked_windows) for segment in self.segments)


class PbmManager:
    """Maps files at physically-derived addresses with shared subtrees."""

    def __init__(self, kernel: "Kernel", pbm_base: int = PBM_BASE) -> None:
        if pbm_base % PAGE_SIZE:
            raise MappingError(f"pbm_base {pbm_base:#x} must be page-aligned")
        self._kernel = kernel
        self._pbm_base = pbm_base
        self._subtrees = SharedSubtrees(
            kernel.config.page_table_levels,
            kernel.clock,
            kernel.costs,
            kernel.counters,
        )
        pmfs = kernel.pmfs
        if pmfs is not None:
            # When PMFS frees or migrates an extent, cached shared
            # subtrees keyed on it must not survive to translate into
            # recycled (or retired) storage.
            pmfs.register_extent_invalidator(
                lambda _ino, pfn, count: self._subtrees.invalidate_extent(pfn, count)
            )

    @property
    def subtrees(self) -> SharedSubtrees:
        """The machine-wide shared-subtree cache."""
        return self._subtrees

    @o1(note="pure arithmetic — the point of physically based mapping")
    def va_of(self, paddr: int) -> int:
        """The algorithmic virtual address for a physical address."""
        return self._pbm_base + paddr

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    @complexity(
        "n", note="one link per 2 MiB window per extent; per-page only on "
        "the unshareable fallback"
    )
    def map_file(
        self,
        process: "Process",
        inode: Inode,
        prot: int = Protection.rw(),
    ) -> PbmMapping:
        """Map ``inode`` at its physically based addresses.

        Guaranteed: every process mapping this file gets identical VAs.
        """
        space = process.space
        npages = inode.page_count
        if npages == 0:
            raise MappingError(f"cannot PBM-map empty file ino={inode.ino}")
        writable = bool(prot & Protection.WRITE)
        backing = inode.fs.backing_for(inode)
        segments: List[_Segment] = []
        # o1: allow(flow-bounded) -- the runs partition the file's declared n pages
        for page_index, pfn, run in backing.frame_runs(0, npages):
            vaddr = self.va_of(pfn * PAGE_SIZE)
            length = run * PAGE_SIZE
            vma = space.mmap(
                length=length,
                prot=prot,
                flags=MapFlags.SHARED,
                backing=inode.fs.backing_for(inode),
                addr=vaddr,
                backing_offset=page_index,
                name=f"pbm:ino{inode.ino}",
            )
            segment = _Segment(vaddr=vaddr, length=length, vma=vma)
            san = self._kernel.counters.sanitize
            if san is not None:
                san.on_pbm_claim(inode.ino, pfn, run)
            # o1: allow(flow-bounded) -- the extents partition the declared n windows
            windows = self._subtrees.windows_for_extent(vaddr, pfn, run, writable)
            if windows is not None:
                for window_va, node in windows:
                    space.page_table.link_subtree(window_va, node)
                    segment.linked_windows.append(window_va)
                self._kernel.counters.bump("pbm_shared_link", len(windows))
            else:
                # Unshareable extent: private per-page mapping (the
                # graceful-degradation path).
                for page in range(run):
                    space.page_table.map(
                        vaddr + page * PAGE_SIZE, pfn + page, writable=writable
                    )
                segment.mapped_pages = run
                self._kernel.counters.bump("pbm_private_pages", run)
            segments.append(segment)
        return PbmMapping(space=space, inode_ino=inode.ino, segments=segments)

    @complexity("n", note="per window per extent; per page on the fallback")
    def unmap(self, mapping: PbmMapping) -> None:
        """Tear down: unlink shared windows (O(windows)), drop VMAs."""
        levels = self._kernel.config.page_table_levels
        san = self._kernel.counters.sanitize
        for segment in mapping.segments:
            if san is not None:
                san.on_pbm_release(
                    mapping.inode_ino,
                    (segment.vaddr - self._pbm_base) // PAGE_SIZE,
                    segment.length // PAGE_SIZE,
                )
            # o1: allow(flow-bounded) -- per 2 MiB window
            for window_va in segment.linked_windows:
                mapping.space.page_table.unlink_subtree(window_va, levels - 1)
            if segment.mapped_pages:
                # o1: allow(flow-bounded) -- degradation by design
                for page in range(segment.mapped_pages):
                    mapping.space.page_table.unmap(segment.vaddr + page * PAGE_SIZE)
            mapping.space.detach_vma(segment.vma)
        self._kernel.counters.bump("pbm_unmap")

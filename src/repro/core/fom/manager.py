"""The file-only memory manager.

Every allocation is a file: the manager creates it (pre-sized by the
:class:`~repro.core.o1.policy.ExtentPolicy`, so storage arrives as a few
aligned extents), maps it by one of four strategies, and reclaims it by
unlink — "memory is only reclaimed in the unit of a file".

Mapping strategies, in increasing O(1)-ness:

========  ===============================================================
DEMAND    plain mmap; per-page minor faults on access (for comparison)
EXTENT    populate at map time using the largest natural page size each
          extent's alignment allows (few PTEs per extent)
PREMAP    link pre-created page-table subtrees: one pointer write per
          2 MiB window (§3.1's "changing a single pointer in a page
          table")
RANGE     one range-table entry per extent (needs range hardware)
========  ===============================================================
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.o1.policy import ExtentPolicy
from repro.core.o1.premap import Attachment, PageTableCache
from repro.core.rangetrans.manager import RangeMapping, RangeMemory
from repro.errors import ConfigurationError, MappingError, OutOfMemoryError
from repro.fs.pmfs import Pmfs
from repro.fs.vfs import FileSystem, Inode
from repro.lint import complexity, o1
from repro.units import PAGE_SIZE
from repro.vm.vma import MapFlags, Protection, Vma

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process


class MapStrategy(enum.Enum):
    """How a region's translations are established."""

    DEMAND = "demand"
    EXTENT = "extent"
    PREMAP = "premap"
    RANGE = "range"


@dataclass
class FomRegion:
    """One file-backed memory region owned by a process."""

    path: str
    inode: Inode
    process: "Process"
    vaddr: int
    length: int
    strategy: MapStrategy
    prot: int
    persistent: bool
    discardable: bool
    #: Strategy-specific teardown handle.
    vma: Optional[Vma] = None
    attachment: Optional[Attachment] = None
    range_mapping: Optional[RangeMapping] = None
    #: Simulated time of last open/use, for file-granularity reclaim.
    last_used_ns: int = 0
    released: bool = False

    @property
    def allocated_bytes(self) -> int:
        """Bytes of storage the file actually holds (>= requested)."""
        return self.inode.page_count * PAGE_SIZE


class FileOnlyMemory:
    """Allocate, map and reclaim memory as whole files."""

    def __init__(
        self,
        kernel: "Kernel",
        fs: Optional[FileSystem] = None,
        policy: Optional[ExtentPolicy] = None,
        default_strategy: MapStrategy = MapStrategy.EXTENT,
        guard_gap_bytes: int = 2 * 1024 * 1024,
    ) -> None:
        self._kernel = kernel
        self._fs = fs if fs is not None else (kernel.pmfs or kernel.tmpfs)
        self.policy = policy or ExtentPolicy()
        self.default_strategy = default_strategy
        #: Unmapped VA left after each region: a natural guard band
        #: (overruns segfault without per-page guard tricks) and headroom
        #: for in-place growth.  Virtual addresses are the one resource
        #: that is truly ample, so the gap costs nothing physical.
        self.guard_gap_bytes = guard_gap_bytes
        self.ptcache = PageTableCache(
            kernel.config.page_table_levels,
            kernel.clock,
            kernel.costs,
            kernel.counters,
        )
        self.range_memory: Optional[RangeMemory] = (
            RangeMemory(kernel) if kernel.rtlb is not None else None
        )
        self._anon_ids = itertools.count(1)
        #: pid -> live regions, for O(#regions) process teardown.
        self._regions_by_pid: Dict[int, List[FomRegion]] = {}
        if isinstance(self._fs, Pmfs):
            # Freed or RAS-migrated extents invalidate the inode's cached
            # premapped subtrees, so no donor translation outlives the
            # storage it points at.
            self._fs.register_extent_invalidator(
                lambda ino, _pfn, _count: self.ptcache.invalidate(ino)
            )
        if not self._fs.exists("/.fom"):
            self._fs.mkdir("/.fom")

    @property
    def fs(self) -> FileSystem:
        """The backing memory file system."""
        return self._fs

    # ------------------------------------------------------------------
    # Allocation — "when a process allocates memory, it maps a file"
    # ------------------------------------------------------------------
    @o1(note="one policy-rounded extent + one constant-shape map")
    def allocate(
        self,
        process: "Process",
        size: int,
        name: Optional[str] = None,
        prot: int = Protection.rw(),
        strategy: Optional[MapStrategy] = None,
        persistent: bool = False,
        discardable: bool = False,
    ) -> FomRegion:
        """Allocate ``size`` bytes as a (possibly named) file and map it.

        Unnamed regions get temporary files under ``/.fom`` — "for
        volatile data, this may be a temporary file".  The file is
        pre-sized by the extent policy (space traded for time) and fully
        allocated up front, so no demand allocation ever happens inside
        it.
        """
        if size <= 0:
            raise MappingError(f"size must be positive, got {size}")
        strategy = strategy or self.default_strategy
        path = name or f"/.fom/anon{next(self._anon_ids)}"
        extent_bytes = self.policy.extent_bytes_for(size)
        # o1: allow(flow-bounded) -- path depth, not region size
        inode = self._create_aligned(path, extent_bytes)
        inode.persistent = persistent
        inode.discardable = discardable
        # o1: allow(flow-bounded) -- constant-shape map; PREMAP first touch builds the donor once
        region = self._map_inode(
            process, path, inode, extent_bytes, prot, strategy,
            persistent=persistent, discardable=discardable,
        )
        self._kernel.counters.bump("fom_allocate")
        return region

    @o1(note="re-map of existing storage; no allocation")
    def open_region(
        self,
        process: "Process",
        path: str,
        prot: int = Protection.rw(),
        strategy: Optional[MapStrategy] = None,
    ) -> FomRegion:
        """Map an *existing* file (named persistent data, or re-open after
        a crash)."""
        strategy = strategy or self.default_strategy
        # o1: allow(flow-bounded) -- path depth, not region size
        inode = self._fs.lookup(path)
        length = inode.page_count * PAGE_SIZE
        if length == 0:
            raise MappingError(f"{path!r} has no allocated storage to map")
        # o1: allow(flow-bounded) -- constant-shape map; PREMAP first touch builds the donor once
        region = self._map_inode(
            process, path, inode, length, prot, strategy,
            persistent=inode.persistent, discardable=inode.discardable,
        )
        self._kernel.counters.bump("fom_open")
        return region

    @complexity("n", note="one lookup per path component, not per region byte")
    def _ensure_parent_dirs(self, path: str) -> None:
        """Create missing parent directories for ``path``."""
        parts = [part for part in path.split("/") if part][:-1]
        prefix = ""
        for part in parts:
            prefix += "/" + part
            # o1: allow(flow-bounded) -- one walk per component, within the declared n
            if not self._fs.exists(prefix):
                self._fs.mkdir(prefix)  # o1: allow(flow-bounded) -- ditto: per component

    @complexity("n", note="path walk plus one extent-granular create")
    def _create_aligned(self, path: str, extent_bytes: int) -> Inode:
        """Create the file with policy-chosen physical alignment."""
        self._ensure_parent_dirs(path)
        align = self.policy.alignment_frames_for(extent_bytes)
        if isinstance(self._fs, Pmfs):
            saved = self._fs.extent_align_frames
            self._fs.extent_align_frames = max(saved, align)
            try:
                return self._fs.create(path, size=extent_bytes)
            finally:
                self._fs.extent_align_frames = saved
        return self._fs.create(path, size=extent_bytes)

    def _map_inode(
        self,
        process: "Process",
        path: str,
        inode: Inode,
        length: int,
        prot: int,
        strategy: MapStrategy,
        persistent: bool,
        discardable: bool,
    ) -> FomRegion:
        space = process.space
        region = FomRegion(
            path=path,
            inode=inode,
            process=process,
            vaddr=0,
            length=length,
            strategy=strategy,
            prot=prot,
            persistent=persistent,
            discardable=discardable,
            last_used_ns=self._kernel.clock.now,
        )
        if strategy is MapStrategy.RANGE:
            if self.range_memory is None:
                raise ConfigurationError(
                    "RANGE strategy needs range hardware "
                    "(MachineConfig(range_hardware=True))"
                )
            mapping = self.range_memory.map_file(process, inode, prot)
            region.vaddr = mapping.vaddr
            region.range_mapping = mapping
        elif strategy is MapStrategy.PREMAP:
            try:
                attachment = self.ptcache.attach(space, inode, prot)
            except OutOfMemoryError:
                # No frames for the donor subtree: degrade gracefully to
                # demand paging — slower per fault, but the mapping (and
                # the program) survives.  Region bookkeeping follows the
                # strategy actually in effect.
                self._kernel.counters.bump("fom_premap_fallback")
                region.strategy = MapStrategy.DEMAND
                vaddr = space.pick_address(
                    length + self.guard_gap_bytes, alignment=2 * 1024 * 1024
                )
                region.vaddr = vaddr
                region.vma = space.mmap(
                    length=length,
                    prot=prot,
                    flags=MapFlags.SHARED,
                    backing=inode.fs.backing_for(inode),
                    addr=vaddr,
                    name=f"fom:{path}",
                )
            else:
                region.vaddr = attachment.vaddr
                region.attachment = attachment
                region.vma = attachment.vma
        else:
            flags = MapFlags.SHARED
            if strategy is MapStrategy.EXTENT:
                flags |= MapFlags.POPULATE | MapFlags.HUGEPAGE
            vaddr = space.pick_address(
                length + self.guard_gap_bytes, alignment=2 * 1024 * 1024
            )
            vma = space.mmap(
                length=length,
                prot=prot,
                flags=flags,
                backing=inode.fs.backing_for(inode),
                addr=vaddr,
                name=f"fom:{path}",
            )
            region.vaddr = vaddr
            region.vma = vma
        inode.refcount += 1
        self._regions_by_pid.setdefault(process.pid, []).append(region)
        return region

    # ------------------------------------------------------------------
    # Growth — the benefit of growing regions without per-page work
    # ------------------------------------------------------------------
    @o1(note="O(#new extents); the tail probe is two sorted-bound bisects")
    def grow_region(self, region: FomRegion, new_size: int) -> None:
        """Extend a region in place: grow the file, map the new extent.

        The paper notes Linux gets "the benefits of growing regions
        (decreased overhead)" from VMA merging; file-only memory gets the
        same effect by extending the file and mapping the added extent —
        O(#new extents), not O(#new pages).  Only EXTENT/DEMAND regions
        support growth (premapped subtrees and range entries would need
        rebuilding; allocate generously instead).
        """
        if region.released:
            raise MappingError(f"region {region.path!r} was released")
        if region.strategy not in (MapStrategy.EXTENT, MapStrategy.DEMAND):
            raise MappingError(
                f"{region.strategy.value} regions do not grow; size them "
                f"up front (space for time)"
            )
        if new_size <= region.length:
            raise MappingError(
                f"new size {new_size} does not exceed current {region.length}"
            )
        grown_bytes = self.policy.extent_bytes_for(new_size)
        old_pages = region.inode.page_count
        # o1: allow(flow-bounded) -- the extent policy adds whole extents, not pages
        self._fs.truncate(region.inode, grown_bytes)
        added = grown_bytes - old_pages * PAGE_SIZE
        space = region.process.space
        tail_start = region.vaddr + old_pages * PAGE_SIZE
        tail_free = space.range_is_free(tail_start, tail_start + added)
        if tail_free:
            # Extend in place; identical flags/backing and contiguous
            # offsets merge the new VMA into the existing one, and the
            # POPULATE flag (EXTENT regions) maps only the new pages.
            vma = space.mmap(
                length=added,
                prot=region.prot,
                flags=region.vma.flags,
                backing=region.vma.backing,
                addr=tail_start,
                backing_offset=old_pages,
                name=region.vma.name,
            )
            region.vma = vma
        else:
            # The guard gap is spoken for: relocate.  No data moves —
            # the file's extents simply get mapped at a fresh address
            # (mremap without the copy), O(#extents).
            space.detach_vma(region.vma)
            new_vaddr = space.pick_address(
                grown_bytes + self.guard_gap_bytes, alignment=2 * 1024 * 1024
            )
            region.vma = space.mmap(
                length=grown_bytes,
                prot=region.prot,
                flags=region.vma.flags,
                backing=region.inode.fs.backing_for(region.inode),
                addr=new_vaddr,
                backing_offset=0,
                name=region.vma.name,
            )
            region.vaddr = new_vaddr
            self._kernel.counters.bump("fom_grow_relocated")
        region.length = grown_bytes
        self._kernel.counters.bump("fom_grow")

    # ------------------------------------------------------------------
    # Reclamation — "memory is only reclaimed in the unit of a file"
    # ------------------------------------------------------------------
    @o1(note="constant-shape unmap + whole-file unlink")
    def release(self, region: FomRegion, unlink: Optional[bool] = None) -> None:
        """Unmap and (for temporary/volatile files) unlink the region.

        ``unlink`` defaults to deleting anonymous and non-persistent
        files, keeping named persistent ones.
        """
        if region.released:
            raise MappingError(f"region {region.path!r} already released")
        region.released = True
        if region.range_mapping is not None:
            assert self.range_memory is not None
            self.range_memory.unmap(region.range_mapping)
        elif region.attachment is not None:
            self.ptcache.detach(region.attachment)
        else:
            # o1: allow(flow-bounded) -- extent-granular teardown; the per-page walk is the baseline under comparison
            region.process.space.munmap(region.vaddr, region.length)
        region.inode.refcount -= 1
        if unlink is None:
            unlink = not region.persistent
        # o1: allow(flow-bounded) -- path depth, not region size
        if unlink and self._fs.exists(region.path):
            # Cached premapped subtrees hold donor translations into the
            # file's blocks; drop them before the unlink frees the blocks
            # so no translation outlives the storage.
            # o1: allow(flow-bounded) -- a handful of cached donor variants per file
            self.ptcache.invalidate(region.inode.ino)
            # o1: allow(flow-bounded) -- path depth, not region size
            self._fs.unlink(region.path)
        regions = self._regions_by_pid.get(region.process.pid, [])
        if region in regions:
            regions.remove(region)
        self._kernel.counters.bump("fom_release")

    @complexity("n", note="per region, not per page")
    def exit_process(self, process: "Process") -> int:
        """Tear down every region of a process — O(#regions), not O(pages)
        for PREMAP/RANGE regions.  Returns regions released."""
        regions = list(self._regions_by_pid.get(process.pid, []))
        for region in regions:
            self.release(region)
        self._regions_by_pid.pop(process.pid, None)
        return len(regions)

    def regions_of(self, process: "Process") -> List[FomRegion]:
        """Live regions owned by ``process``."""
        return list(self._regions_by_pid.get(process.pid, []))

    def touch_region(self, region: FomRegion) -> None:
        """Record use (coarse, file-granularity access tracking — §4.1:
        'access patterns can be tracked at coarse granularity')."""
        region.last_used_ns = self._kernel.clock.now

"""Virtual memory areas and memory backings.

A :class:`Vma` describes one contiguous mapped region of an address space
(Linux's ``vm_area_struct``): extent, protection, flags, and the
:class:`MemoryBacking` that supplies physical frames for it.  Backings
abstract over anonymous memory, tmpfs page caches, and DAX extents so the
fault and populate paths are uniform — and so the file-only-memory design
can swap in extent-granularity backings without touching the VM core.
Private (COW) copies are DRAM pages whatever the backing's media.

Adjacent-VMA merging is implemented because the paper explicitly names it
as an optimization that file-granularity management gives up ("Linux
merges adjacent memory regions when possible"); the FOM ablation measures
what that costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from repro.errors import MappingError
from repro.lint import complexity
from repro.units import PAGE_SIZE


class Protection:
    """Access permissions of a mapping (PROT_*), as int bit constants."""

    NONE = 0
    READ = 1 << 0
    WRITE = 1 << 1
    EXEC = 1 << 2

    @classmethod
    def rw(cls) -> int:
        """Convenience READ|WRITE."""
        return cls.READ | cls.WRITE


class MapFlags:
    """mmap() behaviour flags (MAP_*), as int bit constants."""

    NONE = 0
    PRIVATE = 1 << 0
    SHARED = 1 << 1
    ANONYMOUS = 1 << 2
    #: Pre-populate all PTEs at map time — the linear-cost path of Fig 1a.
    POPULATE = 1 << 3
    #: Hint that huge pages may be used where alignment allows.
    HUGEPAGE = 1 << 4


class MemoryBacking:
    """Supplier of physical frames for a mapped region; every backing's base.

    All methods charge their own simulated costs.  ``page_index`` is
    relative to the backing object (file page number), not the VMA.
    Subclasses supply :meth:`frame_for` and :meth:`frame_runs`; the other
    members default to frames something else owns (a file, an extent),
    mapped by one address space at a time and never swapped.
    """

    #: Whether the vm layer keeps per-4 KiB frame metadata (``struct
    #: page``) for this backing's frames.
    tracks_frame_meta = True
    #: The file this backing maps; None for memory no file owns.
    inode = None

    def frame_for(self, page_index: int, write: bool) -> int:
        """PFN backing ``page_index``, allocating/fetching if needed."""
        raise NotImplementedError

    def frame_runs(self, start_page: int, npages: int) -> Iterator[Tuple[int, int, int]]:
        """(page_index, first_pfn, run_pages) runs covering the range.

        Extent-based backings return long runs (cheap to enumerate);
        page-cache backings return one run per page.
        """
        raise NotImplementedError

    def release(self, page_index: int, npages: int) -> None:
        """Drop any per-mapping resources for the range (on munmap)."""

    @complexity("n", note="the release it stands for")
    def release_extent(self, page_index: int, npages: int) -> None:
        """:meth:`release` under the extent munmap policy."""
        self.release(page_index, npages)

    def add_user(self) -> None:
        """Another address space maps this backing (fork)."""

    def detach_user(self) -> None:
        """One address space dropped its whole mapping of this backing."""

    @property
    def shared(self) -> bool:
        """True while another address space may map the backing's frames,
        so no one space may evict them."""
        return False

    def is_swapped(self, page_index: int) -> bool:
        """True when ``page_index`` lives on swap: faulting it is major."""
        return False

    def resident_frame(self, page_index: int) -> Optional[int]:
        """The frame :meth:`swap_out` would push out for ``page_index``."""
        return None

    def swap_out(self, page_index: int) -> None:
        """Push one resident page to swap."""


class AnonBacking(MemoryBacking):
    """Anonymous (demand-zero) memory, the MAP_ANONYMOUS baseline.

    Frames come from the buddy allocator one at a time and are zeroed on
    allocation — exactly the per-page work the paper wants amortized away.
    An optional zero pool turns the zeroing O(1); that path is used by the
    O(1) experiments, not the baseline.
    """

    def __init__(
        self, allocator, clock, costs, counters, zeropool=None, swap=None
    ) -> None:
        self._allocator = allocator
        self._clock = clock
        #: Zeroing one page, read once: the cost model is frozen.
        self._zero_page_ns = costs.zero_page_ns(PAGE_SIZE)
        self._counters = counters
        self._zeropool = zeropool
        self._swap = swap
        self._frames = {}
        #: page_index -> swap slot, for pages the reclaimer pushed out.
        self._swapped = {}
        #: Address spaces referencing this backing (fork shares it); the
        #: frames are freed only when the last user releases.
        self._users = 1

    def add_user(self) -> None:
        """Register another address space sharing these frames (fork)."""
        self._users += 1

    @property
    def shared(self) -> bool:
        return self._users > 1

    def frame_for(self, page_index: int, write: bool) -> int:
        pfn = self._frames.get(page_index)
        if pfn is not None:
            return pfn
        slot = self._swapped.pop(page_index, None)
        if slot is not None:
            # Major fault: bring the page back from the swap device.
            pfn = self._allocator.alloc(0)
            self._swap.read_page(slot)
            self._frames[page_index] = pfn
            return pfn
        if self._zeropool is not None:
            pfn = self._zeropool.take()
        else:
            pfn = self._allocator.alloc(0)
            self._clock.advance(self._zero_page_ns)
        self._counters.bump("anon_page_alloc")
        self._frames[page_index] = pfn
        return pfn

    def is_swapped(self, page_index: int) -> bool:
        """True when ``page_index`` lives on swap: faulting it is major."""
        return page_index in self._swapped

    def resident_frame(self, page_index: int) -> Optional[int]:
        """The frame currently backing ``page_index``, if resident."""
        return self._frames.get(page_index)

    def swap_out(self, page_index: int) -> None:
        """Push one resident page to swap (dirty anon pages always write)."""
        pfn = self._frames.pop(page_index, None)
        if pfn is None:
            return
        if self._swap is None:
            # No swap device: the page's contents are simply dropped
            # (acceptable for benchmarks that never re-read evicted data).
            self._allocator.free(pfn)
            return
        slot = self._swap.write_page()
        self._swapped[page_index] = slot
        self._allocator.free(pfn)

    @complexity("n", note="one frame per page: what makes MAP_POPULATE linear")
    def frame_runs(self, start_page: int, npages: int) -> Iterator[Tuple[int, int, int]]:
        # Anonymous memory has no pre-existing frames: populate allocates
        # page by page, which is what makes MAP_POPULATE linear.
        for page_index in range(start_page, start_page + npages):
            yield page_index, self.frame_for(page_index, write=True), 1

    @complexity("n", note="one free per page of the range")
    def release(self, page_index: int, npages: int) -> None:
        """Free the range's frames — unless another space still shares them.

        A shared backing defers *all* frees to :meth:`detach_user`: a
        partial unmap in one address space must not pull frames out from
        under the other (the fork-sharing bug the differential harness
        guards against).
        """
        if self._users > 1:
            return
        for index in range(page_index, page_index + npages):
            pfn = self._frames.pop(index, None)
            if pfn is not None:
                self._allocator.free(pfn)
            self._free_swap_slot(index)

    @complexity("n", note="one pass over the resident and swapped pages")
    def release_extent(self, page_index: int, npages: int) -> None:
        """Extent-granularity :meth:`release`: one batched frame free.

        Walks the resident/swapped population rather than the page
        range: a sparsely touched extent costs its residency, not its
        span.
        """
        if self._users > 1:
            return
        end = page_index + npages
        doomed = [i for i in self._frames if page_index <= i < end]
        pfns = [self._frames.pop(i) for i in doomed]
        for index in [i for i in self._swapped if page_index <= i < end]:
            self._free_swap_slot(index)
        if pfns:
            self._allocator.free_many(pfns)

    @complexity("n", note="the last user frees every page still resident or swapped")
    def detach_user(self) -> None:
        """One address space dropped its whole mapping of this backing.

        When the last user detaches, any frames still resident (pages the
        departing spaces never individually released) are freed in one
        batch.
        """
        self._users -= 1
        if self._users > 0:
            return
        if self._frames:
            leftovers = list(self._frames.values())
            self._frames.clear()
            self._allocator.free_many(leftovers)
        for index in list(self._swapped):
            self._free_swap_slot(index)

    def _free_swap_slot(self, page_index: int) -> None:
        slot = self._swapped.pop(page_index, None)
        if slot is not None and self._swap is not None:
            self._swap.free_slot(slot)

    @property
    def resident_pages(self) -> int:
        """Pages currently backed by a frame."""
        return len(self._frames)


@dataclass
class Vma:
    """One mapped region ``[start, end)`` of an address space."""

    start: int
    end: int
    prot: int  # Protection bits
    flags: int  # MapFlags bits
    backing: MemoryBacking
    #: Page offset into the backing at which this VMA begins.
    backing_offset: int = 0
    name: str = ""
    #: page_index (backing-relative) -> private COW copy pfn, a DRAM
    #: frame from the address space's buddy.
    private_copies: dict = field(default_factory=dict)
    #: True after fork(): the backing's frames are shared copy-on-write
    #: with another address space, so writes must copy even for anon.
    cow_shared: bool = False

    def __post_init__(self) -> None:
        if self.start % PAGE_SIZE or self.end % PAGE_SIZE:
            raise MappingError(
                f"VMA [{self.start:#x}, {self.end:#x}) is not page-aligned"
            )
        if self.end <= self.start:
            raise MappingError(
                f"VMA end {self.end:#x} must be after start {self.start:#x}"
            )

    @property
    def length(self) -> int:
        """Bytes covered."""
        return self.end - self.start

    @property
    def page_count(self) -> int:
        """4 KiB pages covered."""
        return self.length // PAGE_SIZE

    def contains(self, vaddr: int) -> bool:
        """True if ``vaddr`` falls in this VMA."""
        return self.start <= vaddr < self.end

    def overlaps(self, start: int, end: int) -> bool:
        """True if ``[start, end)`` intersects this VMA."""
        return self.start < end and start < self.end

    def backing_page(self, vaddr: int) -> int:
        """Backing-relative page index for ``vaddr``."""
        return self.backing_offset + (vaddr - self.start) // PAGE_SIZE

    def is_private(self) -> bool:
        """True for MAP_PRIVATE semantics (writes don't reach the backing)."""
        return bool(self.flags & MapFlags.PRIVATE)

    def needs_cow(self) -> bool:
        """True if stores must copy before writing.

        Private file mappings always COW; private anonymous memory COWs
        only after a fork made its frames shared.
        """
        if not self.flags & MapFlags.PRIVATE:
            return False
        if not self.flags & MapFlags.ANONYMOUS:
            return True
        return self.cow_shared

    def can_merge_with(self, other: "Vma") -> bool:
        """True if ``other`` directly follows and is mergeable.

        Linux merges when flags, protection and backing agree and file
        offsets are contiguous.
        """
        return (
            other.start == self.end
            and other.prot == self.prot
            and other.flags == self.flags
            and other.backing is self.backing
            and other.backing_offset == self.backing_offset + self.page_count
        )

    def merge_with(self, other: "Vma") -> None:
        """Absorb ``other`` (caller checked :meth:`can_merge_with`)."""
        if not self.can_merge_with(other):
            raise MappingError(f"cannot merge {self!r} with {other!r}")
        self.end = other.end
        self.private_copies.update(other.private_copies)

    def __repr__(self) -> str:
        return (
            f"Vma({self.name or 'anon'}: {self.start:#x}..{self.end:#x}, "
            f"prot={self.prot!r}, flags={self.flags!r})"
        )

"""Per-frame metadata: the simulator's ``struct page``.

Paper §2 motivates O(1) memory with the observation that "the Linux PAGE
structure has 25 separate flags to track memory status and 38 fields", and
that maintaining this per 4 KiB frame makes many kernel paths linear in
memory size.  This module reproduces that baseline faithfully: a
:class:`PageFlags` set modeled on Linux's ``enum pageflags`` and a
:class:`FrameTable` that charges the cost-model's metadata-update price for
every touched frame — so benchmarks can measure exactly the linear costs
the paper argues against, and the file-only-memory path can show them
disappearing (one bit per block in a bitmap instead).

A scan (a reclaim aging pass, a run of the clock hand) is charged in
closed form: :meth:`FrameTable.scan_charge` prices ``n`` metadata updates
with one clock advance and one counter bump, the same simulated sum as
``n`` separate touches, and :meth:`FrameTable.scan_meta` hands out the
visited metas uncharged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.obs.metrics import MetricsRegistry


class PageFlags:
    """Frame status bits mirroring Linux's 25-flag ``enum pageflags`` (ints)."""

    LOCKED = 1 << 0
    ERROR = 1 << 1
    REFERENCED = 1 << 2
    UPTODATE = 1 << 3
    DIRTY = 1 << 4
    LRU = 1 << 5
    ACTIVE = 1 << 6
    SLAB = 1 << 7
    OWNER_PRIV = 1 << 8
    ARCH = 1 << 9
    RESERVED = 1 << 10
    PRIVATE = 1 << 11
    PRIVATE_2 = 1 << 12
    WRITEBACK = 1 << 13
    HEAD = 1 << 14
    SWAPCACHE = 1 << 15
    MAPPEDTODISK = 1 << 16
    RECLAIM = 1 << 17
    SWAPBACKED = 1 << 18
    UNEVICTABLE = 1 << 19
    MLOCKED = 1 << 20
    UNCACHED = 1 << 21
    HWPOISON = 1 << 22
    YOUNG = 1 << 23
    IDLE = 1 << 24

    @classmethod
    def flag_count(cls) -> int:
        """Number of distinct flags (the paper counts 25 in Linux)."""
        return sum(1 for name in vars(cls) if name.isupper())


@dataclass
class FrameMeta:
    """Metadata for one physical frame.

    A condensed ``struct page``: flags, reference/map counts, the owning
    mapping (file or anon) and offset within it, LRU linkage, and the
    buddy/slab private word.  Linux packs 38 fields into unions; we keep
    the ones kernel paths in this simulator actually read or write.
    """

    pfn: int
    flags: int = 0  # PageFlags bits
    refcount: int = 0
    mapcount: int = 0
    #: Owning object (an inode or anon-region token) and page index in it.
    mapping: Optional[object] = None
    index: int = 0
    #: Buddy order while free, or slab bookkeeping while PageFlags.SLAB.
    private: int = 0
    #: LRU list the frame is on ("active", "inactive", or "") — the state
    #: page-reclaim scans maintain and file-only memory eliminates.
    lru_list: str = ""

    def set_flag(self, flag: int) -> None:
        """Set ``flag`` on this frame."""
        self.flags |= flag

    def clear_flag(self, flag: int) -> None:
        """Clear ``flag`` on this frame."""
        self.flags &= ~flag

    def has_flag(self, flag: int) -> bool:
        """True if ``flag`` is set."""
        return bool(self.flags & flag)


class _FrameMetas(dict):
    """pfn -> :class:`FrameMeta`, creating a frame's entry on first lookup."""

    def __missing__(self, pfn: int) -> FrameMeta:
        if pfn < 0:
            raise ValueError(f"pfn must be non-negative, got {pfn}")
        meta = self[pfn] = FrameMeta(pfn=pfn)
        return meta


class FrameTable:
    """The kernel's frame-metadata array (Linux's ``mem_map``).

    Entries are created lazily but *every access charges*
    ``frame_meta_update_ns``, because on real hardware the array is
    physically resident and touching an entry is a cache line reference
    plus read-modify-write.  The charging is what makes per-page kernel
    work visibly linear in the benchmarks.  A table built without a
    clock, costs or counters keeps its own.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        costs: Optional[CostModel] = None,
        counters: Optional[MetricsRegistry] = None,
    ) -> None:
        self._clock: SimClock = clock or SimClock()
        self._costs: CostModel = costs or CostModel()
        self._counters: MetricsRegistry = counters or MetricsRegistry()
        self._frames = _FrameMetas()
        #: Cost models are frozen: the price is read once, not per charge.
        self._update_ns = self._costs.frame_meta_update_ns

    def touch(self, pfn: int) -> FrameMeta:
        """Metadata for frame ``pfn``, charging one metadata update.

        A one-frame scan: the same get-or-create as :meth:`scan_meta`
        and the same charge as :meth:`scan_charge`.
        """
        meta = self._frames[pfn]
        self.scan_charge(1)
        return meta

    def scan_meta(self, pfn: int) -> FrameMeta:
        """Metadata for frame ``pfn``, created on first use, uncharged.

        A scan's visits are paid for by :meth:`scan_charge`.
        """
        return self._frames[pfn]

    def scan_charge(self, n: int) -> None:
        """Charge ``n`` metadata updates: one advance, one bump.

        This is the primitive behind reclaim scans (clock hand, LRU
        aging), whose linear cost the paper's §3.1 eliminates: the clock
        moves ``n * frame_meta_update_ns``, exactly the sum of ``n``
        touches.  ``n == 0`` charges nothing and creates no counter.
        """
        if n:
            self._clock.advance(n * self._update_ns)
            self._counters.bump("frame_meta_touch", n)

    def peek(self, pfn: int) -> Optional[FrameMeta]:
        """Read metadata without charging (for tests/introspection)."""
        return self._frames.get(pfn)

    def get_ref(self, pfn: int) -> FrameMeta:
        """Increment the frame's refcount (charged)."""
        meta = self.touch(pfn)
        meta.refcount += 1
        return meta

    def put_ref(self, pfn: int) -> int:
        """Decrement refcount (charged); returns the new count."""
        meta = self.touch(pfn)
        if meta.refcount <= 0:
            raise ValueError(f"refcount underflow on pfn {pfn}")
        meta.refcount -= 1
        return meta.refcount

    def tracked_count(self) -> int:
        """Number of frames with instantiated metadata."""
        return len(self._frames)

    def items(self) -> Iterator[Tuple[int, FrameMeta]]:
        """(pfn, meta) pairs, uncharged, for assertions."""
        return iter(self._frames.items())

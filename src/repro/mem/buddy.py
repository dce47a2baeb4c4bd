"""Binary-buddy page-frame allocator over one physical region.

This is the baseline kernel allocator (Linux's ``alloc_pages``): free
frames are kept on per-order free lists; allocation of order *k* splits a
larger block if needed and frees coalesce with their buddy.  Costs mirror
the real fast/slow path: a hit on the exact order costs one
``frame_alloc_ns``; every split adds ``buddy_split_ns``.

The paper's §3.1 notes that "Linux manages pages in the buddy allocator,
but does not aggressively merge pages, so there may be contiguity present
that is not available for use" and suggests slab-style extent allocation
instead — the comparison appears in the extent-allocation ablation bench.

The host charges once per call: :meth:`BuddyAllocator.alloc` advances
the clock once by ``frame_alloc_ns`` plus its splits' ``buddy_split_ns``,
and :meth:`~BuddyAllocator.free` and :meth:`~BuddyAllocator.free_many`
share one block-free core that tallies ``buddy_free`` and
``buddy_merge`` and bumps each once per call.  The simulated clock and
counters come out exactly as one charge per block and per split.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.errors import OutOfMemoryError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.lint import complexity, o1
from repro.mem.physical import MemoryRegion
from repro.obs.metrics import MetricsRegistry
from repro.units import PAGE_SIZE


class BuddyAllocator:
    """Buddy allocator managing the frames of a single region.

    Orders run from 0 (one 4 KiB frame) to ``max_order`` inclusive
    (Linux's default ``MAX_ORDER - 1`` is 10, i.e. 4 MiB blocks).  An
    allocator built without a clock, costs or counters keeps its own.
    """

    def __init__(
        self,
        region: MemoryRegion,
        max_order: int = 10,
        clock: Optional[SimClock] = None,
        costs: Optional[CostModel] = None,
        counters: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_order < 0:
            raise ValueError(f"max_order must be >= 0, got {max_order}")
        self._region = region
        #: Read once: ``MemoryRegion.first_pfn`` is a computed property.
        self._first_pfn = region.first_pfn
        self._max_order = max_order
        self._clock: SimClock = clock or SimClock()
        self._costs: CostModel = costs or CostModel()
        self._counters: MetricsRegistry = counters or MetricsRegistry()
        self._free_lists: List[Set[int]] = [set() for _ in range(max_order + 1)]
        #: pfn -> order for blocks handed out (needed to free by pfn alone).
        self._allocated: Dict[int, int] = {}
        #: Frames permanently removed from service (RAS retirement); they
        #: are carried in ``_allocated`` at order 0 so the region still
        #: tiles, but can never be freed or handed out again.
        self._retired: Set[int] = set()
        self._free_frames = 0
        self._seed_free_lists()

    def _seed_free_lists(self) -> None:
        """Carve the region into maximal aligned blocks."""
        pfn = self._first_pfn
        remaining = self._region.frame_count
        while remaining > 0:
            order = min(
                self._max_order,
                remaining.bit_length() - 1,
                (pfn & -pfn).bit_length() - 1 if pfn else self._max_order,
            )
            self._free_lists[order].add(pfn)
            pfn += 1 << order
            remaining -= 1 << order
        self._free_frames = self._region.frame_count

    # ------------------------------------------------------------------
    # Properties / helpers
    # ------------------------------------------------------------------
    @property
    def region(self) -> MemoryRegion:
        """The physical region this allocator manages."""
        return self._region

    @property
    def max_order(self) -> int:
        """Largest allocation order supported."""
        return self._max_order

    @property
    def free_frames(self) -> int:
        """Number of free 4 KiB frames."""
        return self._free_frames

    def _describe(self) -> str:
        """Region name for error messages (falls back to its address)."""
        return self._region.name or f"{self._region.start:#x}"

    @staticmethod
    @o1(note="bit_length, no search")
    def order_for_pages(npages: int) -> int:
        """Smallest order whose block covers ``npages`` frames."""
        if npages <= 0:
            raise ValueError(f"npages must be positive, got {npages}")
        return (npages - 1).bit_length()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    @complexity("log n", note="<= max_order splits; exact-order hits are O(1)")
    def alloc(self, order: int = 0) -> int:
        """Allocate a block of 2**order frames; returns its first PFN."""
        if not 0 <= order <= self._max_order:
            raise ValueError(
                f"order {order} outside supported range 0..{self._max_order}"
            )
        chaos = self._counters.chaos
        if chaos is not None and chaos.hit("buddy.alloc") == "error":
            raise OutOfMemoryError(
                f"chaos: injected exhaustion in region {self._describe()}"
            )
        source = order
        # o1: allow(flow-bounded) -- climbs at most max_order orders, the declared log factor
        while source <= self._max_order and not self._free_lists[source]:
            source += 1
        if source > self._max_order:
            raise OutOfMemoryError(
                f"no free block of order {order} in region "
                f"{self._describe()} "
                f"({self._free_frames} frames free but fragmented)"
            )
        pfn = self._free_lists[source].pop()
        splits = source - order
        # Split down to the requested order, freeing the upper halves.
        # o1: allow(flow-bounded) -- at most max_order splits, the declared log factor
        while source > order:
            source -= 1
            self._free_lists[source].add(pfn + (1 << source))
        costs = self._costs
        self._clock.advance(costs.frame_alloc_ns + splits * costs.buddy_split_ns)
        counters = self._counters
        counters.bump("buddy_alloc")
        if splits:
            counters.bump("buddy_split", splits)
        self._allocated[pfn] = order
        self._free_frames -= 1 << order
        san = counters.sanitize
        if san is not None:
            san.on_frame_alloc(self, pfn, order)
        qos = counters.qos
        if qos is not None:
            qos.on_frames_alloc(pfn, 1 << order)
        return pfn

    @complexity("log n", note="one power-of-two block, however many pages")
    def alloc_pages(self, npages: int) -> int:
        """Allocate a contiguous run covering ``npages`` frames.

        Rounds up to a power of two, like the kernel's higher-order
        allocations; the extra frames are tracked as part of the block
        (space traded for time, exactly the paper's O(1) bargain).
        """
        return self.alloc(self.order_for_pages(npages))

    # ------------------------------------------------------------------
    # Freeing
    # ------------------------------------------------------------------
    @o1(note="frees charge once; the merge chain charges 0 ns")
    def free(self, pfn: int) -> None:
        """Free a previously allocated block, coalescing with buddies."""
        self._free_blocks((pfn,))

    @o1(note="one charged update for the whole batch; per-block work charges 0 ns")
    def free_many(self, pfns: Sequence[int]) -> None:
        """Region free: return a batch of blocks for one charged update.

        Models a scatter-gather free interface — the allocator ingests
        the whole list in a single bookkeeping pass, so the simulated
        cost is one ``frame_free_ns`` however many blocks come back
        (the per-block ``buddy_free`` events still count).  This is
        what lets :meth:`CryptoErase.return_frames
        <repro.core.o1.zeroing.CryptoErase.return_frames>` be O(1) like
        the key destruction itself.
        """
        self._free_blocks(pfns)

    @o1(note="one frame_free_ns per call; merge chains capped at max_order steps")
    def _free_blocks(self, pfns: Sequence[int]) -> None:
        """The block-free core: ledger pop, coalesce, free-list insert.

        The first block charges ``frame_free_ns`` right after its QoS
        uncharge; the rest charge 0 ns.  ``buddy_free`` and
        ``buddy_merge`` are tallied and bumped once each on the way out,
        even when a bad pfn raises partway, so the counters hold the
        blocks freed before it.  An armed sanitizer may count a violation
        of its own mid-batch, so the tallies are settled before each of
        its hooks: every counter keeps the creation order that one bump
        per block gave it.
        """
        san = self._counters.sanitize
        qos = self._counters.qos
        free_lists = self._free_lists
        allocated = self._allocated
        retired = self._retired
        first = self._first_pfn
        max_order = self._max_order
        charge_ns = self._costs.frame_free_ns
        freed = merges = 0
        try:
            # o1: allow(flow-bounded) -- the batch charges one frame_free_ns, at its first block; per-block work 0 ns
            for pfn in pfns:
                if san is not None:
                    if freed:
                        self._count_frees(freed, merges)
                        freed = merges = 0
                    san.on_frame_free(self, pfn)
                if pfn in retired:
                    raise ValueError(
                        f"pfn {pfn} is retired and can never be freed"
                    )
                order = allocated.pop(pfn, None)
                if order is None:
                    raise ValueError(
                        f"pfn {pfn} was not allocated by this allocator"
                    )
                if qos is not None:
                    qos.on_frames_free(pfn)
                if charge_ns:
                    self._clock.advance(charge_ns)
                    charge_ns = 0
                freed += 1
                self._free_frames += 1 << order
                # o1: allow(flow-bounded) -- merge chain is capped at max_order steps
                while order < max_order:
                    buddy = first + ((pfn - first) ^ (1 << order))
                    if buddy not in free_lists[order]:
                        break
                    free_lists[order].remove(buddy)
                    if buddy < pfn:
                        pfn = buddy
                    order += 1
                    merges += 1
                free_lists[order].add(pfn)
        finally:
            self._count_frees(freed, merges)

    def _count_frees(self, freed: int, merges: int) -> None:
        """Bump the free and merge tallies of a batch (none: no keys)."""
        if freed:
            self._counters.bump("buddy_free", freed)
            if merges:
                self._counters.bump("buddy_merge", merges)

    # ------------------------------------------------------------------
    # Retirement (RAS)
    # ------------------------------------------------------------------
    @complexity("log n", note="<= max_order splits, like alloc")
    def retire(self, pfn: int) -> bool:
        """Permanently remove one *free* frame from service.

        Finds the free block containing ``pfn``, splits it down keeping
        every sibling half free, and quarantines the frame as an
        order-0 allocation that :meth:`free` refuses and :meth:`alloc`
        can never return.  Returns False when the frame is currently
        allocated — the caller (the patrol scrubber) retries after it
        frees.  Retiring an already-retired frame is a no-op.
        """
        first = self._first_pfn
        if not first <= pfn < first + self._region.frame_count:
            raise ValueError(
                f"pfn {pfn:#x} outside region {self._describe()}"
            )
        if pfn in self._retired:
            return True
        # o1: allow(flow-bounded) -- probes max_order + 1 orders, the declared log factor
        for order in range(self._max_order + 1):
            start = first + (((pfn - first) >> order) << order)
            if start not in self._free_lists[order]:
                continue
            self._free_lists[order].remove(start)
            # Split down, keeping every half that does not contain pfn.
            # o1: allow(flow-bounded) -- at most max_order splits, the declared log factor
            while order > 0:
                order -= 1
                half = 1 << order
                if pfn < start + half:
                    self._free_lists[order].add(start + half)
                else:
                    self._free_lists[order].add(start)
                    start += half
            self._allocated[pfn] = 0
            self._retired.add(pfn)
            self._free_frames -= 1
            self._counters.bump("buddy_retire")
            san = self._counters.sanitize
            if san is not None:
                san.on_frame_retired(self, pfn)
            return True
        return False  # frame is inside a live allocation: busy

    @property
    def retired_frames(self) -> frozenset:
        """Frames permanently retired from this region."""
        return frozenset(self._retired)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def free_blocks_by_order(self) -> Dict[int, int]:
        """order -> number of free blocks (buddyinfo)."""
        return {
            order: len(blocks)
            for order, blocks in enumerate(self._free_lists)
            if blocks
        }

    def largest_free_order(self) -> Optional[int]:
        """Largest order with at least one free block, or None if full."""
        for order in range(self._max_order, -1, -1):
            if self._free_lists[order]:
                return order
        return None

    def is_allocated(self, pfn: int) -> bool:
        """True if ``pfn`` is the start of a live allocation."""
        return pfn in self._allocated

    def fragmentation_index(self) -> float:
        """0.0 = perfectly coalesced, 1.0 = maximally fragmented.

        Defined as 1 - (largest free block / total free frames); 0 when
        nothing is free.
        """
        if self._free_frames == 0:
            return 0.0
        largest = self.largest_free_order()
        if largest is None:
            return 0.0
        return 1.0 - (1 << largest) / self._free_frames

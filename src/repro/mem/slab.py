"""Slab allocator for fixed-size objects (Bonwick-style).

Two roles in this reproduction.  First, it is the kernel-object allocator
the baseline uses for VMAs, inodes and page-table bookkeeping.  Second, the
paper's §3.1 proposes slab techniques as the way to allocate *physical
memory extents* with very little overhead ("we propose using techniques
from heaps, such as slab allocators, to manage physical memory"); the
file-only-memory extent allocator builds on this cache.

Slabs are backed by buddy blocks; a cache grows one slab at a time and
returns whole slabs to the buddy when they empty.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import OutOfMemoryError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.lint import complexity, o1
from repro.mem.buddy import BuddyAllocator
from repro.obs.metrics import MetricsRegistry
from repro.units import PAGE_SIZE


class _Slab:
    """One backing block carved into equal-size object slots.

    Free slots are a LIFO stack so a just-freed (cache-warm) slot is the
    next one handed out, as real slab allocators do.
    """

    __slots__ = ("base_pfn", "order", "free_slots", "total_slots")

    def __init__(self, base_pfn: int, order: int, total_slots: int) -> None:
        self.base_pfn = base_pfn
        self.order = order
        self.total_slots = total_slots
        self.free_slots: List[int] = list(range(total_slots - 1, -1, -1))


class SlabCache:
    """Cache of fixed-size objects carved from buddy pages.

    A cache built without a clock, costs or counters keeps its own.

    >>> # doctest setup elided; see tests/test_mem_slab.py
    """

    def __init__(
        self,
        name: str,
        object_size: int,
        buddy: BuddyAllocator,
        slab_order: int = 0,
        clock: Optional[SimClock] = None,
        costs: Optional[CostModel] = None,
        counters: Optional[MetricsRegistry] = None,
    ) -> None:
        if object_size <= 0:
            raise ValueError(f"object_size must be positive, got {object_size}")
        slab_bytes = PAGE_SIZE << slab_order
        if object_size > slab_bytes:
            raise ValueError(
                f"object_size {object_size} exceeds slab of {slab_bytes} bytes"
            )
        self.name = name
        self._object_size = object_size
        self._buddy = buddy
        self._slab_order = slab_order
        self._slots_per_slab = slab_bytes // object_size
        self._clock: SimClock = clock or SimClock()
        self._costs: CostModel = costs or CostModel()
        self._counters: MetricsRegistry = counters or MetricsRegistry()
        self._slabs: Dict[int, _Slab] = {}  # base_pfn -> slab
        self._partial: List[int] = []  # base_pfns with free slots
        #: address -> base_pfn, for O(1) free.
        self._live: Dict[int, int] = {}

    @property
    def object_size(self) -> int:
        """Size in bytes of each object slot."""
        return self._object_size

    @property
    def live_objects(self) -> int:
        """Number of currently allocated objects."""
        return len(self._live)

    @property
    def slab_count(self) -> int:
        """Number of backing slabs currently held."""
        return len(self._slabs)

    def _charge(self, event: str) -> None:
        # Slab fast path is a couple of pointer operations: price it as a
        # fraction of the buddy fast path.
        self._clock.advance(self._costs.frame_alloc_ns // 4)
        self._counters.bump(event)

    @o1(note="LIFO slot pop; growth is amortized over a whole slab")
    def alloc(self) -> int:
        """Allocate one object; returns its physical address."""
        self._charge("slab_alloc")
        if not self._partial:
            # o1: allow(flow-bounded) -- slow path runs once per slab of allocations
            self._grow()
        base_pfn = self._partial[-1]
        slab = self._slabs[base_pfn]
        slot = slab.free_slots.pop()
        if not slab.free_slots:
            self._partial.pop()
        addr = base_pfn * PAGE_SIZE + slot * self._object_size
        self._live[addr] = base_pfn
        return addr

    @o1(note="slot push; empty-slab reaping is one buddy free")
    def free(self, addr: int) -> None:
        """Return the object at ``addr`` to the cache."""
        base_pfn = self._live.pop(addr, None)
        if base_pfn is None:
            raise ValueError(f"address {addr:#x} not allocated from cache {self.name!r}")
        self._charge("slab_free")
        slab = self._slabs[base_pfn]
        slot = (addr - base_pfn * PAGE_SIZE) // self._object_size
        was_full = not slab.free_slots
        slab.free_slots.append(slot)
        if was_full:
            self._partial.append(base_pfn)
        if len(slab.free_slots) == slab.total_slots:
            self._reap(base_pfn)

    @complexity("log n", note="one buddy alloc with bounded retry")
    def _grow(self, attempts: int = 3) -> None:
        """Add one slab from the buddy allocator, with bounded retry.

        Transient exhaustion (reclaim racing the allocation) is retried
        up to ``attempts`` times before giving up — the injected-fault
        hardening the chaos explorer exercises.
        """
        chaos = self._counters.chaos
        last_error: Optional[OutOfMemoryError] = None
        # o1: allow(flow-bounded) -- retry cap is a small constant, not operand-sized
        for attempt in range(attempts):
            if attempt:
                self._counters.bump("slab_grow_retry")
            try:
                if chaos is not None and chaos.hit("slab.grow") == "error":
                    raise OutOfMemoryError(
                        f"chaos: injected exhaustion growing {self.name!r}"
                    )
                base_pfn = self._buddy.alloc(self._slab_order)
                break
            except OutOfMemoryError as exc:
                last_error = exc
        else:
            raise OutOfMemoryError(
                f"slab cache {self.name!r} cannot grow: {last_error}"
            ) from last_error
        self._slabs[base_pfn] = _Slab(base_pfn, self._slab_order, self._slots_per_slab)
        self._partial.append(base_pfn)
        qos = self._counters.qos
        if qos is not None:
            # Kernel-memory attribution (cgroup v2 kmem): the buddy
            # charge above billed the frames; this tags them as slab.
            qos.on_slab_grow(1 << self._slab_order)

    def _reap(self, base_pfn: int) -> None:
        """Return an empty slab to the buddy allocator."""
        del self._slabs[base_pfn]
        self._partial.remove(base_pfn)
        self._buddy.free(base_pfn)
        qos = self._counters.qos
        if qos is not None:
            qos.on_slab_reap(1 << self._slab_order)

    def stats(self) -> Dict[str, int]:
        """Occupancy statistics (slabinfo-style)."""
        capacity = len(self._slabs) * self._slots_per_slab
        return {
            "live_objects": len(self._live),
            "capacity": capacity,
            "slabs": len(self._slabs),
            "slots_per_slab": self._slots_per_slab,
            "wasted_slots": capacity - len(self._live),
        }

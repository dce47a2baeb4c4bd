"""Pre-zeroed frame pool: the O(1) erase strategy (paper §3.1).

Storing volatile data in persistent memory means frames must be zeroed
before reuse "for security purposes", and the paper notes this "is
currently a linear-time operation and suggests the need for new techniques
to efficiently erase memory in constant time".

The pool implements the standard answer: keep a reserve of frames zeroed
*off the critical path*.  Foreground allocation takes a pre-zeroed frame in
O(1); zeroing work is charged to a separate background-time account so
experiments can report both the foreground win and the true total work
(the space-for-time ledger the paper's principle requires).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import OutOfMemoryError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.lint import complexity, o1
from repro.mem.buddy import BuddyAllocator
from repro.obs.metrics import MetricsRegistry
from repro.units import PAGE_SIZE


class ZeroPool:
    """Reserve of pre-zeroed 4 KiB frames with background refill.

    Parameters
    ----------
    buddy:
        Source of raw frames.
    target_size:
        Frames the pool tries to keep ready; sizing it is the
        space-for-time knob studied in the zero-pool ablation bench.
    clock, costs, counters:
        The machine's; a pool built without them keeps its own, so
        standalone use charges no one else's clock or registry.
    """

    def __init__(
        self,
        buddy: BuddyAllocator,
        target_size: int,
        clock: Optional[SimClock] = None,
        costs: Optional[CostModel] = None,
        counters: Optional[MetricsRegistry] = None,
    ) -> None:
        if target_size < 0:
            raise ValueError(f"target_size must be >= 0, got {target_size}")
        self._buddy = buddy
        self._target_size = target_size
        self._clock: SimClock = clock or SimClock()
        self._costs: CostModel = costs or CostModel()
        self._counters: MetricsRegistry = counters or MetricsRegistry()
        self._pool: Deque[int] = deque()
        #: Simulated ns of zeroing done off the critical path.
        self._background_ns = 0
        #: Simulated ns of zeroing that had to happen in the foreground
        #: because the pool was empty.
        self._foreground_zero_ns = 0

    # ------------------------------------------------------------------
    # Foreground path
    # ------------------------------------------------------------------
    @o1(note="popleft when stocked; misses fall back to foreground zeroing")
    def take(self) -> int:
        """Take one zeroed frame.

        O(1) when the pool is stocked.  If the pool is empty, falls back
        to allocate-and-zero in the foreground (the linear baseline),
        which the ledger records separately.
        """
        san = self._counters.sanitize
        if self._pool:
            pfn = self._pool.popleft()
            self._counters.bump("zeropool_hit")
            if san is not None:
                # The fast path skips zeroing: the frame must be clean.
                san.on_zeropool_take(pfn)
            qos = self._counters.qos
            if qos is not None:
                # The charge moves from the pool (root) to the taker.
                qos.on_frame_claimed(pfn)
            return pfn
        self._counters.bump("zeropool_miss")
        # o1: allow(flow-bounded) -- pool-miss fallback; the stocked fast path never gets here
        pfn = self._buddy.alloc(0)
        zero_ns = self._zero_cost()
        self._clock.advance(zero_ns)
        self._foreground_zero_ns += zero_ns
        if san is not None:
            san.on_frames_zeroed((pfn,))
        return pfn

    @o1(note="one buddy free")
    def give_back(self, pfn: int) -> None:
        """Return a dirty frame to the buddy (it must be re-zeroed later)."""
        san = self._counters.sanitize
        if san is not None:
            san.on_frames_tainted((pfn,))
        self._buddy.free(pfn)

    # ------------------------------------------------------------------
    # Background path
    # ------------------------------------------------------------------
    @complexity("n", note="background work, off the foreground clock")
    def refill(self, max_frames: Optional[int] = None) -> int:
        """Zero frames in the background up to the target; returns count.

        Runs "between requests": zeroing cost accrues to the background
        ledger, not the foreground clock, modeling a kzerod-style thread
        on an otherwise idle core.
        """
        added = 0
        while len(self._pool) < self._target_size:
            if max_frames is not None and added >= max_frames:
                break
            try:
                # o1: allow(flow-bounded) -- order-0 alloc per refilled frame; the loop is the declared n
                pfn = self._buddy.alloc(0)
            except OutOfMemoryError:
                break
            self._background_ns += self._zero_cost()
            self._pool.append(pfn)
            san = self._counters.sanitize
            if san is not None:
                san.on_frames_zeroed((pfn,))
            qos = self._counters.qos
            if qos is not None:
                # Pooled frames park on the root cgroup: background
                # zeroing is not billed to whoever triggered the refill.
                qos.on_frame_pooled(pfn)
            added += 1
        if added:
            self._counters.bump("zeropool_refill_frames", added)
        return added

    def _zero_cost(self) -> int:
        return self._costs.zero_page_ns(PAGE_SIZE)

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    @property
    def available(self) -> int:
        """Zeroed frames ready to hand out."""
        return len(self._pool)

    @property
    def target_size(self) -> int:
        """Frames the pool aims to keep stocked."""
        return self._target_size

    def ledger(self) -> Dict[str, int]:
        """Where zeroing time went: foreground vs background ns."""
        return {
            "background_zero_ns": self._background_ns,
            "foreground_zero_ns": self._foreground_zero_ns,
            "pooled_frames": len(self._pool),
            "reserved_bytes": len(self._pool) * PAGE_SIZE,
        }

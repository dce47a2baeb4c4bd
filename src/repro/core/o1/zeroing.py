"""Constant-time erase strategies for reused persistent memory.

Paper §3.1: "for security purposes memory must be zeroed out before being
reused ... This is currently a linear-time operation and suggests the need
for new techniques to efficiently erase memory in constant time."

Three strategies are implemented against a common interface so the erase
ablation (bench E9) can sweep them:

* :class:`EagerZeroing` — the baseline: zero at allocation time, linear in
  the allocation size, on the critical path.
* :class:`PooledZeroing` — keep a reserve of pre-zeroed frames filled by a
  background thread; foreground cost O(1) while the pool holds.
* :class:`CryptoErase` — encrypt each region under its own key and erase
  by destroying the key: truly O(1) foreground *and* total work,
  at the price of a per-key table and encryption hardware (modeled as a
  small constant per-access overhead, not charged here).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

from repro.errors import OutOfMemoryError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.lint import complexity, o1
from repro.mem.buddy import BuddyAllocator
from repro.mem.zeropool import ZeroPool
from repro.obs.metrics import MetricsRegistry
from repro.units import PAGE_SIZE


@complexity("log n", note="one buddy alloc; the retry cap is a small constant")
def _alloc_with_retry(
    buddy: BuddyAllocator,
    order: int,
    counters: MetricsRegistry,
    attempts: int = 3,
) -> int:
    """Buddy allocation with bounded retry on transient exhaustion.

    Erase strategies sit on the allocation critical path, so an
    `OutOfMemoryError` there (reclaim racing the request, or an injected
    fault) is retried a bounded number of times before propagating.
    """
    last_error: Optional[Exception] = None
    # o1: allow(flow-bounded) -- attempts is a constant retry budget
    for attempt in range(attempts):
        if attempt:
            counters.bump("zero_alloc_retry")
        try:
            return buddy.alloc(order)
        except OutOfMemoryError as exc:
            last_error = exc
    assert last_error is not None
    raise last_error


class ZeroingStrategy(abc.ABC):
    """Hands out frames guaranteed to read as zero."""

    name: str = "abstract"

    @abc.abstractmethod
    def take_frames(self, count: int) -> List[int]:
        """Allocate ``count`` zero-guaranteed frames (foreground cost)."""

    @abc.abstractmethod
    def return_frames(self, pfns: List[int]) -> None:
        """Give frames back; they may hold secrets until re-zeroed."""

    @abc.abstractmethod
    def background_ns(self) -> int:
        """Total simulated ns of off-critical-path work so far."""


class EagerZeroing(ZeroingStrategy):
    """Baseline: allocate then zero inline — O(size) on the critical path."""

    name = "eager"

    def __init__(
        self,
        buddy: BuddyAllocator,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
    ) -> None:
        self._buddy = buddy
        self._clock = clock
        self._costs = costs
        self._counters = counters

    @complexity("n", note="the linear baseline: zero every frame inline")
    def take_frames(self, count: int) -> List[int]:
        chaos = self._counters.chaos
        if chaos is not None:
            chaos.hit("zeroing.take")
        pfns = [
            # o1: allow(flow-bounded) -- order-0 allocs hit the exact free list; the log tail is the split chain
            _alloc_with_retry(self._buddy, 0, self._counters)
            for _ in range(count)
        ]
        self._clock.advance(self._costs.zero_page_ns(PAGE_SIZE) * count)
        self._counters.bump("zero_eager_pages", count)
        san = self._counters.sanitize
        if san is not None:
            san.on_frames_zeroed(pfns)
        return pfns

    @complexity("n", note="per-frame buddy frees")
    def return_frames(self, pfns: List[int]) -> None:
        san = self._counters.sanitize
        if san is not None:
            # Returned frames hold whatever the caller wrote: dirty.
            san.on_frames_tainted(pfns)
        for pfn in pfns:
            self._buddy.free(pfn)

    def background_ns(self) -> int:
        return 0


class PooledZeroing(ZeroingStrategy):
    """Pre-zeroed pool: O(1) foreground while the reserve holds."""

    name = "pooled"

    def __init__(self, pool: ZeroPool) -> None:
        self._pool = pool

    @complexity("n", note="O(1) per frame while the pool holds")
    def take_frames(self, count: int) -> List[int]:
        return [self._pool.take() for _ in range(count)]

    @complexity("n", note="per-frame pool returns")
    def return_frames(self, pfns: List[int]) -> None:
        for pfn in pfns:
            self._pool.give_back(pfn)

    def replenish(self) -> int:
        """Run the background zeroer (between requests)."""
        return self._pool.refill()

    def background_ns(self) -> int:
        return self._pool.ledger()["background_zero_ns"]


class CryptoErase(ZeroingStrategy):
    """Key-destruction erase: O(1) regardless of region size.

    Each handed-out batch of frames is notionally encrypted under a fresh
    key; returning the batch destroys the key, making the old contents
    unrecoverable without touching a single byte.  Foreground costs are a
    key allocation/destruction constant.  The memory controller's
    per-access AES latency is assumed hidden in the pipeline (as in
    hardware proposals for memory encryption), so no per-access charge.
    """

    name = "crypto"

    #: Key-table update: generate/install or revoke one key.
    KEY_OP_NS = 120

    def __init__(
        self,
        buddy: BuddyAllocator,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
    ) -> None:
        self._buddy = buddy
        self._clock = clock
        self._costs = costs
        self._counters = counters
        #: first pfn of each live batch -> its key id (simulated).
        self._keys: Dict[int, int] = {}
        self._next_key = 1

    @complexity("n", note="key install is O(1); allocation stays per-frame")
    def take_frames(self, count: int) -> List[int]:
        chaos = self._counters.chaos
        if chaos is not None:
            chaos.hit("zeroing.take")
        pfns = [
            # o1: allow(flow-bounded) -- order-0 allocs hit the exact free list; the log tail is the split chain
            _alloc_with_retry(self._buddy, 0, self._counters)
            for _ in range(count)
        ]
        self._clock.advance(self.KEY_OP_NS)
        self._counters.bump("crypto_key_create")
        if pfns:
            self._keys[pfns[0]] = self._next_key
            self._next_key += 1
        san = self._counters.sanitize
        if san is not None:
            # A fresh key makes the batch read as zeros (fresh ciphertext).
            san.on_frames_zeroed(pfns)
        return pfns

    @o1(note="one key destroy + one batched region free")
    def return_frames(self, pfns: List[int]) -> None:
        if not pfns:
            return
        self._keys.pop(pfns[0], None)
        self._clock.advance(self.KEY_OP_NS)
        self._counters.bump("crypto_key_destroy")
        san = self._counters.sanitize
        if san is not None:
            # Key gone: old contents are unrecoverable garbage, not zeros.
            san.on_frames_tainted(pfns)
        self._buddy.free_many(pfns)

    @property
    def live_keys(self) -> int:
        """Keys currently installed (the space cost of this strategy)."""
        return len(self._keys)

    def background_ns(self) -> int:
        return 0

"""Swap device: the disk-backed safety valve of the scarce-memory baseline.

The paper's persistence-management argument (§3.1/§4.1) is that with large
persistent memory "there will generally be no swapping to disk", so all
the machinery here — slot allocation, dirty-page writeback, major-fault
reads — simply disappears.  The device exists so the baseline reclaim
benches can pay realistic costs for what the O(1) design eliminates.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.errors import OutOfMemoryError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.obs.metrics import MetricsRegistry


class SwapDevice:
    """Fixed-capacity page store with NVMe-class latencies."""

    def __init__(
        self,
        capacity_pages: int,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
    ) -> None:
        if capacity_pages <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_pages}")
        self._capacity = capacity_pages
        self._clock = clock
        self._costs = costs
        self._counters = counters
        self._next_slot = 0
        self._free_slots: Set[int] = set()
        self._used: Set[int] = set()

    @property
    def capacity_pages(self) -> int:
        """Total slots on the device."""
        return self._capacity

    @property
    def used_slots(self) -> int:
        """Slots currently holding a page."""
        return len(self._used)

    def write_page(self) -> int:
        """Write one page out; returns its slot id."""
        if self._free_slots:
            slot = self._free_slots.pop()
        elif self._next_slot < self._capacity:
            slot = self._next_slot
            self._next_slot += 1
        else:
            raise OutOfMemoryError(
                f"swap device full ({self._capacity} pages)"
            )
        self._used.add(slot)
        self._clock.advance(self._costs.swap_write_page_ns)
        self._counters.bump("swap_out")
        return slot

    def read_page(self, slot: int) -> None:
        """Read one page back in (major fault); frees the slot."""
        if slot not in self._used:
            raise ValueError(f"swap slot {slot} holds no page")
        self._used.remove(slot)
        self._free_slots.add(slot)
        self._clock.advance(self._costs.swap_read_page_ns)
        self._counters.bump("swap_in")

    def free_slot(self, slot: int) -> None:
        """Discard a swapped page without reading it (process exit)."""
        if slot in self._used:
            self._used.remove(slot)
            self._free_slots.add(slot)

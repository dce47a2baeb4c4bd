"""Cache-hierarchy model used to price individual memory references.

The model tracks which physical cache lines are resident in an L1-like
first level and an LLC-like second level, both LRU.  It exists because the
paper's figures hinge on locality effects: a page-table walk over *warm*
page-table nodes costs a handful of nanoseconds, while demand faults touch
cold kernel structures and pay DRAM/NVM latency.  Pricing every reference
through the same cache model makes those effects emerge rather than being
hard-coded.

The model is intentionally simple — fully shared, physically indexed,
no associativity conflicts beyond capacity — because the reproduction
targets the *shape* of the paper's curves, not cycle accuracy.

A page walk prices its whole path with one :meth:`CacheModel.reference_lines`
call: the same per-line L1/LLC updates, in the same order, as one
:meth:`CacheModel.reference` per line, but one clock advance and one
counter bump per outcome instead of one of each per line.  Both methods
share the miss-fill helper, so there is one copy of the fill logic.  A
fault's retry walk reads its path again through
:meth:`CacheModel.reference_again`, which skips both LRUs when the path
is still the L1's most recent lines.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional

from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.lint.decorators import allocbound, allocfree, o1
from repro.obs.metrics import MetricsRegistry
from repro.units import CACHE_LINE


class CacheModel:
    """Two-level LRU cache over physical line addresses.

    Parameters
    ----------
    clock, costs, counters:
        Shared simulator plumbing; every :meth:`reference` advances the
        clock by the reference's latency.
    tech_of:
        Callback mapping a physical address to its backing
        :class:`MemoryTechnology`, normally provided by
        :class:`repro.mem.physical.PhysicalMemory`.
    l1_lines, llc_lines:
        Capacities in cache lines (defaults: 32 KiB L1, 16 MiB LLC).
    """

    def __init__(
        self,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
        tech_of: Optional[Callable[[int], MemoryTechnology]] = None,
        l1_lines: int = 512,
        llc_lines: int = 262144,
    ) -> None:
        if l1_lines <= 0 or llc_lines <= 0:
            raise ValueError("cache capacities must be positive")
        self._clock = clock
        self._costs = costs
        self._counters = counters
        self._tech_of = tech_of or (lambda _pa: MemoryTechnology.DRAM)
        self._l1_lines = l1_lines
        self._llc_lines = llc_lines
        # OrderedDict as LRU: most recently used at the end.
        self._l1: "OrderedDict[int, None]" = OrderedDict()
        self._llc: "OrderedDict[int, None]" = OrderedDict()

    # ------------------------------------------------------------------
    # Core operation
    # ------------------------------------------------------------------
    @allocfree(note="mask, probe, move-to-end: no per-reference objects")
    def reference(self, paddr: int, write: bool = False) -> int:
        """Reference one cache line at physical address ``paddr``.

        Advances the clock by the latency of the reference and returns it.
        Writes are priced like reads on hit (write-back caches absorb the
        store) but pay the technology's write latency on miss.
        """
        line = paddr & ~(CACHE_LINE - 1)
        if line in self._l1:
            self._l1.move_to_end(line)
            cost = self._costs.l1_hit_ns
            self._counters.bump("cache_l1_hit")
        elif line in self._llc:
            self._llc.move_to_end(line)
            self._install_l1(line)
            cost = self._costs.llc_hit_ns
            self._counters.bump("cache_llc_hit")
        else:
            cost = self._fill(line, write)
            self._counters.bump("cache_miss")
        self._clock.advance(cost)
        return cost

    @o1(note="one probe per line; a walk's path is at most 35 lines")
    @allocfree(note="probes and move-to-ends; tallies live in locals")
    def reference_lines(self, lines: List[int]) -> int:
        """Read each line of ``lines`` in order, priced as one batch.

        Makes exactly the L1/LLC updates one :meth:`reference` per line
        would, in the same order, then advances the clock once by the
        summed latency and bumps each counter that moved once by its
        tally.  ``lines`` must already be line-aligned.  Returns the
        summed latency.
        """
        l1 = self._l1
        llc = self._llc
        l1_lines = self._l1_lines
        l1_hits = llc_hits = misses = 0
        miss_cost = 0
        # o1: allow(flow-bounded) -- a walk's lines: (levels + 1) * (host levels + 1) - 1 <= 35
        for line in lines:
            if line in l1:
                l1.move_to_end(line)
                l1_hits += 1
            elif line in llc:
                # Promote: refresh it in the LLC, install it in the L1.
                llc.move_to_end(line)
                l1[line] = None
                if len(l1) > l1_lines:
                    l1.popitem(last=False)
                llc_hits += 1
            else:
                miss_cost += self._fill(line, False)
                misses += 1
        costs = self._costs
        counters = self._counters
        cost = l1_hits * costs.l1_hit_ns + llc_hits * costs.llc_hit_ns + miss_cost
        # A zero bump would create the key: bump only what moved.
        if l1_hits:
            counters.bump("cache_l1_hit", l1_hits)
        if llc_hits:
            counters.bump("cache_llc_hit", llc_hits)
        if misses:
            counters.bump("cache_miss", misses)
        self._clock.advance(cost)
        return cost

    @o1(note="one tail probe per line; a flat walk's path is at most 5 lines")
    @allocbound(2, note="two reverse iterators")
    def reference_again(self, lines: List[int]) -> int:
        """:meth:`reference_lines` for a path read again, as a fault's
        retry walk reads its failed walk's path.

        While ``lines`` (distinct, as a flat walk's are) are still the
        L1's most recent lines in visit order, reading each in order hits
        and moves none: one clock advance and one ``cache_l1_hit`` bump
        price them, and neither LRU is touched.  Any other cache state
        goes through :meth:`reference_lines`.
        """
        tail = reversed(self._l1)
        # o1: allow(flow-bounded) -- a flat walk's lines: one per level, <= 5
        for line in reversed(lines):
            if next(tail, None) != line:
                return self.reference_lines(lines)
        count = len(lines)
        cost = count * self._costs.l1_hit_ns
        self._counters.bump("cache_l1_hit", count)
        self._clock.advance(cost)
        return cost

    def touch_range(self, paddr: int, size: int, write: bool = False) -> int:
        """Reference every line in ``[paddr, paddr + size)``; total cost."""
        if size <= 0:
            return 0
        start = paddr & ~(CACHE_LINE - 1)
        end = paddr + size
        total = 0
        for line in range(start, end, CACHE_LINE):
            total += self.reference(line, write=write)
        return total

    def warm_range(self, paddr: int, size: int) -> None:
        """Install lines of ``[paddr, paddr+size)`` into the LLC, free.

        Models data that was *just written* by another actor (e.g. the
        process that created and filled a file) without charging the
        measured region for it.  Lines land in the LLC only — the L1 is
        too small to survive between phases anyway.  The paper's
        measurement methodology reads files "after writing to the
        allocated pages first", which is exactly this state.
        """
        start = paddr & ~(CACHE_LINE - 1)
        for line in range(start, paddr + size, CACHE_LINE):
            self._install_llc(line)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Drop all cached lines (e.g. to model a cold start)."""
        self._l1.clear()
        self._llc.clear()

    def evict_range(self, paddr: int, size: int) -> None:
        """Invalidate all lines covering ``[paddr, paddr + size)``."""
        start = paddr & ~(CACHE_LINE - 1)
        for line in range(start, paddr + size, CACHE_LINE):
            self._l1.pop(line, None)
            self._llc.pop(line, None)

    def is_cached(self, paddr: int) -> bool:
        """True if the line holding ``paddr`` is resident at any level."""
        line = paddr & ~(CACHE_LINE - 1)
        return line in self._l1 or line in self._llc

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fill(self, line: int, write: bool) -> int:
        """Miss: install ``line`` at both levels; returns its media latency."""
        tech = self._tech_of(line)
        cost = self._costs.write_ns(tech) if write else self._costs.read_ns(tech)
        self._install_llc(line)
        self._install_l1(line)
        return cost

    def _install_l1(self, line: int) -> None:
        """Install ``line``, which the L1 does not hold, as its newest."""
        self._l1[line] = None
        if len(self._l1) > self._l1_lines:
            self._l1.popitem(last=False)

    def _install_llc(self, line: int) -> None:
        self._llc[line] = None
        self._llc.move_to_end(line)
        if len(self._llc) > self._llc_lines:
            self._llc.popitem(last=False)

"""Page-reclaim baselines: clock (second chance) and 2Q.

These are the algorithms the paper's §3.1 declares unnecessary under
file-only memory ("avoids the need for page reclamation algorithms (e.g.,
clock, 2-queue)").  Both are implemented faithfully enough to expose their
defining cost: *scanning* — on the simulated clock every page examined is
a charged ``FrameTable.touch``, so reclaiming under pressure is linear in
resident memory even when few pages are actually evicted.  Bench E10
contrasts this with file-granularity reclamation (delete one discardable
file, O(1) per file).

On the host the same sum is charged per pass or per run: an aging pass
charges its whole list at once and moves it in one splice, and a scan
counts the pages it examines and charges them (``reclaim_scanned`` plus
``FrameTable.scan_charge``) right before each eviction — the only call
that leaves the reclaimer — and before returning.  Every hook, chaos
site and trace span an eviction reaches therefore sees the clock and
counters a per-page charge leaves.

The lists are threaded through ``struct page`` as Linux threads its LRU:
an entry carries its frame's :class:`FrameMeta`, so the hand reads the
REFERENCED bit without a pfn lookup.  The fault hands over the meta
``FrameTable.get_ref`` returned; a frame without one (a DAX page, which
has no ``struct page``) gets it from ``FrameTable.scan_meta`` the first
time a hand pops its entry, and the entry keeps it.  Which list a page
is on is recorded by the deques alone.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.lint import complexity
from repro.mem.frame_meta import FrameMeta, FrameTable, PageFlags
from repro.obs.metrics import MetricsRegistry
from repro.units import PAGE_SIZE


class _LruEntry:
    """One resident page the reclaimers may scan.

    ``meta`` is ``pfn``'s :class:`FrameMeta` — the same object the frame
    table holds for it — or None until a hand first pops an entry whose
    frame had none when it was mapped.
    """

    __slots__ = ("pfn", "space", "vaddr", "meta")

    def __init__(
        self, pfn: int, space: Any, vaddr: int, meta: Optional[FrameMeta]
    ) -> None:
        self.pfn = pfn
        self.space = space  # AddressSpace; typed loosely to avoid an import cycle
        self.vaddr = vaddr
        self.meta = meta

    def is_mapped(self) -> bool:
        """True while ``space`` still translates ``vaddr`` to ``pfn``.

        A translation to another frame means the page was unmapped and
        the address reused: the entry is dead although ``vaddr`` maps.
        """
        pte = self.space.page_table.lookup(self.vaddr)
        return (
            pte is not None
            and pte.paddr + self.vaddr % pte.page_size == self.pfn * PAGE_SIZE
        )


def _charge_scanned(
    counters: MetricsRegistry, frame_table: FrameTable, n: int
) -> None:
    """Charge ``n`` examined pages: ``reclaim_scanned`` and their touches."""
    if n:
        counters.bump("reclaim_scanned", n)
        frame_table.scan_charge(n)


class LruLists:
    """Active/inactive page lists shared by the reclaim algorithms.

    ``kernel.lru`` is the machine-wide instance.  An armed QoS controller
    gives every memory cgroup its own (Linux's per-memcg lruvec), and the
    root cgroup's lists are ``kernel.lru``.

    An entry is indexed by the pfn it faulted in, but it stands for the
    page ``space`` maps at ``vaddr``.  munmap and exit do no per-page
    list work, so an entry can outlive its page: the scan drops such a
    dead entry when it reaches it, and :meth:`page_mapped` replaces one
    whose pfn a new fault reuses.
    """

    def __init__(self) -> None:
        self.active: Deque[_LruEntry] = deque()
        self.inactive: Deque[_LruEntry] = deque()
        self._entries: Dict[int, _LruEntry] = {}

    def page_mapped(
        self, pfn: int, space: object, vaddr: int, meta: Optional[FrameMeta]
    ) -> None:
        """Register a freshly mapped page (called from the fault path).

        ``meta`` is the frame's metadata, or None for a frame the fault
        gave none.  A pfn whose entry still maps it keeps it (a shared
        page is scanned once); a dead entry holding a reused pfn is
        replaced, also when its address now maps another frame.
        """
        tracked = self._entries.get(pfn)
        if tracked is not None and tracked.is_mapped():
            return
        entry = _LruEntry(pfn, space, vaddr, meta)
        self._entries[pfn] = entry
        self.inactive.append(entry)

    def page_unmapped(self, pfn: int) -> None:
        """Forget a page that went away outside reclaim (munmap)."""
        entry = self._entries.pop(pfn, None)
        if entry is None:
            return
        for queue in (self.active, self.inactive):
            try:
                queue.remove(entry)
            except ValueError:
                pass

    @property
    def resident_count(self) -> int:
        """Pages currently tracked on either list."""
        return len(self._entries)

    def _drop(self, entry: _LruEntry) -> None:
        # A replaced dead entry no longer owns its pfn's slot.
        if self._entries.get(entry.pfn) is entry:
            del self._entries[entry.pfn]

    def _evict(self, entry: _LruEntry) -> bool:
        """Evict ``entry``'s page; on refusal requeue or drop the entry."""
        if entry.space.evict_page(entry.vaddr):
            self._drop(entry)
            return True
        if entry.is_mapped():
            # Pinned (e.g. a fork-shared COW window): keep it on the
            # active list so it is revisited once unpinned, instead of
            # silently falling off both lists.
            self.active.append(entry)
        else:
            # Dead: munmap or exit already took the page.
            self._drop(entry)
        return False


class ClockReclaimer:
    """Second-chance (clock) reclaim over the LRU lists.

    ``reclaim(n)`` scans the inactive list: referenced pages get a second
    chance (promoted to active, flag cleared); unreferenced pages are
    evicted via their address space.  When the inactive list runs dry the
    active list is aged into it.  Every examined page is charged one
    metadata update — the linear scan cost — in one charge per aging pass
    and per run of scanned pages.  The reclaimer only ever
    sees its own lists, so reclaim targeted at one memory cgroup runs
    over that cgroup's lists.
    """

    def __init__(
        self,
        lru: LruLists,
        frame_table: FrameTable,
        counters: MetricsRegistry,
    ) -> None:
        self._lru = lru
        self._frame_table = frame_table
        self._counters = counters
        #: Inactive-list pages the last :meth:`reclaim` examined: its
        #: ``max_scan`` spend, so a caller can share one budget across
        #: several reclaimers' lists.
        self.scanned = 0

    @complexity("n", note="the scan IS the cost; callers bound it via max_scan")
    def reclaim(self, nr_pages: int, max_scan: Optional[int] = None) -> int:
        """Try to evict ``nr_pages``; returns pages actually reclaimed.

        ``max_scan`` caps the inactive-list pages examined (the QoS
        controller passes a batch-proportional cap); the default is the
        kswapd-style few-passes-over-everything budget.  The cap does not
        cover aging: a pass that refills an empty inactive list moves the
        whole active list.  Examined pages are charged per run.
        """
        lru = self._lru
        # Aging splices into these deques; it never replaces them.
        inactive, active = lru.inactive, lru.active
        scan_meta = self._frame_table.scan_meta
        referenced = PageFlags.REFERENCED
        reclaimed = 0
        scanned = 0
        # Examined but not yet charged: flushed before every eviction.
        pending = 0
        # Bound total scanning at a few passes over everything, as kswapd
        # priorities do, so pressure with all-hot pages terminates.
        scan_budget = (
            max_scan
            if max_scan is not None
            else 4 * max(1, lru.resident_count)
        )
        while reclaimed < nr_pages and scanned < scan_budget:
            if not inactive:
                # o1: allow(flow-bounded) -- aging moves pages the scan then consumes; amortized into the declared n
                if not self._age_active():
                    break
            entry = inactive.popleft()
            scanned += 1
            pending += 1
            meta = entry.meta
            if meta is None:
                meta = entry.meta = scan_meta(entry.pfn)
            if meta.flags & referenced:
                meta.flags &= ~referenced
                active.append(entry)
                continue
            _charge_scanned(self._counters, self._frame_table, pending)
            pending = 0
            if lru._evict(entry):
                reclaimed += 1
                self._counters.bump("reclaim_evicted")
        _charge_scanned(self._counters, self._frame_table, pending)
        self.scanned = scanned
        return reclaimed

    @complexity("n", note="one splice of the active list, charged once for all of it")
    def _age_active(self) -> bool:
        """Move the active list to inactive (one aging pass)."""
        active = self._lru.active
        if not active:
            return False
        _charge_scanned(self._counters, self._frame_table, len(active))
        self._lru.inactive.extend(active)
        active.clear()
        return True


class TwoQueueReclaimer:
    """Simplified 2Q: FIFO trial queue (A1) plus a protected main queue (Am).

    New pages enter A1 and are evicted from it unless referenced, in which
    case they are promoted to Am; Am overflows back into A1's tail.  Like
    clock, every examined page charges a metadata update, per run.
    """

    def __init__(
        self,
        lru: LruLists,
        frame_table: FrameTable,
        counters: MetricsRegistry,
        protected_fraction: float = 0.75,
    ) -> None:
        if not 0.0 < protected_fraction < 1.0:
            raise ValueError("protected_fraction must be in (0, 1)")
        self._lru = lru  # inactive = A1, active = Am
        self._frame_table = frame_table
        self._counters = counters
        self._protected_fraction = protected_fraction

    def reclaim(self, nr_pages: int) -> int:
        """Try to evict ``nr_pages``; returns pages actually reclaimed."""
        lru = self._lru
        scan_meta = self._frame_table.scan_meta
        reclaimed = 0
        # Examined but not yet charged: flushed before every eviction.
        pending = 0
        scan_budget = 4 * max(1, lru.resident_count)
        max_protected = int(self._protected_fraction * lru.resident_count)
        while reclaimed < nr_pages and scan_budget > 0:
            if not lru.inactive:
                if not lru.active:
                    break
                # Demote the Am head when A1 is empty.
                pending += 1
                scan_budget -= 1
                lru.inactive.append(lru.active.popleft())
                continue
            entry = lru.inactive.popleft()
            scan_budget -= 1
            pending += 1
            meta = entry.meta
            if meta is None:
                meta = entry.meta = scan_meta(entry.pfn)
            if (
                meta.has_flag(PageFlags.REFERENCED)
                and len(lru.active) < max_protected
            ):
                meta.clear_flag(PageFlags.REFERENCED)
                lru.active.append(entry)
                continue
            _charge_scanned(self._counters, self._frame_table, pending)
            pending = 0
            if lru._evict(entry):
                reclaimed += 1
                self._counters.bump("reclaim_evicted")
        _charge_scanned(self._counters, self._frame_table, pending)
        return reclaimed

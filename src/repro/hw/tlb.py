"""Set-associative, multi-page-size TLB model.

x86-64 processors keep separate TLB arrays per page size (4 KiB / 2 MiB /
1 GiB) because the page size — and therefore which address bits form the
tag — is unknown until the walk completes.  The model mirrors that: one
set-associative array per supported page size, LRU replacement within a
set, and optional ASID (PCID) tagging so address-space switches need not
flush.

The TLB stores *translations only*; costs for lookups and fills are charged
by the CPU front-end (:mod:`repro.hw.cpu`) using the shared cost model.

Every set of every array is preallocated at construction and tags are
packed into a single int key (``vpn << 16 | asid``), so the lookup and
invalidate paths construct no Python objects per probe — the property
AllocSan certifies and ``lint --alloc`` cross-checks empirically.
Lookups and invalidations probe only the arrays that have ever held an
entry, smallest page size first: an array joins the probe on its first
insert and stays in it across flushes.  An array that never held an
entry cannot hit, so a machine that maps no huge page probes one array.
``invalidate_range`` works per VPN for a range naming no more VPNs than
an array has sets — one keyed pop each, as a small munmap's invlpg loop
would — and scans every set only for larger ranges.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from repro.lint import allocbound, allocfree, o1
from repro.units import HUGE_PAGE_1G, HUGE_PAGE_2M, PAGE_SIZE


class TlbEntry(NamedTuple):
    """One cached translation (immutable and hashable).

    ``vpn``/``pfn`` are in units of the entry's own ``page_size``;
    ``writable`` caches the permission bit so the CPU can detect permission
    faults without a walk.  A named tuple, not a dataclass: every walk
    builds one, and the tuple constructor is the cheaper of the two.
    """

    vpn: int
    pfn: int
    page_size: int
    writable: bool
    asid: int = 0

    @property
    def vaddr(self) -> int:
        """Base virtual address covered by this entry."""
        return self.vpn * self.page_size

    @property
    def paddr(self) -> int:
        """Base physical address this entry maps to."""
        return self.pfn * self.page_size


#: Default geometry: (page_size -> (sets, ways)).  Roughly a Skylake L2
#: STLB: 1536 x 4 KiB entries (128 sets x 12 ways), 32 x 2 MiB, 4 x 1 GiB.
DEFAULT_GEOMETRY: Dict[int, Tuple[int, int]] = {
    PAGE_SIZE: (128, 12),
    HUGE_PAGE_2M: (8, 4),
    HUGE_PAGE_1G: (1, 4),
}

#: Tag packing: entries are keyed by ``(vpn << _ASID_BITS) | asid``, one
#: int instead of an (asid, vpn) tuple per probe.  x86 PCID is 12 bits;
#: 16 leaves headroom for synthetic test ASIDs.
_ASID_BITS = 16
_ASID_MASK = (1 << _ASID_BITS) - 1


class Tlb:
    """Split, set-associative TLB with LRU replacement per set.

    >>> tlb = Tlb()
    >>> tlb.insert(TlbEntry(vpn=5, pfn=42, page_size=4096, writable=True))
    >>> tlb.lookup(5 * 4096).pfn
    42
    """

    def __init__(self, geometry: Optional[Dict[int, Tuple[int, int]]] = None) -> None:
        self._geometry = dict(geometry or DEFAULT_GEOMETRY)
        for size, (sets, ways) in self._geometry.items():
            if sets <= 0 or ways <= 0:
                raise ValueError(f"bad TLB geometry for page size {size}")
        # arrays[page_size][set_index] = OrderedDict[packed key -> TlbEntry].
        # Every set exists from construction so the insert path never
        # builds a container.
        self._arrays: Dict[int, Dict[int, "OrderedDict[int, TlbEntry]"]] = {
            size: {index: OrderedDict() for index in range(sets)}
            for size, (sets, _ways) in self._geometry.items()
        }
        #: Probe order of the arrays that have held an entry, smallest
        #: page size first; rebuilt only when an array joins, so lookups
        #: only unpack it.
        self._probe: Tuple[
            Tuple[int, int, Dict[int, "OrderedDict[int, TlbEntry]"]], ...
        ] = ()
        #: page_size -> (sets, ways, array) of the joined arrays: one
        #: probe per fill.  A fill of any other size joins its array.
        self._fill: Dict[
            int, Tuple[int, int, Dict[int, "OrderedDict[int, TlbEntry]"]]
        ] = {}

    @property
    def page_sizes(self) -> Tuple[int, ...]:
        """Page sizes this TLB can hold, smallest first."""
        return tuple(sorted(self._geometry))

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    @o1(note="parallel probe of at most three fixed page-size arrays")
    @allocfree(note="int-keyed probe of preallocated sets; constructs nothing")
    def lookup(self, vaddr: int, asid: int = 0) -> Optional[TlbEntry]:
        """Translation covering ``vaddr`` for ``asid``, or None on miss.

        Probes every page-size array that has held an entry, as hardware
        probes all of them in parallel.
        """
        # o1: allow(flow-bounded) -- the geometry has exactly 3 arrays
        for size, nsets, sets in self._probe:
            vpn = vaddr // size
            entry_set = sets[vpn % nsets]
            if not entry_set:
                continue
            key = (vpn << _ASID_BITS) | asid
            entry = entry_set.get(key)
            if entry is not None:
                entry_set.move_to_end(key)
                return entry
        return None

    @o1(note="one set update + possible LRU eviction")
    @allocbound(2, note="one association per fill; the evicted entry is handed back")
    def insert(self, entry: TlbEntry) -> Optional[TlbEntry]:
        """Install ``entry``, returning any entry evicted by LRU."""
        vpn, _pfn, page_size, _writable, asid = entry
        fill = self._fill.get(page_size)
        if fill is None:
            fill = self._join(page_size)
        nsets, ways, sets = fill
        entry_set = sets[vpn % nsets]
        key = (vpn << _ASID_BITS) | asid
        entry_set[key] = entry
        entry_set.move_to_end(key)
        if len(entry_set) > ways:
            _, evicted = entry_set.popitem(last=False)
            return evicted
        return None

    @o1(note="once per page size: rebuilds a probe of at most three arrays")
    def _join(
        self, page_size: int
    ) -> Tuple[int, int, Dict[int, "OrderedDict[int, TlbEntry]"]]:
        """Add ``page_size``'s array to the probe, on its first fill."""
        if page_size not in self._geometry:
            raise ValueError(
                f"TLB has no array for page size {page_size}; "
                f"supported: {sorted(self._geometry)}"
            )
        nsets, ways = self._geometry[page_size]
        fill = self._fill[page_size] = (nsets, ways, self._arrays[page_size])
        # o1: allow(flow-bounded) -- the geometry has exactly 3 arrays
        self._probe = tuple(
            (size, joined[0], joined[2]) for size, joined in sorted(self._fill.items())
        )
        return fill

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    @o1(note="one probe per joined page-size array, at most three")
    @allocfree(note="int-keyed pops of preallocated sets")
    def invalidate(self, vaddr: int, asid: int = 0) -> int:
        """Drop any entry covering ``vaddr`` (invlpg); returns count dropped."""
        dropped = 0
        # o1: allow(flow-bounded) -- the geometry has exactly 3 arrays
        for size, nsets, sets in self._probe:
            vpn = vaddr // size
            entry_set = sets[vpn % nsets]
            if entry_set and entry_set.pop((vpn << _ASID_BITS) | asid, None) is not None:
                dropped += 1
        return dropped

    @o1(
        note="min(range VPNs, sets) probes per joined array, each a keyed "
        "pop or a scan of fixed associativity — work bounded by the "
        "TLB's capacity"
    )
    def invalidate_range(self, vaddr: int, length: int, asid: int = 0) -> int:
        """Drop every entry overlapping ``[vaddr, vaddr + length)``.

        An entry for page size ``s`` overlaps iff its VPN lies in
        ``[vaddr // s, (end - 1) // s]``, and a VPN lives in exactly one
        set under one packed key — so a range naming no more VPNs than
        there are sets pops each VPN's key from its set.  A range naming
        more degenerates to scanning every set, which is still a
        hardware constant, not a scan of resident entries.
        """
        if length <= 0:
            return 0
        dropped = 0
        end = vaddr + length
        # o1: allow(flow-bounded) -- the geometry has exactly 3 arrays
        for size, nsets, sets in self._probe:
            vpn_lo = vaddr // size
            vpn_hi = (end - 1) // size
            if vpn_hi - vpn_lo < nsets:
                # o1: allow(flow-bounded) -- at most nsets VPNs, a hardware constant
                for vpn in range(vpn_lo, vpn_hi + 1):
                    entry_set = sets[vpn % nsets]
                    if entry_set and entry_set.pop((vpn << _ASID_BITS) | asid, None) is not None:
                        dropped += 1
                continue
            # o1: allow(flow-bounded) -- nsets indices, a constant
            for entry_set in sets.values():
                if not entry_set:
                    continue
                # o1: allow(flow-bounded) -- ways per set is fixed
                stale = [
                    key
                    for key in entry_set
                    if key & _ASID_MASK == asid
                    and vpn_lo <= key >> _ASID_BITS <= vpn_hi
                ]
                # o1: allow(flow-bounded) -- at most ways stale keys
                for key in stale:
                    del entry_set[key]
                    dropped += 1
        return dropped

    def flush_asid(self, asid: int) -> int:
        """Drop every entry belonging to ``asid``; returns count dropped."""
        dropped = 0
        for sets in self._arrays.values():
            for entry_set in sets.values():
                stale = [key for key in entry_set if key & _ASID_MASK == asid]
                for key in stale:
                    del entry_set[key]
                    dropped += 1
        return dropped

    @o1(note="clears a fixed-geometry hardware array")
    def flush_all(self) -> int:
        """Drop everything (CR3 write without PCID); returns count dropped."""
        dropped = self.resident_count()
        # o1: allow(flow-bounded) -- the TLB arrays have fixed hardware geometry
        for sets in self._arrays.values():
            # o1: allow(flow-bounded) -- sets per array is a hardware constant
            for entry_set in sets.values():
                # Clear in place: the preallocated sets (and the probe
                # tuple that aliases them) must survive a full flush.
                entry_set.clear()
        return dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @o1(note="counts a fixed-geometry hardware array")
    def resident_count(self, page_size: Optional[int] = None) -> int:
        """Number of valid entries (optionally for one page size)."""
        sizes: Iterable[int] = (
            [page_size] if page_size is not None else self._arrays.keys()
        )
        # o1: allow(flow-bounded) -- the TLB arrays have fixed hardware geometry
        return sum(
            len(entry_set)
            for size in sizes
            for entry_set in self._arrays.get(size, {}).values()
        )

    def capacity(self, page_size: int) -> int:
        """Maximum entries for ``page_size``."""
        nsets, ways = self._geometry[page_size]
        return nsets * ways

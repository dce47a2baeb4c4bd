"""Page walker: per-level references, virtualized 2-D walks."""

import contextlib

import pytest
from hypothesis import given, strategies as st

from repro.errors import MappingError
from repro.hw.cache import CacheModel
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.obs.metrics import MetricsRegistry
from repro.paging.pagetable import PageTable, PageTableNode, Pte
from repro.paging.walker import PageWalker
from repro.units import HUGE_PAGE_1G, HUGE_PAGE_2M, PAGE_SIZE


def make_walker(levels=4, virtualized=False):
    clock = SimClock()
    counters = MetricsRegistry()
    costs = CostModel()
    cache = CacheModel(clock, costs, counters)
    walker = PageWalker(cache, clock, costs, counters, virtualized=virtualized)
    table = PageTable(levels=levels)
    return walker, table, clock, counters


class TestWalks:
    def test_successful_walk_returns_entry(self):
        walker, table, _, _ = make_walker()
        table.map(0x4000, 7)
        entry = walker.walk(table, 0x4000, asid=3)
        assert entry.pfn == 7 and entry.asid == 3

    def test_walk_references_one_per_level(self):
        walker, table, _, counters = make_walker(levels=4)
        table.map(0, 1)
        walker.walk(table, 0)
        assert counters.get("walk_ref") == 4

    def test_five_level_walk_costs_more(self):
        walker4, table4, clock4, _ = make_walker(levels=4)
        walker5, table5, clock5, _ = make_walker(levels=5)
        table4.map(0, 1)
        table5.map(0, 1)
        walker4.walk(table4, 0)
        walker5.walk(table5, 0)
        assert clock5.now > clock4.now

    def test_huge_page_walk_is_shorter(self):
        walker, table, _, counters = make_walker()
        table.map(0, 1, page_size=HUGE_PAGE_2M)
        walker.walk(table, 123)
        assert counters.get("walk_ref") == 3  # stops at the PMD leaf

    def test_failed_walk_still_pays(self):
        walker, table, clock, counters = make_walker()
        assert walker.walk(table, 0x123456) is None
        assert counters.get("walk_ref") >= 1
        assert clock.now > 0

    def test_partial_tree_failed_walk(self):
        walker, table, _, counters = make_walker()
        table.map(0, 1)  # builds the subtree for low addresses
        counters.reset()
        assert walker.walk(table, 17 * PAGE_SIZE) is None
        assert counters.get("walk_ref") == 4  # full descent, empty leaf slot

    def test_warm_walk_cheaper_than_cold(self):
        walker, table, clock, _ = make_walker()
        table.map(0, 1)
        start = clock.now
        walker.walk(table, 0)
        cold = clock.now - start
        start = clock.now
        walker.walk(table, 0)
        warm = clock.now - start
        assert warm < cold  # page-table nodes now cached

    def test_write_protected_slot_over_a_huge_leaf(self):
        # The slot that holds a 2 MiB leaf is write-protected: the walk
        # and the descent both see a read-only translation.
        walker, table, _, _ = make_walker()
        table.map(HUGE_PAGE_2M, 4, page_size=HUGE_PAGE_2M)
        table.window_write_protect(HUGE_PAGE_2M)
        entry = walker.walk(table, HUGE_PAGE_2M + 100)
        assert entry.pfn == 4 and not entry.writable
        node, index, leaf, write_protected, shared = table.descend(HUGE_PAGE_2M)
        assert index in node.wp_slots and leaf.writable
        assert write_protected and not shared
        assert not table.lookup(HUGE_PAGE_2M).writable

    def test_entry_vpn_in_page_units(self):
        walker, table, _, _ = make_walker()
        table.map(HUGE_PAGE_2M, 4, page_size=HUGE_PAGE_2M)
        entry = walker.walk(table, HUGE_PAGE_2M + 100)
        assert entry.vpn == 1 and entry.page_size == HUGE_PAGE_2M


class TestVirtualized:
    def test_reference_formula(self):
        walker, _, _, _ = make_walker(virtualized=True)
        assert walker.references_per_walk(4) == 24
        flat, _, _, _ = make_walker(virtualized=False)
        assert flat.references_per_walk(4) == 4

    def test_five_level_nested_is_35(self):
        # §2: 5-level paging "requires up to 35 memory references in
        # virtualized systems".
        walker, _, _, _ = make_walker(levels=5, virtualized=True)
        assert walker.references_per_walk(5) == 35

    def test_nested_walk_charges_extra_refs(self):
        flat_walker, flat_table, flat_clock, _ = make_walker()
        virt_walker, virt_table, virt_clock, virt_counters = make_walker(
            virtualized=True
        )
        flat_table.map(0, 1)
        virt_table.map(0, 1)
        flat_walker.walk(flat_table, 0)
        virt_walker.walk(virt_table, 0)
        assert virt_clock.now > flat_clock.now
        assert virt_counters.get("nested_walk_ref") == 4 * 4 + 4


#: A page address in a small VA box (two 1 GiB regions, four 2 MiB
#: windows each, eight pages per window), so random leaves collide,
#: share nodes, and land under write-protected windows.
_PAGES = st.integers(0, 7)
_VADDRS = st.builds(
    lambda region, window, page: (
        region * HUGE_PAGE_1G + window * HUGE_PAGE_2M + page * PAGE_SIZE
    ),
    st.integers(0, 1),
    st.integers(0, 3),
    _PAGES,
)
_PFNS = st.integers(0, 1 << 20)
#: Tree-building steps: map a 4 KiB/2 MiB/1 GiB leaf; graft a donor
#: table's node (bottom level, or one up) holding a few 4 KiB leaves;
#: set or clear a window's write-protect bit.
_STEPS = st.one_of(
    st.tuples(
        st.just("map"),
        _VADDRS,
        st.sampled_from([PAGE_SIZE, HUGE_PAGE_2M, HUGE_PAGE_1G]),
        _PFNS,
        st.booleans(),
    ),
    st.tuples(
        st.just("link"),
        _VADDRS,
        st.sampled_from([1, 2]),
        st.lists(st.tuples(_PAGES, _PFNS, st.booleans()), min_size=1, max_size=4),
        st.booleans(),
    ),
    st.tuples(st.just("wp"), _VADDRS, st.booleans()),
)
#: Probes: (reuse a built address?, fresh address, byte offset).
_PROBES = st.tuples(st.booleans(), _VADDRS, st.integers(0, PAGE_SIZE - 1))


def _build(table, steps):
    """Apply ``steps`` to ``table``, skipping ones that collide with
    what is already mapped; returns the addresses that took."""
    built = []
    for step in steps:
        with contextlib.suppress(MappingError):
            if step[0] == "map":
                _, vaddr, size, pfn, writable = step
                vaddr -= vaddr % size
                table.map(vaddr, pfn, page_size=size, writable=writable)
            elif step[0] == "link":
                _, vaddr, up, donor_leaves, write_protect = step
                donor = PageTable(levels=table.levels)
                for page, pfn, writable in donor_leaves:
                    donor.map(page * PAGE_SIZE, pfn, writable=writable)
                subtree = donor.subtree_at(0, table.levels - up)
                vaddr -= vaddr % table.span_at(subtree.depth - 1)
                table.link_subtree(vaddr, subtree, write_protect=write_protect)
            else:
                _, vaddr, protect = step
                table.window_write_protect(vaddr, protect=protect)
            built.append(vaddr)
    return built


class _NoPerLineCache(CacheModel):
    """A cache whose single-line entry point must not be used by walks."""

    def reference(self, paddr, write=False):
        raise AssertionError("the walker priced a line outside its one pass")


def _per_line_walk(cache, counters, table, vaddr, virtualized, ept_base):
    """Reference pricing: one ``CacheModel.reference`` and one counter
    bump per line, in visit order — each node's nested EPT lines, then
    its entry line, then the data page's EPT lines on success."""
    counters.bump("walk_start")

    def host_walk(guest_paddr):
        for host_depth in range(table.levels):
            cache.reference(ept_base + (guest_paddr >> 12 << 6) + host_depth * 8)
            counters.bump("nested_walk_ref")

    node = table.root
    for depth in range(table.levels):
        shift = 12 + 9 * (table.levels - 1 - depth)
        index = (vaddr >> shift) & 511
        if virtualized:
            host_walk(node.paddr)
        cache.reference(node.paddr + index * 8)
        counters.bump("walk_ref")
        entry = node.entries.get(index)
        if isinstance(entry, Pte):
            if virtualized:
                host_walk(entry.paddr)
            return
        if entry is None:
            return
        node = entry


def _nodes_visited(table, vaddr):
    """Reference descent, indexing with the textbook shift formula:
    nodes read until a leaf, an empty slot, or the bottom level."""
    node, visited = table.root, 0
    for depth in range(table.levels):
        visited += 1
        shift = 12 + 9 * (table.levels - 1 - depth)
        entry = node.entries.get((vaddr >> shift) & 511)
        if not isinstance(entry, PageTableNode):
            break
        node = entry
    return visited


def _lookup_shared(table, vaddr):
    """Reference: the single-purpose descent eviction made before
    ``PageTable.descend`` — the effective leaf, and whether a
    write-protected slot or a ``refs > 1`` node lies on the path."""
    node = table.root
    write_protected = False
    shared = False
    for shift in table.shifts:
        index = (vaddr >> shift) & 511
        if index in node.wp_slots:
            write_protected = True
        entry = node.entries.get(index)
        if entry is None:
            return None, shared or write_protected
        if isinstance(entry, Pte):
            if write_protected and entry.writable:
                entry = entry._replace(writable=False)
            return entry, shared or write_protected
        if entry.refs > 1:
            shared = True
        node = entry
    return None, shared or write_protected


def _path_write_protected(table, vaddr):
    """Reference: the single-purpose descent a store fault made before
    ``PageTable.descend`` — a write-protected slot on the path."""
    node = table.root
    for shift in table.shifts:
        index = (vaddr >> shift) & 511
        if index in node.wp_slots:
            return True
        entry = node.entries.get(index)
        if not isinstance(entry, PageTableNode):
            return False
        node = entry
    return False


class TestDescend:
    """Property: one ``descend`` answers what a fault and an eviction
    asked of separate descents (``path_write_protected``, ``lookup`` and
    ``lookup_shared``), and names the node and slot a leaf sits in, on
    random trees with huge leaves, linked subtrees and write-protected
    windows."""

    @given(
        levels=st.sampled_from([4, 5]),
        steps=st.lists(_STEPS, min_size=1, max_size=24),
        probes=st.lists(_PROBES, min_size=1, max_size=16),
    )
    def test_matches_the_single_purpose_descents(self, levels, steps, probes):
        table = PageTable(levels=levels)
        built = _build(table, steps)
        for reuse, fresh, offset in probes:
            vaddr = (built[fresh % len(built)] if reuse and built else fresh) + offset
            node, index, leaf, write_protected, shared = table.descend(vaddr)
            effective, pinned = _lookup_shared(table, vaddr)
            assert write_protected == _path_write_protected(table, vaddr)
            assert (shared or write_protected) == pinned
            assert table.lookup(vaddr) == effective
            if leaf is not None and write_protected:
                assert effective == leaf._replace(writable=False)
            else:
                assert effective == leaf
            # The node and slot are where the walk's path ends, and the
            # leaf is that slot's raw entry.
            path = table.path_nodes(vaddr)
            assert node is path[-1]
            assert index == (vaddr >> table.shifts[node.depth]) & 511
            assert node.entries.get(index) is leaf
            assert shared == any(below.refs > 1 for below in path[1:])


class _RecordingCache(CacheModel):
    """A cache that keeps every line list it is asked to price."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.priced = []

    def reference_lines(self, lines):
        self.priced.append(list(lines))
        return super().reference_lines(lines)


class TestPathNodes:
    """Property: ``path_nodes`` names exactly the nodes whose entry
    lines a flat walk references, in the same order."""

    @given(
        levels=st.sampled_from([4, 5]),
        steps=st.lists(_STEPS, min_size=1, max_size=24),
        probes=st.lists(_PROBES, min_size=1, max_size=16),
    )
    def test_names_the_nodes_the_walk_reads(self, levels, steps, probes):
        clock, counters, costs = SimClock(), MetricsRegistry(), CostModel()
        cache = _RecordingCache(clock, costs, counters)
        walker = PageWalker(cache, clock, costs, counters)
        table = PageTable(levels=levels)
        built = _build(table, steps)
        for reuse, fresh, offset in probes:
            vaddr = (built[fresh % len(built)] if reuse and built else fresh) + offset
            walker.walk(table, vaddr)
            expected = [
                (node.paddr + ((vaddr >> table.shifts[node.depth]) & 511) * 8)
                & ~(64 - 1)
                for node in table.path_nodes(vaddr)
            ]
            assert cache.priced.pop() == expected


class TestWalkMatchesLookup:
    """Property: the hardware walker and the page table's own lookup
    translate every address the same way, on random trees with huge
    leaves, shared subtrees and write-protected windows."""

    @given(
        levels=st.sampled_from([4, 5]),
        virtualized=st.booleans(),
        steps=st.lists(_STEPS, min_size=1, max_size=24),
        probes=st.lists(_PROBES, min_size=1, max_size=16),
    )
    def test_walk_agrees_with_lookup(self, levels, virtualized, steps, probes):
        walker, table, _, counters = make_walker(levels, virtualized)
        built = _build(table, steps)
        for reuse, fresh, offset in probes:
            vaddr = (built[fresh % len(built)] if reuse and built else fresh) + offset
            expected = table.lookup(vaddr)
            before = counters.snapshot()
            entry = walker.walk(table, vaddr)
            delta = counters.delta_since(before)
            assert (entry is None) == (expected is None)
            if expected is not None:
                assert entry.pfn == expected.pfn
                assert entry.page_size == expected.page_size
                assert entry.writable == expected.writable
                assert entry.vpn == vaddr // expected.page_size
            visited = _nodes_visited(table, vaddr)
            assert delta.get("walk_ref", 0) == visited
            nested = delta.get("nested_walk_ref", 0)
            if not virtualized:
                assert nested == 0
                continue
            # One host walk per guest node read, plus one for the data
            # page when the translation succeeds.
            assert nested == levels * (visited + (entry is not None))
            assert visited + nested <= walker.references_per_walk(levels)
            if entry is not None and entry.page_size == PAGE_SIZE:
                assert visited + nested == walker.references_per_walk(levels)

    @given(
        levels=st.sampled_from([4, 5]),
        virtualized=st.booleans(),
        steps=st.lists(_STEPS, min_size=1, max_size=24),
        probes=st.lists(_PROBES, min_size=1, max_size=16),
    )
    def test_one_pass_prices_like_per_line_references(
        self, levels, virtualized, steps, probes
    ):
        """Property: a walk's one cache pass leaves the clock, every
        counter and both LRU orders exactly where one reference per line
        would, walk after walk (hits, failed walks, warm and cold)."""
        clock, counters, costs = SimClock(), MetricsRegistry(), CostModel()
        cache = _NoPerLineCache(clock, costs, counters, l1_lines=8, llc_lines=32)
        walker = PageWalker(cache, clock, costs, counters, virtualized=virtualized)
        twin_clock, twin_counters = SimClock(), MetricsRegistry()
        twin = CacheModel(twin_clock, costs, twin_counters, l1_lines=8, llc_lines=32)
        table = PageTable(levels=levels)
        built = _build(table, steps)
        for reuse, fresh, offset in probes:
            vaddr = (built[fresh % len(built)] if reuse and built else fresh) + offset
            walker.walk(table, vaddr)
            _per_line_walk(
                twin, twin_counters, table, vaddr, virtualized, walker._ept_base
            )
            assert clock.now == twin_clock.now
            # Full snapshots, not deltas: a zero-amount bump would leave
            # a key the per-line reference never creates.
            assert counters.snapshot() == twin_counters.snapshot()
            assert list(cache._l1) == list(twin._l1)
            assert list(cache._llc) == list(twin._llc)

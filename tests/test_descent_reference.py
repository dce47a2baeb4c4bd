"""The one-descent fault, eviction and page teardown against the
multi-descent code they replaced.

The references below are the earlier forms, kept as they were: a fault
handler that descends for the write-protect check
(``path_write_protected``), again for the leaf (``lookup``) and a third
time to map it (``map``); an eviction that descends with
``lookup_shared`` and again to ``unmap``; and a per-page munmap that
descends with ``lookup`` and again to ``unmap``.  The single-purpose
descents they used are kept here too, as they were.  The reference
fault handler takes nothing from the failed walk and hands nothing
back, so its retries walk in full; the current one starts from the
failed walk's descent, and its retry re-reads that walk's path.  Both
twins' first walks read their path through ``PageTable.path_nodes``.

Twin kernels run the same steps, one with the current code and one with
the references patched in, and must agree after every call on
everything the fork-path twins compare (clock, counters in creation
order, page tables with node identity, ``refs`` and ``wp_slots``, fault
stats, buddy state, frame metadata, cgroup usage), and also on the TLB
contents, the L1 and LLC line order and the LRU lists.
"""

import itertools
from unittest import mock

from hypothesis import given, strategies as st

from repro.core.o1.premap import PageTableCache
from repro.core.pbm import PbmManager
from repro.errors import ProtectionError
from repro.hw.cache import CacheModel
from repro.paging.pagetable import (
    _SYNTHETIC_NODE_BASE,
    INDEX_MASK,
    PageTable,
    PageTableNode,
    Pte,
)
from repro.units import MIB, PAGE_SIZE
from repro.vm.addrspace import AddressSpace
from repro.vm.userfault import UserFaultRegion
from repro.vm.vma import Protection

from tests.test_fork_path_reference import _Machine as _ForkMachine
from tests.test_fork_path_reference import _assert_same, _counter, _drive


# ----------------------------------------------------------------------
# References: the single-purpose descents and their callers.
# ----------------------------------------------------------------------
def _ref_lookup(table, vaddr):
    node = table.root
    write_protected = False
    for shift in table.shifts:
        index = (vaddr >> shift) & INDEX_MASK
        entry = node.entries.get(index)
        if entry is None:
            return None
        if index in node.wp_slots:
            write_protected = True
        if isinstance(entry, Pte):
            if write_protected and entry.writable:
                return entry.read_only()
            return entry
        node = entry
    return None


def _ref_path_write_protected(table, vaddr):
    node = table.root
    for shift in table.shifts:
        index = (vaddr >> shift) & INDEX_MASK
        if index in node.wp_slots:
            return True
        entry = node.entries.get(index)
        if not isinstance(entry, PageTableNode):
            return False
        node = entry
    return False


def _ref_lookup_shared(table, vaddr):
    node = table.root
    write_protected = False
    shared = False
    for shift in table.shifts:
        index = (vaddr >> shift) & INDEX_MASK
        if index in node.wp_slots:
            write_protected = True
        entry = node.entries.get(index)
        if entry is None:
            return None, shared or write_protected
        if isinstance(entry, Pte):
            if write_protected and entry.writable:
                entry = entry.read_only()
            return entry, shared or write_protected
        if entry.refs > 1:
            shared = True
        node = entry
    return None, shared or write_protected


def _ref_handle_fault(self, vaddr, write):
    self._clock.advance(self._costs.vma_find_ns)
    vma = self.find_vma(vaddr)
    if vma is None:
        raise ProtectionError(f"segfault: {vaddr:#x} maps no VMA")
    if write and not vma.prot & Protection.WRITE:
        raise ProtectionError(f"write to read-only mapping at {vaddr:#x}")
    if not write and not vma.prot & Protection.READ:
        raise ProtectionError(f"read from PROT_NONE mapping at {vaddr:#x}")
    page_va = vaddr - vaddr % PAGE_SIZE
    if write and _ref_path_write_protected(self._pt, page_va):
        self._cow_break_window(page_va)
    existing = _ref_lookup(self._pt, page_va)
    if existing is not None and write and not existing.writable:
        self._cow_fault(vma, page_va, existing, None)
        return
    if existing is not None:
        return
    self._minor_fault(vma, page_va, write, None)


def _ref_evictable(vma, page_va, pte):
    if vma is None:
        return True
    if vma.backing.shared:
        page_index = vma.backing_page(page_va)
        if vma.private_copies.get(page_index) != pte.pfn:
            return False
    return True


def _ref_evict_page(self, vaddr):
    page_va = vaddr - vaddr % PAGE_SIZE
    pte, shared = _ref_lookup_shared(self._pt, page_va)
    if pte is None:
        return False
    vma = self.find_vma(page_va)
    if shared or not _ref_evictable(vma, page_va, pte):
        self._counters.bump("vm_evict_pinned")
        return False
    self._pt.unmap(page_va, page_size=pte.page_size)
    if self.cpu is not None:
        self.cpu.invalidate_page(page_va, asid=self.asid)
    if vma is not None:
        backing = vma.backing
        swap_out = getattr(backing, "swap_out", None)
        if swap_out is not None:
            page_index = vma.backing_page(page_va)
            resident = getattr(backing, "resident_frame", None)
            if resident is None or resident(page_index) == pte.pfn:
                swap_out(page_index)
    self._counters.bump("vm_page_evict")
    return True


def _ref_teardown_pages(self, vma, start, end):
    tracks_meta = getattr(vma.backing, "tracks_frame_meta", True)
    pages = 0
    va = start
    while va < end:
        pte = _ref_lookup(self._pt, va)
        if pte is not None:
            page_base = va - va % pte.page_size
            self._pt.unmap(page_base, page_size=pte.page_size)
            if self._frame_table is not None and tracks_meta:
                for pfn4k in range(
                    pte.paddr // PAGE_SIZE,
                    (pte.paddr + pte.page_size) // PAGE_SIZE,
                ):
                    meta = self._frame_table.touch(pfn4k)
                    meta.mapcount = max(0, meta.mapcount - 1)
                    if meta.refcount:
                        meta.refcount -= 1
            va = page_base + pte.page_size
            pages += pte.page_size // PAGE_SIZE
        else:
            va += PAGE_SIZE
    return pages


def _references():
    """Patch every reference in (the twin that runs the old code)."""
    return mock.patch.multiple(
        AddressSpace,
        handle_fault=_ref_handle_fault,
        evict_page=_ref_evict_page,
        _teardown_pages=_ref_teardown_pages,
    )


# ----------------------------------------------------------------------
# Twin machines
# ----------------------------------------------------------------------
class _Machine(_ForkMachine):
    """The fork-path twins' machine, plus evictions, premapped and
    physically based (PBM) linked subtrees, and the hardware and LRU
    state a walk and an eviction leave."""

    def __init__(self, **config):
        super().__init__(**config)
        self.premaps = None
        self.pbm = None

    def _space(self, c):
        if c and self.children:
            return self.children[(c - 1) % len(self.children)].space
        return self.parent.space

    def step(self, op, a, b, c):
        kernel = self.kernel
        if op == "uffd":
            # A userfault region of ``a`` pages whose handler reads the
            # first page of the newest earlier mapping before it resolves
            # each fault with a zero page: a touch inside a fault.
            target = self.regions[-1][0] if self.regions else None
            parent = self.parent

            def handler(_page_index):
                if target is not None:
                    kernel.access(parent, target)

            region = UserFaultRegion(kernel, parent, a * PAGE_SIZE, handler)
            self.regions.append((region.vaddr, a))
            return region.vaddr
        if op == "evict":
            if not self.regions:
                return None
            va, pages = self._region(a)
            return self._space(c).evict_page(va + b % pages * PAGE_SIZE)
        if op in ("premap", "pbm"):
            # A PMFS file of ``a`` pages, linked into the parent's table
            # by shared subtree: read-only when ``b``.
            self.files += 1
            inode = kernel.pmfs.create(f"/l{self.files}", size=a * PAGE_SIZE)
            prot = Protection.READ if b else Protection.rw()
            if op == "premap":
                if self.premaps is None:
                    self.premaps = PageTableCache(
                        kernel.config.page_table_levels,
                        kernel.clock, kernel.costs, kernel.counters,
                    )
                va = self.premaps.attach(self.parent.space, inode, prot=prot).vaddr
            else:
                if self.pbm is None:
                    self.pbm = PbmManager(kernel)
                va = self.pbm.map_file(self.parent, inode, prot=prot).segments[0].vaddr
            self.regions.append((va, a))
            return va
        return super().step(op, a, b, c)

    def state(self):
        kernel = self.kernel
        tlb = kernel.cpu.tlb
        cache = kernel.cpu.cache
        lrus = [kernel.lru]
        qos = kernel.counters.qos
        if qos is not None:
            lrus.extend(cg.lru for cg in qos._cgs.values())
        return super().state() + (
            [
                (size, [list(ways.items()) for ways in sets.values()])
                for size, _, sets in tlb._probe
            ],
            list(cache._l1),
            list(cache._llc),
            [
                (
                    [(e.pfn, e.space.asid, e.vaddr) for e in lru.active],
                    [(e.pfn, e.space.asid, e.vaddr) for e in lru.inactive],
                    [(pfn, e.space.asid, e.vaddr) for pfn, e in lru._entries.items()],
                )
                for lru in lrus
            ],
        )


def _synthetic_addrs():
    """Number the twin's synthetic node addresses (premap and PBM donor
    trees) from the start, so both twins' walks read the same lines."""
    return mock.patch.object(
        PageTableNode, "_synthetic_addrs",
        itertools.count(_SYNTHETIC_NODE_BASE, PAGE_SIZE),
    )


def _twins(steps, **config):
    """The current code's log and the references' log for ``steps``."""
    with _synthetic_addrs():
        current = _drive(_Machine(**config), steps)
    with _references(), _synthetic_addrs():
        reference = _drive(_Machine(**config), steps)
    return current, reference


def _round_trips(steps, **config):
    """``_twins``, plus per step of the current twin: [retry walks that
    re-read their failed walk's path, of which the cache priced through
    ``reference_lines`` because the L1 tail had moved]."""
    counts = [[0, 0]]  # set-up, then one row per step
    again, priced = CacheModel.reference_again, CacheModel.reference_lines
    inside = []

    def reference_again(self, lines):
        counts[-1][0] += 1
        inside.append(lines)
        try:
            return again(self, lines)
        finally:
            inside.pop()

    def reference_lines(self, lines):
        if inside:
            counts[-1][1] += 1
        return priced(self, lines)

    class Counting(_Machine):
        def step(self, op, a, b, c):
            counts.append([0, 0])
            return super().step(op, a, b, c)

    counting = mock.patch.multiple(
        CacheModel, reference_again=reference_again, reference_lines=reference_lines
    )
    with _synthetic_addrs(), counting:
        current = _drive(Counting(**config), steps)
    with _references(), _synthetic_addrs():
        reference = _drive(_Machine(**config), steps)
    return current, reference, counts[1:]


_STEP = st.one_of(
    st.tuples(st.just("mmap"), st.integers(1, 80), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("dax"), st.integers(1, 700), st.booleans(), st.just(0)),
    st.tuples(st.just("extent"), st.integers(1, 600), st.integers(0, 2), st.just(0)),
    st.tuples(
        st.sampled_from(["premap", "pbm"]),
        st.integers(1, 600), st.booleans(), st.just(0),
    ),
    st.tuples(st.just("uffd"), st.integers(1, 40), st.just(0), st.just(0)),
    st.tuples(
        st.sampled_from(["load", "store", "child_store", "evict"]),
        st.integers(0, 7), st.integers(0, 700), st.integers(0, 3),
    ),
    st.tuples(
        st.sampled_from(["touch", "protect", "orphan", "munmap", "exit"]),
        st.integers(0, 7), st.just(0), st.just(0),
    ),
    st.tuples(st.just("fork"), st.just(0), st.just(0), st.just(0)),
)


class TestTwinKernels:
    """Property: the one-descent code and the references leave the same
    machine after every call, on 4- and 5-level tables, flat and
    virtualized walks, with or without QoS reclaim and a chaos plan."""

    @given(
        steps=st.lists(_STEP, min_size=1, max_size=14),
        levels=st.sampled_from([4, 5]),
        virtualized=st.booleans(),
        high=st.one_of(st.none(), st.integers(8, 160)),
        chaos_nth=st.one_of(st.none(), st.integers(0, 300)),
        policy=st.sampled_from(["extent", "page"]),
        reset=st.booleans(),
    )
    def test_twins_agree_after_every_call(
        self, steps, levels, virtualized, high, chaos_nth, policy, reset
    ):
        _assert_same(*_twins(
            steps, page_table_levels=levels, virtualized=virtualized,
            high=high, chaos_nth=chaos_nth, policy=policy, reset=reset,
        ))


def _leaves(entry, process=0):
    return entry[2][2][process][0]


class TestPinnedCases:
    """The cases the property must cover, pinned: each shows the event
    happened, and the state still matches the references."""

    def test_reclaim_evicts_from_the_faulting_window_mid_fault(self):
        # 64 pages in one 2 MiB window under a 24-frame cgroup: the
        # faults' own frame allocations reclaim earlier pages of the
        # window whose bottom node the fault holds.
        steps = [("mmap", 64, 0, 0), ("touch", 0, 0, 0)]
        current, reference = _twins(steps, high=24)
        _assert_same(current, reference)
        va = current[0][1][1]
        assert va // (2 * MIB) == (va + 63 * PAGE_SIZE) // (2 * MIB)
        touched = current[1]
        assert touched[1][0] == "ok"
        assert _counter(touched, "vm_page_evict") > 0
        assert _counter(touched, "fault_minor") == 64
        resident = [leaf_va for leaf_va, _ in _leaves(touched)]
        assert va + 63 * PAGE_SIZE in resident
        assert len(resident) < 64

    def test_read_and_write_faults_in_fork_shared_windows(self):
        # One window holds resident and absent pages; after the fork
        # both tables share its node behind a write-protected slot.
        steps = [
            ("mmap", 16, 1, 0),
            ("mmap", 16, 0, 0),
            ("fork", 0, 0, 0),
            ("load", 1, 3, 0),         # read fault through the shared node
            ("child_store", 1, 4, 0),  # COW break, then into the node
            ("store", 0, 2, 0),        # COW break, then a COW fault
            ("load", 1, 5, 0),         # into the parent's private node
            ("evict", 0, 7, 1),        # the child's page of a shared backing
            ("mmap", 8, 0, 0),
            ("load", 2, 1, 0),
            ("evict", 2, 1, 0),        # a private path: cleared in place
        ]
        current, reference = _twins(steps, reset=True)
        _assert_same(current, reference)
        assert all(entry[1][0] == "ok" for entry in current)
        last = current[-1]
        assert _counter(last, "cow_break") == 2
        assert _counter(last, "fault_cow") == 1
        assert _counter(last, "fault_minor") == 4
        assert _counter(current[3], "pt_node_clone") == 1
        assert current[7][1] == ("ok", False)
        assert last[1] == ("ok", True)

    def test_linked_subtrees_and_huge_leaves(self):
        steps = [
            ("premap", 600, 0, 0),
            ("pbm", 1024, 0, 0),
            ("dax", 700, 1, 0),
            ("extent", 600, 2, 0),
            ("load", 0, 3, 0),
            ("store", 1, 9, 0),
            ("evict", 0, 3, 0),    # the premap cache shares it: pinned
            ("evict", 1, 9, 0),    # a linked PBM window: pinned
            ("store", 2, 3, 0),    # splits the private huge DAX leaf
            ("evict", 2, 3, 0),    # the 4 KiB copy that replaced it
            ("store", 3, 600, 0),  # splits a huge leaf over DRAM frames
            ("load", 2, 100, 0),
            ("munmap", 0, 0, 0),   # premap: linked windows
            ("munmap", 0, 0, 0),   # PBM: linked windows
        ]
        for policy in ("extent", "page"):
            current, reference = _twins(steps, policy=policy)
            _assert_same(current, reference)
            assert all(entry[1][0] == "ok" for entry in current)
            evicted = [current[index][1] for index in (6, 7, 9)]
            assert evicted == [("ok", False), ("ok", False), ("ok", True)]
            assert _counter(current[-1], "vm_evict_pinned") == 2
            assert _counter(current[1], "pbm_shared_link") == 2
            sizes = {pte.page_size for _, pte in _leaves(current[3])}
            assert 2 * MIB in sizes
            split = dict(_leaves(current[8]))
            dax_va = current[2][1][1]
            assert split[dax_va + 3 * PAGE_SIZE].page_size == PAGE_SIZE
            assert split[dax_va + 3 * PAGE_SIZE].writable
            # The per-page munmap unshares the linked windows first.
            clones = [_counter(entry, "pt_node_clone") for entry in current[-2:]]
            assert clones == ([2, 4] if policy == "page" else [0, 0])

    def test_a_huge_split_drops_the_whole_leaf(self):
        # A store into a read-only huge leaf over frames with metadata:
        # every 4 KiB frame of the leaf is unmapped, one page is copied.
        current, reference = _twins([("extent", 512, 2, 0), ("store", 0, 7, 0)])
        _assert_same(current, reference)
        ((va, huge),) = _leaves(current[0])
        assert huge.page_size == 2 * MIB and not huge.writable
        ((copy_va, copy),) = _leaves(current[1])
        assert copy_va == va + 7 * PAGE_SIZE
        assert copy.page_size == PAGE_SIZE and copy.writable

        def mapcounts(entry):
            return {pfn: mapcount for pfn, _, _, mapcount, _ in entry[2][6]}

        frames = range(huge.pfn * 512, huge.pfn * 512 + 512)
        before, after = mapcounts(current[0]), mapcounts(current[1])
        assert [before[pfn] for pfn in frames] == [1] * 512
        assert [after[pfn] for pfn in frames] == [0] * 512
        assert after[copy.pfn] == 1

    def test_five_levels_and_a_virtualized_walker(self):
        steps = [
            ("mmap", 40, 0, 0),
            ("touch", 0, 0, 0),
            ("fork", 0, 0, 0),
            ("child_store", 0, 5, 0),
            ("evict", 0, 6, 0),
            ("dax", 513, 1, 0),
            ("store", 1, 2, 0),
            ("munmap", 0, 0, 0),
        ]
        for virtualized in (False, True):
            current, reference = _twins(
                steps, page_table_levels=5, virtualized=virtualized
            )
            _assert_same(current, reference)
            assert all(entry[1][0] == "ok" for entry in current)
            nested = _counter(current[-1], "nested_walk_ref")
            assert (nested > 0) == virtualized
            depths = {row[1] for row in current[-1][2][2][0][1]}
            assert depths == {0, 1, 2, 3, 4}

    def test_chaos_fails_buddy_alloc_mid_fault(self):
        # The fourth allocation after set-up fails: the faults' node
        # and data frames come from the buddy allocator.
        current, reference = _twins(
            [("mmap", 32, 0, 0), ("touch", 0, 0, 0)], chaos_nth=4
        )
        _assert_same(current, reference)
        outcome = current[1][1]
        assert outcome[0] == "OutOfMemoryError" and "chaos" in outcome[1]
        assert 0 < len(_leaves(current[1])) < 32

    def test_page_policy_munmap_and_the_extent_fallback(self):
        # Two mappings packed into one window: the extent policy cannot
        # drop the window and falls back to the per-page loop; a forked
        # child's shared window makes that loop unshare first.
        steps = [
            ("mmap", 12, 1, 0),
            ("mmap", 20, 1, 0),
            ("touch", 1, 0, 0),
            ("fork", 0, 0, 0),
            ("munmap", 0, 0, 0),
            ("munmap", 0, 0, 0),
        ]
        for policy in ("extent", "page"):
            current, reference = _twins(steps, policy=policy, reset=True)
            _assert_same(current, reference)
            assert all(entry[1][0] == "ok" for entry in current)
            unmapped = current[4]
            assert _counter(unmapped, "pt_node_clone") > _counter(
                current[3], "pt_node_clone"
            )
            assert len(_leaves(unmapped)) == 20
            assert len(_leaves(unmapped, process=1)) == 32


class TestRoundTrip:
    """The fault round trip's cases, pinned: the handler starts from the
    failed walk's descent, and the retry re-reads that walk's path only
    when the leaf went into the node the walk reached."""

    def test_reclaim_evicts_from_the_faulting_node_between_walk_and_retry(self):
        # 64 pages in one window under a 24-frame cgroup: each fault's
        # frame allocation reclaims earlier pages of the bottom node the
        # failed walk reached, and the retry still re-reads its path.
        steps = [("mmap", 64, 0, 0), ("touch", 0, 0, 0)]
        current, reference, counts = _round_trips(steps, high=24)
        _assert_same(current, reference)
        touched = current[1]
        assert _counter(touched, "vm_page_evict") > 0
        assert _counter(touched, "fault_minor") == 64
        # Every fault but the one that created the bottom node re-reads,
        # and nothing touched the L1 between a walk and its retry.
        assert counts[1] == [63, 0]

    def test_a_userfault_handler_touches_memory_before_resolving(self):
        # The handler reads a TLB-resident page: its data line lands
        # after the failed walk's lines in the L1, so the retry prices
        # its path through reference_lines.
        steps = [
            ("mmap", 8, 1, 0),   # populated: the window's node exists
            ("load", 0, 0, 0),   # the handler's target is TLB-resident
            ("uffd", 16, 0, 0),  # the same window
            ("load", 1, 3, 0),
            ("store", 1, 4, 0),
            ("load", 1, 3, 0),   # resolved: a TLB hit, no fault
        ]
        current, reference, counts = _round_trips(steps)
        _assert_same(current, reference)
        assert all(entry[1][0] == "ok" for entry in current)
        assert _counter(current[-1], "userfault_upcall") == 2
        assert counts[3:] == [[1, 1], [1, 1], [0, 0]]

    def test_a_userfault_handler_that_faults_itself(self):
        # The handler's own touch faults (and walks) inside the fault:
        # the outer retry still re-reads, priced through reference_lines.
        steps = [
            ("mmap", 8, 0, 0),
            ("load", 0, 1, 0),   # creates the window's bottom node
            ("uffd", 16, 0, 0),  # the handler reads page 0, not resident
            ("load", 1, 5, 0),
        ]
        current, reference, counts = _round_trips(steps)
        _assert_same(current, reference)
        assert _counter(current[-1], "fault_minor") == 3
        # The handler's fault re-reads with its lines still the L1 tail;
        # the outer retry finds them, and a data line, after its own.
        assert counts[-1] == [2, 1]

    def test_a_first_store_into_a_fork_shared_window_re_reads_nothing(self):
        # The failed walk passed the write-protected slot: the COW break
        # descends again and the retry walks in full.  Later faults in
        # the now private window re-read.
        steps = [
            ("mmap", 16, 1, 0),
            ("mmap", 16, 0, 0),       # same window, nothing resident
            ("fork", 0, 0, 0),
            ("store", 1, 3, 0),       # COW break, then into the clone
            ("store", 1, 4, 0),
        ]
        current, reference, counts = _round_trips(steps, reset=True)
        _assert_same(current, reference)
        assert _counter(current[3], "cow_break") == 1
        assert _counter(current[3], "pt_node_clone") == 1
        assert counts[3:] == [[0, 0], [1, 0]]

    def test_a_read_fault_under_a_write_protected_slot_re_reads_nothing(self):
        # After the child's break the parent's window node is its own,
        # but its slot stays write-protected: a read fault writes into
        # the node and the retry walks in full.
        steps = [
            ("mmap", 16, 1, 0),
            ("mmap", 16, 0, 0),
            ("fork", 0, 0, 0),
            ("child_store", 0, 2, 0),  # the child breaks its share
            ("load", 1, 5, 0),
        ]
        current, reference, counts = _round_trips(steps, reset=True)
        _assert_same(current, reference)
        assert _counter(current[-1], "cow_break") == 1
        assert _counter(current[-1], "fault_minor") == 1
        assert counts[-1] == [0, 0]

    def test_a_fault_that_creates_its_bottom_node_re_reads_nothing(self):
        steps = [("mmap", 8, 0, 0), ("load", 0, 2, 0), ("load", 0, 3, 0)]
        current, reference, counts = _round_trips(steps)
        _assert_same(current, reference)
        assert _counter(current[1], "pt_node_alloc") > _counter(
            current[0], "pt_node_alloc"
        )
        assert counts[1:] == [[0, 0], [1, 0]]

    def test_five_levels_re_read_and_a_virtualized_walker_keeps_nothing(self):
        steps = [("mmap", 8, 0, 0), ("touch", 0, 0, 0), ("load", 0, 9, 0)]
        for virtualized, rereads in ((False, 7), (True, 0)):
            current, reference, counts = _round_trips(
                steps, page_table_levels=5, virtualized=virtualized
            )
            _assert_same(current, reference)
            assert _counter(current[1], "fault_minor") == 8
            assert (_counter(current[-1], "nested_walk_ref") > 0) == virtualized
            assert counts[1] == [rereads, 0]


class TestOneDescent:
    def _calls(self):
        calls = {}

        def counting(name):
            method = getattr(PageTable, name)

            def wrapper(self, *args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return method(self, *args, **kwargs)

            return wrapper

        names = ("descend", "path_nodes", "lookup", "map", "leaf_node", "unmap")
        return calls, mock.patch.multiple(
            PageTable, **{n: counting(n) for n in names}
        )

    def test_a_minor_fault_and_an_eviction_descend_once(self):
        machine = _Machine()
        machine.step("mmap", 8, 0, 0)
        machine.step("load", 0, 0, 0)  # the window's bottom node exists
        va, _ = machine.regions[0]
        calls, counting = self._calls()
        with counting:
            machine.kernel.access(machine.parent, va + PAGE_SIZE)
            # One hardware walk, which fails: the fault starts from its
            # descent, and the retry re-reads its path.
            assert calls == {"path_nodes": 1}
            assert machine.parent.space.evict_page(va + PAGE_SIZE)
            assert calls == {"path_nodes": 1, "descend": 1}

    def test_a_failed_walk_no_fault_took_is_not_reused(self):
        machine = _Machine()
        machine.step("mmap", 8, 0, 0)
        machine.step("load", 0, 0, 0)
        va, _ = machine.regions[0]
        kernel, space = machine.kernel, machine.parent.space
        # A walk outside any access fails on page 1; an access to page 2
        # walks (and faults) before the fault on page 1 comes.
        assert kernel.walker.walk(space.page_table, va + PAGE_SIZE) is None
        kernel.access(machine.parent, va + 2 * PAGE_SIZE)
        calls, counting = self._calls()
        with counting:
            space.handle_fault(va + PAGE_SIZE, False)
        assert calls == {"descend": 1}
        # An access whose fault raises took its walk's descent with it:
        # the fault on that page after the mprotect descends.
        machine.sys.mprotect(va, 8 * PAGE_SIZE, Protection.NONE)
        try:
            kernel.access(machine.parent, va + 3 * PAGE_SIZE)
        except ProtectionError:
            pass
        else:
            raise AssertionError("a PROT_NONE load must fault")
        machine.sys.mprotect(va, 8 * PAGE_SIZE, Protection.rw())
        calls.clear()
        with counting:
            space.handle_fault(va + 3 * PAGE_SIZE, False)
        assert calls == {"descend": 1}
        assert space.page_table.lookup(va + 3 * PAGE_SIZE) is not None

"""The fork path's per-window, per-run and per-call loops against the
per-page loops they replaced.

The references below are the earlier loops, kept as they were: a
populate that descends the page table for every page, a COW break that
looks up the VMA of every leaf, a COW fault that unmaps and remaps from
two descents, a minor fault that reads the global ``swap_in`` counter,
a buddy ``alloc`` that charges each split, and ``free``/``free_many``
that charge each block and each merge.  Twin kernels run the same
steps, one with the current code and one with the references patched
in, and must agree after every call on the clock, the counters in
creation order, the page tables (leaves, node identity, ``refs`` and
``wp_slots``), the buddy free lists and ledger, the frame metadata and
the order of the parent's LRU lists.
"""

from unittest import mock

from hypothesis import given, strategies as st

from repro.chaos import FaultPlan
from repro.errors import MappingError, OutOfMemoryError, ProtectionError, ReproError
from repro.kernel import Kernel, MachineConfig
from repro.mem.buddy import BuddyAllocator
from repro.mem.frame_meta import PageFlags
from repro.paging.fault import FAULT_COUNTERS, FaultType
from repro.paging.hugepages import SUPPORTED_PAGE_SIZES, choose_page_runs
from repro.paging.pagetable import PageTable, PageTableNode, Pte
from repro.sanitize import SanitizerError
from repro.units import MIB, PAGE_SIZE
from repro.vm.addrspace import AddressSpace
from repro.vm.vma import MapFlags, MemoryBacking, Protection


# ----------------------------------------------------------------------
# References: the per-page, per-leaf, per-block and per-split loops.
# ----------------------------------------------------------------------
def _ref_populate(self, addr, length):
    vma = self.find_vma(addr)
    if vma is None or addr + length > vma.end:
        raise MappingError(
            f"populate range {addr:#x}+{length:#x} not covered by one VMA"
        )
    first_page = vma.backing_page(addr)
    npages = length // PAGE_SIZE
    allow_huge = bool(vma.flags & MapFlags.HUGEPAGE)
    writable = self._map_writable(vma)
    written = 0
    for page_index, first_pfn, run_pages in vma.backing.frame_runs(
        first_page, npages
    ):
        run_va = vma.start + (page_index - vma.backing_offset) * PAGE_SIZE
        run_pa = first_pfn * PAGE_SIZE
        sizes = SUPPORTED_PAGE_SIZES if allow_huge else (PAGE_SIZE,)
        runs = choose_page_runs(run_va, run_pa, run_pages * PAGE_SIZE, allowed=sizes)
        for va, pa, size in runs:
            self._pt.map(va, pa // size, page_size=size, writable=writable)
            self._clock.advance(self._costs.populate_page_ns)
            written += 1
        if self._frame_table is not None and getattr(
            vma.backing, "tracks_frame_meta", True
        ):
            for pfn in range(first_pfn, first_pfn + run_pages):
                meta = self._frame_table.get_ref(pfn)
                meta.mapcount += 1
    self._counters.bump("populate_pages", npages)
    return written


def _ref_cow_break_window(self, page_va):
    window_span = self._pt.span_at(self._pt.bottom_depth - 1)
    window_va = page_va - page_va % window_span
    node = self._pt.privatize_window(page_va)
    chaos = self._counters.chaos
    if chaos is not None:
        chaos.hit("vm.cow_break")
    if node is not None:
        for index, entry in list(node.entries.items()):
            if not isinstance(entry, Pte) or not entry.writable:
                continue
            leaf_va = window_va + index * PAGE_SIZE
            leaf_vma = self.find_vma(leaf_va)
            if leaf_vma is not None and leaf_vma.needs_cow():
                node.entries[index] = entry._replace(writable=False)
    self._pt.window_write_protect(window_va, protect=False)
    self._counters.bump("cow_break")


#: The current COW fault, for huge leaves: splitting one has no earlier
#: form (the two-descent reference raised on it).
_COW_FAULT = AddressSpace._cow_fault


def _ref_cow_fault(self, vma, page_va, leaf, _node):
    if leaf.page_size != PAGE_SIZE:
        return _COW_FAULT(self, vma, page_va, leaf, None)
    if not vma.is_private():
        raise ProtectionError(
            f"write to read-only shared mapping at {page_va:#x}"
        )
    page_index = vma.backing_page(page_va)
    old = self._pt.lookup(page_va)
    assert old is not None
    new_pfn = self._make_private_copy(vma, page_index, old.pfn)
    self._pt.unmap(page_va)
    self._pt.map(page_va, new_pfn, writable=True)
    if self._frame_table is not None:
        self._frame_table.get_ref(new_pfn)
    self.fault_stats[FaultType.COW] += 1
    self._counters.bump(FAULT_COUNTERS[FaultType.COW])


def _ref_minor_fault(self, vma, page_va, write, _node):
    self._clock.advance(self._costs.fault_accounting_ns)
    page_index = vma.backing_page(page_va)
    pfn = vma.private_copies.get(page_index)
    major = False
    if pfn is None:
        before = self._counters.get("swap_in")
        pfn = vma.backing.frame_for(page_index, write=write)
        major = self._counters.get("swap_in") > before
    writable = self._map_writable(vma) or page_index in vma.private_copies
    if write and vma.needs_cow():
        pfn = self._make_private_copy(vma, page_index, pfn)
        writable = True
    self._pt.map(page_va, pfn, writable=writable)
    meta = None
    if self._frame_table is not None and getattr(
        vma.backing, "tracks_frame_meta", True
    ):
        meta = self._frame_table.get_ref(pfn)
        meta.mapcount += 1
        meta.set_flag(PageFlags.REFERENCED)
    if self.lru is not None:
        self.lru.page_mapped(pfn, self, page_va, meta)
    kind = FaultType.MAJOR if major else FaultType.MINOR
    self.fault_stats[kind] += 1
    self._counters.bump(FAULT_COUNTERS[kind])


def _ref_alloc(self, order=0):
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
    while source <= self._max_order and not self._free_lists[source]:
        source += 1
    if source > self._max_order:
        raise OutOfMemoryError(
            f"no free block of order {order} in region "
            f"{self._describe()} "
            f"({self._free_frames} frames free but fragmented)"
        )
    costs = self._costs
    self._clock.advance(costs.frame_alloc_ns)
    self._counters.bump("buddy_alloc")
    pfn = self._free_lists[source].pop()
    while source > order:
        source -= 1
        self._free_lists[source].add(pfn + (1 << source))
        self._clock.advance(costs.buddy_split_ns)
        self._counters.bump("buddy_split")
    self._allocated[pfn] = order
    self._free_frames -= 1 << order
    san = self._counters.sanitize
    if san is not None:
        san.on_frame_alloc(self, pfn, order)
    qos = self._counters.qos
    if qos is not None:
        qos.on_frames_alloc(pfn, 1 << order)
    return pfn


def _ref_free(self, pfn):
    san = self._counters.sanitize
    if san is not None:
        san.on_frame_free(self, pfn)
    _ref_free_block(self, pfn, self._costs.frame_free_ns)


def _ref_free_many(self, pfns):
    if not pfns:
        return
    san = self._counters.sanitize
    charge = self._costs.frame_free_ns
    for pfn in pfns:
        if san is not None:
            san.on_frame_free(self, pfn)
        _ref_free_block(self, pfn, charge)
        charge = 0


def _ref_free_block(self, pfn, charge_ns):
    if pfn in self._retired:
        raise ValueError(f"pfn {pfn} is retired and can never be freed")
    order = self._allocated.pop(pfn, None)
    if order is None:
        raise ValueError(f"pfn {pfn} was not allocated by this allocator")
    qos = self._counters.qos
    if qos is not None:
        qos.on_frames_free(pfn)
    self._clock.advance(charge_ns)
    self._counters.bump("buddy_free")
    self._free_frames += 1 << order
    first = self._region.first_pfn
    while order < self._max_order:
        buddy = first + ((pfn - first) ^ (1 << order))
        if buddy not in self._free_lists[order]:
            break
        self._free_lists[order].remove(buddy)
        pfn = min(pfn, buddy)
        order += 1
        self._clock.advance(0)
        self._counters.bump("buddy_merge")
    self._free_lists[order].add(pfn)


def _references():
    """Patch every reference loop in (the twin that runs the old code)."""
    space = mock.patch.multiple(
        AddressSpace,
        populate=_ref_populate,
        _cow_break_window=_ref_cow_break_window,
        _cow_fault=_ref_cow_fault,
        _minor_fault=_ref_minor_fault,
    )
    buddy = mock.patch.multiple(
        BuddyAllocator, alloc=_ref_alloc, free=_ref_free, free_many=_ref_free_many
    )
    return space, buddy


# ----------------------------------------------------------------------
# Twin machines
# ----------------------------------------------------------------------
class _ContiguousBacking(MemoryBacking):
    """One buddy block handed out as a single run: a multi-page run whose
    frames carry metadata (anonymous and page-cache runs are one page,
    DAX runs carry none)."""

    def __init__(self, allocator, npages):
        self.first_pfn = allocator.alloc_pages(npages)

    def frame_for(self, page_index, write):
        return self.first_pfn + page_index

    def frame_runs(self, start_page, npages):
        yield start_page, self.first_pfn + start_page, npages


class _Machine:
    """One deterministic machine and the handles its steps act on.

    ``high``: a QoS cgroup's soft watermark in frames (None: unarmed);
    ``chaos_nth``: the ``buddy.alloc`` hit that fails (None: no plan);
    ``reset``: empty the counters after set-up, so the steps create
    every key themselves and key creation order shows; ``machine``:
    further :class:`MachineConfig` fields.
    """

    def __init__(
        self, high=None, chaos_nth=None, policy="extent", swap_pages=4096,
        reset=False, **machine,
    ):
        self.kernel = kernel = Kernel(
            MachineConfig(
                dram_bytes=64 * MIB,
                nvm_bytes=16 * MIB,
                swap_pages=swap_pages,
                munmap_policy=policy,
                pmfs_extent_align_frames=512,
                **machine,
            )
        )
        cgroup = None
        if high is not None:
            cgroup = kernel.arm_qos().cgroup("t", high=high)
        self.parent = kernel.spawn("p", track_lru=True, cgroup=cgroup)
        self.sys = kernel.syscalls(self.parent)
        if chaos_nth is not None:
            kernel.arm_chaos(
                FaultPlan.fault_at_site("buddy.alloc", "error", nth=chaos_nth)
            )
        if reset:
            kernel.counters.reset()
        self.children = []
        #: (va, pages) of each live mapping of the parent.
        self.regions = []
        #: Blocks taken from the buddy allocator directly.
        self.blocks = []
        self.files = 0

    def _region(self, index):
        return self.regions[index % len(self.regions)]

    def step(self, op, a, b, c):
        """Run one step; returns a plain value to compare."""
        kernel, buddy = self.kernel, self.kernel.dram_buddy
        if op == "mmap":
            # b: 0 private, 1 private populated, 2 shared populated,
            # 3 private populated with the huge-page hint.
            flags = (MapFlags.SHARED if b == 2 else MapFlags.PRIVATE) | (
                MapFlags.POPULATE if b else 0
            ) | (MapFlags.HUGEPAGE if b == 3 else 0)
            va = self.sys.mmap(a * PAGE_SIZE, flags=flags)
            self.regions.append((va, a))
            return va
        if op == "dax":
            # A PMFS file with 2 MiB-aligned extents at a 2 MiB-aligned
            # address: populate tiles it with huge pages where it can.
            self.files += 1
            fd = self.sys.open(
                kernel.pmfs, f"/f{self.files}", create=True, size=a * PAGE_SIZE
            )
            flags = MapFlags.POPULATE | MapFlags.HUGEPAGE
            flags |= MapFlags.PRIVATE if b else MapFlags.SHARED
            addr = self.parent.space.pick_address(a * PAGE_SIZE, 2 * MIB)
            va = self.sys.mmap(a * PAGE_SIZE, flags=flags, fd=fd, addr=addr)
            self.regions.append((va, a))
            return va
        if op == "extent":
            # b: 0 private, 1 shared, 2 private with the huge-page hint.
            flags = MapFlags.POPULATE | (MapFlags.SHARED if b == 1 else MapFlags.PRIVATE)
            flags |= MapFlags.HUGEPAGE if b == 2 else 0
            space = self.parent.space
            addr = space.pick_address(a * PAGE_SIZE, 2 * MIB)
            space.mmap(
                a * PAGE_SIZE, Protection.rw(), flags,
                _ContiguousBacking(buddy, a), addr=addr,
            )
            self.regions.append((addr, a))
            return addr
        if not self.regions and op not in ("fork", "exit", "alloc", "free_many"):
            return None
        if op in ("load", "store", "child_store"):
            va, pages = self._region(a)
            process = self.parent
            if op == "child_store":
                if not self.children:
                    return None
                process = self.children[c % len(self.children)]
            return kernel.access(process, va + b % pages * PAGE_SIZE, write=op != "load")
        if op == "touch":
            va, pages = self._region(a)
            kernel.access_range(self.parent, va, pages * PAGE_SIZE, write=True)
            return pages
        if op == "protect":
            va, pages = self._region(a)
            self.sys.mprotect(va, pages * PAGE_SIZE, Protection.READ)
            return va
        if op == "orphan":
            # A leaf no VMA covers, just past a mapping, in its window.
            va, pages = self._region(a)
            table = self.parent.space.page_table
            table.map(va + pages * PAGE_SIZE, buddy.alloc(0))
            return va
        if op == "fork":
            self.children.append(kernel.fork(self.parent))
            return self.children[-1].pid
        if op == "exit":
            if not self.children:
                return None
            self.children.pop(a % len(self.children)).exit()
            return len(self.children)
        if op == "munmap":
            va, pages = self.regions.pop(a % len(self.regions))
            return self.sys.munmap(va, pages * PAGE_SIZE)
        if op == "alloc":
            self.blocks.append(buddy.alloc(a % 4))
            return self.blocks[-1]
        if op == "free_many":
            batch = self.blocks[: a % 9]
            if b:
                # A pfn no allocation starts at, somewhere in the batch.
                first = buddy.region.first_pfn
                bad = next(
                    pfn for pfn in range(first, first + 4096)
                    if not buddy.is_allocated(pfn)
                )
                at = c % (len(batch) + 1)
                batch = batch[:at] + [bad] + batch[at:]
            try:
                if len(batch) == 1:
                    buddy.free(batch[0])
                else:
                    buddy.free_many(batch)
            finally:
                self.blocks = [pfn for pfn in self.blocks if buddy.is_allocated(pfn)]
            return len(batch)
        raise AssertionError(op)

    def state(self):
        """Everything the per-window, per-run and per-call loops must
        leave exactly as the per-page loops did."""
        kernel = self.kernel
        buddy = kernel.dram_buddy
        ids = {}
        tables = []
        for process in (self.parent, *self.children):
            if not process.alive:
                tables.append(None)
                continue
            table = process.space.page_table
            tables.append((
                list(table.iter_leaves()),
                _nodes(table.root, ids),
                list(process.space.fault_stats),
            ))
        qos = kernel.counters.qos
        lru = self.parent.space.lru
        return (
            kernel.clock.now,
            # Ordered items: key creation order too, so a counter created
            # at another point of a call than before shows.
            list(kernel.counters.snapshot().items()),
            tables,
            [sorted(blocks) for blocks in buddy._free_lists],
            list(buddy._allocated.items()),
            buddy.free_frames,
            [
                (pfn, meta.flags, meta.refcount, meta.mapcount)
                for pfn, meta in kernel.frame_table.items()
            ],
            # The parent's LRU deques, in order: which list a page is on.
            [
                [(e.pfn, e.vaddr, e.space.asid) for e in queue]
                for queue in (lru.inactive, lru.active)
            ],
            None if qos is None else [
                (name, cg.usage_frames) for name, cg in qos._cgs.items()
            ],
        )


def _nodes(root, ids):
    """Every node under ``root``, depth first in slot order: its identity
    (numbered in first-seen order across all tables, so sharing shows),
    frame, ``refs``, ``wp_slots`` and its slots in entry order."""
    rows = []
    stack = [root]
    while stack:
        node = stack.pop()
        rows.append((
            ids.setdefault(id(node), len(ids)),
            node.depth,
            PageTable.node_frame_pfn(node),
            node.refs,
            sorted(node.wp_slots),
            list(node.entries),
        ))
        stack.extend(
            node.entries[index]
            for index in sorted(node.entries, reverse=True)
            if isinstance(node.entries[index], PageTableNode)
        )
    return rows


def _drive(machine, steps):
    """(op, outcome, state) after each step; an outcome names any error.

    PMFS must pass fsck after every step: every block it hands out
    belongs to a file, private copies of DAX pages included.
    """
    log = []
    for op, a, b, c in steps:
        try:
            outcome = ("ok", machine.step(op, a, b, c))
        except (ReproError, ValueError, SanitizerError) as exc:
            # A planted bad free halts an armed sanitizer before the
            # allocator's own check: both twins must stop at the same point.
            outcome = (type(exc).__name__, str(exc))
        assert machine.kernel.pmfs.fsck() == [], f"after {op}"
        log.append((op, outcome, machine.state()))
    return log


def _twins(steps, **config):
    """The current code's log and the references' log for ``steps``."""
    current = _drive(_Machine(**config), steps)
    space, buddy = _references()
    with space, buddy:
        reference = _drive(_Machine(**config), steps)
    return current, reference


def _assert_same(current, reference):
    assert len(current) == len(reference)
    for index, (got, want) in enumerate(zip(current, reference)):
        assert got[:2] == want[:2], f"step {index} ({got[0]}): outcomes differ"
        for part, (mine, theirs) in enumerate(zip(got[2], want[2])):
            assert mine == theirs, f"step {index} ({got[0]}): state part {part} differs"


def _counter(entry, name):
    return dict(entry[2][1]).get(name, 0)


def _resident(entry):
    leaves = entry[2][2][0][0]
    return sum(pte.page_size // PAGE_SIZE for _, pte in leaves)


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("mmap"), st.integers(1, 80), st.integers(0, 3), st.just(0)),
        st.tuples(st.just("dax"), st.integers(1, 700), st.booleans(), st.just(0)),
        st.tuples(st.just("extent"), st.integers(1, 600), st.integers(0, 2), st.just(0)),
        st.tuples(
            st.sampled_from(["load", "store", "child_store"]),
            st.integers(0, 7), st.integers(0, 700), st.integers(0, 3),
        ),
        st.tuples(
            st.sampled_from(["touch", "protect", "orphan", "munmap", "exit", "alloc"]),
            st.integers(0, 7), st.just(0), st.just(0),
        ),
        st.tuples(st.just("fork"), st.just(0), st.just(0), st.just(0)),
        st.tuples(st.just("free_many"), st.integers(0, 8), st.booleans(), st.integers(0, 8)),
    ),
    min_size=1,
    max_size=14,
)


class TestTwinKernels:
    """Property: the current loops and the reference loops leave the
    same machine after every call, whatever the armed subsystems do."""

    @given(
        steps=_STEPS,
        high=st.one_of(st.none(), st.integers(8, 160)),
        chaos_nth=st.one_of(st.none(), st.integers(0, 300)),
        policy=st.sampled_from(["extent", "page"]),
        swap_pages=st.sampled_from([0, 4096]),
        reset=st.booleans(),
    )
    def test_twins_agree_after_every_call(
        self, steps, high, chaos_nth, policy, swap_pages, reset
    ):
        _assert_same(*_twins(
            steps, high=high, chaos_nth=chaos_nth, policy=policy,
            swap_pages=swap_pages, reset=reset,
        ))


class TestPartialStates:
    """The cases the property must cover, pinned: each shows the event
    happened, and the partial state still matches the reference."""

    def test_reclaim_runs_mid_populate(self):
        steps = [
            ("mmap", 96, 0, 0),
            ("touch", 0, 0, 0),
            ("mmap", 64, 1, 0),
        ]
        current, reference = _twins(steps, high=120)
        _assert_same(current, reference)
        before, after = current[1], current[2]
        assert after[1][0] == "ok"
        assert _counter(after, "qos_watermark_high") > _counter(before, "qos_watermark_high")
        assert _counter(after, "swap_out") > _counter(before, "swap_out")

    def test_chaos_fails_buddy_alloc_mid_populate(self):
        current, reference = _twins([("mmap", 64, 1, 0)], chaos_nth=20)
        _assert_same(current, reference)
        outcome = current[0][1]
        assert outcome[0] == "OutOfMemoryError" and "chaos" in outcome[1]
        assert 0 < _resident(current[0]) < 64

    def test_bad_pfn_mid_free_many(self):
        steps = [("alloc", order, 0, 0) for order in (0, 1, 0, 2, 0, 3)]
        steps.append(("free_many", 6, 1, 3))
        current, reference = _twins(steps, reset=True)
        _assert_same(current, reference)
        before, after = current[-2], current[-1]
        assert after[1][0] in ("ValueError", "SanitizerError")
        assert _counter(after, "buddy_free") == _counter(before, "buddy_free") + 3
        assert len(dict(after[2][4])) == len(dict(before[2][4])) - 3

    def test_cow_break_over_a_window_of_mixed_vmas(self):
        # Private, shared, read-only and private again, packed into one
        # 2 MiB window, plus a leaf no VMA covers: one store downgrades
        # exactly the COW VMAs' leaves.
        steps = [
            ("mmap", 8, 1, 0),
            ("mmap", 8, 2, 0),
            ("mmap", 8, 1, 0),
            ("protect", 2, 0, 0),
            ("mmap", 8, 1, 0),
            ("orphan", 3, 0, 0),
            ("fork", 0, 0, 0),
            ("store", 1, 3, 0),
            ("store", 0, 5, 0),
            ("child_store", 3, 2, 0),
        ]
        current, reference = _twins(steps)
        _assert_same(current, reference)
        assert _counter(current[-1], "cow_break") == 2
        assert all(entry[1][0] == "ok" for entry in current[:-3])

    def test_major_faults_come_from_the_backing(self):
        steps = [
            ("mmap", 96, 0, 0),
            ("touch", 0, 0, 0),
            ("mmap", 64, 1, 0),
            ("touch", 0, 0, 0),
        ]
        current, reference = _twins(steps, high=120)
        _assert_same(current, reference)
        stats = current[-1][2][2][0][2]
        assert stats[FaultType.MAJOR] > 0
        assert _counter(current[-1], "fault_major") == stats[FaultType.MAJOR]

    def test_multi_page_runs_charge_their_frames_once(self):
        steps = [("extent", 40, 0, 0), ("extent", 600, 2, 0), ("fork", 0, 0, 0), ("store", 0, 3, 0)]
        current, reference = _twins(steps, reset=True)
        _assert_same(current, reference)
        assert all(entry[1][0] == "ok" for entry in current)
        assert _counter(current[1], "frame_meta_touch") == 640

    def test_huge_dax_populate(self):
        current, reference = _twins([("dax", 700, 0, 0), ("dax", 513, 1, 0)])
        _assert_same(current, reference)
        sizes = {pte.page_size for _, pte in current[-1][2][2][0][0]}
        assert sizes == {PAGE_SIZE, 2 * MIB}


class TestPopulateWindows:
    def test_one_descent_per_window(self):
        kernel = Kernel(MachineConfig(dram_bytes=64 * MIB, nvm_bytes=0))
        process = kernel.spawn("p")
        space = process.space
        addr = space.pick_address(1024 * PAGE_SIZE, 2 * MIB) + 2 * MIB - 8 * PAGE_SIZE
        with mock.patch.object(
            PageTable, "leaf_node", autospec=True, side_effect=PageTable.leaf_node
        ) as descents:
            kernel.syscalls(process).mmap(
                520 * PAGE_SIZE, flags=MapFlags.PRIVATE | MapFlags.POPULATE, addr=addr
            )
        # 8 pages in the first window, 512 in the second: two descents,
        # and every leaf lands at its own address.
        assert descents.call_count == 2
        leaves = list(space.page_table.iter_leaves())
        assert [va for va, _ in leaves] == [addr + i * PAGE_SIZE for i in range(520)]
        assert len({pte.pfn for _, pte in leaves}) == 520

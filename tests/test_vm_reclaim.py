"""Reclaim baselines: clock and 2Q scanning, eviction, swap integration."""

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.errors import OutOfMemoryError
from repro.kernel import Kernel, MachineConfig
from repro.mem.frame_meta import FrameTable, PageFlags
from repro.units import GIB, KIB, MIB, PAGE_SIZE
from repro.vm.addrspace import AddressSpace
from repro.vm.reclaimd import ClockReclaimer, TwoQueueReclaimer
from repro.vm.vma import MapFlags


@pytest.fixture
def machine():
    kernel = Kernel(
        MachineConfig(dram_bytes=256 * MIB, nvm_bytes=0, swap_pages=4096)
    )
    process = kernel.spawn("t", track_lru=True)
    return kernel, process, kernel.syscalls(process)


def fault_in(kernel, process, sys, pages):
    va = sys.mmap(pages * PAGE_SIZE)
    kernel.access_range(process, va, pages * PAGE_SIZE)
    return va


def write_dax(kernel, process, pages, name="/dax"):
    """Write ``pages`` pages of a MAP_SHARED PMFS file: DAX frames, which
    have no ``struct page``."""
    sys = kernel.syscalls(process)
    fd = sys.open(kernel.pmfs, name, create=True, size=pages * PAGE_SIZE)
    va = sys.mmap(pages * PAGE_SIZE, flags=MapFlags.SHARED, fd=fd)
    kernel.access_range(process, va, pages * PAGE_SIZE, write=True)
    return va


class TestLruRegistration:
    def test_faulted_pages_tracked(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 8)
        assert kernel.lru.resident_count == 8
        assert len(kernel.lru.inactive) == 8

    def test_untracked_space_not_registered(self, machine):
        kernel, _, _ = machine
        other = kernel.spawn("untracked")  # track_lru=False
        sys = kernel.syscalls(other)
        va = sys.mmap(PAGE_SIZE)
        kernel.access(other, va)
        assert kernel.lru.resident_count == 0


class TestClockReclaimer:
    def test_reclaims_requested_pages(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 16)
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        # Faulted pages start REFERENCED; one scan pass clears, second evicts.
        assert reclaimer.reclaim(4) == 4
        assert process.space.resident_pages() == 12

    def test_referenced_pages_get_second_chance(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 8)
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        before = kernel.counters.get("reclaim_scanned")
        reclaimer.reclaim(1)
        scanned = kernel.counters.get("reclaim_scanned") - before
        # Must have scanned more than it evicted (second chances).
        assert scanned > 1

    def test_scanning_cost_linear_in_resident(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 64)
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        before_ns = kernel.clock.now
        before_scanned = kernel.counters.get("reclaim_scanned")
        reclaimer.reclaim(32)
        assert kernel.counters.get("reclaim_scanned") - before_scanned >= 64
        assert kernel.clock.now > before_ns

    def test_evicted_page_faults_back_from_swap(self, machine):
        kernel, process, sys = machine
        va = fault_in(kernel, process, sys, 4)
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        reclaimer.reclaim(4)
        assert kernel.counters.get("swap_out") == 4
        kernel.access(process, va)  # major fault
        assert kernel.counters.get("swap_in") == 1

    def test_empty_lists_reclaim_zero(self, machine):
        kernel, _, _ = machine
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        assert reclaimer.reclaim(10) == 0


class TestStaleEntries:
    """munmap and exit leave entries behind; reclaim must cope with them."""

    def test_reused_pfns_are_tracked_and_reclaimable(self, machine):
        kernel, first, sys = machine
        va = fault_in(kernel, first, sys, 64)
        first_pfns = {
            first.space.page_table.lookup(va + i * PAGE_SIZE).pfn
            for i in range(64)
        }
        sys.munmap(va, 64 * PAGE_SIZE)
        second = kernel.spawn("second", track_lru=True)
        va = fault_in(kernel, second, kernel.syscalls(second), 64)
        second_pfns = {
            second.space.page_table.lookup(va + i * PAGE_SIZE).pfn
            for i in range(64)
        }
        assert len(first_pfns & second_pfns) >= 32  # the frames were reused
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        assert reclaimer.reclaim(16) == 16
        assert second.space.resident_pages() == 48

    def test_remapped_address_does_not_hide_a_reused_frame(self):
        # munmap A then B, re-mmap B then A at their old addresses: B
        # refaults onto A's old frames and A onto B's.  A's entries name
        # addresses that map again, but not their frames: they are dead,
        # and each of A's new pages must get its own entry.
        kernel = Kernel(MachineConfig(dram_bytes=64 * MIB, nvm_bytes=0))
        process = kernel.spawn("t", track_lru=True)
        sys = kernel.syscalls(process)
        table = process.space.page_table

        def fault(va):
            kernel.access_range(process, va, 64 * PAGE_SIZE, write=True)
            return [table.lookup(va + i * PAGE_SIZE).pfn for i in range(64)]

        a, b = sys.mmap(64 * PAGE_SIZE), sys.mmap(64 * PAGE_SIZE)
        first = {a: fault(a), b: fault(b)}
        sys.munmap(a, 64 * PAGE_SIZE)
        sys.munmap(b, 64 * PAGE_SIZE)
        again = {}
        for va in (b, a):
            assert sys.mmap(64 * PAGE_SIZE, addr=va) == va
            again[va] = fault(va)
        assert set(again[b]) == set(first[a])
        assert set(again[a]) == set(first[b])
        listed = {
            (entry.pfn, entry.vaddr)
            for entry in (*kernel.lru.active, *kernel.lru.inactive)
        }
        for va in (a, b):
            for i, pfn in enumerate(again[va]):
                assert (pfn, va + i * PAGE_SIZE) in listed

    def test_exited_process_entries_are_dropped(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 16)
        process.exit()
        reclaimer = ClockReclaimer(kernel.lru, kernel.frame_table, kernel.counters)
        assert reclaimer.reclaim(16) == 0
        # Dead entries fall off both lists instead of cycling forever.
        assert not kernel.lru.active and not kernel.lru.inactive
        assert kernel.lru.resident_count == 0


class TestEntriesCarryTheirMeta:
    """An entry carries its frame's ``struct page``: the fault hands over
    the meta it took a reference on, and a frame without one (DAX) gets
    it on a hand's first pop, not from an aging pass."""

    def test_fault_meta_is_kept_and_a_dax_meta_waits_for_the_hand(self):
        kernel = Kernel(MachineConfig(dram_bytes=64 * MIB, nvm_bytes=16 * MIB))
        process = kernel.spawn("t", track_lru=True)
        sys = kernel.syscalls(process)
        returned = []
        get_ref = FrameTable.get_ref

        def recording_get_ref(table, pfn):
            returned.append(get_ref(table, pfn))
            return returned[-1]

        with mock.patch.object(FrameTable, "get_ref", recording_get_ref):
            kernel.access(process, sys.mmap(PAGE_SIZE), write=True)
        write_dax(kernel, process, 1)
        lru, table = kernel.lru, kernel.frame_table
        anon, dax = lru.inactive
        assert [meta.pfn for meta in returned] == [anon.pfn]
        assert anon.meta is returned[0]
        assert dax.meta is None and table.peek(dax.pfn) is None
        # Both entries on the active list without a pop (as the tier-1
        # aging op arranges them), then one aging pass: a splice that
        # creates no meta.
        lru.active.extend(lru.inactive)
        lru.inactive.clear()
        tracked = table.tracked_count()
        reclaimer = ClockReclaimer(lru, table, kernel.counters)
        assert reclaimer._age_active()
        assert list(lru.inactive) == [anon, dax] and not lru.active
        assert dax.meta is None and table.peek(dax.pfn) is None
        assert table.tracked_count() == tracked
        # The hand promotes the referenced anon page, then makes the DAX
        # frame's meta on its first pop and keeps it on the entry.
        reclaimer.reclaim(1, max_scan=2)
        assert reclaimer.scanned == 2
        assert dax.meta is not None and dax.meta is table.peek(dax.pfn)
        assert table.tracked_count() == tracked + 1
        assert anon.meta is returned[0] and anon in lru.active


class TestTwoQueueReclaimer:
    def test_reclaims(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 16)
        reclaimer = TwoQueueReclaimer(
            kernel.lru, kernel.frame_table, kernel.counters
        )
        assert reclaimer.reclaim(4) == 4

    def test_protected_fraction_bounds_promotion(self, machine):
        kernel, process, sys = machine
        fault_in(kernel, process, sys, 16)
        reclaimer = TwoQueueReclaimer(
            kernel.lru, kernel.frame_table, kernel.counters,
            protected_fraction=0.25,
        )
        reclaimer.reclaim(8)
        assert len(kernel.lru.active) <= 4

    def test_bad_fraction_rejected(self, machine):
        kernel, _, _ = machine
        with pytest.raises(ValueError):
            TwoQueueReclaimer(
                kernel.lru, kernel.frame_table, kernel.counters,
                protected_fraction=1.5,
            )


class _PerPageClock(ClockReclaimer):
    """The clock loops as they were before per-run charging, kept as the
    reference: one ``reclaim_scanned`` bump and one charged
    ``FrameTable.touch`` per examined page."""

    def reclaim(self, nr_pages, max_scan=None):
        reclaimed = 0
        scanned = 0
        scan_budget = (
            max_scan
            if max_scan is not None
            else 4 * max(1, self._lru.resident_count)
        )
        while reclaimed < nr_pages and scanned < scan_budget:
            if not self._lru.inactive:
                if not self._age_active():
                    break
            entry = self._lru.inactive.popleft()
            scanned += 1
            self._counters.bump("reclaim_scanned")
            meta = self._frame_table.touch(entry.pfn)
            if meta.has_flag(PageFlags.REFERENCED):
                meta.clear_flag(PageFlags.REFERENCED)
                self._lru.active.append(entry)
                continue
            if self._lru._evict(entry):
                reclaimed += 1
                self._counters.bump("reclaim_evicted")
        self.scanned = scanned
        return reclaimed

    def _age_active(self):
        if not self._lru.active:
            return False
        while self._lru.active:
            entry = self._lru.active.popleft()
            self._counters.bump("reclaim_scanned")
            self._frame_table.touch(entry.pfn)
            self._lru.inactive.append(entry)
        return True


class _PerPageTwoQueue(TwoQueueReclaimer):
    """The 2Q loop as it was before per-run charging (the reference)."""

    def reclaim(self, nr_pages):
        reclaimed = 0
        scan_budget = 4 * max(1, self._lru.resident_count)
        max_protected = int(self._protected_fraction * self._lru.resident_count)
        while reclaimed < nr_pages and scan_budget > 0:
            if not self._lru.inactive:
                if not self._lru.active:
                    break
                entry = self._lru.active.popleft()
                self._counters.bump("reclaim_scanned")
                scan_budget -= 1
                self._frame_table.touch(entry.pfn)
                self._lru.inactive.append(entry)
                continue
            entry = self._lru.inactive.popleft()
            scan_budget -= 1
            self._counters.bump("reclaim_scanned")
            meta = self._frame_table.touch(entry.pfn)
            if (
                meta.has_flag(PageFlags.REFERENCED)
                and len(self._lru.active) < max_protected
            ):
                meta.clear_flag(PageFlags.REFERENCED)
                self._lru.active.append(entry)
                continue
            if self._lru._evict(entry):
                reclaimed += 1
                self._counters.bump("reclaim_evicted")
        return reclaimed


def _twin_machine(
    pages, neighbour, dax, forked, unmapped, referenced, swap_pages, reset
):
    """One deterministic machine; built twice, it gives twin kernels.

    ``pages`` written pages in a tracked process (then ``dax`` pages of a
    shared PMFS file, whose frames have no metadata until a hand pops
    them, and ``neighbour`` pages in a second process), optionally
    fork-shared; the first ``unmapped`` pages are munmapped (their
    entries stay behind, dead); REFERENCED survives only on the metas
    whose creation index is a set bit of ``referenced``.  ``reset``
    empties the counters, so reclaim creates its keys itself.
    """
    kernel = Kernel(
        MachineConfig(
            dram_bytes=64 * MIB, nvm_bytes=16 * MIB if dax else 0,
            swap_pages=swap_pages,
        )
    )
    process = kernel.spawn("t", track_lru=True)
    va = fault_in(kernel, process, kernel.syscalls(process), pages)
    kernel.access_range(process, va, pages * PAGE_SIZE, write=True)
    if dax:
        write_dax(kernel, process, dax)
    if neighbour:
        other = kernel.spawn("n", track_lru=True)
        fault_in(kernel, other, kernel.syscalls(other), neighbour)
    if forked:
        kernel.fork(process)
    if unmapped:
        kernel.syscalls(process).munmap(va, unmapped * PAGE_SIZE)
    for index, (_, meta) in enumerate(kernel.frame_table.items()):
        if not referenced >> index & 1:
            meta.clear_flag(PageFlags.REFERENCED)
    if reset:
        kernel.counters.reset()
    return kernel, process, va


def _reclaim_state(kernel):
    """Everything per-run charging must leave exactly as per-page did."""
    lru, table = kernel.lru, kernel.frame_table
    return (
        kernel.clock.now,
        # Ordered items: key creation order too, so a zero-amount bump
        # (a key the per-page loop never creates) shows.
        list(kernel.counters.snapshot().items()),
        [(e.pfn, e.vaddr, e.space.asid) for e in lru.inactive],
        [(e.pfn, e.vaddr, e.space.asid) for e in lru.active],
        [(pfn, meta.flags) for pfn, meta in table.items()],
        table.tracked_count(),
    )


class _EvictionLog:
    """Recording stub on ``AddressSpace.evict_page``: each call logs the
    clock and scan counters of the kernel being driven, then evicts."""

    def __init__(self):
        self.kernel = None
        self.calls = []
        original = AddressSpace.evict_page

        def evict_page(space, vaddr):
            counters = self.kernel.counters
            self.calls.append((
                vaddr,
                self.kernel.clock.now,
                counters.get("reclaim_scanned"),
                counters.get("frame_meta_touch"),
            ))
            return original(space, vaddr)

        self.patch = mock.patch.object(AddressSpace, "evict_page", evict_page)

    def drive(self, kernel, call):
        """(result, raised, evict_page log) of ``call()`` on ``kernel``."""
        self.kernel, self.calls = kernel, []
        try:
            return call(), False, self.calls
        except OutOfMemoryError:  # swap full mid-eviction
            return None, True, self.calls


_RECLAIM_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("reclaim"),
            st.integers(0, 12),
            st.one_of(st.none(), st.just(0), st.integers(1, 8)),
        ),
        st.tuples(st.just("access"), st.integers(0, 47), st.booleans()),
    ),
    min_size=1,
    max_size=8,
)


class TestPerRunChargingMatchesPerPage:
    """Property: charging per aging pass and per run of scanned pages
    leaves every simulated number where one charge per page did, and an
    eviction call sees the same clock and counters."""

    @given(
        two_queue=st.booleans(),
        protected=st.sampled_from([0.25, 0.5, 0.75]),
        pages=st.integers(1, 48),
        neighbour=st.integers(0, 8),
        dax=st.integers(0, 4),
        forked=st.booleans(),
        unmapped=st.integers(0, 16),
        referenced=st.integers(0, (1 << 64) - 1),
        swap_pages=st.sampled_from([3, 4096]),
        reset=st.booleans(),
        steps=_RECLAIM_STEPS,
    )
    def test_twin_kernels_agree_after_every_call(
        self, two_queue, protected, pages, neighbour, dax, forked, unmapped,
        referenced, swap_pages, reset, steps,
    ):
        unmapped = min(unmapped, pages)
        machines = [
            _twin_machine(
                pages, neighbour, dax, forked, unmapped, referenced,
                swap_pages, reset,
            )
            for _ in range(2)
        ]
        if two_queue:
            classes = (TwoQueueReclaimer, _PerPageTwoQueue)
            options = {"protected_fraction": protected}
        else:
            classes = (ClockReclaimer, _PerPageClock)
            options = {}
        reclaimers = [
            cls(kernel.lru, kernel.frame_table, kernel.counters, **options)
            for cls, (kernel, _, _) in zip(classes, machines)
        ]
        (real, _, _), (reference, _, _) = machines
        log = _EvictionLog()
        with log.patch:
            for step in steps:
                if step[0] == "access":
                    page = step[1] % pages
                    if page >= unmapped:
                        for kernel, process, va in machines:
                            kernel.access(process, va + page * PAGE_SIZE, write=step[2])
                    continue
                _, nr_pages, max_scan = step
                args = (nr_pages,) if two_queue else (nr_pages, max_scan)
                outcomes = [
                    log.drive(kernel, lambda: reclaimer.reclaim(*args))
                    + (getattr(reclaimer, "scanned", None),)
                    for (kernel, _, _), reclaimer in zip(machines, reclaimers)
                ]
                assert outcomes[0] == outcomes[1]
                assert _reclaim_state(real) == _reclaim_state(reference)


class TestSwapDevice:
    def test_write_read_roundtrip(self, machine):
        kernel, _, _ = machine
        slot = kernel.swap.write_page()
        assert kernel.swap.used_slots == 1
        kernel.swap.read_page(slot)
        assert kernel.swap.used_slots == 0

    def test_costs_charged(self, machine):
        kernel, _, _ = machine
        before = kernel.clock.now
        slot = kernel.swap.write_page()
        assert kernel.clock.now - before == kernel.costs.swap_write_page_ns
        before = kernel.clock.now
        kernel.swap.read_page(slot)
        assert kernel.clock.now - before == kernel.costs.swap_read_page_ns

    def test_slot_reuse(self, machine):
        kernel, _, _ = machine
        slot = kernel.swap.write_page()
        kernel.swap.read_page(slot)
        assert kernel.swap.write_page() == slot

    def test_bad_read_rejected(self, machine):
        kernel, _, _ = machine
        with pytest.raises(ValueError):
            kernel.swap.read_page(7)

    def test_capacity_exhaustion(self):
        from repro.errors import OutOfMemoryError
        from repro.hw.clock import SimClock
        from repro.obs.metrics import MetricsRegistry
        from repro.hw.costmodel import CostModel
        from repro.vm.swap import SwapDevice

        swap = SwapDevice(2, SimClock(), CostModel(), MetricsRegistry())
        swap.write_page()
        swap.write_page()
        with pytest.raises(OutOfMemoryError):
            swap.write_page()

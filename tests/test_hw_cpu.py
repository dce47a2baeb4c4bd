"""CPU access path: TLB hits, walks, faults, range translations."""

import pytest

from repro.errors import ProtectionError
from repro.hw.cache import CacheModel
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.hw.cpu import Cpu
from repro.hw.rtlb import RangeEntry, RangeTlb
from repro.hw.tlb import Tlb, TlbEntry
from repro.obs.metrics import MetricsRegistry
from repro.units import MIB, PAGE_SIZE


class FakeSpace:
    """Scriptable TranslationContext for CPU unit tests."""

    def __init__(self, asid=1):
        self._asid = asid
        self.mapped = {}  # vpn -> (pfn, writable)
        self.ranges = []
        self.fault_log = []
        self.fault_action = None  # callable invoked on fault

    @property
    def asid(self):
        return self._asid

    def walk(self, vaddr):
        vpn = vaddr // PAGE_SIZE
        if vpn in self.mapped:
            pfn, writable = self.mapped[vpn]
            return TlbEntry(
                vpn=vpn, pfn=pfn, page_size=PAGE_SIZE, writable=writable,
                asid=self._asid,
            )
        return None

    def lookup_range(self, vaddr):
        for entry in self.ranges:
            if entry.covers(vaddr):
                return entry
        return None

    def handle_fault(self, vaddr, write):
        self.fault_log.append((vaddr, write))
        if self.fault_action is None:
            raise ProtectionError(f"segv at {vaddr:#x}")
        self.fault_action(vaddr, write)


def make_cpu(with_rtlb=False):
    clock = SimClock()
    counters = MetricsRegistry()
    costs = CostModel()
    cache = CacheModel(clock, costs, counters)
    rtlb = RangeTlb(4) if with_rtlb else None
    cpu = Cpu(clock, costs, counters, cache, Tlb(), rtlb)
    return cpu, clock, counters


class TestBasicAccess:
    def test_walk_then_tlb_hit(self):
        cpu, _, counters = make_cpu()
        space = FakeSpace()
        space.mapped[4] = (44, True)
        cpu.access(space, 4 * PAGE_SIZE)
        cpu.access(space, 4 * PAGE_SIZE + 64)
        assert counters.get("tlb_miss") == 1
        assert counters.get("tlb_hit") == 1

    def test_returns_physical_address(self):
        cpu, _, _ = make_cpu()
        space = FakeSpace()
        space.mapped[4] = (44, True)
        assert cpu.access(space, 4 * PAGE_SIZE + 100) == 44 * PAGE_SIZE + 100

    def test_negative_address_rejected(self):
        cpu, _, _ = make_cpu()
        with pytest.raises(ProtectionError):
            cpu.access(FakeSpace(), -1)

    def test_unmapped_access_faults_and_retries(self):
        cpu, _, counters = make_cpu()
        space = FakeSpace()

        def install(vaddr, write):
            space.mapped[vaddr // PAGE_SIZE] = (7, True)

        space.fault_action = install
        paddr = cpu.access(space, 3 * PAGE_SIZE)
        assert paddr == 7 * PAGE_SIZE
        assert counters.get("fault_trap") == 1
        assert space.fault_log == [(3 * PAGE_SIZE, False)]

    def test_segfault_propagates(self):
        cpu, _, _ = make_cpu()
        with pytest.raises(ProtectionError, match="segv"):
            cpu.access(FakeSpace(), 0x5000)

    def test_handler_that_never_maps_gives_up(self):
        cpu, _, _ = make_cpu()
        space = FakeSpace()
        space.fault_action = lambda vaddr, write: None  # resolves nothing
        with pytest.raises(ProtectionError, match="retries"):
            cpu.access(space, 0x5000)


class TestWritePermissions:
    def test_write_to_readonly_faults(self):
        cpu, _, counters = make_cpu()
        space = FakeSpace()
        space.mapped[1] = (9, False)

        def upgrade(vaddr, write):
            space.mapped[1] = (9, True)

        space.fault_action = upgrade
        cpu.access(space, PAGE_SIZE, write=True)
        assert counters.get("fault_trap") == 1

    def test_stale_tlb_entry_invalidated_on_cow(self):
        cpu, _, _ = make_cpu()
        space = FakeSpace()
        space.mapped[1] = (9, False)
        cpu.access(space, PAGE_SIZE)  # read fills TLB with read-only entry

        def upgrade(vaddr, write):
            space.mapped[1] = (10, True)

        space.fault_action = upgrade
        paddr = cpu.access(space, PAGE_SIZE, write=True)
        assert paddr == 10 * PAGE_SIZE  # new frame, not the stale one


class TestRangeTranslations:
    def test_range_hit_bypasses_page_tlb(self):
        cpu, _, counters = make_cpu(with_rtlb=True)
        space = FakeSpace()
        space.ranges.append(
            RangeEntry(base=0, limit=4 * MIB, offset=1 * MIB, writable=True, asid=1)
        )
        cpu.access(space, 100)
        cpu.access(space, 2 * MIB)
        assert counters.get("rtlb_miss") == 1
        assert counters.get("rtlb_hit") == 1
        assert counters.get("tlb_miss") == 0

    def test_range_readonly_write_faults(self):
        cpu, _, _ = make_cpu(with_rtlb=True)
        space = FakeSpace()
        space.ranges.append(
            RangeEntry(base=0, limit=MIB, offset=0, writable=False, asid=1)
        )
        with pytest.raises(ProtectionError):
            cpu.access(space, 0, write=True)

    def test_falls_back_to_paging_outside_ranges(self):
        cpu, _, counters = make_cpu(with_rtlb=True)
        space = FakeSpace()
        space.mapped[1] = (5, True)
        cpu.access(space, PAGE_SIZE)
        assert counters.get("tlb_miss") == 1


class TestMaintenance:
    def test_access_range_strides(self):
        cpu, _, counters = make_cpu()
        space = FakeSpace()
        for vpn in range(4):
            space.mapped[vpn] = (vpn + 10, True)
        cpu.access_range(space, 0, 4 * PAGE_SIZE, stride=PAGE_SIZE)
        assert counters.get("tlb_miss") == 4

    def test_access_range_validates_args(self):
        cpu, _, _ = make_cpu()
        with pytest.raises(ValueError):
            cpu.access_range(FakeSpace(), 0, -1)
        with pytest.raises(ValueError):
            cpu.access_range(FakeSpace(), 0, 100, stride=0)

    def test_invalidate_page_charges_only_on_drop(self):
        cpu, clock, _ = make_cpu()
        space = FakeSpace()
        space.mapped[1] = (5, True)
        cpu.access(space, PAGE_SIZE)
        before = clock.now
        cpu.invalidate_page(PAGE_SIZE, asid=1)
        assert clock.now > before
        before = clock.now
        cpu.invalidate_page(PAGE_SIZE, asid=1)  # already gone
        assert clock.now == before

    def test_switch_address_space_flush(self):
        cpu, _, counters = make_cpu()
        space = FakeSpace()
        space.mapped[1] = (5, True)
        cpu.access(space, PAGE_SIZE)
        cpu.switch_address_space(2, flush=True)
        assert cpu.tlb.resident_count() == 0
        assert counters.get("cr3_switch") == 1

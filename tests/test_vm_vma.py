"""VMAs: geometry, merging, backings."""

import pytest

from repro.errors import MappingError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.mem.buddy import BuddyAllocator
from repro.mem.physical import MemoryRegion
from repro.obs.metrics import MetricsRegistry
from repro.units import MIB, PAGE_SIZE
from repro.vm.vma import AnonBacking, MapFlags, Protection, Vma


def make_anon(region_size=MIB):
    clock = SimClock()
    counters = MetricsRegistry()
    region = MemoryRegion(start=0, size=region_size, tech=MemoryTechnology.DRAM)
    buddy = BuddyAllocator(region)
    return AnonBacking(buddy, clock, CostModel(), counters), buddy, clock, counters


def make_vma(start=0, end=4 * PAGE_SIZE, backing=None, offset=0, **kw):
    backing = backing or make_anon()[0]
    return Vma(
        start=start,
        end=end,
        prot=kw.pop("prot", Protection.rw()),
        flags=kw.pop("flags", MapFlags.PRIVATE | MapFlags.ANONYMOUS),
        backing=backing,
        backing_offset=offset,
        **kw,
    )


class TestVmaGeometry:
    def test_lengths_and_pages(self):
        vma = make_vma(0x1000, 0x5000)
        assert vma.length == 0x4000
        assert vma.page_count == 4

    def test_contains_and_overlaps(self):
        vma = make_vma(0x1000, 0x3000)
        assert vma.contains(0x1000) and vma.contains(0x2FFF)
        assert not vma.contains(0x3000)
        assert vma.overlaps(0x2000, 0x4000)
        assert not vma.overlaps(0x3000, 0x4000)

    def test_backing_page_uses_offset(self):
        vma = make_vma(0x10000, 0x14000, offset=10)
        assert vma.backing_page(0x11000) == 11

    def test_unaligned_rejected(self):
        with pytest.raises(MappingError):
            make_vma(1, PAGE_SIZE)

    def test_empty_rejected(self):
        with pytest.raises(MappingError):
            make_vma(PAGE_SIZE, PAGE_SIZE)

    def test_is_private(self):
        assert make_vma(flags=MapFlags.PRIVATE).is_private()
        assert not make_vma(flags=MapFlags.SHARED).is_private()


class TestVmaMerging:
    def test_adjacent_compatible_merge(self):
        backing, _, _, _ = make_anon()
        left = make_vma(0, 4 * PAGE_SIZE, backing=backing, offset=0)
        right = make_vma(4 * PAGE_SIZE, 8 * PAGE_SIZE, backing=backing, offset=4)
        assert left.can_merge_with(right)
        left.merge_with(right)
        assert left.end == 8 * PAGE_SIZE

    def test_gap_prevents_merge(self):
        backing, _, _, _ = make_anon()
        left = make_vma(0, 4 * PAGE_SIZE, backing=backing)
        right = make_vma(8 * PAGE_SIZE, 12 * PAGE_SIZE, backing=backing, offset=8)
        assert not left.can_merge_with(right)

    def test_different_prot_prevents_merge(self):
        backing, _, _, _ = make_anon()
        left = make_vma(0, 4 * PAGE_SIZE, backing=backing)
        right = make_vma(
            4 * PAGE_SIZE, 8 * PAGE_SIZE, backing=backing, offset=4,
            prot=Protection.READ,
        )
        assert not left.can_merge_with(right)

    def test_noncontiguous_file_offset_prevents_merge(self):
        backing, _, _, _ = make_anon()
        left = make_vma(0, 4 * PAGE_SIZE, backing=backing, offset=0)
        right = make_vma(4 * PAGE_SIZE, 8 * PAGE_SIZE, backing=backing, offset=9)
        assert not left.can_merge_with(right)

    def test_merge_incompatible_raises(self):
        left = make_vma(0, 4 * PAGE_SIZE)
        right = make_vma(8 * PAGE_SIZE, 12 * PAGE_SIZE)
        with pytest.raises(MappingError):
            left.merge_with(right)


class TestAnonBacking:
    def test_frame_allocated_once(self):
        backing, _, _, counters = make_anon()
        first = backing.frame_for(3, write=True)
        second = backing.frame_for(3, write=False)
        assert first == second
        assert counters.get("anon_page_alloc") == 1

    def test_zeroing_charged_on_alloc(self):
        backing, _, clock, _ = make_anon()
        backing.frame_for(0, write=True)
        assert clock.now >= CostModel().zero_page_ns(PAGE_SIZE)

    def test_frame_runs_one_page_each(self):
        backing, _, _, _ = make_anon()
        runs = list(backing.frame_runs(0, 5))
        assert len(runs) == 5
        assert all(run == 1 for _, _, run in runs)

    def test_release_frees_frames(self):
        backing, buddy, _, _ = make_anon()
        before = buddy.free_frames
        backing.frame_for(0, write=True)
        backing.frame_for(1, write=True)
        backing.release(0, 2)
        assert buddy.free_frames == before
        assert backing.resident_pages == 0

    def test_release_tolerates_holes(self):
        backing, _, _, _ = make_anon()
        backing.frame_for(5, write=True)
        backing.release(0, 10)  # pages 0-4, 6-9 never existed
        assert backing.resident_pages == 0

    def test_swap_out_without_device_drops_frame(self):
        backing, buddy, _, _ = make_anon()
        before = buddy.free_frames
        backing.frame_for(0, write=True)
        backing.swap_out(0)
        assert buddy.free_frames == before

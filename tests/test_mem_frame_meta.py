"""Frame metadata: the struct-page baseline and its charged touches."""

import pytest

from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.mem.frame_meta import FrameMeta, FrameTable, PageFlags
from repro.obs.metrics import MetricsRegistry


class TestPageFlags:
    def test_paper_counts_25_flags(self):
        # §2: "the Linux PAGE structure has 25 separate flags".
        assert PageFlags.flag_count() == 25

    def test_set_clear_check(self):
        meta = FrameMeta(pfn=1)
        meta.set_flag(PageFlags.DIRTY)
        meta.set_flag(PageFlags.LRU)
        assert meta.has_flag(PageFlags.DIRTY)
        meta.clear_flag(PageFlags.DIRTY)
        assert not meta.has_flag(PageFlags.DIRTY)
        assert meta.has_flag(PageFlags.LRU)


class TestFrameTable:
    def make(self):
        clock = SimClock()
        counters = MetricsRegistry()
        return FrameTable(clock, CostModel(), counters), clock, counters

    def test_touch_charges_time(self):
        table, clock, counters = self.make()
        table.touch(5)
        assert clock.now == CostModel().frame_meta_update_ns
        assert counters.get("frame_meta_touch") == 1

    def test_touch_is_lazy_but_persistent(self):
        table, _, _ = self.make()
        meta = table.touch(7)
        meta.set_flag(PageFlags.REFERENCED)
        assert table.touch(7).has_flag(PageFlags.REFERENCED)
        assert table.tracked_count() == 1

    def test_peek_uncharged(self):
        table, clock, _ = self.make()
        assert table.peek(3) is None
        table.touch(3)
        elapsed = clock.now
        assert table.peek(3) is not None
        assert clock.now == elapsed

    def test_refcounting(self):
        table, _, _ = self.make()
        table.get_ref(1)
        table.get_ref(1)
        assert table.put_ref(1) == 1
        assert table.put_ref(1) == 0

    def test_refcount_underflow_rejected(self):
        table, _, _ = self.make()
        table.touch(1)
        with pytest.raises(ValueError):
            table.put_ref(1)

    def test_negative_pfn_rejected(self):
        table, _, _ = self.make()
        with pytest.raises(ValueError):
            table.touch(-1)

    def test_scan_charges_per_frame(self):
        # The linear cost the paper eliminates: scanning N frames costs N
        # metadata touches, charged in closed form.
        table, clock, counters = self.make()
        table.scan_charge(100)
        assert counters.get("frame_meta_touch") == 100
        assert clock.now == 100 * CostModel().frame_meta_update_ns

    def test_scan_meta_and_empty_charge_are_free(self):
        # A scan's metas are paid for by scan_charge; an empty scan
        # charges nothing and leaves no zero-valued counter behind.
        table, clock, counters = self.make()
        meta = table.scan_meta(3)
        table.scan_charge(0)
        assert table.scan_meta(3) is meta and table.touch(3) is meta
        assert clock.now == CostModel().frame_meta_update_ns
        assert list(counters.snapshot()) == ["frame_meta_touch"]
        with pytest.raises(ValueError):
            table.scan_meta(-1)

    def test_works_unwired(self):
        table = FrameTable()  # no clock: pure data structure
        meta = table.touch(0)
        assert meta.pfn == 0

    def test_items_iteration(self):
        table, _, _ = self.make()
        table.touch(3)
        table.touch(1)
        assert sorted(pfn for pfn, _ in table.items()) == [1, 3]

"""MetricsRegistry, LatencyHistogram, and the delta_since clamp fix."""

import pytest

from repro.obs.metrics import LatencyHistogram, MetricsRegistry


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram("x")
        assert h.count == 0
        assert h.total == 0
        assert h.min is None
        assert h.max == 0
        assert h.p50 == 0
        assert h.mean == 0.0
        assert h.buckets() == []

    def test_observe_updates_summary(self):
        h = LatencyHistogram("x")
        for v in [5, 1, 9]:
            h.observe(v)
        assert (h.count, h.total, h.min, h.max) == (3, 15, 1, 9)
        assert h.mean == 5.0

    def test_negative_samples_clamp_to_zero(self):
        h = LatencyHistogram("x")
        h.observe(-7)
        assert h.count == 1
        assert h.total == 0
        assert h.min == 0
        assert h.p50 == 0

    def test_power_of_two_bucket_edges(self):
        h = LatencyHistogram("x")
        for v in [0, 1, 2, 3, 4, 7, 8]:
            h.observe(v)
        # bucket b holds values with b significant bits; upper edge 2**b - 1
        assert h.buckets() == [(0, 1), (1, 1), (3, 2), (7, 2), (15, 1)]

    def test_percentile_upper_edge_clamped_to_max(self):
        h = LatencyHistogram("x")
        for _ in range(99):
            h.observe(1)
        h.observe(1000)  # bucket 10, upper edge 1023 — but max is 1000
        assert h.p50 == 1
        assert h.p99 == 1
        assert h.percentile(100) == 1000

    def test_percentile_rank_rounds_up(self):
        h = LatencyHistogram("x")
        h.observe(1)
        h.observe(100)
        # rank ceil(0.5*2)=1 -> first bucket
        assert h.percentile(50) == 1

    def test_percentile_rejects_out_of_range(self):
        h = LatencyHistogram("x")
        with pytest.raises(ValueError):
            h.percentile(0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_bounded_relative_error(self):
        h = LatencyHistogram("x")
        for v in [100, 200, 300, 400]:
            h.observe(v)
        # p50 rank=2 -> sample 200, bucket edge 255: within 2x of truth.
        assert 200 <= h.p50 < 400


class TestMetricsRegistry:
    def test_histograms_create_on_first_use(self):
        reg = MetricsRegistry()
        reg.observe("page_walk", 45)
        reg.observe("page_walk", 55)
        hist = reg.histogram("page_walk")
        assert hist.count == 2
        assert reg.histograms() == {"page_walk": hist}
        assert [h.name for h in reg.iter_histograms()] == ["page_walk"]

    def test_iter_histograms_sorted_by_name(self):
        reg = MetricsRegistry()
        for name in ["zeta", "alpha", "mid"]:
            reg.observe(name, 1)
        assert [h.name for h in reg.iter_histograms()] == ["alpha", "mid", "zeta"]

    def test_reset_clears_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.bump("tlb_hit")
        reg.observe("span", 10)
        reg.reset()
        assert reg.get("tlb_hit") == 0
        assert reg.histograms() == {}

    def test_non_strict_accepts_anything(self):
        # No run-time name check: canonical names are enforced by the
        # bump-site source audit (test_obs_names.py), not on the hot path.
        reg = MetricsRegistry()
        reg.bump("made_up_counter")
        reg.bump("made_up_counter", 2)
        assert reg.get("made_up_counter") == 3
        assert reg.snapshot() == {"made_up_counter": 3}

    def test_bare_registry_reads_none_from_every_hook_slot(self):
        # The registry is the one home of every armed subsystem: each
        # instance carries all five slots, unarmed, and no profiler slot
        # (wall time is a column of the tracer's own span record).
        reg = MetricsRegistry()
        slots = {name: value for name, value in vars(reg).items() if not name.startswith("_")}
        assert slots == dict.fromkeys(("tracer", "chaos", "sanitize", "ras", "qos"))
        assert not hasattr(reg, "profiler")

    def test_tracer_attribute_settable_per_instance(self):
        # Components reach a per-kernel tracer through their existing
        # counters reference.
        reg = MetricsRegistry()
        assert reg.tracer is None
        sentinel = object()
        reg.tracer = sentinel
        assert reg.tracer is sentinel
        assert MetricsRegistry().tracer is None


@pytest.mark.parametrize("cls", [MetricsRegistry])
class TestDeltaSinceClamp:
    """Regression: reset() between snapshot and delta must not go negative."""

    def test_reset_mid_measurement_clamps(self, cls):
        counters = cls()
        counters.bump("tlb_hit", 10)
        snapshot = counters.snapshot()
        counters.bump("tlb_hit", 3)
        counters.reset()  # mid-measurement reset (e.g. a crash)
        counters.bump("fault_minor", 2)
        delta = counters.delta_since(snapshot)
        assert delta == {"fault_minor": 2}
        assert all(v > 0 for v in delta.values())

    def test_normal_delta_unaffected(self, cls):
        counters = cls()
        counters.bump("tlb_hit", 1)
        snapshot = counters.snapshot()
        counters.bump("tlb_hit", 4)
        counters.bump("tlb_miss", 1)
        assert counters.delta_since(snapshot) == {"tlb_hit": 4, "tlb_miss": 1}

"""SimClock and MetricsRegistry."""

import pytest

from repro.hw.clock import SimClock
from repro.obs.metrics import MetricsRegistry


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(100)
        clock.advance(250)
        assert clock.now == 350

    def test_zero_advance_allowed(self):
        clock = SimClock()
        clock.advance(0)
        assert clock.now == 0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_elapsed_since(self):
        clock = SimClock()
        clock.advance(10)
        start = clock.now
        clock.advance(32)
        assert clock.elapsed_since(start) == 32


class TestEventCounters:
    def test_unset_counter_reads_zero(self):
        assert MetricsRegistry().get("nothing") == 0

    def test_bump_default_and_amount(self):
        counters = MetricsRegistry()
        counters.bump("faults")
        counters.bump("faults", 4)
        assert counters.get("faults") == 5

    def test_snapshot_delta(self):
        counters = MetricsRegistry()
        counters.bump("a", 2)
        snap = counters.snapshot()
        counters.bump("a")
        counters.bump("b", 3)
        delta = counters.delta_since(snap)
        assert delta == {"a": 1, "b": 3}

    def test_delta_omits_unchanged(self):
        counters = MetricsRegistry()
        counters.bump("a", 2)
        snap = counters.snapshot()
        assert counters.delta_since(snap) == {}

    def test_reset(self):
        counters = MetricsRegistry()
        counters.bump("x", 9)
        counters.reset()
        assert counters.get("x") == 0

    def test_iteration_sorted(self):
        counters = MetricsRegistry()
        counters.bump("zeta")
        counters.bump("alpha")
        assert [name for name, _ in counters] == ["alpha", "zeta"]

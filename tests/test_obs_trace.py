"""Tracer: span nesting, self-time attribution, ring bounds, export."""

import pytest

from repro.hw.clock import SimClock
from repro.obs.export import (
    chrome_trace,
    load_chrome_trace,
    subsystem_self_times,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import EventKind, Tracer, subsystem_totals


#: Tracers made by the test running now, disabled when it ends.
_made = []


@pytest.fixture(autouse=True)
def _disable_tracers():
    yield
    while _made:
        _made.pop().disable()


def make_tracer(**kwargs):
    clock = SimClock()
    tracer = Tracer(clock, **kwargs)
    _made.append(tracer)
    return clock, tracer


class TestTracerBasics:
    def test_disabled_by_default_and_noops(self):
        _clock, tracer = make_tracer()
        assert not tracer.enabled
        tracer.begin("x", "cpu")
        tracer.instant("y", "cpu")
        tracer.end()
        assert tracer.events() == []
        assert tracer.total_events == 0
        assert tracer.open_spans == 0

    def test_begin_end_records_two_events(self):
        clock, tracer = make_tracer()
        tracer.enable()
        tracer.begin("walk", "paging", pid=3)
        clock.advance(100)
        tracer.end()
        kinds = [e.kind for e in tracer.events()]
        assert kinds == [EventKind.SPAN_BEGIN, EventKind.SPAN_END]
        begin, end = tracer.events()
        assert (begin.name, begin.subsystem, begin.pid, begin.ts_ns) == (
            "walk", "paging", 3, 0,
        )
        assert end.ts_ns == 100

    def test_instant(self):
        clock, tracer = make_tracer()
        tracer.enable()
        clock.advance(7)
        tracer.instant("tlb_evict", "cpu", pid=2, args={"vaddr": "0x0"})
        (event,) = tracer.events()
        assert event.kind is EventKind.INSTANT
        assert event.ts_ns == 7
        assert event.args == {"vaddr": "0x0"}

    def test_current_pid_stamped_when_pid_omitted(self):
        _clock, tracer = make_tracer()
        tracer.enable()
        tracer.current_pid = 42
        tracer.begin("x", "cpu")
        tracer.instant("y", "cpu")
        tracer.end()
        assert all(e.pid == 42 for e in tracer.events())

    def test_end_with_empty_stack_is_noop(self):
        _clock, tracer = make_tracer()
        tracer.enable()
        tracer.end()
        assert tracer.events() == []

    def test_clear_keeps_enablement(self):
        clock, tracer = make_tracer()
        tracer.enable()
        tracer.instant("x", "cpu")
        tracer.begin("y", "cpu")
        clock.advance(1)
        tracer.end()
        tracer.clear()
        assert tracer.events() == []
        assert tracer.attribution == {}
        assert tracer.total_events == 0
        assert tracer.enabled

    def test_capacity_must_be_positive(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            Tracer(clock, capacity=0)


class TestAttribution:
    def test_flat_span_self_time(self):
        clock, tracer = make_tracer()
        tracer.enable()
        tracer.begin("walk", "paging", pid=1)
        clock.advance(50)
        tracer.end()
        assert tracer.attribution == {(1, "paging"): 50}

    def test_nested_span_subtracts_child_time(self):
        clock, tracer = make_tracer()
        tracer.enable()
        tracer.begin("access", "cpu", pid=1)
        clock.advance(10)
        tracer.begin("walk", "paging", pid=1)
        clock.advance(30)
        tracer.end()
        clock.advance(5)
        tracer.end()
        assert tracer.attribution == {(1, "paging"): 30, (1, "cpu"): 15}
        assert sum(tracer.attribution.values()) == 45

    def test_sibling_children_both_charged_to_parent_child_ns(self):
        clock, tracer = make_tracer()
        tracer.enable()
        tracer.begin("outer", "kernel", pid=0)
        for _ in range(2):
            tracer.begin("inner", "fs", pid=0)
            clock.advance(20)
            tracer.end()
        clock.advance(3)
        tracer.end()
        assert tracer.attribution == {(0, "fs"): 40, (0, "kernel"): 3}

    def test_same_subsystem_different_pids_kept_apart(self):
        clock, tracer = make_tracer()
        tracer.enable()
        for pid in (1, 2):
            tracer.begin("access", "cpu", pid=pid)
            clock.advance(10)
            tracer.end()
        assert tracer.attribution == {(1, "cpu"): 10, (2, "cpu"): 10}

    def test_subsystem_totals_sums_over_pids(self):
        clock, tracer = make_tracer()
        tracer.enable()
        for pid in (1, 2):
            tracer.begin("access", "cpu", pid=pid)
            clock.advance(10)
            tracer.end()
        assert subsystem_totals(tracer.attribution) == {"cpu": 20}

    def test_attribution_since_reports_only_growth(self):
        clock, tracer = make_tracer()
        tracer.enable()
        tracer.begin("a", "cpu", pid=1)
        clock.advance(10)
        tracer.end()
        snapshot = dict(tracer.attribution)
        tracer.begin("b", "fs", pid=1)
        clock.advance(7)
        tracer.end()
        assert tracer.attribution_since(snapshot) == {(1, "fs"): 7}

    def test_metrics_receive_span_latency_samples(self):
        metrics = MetricsRegistry()
        clock, tracer = make_tracer(metrics=metrics)
        tracer.enable()
        tracer.begin("page_walk", "paging", pid=1)
        clock.advance(45)
        tracer.end()
        hist = metrics.histogram("page_walk")
        assert hist.count == 1
        assert hist.total == 45


class TestRingBuffer:
    def test_ring_drops_oldest_and_counts(self):
        clock, tracer = make_tracer(capacity=4)
        tracer.enable()
        for i in range(6):
            clock.advance(1)
            tracer.instant(f"e{i}", "cpu")
        assert tracer.total_events == 6
        assert tracer.dropped_events == 2
        assert [e.name for e in tracer.events()] == ["e2", "e3", "e4", "e5"]

    def test_events_since(self):
        clock, tracer = make_tracer()
        tracer.enable()
        tracer.instant("old", "cpu")
        before = tracer.total_events
        clock.advance(1)
        tracer.instant("new", "cpu")
        assert [e.name for e in tracer.events_since(before)] == ["new"]
        assert tracer.events_since(tracer.total_events) == []

    def test_events_since_clipped_after_overflow(self):
        clock, tracer = make_tracer(capacity=2)
        tracer.enable()
        before = tracer.total_events
        for i in range(5):
            clock.advance(1)
            tracer.instant(f"e{i}", "cpu")
        # 5 fresh events but the ring only holds the last 2.
        assert [e.name for e in tracer.events_since(before)] == ["e3", "e4"]


class TestChromeExport:
    def build_events(self):
        clock, tracer = make_tracer()
        tracer.enable()
        tracer.process_names[1] = "app"
        tracer.begin("access", "cpu", pid=1)
        clock.advance(10)
        tracer.begin("walk", "paging", pid=1)
        clock.advance(30)
        tracer.end()
        tracer.instant("tlb_evict", "cpu", pid=1)
        clock.advance(5)
        tracer.end()
        return tracer

    def test_chrome_trace_document_shape(self):
        tracer = self.build_events()
        document = chrome_trace(tracer.events(), tracer.process_names)
        records = document["traceEvents"]
        assert document["displayTimeUnit"] == "ns"
        metadata = [r for r in records if r["ph"] == "M"]
        assert {m["pid"]: m["args"]["name"] for m in metadata} == {
            0: "kernel", 1: "app",
        }
        spans = [r for r in records if r["ph"] in ("B", "E")]
        assert len(spans) == 4
        assert spans[0]["ts"] == 0.0 and spans[0]["cat"] == "cpu"
        instants = [r for r in records if r["ph"] == "i"]
        assert instants[0]["s"] == "t"

    def test_round_trip_and_self_times(self, tmp_path):
        tracer = self.build_events()
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(path, tracer.events(), tracer.process_names)
        loaded = load_chrome_trace(path)
        # metadata records are not trace events
        assert count == len(loaded) + 2
        assert [e.kind for e in loaded] == [e.kind for e in tracer.events()]
        assert [e.ts_ns for e in loaded] == [e.ts_ns for e in tracer.events()]
        assert subsystem_self_times(loaded) == {"cpu": 15, "paging": 30}
        assert subsystem_self_times(loaded) == subsystem_totals(tracer.attribution)

    def test_self_times_skip_unmatched_end(self):
        tracer = self.build_events()
        events = tracer.events()[1:]  # drop the opening begin
        totals = subsystem_self_times(events)
        assert totals == {"paging": 30}

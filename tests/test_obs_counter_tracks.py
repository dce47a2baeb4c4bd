"""Chrome counter tracks (`ph: "C"`) for MetricsRegistry histograms."""

from __future__ import annotations

import json

import pytest

from repro.kernel import Kernel, MachineConfig
from repro.obs.export import (
    chrome_trace,
    counter_track_events,
    export_tracer,
    load_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.units import MIB, PAGE_SIZE
from repro.vm.vma import MapFlags


#: Kernels the running test traced; disabled when it ends.
_traced = []


@pytest.fixture(autouse=True)
def _disable_tracers():
    yield
    while _traced:
        _traced.pop().tracer.disable()


def traced_kernel() -> Kernel:
    kernel = Kernel(MachineConfig(dram_bytes=64 * MIB))
    kernel.tracer.enable()
    _traced.append(kernel)
    process = kernel.spawn("demo")
    sys = kernel.syscalls(process)
    va = sys.mmap(16 * PAGE_SIZE, flags=MapFlags.PRIVATE)
    for index in range(16):
        kernel.access(process, va + index * PAGE_SIZE)
    return kernel


class TestCounterTrackEvents:
    def test_one_track_per_histogram_with_percentile_series(self):
        metrics = MetricsRegistry()
        for value in (1, 10, 100, 1000):
            metrics.observe("walk_ns", value)
        records = counter_track_events(metrics, end_ts_ns=5_000)
        names = {record["name"] for record in records}
        assert names == {"hist:walk_ns"}
        for record in records:
            assert record["ph"] == "C"
            hist = metrics.histogram("walk_ns")
            assert record["args"] == {
                "p50": hist.p50, "p95": hist.p95, "p99": hist.p99,
            }
        # Two samples (start + end) so Perfetto draws a band, not a dot.
        assert sorted(record["ts"] for record in records) == [0.0, 5.0]

    def test_empty_histograms_are_skipped(self):
        metrics = MetricsRegistry()
        metrics.histogram("never_observed")
        assert counter_track_events(metrics, end_ts_ns=100) == []

    def test_zero_length_trace_emits_single_sample(self):
        metrics = MetricsRegistry()
        metrics.observe("x", 7)
        records = counter_track_events(metrics, end_ts_ns=0)
        assert [record["ts"] for record in records] == [0.0]


class TestChromeTraceIntegration:
    def test_chrome_trace_appends_counter_records(self):
        kernel = traced_kernel()
        document = chrome_trace(
            kernel.tracer.events(),
            kernel.tracer.process_names,
            metrics=kernel.counters,
        )
        counters = [
            record for record in document["traceEvents"]
            if record["ph"] == "C"
        ]
        assert counters
        assert all(record["name"].startswith("hist:") for record in counters)
        # Tracks land at the trace's end timestamp, not past it.
        span_ts = [
            record["ts"] for record in document["traceEvents"]
            if record["ph"] in ("B", "E")
        ]
        assert max(record["ts"] for record in counters) <= max(span_ts)

    def test_no_metrics_no_counter_records(self):
        kernel = traced_kernel()
        document = chrome_trace(kernel.tracer.events())
        assert not [
            record for record in document["traceEvents"]
            if record["ph"] == "C"
        ]

    def test_export_tracer_includes_tracks_and_round_trips(self, tmp_path):
        kernel = traced_kernel()
        path = tmp_path / "trace.json"
        export_tracer(str(path), kernel.tracer)
        document = json.loads(path.read_text())
        counters = [
            record for record in document["traceEvents"]
            if record["ph"] == "C"
        ]
        assert counters
        histograms = {
            f"hist:{name}"
            for name, hist in kernel.counters.histograms().items()
            if hist.count
        }
        assert {record["name"] for record in counters} == histograms
        # load_chrome_trace skips counter records: span/instant parsing
        # is unchanged by the new track type.
        events = load_chrome_trace(str(path))
        assert len(events) == len(document["traceEvents"]) - len(
            counters
        ) - sum(
            1 for record in document["traceEvents"] if record["ph"] == "M"
        )

"""Kernel.measure semantics: nesting, tracing state, crash boundaries."""

import pytest

from repro.chaos import FaultPlan
from repro.errors import OutOfMemoryError
from repro.kernel import Kernel, MachineConfig
from repro.obs.trace import EventKind
from repro.units import GIB, KIB, MIB, PAGE_SIZE


def fresh_kernel():
    return Kernel(MachineConfig(dram_bytes=512 * MIB, nvm_bytes=2 * GIB))


def touch(kernel, name="w", size=64 * KIB):
    process = kernel.spawn(name)
    sys_calls = kernel.syscalls(process)
    va = sys_calls.mmap(size)
    kernel.access_range(process, va, size)
    return process


class TestNestedMeasure:
    def test_nested_plain_measures_both_report(self):
        kernel = fresh_kernel()
        with kernel.measure() as outer:
            kernel.clock.advance(10)
            with kernel.measure() as inner:
                kernel.clock.advance(30)
            kernel.clock.advance(5)
        assert inner.elapsed_ns == 30
        assert outer.elapsed_ns == 45

    def test_nested_counter_deltas_are_windowed(self):
        kernel = fresh_kernel()
        with kernel.measure() as outer:
            touch(kernel, "a")
            with kernel.measure() as inner:
                touch(kernel, "b")
        assert inner.counter_delta["fault_minor"] > 0
        assert (
            outer.counter_delta["fault_minor"]
            >= 2 * inner.counter_delta["fault_minor"]
        )

    def test_nested_traced_measures(self):
        kernel = fresh_kernel()
        # May already be on (e.g. REPRO_PROFILE arms every kernel with
        # tracing enabled); measure must restore whatever it found.
        was_enabled = kernel.tracer.enabled
        with kernel.measure(trace=True) as outer:
            touch(kernel, "a")
            with kernel.measure(trace=True) as inner:
                touch(kernel, "b")
        # each window's attribution sums to its own elapsed time
        assert sum(inner.attribution.values()) == inner.elapsed_ns
        assert sum(outer.attribution.values()) == outer.elapsed_ns
        assert inner.elapsed_ns < outer.elapsed_ns
        # the inner context must not switch tracing off under the outer
        assert len(outer.events) > len(inner.events)
        # restored to its pre-measure state once the outer exits
        assert kernel.tracer.enabled == was_enabled

    def test_traced_inside_untraced(self):
        kernel = fresh_kernel()
        was_enabled = kernel.tracer.enabled
        with kernel.measure() as outer:
            with kernel.measure(trace=True) as inner:
                touch(kernel)
        assert sum(inner.attribution.values()) == inner.elapsed_ns
        assert outer.elapsed_ns >= inner.elapsed_ns
        if not was_enabled:
            # a plain measure neither enables tracing nor attributes —
            # unless something else (REPRO_PROFILE) had tracing on.
            assert outer.attribution == {}
        assert kernel.tracer.enabled == was_enabled


class TestMeasureAcrossCrash:
    def test_counter_delta_not_negative_across_crash(self):
        kernel = fresh_kernel()
        touch(kernel, "pre")
        with kernel.measure() as m:
            kernel.counters.reset()  # e.g. operator zeroing stats mid-run
            kernel.crash()
            touch(kernel, "post")
        assert m.elapsed_ns > 0
        assert all(v > 0 for v in m.counter_delta.values())

    def test_crash_inside_traced_measure(self):
        kernel = fresh_kernel()
        with kernel.measure(trace=True) as m:
            touch(kernel, "pre")
            kernel.crash()
            touch(kernel, "post")
        crashes = [
            e for e in m.events
            if e.kind is EventKind.INSTANT and e.name == "machine_crash"
        ]
        assert len(crashes) == 1
        assert m.counter_delta["machine_crash"] == 1
        # attribution still balances: crash work is spans like any other
        assert sum(m.attribution.values()) == m.elapsed_ns

    def test_measure_usable_after_crash(self):
        kernel = fresh_kernel()
        kernel.crash()
        with kernel.measure(trace=True) as m:
            touch(kernel, "reborn")
        assert m.elapsed_ns > 0
        assert sum(m.attribution.values()) == m.elapsed_ns


class TestTracedMeasureResults:
    def test_events_bracketed_by_measure_root_span(self):
        kernel = fresh_kernel()
        with kernel.measure(trace=True) as m:
            touch(kernel)
        first, last = m.events[0], m.events[-1]
        assert (first.kind, first.name) == (EventKind.SPAN_BEGIN, "measure")
        assert (last.kind, last.name) == (EventKind.SPAN_END, "measure")

    def test_span_latencies_feed_histograms(self):
        kernel = fresh_kernel()
        with kernel.measure(trace=True):
            touch(kernel)
        hist = kernel.counters.histogram("fault")
        assert hist.count > 0
        assert hist.p50 > 0


class TestSpanClosesOnError:
    @pytest.mark.parametrize("nth", [1, 2])
    def test_fork_that_raises_closes_its_span(self, nth):
        """A fork whose frame allocation fails ends its own span, so the
        measure closes its root and the window still balances."""
        kernel = fresh_kernel()
        parent = touch(kernel, "parent", size=64 * PAGE_SIZE)
        kernel.arm_chaos(FaultPlan.fault_at_site("buddy.alloc", "error", nth=nth))
        with pytest.raises(OutOfMemoryError):
            with kernel.measure(trace=True) as m:
                kernel.fork(parent)
        # One stack carries both columns, so neither leaves a span open:
        # the fork closed once under the root, and the wall self times
        # charged under the root add up to its wall elapsed exactly.
        tracer = kernel.tracer
        assert tracer.open_spans == 0
        assert tracer.paths["kernel:measure;kernel:fork"][0] == 1
        under_root = [
            row[1] for path, row in tracer.paths.items()
            if path.split(";")[0] == "kernel:measure"
        ]
        assert sum(under_root) == tracer.paths["kernel:measure"][2]
        assert sum(m.attribution.values()) == m.elapsed_ns
        names = [(e.kind, e.name) for e in m.events]
        assert names[-1] == (EventKind.SPAN_END, "measure")
        assert names.count((EventKind.SPAN_END, "fork")) == 1

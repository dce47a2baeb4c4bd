"""The tracer's wall column: attribution, per-path table, exports."""

from __future__ import annotations

import os
import pstats

import pytest

#: tests/conftest.py enables every Kernel's tracer under REPRO_PROFILE;
#: the "off by default" pins are meaningless in that mode.
SUITE_ARMED = bool(os.environ.get("REPRO_PROFILE"))

from repro.hw.clock import SimClock
from repro.kernel import Kernel, MachineConfig
from repro.obs.trace import Tracer
from repro.perf import (
    collapsed_lines,
    correlation_report,
    correlation_rows,
    pstats_dict,
    write_collapsed,
    write_pstats,
)
from repro.units import MIB, PAGE_SIZE
from repro.vm.vma import MapFlags


class FakeClock:
    """Deterministic wall clock: each read advances by ``step`` ns."""

    def __init__(self, step: int = 100) -> None:
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


#: Tracers the running test made or enabled, disabled when it ends.
_tracers = []


@pytest.fixture(autouse=True)
def _disable_tracers():
    yield
    while _tracers:
        _tracers.pop().disable()


def make_tracer(step: int = 100) -> Tracer:
    """An enabled bare tracer on a fake wall clock."""
    tracer = Tracer(SimClock(), wall_clock_ns=FakeClock(step))
    _tracers.append(tracer)
    tracer.enable()
    return tracer


def make_kernel(fake_wall_step: int = 0) -> Kernel:
    """A small machine; with a step, its tracer reads a fake wall clock."""
    kernel = Kernel(MachineConfig(dram_bytes=64 * MIB, nvm_bytes=64 * MIB))
    if fake_wall_step:
        kernel.tracer = kernel.counters.tracer = Tracer(
            kernel.clock,
            metrics=kernel.counters,
            wall_clock_ns=FakeClock(fake_wall_step),
        )
    _tracers.append(kernel.tracer)
    return kernel


def run_workload(kernel: Kernel, trace: bool = False):
    process = kernel.spawn("w")
    sys = kernel.syscalls(process)
    size = 32 * PAGE_SIZE
    va = sys.mmap(size, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
    with kernel.measure(trace=trace) as m:
        kernel.access_range(process, va, size)
        sys.munmap(va, size)
    return m


# ----------------------------------------------------------------------
# Span bookkeeping under a fake wall clock
# ----------------------------------------------------------------------
class TestHooks:
    def test_flat_span_self_time(self):
        tracer = make_tracer(step=100)
        tracer.begin("walk", "vm", pid=1)
        tracer.end()
        # begin reads once, end reads once -> elapsed exactly one step.
        assert tracer.wall_attribution == {(1, "vm"): 100}
        assert tracer.paths == {"vm:walk": [1, 100, 100]}

    def test_nested_spans_charge_self_not_cum(self):
        tracer = make_tracer(step=100)
        tracer.begin("outer", "kernel", pid=1)  # t=100
        tracer.begin("inner", "vm", pid=1)  # t=200
        tracer.end()  # t=300: inner elapsed 100
        tracer.end()  # t=400: outer elapsed 300, child 100
        assert tracer.wall_attribution == {(1, "vm"): 100, (1, "kernel"): 200}
        assert tracer.paths == {
            "kernel:outer": [1, 200, 300],
            "kernel:outer;vm:inner": [1, 100, 100],
        }
        stats = pstats_dict(tracer)
        outer = stats[("~sim", 0, "kernel:outer")]
        inner = stats[("~sim", 0, "vm:inner")]
        assert outer[:4] == (1, 1, 200e-9, 300e-9)
        assert inner[:4] == (1, 1, 100e-9, 100e-9)
        # Caller arc: inner was called once from outer, 100ns cumulative.
        assert outer[4] == {}
        assert inner[4] == {("~sim", 0, "kernel:outer"): (1, 1, 0.0, 100e-9)}

    def test_collapsed_paths_follow_stack(self):
        tracer = make_tracer(step=10)
        tracer.begin("a", "s1")
        tracer.begin("b", "s2")
        tracer.end()
        tracer.end()
        assert set(tracer.paths) == {"s1:a", "s1:a;s2:b"}
        for line in collapsed_lines(tracer):
            stack, value = line.rsplit(" ", 1)
            assert stack in tracer.paths
            assert int(value) >= 0

    def test_recursive_label_sums_every_path_that_ends_in_it(self):
        tracer = make_tracer(step=10)
        tracer.begin("a", "s")
        tracer.begin("b", "s")
        tracer.begin("a", "s")
        for _ in range(3):
            tracer.end()
        stats = pstats_dict(tracer)
        calls, _nc, _tt, _ct, callers = stats[("~sim", 0, "s:a")]
        assert calls == 2
        assert {caller[2]: arc[0] for caller, arc in callers.items()} == {"s:b": 1}

    def test_unmatched_end_is_ignored(self):
        tracer = make_tracer()
        tracer.end()  # no open span: must not raise
        assert tracer.wall_attribution == {}
        assert tracer.paths == {}

    def test_clear_drops_everything(self):
        tracer = make_tracer()
        tracer.begin("x", "s")
        tracer.end()
        tracer.clear()
        assert tracer.attribution == {}
        assert tracer.wall_attribution == {}
        assert tracer.paths == {}
        assert tracer.open_spans == 0


# ----------------------------------------------------------------------
# Kernel integration: the wall column fills while the tracer is enabled
# ----------------------------------------------------------------------
class TestArming:
    @pytest.mark.skipif(SUITE_ARMED, reason="REPRO_PROFILE traces every Kernel")
    def test_unarmed_by_default(self):
        kernel = make_kernel()
        run_workload(kernel)
        assert not kernel.tracer.enabled
        assert kernel.tracer.wall_attribution == {}
        assert kernel.tracer.paths == {}

    def test_wall_attribution_mirrors_sim_attribution_keys(self):
        kernel = make_kernel()
        kernel.tracer.enable()
        run_workload(kernel)
        assert kernel.tracer.paths
        # Same (pid, subsystem) key space as the tracer's simulated-cost
        # attribution — that is what makes the correlation report line up.
        assert set(kernel.tracer.wall_attribution) == set(kernel.tracer.attribution)
        assert all(ns >= 0 for ns in kernel.tracer.wall_attribution.values())

    def test_correlation_report_renders(self):
        kernel = make_kernel()
        kernel.tracer.enable()
        run_workload(kernel)
        tracer = kernel.tracer
        rows = correlation_rows(
            tracer.attribution, tracer.wall_attribution, tracer.process_names
        )
        assert rows
        report = correlation_report(
            tracer.attribution, tracer.wall_attribution, tracer.process_names
        )
        for subsystem, _process, _sim, _wall, _ratio in rows:
            assert subsystem in report

    def test_wall_self_times_sum_to_the_root_span(self):
        # The simulated column's invariant, on the wall clock: every
        # span inside a traced measure charges its wall self time once,
        # so the charges add up to the root span's wall elapsed exactly.
        kernel = make_kernel(fake_wall_step=7)
        m = run_workload(kernel, trace=True)
        tracer = kernel.tracer
        calls, _self_ns, root_wall = tracer.paths["kernel:measure"]
        assert calls == 1 and root_wall > 0
        assert sum(tracer.wall_attribution.values()) == root_wall
        assert sum(row[1] for row in tracer.paths.values()) == root_wall
        assert sum(m.attribution.values()) == m.elapsed_ns

    def test_only_the_traced_kernel_fills_its_wall_tables(self):
        traced, untraced = make_kernel(), make_kernel()
        untraced.tracer.disable()
        traced.tracer.enable()
        run_workload(traced)
        run_workload(untraced)
        assert traced.tracer.wall_attribution and traced.tracer.paths
        assert untraced.tracer.wall_attribution == {}
        assert untraced.tracer.paths == {}


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
class TestExports:
    def test_write_collapsed(self, tmp_path):
        kernel = make_kernel()
        kernel.tracer.enable()
        run_workload(kernel)
        path = tmp_path / "profile.folded"
        count = write_collapsed(kernel.tracer, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == count > 0
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert ";" not in value and int(value) >= 0
            assert all(":" in frame for frame in stack.split(";"))

    def test_pstats_file_loads(self, tmp_path):
        kernel = make_kernel()
        kernel.tracer.enable()
        run_workload(kernel)
        path = tmp_path / "profile.pstats"
        entries = write_pstats(kernel.tracer, str(path))
        stats = pstats.Stats(str(path))
        assert len(stats.stats) == entries > 0
        total_tt = sum(entry[2] for entry in stats.stats.values())
        wall_ns = sum(kernel.tracer.wall_attribution.values())
        assert total_tt == pytest.approx(wall_ns / 1e9)
        calls = sum(entry[0] for entry in stats.stats.values())
        assert calls == sum(row[0] for row in kernel.tracer.paths.values())


# ----------------------------------------------------------------------
# The wall column never reaches the simulated clock
# ----------------------------------------------------------------------
class TestZeroOverhead:
    def test_sim_results_identical_armed_vs_unarmed(self):
        # Tracing records *wall* time beside the simulated clock; the
        # simulated clock must come out bit-identical.
        plain = make_kernel()
        plain.tracer.disable()
        traced = make_kernel()
        traced.tracer.enable()
        assert run_workload(plain).elapsed_ns == run_workload(traced).elapsed_ns

    @pytest.mark.skipif(SUITE_ARMED, reason="REPRO_PROFILE traces every Kernel")
    def test_import_alone_changes_nothing(self):
        # repro.perf is imported at module top; a fresh kernel still
        # runs with its tracer disabled and records no wall time.
        kernel = make_kernel()
        elapsed = run_workload(kernel).elapsed_ns
        assert not kernel.tracer.enabled
        assert kernel.tracer.wall_attribution == {}
        assert elapsed == run_workload(make_kernel()).elapsed_ns

"""WallProfiler: attribution mirror, exports, and zero unarmed overhead."""

from __future__ import annotations

import os
import pstats

import pytest

#: tests/conftest.py arms a profiler on every Kernel under REPRO_PROFILE;
#: the "unarmed by default" pins are meaningless in that mode.
SUITE_ARMED = bool(os.environ.get("REPRO_PROFILE"))

from repro.kernel import Kernel, MachineConfig
from repro.perf import WallProfiler, correlation_report, correlation_rows
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


#: Kernels the running test built.  Arming a profiler enables the
#: tracer, so each is disabled when the test ends.
_built = []


@pytest.fixture(autouse=True)
def _disable_tracers():
    yield
    while _built:
        _built.pop().tracer.disable()


def make_kernel() -> Kernel:
    kernel = Kernel(MachineConfig(dram_bytes=64 * MIB, nvm_bytes=64 * MIB))
    _built.append(kernel)
    return kernel


def run_workload(kernel: Kernel) -> int:
    process = kernel.spawn("w")
    sys = kernel.syscalls(process)
    size = 32 * PAGE_SIZE
    va = sys.mmap(size, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
    with kernel.measure() as m:
        kernel.access_range(process, va, size)
        sys.munmap(va, size)
    return m.elapsed_ns


# ----------------------------------------------------------------------
# Direct hook behaviour under a fake clock
# ----------------------------------------------------------------------
class TestHooks:
    def test_flat_span_self_time(self):
        profiler = WallProfiler(clock_ns=FakeClock(step=100))
        profiler.on_begin("walk", "vm", 1)
        profiler.on_end()
        # begin reads once, end reads once -> elapsed exactly one step.
        assert profiler.attribution == {(1, "vm"): 100}
        assert profiler.total_ns == 100
        assert profiler.spans == 1

    def test_nested_spans_charge_self_not_cum(self):
        profiler = WallProfiler(clock_ns=FakeClock(step=100))
        profiler.on_begin("outer", "kernel", 1)  # t=100
        profiler.on_begin("inner", "vm", 1)  # t=200
        profiler.on_end()  # t=300: inner elapsed 100
        profiler.on_end()  # t=400: outer elapsed 300, child 100
        assert profiler.attribution[(1, "vm")] == 100
        assert profiler.attribution[(1, "kernel")] == 200
        outer = profiler.span_stats["kernel:outer"]
        inner = profiler.span_stats["vm:inner"]
        assert (outer.self_ns, outer.cum_ns) == (200, 300)
        assert (inner.self_ns, inner.cum_ns) == (100, 100)
        # Caller arc: inner was called once from outer, 100ns cumulative.
        assert inner.callers == {"kernel:outer": [1, 100]}

    def test_collapsed_paths_follow_stack(self):
        profiler = WallProfiler(clock_ns=FakeClock(step=10))
        profiler.on_begin("a", "s1", 1)
        profiler.on_begin("b", "s2", 1)
        profiler.on_end()
        profiler.on_end()
        assert set(profiler.path_self_ns) == {"s1:a", "s1:a;s2:b"}
        for line in profiler.collapsed_lines():
            stack, value = line.rsplit(" ", 1)
            assert stack in profiler.path_self_ns
            assert int(value) >= 0

    def test_unmatched_end_is_ignored(self):
        profiler = WallProfiler(clock_ns=FakeClock())
        profiler.on_end()  # no open frame: must not raise
        assert profiler.spans == 0

    def test_clear_drops_everything(self):
        profiler = WallProfiler(clock_ns=FakeClock())
        profiler.on_begin("x", "s", 1)
        profiler.on_end()
        profiler.clear()
        assert profiler.attribution == {}
        assert profiler.path_self_ns == {}
        assert profiler.span_stats == {}
        assert profiler.spans == 0


# ----------------------------------------------------------------------
# Kernel integration: arming, mirroring, disarming
# ----------------------------------------------------------------------
class TestArming:
    @pytest.mark.skipif(SUITE_ARMED, reason="REPRO_PROFILE arms every Kernel")
    def test_unarmed_by_default(self):
        kernel = make_kernel()
        assert kernel.tracer.profiler is None

    def test_arm_fills_the_tracer_slot(self):
        kernel = make_kernel()
        profiler = kernel.arm_profiler()
        assert isinstance(profiler, WallProfiler)
        assert kernel.tracer.profiler is profiler
        assert kernel.tracer.enabled

    def test_disarm_restores_none(self):
        kernel = make_kernel()
        kernel.arm_profiler()
        kernel.disarm_profiler()
        assert kernel.tracer.profiler is None

    def test_wall_attribution_mirrors_sim_attribution_keys(self):
        kernel = make_kernel()
        profiler = kernel.arm_profiler()
        run_workload(kernel)
        assert profiler.spans > 0
        # Same (pid, subsystem) key space as the tracer's simulated-cost
        # attribution — that is what makes the correlation report line up.
        assert set(profiler.attribution) == set(kernel.tracer.attribution)
        assert all(ns >= 0 for ns in profiler.attribution.values())

    def test_correlation_report_renders(self):
        kernel = make_kernel()
        profiler = kernel.arm_profiler()
        run_workload(kernel)
        rows = correlation_rows(
            kernel.tracer.attribution,
            profiler.attribution,
            kernel.tracer.process_names,
        )
        assert rows
        report = correlation_report(
            kernel.tracer.attribution,
            profiler.attribution,
            kernel.tracer.process_names,
        )
        for subsystem, _process, _sim, _wall, _ratio in rows:
            assert subsystem in report


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
class TestExports:
    def test_write_collapsed(self, tmp_path):
        kernel = make_kernel()
        profiler = kernel.arm_profiler()
        run_workload(kernel)
        path = tmp_path / "profile.folded"
        count = profiler.write_collapsed(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == count > 0
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert ";" not in value and int(value) >= 0
            assert all(":" in frame for frame in stack.split(";"))

    def test_pstats_file_loads(self, tmp_path):
        kernel = make_kernel()
        profiler = kernel.arm_profiler()
        run_workload(kernel)
        path = tmp_path / "profile.pstats"
        entries = profiler.write_pstats(str(path))
        stats = pstats.Stats(str(path))
        assert len(stats.stats) == entries > 0
        total_tt = sum(entry[2] for entry in stats.stats.values())
        assert total_tt == pytest.approx(profiler.total_ns / 1e9)


# ----------------------------------------------------------------------
# Zero overhead when unarmed (the subsystem's core invariant)
# ----------------------------------------------------------------------
class TestZeroOverhead:
    def test_sim_results_identical_armed_vs_unarmed(self):
        # Arming attributes *wall* time only; the simulated clock must
        # come out bit-identical.
        plain = run_workload(make_kernel())
        armed_kernel = make_kernel()
        armed_kernel.arm_profiler()
        armed = run_workload(armed_kernel)
        assert plain == armed

    @pytest.mark.skipif(SUITE_ARMED, reason="REPRO_PROFILE arms every Kernel")
    def test_import_alone_changes_nothing(self):
        # repro.perf is imported at module top; a fresh unarmed kernel
        # still runs with tracer disabled and no profiler hooks.
        kernel = make_kernel()
        elapsed = run_workload(kernel)
        assert kernel.tracer.profiler is None
        assert not kernel.tracer.enabled
        assert elapsed == run_workload(make_kernel())

"""Acceptance: traced measurements attribute every simulated nanosecond.

The ISSUE's invariant: on the Fig 1a workload, the per-subsystem span
totals of an exported Chrome trace must sum to within 1% of
``Kernel.measure().elapsed_ns``.  The live attribution table is exact by
construction (the root ``measure`` span covers the whole region); the
exported JSON only rounds through microsecond floats.
"""

import os

import pytest

from repro.kernel import Kernel, MachineConfig
from repro.obs.export import load_chrome_trace, subsystem_self_times
from repro.obs.trace import subsystem_totals
from repro.units import GIB, KIB, MIB
from repro.vm.vma import MapFlags


def fresh_kernel():
    return Kernel(MachineConfig(dram_bytes=512 * MIB, nvm_bytes=2 * GIB))


def fig1a_populate(kernel, size):
    """Fig 1a workload: mmap a tmpfs file with MAP_POPULATE, traced."""
    process = kernel.spawn("fig1a")
    sys_calls = kernel.syscalls(process)
    fd = sys_calls.open(kernel.tmpfs, "/fig1a", create=True, size=size)
    with kernel.measure(trace=True) as m:
        sys_calls.mmap(size, fd=fd, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
    return m, process


class TestAttributionInvariant:
    def test_live_attribution_sums_exactly_to_elapsed(self):
        kernel = fresh_kernel()
        m, _process = fig1a_populate(kernel, 1024 * KIB)
        assert m.elapsed_ns > 0
        assert sum(m.attribution.values()) == m.elapsed_ns
        assert sum(subsystem_totals(m.attribution).values()) == m.elapsed_ns

    def test_exported_trace_within_one_percent(self, tmp_path):
        kernel = fresh_kernel()
        m, _process = fig1a_populate(kernel, 1024 * KIB)
        path = str(tmp_path / "fig1a.json")
        assert m.write_trace(path) > 0
        totals = subsystem_self_times(load_chrome_trace(path))
        recovered = sum(totals.values())
        assert abs(recovered - m.elapsed_ns) <= m.elapsed_ns * 0.01

    def test_demand_access_attribution_dominated_by_faults(self, tmp_path):
        kernel = fresh_kernel()
        process = kernel.spawn("demand")
        sys_calls = kernel.syscalls(process)
        size = 256 * KIB
        va = sys_calls.mmap(size)
        with kernel.measure(trace=True) as m:
            kernel.access_range(process, va, size)
        totals = subsystem_totals(m.attribution)
        assert sum(totals.values()) == m.elapsed_ns
        assert totals["fault"] > totals.get("cpu", 0)
        # the exported stream agrees with the live table
        path = str(tmp_path / "demand.json")
        m.write_trace(path)
        exported = subsystem_self_times(load_chrome_trace(path))
        assert abs(sum(exported.values()) - m.elapsed_ns) <= m.elapsed_ns * 0.01

    def test_attribution_names_processes(self):
        kernel = fresh_kernel()
        m, process = fig1a_populate(kernel, 64 * KIB)
        assert kernel.tracer.process_names[process.pid] == "fig1a"
        # The window is one mmap: its sys_mmap span, the syscall's entry
        # and exit charges included, runs as the calling process.
        assert {pid for pid, _subsystem in m.attribution} == {process.pid}
        assert m.attribution[(process.pid, "kernel")] >= (
            kernel.costs.syscall_entry_ns + kernel.costs.syscall_exit_ns
        )
        # The measure root runs as the kernel (pid 0) and keeps exactly
        # what no span covers.
        sys_calls = kernel.syscalls(process)
        with kernel.measure(trace=True) as m:
            kernel.clock.advance(7)
            sys_calls.mmap(64 * KIB)
        assert m.attribution[(0, "kernel")] == 7
        assert sum(m.attribution.values()) == m.elapsed_ns

    @pytest.mark.skipif(
        bool(os.environ.get("REPRO_PROFILE")),
        reason="REPRO_PROFILE arms every Kernel with tracing enabled",
    )
    def test_untraced_measure_has_no_attribution(self):
        kernel = fresh_kernel()
        process = kernel.spawn("plain")
        sys_calls = kernel.syscalls(process)
        va = sys_calls.mmap(64 * KIB)
        with kernel.measure() as m:
            kernel.access_range(process, va, 64 * KIB)
        assert m.attribution == {}
        assert m.events == []
        assert not kernel.tracer.enabled

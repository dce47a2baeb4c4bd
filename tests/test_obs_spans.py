"""The span table: well formed, installed only while a tracer is on,
and routed to the tracer of the machine whose method runs."""

import itertools
import os

import pytest

from repro.errors import ProtectionError
from repro.hw.clock import SimClock
from repro.kernel import Kernel, MachineConfig
from repro.obs import spans
from repro.obs.trace import Tracer
from repro.units import GIB, KIB, MIB
from repro.vm.vma import MapFlags

#: Attributes behind the table's methods with no tracer enabled.
UNWRAPPED = spans.installed_state()

#: REPRO_PROFILE enables the tracer of every Kernel, so no kernel runs
#: untraced and the wrappers never come out.
needs_untraced_kernels = pytest.mark.skipif(
    bool(os.environ.get("REPRO_PROFILE")),
    reason="REPRO_PROFILE enables every Kernel's tracer",
)


def fresh_kernel():
    return Kernel(MachineConfig(dram_bytes=512 * MIB, nvm_bytes=2 * GIB))


def workload(kernel, process):
    """Syscalls, demand faults, a populate, a fork and COW stores,
    yielding after each step so two machines' steps can interleave."""
    sys_calls = kernel.syscalls(process)
    fd = sys_calls.open(kernel.pmfs, "/data", create=True, size=64 * KIB)
    yield
    va = sys_calls.mmap(64 * KIB, fd=fd, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
    yield
    anon = sys_calls.mmap(64 * KIB)
    kernel.access_range(process, anon, 64 * KIB, write=True)
    yield
    child = sys_calls.fork()
    yield
    kernel.access(process, anon, write=True)
    kernel.access(child, va, write=True)
    yield
    sys_calls.munmap(va, 64 * KIB)


def all_wrapped():
    """Whether every row's method is a wrapper right now."""
    state = spans.installed_state()
    return all(state[key] is not UNWRAPPED[key] for key in UNWRAPPED)


def run(*workloads):
    """Step the workloads in turn until all are done."""
    for _ in itertools.zip_longest(*workloads):
        pass


class TestTable:
    def test_rows_name_existing_methods_once(self):
        keys = [(row.cls, row.method) for row in spans.SPANS]
        assert len(keys) == len(set(keys))
        for row in spans.SPANS:
            # Defined on the class itself, so wrapping it never wraps an
            # inherited (possibly already wrapped) function.
            assert callable(row.cls.__dict__.get(row.method)), row
            assert row.span is not None or row.pid is not None, row
            assert (row.span is None) == (row.subsystem == ""), row

    def test_every_syscall_opens_its_span_as_the_caller(self):
        rows = [row for row in spans.SPANS if row.cls.__name__ == "Syscalls"]
        assert len(rows) == 11
        assert all(row.span == f"sys_{row.method}" for row in rows)
        assert all(row.subsystem == "kernel" and row.pid for row in rows)


@needs_untraced_kernels
class TestInstallation:
    def test_measure_removes_what_it_installed(self):
        kernel = fresh_kernel()
        with kernel.measure(trace=True):
            assert all_wrapped()
            run(workload(kernel, kernel.spawn("w")))
        assert spans.installed_state() == UNWRAPPED

    def test_nested_measures_keep_wrappers_until_the_outer_exits(self):
        kernel = fresh_kernel()
        with kernel.measure(trace=True):
            with kernel.measure(trace=True):
                wrapped = spans.installed_state()
            assert spans.installed_state() == wrapped
        assert spans.installed_state() == UNWRAPPED

    def test_last_tracer_disabled_restores(self):
        first, second = Tracer(SimClock()), Tracer(SimClock())
        first.enable()
        second.enable()
        second.enable()  # idempotent: still one enablement
        wrapped = spans.installed_state()
        first.disable()
        assert spans.installed_state() == wrapped
        second.disable()
        second.disable()
        assert spans.installed_state() == UNWRAPPED
        first.enable()
        assert all_wrapped()
        first.disable()
        assert spans.installed_state() == UNWRAPPED

    def test_raising_method_still_restored_and_balanced(self):
        kernel = fresh_kernel()
        process = kernel.spawn("w")
        with pytest.raises(ProtectionError):
            with kernel.measure(trace=True) as m:
                kernel.access(process, 0xDEAD_0000)
        assert kernel.tracer.open_spans == 0
        assert sum(m.attribution.values()) == m.elapsed_ns
        assert spans.installed_state() == UNWRAPPED


@needs_untraced_kernels
class TestTwinKernels:
    def _state(self, kernel):
        return kernel.clock.now, list(kernel.counters.snapshot().items())

    def _events(self, events):
        return [(e.kind, e.name, e.ts_ns, e.pid, e.subsystem) for e in events]

    def test_traced_and_untraced_kernels_stay_apart(self):
        # Solo runs: A traced, B untraced.  B spawns two idle processes
        # first, so its workers' pids differ from A's.
        solo_a = fresh_kernel()
        with solo_a.measure(trace=True) as solo_m:
            run(workload(solo_a, solo_a.spawn("a")))
        solo_b = fresh_kernel()
        solo_b.spawn("idle"), solo_b.spawn("idle")
        run(workload(solo_b, solo_b.spawn("b")))

        kernel_a, kernel_b = fresh_kernel(), fresh_kernel()
        kernel_b.spawn("idle"), kernel_b.spawn("idle")
        worker_b = kernel_b.spawn("b")
        with kernel_a.measure(trace=True) as m:
            # B's steps run through the installed wrappers, between A's,
            # while A's tracer is on.
            run(workload(kernel_b, worker_b), workload(kernel_a, kernel_a.spawn("a")))
        assert self._state(kernel_b) == self._state(solo_b)
        assert not kernel_b.tracer.events()
        assert kernel_b.tracer.current_pid == 0
        assert kernel_b.counters.histograms() == {}
        assert worker_b.pid not in {e.pid for e in m.events}
        assert self._events(m.events) == self._events(solo_m.events)
        assert sum(m.attribution.values()) == m.elapsed_ns

"""Shared fixtures and hypothesis profiles for the test suite.

Hypothesis settings live here, not on individual tests: one
``settings.register_profile`` per use case, selected with
``--hypothesis-profile=<name>`` (the CI workflow passes ``ci``).

* ``dev`` (default) — no deadline (the simulator advances a virtual
  clock; wall-time deadlines only add flakiness), modest example count.
* ``ci`` — like dev but ``derandomize=True``: the example sequence is
  fixed, so a CI failure always reproduces locally with the same flag.
* ``heavy`` — 10x examples for the scheduled (cron) deep run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import repro
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.kernel import Kernel, MachineConfig
from repro.mem.buddy import BuddyAllocator
from repro.mem.physical import MemoryRegion, PhysicalMemory
from repro.obs import spans
from repro.obs.metrics import MetricsRegistry
from repro.ras import MediaFaultModel
from repro.sanitize import SanitizerSuite
from repro.units import GIB, MIB

_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", max_examples=100, **_COMMON)
settings.register_profile(
    "ci", max_examples=100, derandomize=True, **_COMMON
)
settings.register_profile("heavy", max_examples=1000, **_COMMON)
settings.load_profile("dev")

#: Armed tier-1 modes: environment variable -> the arming call that every
#: Kernel built anywhere in the suite gets while it is set.  When several
#: are set they arm in table order.  Each armed subsystem lives in one
#: slot (``counters.sanitize``/``.ras``/``.qos``); the plain run, with
#: none set, measures the unarmed hot paths.
#:
#: * ``REPRO_SANITIZE`` — the full shadow-state sanitizer suite in halt
#:   mode, so any translation/frame/persist incoherence fails the test
#:   that caused it.
#: * ``REPRO_RAS`` — the RAS engine with a *clean* fault model (no sampled
#:   faults): the armed media-check, degradation and file-IO hooks run
#:   without injected faults perturbing clocks or killing processes.
#:   Fault behaviour itself is covered by the test_ras_* modules.
#: * ``REPRO_QOS`` — the memory controller with only the limitless root
#:   cgroup: the armed charge/uncharge hooks run and no watermark can
#:   ever breach.
#: * ``REPRO_PROFILE`` — every kernel's tracer enabled, so every span
#:   records both columns, simulated and wall.
#:
#: None of them touches the simulated clock, so every simulated figure —
#: the goldens included — must come out bit-identical to the plain run;
#: these modes exist to prove exactly that.
_ARMED_MODES = (
    ("REPRO_SANITIZE", lambda kernel: kernel.arm_sanitizers(SanitizerSuite())),
    (
        "REPRO_RAS",
        lambda kernel: kernel.arm_ras(
            model=MediaFaultModel(seed=0, faults_per_bind=0)
        ),
    ),
    ("REPRO_QOS", lambda kernel: kernel.arm_qos()),
    ("REPRO_PROFILE", lambda kernel: kernel.tracer.enable()),
)
_ARMING = [arm for variable, arm in _ARMED_MODES if os.environ.get(variable)]

if _ARMING:
    _plain_kernel_init = Kernel.__init__

    def _armed_kernel_init(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        _plain_kernel_init(self, *args, **kwargs)
        for arm in _ARMING:
            arm(self)

    Kernel.__init__ = _armed_kernel_init  # type: ignore[method-assign]

#: The span table's methods as they are with no tracer enabled.
_UNWRAPPED = spans.installed_state()


@pytest.fixture(autouse=True)
def _span_wrappers_removed():
    """Fail a test that leaves a tracer enabled.

    An enabled tracer keeps the span table's wrappers installed on their
    classes, so every later test would run through them.  A leak is
    undone before failing, so it fails one test only.  Not checked under
    ``REPRO_PROFILE``, which enables the tracer of every Kernel.
    """
    yield
    if os.environ.get("REPRO_PROFILE") or spans.installed_state() == _UNWRAPPED:
        return
    spans.uninstall()
    pytest.fail("a tracer was left enabled: its span wrappers were still installed")


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def counters() -> MetricsRegistry:
    return MetricsRegistry()


@pytest.fixture
def costs() -> CostModel:
    return CostModel()


@pytest.fixture
def dram_region() -> MemoryRegion:
    return MemoryRegion(start=0, size=256 * MIB, tech=MemoryTechnology.DRAM, name="t-dram")


@pytest.fixture
def buddy(dram_region, clock, costs, counters) -> BuddyAllocator:
    return BuddyAllocator(dram_region, clock=clock, costs=costs, counters=counters)


@pytest.fixture
def kernel() -> Kernel:
    """Small default machine: 512 MiB DRAM + 1 GiB NVM."""
    return Kernel(MachineConfig(dram_bytes=512 * MIB, nvm_bytes=1 * GIB))


@pytest.fixture
def smp_kernel() -> Kernel:
    """Four-core machine: TLB invalidations broadcast shootdown IPIs."""
    return Kernel(MachineConfig(dram_bytes=512 * MIB, nvm_bytes=1 * GIB, cpus=4))


@pytest.fixture
def range_kernel() -> Kernel:
    """Machine with range-translation hardware and aligned PMFS extents."""
    return Kernel(
        MachineConfig(
            dram_bytes=512 * MIB,
            nvm_bytes=2 * GIB,
            range_hardware=True,
            pmfs_extent_align_frames=512,
        )
    )


@pytest.fixture
def aligned_kernel() -> Kernel:
    """Machine whose PMFS extents are 2 MiB-aligned (for PBM/premap)."""
    return Kernel(
        MachineConfig(
            dram_bytes=512 * MIB,
            nvm_bytes=2 * GIB,
            pmfs_extent_align_frames=512,
        )
    )


@pytest.fixture(scope="session")
def real_o1():
    """The o1 lint pass over the shipped tree, run once per session.

    Every lint test module that judges the real tree shares this one
    result (and its call graph) instead of parsing the tree again.
    Treat it as read-only.
    """
    from repro.lint.flow import run_flow

    return run_flow(Path(repro.__file__).parent)


@pytest.fixture(scope="session")
def real_alloc(real_o1):
    """AllocSan over the shipped tree, on the o1 pass's call graph."""
    from repro.lint.alloc import run_alloc

    return run_alloc(Path(repro.__file__).parent, graph=real_o1.graph)

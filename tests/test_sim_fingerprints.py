"""Exact simulated fingerprints for two fixed runs.

The golden figures tolerate 15% drift, so they cannot see a dropped
``bump`` or a reordered cache reference.  These tests pin the simulated
time and a digest of every counter for two deterministic runs, so any
change to what the simulator counts or charges fails here.  A change
that means to move simulated numbers must re-derive both values and say
why.

Elapsed time is measured from just after the machine is built, so the
environment-armed suites (``REPRO_SANITIZE``/``RAS``/``QOS``/``PROFILE``,
whose arming may charge a one-off boot cost) must reproduce the same
fingerprints.
"""

from __future__ import annotations

import hashlib
import json

from repro.kernel import Kernel, MachineConfig
from repro.units import GIB, HUGE_PAGE_2M, MIB, PAGE_SIZE
from repro.vm.vma import MapFlags
from repro.workloads.tenants import run_tenants


def _fingerprint(kernel: Kernel, boot_ns: int):
    blob = json.dumps(sorted(kernel.counters.snapshot().items()))
    return kernel.clock.now - boot_ns, hashlib.sha256(blob.encode()).hexdigest()


def test_tenant_fleet_fingerprint():
    """16 tenants oversubscribing 64 MiB with swap: reclaim, throttling,
    swap-out, major faults and one cgroup-confined OOM kill."""
    frames = 64 * MIB // PAGE_SIZE
    kernel = Kernel(
        MachineConfig(dram_bytes=64 * MIB, nvm_bytes=0, swap_pages=4 * frames)
    )
    boot_ns = kernel.clock.now
    report = run_tenants(tenants=16, seed=0, requests_per_tenant=64, kernel=kernel)
    assert report.problems() == []
    assert len(report.kills) == 1
    for name in ("reclaim_evicted", "qos_throttle_stall", "swap_out", "fault_major"):
        assert kernel.counters.get(name) > 0, name
    assert _fingerprint(kernel, boot_ns) == (
        294324481,
        "f00ba86d16c61f1278bf23dc272502ffcd1a4e0281cbff96491ed7481a319969",
    )


def test_five_level_nested_fingerprint():
    """5-level, virtualized, range-hardware machine: MAP_POPULATE, demand
    faults, a 2 MiB DAX mapping, fork plus COW stores, munmap and a
    4 KiB DAX file mapping."""
    kernel = Kernel(
        MachineConfig(
            dram_bytes=256 * MIB,
            nvm_bytes=1 * GIB,
            page_table_levels=5,
            virtualized=True,
            range_hardware=True,
            pmfs_extent_align_frames=512,
        )
    )
    boot_ns = kernel.clock.now
    parent = kernel.spawn("parent")
    sys = kernel.syscalls(parent)
    populated = sys.mmap(64 * PAGE_SIZE, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
    for page in range(64):
        kernel.access(parent, populated + page * PAGE_SIZE)
    demand = sys.mmap(64 * PAGE_SIZE)
    for page in range(64):
        kernel.access(parent, demand + page * PAGE_SIZE, write=page % 2 == 0)
    fd = sys.open(kernel.pmfs, "/huge", create=True, size=HUGE_PAGE_2M)
    huge = parent.space.pick_address(HUGE_PAGE_2M, alignment=HUGE_PAGE_2M)
    sys.mmap(
        HUGE_PAGE_2M,
        fd=fd,
        addr=huge,
        flags=MapFlags.SHARED | MapFlags.POPULATE | MapFlags.HUGEPAGE,
    )
    for offset in range(0, HUGE_PAGE_2M, 64 * PAGE_SIZE):
        kernel.access(parent, huge + offset, write=True)
    child = sys.fork()
    kernel.access(child, demand, write=True)
    kernel.access(parent, demand + PAGE_SIZE, write=True)
    for page in range(0, 64, 8):
        kernel.access(child, demand + page * PAGE_SIZE)
    sys.munmap(populated, 64 * PAGE_SIZE)
    dax_fd = sys.open(kernel.pmfs, "/dax", create=True, size=32 * PAGE_SIZE)
    dax = sys.mmap(32 * PAGE_SIZE, fd=dax_fd, flags=MapFlags.SHARED)
    for page in range(32):
        kernel.access(parent, dax + page * PAGE_SIZE, write=page % 4 == 0)
    assert kernel.counters.get("fault_cow") == 2
    assert kernel.counters.get("nested_walk_ref") > 0
    assert _fingerprint(kernel, boot_ns) == (
        416879,
        "026ab97db3032953dd0a31a7e85c785a92c03a6ff2acae32b1ce3ca21c83a4b7",
    )

"""E11 — §3.1: pre-created / persistent page tables for O(1) mapping.

"Mapping becomes changing a single pointer in a page table ... pre-created
page tables can be stored persistently, so that even when mapping a file
the first time, an existing page table can be re-used for O(1)
operations."  Measured: populate-map vs premap-attach across file sizes,
attach cost across repeated attachments, and first-map-after-crash with
persistent tables.
"""

from conftest import run_once

from repro.analysis import Series, format_series_table, format_table
from repro.core.fom import FileOnlyMemory, MapStrategy, PersistenceManager
from repro.kernel import Kernel, MachineConfig
from repro.units import GIB, MIB
from repro.vm.vma import MapFlags

SIZES_MB = [2, 8, 32, 128]


def make_kernel():
    return Kernel(
        MachineConfig(
            dram_bytes=512 * MIB, nvm_bytes=2 * GIB,
            pmfs_extent_align_frames=512,
        )
    )


def populate_map(size_mb: int) -> int:
    kernel = make_kernel()
    process = kernel.spawn("p")
    sys = kernel.syscalls(process)
    fd = sys.open(kernel.pmfs, "/f", create=True, size=size_mb * MIB)
    with kernel.measure() as m:
        sys.mmap(
            size_mb * MIB, fd=fd, flags=MapFlags.SHARED | MapFlags.POPULATE
        )
    return m.elapsed_ns


def premap_attach(size_mb: int) -> int:
    kernel = make_kernel()
    fom = FileOnlyMemory(kernel)
    inode = kernel.pmfs.create("/f", size=size_mb * MIB)
    fom.ptcache.premap(inode)  # built once, outside the measured region
    process = kernel.spawn("p")
    with kernel.measure() as m:
        fom.ptcache.attach(process.space, inode)
    return m.elapsed_ns


def crash_recovery_first_map() -> tuple:
    kernel = make_kernel()
    fom = FileOnlyMemory(kernel)
    pm = PersistenceManager(fom)
    process = kernel.spawn("before")
    region = fom.allocate(
        process, 32 * MIB, name="/db", persistent=True,
        strategy=MapStrategy.PREMAP,
    )
    fom.ptcache.persist(region.inode)
    fom.release(region)
    kernel.crash()
    pm.recover()
    inode = kernel.pmfs.lookup("/db")
    survivor = kernel.spawn("after")
    with kernel.measure() as m:
        fom.ptcache.attach(survivor.space, inode)
    return m.elapsed_ns, m.counter_delta.get("premap_build", 0)


def run_experiment():
    populate = Series("populate map")
    attach = Series("premap attach")
    for size_mb in SIZES_MB:
        populate.add(size_mb, populate_map(size_mb))
        attach.add(size_mb, premap_attach(size_mb))
    recover_ns, rebuilds = crash_recovery_first_map()
    return populate, attach, recover_ns, rebuilds


def test_premap_o1_mapping(benchmark, record_result):
    populate, attach, recover_ns, rebuilds = run_once(benchmark, run_experiment)
    table = format_series_table([populate, attach], x_label="file MB")
    record_result(
        "premap",
        table
        + f"\nfirst map after crash (persistent tables): "
        f"{recover_ns / 1000:.2f} us, rebuilds: {rebuilds}",
    )
    assert populate.growth_factor() > 20
    # Attach grows only with 2 MiB windows: 64x size -> 64x links, but
    # link writes are 25 ns — at 128 MiB that's still ~constant next to
    # the mmap cost.
    assert attach.y_at(128) < populate.y_at(128) / 20
    assert attach.y_at(2) < populate.y_at(2)
    # After the crash the persistent tables made the first map cheap:
    # no rebuild happened.
    assert rebuilds == 0
    assert recover_ns < attach.y_at(32) * 2

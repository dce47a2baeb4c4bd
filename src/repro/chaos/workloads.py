"""Workloads for crash-at-any-point exploration.

A chaos workload is a ``build()`` function returning ``(kernel, run)``
where ``run()`` drives the machine through every subsystem carrying a
fault site.  The explorer calls ``build()`` fresh for every crash point,
so ``run`` must be deterministic given the workload seed — no wall-clock
or global RNG.

:func:`fig2_workload` is the acceptance workload from the issue: the
Fig-2 create/write/unlink loop over PMFS, extended with FOM regions
(premap + extent strategies), anonymous mappings (TLB shootdowns on
unmap), slab and zeroing traffic, and an in-workload crash + recovery so
the recovery-path sites (``fom.recover.file``, ``zeroing.take``) are
themselves crash points.
"""

from __future__ import annotations

import random
from typing import Callable, Tuple

from repro.core.fom import FileOnlyMemory, MapStrategy
from repro.core.fom.persistence import PersistenceManager
from repro.core.o1.zeroing import EagerZeroing
from repro.kernel.kernel import Kernel, MachineConfig
from repro.mem.slab import SlabCache
from repro.ras import FaultKind, MediaFaultModel
from repro.units import KIB, MIB, PAGE_SIZE
from repro.vm.vma import MapFlags

#: ``build()`` -> (machine, deterministic workload body).
WorkloadBuilder = Callable[[], Tuple[Kernel, Callable[[], None]]]


def fig2_workload(seed: int = 0) -> Tuple[Kernel, Callable[[], None]]:
    """Fig-2-style create/write/unlink workload, chaos-instrumented.

    Deterministic for a given ``seed``; touches every fault site in
    :data:`repro.chaos.sites.SITE_ACTIONS`.
    """
    kernel = Kernel(
        MachineConfig(
            dram_bytes=256 * MIB,
            nvm_bytes=1024 * MIB,
            cpus=2,
            pmfs_extent_align_frames=8,
        )
    )

    def run() -> None:
        rng = random.Random(seed)
        fs = kernel.pmfs
        process = kernel.spawn("fig2")
        sys_calls = kernel.syscalls(process)

        # -- create/write a handful of PMFS files (journal + extent
        #    alloc + torn-write sites), touching pages through mmap.
        paths = []
        for i in range(3):
            pages = rng.randrange(2, 8)
            size = pages * PAGE_SIZE
            path = f"/fig2-{i}"
            fd = sys_calls.open(fs, path, create=True, size=size)
            va = sys_calls.mmap(
                size, fd=fd, flags=MapFlags.SHARED | MapFlags.POPULATE
            )
            kernel.access(process, va + (pages // 2) * PAGE_SIZE, write=True)
            payload = bytes([i + 1]) * rng.randrange(64, 2 * KIB)
            sys_calls.pwrite(fd, rng.randrange(0, PAGE_SIZE), payload)
            sys_calls.munmap(va, size)
            sys_calls.close(fd)
            paths.append(path)

        # -- truncate-grow one file: journaled extent allocation again.
        fs.truncate(fs.lookup(paths[0]), 12 * PAGE_SIZE)

        # -- anonymous private mapping; the unmap broadcasts shootdowns.
        va = sys_calls.mmap(
            8 * PAGE_SIZE, flags=MapFlags.PRIVATE | MapFlags.POPULATE
        )
        sys_calls.munmap(va, 8 * PAGE_SIZE)

        # -- COW fork: the parent's first post-fork store breaks the
        #    shared page-table window (vm.cow_break crash point); the
        #    child's exit and the extent unmap then drop whole subtrees.
        cow_va = sys_calls.mmap(
            6 * PAGE_SIZE, flags=MapFlags.PRIVATE | MapFlags.POPULATE
        )
        kernel.access(process, cow_va, write=True)
        cow_child = sys_calls.fork()
        kernel.access(process, cow_va + PAGE_SIZE, write=True)
        cow_child.exit()
        sys_calls.munmap(cow_va, 6 * PAGE_SIZE)

        # -- private DAX mapping: each store takes a private DRAM copy
        #    of a PMFS page, so crash points (and fsck) land while copies
        #    are live, before and after a fork shares them with a child.
        dax_fd = sys_calls.open(fs, paths[1])
        dax_va = sys_calls.mmap(2 * PAGE_SIZE, fd=dax_fd, flags=MapFlags.PRIVATE)
        kernel.access(process, dax_va, write=True)
        dax_child = sys_calls.fork()
        kernel.access(process, dax_va, write=True)
        dax_child.exit()
        sys_calls.munmap(dax_va, 2 * PAGE_SIZE)
        sys_calls.close(dax_fd)

        # -- FOM regions: a persistent premapped heap and volatile
        #    extent scratch (premap.attach + recovery inputs).
        fom = FileOnlyMemory(kernel)
        keep = fom.allocate(
            process,
            4 * PAGE_SIZE,
            name="/keep",
            strategy=MapStrategy.PREMAP,
            persistent=True,
        )
        manager = PersistenceManager(fom)
        manager.mark_persistent(keep)
        scratch = fom.allocate(process, 4 * PAGE_SIZE, name="/scratch")
        kernel.access(process, scratch.vaddr, write=True)
        fom.release(scratch)

        # -- slab + zeroing traffic: the kernel does not wire these into
        #    the syscall path, so drive them directly.
        slab = SlabCache(
            "chaos-obj",
            object_size=256,
            buddy=kernel.dram_buddy,
            clock=kernel.clock,
            costs=kernel.costs,
            counters=kernel.counters,
        )
        objs = [slab.alloc() for _ in range(4)]
        for addr in objs:
            slab.free(addr)
        zeroing = EagerZeroing(
            kernel.dram_buddy, kernel.clock, kernel.costs, kernel.counters
        )
        frames = zeroing.take_frames(2)
        zeroing.return_frames(frames)

        # -- QoS memory controller: two tenants share a tight memcg.
        #    The bulk filler breaches ``high`` (direct-reclaim batches:
        #    qos.reclaim crash points), then the spike pushes usage over
        #    ``max`` with nothing on the LRU to reclaim, so the OOM
        #    killer fires (qos.oom_kill) and tears down the bulk filler
        #    — the largest-RSS victim, never the in-flight process.
        qos = kernel.counters.qos
        if qos is None:
            qos = kernel.arm_qos()
        noisy = qos.cgroup("chaos-noisy", high=12, max_frames=24)
        bulk = kernel.spawn("qos-bulk", cgroup=noisy)
        spike = kernel.spawn("qos-spike", cgroup=noisy)
        bulk_va = kernel.syscalls(bulk).mmap(
            16 * PAGE_SIZE, flags=MapFlags.PRIVATE
        )
        for i in range(12):
            kernel.access(bulk, bulk_va + i * PAGE_SIZE, write=True)
        spike_va = kernel.syscalls(spike).mmap(
            16 * PAGE_SIZE, flags=MapFlags.PRIVATE
        )
        for i in range(12):
            if not spike.alive:
                break
            kernel.access(spike, spike_va + i * PAGE_SIZE, write=True)
        assert not bulk.alive, "OOM killer must reap the bulk tenant"

        # -- RAS: inject media faults, patrol-scrub one batch, then
        #    retire a free NVM block (badblock adoption) and a live file
        #    block (extent migration), making retirement and migration
        #    crash points ahead of the in-workload crash.
        ras = kernel.counters.ras
        if ras is None:
            # A caller (the RAS sweep) may have armed a seeded engine
            # already; default to a clean model so only the two faults
            # injected below are in play.
            ras = kernel.arm_ras(
                model=MediaFaultModel(seed=seed, faults_per_bind=0)
            )
        file_pfn = fs.charge_block_lookup(fs.lookup(paths[2]), 0)
        ras.model.inject(file_pfn, FaultKind.DEAD)
        first_nvm = kernel.nvm_region.first_pfn
        free_pfn = next(
            pfn
            for pfn in range(first_nvm, first_nvm + 128)
            if fs.allocator.block_is_free(pfn)
        )
        ras.model.inject(free_pfn, FaultKind.DEAD)
        ras.scrubber.scrub_batch()
        ras.retire_frame(free_pfn)
        ras.retire_frame(file_pfn)

        # -- unlink one file, then crash and recover in-workload so the
        #    recovery sweep's own fault sites become crash points too.
        sys_calls.unlink(fs, paths[1])
        kernel.crash()
        PersistenceManager(FileOnlyMemory(kernel)).recover()

    return kernel, run


def make_builder(seed: int = 0) -> WorkloadBuilder:
    """A :data:`WorkloadBuilder` for :func:`fig2_workload` at ``seed``."""

    def build() -> Tuple[Kernel, Callable[[], None]]:
        return fig2_workload(seed)

    return build

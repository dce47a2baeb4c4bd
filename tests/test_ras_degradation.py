"""Graceful-degradation policy: SIGBUS, EIO, bounded retry, migration."""

from __future__ import annotations

import pytest

from repro.errors import MediaError, MemoryPoisonError
from repro.ras import FaultKind, MediaFaultModel
from repro.units import PAGE_SIZE
from repro.vm.vma import MapFlags


@pytest.fixture
def ras_kernel(kernel):
    """The small default machine with a clean (no sampled faults) RAS
    engine armed, so each test injects exactly the faults it studies."""
    kernel.arm_ras(model=MediaFaultModel(seed=0, faults_per_bind=0))
    return kernel


class TestAnonymousPoison:
    def test_dead_anon_frame_sigbus_kills_only_faulting_process(
        self, ras_kernel
    ):
        kernel = ras_kernel
        victim = kernel.spawn("victim")
        bystander = kernel.spawn("bystander")
        sys_calls = kernel.syscalls(victim)
        va = sys_calls.mmap(
            4 * PAGE_SIZE, flags=MapFlags.PRIVATE | MapFlags.POPULATE
        )
        paddr = kernel.access(victim, va, write=True)
        pfn = paddr // PAGE_SIZE

        kernel.counters.ras.model.inject(pfn, FaultKind.DEAD)
        with pytest.raises(MemoryPoisonError):
            kernel.access(victim, va)

        assert not victim.alive
        assert victim.pid not in kernel.processes
        assert bystander.pid in kernel.processes
        assert kernel.counters.get("ras_sigbus_kill") == 1
        # The exit freed the frame, so quarantine retired it on the spot.
        assert pfn in kernel.counters.ras.model.retired
        assert pfn in kernel.dram_buddy.retired_frames

    def test_poison_read_on_anon_is_fatal_too(self, ras_kernel):
        kernel = ras_kernel
        process = kernel.spawn("p")
        sys_calls = kernel.syscalls(process)
        va = sys_calls.mmap(
            PAGE_SIZE, flags=MapFlags.PRIVATE | MapFlags.POPULATE
        )
        pfn = kernel.access(process, va, write=True) // PAGE_SIZE
        kernel.counters.ras.model.inject(pfn, FaultKind.POISON)
        with pytest.raises(MemoryPoisonError):
            kernel.access(process, va)
        assert process.pid not in kernel.processes

    def test_store_clears_sticky_poison(self, ras_kernel):
        kernel = ras_kernel
        process = kernel.spawn("p")
        sys_calls = kernel.syscalls(process)
        va = sys_calls.mmap(
            PAGE_SIZE, flags=MapFlags.PRIVATE | MapFlags.POPULATE
        )
        pfn = kernel.access(process, va, write=True) // PAGE_SIZE
        kernel.counters.ras.model.inject(pfn, FaultKind.POISON)
        # The overwrite clears the line, as hardware does; nobody dies.
        kernel.access(process, va, write=True)
        assert kernel.counters.get("ras_poison_cleared") == 1
        assert kernel.counters.ras.model.probe(pfn) is None
        assert process.pid in kernel.processes


class TestFileIo:
    def test_dead_file_block_surfaces_eio(self, ras_kernel):
        kernel = ras_kernel
        fs = kernel.pmfs
        process = kernel.spawn("reader")
        sys_calls = kernel.syscalls(process)
        fd = sys_calls.open(fs, "/eio", create=True, size=2 * PAGE_SIZE)
        pfn = fs.charge_block_lookup(fs.lookup("/eio"), 0)

        kernel.counters.ras.model.inject(pfn, FaultKind.DEAD)
        with pytest.raises(MediaError):
            sys_calls.pread(fd, 0, 64)

        # EIO, not SIGBUS: the reader survives the failed read.
        assert process.pid in kernel.processes
        assert kernel.counters.get("ras_read_eio") == 1
        assert kernel.counters.get("ras_sigbus_kill") == 0

    def test_transient_fault_retried_with_charged_backoff(self, ras_kernel):
        kernel = ras_kernel
        fs = kernel.pmfs
        process = kernel.spawn("reader")
        sys_calls = kernel.syscalls(process)
        fd = sys_calls.open(fs, "/flaky", create=True, size=PAGE_SIZE)
        pfn = fs.charge_block_lookup(fs.lookup("/flaky"), 0)

        kernel.counters.ras.model.inject(pfn, FaultKind.TRANSIENT, fail_count=2)
        before = kernel.clock.now
        data = sys_calls.pread(fd, 0, 64)
        assert len(data) == 64

        # Two failed attempts, linear backoff: 1x + 2x the unit wait.
        assert kernel.counters.get("ras_io_retry") == 2
        assert kernel.clock.now - before >= 3 * kernel.costs.ras_backoff_ns
        assert kernel.counters.get("ras_read_eio") == 0

    def test_exhausted_transient_escalates_to_eio(self, ras_kernel):
        kernel = ras_kernel
        fs = kernel.pmfs
        process = kernel.spawn("reader")
        sys_calls = kernel.syscalls(process)
        fd = sys_calls.open(fs, "/worn", create=True, size=PAGE_SIZE)
        pfn = fs.charge_block_lookup(fs.lookup("/worn"), 0)

        # Fails more times than the retry budget allows.
        kernel.counters.ras.model.inject(pfn, FaultKind.TRANSIENT, fail_count=99)
        with pytest.raises(MediaError):
            sys_calls.pread(fd, 0, 64)
        assert kernel.counters.get("ras_read_eio") == 1


class TestMigration:
    def test_file_backed_poison_migrates_and_access_recovers(
        self, ras_kernel
    ):
        kernel = ras_kernel
        fs = kernel.pmfs
        process = kernel.spawn("mapper")
        sys_calls = kernel.syscalls(process)
        fd = sys_calls.open(fs, "/mapped", create=True, size=4 * PAGE_SIZE)
        va = sys_calls.mmap(
            4 * PAGE_SIZE, fd=fd, flags=MapFlags.SHARED | MapFlags.POPULATE
        )
        old_paddr = kernel.access(process, va, write=True)
        old_pfn = old_paddr // PAGE_SIZE

        kernel.counters.ras.model.inject(old_pfn, FaultKind.DEAD)
        new_paddr = kernel.access(process, va)

        # The file system migrated the extent off the dead media and the
        # access re-faulted onto the fresh frame — nobody died.
        assert new_paddr != old_paddr
        assert process.pid in kernel.processes
        assert kernel.counters.get("ras_extent_migrated") == 1
        assert kernel.counters.get("ras_recovered_access") == 1
        assert kernel.counters.get("ras_sigbus_kill") == 0
        assert old_pfn in kernel.counters.ras.badblock_pfns()
        assert fs.fsck() == []

    def test_private_cow_copy_is_not_migrated(self, ras_kernel):
        kernel = ras_kernel
        fs = kernel.pmfs
        process = kernel.spawn("cow")
        sys_calls = kernel.syscalls(process)
        fd = sys_calls.open(fs, "/cow", create=True, size=2 * PAGE_SIZE)
        va = sys_calls.mmap(
            2 * PAGE_SIZE, fd=fd, flags=MapFlags.PRIVATE | MapFlags.POPULATE
        )
        # The write breaks COW: this frame is private, not file data.
        pfn = kernel.access(process, va, write=True) // PAGE_SIZE
        assert pfn in set(
            process.space.find_vma(va).private_copies.values()
        )

        kernel.counters.ras.model.inject(pfn, FaultKind.DEAD)
        with pytest.raises(MemoryPoisonError):
            kernel.access(process, va)
        # No durable home for a private copy: SIGBUS, no migration.
        assert kernel.counters.get("ras_sigbus_kill") == 1
        assert kernel.counters.get("ras_extent_migrated") == 0

"""Frame retirement: buddy quarantine, badblock journal, crash safety."""

from __future__ import annotations

import pytest

from repro.chaos import FaultPlan
from repro.errors import SimulatedCrashError
from repro.ras import BADBLOCK_PATH, FaultKind, MediaFaultModel
from repro.units import PAGE_SIZE


@pytest.fixture
def ras_kernel(kernel):
    kernel.arm_ras(model=MediaFaultModel(seed=0, faults_per_bind=0))
    return kernel


def _crash_during(kernel, site: str, pfn: int) -> None:
    """Retire ``pfn`` with a power cut at the first hit of ``site``."""
    kernel.arm_chaos(FaultPlan.crash_at_site(site))
    try:
        with pytest.raises(SimulatedCrashError):
            kernel.counters.ras.retire_frame(pfn)
    finally:
        kernel.disarm_chaos()


def _free_nvm_pfn(kernel) -> int:
    fs = kernel.pmfs
    first = kernel.nvm_region.first_pfn
    return next(
        pfn
        for pfn in range(first, first + 4096)
        if fs.allocator.block_is_free(pfn)
    )


class TestDramRetirement:
    def test_retire_free_frame(self, buddy):
        pfn = buddy.alloc(0)
        buddy.free(pfn)
        assert buddy.retire(pfn)
        assert pfn in buddy.retired_frames

    def test_retired_frame_never_reallocated(self, buddy):
        pfn = buddy.alloc(0)
        buddy.free(pfn)
        assert buddy.retire(pfn)
        seen = {buddy.alloc(0) for _ in range(64)}
        assert pfn not in seen

    def test_free_of_retired_frame_is_refused(self, buddy):
        pfn = buddy.alloc(0)
        buddy.free(pfn)
        buddy.retire(pfn)
        with pytest.raises(ValueError):
            buddy.free(pfn)

    def test_busy_frame_not_retired(self, buddy):
        pfn = buddy.alloc(0)
        assert not buddy.retire(pfn)
        assert pfn not in buddy.retired_frames
        buddy.free(pfn)
        assert buddy.retire(pfn)

    def test_retire_is_idempotent(self, buddy):
        pfn = buddy.alloc(0)
        buddy.free(pfn)
        free_before = buddy.free_frames
        assert buddy.retire(pfn)
        assert buddy.retire(pfn)
        assert buddy.free_frames == free_before - 1


class TestNvmRetirement:
    def test_free_block_adopted_onto_badblock_list(self, ras_kernel):
        kernel = ras_kernel
        pfn = _free_nvm_pfn(kernel)
        kernel.counters.ras.model.inject(pfn, FaultKind.DEAD)
        assert kernel.counters.ras.retire_frame(pfn)
        assert pfn in kernel.counters.ras.badblock_pfns()
        assert pfn in kernel.counters.ras.model.retired
        assert not kernel.pmfs.allocator.block_is_free(pfn)
        assert kernel.pmfs.fsck() == []

    def test_migration_preserves_file_contents(self, ras_kernel):
        kernel = ras_kernel
        fs = kernel.pmfs
        process = kernel.spawn("writer")
        sys_calls = kernel.syscalls(process)
        fd = sys_calls.open(fs, "/data", create=True, size=2 * PAGE_SIZE)
        payload = b"survives migration"
        sys_calls.pwrite(fd, 0, payload)
        old_pfn = fs.charge_block_lookup(fs.lookup("/data"), 0)

        kernel.counters.ras.model.inject(old_pfn, FaultKind.DEAD)
        assert kernel.counters.ras.retire_frame(old_pfn)

        new_pfn = fs.charge_block_lookup(fs.lookup("/data"), 0)
        assert new_pfn != old_pfn
        assert sys_calls.pread(fd, 0, len(payload)) == payload
        assert old_pfn in kernel.counters.ras.badblock_pfns()
        assert kernel.counters.get("ras_extent_migrated") == 1
        assert fs.fsck() == []

    def test_badblock_list_survives_plain_crash(self, ras_kernel):
        kernel = ras_kernel
        pfn = _free_nvm_pfn(kernel)
        kernel.counters.ras.model.inject(pfn, FaultKind.DEAD)
        assert kernel.counters.ras.retire_frame(pfn)
        kernel.crash()
        assert kernel.pmfs.exists(BADBLOCK_PATH)
        assert pfn in kernel.counters.ras.badblock_pfns()
        assert kernel.pmfs.fsck() == []

    def test_audit_flags_unretired_dead_and_unpersisted_retirement(
        self, ras_kernel
    ):
        kernel = ras_kernel
        pfn = _free_nvm_pfn(kernel)
        kernel.counters.ras.model.inject(pfn, FaultKind.DEAD)
        assert any(
            "still in service" in problem
            for problem in kernel.counters.ras.audit()
        )
        # Retiring only in the model (no PMFS adoption) is the other
        # half of the invariant: retired NVM frames must be persisted.
        kernel.counters.ras.model.retire(pfn)
        assert any(
            "missing from the persisted badblock list" in problem
            for problem in kernel.counters.ras.audit()
        )
        assert kernel.counters.ras.retire_frame(pfn) or True  # repair for symmetry


class TestCrashDuringRetirement:
    def test_crash_before_commit_rolls_adoption_back(self, ras_kernel):
        kernel = ras_kernel
        fs = kernel.pmfs
        pfn = _free_nvm_pfn(kernel)
        kernel.counters.ras.model.inject(pfn, FaultKind.DEAD)
        free_before = fs.allocator.free_blocks

        # The claimed block is recorded, the record not yet committed.
        _crash_during(kernel, "pmfs.journal.commit.pre", pfn)
        kernel.crash()

        # Undo: the half-adopted block is not leaked and the fault is
        # still live, so the retry completes the retirement.
        assert fs.fsck() == []
        assert fs.allocator.free_blocks == free_before
        assert kernel.counters.ras.model.probe(pfn) is not None
        assert kernel.counters.ras.retire_frame(pfn)
        assert pfn in kernel.counters.ras.badblock_pfns()
        assert fs.fsck() == []

    def test_crash_after_commit_replays_adoption(self, ras_kernel):
        kernel = ras_kernel
        fs = kernel.pmfs
        pfn = _free_nvm_pfn(kernel)
        kernel.counters.ras.model.inject(pfn, FaultKind.DEAD)

        _crash_during(kernel, "pmfs.journal.commit.post", pfn)  # redo window
        kernel.crash()

        # Redo: recovery finishes the adoption from the journal.
        assert pfn in kernel.counters.ras.badblock_pfns()
        assert not fs.allocator.block_is_free(pfn)
        assert fs.fsck() == []

    def test_crash_during_migration_recovers_consistent_file(
        self, ras_kernel
    ):
        kernel = ras_kernel
        fs = kernel.pmfs
        process = kernel.spawn("writer")
        sys_calls = kernel.syscalls(process)
        sys_calls.open(fs, "/victim", create=True, size=2 * PAGE_SIZE)
        old_pfn = fs.charge_block_lookup(fs.lookup("/victim"), 0)
        kernel.counters.ras.model.inject(old_pfn, FaultKind.DEAD)
        # Create the badblock file first so the crash lands in the
        # migration transaction itself, not the list's creation.
        kernel.counters.ras.badblock_inode()

        _crash_during(kernel, "pmfs.journal.commit.pre", old_pfn)
        assert fs.journal[-1].op == "migrate"
        kernel.crash()

        # Undo: the replacement block goes back, the file still maps the
        # old one, and the retirement can be completed afterwards.
        assert fs.fsck() == []
        assert fs._tree_of(fs.lookup("/victim")).lookup(0)[0] == old_pfn
        assert kernel.counters.ras.retire_frame(old_pfn)
        assert old_pfn in kernel.counters.ras.badblock_pfns()
        assert fs.fsck() == []

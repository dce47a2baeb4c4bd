"""Patrol scrubber behaviour and the seeded media-fault sweep.

The sweep tests call the same per-seed routine as ``repro-o1 ras``: a
seeded fault population over the Fig-2 chaos workload, patrol scrubs
before and after, then the RAS audit, the chaos oracles and the full
sanitizer suite — all of which must come back clean for every seed.
"""

from __future__ import annotations

import pytest

from repro.cli import _run_ras_seed
from repro.ras import FaultKind, MediaFaultModel


@pytest.fixture
def ras_kernel(kernel):
    kernel.arm_ras(model=MediaFaultModel(seed=0, faults_per_bind=0))
    return kernel


class TestPatrolScrubber:
    def test_batch_is_bounded(self, ras_kernel):
        scrubber = ras_kernel.counters.ras.scrubber
        assert scrubber.scrub_batch() == scrubber.batch_frames
        assert scrubber.cursor == scrubber.batch_frames

    def test_cursor_wraps(self, ras_kernel):
        scrubber = ras_kernel.counters.ras.scrubber
        total = scrubber.total_frames
        batches = -(-total // scrubber.batch_frames)
        for _ in range(batches):
            scrubber.scrub_batch()
        assert scrubber.cursor < scrubber.batch_frames

    def test_full_pass_clears_poison_and_retires_dead(self, ras_kernel):
        kernel = ras_kernel
        first_nvm = kernel.nvm_region.first_pfn
        dead = next(
            pfn
            for pfn in range(first_nvm, first_nvm + 64)
            if kernel.pmfs.allocator.block_is_free(pfn)
        )
        poisoned = kernel.dram_region.first_pfn
        kernel.counters.ras.model.inject(dead, FaultKind.DEAD)
        kernel.counters.ras.model.inject(poisoned, FaultKind.POISON)

        probed = kernel.counters.ras.scrubber.scrub_full()

        assert probed == kernel.counters.ras.scrubber.total_frames
        assert kernel.counters.ras.model.faults() == ()
        assert dead in kernel.counters.ras.badblock_pfns()
        assert kernel.counters.get("ras_poison_cleared") == 1
        assert kernel.counters.get("ras_frame_retired") == 1
        assert kernel.counters.ras.audit() == []

    def test_transient_faults_are_tolerated_not_retired(self, ras_kernel):
        kernel = ras_kernel
        pfn = kernel.dram_region.first_pfn + 1
        kernel.counters.ras.model.inject(pfn, FaultKind.TRANSIENT, fail_count=2)
        kernel.counters.ras.scrubber.scrub_batch()
        # Still active: the demand path's bounded retry owns transients.
        assert kernel.counters.ras.model.probe(pfn) is not None
        assert kernel.counters.get("ras_frame_retired") == 0

    def test_busy_dram_frame_skipped_and_counted(self, ras_kernel):
        kernel = ras_kernel
        pfn = kernel.dram_buddy.alloc(0)
        kernel.counters.ras.model.inject(pfn, FaultKind.DEAD)
        kernel.counters.ras.scrub_frame(pfn)
        assert kernel.counters.get("ras_scrub_busy") == 1
        assert pfn not in kernel.counters.ras.model.retired
        # Once the frame frees, the next patrol visit retires it.
        kernel.dram_buddy.free(pfn)
        kernel.counters.ras.scrub_frame(pfn)
        assert pfn in kernel.counters.ras.model.retired


class TestSeededSweep:
    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_fault_population_survives_fig2_workload(self, seed):
        report = _run_ras_seed(seed)
        assert report["ok"], report
        assert report["sanitizer_violations"] == []
        assert report["oracle_problems"] == []
        assert report["problems"] == []
        # Every sampled permanent fault was retired onto the persisted
        # badblock list (the issue's acceptance bar).
        for pfn in report["sampled_dead"]:
            assert pfn in report["retired"]
            assert pfn in report["badblock_pfns"]

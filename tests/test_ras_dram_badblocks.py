"""DRAM badblock persistence: records survive reboot, torn appends don't lie."""

from __future__ import annotations

import pytest

from repro.chaos import FaultPlan
from repro.errors import SimulatedCrashError
from repro.ras import DRAM_BADBLOCK_PATH, FaultKind, MediaFaultModel


@pytest.fixture
def ras_kernel(kernel):
    kernel.arm_ras(model=MediaFaultModel(seed=0, faults_per_bind=0))
    return kernel


def _free_dram_pfn(kernel) -> int:
    pfn = kernel.dram_buddy.alloc(0)
    kernel.dram_buddy.free(pfn)
    return pfn


def _reboot(kernel):
    """Power-cycle and re-arm RAS: the fresh engine adopts persisted records."""
    kernel.crash()
    return kernel.arm_ras(model=MediaFaultModel(seed=0, faults_per_bind=0))


class TestPersistence:
    def test_retirement_appends_a_record(self, ras_kernel):
        kernel = ras_kernel
        pfn = _free_dram_pfn(kernel)
        kernel.counters.ras.model.inject(pfn, FaultKind.DEAD)
        assert kernel.counters.ras.retire_frame(pfn)
        assert kernel.pmfs.exists(DRAM_BADBLOCK_PATH)
        assert pfn in kernel.counters.ras.dram_badblock_pfns()
        assert kernel.counters.get("ras_badblock_persisted") == 1
        assert kernel.counters.ras.audit() == []

    def test_records_survive_reboot_and_readopt(self, ras_kernel):
        kernel = ras_kernel
        pfn = _free_dram_pfn(kernel)
        kernel.counters.ras.model.inject(pfn, FaultKind.DEAD)
        assert kernel.counters.ras.retire_frame(pfn)

        engine = _reboot(kernel)
        assert pfn in engine.dram_badblock_pfns()
        assert pfn in engine.model.retired
        assert kernel.counters.get("ras_dram_badblock_adopted") >= 1
        # The frame stays out of service across the power cycle.
        assert pfn in kernel.dram_buddy.retired_frames
        assert engine.audit() == []

    def test_without_pmfs_retirement_is_volatile_only(self):
        from repro.kernel import Kernel, MachineConfig
        from repro.units import MIB

        kernel = Kernel(MachineConfig(dram_bytes=64 * MIB, nvm_bytes=0))
        kernel.arm_ras(model=MediaFaultModel(seed=0, faults_per_bind=0))
        pfn = _free_dram_pfn(kernel)
        assert kernel.counters.ras.retire_frame(pfn)
        assert kernel.counters.ras.dram_badblock_pfns() == frozenset()
        assert kernel.counters.ras.audit() == []  # no durable home, no obligation


class TestCrashWindows:
    def test_crash_before_persist_loses_the_record_retry_closes(
        self, ras_kernel
    ):
        """The window between buddy retirement and the record append."""
        kernel = ras_kernel
        pfn = _free_dram_pfn(kernel)
        kernel.counters.ras.model.inject(pfn, FaultKind.DEAD)
        kernel.arm_chaos(FaultPlan.crash_at_site("ras.badblock.persist"))

        with pytest.raises(SimulatedCrashError):
            kernel.counters.ras.retire_frame(pfn)

        engine = _reboot(kernel)
        # The power cut landed before the append: no record, so a real
        # reboot would put the frame back in service.  The fault is
        # still live, so re-detection re-retires it and closes the
        # window (the buddy-side retirement is idempotent).
        assert pfn not in engine.dram_badblock_pfns()
        engine.model.inject(pfn, FaultKind.DEAD)
        assert engine.retire_frame(pfn)
        assert pfn in engine.dram_badblock_pfns()
        assert engine.audit() == []

    def test_torn_append_reads_as_no_record(self, ras_kernel):
        """A torn append leaves an all-zero chunk the loader must skip."""
        kernel = ras_kernel
        first = _free_dram_pfn(kernel)
        kernel.counters.ras.model.inject(first, FaultKind.DEAD)
        assert kernel.counters.ras.retire_frame(first)

        second = kernel.dram_buddy.alloc(0)
        kernel.dram_buddy.free(second)
        kernel.counters.ras.model.inject(second, FaultKind.DEAD)
        kernel.arm_chaos(FaultPlan.fault_at_site("fs.write.torn", "torn"))
        with pytest.raises(SimulatedCrashError):
            kernel.counters.ras.retire_frame(second)

        engine = _reboot(kernel)
        # Only the half-written high bytes of (pfn+1) landed — zeros,
        # because simulated pfns fit 32 bits.  The loader skips the
        # zero chunk instead of resurrecting frame 2^64-1.
        assert first in engine.dram_badblock_pfns()
        assert second not in engine.dram_badblock_pfns()

        engine.model.inject(second, FaultKind.DEAD)
        assert engine.retire_frame(second)
        assert second in engine.dram_badblock_pfns()
        assert engine.audit() == []

"""Sanitizer efficacy: each deliberately broken kernel trips its detector.

Three mutants, one per detector, mirroring the chaos engine's
"prove the check can fail" discipline:

* a skipped TLB shootdown after fork's COW downgrade → TransSan
* a double-freed DRAM block → FrameSan
* a journal commit that never reaches NVM before its metadata apply
  → PersistSan

Each test asserts the violation comes from *exactly* the expected
detector, so a regression in one shadow model cannot hide behind
another.  The clean-workload tests pin the false-positive rate of the
armed suite at zero for the representative paths.
"""

import pytest

from repro.sanitize import DETECTORS, SanitizerError, SanitizerSuite
from repro.units import KIB, PAGE_SIZE
from repro.vm.vma import MapFlags


def _only_violation(suite):
    assert len(suite.violations) == 1, [v.format() for v in suite.violations]
    return suite.violations[0]


class TestTransSanMutant:
    def test_skipped_shootdown_trips_stale_tlb(self, kernel, monkeypatch):
        suite = kernel.arm_sanitizers()
        parent = kernel.spawn("parent")
        sys = kernel.syscalls(parent)
        va = sys.mmap(16 * KIB)
        kernel.access(parent, va, write=True)  # TLB caches a writable entry

        # Mutant: fork downgrades the parent's PTEs to read-only for COW
        # but the shootdown never happens — the stale writable entry
        # survives in the TLB.
        monkeypatch.setattr(
            kernel.cpu, "invalidate_space_range", lambda *a, **kw: None
        )
        sys.fork()

        with pytest.raises(SanitizerError, match="stale-tlb-entry"):
            kernel.access(parent, va, write=True)
        violation = _only_violation(suite)
        assert violation.detector == "trans"
        assert violation.kind == "stale-tlb-entry"

    def test_cow_break_bypassed_by_stale_tlb_entry(self, kernel, monkeypatch):
        # The COW fork replaces per-PTE downgrades with one write-protect
        # bit per shared window; the fork-time shootdown is what forces
        # the parent's next store through the fault path where
        # _cow_break_window runs.  Mutant: drop the shootdown — the stale
        # writable TLB entry lets the store bypass the window
        # write-protect, silently scribbling on frames the child shares.
        suite = kernel.arm_sanitizers()
        parent = kernel.spawn("parent")
        sys = kernel.syscalls(parent)
        va = sys.mmap(16 * KIB)
        kernel.access(parent, va, write=True)  # TLB caches writable entry
        monkeypatch.setattr(
            kernel.cpu, "invalidate_space_range", lambda *a, **kw: None
        )
        sys.fork()
        with pytest.raises(SanitizerError, match="stale-tlb-entry"):
            kernel.access(parent, va, write=True)
        violation = _only_violation(suite)
        assert violation.detector == "trans"
        assert violation.kind == "stale-tlb-entry"
        # The store never faulted: the share was still intact when the
        # sanitizer caught the bypass at the TLB hit itself.
        assert kernel.counters.get("cow_break") == 0

    def test_correct_shootdown_is_clean(self, kernel):
        suite = kernel.arm_sanitizers()
        parent = kernel.spawn("parent")
        sys = kernel.syscalls(parent)
        va = sys.mmap(16 * KIB)
        kernel.access(parent, va, write=True)
        sys.fork()
        kernel.access(parent, va, write=True)  # COW fault, then clean write
        assert suite.violations == []


class TestFrameSanMutant:
    def test_double_free_trips_framesan(self, kernel):
        suite = kernel.arm_sanitizers()
        pfn = kernel.dram_buddy.alloc(0)
        kernel.dram_buddy.free(pfn)
        with pytest.raises(SanitizerError, match="double-free"):
            kernel.dram_buddy.free(pfn)
        violation = _only_violation(suite)
        assert violation.detector == "frame"
        assert violation.kind == "double-free"

    def test_forgotten_fork_user_trips_use_after_free(self, kernel):
        # A fork-shared anonymous backing defers frame frees until its
        # last user detaches.  Mutant: the share "forgets" the child user
        # (the donor-refcount bug class), so the parent's unmap frees
        # frames the child's subtree-shared page table still translates.
        # FrameSan alone must catch the child's next access — arm only
        # the frame detector so TransSan cannot mask it at free time.
        suite = kernel.arm_sanitizers(SanitizerSuite(detectors=("frame",)))
        parent = kernel.spawn("parent")
        sys = kernel.syscalls(parent)
        va = sys.mmap(16 * KIB, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
        child = sys.fork()
        vma = parent.space.find_vma(va)
        vma.backing._users = 1  # mutant: drop the child's reference
        sys.munmap(va, 16 * KIB)
        with pytest.raises(SanitizerError, match="use-after-free"):
            kernel.access(child, va)
        violation = _only_violation(suite)
        assert violation.detector == "frame"
        assert violation.kind == "use-after-free"

    def test_single_free_is_clean(self, kernel):
        suite = kernel.arm_sanitizers()
        pfn = kernel.dram_buddy.alloc(2)
        kernel.dram_buddy.free(pfn)
        assert suite.violations == []


class TestPersistSanMutant:
    def test_skipped_commit_trips_persistsan(self, kernel, monkeypatch):
        suite = kernel.arm_sanitizers()
        proc = kernel.spawn("writer")
        sys = kernel.syscalls(proc)
        fd = sys.open(kernel.pmfs, "/journal-mutant", create=True)

        # Mutant: the commit write is dropped before reaching NVM, yet
        # the allocation transaction applies its metadata anyway.
        monkeypatch.setattr(
            kernel.pmfs, "_journal_commit", lambda record: None
        )
        with pytest.raises(SanitizerError, match="apply-before-commit"):
            sys.pwrite(fd, 0, b"x" * PAGE_SIZE)
        violation = _only_violation(suite)
        assert violation.detector == "persist"
        assert violation.kind == "apply-before-commit"

    def test_committed_write_is_clean(self, kernel):
        suite = kernel.arm_sanitizers()
        proc = kernel.spawn("writer")
        sys = kernel.syscalls(proc)
        fd = sys.open(kernel.pmfs, "/journal-clean", create=True)
        sys.pwrite(fd, 0, b"x" * PAGE_SIZE)
        sys.close(fd)
        sys.unlink(kernel.pmfs, "/journal-clean")
        assert suite.violations == []


class TestArming:
    def test_arm_returns_bound_suite(self, kernel):
        suite = kernel.arm_sanitizers()
        assert kernel.counters.sanitize is suite
        assert suite.detectors == DETECTORS

    def test_disarm_detaches(self, kernel):
        kernel.arm_sanitizers()
        kernel.disarm_sanitizers()
        assert kernel.counters.sanitize is None

    def test_detector_subset(self, kernel):
        suite = kernel.arm_sanitizers(SanitizerSuite(detectors=("frame",)))
        pfn = kernel.dram_buddy.alloc(0)
        kernel.dram_buddy.free(pfn)
        with pytest.raises(SanitizerError):
            kernel.dram_buddy.free(pfn)
        assert suite.detectors == ("frame",)

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError, match="unknown detector"):
            SanitizerSuite(detectors=("frame", "asan"))
        with pytest.raises(ValueError, match="at least one"):
            SanitizerSuite(detectors=())

    def test_collect_mode_does_not_halt(self, kernel):
        suite = kernel.arm_sanitizers(SanitizerSuite(halt=False))
        pfn = kernel.dram_buddy.alloc(0)
        kernel.dram_buddy.free(pfn)
        with pytest.raises(ValueError):  # the allocator's own error, not ours
            kernel.dram_buddy.free(pfn)
        assert _only_violation(suite).kind == "double-free"

    def test_violation_bumps_counter_and_report(self, kernel):
        suite = kernel.arm_sanitizers(SanitizerSuite(halt=False))
        pfn = kernel.dram_buddy.alloc(0)
        kernel.dram_buddy.free(pfn)
        with pytest.raises(ValueError):
            kernel.dram_buddy.free(pfn)
        assert kernel.counters.get("sanitize_violation") == 1
        report = suite.report()
        assert report["violation_count"] == 1
        assert report["violations"][0]["detector"] == "frame"
        assert report["armed_detectors"] == list(DETECTORS)
        assert report["checks"]  # the suite actually checked something


class TestCleanWorkloads:
    def test_fault_fork_write_unlink_crash_cycle(self, kernel):
        suite = kernel.arm_sanitizers()
        proc = kernel.spawn("clean")
        sys = kernel.syscalls(proc)
        va = sys.mmap(64 * KIB)
        kernel.access_range(proc, va, 64 * KIB, write=True)
        sys.fork()
        fd = sys.open(kernel.pmfs, "/clean-cycle", create=True, size=8 * KIB)
        sys.pwrite(fd, 0, b"y" * KIB)
        sys.close(fd)
        sys.munmap(va, 64 * KIB)
        kernel.crash()
        assert suite.violations == []
        assert sum(suite.checks.values()) > 0

    def test_report_shape_is_stable(self, kernel):
        suite = kernel.arm_sanitizers()
        report = suite.report()
        assert set(report) >= {
            "version",
            "tool",
            "armed_detectors",
            "halt",
            "violation_count",
            "violations",
            "checks",
            "shadow",
            "page_size",
        }
        assert set(report["shadow"]) == set(DETECTORS)

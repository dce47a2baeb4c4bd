"""QosController integration: arming, charging, backpressure, OOM kills."""

from __future__ import annotations

import pytest

from repro.chaos import FaultPlan
from repro.errors import OomKilledError
from repro.kernel import Kernel, MachineConfig
from repro.mem.slab import SlabCache
from repro.mem.zeropool import ZeroPool
from repro.qos.memcg import CgroupError
from repro.sanitize import SanitizerSuite
from repro.units import GIB, MIB, PAGE_SIZE
from repro.vm.vma import MapFlags


@pytest.fixture
def qos_kernel() -> Kernel:
    """Small machine with swap so direct reclaim has somewhere to evict."""
    return Kernel(
        MachineConfig(dram_bytes=64 * MIB, nvm_bytes=1 * GIB, swap_pages=4096)
    )


def _touch(kernel, process, va, pages, write=True):
    for i in range(pages):
        kernel.access(process, va + i * PAGE_SIZE, write=write)


class TestArming:
    def test_arm_fills_the_qos_slot(self, kernel):
        controller = kernel.arm_qos()
        assert kernel.counters.qos is controller
        kernel.disarm_qos()
        assert kernel.counters.qos is None

    def test_spawn_cgroup_requires_armed_controller(self, kernel):
        from repro.errors import ConfigurationError

        # The REPRO_QOS=1 suite arms every kernel; this test needs one
        # without a controller.
        kernel.disarm_qos()
        with pytest.raises(ConfigurationError, match="arm_qos"):
            kernel.spawn("orphan", cgroup="nowhere")

    def test_duplicate_cgroup_name_rejected(self, kernel):
        qos = kernel.arm_qos()
        qos.cgroup("tenant")
        with pytest.raises(CgroupError, match="already exists"):
            qos.cgroup("tenant")

    def test_limitless_arming_is_bit_identical(self):
        """The golden-figure claim in miniature: arming with only the
        limitless root changes no simulated time and no hot counters."""

        def run(armed: bool):
            kernel = Kernel(MachineConfig(dram_bytes=64 * MIB))
            if armed:
                kernel.arm_qos()
            process = kernel.spawn("w")
            va = kernel.syscalls(process).mmap(
                32 * PAGE_SIZE, flags=MapFlags.PRIVATE
            )
            _touch(kernel, process, va, 32)
            return kernel.clock.now, kernel.counters.get("fault_minor")

        assert run(armed=False) == run(armed=True)


class TestCharging:
    def test_usage_tracks_faults_and_drains_on_exit(self, kernel):
        qos = kernel.arm_qos()
        cg = qos.cgroup("tenant")
        process = kernel.spawn("w", cgroup=cg)
        va = kernel.syscalls(process).mmap(16 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, process, va, 16)
        # 16 data frames plus the page-table nodes backing them.
        assert cg.usage_frames >= 16
        assert qos.root.usage_frames >= cg.usage_frames
        process.exit()
        assert cg.usage_frames == 0
        assert qos.root.usage_frames == 0

    def test_frames_allocated_before_arming_never_uncharge(self, kernel):
        process = kernel.spawn("early")
        va = kernel.syscalls(process).mmap(4 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, process, va, 4)
        qos = kernel.arm_qos()
        process.exit()  # frees frames the controller never charged
        assert qos.root.usage_frames == 0

    def test_zeropool_parks_on_root_until_taken(self, kernel):
        qos = kernel.arm_qos()
        cg = qos.cgroup("tenant")
        process = kernel.spawn("w", cgroup=cg)
        qos.enter_pid(process.pid)
        pool = ZeroPool(
            kernel.dram_buddy,
            target_size=4,
            clock=kernel.clock,
            costs=kernel.costs,
            counters=kernel.counters,
        )
        root_before = qos.root.usage_frames
        pool.refill()
        # Background refill is never billed to the tenant that ran it.
        assert cg.usage_frames == 0
        assert qos.root.usage_frames == root_before + 4
        pfn = pool.take()
        assert cg.usage_frames == 1
        kernel.dram_buddy.free(pfn)
        assert cg.usage_frames == 0

    def test_slab_growth_lands_on_kmem_ledger(self, kernel):
        qos = kernel.arm_qos()
        cg = qos.cgroup("tenant")
        process = kernel.spawn("w", cgroup=cg)
        qos.enter_pid(process.pid)
        cache = SlabCache(
            "t-objs",
            object_size=256,
            buddy=kernel.dram_buddy,
            clock=kernel.clock,
            costs=kernel.costs,
            counters=kernel.counters,
        )
        addr = cache.alloc()
        assert cg.kmem_frames == 1
        assert qos.root.kmem_frames == 1
        cache.free(addr)  # last object out: the slab reaps
        assert cg.kmem_frames == 0

    def test_pmfs_blocks_land_on_nvm_ledger(self, kernel):
        qos = kernel.arm_qos()
        cg = qos.cgroup("tenant")
        process = kernel.spawn("w", cgroup=cg)
        sys_calls = kernel.syscalls(process)
        fd = sys_calls.open(kernel.pmfs, "/data", create=True, size=4 * PAGE_SIZE)
        assert cg.nvm_blocks >= 4
        sys_calls.close(fd)
        sys_calls.unlink(kernel.pmfs, "/data")
        assert cg.nvm_blocks == 0

    def test_fragmented_pmfs_allocation_charges_every_piece(self):
        # 16 blocks, every other one free: a 3-block file takes 3 pieces,
        # and its unlink uncharges all three.
        kernel = Kernel(MachineConfig(dram_bytes=64 * MIB, nvm_bytes=16 * PAGE_SIZE))
        qos = kernel.arm_qos()
        cg = qos.cgroup("tenant")
        sys_calls = kernel.syscalls(kernel.spawn("w", cgroup=cg))
        for index in range(16):
            sys_calls.close(sys_calls.open(
                kernel.pmfs, f"/f{index}", create=True, size=PAGE_SIZE
            ))
        for index in range(0, 16, 2):
            sys_calls.unlink(kernel.pmfs, f"/f{index}")
        assert cg.nvm_blocks == 8
        sys_calls.close(sys_calls.open(
            kernel.pmfs, "/big", create=True, size=3 * PAGE_SIZE
        ))
        assert kernel.pmfs.extent_count(kernel.pmfs.lookup("/big")) == 3
        assert cg.nvm_blocks == 11
        sys_calls.unlink(kernel.pmfs, "/big")
        assert cg.nvm_blocks == 8

    def test_fork_child_inherits_parent_cgroup(self, kernel):
        qos = kernel.arm_qos()
        cg = qos.cgroup("tenant")
        parent = kernel.spawn("parent", cgroup=cg)
        child = kernel.fork(parent)
        assert qos.cgroup_of(child.pid) is cg
        assert child.pid in cg.pids


class TestHighWatermark:
    def test_breach_runs_reclaim_and_relieves_pressure(self, qos_kernel):
        kernel = qos_kernel
        qos = kernel.arm_qos()
        cg = qos.cgroup("tenant", high=24)
        process = kernel.spawn("w", track_lru=True, cgroup=cg)
        va = kernel.syscalls(process).mmap(64 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, process, va, 64)
        assert kernel.counters.get("qos_watermark_high") > 0
        assert kernel.counters.get("qos_reclaim_batch") > 0
        assert kernel.counters.get("swap_out") > 0
        assert cg.events["reclaim"] > 0
        # Reclaim kept the tenant near its watermark instead of letting
        # it grow to the full 64-page footprint.
        assert cg.usage_frames < 64

    def test_unreclaimable_breach_throttles_with_psi(self, qos_kernel):
        kernel = qos_kernel
        qos = kernel.arm_qos()
        cg = qos.cgroup("tenant", high=8)
        process = kernel.spawn("w", cgroup=cg)  # no LRU: nothing evictable
        before = kernel.clock.now
        va = kernel.syscalls(process).mmap(24 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, process, va, 24)
        assert kernel.counters.get("qos_throttle_stall") > 0
        assert cg.events["throttle"] > 0
        # The stall is charged to the simulated clock and shows as PSI.
        assert kernel.clock.now > before
        assert cg.psi.full_total_ns > 0
        some, full = cg.psi.avg10(kernel.clock.now)
        assert full > 0.0

    def test_throttle_backoff_grows_with_streak(self, qos_kernel):
        kernel = qos_kernel
        qos = kernel.arm_qos()
        cg = qos.cgroup("tenant", high=4)
        process = kernel.spawn("w", cgroup=cg)
        va = kernel.syscalls(process).mmap(16 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, process, va, 16)
        assert cg.throttle_streak > 1
        # The linear stall is capped, never unbounded.
        assert (
            qos.config.throttle_base_ns * cg.throttle_streak
            >= qos.config.throttle_base_ns * 2
        )

    def test_chaos_error_at_reclaim_site_is_absorbed(self, qos_kernel):
        kernel = qos_kernel
        kernel.arm_chaos(FaultPlan.fault_at_site("qos.reclaim", "error"))
        qos = kernel.arm_qos()
        cg = qos.cgroup("tenant", high=8)
        process = kernel.spawn("w", track_lru=True, cgroup=cg)
        va = kernel.syscalls(process).mmap(24 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, process, va, 24)  # must not raise
        assert kernel.counters.get("qos_reclaim_error") > 0
        assert process.alive


class TestTargetedReclaim:
    """Each cgroup's pages sit on its own LRU lists."""

    @staticmethod
    def _tenant(kernel, qos, name, pages, parent=None):
        cg = qos.cgroup(name, parent=parent)
        process = kernel.spawn(name, track_lru=True, cgroup=cg)
        va = kernel.syscalls(process).mmap(pages * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, process, va, pages)
        return cg, process

    def test_batch_ignores_neighbour_faulted_first(self, qos_kernel):
        kernel = qos_kernel
        qos = kernel.arm_qos()
        batch = qos.config.reclaim_batch
        _, neighbour = self._tenant(kernel, qos, "neighbour", 256)
        # Fresh pages are referenced: one pass promotes them, aging
        # brings them back, and the batch evicts from the second pass.
        pages = 3 * batch // 2
        target, process = self._tenant(kernel, qos, "target", pages)
        scanned_before = kernel.counters.get("reclaim_scanned")

        assert qos.reclaim_batch(target) == batch
        scanned = kernel.counters.get("reclaim_scanned") - scanned_before
        assert scanned <= 4 * batch
        assert process.space.resident_pages() == pages - batch
        assert neighbour.space.resident_pages() == 256
        assert target.events["scanned"] == scanned
        assert target.events["evicted"] == batch

    def test_parent_batch_reaches_children_not_siblings(self, qos_kernel):
        kernel = qos_kernel
        qos = kernel.arm_qos()
        parent = qos.cgroup("parent")
        _, child = self._tenant(kernel, qos, "child", 64, parent=parent)
        sibling_root = qos.cgroup("sibling")
        _, sibling = self._tenant(kernel, qos, "nephew", 64, parent=sibling_root)

        assert qos.reclaim_batch(parent) == qos.config.reclaim_batch
        assert child.space.resident_pages() == 64 - qos.config.reclaim_batch
        assert sibling.space.resident_pages() == 64

    def test_reattach_leaves_resident_pages_on_old_lists(self, qos_kernel):
        kernel = qos_kernel
        qos = kernel.arm_qos()
        old, process = self._tenant(kernel, qos, "old", 8)
        new = qos.attach(process, qos.cgroup("new"))
        assert process.space.lru is new.lru
        va = kernel.syscalls(process).mmap(4 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, process, va, 4)
        assert (old.lru.resident_count, new.lru.resident_count) == (8, 4)


class TestOomKiller:
    def test_kill_confined_to_offending_cgroup(self, qos_kernel):
        kernel = qos_kernel
        qos = kernel.arm_qos()
        noisy = qos.cgroup("noisy", max_frames=24)
        bystander = kernel.spawn("bystander")
        victim = kernel.spawn("victim", cgroup=noisy)
        offender = kernel.spawn("offender", cgroup=noisy)
        va_v = kernel.syscalls(victim).mmap(32 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, victim, va_v, 16)
        va_o = kernel.syscalls(offender).mmap(32 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, offender, va_o, 16)
        # largest_rss picked the non-running tenant inside the cgroup;
        # the bystander outside the cgroup was never a candidate.
        assert not victim.alive
        assert bystander.alive
        assert kernel.counters.get("qos_oom_kill") >= 1
        for kill in qos.kills:
            assert kill["offending"] == "noisy"
            assert kill["cgroup"] == "noisy"

    def test_lone_offender_dies_at_next_safe_point(self, qos_kernel):
        kernel = qos_kernel
        qos = kernel.arm_qos()
        cg = qos.cgroup("noisy", max_frames=12)
        process = kernel.spawn("leaker", cgroup=cg)
        va = kernel.syscalls(process).mmap(64 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        # The breach happens mid-access: the killer must not tear the
        # faulting process down under its own fault handler.  It is
        # doomed instead and dies at the next syscall/access entry.
        with pytest.raises(OomKilledError):
            _touch(kernel, process, va, 64)
        assert not process.alive
        assert any(kill["deferred"] for kill in qos.kills)
        # Teardown went through the standard exit path: every charged
        # frame drained back out.
        assert cg.usage_frames == 0
        assert qos.root.usage_frames == 0

    def test_victimless_breach_is_counted_not_fatal(self, qos_kernel):
        kernel = qos_kernel
        qos = kernel.arm_qos()
        cg = qos.cgroup("ghost", max_frames=0)
        qos.current = cg  # charge context with no attached processes
        pfn = kernel.dram_buddy.alloc(0)
        assert kernel.counters.get("qos_oom_victimless") == 1
        kernel.dram_buddy.free(pfn)

    def test_oldest_policy_kills_smallest_pid(self, qos_kernel):
        kernel = qos_kernel
        qos = kernel.arm_qos()
        cg = qos.cgroup("fifo", max_frames=20, oom_policy="oldest")
        first = kernel.spawn("first", cgroup=cg)
        second = kernel.spawn("second", cgroup=cg)
        va1 = kernel.syscalls(first).mmap(16 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, first, va1, 10)
        va2 = kernel.syscalls(second).mmap(16 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, second, va2, 12)
        assert not first.alive
        assert second.alive

    def test_kills_survive_sanitizer_census(self, qos_kernel):
        """FrameSan's leak census stays clean across OOM kills."""
        kernel = qos_kernel
        kernel.arm_sanitizers(SanitizerSuite())
        qos = kernel.arm_qos()
        cg = qos.cgroup("noisy", max_frames=16)
        victim = kernel.spawn("victim", cgroup=cg)
        offender = kernel.spawn("offender", cgroup=cg)
        va_v = kernel.syscalls(victim).mmap(16 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, victim, va_v, 12)
        va_o = kernel.syscalls(offender).mmap(16 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, offender, va_o, 12)
        assert kernel.counters.get("qos_oom_kill") >= 1
        assert kernel.counters.get("sanitize_violation") == 0

    def test_chaos_covers_oom_kill_site(self, qos_kernel):
        kernel = qos_kernel
        plan = FaultPlan.counting()
        kernel.arm_chaos(plan)
        qos = kernel.arm_qos()
        cg = qos.cgroup("noisy", max_frames=16)
        a = kernel.spawn("a", cgroup=cg)
        b = kernel.spawn("b", cgroup=cg)
        va_a = kernel.syscalls(a).mmap(16 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, a, va_a, 12)
        va_b = kernel.syscalls(b).mmap(16 * PAGE_SIZE, flags=MapFlags.PRIVATE)
        _touch(kernel, b, va_b, 12)
        assert plan.census().get("qos.oom_kill", 0) >= 1


class TestReporting:
    def test_report_snapshots_hierarchy_and_kills(self, qos_kernel):
        kernel = qos_kernel
        qos = kernel.arm_qos()
        qos.cgroup("tenant", high=100, max_frames=200)
        report = qos.report()
        names = [cg["name"] for cg in report["cgroups"]]
        assert names == ["root", "tenant"]
        tenant = report["cgroups"][1]
        assert tenant["high_frames"] == 100
        assert tenant["max_frames"] == 200
        assert "psi" in tenant and "some_avg10" in tenant["psi"]
        assert report["kills"] == []

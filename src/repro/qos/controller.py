"""The QoS memory controller: charging, backpressure, and the OOM path.

Armed on a machine with ``kernel.arm_qos()``, which stores the controller
in the registry's one ``counters.qos`` slot (the chaos engine, sanitizers
and RAS engine have theirs), and reached from the hot allocation paths
by reading that attribute, so an unarmed machine pays exactly one
attribute read per site and the golden figures stay bit-identical.

Charge sites (all O(1) per event):

* ``BuddyAllocator.alloc`` / ``_free_blocks`` — every DRAM frame block,
  attributed to the *current* cgroup (the controller tracks the block's
  owner so the free uncharges the right tenant no matter who frees);
* ``ZeroPool.refill`` / ``take`` — pooled frames park on the root
  cgroup and transfer to the taker, so background zeroing is never
  billed to whichever tenant happened to trigger it;
* ``SlabCache._grow`` / ``_reap`` — kernel-memory side ledger
  (``kmem_frames``), informational like cgroup v2's kmem counters;
* ``BlockAllocator.alloc_extent`` / ``free_extent`` — PMFS block side
  ledger (``nvm_blocks``).

Watermark policy (cgroup-v2 semantics):

* over ``high`` → *backpressure, not failure*: one bounded-batch direct
  reclaim pass over the cgroup's own LRU lists (``qos.reclaim`` chaos
  site), then — if still over — a clock-charged throttle stall growing
  linearly with the breach streak;
* over ``max`` → bounded reclaim retries, then the pluggable OOM killer
  (``qos.oom_kill`` chaos site): victims come only from the offending
  cgroup's subtree and die through the existing ``Process.exit``
  teardown, so FrameSan's leak census stays clean across kills.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Union

from repro.errors import OomKilledError, OutOfMemoryError
from repro.lint import allocfree, complexity, o1
from repro.qos.memcg import OOM_POLICIES, CgroupError, MemCg
from repro.vm.reclaimd import ClockReclaimer, LruLists

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process


@dataclass(frozen=True)
class QosConfig:
    """Tunables for the pressure slow paths (never touched within limits)."""

    #: Pages per direct-reclaim batch; one batch pops at most 4x this
    #: from the target cgroup's inactive lists.
    reclaim_batch: int = 32
    #: Reclaim passes attempted against a ``max`` breach before the OOM
    #: killer is invoked.
    reclaim_retries: int = 2
    #: Base throttle stall; breach streak k sleeps ``k * base`` (capped).
    throttle_base_ns: int = 20_000
    #: Upper bound on one throttle stall.
    throttle_cap_ns: int = 1_000_000


class QosController:
    """Per-tenant memory accounting and pressure policy for one machine."""

    def __init__(
        self, kernel: "Kernel", config: Optional[QosConfig] = None
    ) -> None:
        self._kernel = kernel
        self._clock = kernel.clock
        self._counters = kernel.counters
        self.config = config if config is not None else QosConfig()
        self._frame_table = kernel.frame_table
        self.root = MemCg("root", lru=kernel.lru)
        self._cgs: Dict[str, MemCg] = {"root": self.root}
        self._cg_of_pid: Dict[int, MemCg] = {}
        #: first-pfn -> owning cgroup for live DRAM blocks.
        self._owner: Dict[int, MemCg] = {}
        #: first-pfn -> frame count, only for blocks of order > 0.
        self._owner_n: Dict[int, int] = {}
        #: The cgroup charged for allocations happening right now.
        self.current: MemCg = self.root
        #: Reentrancy latch: reclaim/OOM work may itself allocate and
        #: free frames; those charges are recorded but never recurse
        #: into another pressure slow path.
        self._in_pressure = False
        #: Audit trail of kills: (victim pid, victim cg, offending cg).
        self.kills: List[Dict[str, object]] = []
        #: The pid whose syscall/access is in flight right now.
        self._current_pid = -1
        #: Pids marked for death while they were the running process:
        #: killing them mid-fault would tear the space down under the
        #: fault handler, so the reaper waits for the next safe point.
        self._doomed: Set[int] = set()

    # ------------------------------------------------------------------
    # Hierarchy management (control plane, cold)
    # ------------------------------------------------------------------
    def cgroup(
        self,
        name: str,
        parent: Union[MemCg, str, None] = None,
        high: Optional[int] = None,
        max_frames: Optional[int] = None,
        oom_policy: str = "largest_rss",
        oom_priority: int = 0,
    ) -> MemCg:
        """Create (and register) a cgroup under ``parent`` (default root)."""
        if name in self._cgs:
            raise CgroupError(f"cgroup {name!r} already exists")
        parent_cg = self._resolve(parent) if parent is not None else self.root
        cg = MemCg(
            name,
            parent=parent_cg,
            high=high,
            max_frames=max_frames,
            oom_policy=oom_policy,
            oom_priority=oom_priority,
            lru=LruLists(self._frame_table),
        )
        self._cgs[name] = cg
        return cg

    def lookup(self, name: str) -> MemCg:
        """The registered cgroup called ``name``."""
        try:
            return self._cgs[name]
        except KeyError:
            raise CgroupError(f"no cgroup named {name!r}") from None

    def _resolve(self, cg: Union[MemCg, str]) -> MemCg:
        return cg if isinstance(cg, MemCg) else self.lookup(cg)

    def attach(self, process: "Process", cg: Union[MemCg, str]) -> MemCg:
        """Bind ``process`` (and its future allocations) to ``cg``.

        An LRU-tracking process's future faults land on ``cg``'s lists.
        Pages it already has stay on the old cgroup's lists, just as
        cgroup v2 leaves existing charges with the old cgroup.
        """
        node = self._resolve(cg)
        previous = self._cg_of_pid.get(process.pid)
        if previous is not None:
            previous.pids.discard(process.pid)
        node.pids.add(process.pid)
        self._cg_of_pid[process.pid] = node
        if process.space.lru is not None:
            process.space.lru = node.lru
        return node

    def detach(self, pid: int) -> None:
        """Forget ``pid`` (exit/kill); its charges stay until freed."""
        cg = self._cg_of_pid.pop(pid, None)
        if cg is not None:
            cg.pids.discard(pid)

    def cgroup_of(self, pid: int) -> Optional[MemCg]:
        """The cgroup ``pid`` is attached to, if any."""
        return self._cg_of_pid.get(pid)

    # ------------------------------------------------------------------
    # Hot hooks (reached through ``counters.qos``)
    # ------------------------------------------------------------------
    @o1(note="one dict probe, one attribute store, one empty-set test")
    @allocfree(note="dict probe and attribute store only")
    def enter_pid(self, pid: int) -> None:
        """Syscall/access entry: allocations now bill ``pid``'s cgroup.

        This is also the OOM safe point: a process the killer doomed
        while it was mid-operation dies here, before any new work starts
        (SIGKILL delivered on return to userspace).
        """
        self._current_pid = pid
        cg = self._cg_of_pid.get(pid)
        self.current = self.root if cg is None else cg
        if self._doomed and pid in self._doomed:
            self._reap_doomed(pid)

    @o1(note="owner-map store plus a depth-capped lineage charge")
    def on_frames_alloc(self, pfn: int, nframes: int) -> None:
        """One DRAM block left the buddy allocator: charge it."""
        cg = self.current
        self._owner[pfn] = cg
        if nframes != 1:
            self._owner_n[pfn] = nframes
        max_breach, high_breach = cg.charge(nframes)
        if max_breach is not None or high_breach is not None:
            # o1: allow(flow-bounded) -- pressure slow path: bounded-batch reclaim, throttle, or OOM
            self._on_breach(max_breach, high_breach)

    @o1(note="owner-map pop plus a depth-capped lineage uncharge")
    @allocfree(note="dict pops and integer subtracts")
    def on_frames_free(self, pfn: int) -> None:
        """One DRAM block returned to the buddy allocator: uncharge."""
        cg = self._owner.pop(pfn, None)
        if cg is None:
            return  # allocated before arming; never charged
        count = self._owner_n.pop(pfn, None)
        cg.uncharge(1 if count is None else count)

    @o1(note="one owner-map transfer plus two lineage walks")
    def on_frame_pooled(self, pfn: int) -> None:
        """A frame entered the zero pool: park its charge on root."""
        self._transfer(pfn, self.root)

    @o1(note="one owner-map transfer plus two lineage walks")
    def on_frame_claimed(self, pfn: int) -> None:
        """A pooled frame was taken: bill the taker, not the refiller."""
        self._transfer(pfn, self.current)

    @o1(note="uncharge one lineage, charge another; both depth-capped")
    def _transfer(self, pfn: int, to: MemCg) -> None:
        owner = self._owner.get(pfn)
        if owner is to:
            return
        if owner is not None:
            owner.uncharge(1)
        self._owner[pfn] = to
        max_breach, high_breach = to.charge(1)
        if max_breach is not None or high_breach is not None:
            # o1: allow(flow-bounded) -- pressure slow path: bounded-batch reclaim, throttle, or OOM
            self._on_breach(max_breach, high_breach)

    @o1(note="depth-capped lineage add on the kmem side ledger")
    @allocfree(note="integer adds on preexisting nodes")
    def on_slab_grow(self, nframes: int) -> None:
        """A slab cache grew: record kernel-memory attribution."""
        # o1: allow(flow-bounded) -- lineage length is capped at MAX_DEPTH
        for node in self.current.lineage:
            node.kmem_frames += nframes

    @o1(note="depth-capped lineage subtract on the kmem side ledger")
    @allocfree(note="integer subtracts on preexisting nodes")
    def on_slab_reap(self, nframes: int) -> None:
        """A slab was reaped: release kernel-memory attribution."""
        # o1: allow(flow-bounded) -- lineage length is capped at MAX_DEPTH
        for node in self.current.lineage:
            kmem = node.kmem_frames - nframes
            node.kmem_frames = kmem if kmem > 0 else 0

    @o1(note="depth-capped lineage add on the NVM side ledger")
    @allocfree(note="integer adds on preexisting nodes")
    def on_nvm_alloc(self, nblocks: int) -> None:
        """A PMFS extent was allocated in this tenant's context."""
        # o1: allow(flow-bounded) -- lineage length is capped at MAX_DEPTH
        for node in self.current.lineage:
            node.nvm_blocks += nblocks

    @o1(note="depth-capped lineage subtract on the NVM side ledger")
    @allocfree(note="integer subtracts on preexisting nodes")
    def on_nvm_free(self, nblocks: int) -> None:
        """A PMFS extent was freed in this tenant's context."""
        # o1: allow(flow-bounded) -- lineage length is capped at MAX_DEPTH
        for node in self.current.lineage:
            blocks = node.nvm_blocks - nblocks
            node.nvm_blocks = blocks if blocks > 0 else 0

    # ------------------------------------------------------------------
    # Pressure slow paths
    # ------------------------------------------------------------------
    @complexity("n", note="bounded reclaim/throttle/OOM; never on the within-limit path")
    def _on_breach(
        self, max_breach: Optional[MemCg], high_breach: Optional[MemCg]
    ) -> None:
        if self._in_pressure:
            return  # reclaim/OOM work never recurses into itself
        self._in_pressure = True
        try:
            if max_breach is not None:
                self._handle_max(max_breach)
            elif high_breach is not None:
                self._handle_high(high_breach)
        finally:
            self._in_pressure = False

    @complexity("n", note="one bounded reclaim batch plus one throttle stall")
    def _handle_high(self, cg: MemCg) -> None:
        """Soft-limit breach: reclaim a bounded batch, then throttle."""
        self._counters.bump("qos_watermark_high")
        cg.events["high"] += 1
        self.reclaim_batch(cg)
        if cg.over_high:
            self._throttle(cg)

    @complexity("n", note="config-bounded reclaim retries, then per-victim OOM kills")
    def _handle_max(self, cg: MemCg) -> None:
        """Hard-limit breach: bounded reclaim retries, then OOM kills."""
        self._counters.bump("qos_watermark_max")
        cg.events["max"] += 1
        self._reap_parked()
        # o1: allow(flow-bounded) -- retry count is a small config constant
        for _attempt in range(self.config.reclaim_retries):
            self.reclaim_batch(cg)
            if not cg.over_max:
                return
        # o1: allow(flow-bounded) -- bounded by live processes in the cgroup; each pass kills one
        while cg.over_max:
            outcome = self._oom_kill(cg)
            if outcome == "killed":
                continue
            if outcome == "none":
                self._counters.bump("qos_oom_victimless")
            # "deferred": the running process is doomed; its allocation
            # proceeds from reserves and it dies at the next safe point.
            break

    @complexity("n", note="n = the target subtree's resident pages, never other tenants'")
    def reclaim_batch(self, cg: MemCg) -> int:
        """One direct-reclaim batch against ``cg``'s own pages.

        The clock hand runs over ``cg``'s LRU lists, then its
        descendants', and the lists share one budget of
        ``4 * reclaim_batch`` inactive-list pops, so a batch never scans
        another tenant's page.  The budget does not cover aging: a pass
        that refills an empty inactive list moves that cgroup's whole
        active list.  The bound is therefore the target subtree's own
        resident pages, however much memory other tenants hold — the
        ``qos.reclaim_batch.neighbours`` fitter operation pins that.
        """
        chaos = self._counters.chaos
        if chaos is not None and chaos.hit("qos.reclaim") == "error":
            # Injected transient failure: skip this pass; the throttle
            # (or the next breach) provides the backpressure instead.
            self._counters.bump("qos_reclaim_error")
            return 0
        started = self._clock.now
        scanned_before = self._counters.get("reclaim_scanned")
        batch = self.config.reclaim_batch
        budget = 4 * batch
        freed = 0
        try:
            # o1: allow(flow-bounded) -- the subtree's lists share one pop budget; aging moves only the subtree's own pages, the declared n
            for node in cg.walk():
                reclaimer = ClockReclaimer(
                    node.lru, self._frame_table, self._counters
                )
                freed += reclaimer.reclaim(batch - freed, max_scan=budget)
                budget -= reclaimer.scanned
                if freed >= batch or budget <= 0:
                    break
        except OutOfMemoryError:
            # Swap device full: nothing more to writeback this pass.
            self._counters.bump("qos_reclaim_error")
        self._counters.bump("qos_reclaim_batch")
        cg.events["reclaim"] += 1
        cg.events["scanned"] += (
            self._counters.get("reclaim_scanned") - scanned_before
        )
        cg.events["evicted"] += freed
        stalled = self._clock.now - started
        if stalled > 0:
            cg.psi.record(self._clock.now, stalled, full=False)
            self._counters.observe("qos_stall_some_ns", stalled)
        return freed

    def _throttle(self, cg: MemCg) -> None:
        """Clock-charged linear-backoff stall (backpressure, not failure)."""
        cg.throttle_streak += 1
        stall = min(
            self.config.throttle_cap_ns,
            self.config.throttle_base_ns * cg.throttle_streak,
        )
        self._clock.advance(stall)
        cg.psi.record(self._clock.now, stall, full=True)
        cg.events["throttle"] += 1
        self._counters.bump("qos_throttle_stall")
        self._counters.observe("qos_stall_full_ns", stall)

    @complexity("n", note="candidate sweep over the subtree; OOM slow path")
    def _oom_kill(self, cg: MemCg) -> str:
        """Kill one victim inside ``cg``'s subtree.

        Returns ``"killed"`` (victim torn down synchronously),
        ``"deferred"`` (the only victim is the process running right now;
        it is doomed and dies at its next syscall/access entry), or
        ``"none"`` (no live candidates left).
        """
        chaos = self._counters.chaos
        if chaos is not None:
            chaos.hit("qos.oom_kill")
        processes = self._kernel.processes
        candidates: List["Process"] = []
        # o1: allow(flow-bounded) -- one sweep iterating the single subtree_pids result, the declared n
        for pid in cg.subtree_pids():
            process = processes.get(pid)
            if process is not None and process.alive and pid not in self._doomed:
                candidates.append(process)
        if not candidates:
            return "none"
        policy = OOM_POLICIES[cg.oom_policy]
        victim = policy(candidates, self.cgroup_of)
        if victim.pid == self._current_pid:
            # Never tear down the process whose fault/syscall is in
            # flight: prefer another candidate, else doom it for the
            # reaper at the next safe point (TIF_MEMDIE semantics).
            others = [p for p in candidates if p.pid != victim.pid]
            if others:
                victim = policy(others, self.cgroup_of)
            else:
                self._doomed.add(victim.pid)
                self._record_kill(victim, cg, deferred=True)
                return "deferred"
        self._kill_now(victim, cg)
        return "killed"

    def _kill_now(self, victim: "Process", cg: MemCg) -> None:
        """Tear ``victim`` down through the standard exit path.

        The teardown releases every frame, which flows back through the
        free hooks and uncharges the lineage — FrameSan's leak census
        stays clean.
        """
        self._record_kill(victim, cg, deferred=False)
        # o1: allow(flow-bounded) -- one-time teardown of the killed process's mappings
        victim.exit()
        self._kernel.processes.pop(victim.pid, None)
        self.detach(victim.pid)

    def _record_kill(self, victim: "Process", cg: MemCg, deferred: bool) -> None:
        victim_cg = self._cg_of_pid.get(victim.pid)
        self.kills.append(
            {
                "pid": victim.pid,
                "name": victim.name,
                "cgroup": victim_cg.name if victim_cg is not None else None,
                "offending": cg.name,
                "policy": cg.oom_policy,
                "deferred": deferred,
            }
        )
        cg.events["oom_kill"] += 1
        self._counters.bump("qos_oom_kill")
        tracer = self._kernel.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant(
                "qos_oom_kill",
                "kernel",
                pid=victim.pid,
                args={"cgroup": cg.name, "deferred": deferred},
            )

    def _reap_parked(self) -> None:
        """oom_reaper: tear down doomed processes that are not running.

        A doomed process normally dies at its own next safe point, but if
        the scheduler never runs it again its memory would stay parked;
        under renewed ``max`` pressure the reaper claims it here instead
        (the kill was already audited when it was doomed).
        """
        # o1: allow(flow-bounded) -- doomed set is bounded by deferred kills, drained here
        for pid in [p for p in self._doomed if p != self._current_pid]:
            self._doomed.discard(pid)
            victim = self._kernel.processes.get(pid)
            if victim is not None and victim.alive:
                victim.exit()
                self._kernel.processes.pop(pid, None)
            self.detach(pid)

    def _reap_doomed(self, pid: int) -> None:
        """Safe-point reaper: the doomed caller dies before doing work."""
        self._doomed.discard(pid)
        victim = self._kernel.processes.get(pid)
        if victim is not None and victim.alive:
            victim.exit()
            self._kernel.processes.pop(pid, None)
        self.detach(pid)
        raise OomKilledError(
            f"pid {pid} killed by the QoS OOM killer (limit breach)"
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """Machine-readable controller state for the CLI's ``--json``."""
        now = self._clock.now
        return {
            "cgroups": [
                cg.snapshot(now) for _, cg in sorted(self._cgs.items())
            ],
            "kills": list(self.kills),
            "tracked_blocks": len(self._owner),
        }

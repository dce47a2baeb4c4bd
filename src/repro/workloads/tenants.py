"""Multi-tenant memory-pressure workload for the QoS controller.

Open-loop arrivals: every tenant's requests arrive on a fixed simulated
schedule whether or not the machine has kept up, so queueing delay and
throttle stalls land in the latency distribution instead of quietly
slowing the generator down (the coordinated-omission trap).  Each tenant
runs in its own memory cgroup sized so the fleet oversubscribes DRAM —
the well-behaved majority thrashes against its ``high`` watermark
(bounded reclaim + throttle backpressure) while a few *noisy* tenants
leak unreclaimable memory past ``max`` and must die by OOM kill without
collateral damage outside their cgroup.

Everything is deterministic given ``seed``: arrivals, access patterns
and limits come from seeded generators, and the simulated clock is the
only notion of time.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import OomKilledError
from repro.kernel.kernel import Kernel, MachineConfig
from repro.kernel.process import Process
from repro.obs.metrics import LatencyHistogram
from repro.units import MIB, PAGE_SIZE
from repro.vm.vma import MapFlags

#: Mean simulated inter-arrival time of one tenant's requests.
_PERIOD_NS = 2_000_000


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's footprint, limits and behavior."""

    name: str
    working_set_pages: int
    high: int
    max_frames: int
    period_ns: int
    #: Noisy tenants skip LRU tracking, so nothing of theirs is
    #: reclaimable: they must breach ``max`` and be OOM-killed.
    noisy: bool = False


@dataclass
class TenantResult:
    """What one tenant experienced."""

    spec: TenantSpec
    requests_done: int = 0
    requests_total: int = 0
    killed: bool = False
    latency: LatencyHistogram = field(
        default_factory=lambda: LatencyHistogram("tenant_request_ns")
    )

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.spec.name,
            "noisy": self.spec.noisy,
            "requests_done": self.requests_done,
            "requests_total": self.requests_total,
            "killed": self.killed,
            "p50_ns": self.latency.percentile(50),
            "p99_ns": self.latency.percentile(99),
            "p999_ns": self.latency.percentile(99.9),
        }


@dataclass
class TenantReport:
    """Fleet-level outcome of one :func:`run_tenants` run."""

    seed: int
    dram_frames: int
    oversubscribe: float
    results: List[TenantResult]
    kills: List[Dict[str, object]]
    qos_report: Dict[str, object]
    counters: Dict[str, int]

    def problems(self) -> List[str]:
        """Robustness violations; empty means the run is acceptable."""
        problems: List[str] = []
        for kill in self.kills:
            if kill["cgroup"] != kill["offending"]:
                problems.append(
                    f"OOM kill escaped its cgroup: victim pid {kill['pid']} "
                    f"in {kill['cgroup']!r}, offender {kill['offending']!r}"
                )
        for result in self.results:
            if result.spec.noisy:
                if not result.killed and result.requests_done < result.requests_total:
                    problems.append(
                        f"noisy tenant {result.spec.name} neither finished "
                        "nor was OOM-killed"
                    )
            elif result.killed:
                problems.append(
                    f"well-behaved tenant {result.spec.name} was OOM-killed"
                )
            elif result.requests_done != result.requests_total:
                problems.append(
                    f"tenant {result.spec.name} stalled at "
                    f"{result.requests_done}/{result.requests_total} requests"
                )
        if self.counters.get("qos_throttle_stall", 0) == 0:
            problems.append(
                "oversubscribed fleet never throttled: backpressure is dead"
            )
        return problems

    def ok(self) -> bool:
        return not self.problems()

    def to_json(self) -> Dict[str, object]:
        return {
            "version": 1,
            "tool": "repro-o1 qos",
            "seed": self.seed,
            "dram_frames": self.dram_frames,
            "oversubscribe": self.oversubscribe,
            "tenants": [r.snapshot() for r in self.results],
            "kills": self.kills,
            "qos": self.qos_report,
            "counters": self.counters,
            "problems": self.problems(),
        }

    def summary(self) -> str:
        done = sum(r.requests_done for r in self.results)
        total = sum(r.requests_total for r in self.results)
        killed = [r.spec.name for r in self.results if r.killed]
        lines = [
            f"tenants             : {len(self.results)} "
            f"({sum(1 for r in self.results if r.spec.noisy)} noisy)",
            f"oversubscription    : {self.oversubscribe:.2f}x of "
            f"{self.dram_frames} DRAM frames",
            f"requests completed  : {done}/{total}",
            f"reclaim batches     : {self.counters.get('qos_reclaim_batch', 0)}",
            f"throttle stalls     : {self.counters.get('qos_throttle_stall', 0)}",
            f"oom kills           : {len(self.kills)} ({', '.join(killed) or '-'})",
        ]
        worst = max(
            (r for r in self.results if r.latency.count),
            key=lambda r: r.latency.percentile(99.9),
            default=None,
        )
        if worst is not None:
            lines.append(
                f"worst tenant p99.9  : {worst.spec.name} "
                f"{worst.latency.percentile(99.9)} ns"
            )
        for problem in self.problems():
            lines.append(f"PROBLEM {problem}")
        return "\n".join(lines)


def make_specs(
    tenants: int, dram_frames: int, oversubscribe: float, seed: int
) -> List[TenantSpec]:
    """Size a fleet: working sets oversubscribe DRAM, limits do not.

    The sum of ``max`` watermarks stays near 70% of DRAM so global
    exhaustion never races the per-cgroup policy; the sum of working
    sets is ``oversubscribe`` times DRAM, so tenants must cycle through
    swap to make progress.
    """
    if tenants < 2:
        raise ValueError(f"need at least 2 tenants, got {tenants}")
    rng = random.Random(seed)
    working_set = max(8, int(dram_frames * oversubscribe) // tenants)
    max_frames = max(6, (dram_frames * 7 // 10) // tenants)
    high = max(4, max_frames * 2 // 3)
    noisy_count = max(1, tenants // 16)
    specs: List[TenantSpec] = []
    for i in range(tenants):
        noisy = i < noisy_count
        specs.append(
            TenantSpec(
                name=f"{'noisy' if noisy else 'tenant'}-{i:03d}",
                working_set_pages=working_set,
                # Noisy limits are tighter: they leak, they die sooner.
                high=max(3, high // 2) if noisy else high,
                max_frames=max(4, max_frames // 2) if noisy else max_frames,
                period_ns=_PERIOD_NS + rng.randrange(-_PERIOD_NS // 4, _PERIOD_NS // 4),
                noisy=noisy,
            )
        )
    return specs


def run_tenants(
    tenants: int = 64,
    seed: int = 0,
    requests_per_tenant: Optional[int] = None,
    request_pages: int = 16,
    oversubscribe: float = 2.0,
    dram_bytes: int = 64 * MIB,
    kernel: Optional[Kernel] = None,
) -> TenantReport:
    """Drive an oversubscribed tenant fleet to completion.

    Requests slide a window across the tenant's working set (with random
    revisits behind it), so by default (``requests_per_tenant=None``)
    each tenant sweeps ~1.5x its working set — far past its watermarks —
    and swapped-out pages get faulted back in as major faults.

    Pass ``kernel`` to run on a pre-built machine (e.g. with sanitizers
    or chaos armed); it must have swap, and QoS is armed here if the
    caller has not already done so.  OOM kills raised at a victim's next
    entry (:class:`~repro.errors.OomKilledError`) are the one *handled*
    fault; anything else propagates to the caller as a genuine bug.
    """
    if kernel is None:
        frames = dram_bytes // PAGE_SIZE
        kernel = Kernel(
            MachineConfig(dram_bytes=dram_bytes, swap_pages=4 * frames)
        )
    qos = kernel.counters.qos
    if qos is None:
        qos = kernel.arm_qos()
    dram_frames = kernel.dram_buddy.region.frame_count
    specs = make_specs(tenants, dram_frames, oversubscribe, seed)
    if requests_per_tenant is None:
        sweep = 3 * specs[0].working_set_pages // 2
        requests_per_tenant = max(6, -(-sweep // request_pages))

    processes: List[Process] = []
    results: List[TenantResult] = []
    rngs: List[random.Random] = []
    vas: List[int] = []
    for spec in specs:
        cg = qos.cgroup(
            spec.name, high=spec.high, max_frames=spec.max_frames
        )
        process = kernel.spawn(
            spec.name, track_lru=not spec.noisy, cgroup=cg
        )
        va = kernel.syscalls(process).mmap(
            spec.working_set_pages * PAGE_SIZE, flags=MapFlags.PRIVATE
        )
        processes.append(process)
        results.append(
            TenantResult(spec=spec, requests_total=requests_per_tenant)
        )
        rngs.append(random.Random(seed * 10_007 + len(rngs)))
        vas.append(va)

    # Open-loop schedule: (arrival_ns, tiebreak, tenant index).
    queue: List[Tuple[int, int, int]] = []
    seq = 0
    for idx, spec in enumerate(specs):
        heapq.heappush(queue, (spec.period_ns, seq, idx))
        seq += 1

    clock = kernel.clock
    while queue:
        arrival, _, idx = heapq.heappop(queue)
        process, result = processes[idx], results[idx]
        if result.killed or not process.alive:
            # Reaped while parked (oom_reaper path): record and stop.
            result.killed = True
            continue
        if clock.now < arrival:
            clock.advance(arrival - clock.now)
        spec, rng, va = specs[idx], rngs[idx], vas[idx]
        base = (result.requests_done * request_pages) % spec.working_set_pages
        touched = min(
            spec.working_set_pages,
            (result.requests_done + 1) * request_pages,
        )
        try:
            for j in range(request_pages):
                if rng.randrange(2):
                    # Advance the working window: new footprint.
                    page = (base + j) % spec.working_set_pages
                else:
                    # Revisit earlier pages: major faults once reclaim
                    # has pushed them to swap.
                    page = rng.randrange(touched)
                kernel.access(
                    process,
                    va + page * PAGE_SIZE,
                    write=rng.randrange(4) != 0,
                )
        except OomKilledError:
            result.killed = True
            continue
        result.requests_done += 1
        result.latency.observe(clock.now - arrival)
        if result.requests_done < result.requests_total:
            heapq.heappush(
                queue, (arrival + spec.period_ns, seq, idx)
            )
            seq += 1

    counters = {
        name: value
        for name, value in kernel.counters.snapshot().items()
        if name.startswith(("qos_", "swap_", "reclaim_", "vm_"))
    }
    return TenantReport(
        seed=seed,
        dram_frames=dram_frames,
        oversubscribe=oversubscribe,
        results=results,
        kills=list(qos.kills),
        qos_report=qos.report(),
        counters=counters,
    )

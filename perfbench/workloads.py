"""The benchmark's three seeded workloads.

Each workload builds a fresh machine in :meth:`setup` (machine, inputs,
pre-fill, warm-up), runs a fixed amount of work in :meth:`run` while
timing every op, and afterwards reports what its oracle found wrong in
:meth:`problems`.  All inputs come from ``random.Random(seed)``, so one
seed gives the same simulated run every time: the fingerprint (simulated
nanoseconds of the timed phase plus a digest of the counters) must repeat
exactly, traced or not.

``ROUNDS`` is how many fresh instances an untraced run measures; each op
is scored by its best time over them.  The counts are sized so that on
an idle x86-64 core a run of ``file_churn`` takes about 35 s, one of
``tenant_fleet`` about 55 s and one of ``access_stream`` about 20 s.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter_ns
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import OomKilledError
from repro.kernel.kernel import Kernel, MachineConfig
from repro.units import CACHE_LINE, MIB, PAGE_SIZE
from repro.vm.vma import MapFlags
from repro.workloads.tenants import TenantReport, TenantResult, make_specs


class AccessStream:
    """Hot/cold loads and stores over one pre-populated anonymous region.

    The region is 4x the 4 KiB TLB reach (1536 entries); 90% of accesses
    go to a hot tenth that fits in the TLB and 25% are stores.  Closed
    loop: the next access issues when the previous one returns.  The
    timed phase takes no faults and makes no syscalls.
    """

    name = "access_stream"
    op = "256-access block"
    REGION_PAGES = 6144
    HOT_PAGES = REGION_PAGES // 10
    BLOCKS = 512
    BLOCK_SIZE = 256
    ROUNDS = 10

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.accesses = self.BLOCKS * self.BLOCK_SIZE
        self.attempted = self.BLOCKS
        self.failed = 0

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.kernel = kernel = Kernel(MachineConfig())
        self.process = process = kernel.spawn("stream")
        base = kernel.syscalls(process).mmap(
            self.REGION_PAGES * PAGE_SIZE,
            flags=MapFlags.PRIVATE | MapFlags.POPULATE,
        )
        hot, cold = self.HOT_PAGES, self.REGION_PAGES - self.HOT_PAGES
        lines = PAGE_SIZE // CACHE_LINE
        plan = [
            [
                (
                    rng.randrange(hot) if rng.random() < 0.9 else hot + rng.randrange(cold),
                    rng.randrange(lines) * CACHE_LINE,
                    rng.random() < 0.25,
                )
                for _ in range(self.BLOCK_SIZE)
            ]
            for _ in range(self.BLOCKS)
        ]
        # Warm-up: one load per page records where it lives, then one
        # pass over the hot set leaves it in the TLB.
        access = kernel.access
        frames = [access(process, base + page * PAGE_SIZE) for page in range(self.REGION_PAGES)]
        for page in range(hot):
            access(process, base + page * PAGE_SIZE)
        self.stream = [
            [(base + page * PAGE_SIZE + offset, write) for page, offset, write in block]
            for block in plan
        ]
        self.expected = [
            [frames[page] + offset for page, offset, _write in block] for block in plan
        ]

    def run(self) -> List[int]:
        access = self.kernel.access
        process = self.process
        op_ns = []
        self.paddrs = []
        for block in self.stream:
            out = []
            start = perf_counter_ns()
            for vaddr, write in block:
                out.append(access(process, vaddr, write))
            op_ns.append(perf_counter_ns() - start)
            self.paddrs.append(out)
        return op_ns

    def problems(self, delta: Dict[str, int]) -> List[str]:
        found = []
        if delta.get("fault_trap", 0):
            found.append(f"{delta['fault_trap']} faults in the timed phase")
        wrong = sum(
            got != want
            for block, expected in zip(self.paddrs, self.expected)
            for got, want in zip(block, expected)
        )
        if wrong:
            found.append(f"{wrong} accesses returned another physical address than warm-up")
        return found

    def outcome(self) -> Dict[str, object]:
        return {}


class _Churn(NamedTuple):
    """One file_churn iteration's inputs."""

    victim: int
    pages: int
    #: (byte offset, is a store) of each DAX access to the new file.
    touches: List[Tuple[int, bool]]
    offset: int
    data: bytes
    #: Page of the anonymous region the parent stores to after a fork,
    #: or None on iterations that do not fork.
    cow_page: Optional[int]


class FileChurn:
    """Unlink-and-recreate churn on a 2/3-full, fragmented PMFS.

    Set-up fills a 128 MiB NVM region with files of 1-63 pages, unlinks
    random ones down to 65% full (free space starts as file-sized holes)
    and runs 1024 untimed iterations so next-fit allocation reaches its
    steady state.  Each iteration unlinks a random live file and creates
    one of 1-63 pages (a journaled extent allocation), maps it shared,
    touches four pages (DAX minor faults), does one ``pwrite`` and one
    ``pread`` whose content is checked, then unmaps and closes it.  Every
    16th iteration also maps 32 anonymous pages with MAP_POPULATE, forks,
    stores to one (a COW fault), lets the child exit and unmaps.  Closed
    loop.
    """

    name = "file_churn"
    op = "iteration"
    NVM_BYTES = 128 * MIB
    #: Fullness the churn holds the region at.  The bitmap scan's cost
    #: climbs steeply with it: at 3/4 the scan is a fifth of the run,
    #: but the tail latency then follows each seed's hole layout (p99
    #: spreads about 0.25-0.35 across seeds on an idle host); at 0.65
    #: it is about a fifteenth and p99 spreads under 0.05.
    FILL = 0.65
    WARMUP = 1024
    ITERATIONS = 2048
    ANON_PAGES = 32
    ROUNDS = 20

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = self.ITERATIONS
        self.failed = 0
        self.accesses = 0

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.kernel = kernel = Kernel(
            MachineConfig(dram_bytes=256 * MIB, nvm_bytes=self.NVM_BYTES)
        )
        self.process = kernel.spawn("churn")
        self.syscalls = syscalls = kernel.syscalls(self.process)
        self.pmfs = pmfs = kernel.pmfs
        total = kernel.nvm_allocator.total_blocks
        #: live slot -> (path, pages)
        self.live: List[Tuple[str, int]] = []
        used = 0
        while used + 63 <= total:
            pages = rng.randrange(1, 64)
            path = f"/f{len(self.live)}"
            syscalls.close(syscalls.open(pmfs, path, create=True, size=pages * PAGE_SIZE))
            self.live.append((path, pages))
            used += pages
        self.next_name = len(self.live)
        while used > total * self.FILL:
            path, pages = self.live.pop(rng.randrange(len(self.live)))
            syscalls.unlink(pmfs, path)
            used -= pages
        plan = [self._plan_one(rng, i) for i in range(self.WARMUP + self.ITERATIONS)]
        self.plan = plan[self.WARMUP:]
        self.accesses = sum(
            len(step.touches) + (step.cow_page is not None) for step in self.plan
        )
        self.bad_reads = 0
        for step in plan[: self.WARMUP]:
            self._iterate(step)

    def _plan_one(self, rng: random.Random, index: int) -> _Churn:
        pages = rng.randrange(1, 64)
        size = pages * PAGE_SIZE
        length = rng.randrange(1, 2 * PAGE_SIZE)
        return _Churn(
            victim=rng.randrange(len(self.live)),
            pages=pages,
            touches=[(rng.randrange(pages) * PAGE_SIZE, rng.random() < 0.5) for _ in range(4)],
            offset=rng.randrange(size - length) if size > length else 0,
            data=rng.randbytes(min(length, size)),
            cow_page=rng.randrange(self.ANON_PAGES) if index % 16 == 15 else None,
        )

    def _iterate(self, step: _Churn) -> None:
        kernel, process, syscalls, pmfs = self.kernel, self.process, self.syscalls, self.pmfs
        syscalls.unlink(pmfs, self.live[step.victim][0])
        path = f"/f{self.next_name}"
        self.next_name += 1
        self.live[step.victim] = (path, step.pages)
        length = step.pages * PAGE_SIZE
        fd = syscalls.open(pmfs, path, create=True, size=length)
        va = syscalls.mmap(length, flags=MapFlags.SHARED, fd=fd)
        for offset, write in step.touches:
            kernel.access(process, va + offset, write)
        syscalls.pwrite(fd, step.offset, step.data)
        if syscalls.pread(fd, step.offset, len(step.data)) != step.data:
            self.bad_reads += 1
        syscalls.munmap(va, length)
        syscalls.close(fd)
        if step.cow_page is not None:
            anon_length = self.ANON_PAGES * PAGE_SIZE
            anon = syscalls.mmap(anon_length, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
            child = syscalls.fork()
            kernel.access(process, anon + step.cow_page * PAGE_SIZE, True)
            child.exit()
            syscalls.munmap(anon, anon_length)

    def run(self) -> List[int]:
        op_ns = []
        for step in self.plan:
            start = perf_counter_ns()
            self._iterate(step)
            op_ns.append(perf_counter_ns() - start)
        return op_ns

    def problems(self, delta: Dict[str, int]) -> List[str]:
        found = []
        if self.bad_reads:
            found.append(f"{self.bad_reads} preads returned other bytes than were written")
        found.extend(self.pmfs.fsck())
        allocator = self.kernel.nvm_allocator
        live_blocks = sum(pages for _path, pages in self.live)
        if allocator.free_blocks != allocator.total_blocks - live_blocks:
            found.append(
                f"bitmap has {allocator.free_blocks} free blocks, expected "
                f"{allocator.total_blocks - live_blocks}"
            )
        return found

    def outcome(self) -> Dict[str, object]:
        return {"free_blocks": self.kernel.nvm_allocator.free_blocks}


class TenantFleet:
    """An oversubscribed fleet of memory cgroups under the QoS controller.

    Sixteen tenants' working sets oversubscribe 64 MiB of DRAM 2x with
    swap; specs come from :func:`repro.workloads.tenants.make_specs` and
    requests follow :func:`~repro.workloads.tenants.run_tenants` exactly,
    arriving open loop on the simulated clock.  The host runs each
    request when the previous one returns, timing it.
    """

    name = "tenant_fleet"
    op = "tenant request"
    TENANTS = 16
    #: Requests per tenant; enough to drive every tenant past its watermarks.
    REQUESTS = 128
    REQUEST_PAGES = 16
    OVERSUBSCRIBE = 2.0
    DRAM_BYTES = 64 * MIB
    ROUNDS = 12

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.accesses = 0
        self.attempted = 0
        self.failed = 0

    def setup(self) -> None:
        frames = self.DRAM_BYTES // PAGE_SIZE
        self.kernel = kernel = Kernel(
            MachineConfig(dram_bytes=self.DRAM_BYTES, swap_pages=4 * frames)
        )
        self.qos = qos = kernel.arm_qos()
        self.dram_frames = kernel.dram_buddy.region.frame_count
        specs = make_specs(self.TENANTS, self.dram_frames, self.OVERSUBSCRIBE, self.seed)
        self.processes = []
        self.results = []
        self.requests = []
        for idx, spec in enumerate(specs):
            cg = qos.cgroup(spec.name, high=spec.high, max_frames=spec.max_frames)
            process = kernel.spawn(spec.name, track_lru=not spec.noisy, cgroup=cg)
            va = kernel.syscalls(process).mmap(
                spec.working_set_pages * PAGE_SIZE, flags=MapFlags.PRIVATE
            )
            self.processes.append(process)
            self.results.append(TenantResult(spec=spec, requests_total=self.REQUESTS))
            self.requests.append(self._plan_tenant(spec, va, idx))

    def _plan_tenant(self, spec, va: int, idx: int) -> List[list]:
        """Every request's (vaddr, write) pairs, drawn as run_tenants draws them."""
        rng = random.Random(self.seed * 10_007 + idx)
        ws, rp = spec.working_set_pages, self.REQUEST_PAGES
        plan = []
        for done in range(self.REQUESTS):
            base = (done * rp) % ws
            touched = min(ws, (done + 1) * rp)
            request = []
            for j in range(rp):
                if rng.randrange(2):
                    page = (base + j) % ws
                else:
                    page = rng.randrange(touched)
                request.append((va + page * PAGE_SIZE, rng.randrange(4) != 0))
            plan.append(request)
        return plan

    def run(self) -> List[int]:
        kernel, clock = self.kernel, self.kernel.clock
        access = kernel.access
        # (arrival ns, tiebreak, tenant index), as run_tenants queues them.
        queue = [(r.spec.period_ns, idx, idx) for idx, r in enumerate(self.results)]
        heapq.heapify(queue)
        seq = len(queue)
        op_ns = []
        accesses = 0
        executed = [0] * len(self.results)
        while queue:
            arrival, _, idx = heapq.heappop(queue)
            process, result = self.processes[idx], self.results[idx]
            if result.killed or not process.alive:
                result.killed = True
                continue
            if clock.now < arrival:
                clock.advance(arrival - clock.now)
            request = self.requests[idx][result.requests_done]
            executed[idx] += 1
            issued = 0
            killed = False
            start = perf_counter_ns()
            try:
                for vaddr, write in request:
                    issued += 1
                    access(process, vaddr, write=write)
            except OomKilledError:
                killed = True
            op_ns.append(perf_counter_ns() - start)
            accesses += issued
            if killed:
                result.killed = True
                continue
            result.requests_done += 1
            result.latency.observe(clock.now - arrival)
            if result.requests_done < result.requests_total:
                heapq.heappush(queue, (arrival + result.spec.period_ns, seq, idx))
                seq += 1
        self.accesses = accesses
        # A noisy tenant's OOM kill is expected, so it attempted only the
        # requests it ran; a well-behaved tenant attempted all of them,
        # and every one it did not finish failed.
        self.attempted = sum(
            n if r.spec.noisy else r.requests_total
            for n, r in zip(executed, self.results)
        )
        self.failed = sum(
            r.requests_total - r.requests_done for r in self.results if not r.spec.noisy
        )
        return op_ns

    def report(self) -> TenantReport:
        """The run as :func:`~repro.workloads.tenants.run_tenants` reports it."""
        counters = {
            name: value
            for name, value in self.kernel.counters.snapshot().items()
            if name.startswith(("qos_", "swap_", "reclaim_", "vm_"))
        }
        return TenantReport(
            seed=self.seed,
            dram_frames=self.dram_frames,
            oversubscribe=self.OVERSUBSCRIBE,
            results=self.results,
            kills=list(self.qos.kills),
            qos_report=self.qos.report(),
            counters=counters,
        )

    def problems(self, delta: Dict[str, int]) -> List[str]:
        return self.report().problems()

    def outcome(self) -> Dict[str, object]:
        return {
            "requests_done": [r.requests_done for r in self.results],
            "killed": [r.spec.name for r in self.results if r.killed],
            "p99_ns": [r.latency.percentile(99) for r in self.results],
        }


WORKLOADS = {w.name: w for w in (AccessStream, FileChurn, TenantFleet)}

"""Tier-1 wall-clock microbenchmarks and the ``BENCH_tier1.json`` schema.

Where :mod:`repro.lint.ops` measures operations on the **simulated**
clock (is the model O(1)?), this registry measures the same hot
operations on the **wall** clock (how fast does the simulator itself
run?).  Both axes matter: the lint fitter keeps the model honest, this
suite keeps the implementation honest — its results are committed as a
``BENCH_tier1.json`` trajectory and gated in CI by
:mod:`repro.perf.compare`.

Each :class:`BenchOp` has a ``prepare()`` that builds a fresh small
machine (setup cost stays off the clock) and returns a zero-argument
callable invoked ``batch`` times per round; the per-op figure is the
median over rounds of ``elapsed / batch``.  Ops that consume state
(fresh pages to fault, regions to unmap) provision enough for a full
round inside ``prepare()``.

Because absolute wall time is machine-dependent, every run also measures
a fixed pure-Python **calibration loop**; the comparator scales baseline
figures by the calibration ratio before judging regressions, so a
committed baseline from one machine still gates on another.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.kernel.kernel import Kernel, MachineConfig
from repro.obs.metrics import MetricsRegistry
from repro.units import KIB, MIB, PAGE_SIZE

#: Schema identifier written into (and required from) every document.
SCHEMA = "repro.perf.bench/v1"
SCHEMA_VERSION = 1

#: Rounds per op: full trajectory runs vs the CI quick gate.
FULL_ROUNDS = 15
QUICK_ROUNDS = 5

#: Quick mode divides each op's batch by this (floor 1).
QUICK_BATCH_DIVISOR = 4


@dataclass(frozen=True)
class BenchOp:
    """One wall-clock microbenchmark over the simulator."""

    name: str
    #: Builds fresh state; returns the callable timed ``batch`` times.
    prepare: Callable[[], Callable[[], object]]
    #: Inner invocations per round (amortizes timer granularity).
    batch: int
    note: str = ""

    def batch_for(self, quick: bool) -> int:
        """The effective batch size for full vs quick runs."""
        return max(1, self.batch // QUICK_BATCH_DIVISOR) if quick else self.batch


@dataclass(frozen=True)
class OpResult:
    """Measured wall-clock figures for one op."""

    name: str
    median_ns: float
    ops_per_sec: float
    rounds: int
    batch: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "median_ns": self.median_ns,
            "ops_per_sec": self.ops_per_sec,
            "rounds": self.rounds,
            "batch": self.batch,
        }


def _machine(**overrides: object) -> Kernel:
    config = dict(
        dram_bytes=128 * MIB,
        nvm_bytes=256 * MIB,
        range_hardware=True,
        pmfs_extent_align_frames=512,
    )
    config.update(overrides)
    return Kernel(MachineConfig(**config))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Op preparers.  Each returns the closure timed `batch` times per round.
# ---------------------------------------------------------------------------
def _prep_access_tlb_hit() -> Callable[[], object]:
    from repro.vm.vma import MapFlags

    kernel = _machine()
    process = kernel.spawn("b")
    va = kernel.syscalls(process).mmap(
        PAGE_SIZE, flags=MapFlags.PRIVATE | MapFlags.POPULATE
    )
    kernel.access(process, va)  # warm: entry resident in the TLB
    return lambda: kernel.access(process, va)


def _prep_access_tlb_miss_walk() -> Callable[[], object]:
    from repro.vm.vma import MapFlags

    kernel = _machine()
    process = kernel.spawn("b")
    npages = 4096  # ~2.7x the 1536-entry 4 KiB TLB: sequential = all misses
    size = npages * PAGE_SIZE
    va = kernel.syscalls(process).mmap(
        size, flags=MapFlags.PRIVATE | MapFlags.POPULATE
    )
    kernel.access_range(process, va, size)  # warm page-table cache lines
    cursor = [0]

    def step() -> object:
        index = cursor[0]
        cursor[0] = (index + 1) % npages
        return kernel.access(process, va + index * PAGE_SIZE)

    return step


def _prep_access_fault_minor(round_budget: int) -> Callable[[], object]:
    kernel = _machine()
    process = kernel.spawn("b")
    va = kernel.syscalls(process).mmap(round_budget * PAGE_SIZE)
    cursor = [0]

    def step() -> object:
        index = cursor[0]
        cursor[0] = index + 1
        return kernel.access(process, va + index * PAGE_SIZE)

    return step


def _prep_access_cow_break(round_budget: int) -> Callable[[], object]:
    from repro.vm.vma import MapFlags

    kernel = _machine()
    parent = kernel.spawn("parent")
    sys_calls = kernel.syscalls(parent)
    # One fork-shared 2 MiB window per call, each holding 32 resident
    # pages (file_churn's anonymous region): every store breaks a share.
    window = 2 * MIB
    base = parent.space.pick_address(round_budget * window, window)
    regions = [
        sys_calls.mmap(
            32 * PAGE_SIZE,
            flags=MapFlags.PRIVATE | MapFlags.POPULATE,
            addr=base + index * window,
        )
        for index in range(round_budget)
    ]
    kernel.fork(parent)
    regions.reverse()

    def step() -> object:
        return kernel.access(parent, regions.pop(), write=True)

    return step


def _prep_mmap_anon() -> Callable[[], object]:
    kernel = _machine()
    sys_calls = kernel.syscalls(kernel.spawn("b"))
    return lambda: sys_calls.mmap(16 * PAGE_SIZE)


def _prep_mmap_populate() -> Callable[[], object]:
    from repro.vm.vma import MapFlags

    kernel = _machine()
    sys_calls = kernel.syscalls(kernel.spawn("b"))
    flags = MapFlags.PRIVATE | MapFlags.POPULATE
    return lambda: sys_calls.mmap(32 * PAGE_SIZE, flags=flags)


def _prep_munmap(round_budget: int) -> Callable[[], object]:
    kernel = _machine()
    process = kernel.spawn("b")
    sys_calls = kernel.syscalls(process)
    # One full bottom-level page-table window per region, partially
    # resident: the extent policy drops the whole subtree in one unlink
    # where the page policy probes all 512 slots.
    length = 512 * PAGE_SIZE
    regions = []
    for _ in range(round_budget):
        va = sys_calls.mmap(length)
        kernel.access_range(process, va, 8 * PAGE_SIZE, write=True)
        regions.append(va)
    regions.reverse()

    def step() -> object:
        va = regions.pop()
        sys_calls.munmap(va, length)
        return va

    return step


def _prep_fork() -> Callable[[], object]:
    from repro.vm.vma import MapFlags

    kernel = _machine()
    parent = kernel.spawn("parent")
    size = 8 * PAGE_SIZE
    va = kernel.syscalls(parent).mmap(
        size, flags=MapFlags.PRIVATE | MapFlags.POPULATE
    )
    kernel.access_range(parent, va, size)
    return lambda: kernel.fork(parent)


def _prep_pmfs_read() -> Callable[[], object]:
    kernel = _machine()
    assert kernel.pmfs is not None
    process = kernel.spawn("b")
    sys_calls = kernel.syscalls(process)
    fd = sys_calls.open(kernel.pmfs, "/bench", create=True, size=64 * KIB)
    return lambda: sys_calls.pread(fd, 0, PAGE_SIZE)


def _prep_pmfs_write() -> Callable[[], object]:
    kernel = _machine()
    assert kernel.pmfs is not None
    process = kernel.spawn("b")
    sys_calls = kernel.syscalls(process)
    fd = sys_calls.open(kernel.pmfs, "/bench", create=True, size=64 * KIB)
    payload = b"\xa5" * PAGE_SIZE
    return lambda: sys_calls.pwrite(fd, 0, payload)


def _prep_pmfs_journal_commit() -> Callable[[], object]:
    kernel = _machine()
    pmfs = kernel.pmfs
    assert pmfs is not None
    inode = pmfs.create("/bench", size=0)

    def txn() -> object:
        pmfs.allocate_blocks(inode, 1)  # one journaled alloc commit
        pmfs.shrink_blocks(inode, 0)  # one journaled shrink commit
        return inode

    return txn


def _prep_premap_attach() -> Callable[[], object]:
    from repro.core.o1.premap import PageTableCache

    kernel = _machine()
    assert kernel.pmfs is not None
    inode = kernel.pmfs.create("/bench", size=2 * MIB)
    ptcache = PageTableCache(
        kernel.config.page_table_levels,
        kernel.clock, kernel.costs, kernel.counters,
    )
    ptcache.premap(inode)
    space = kernel.spawn("b").space

    def attach_detach() -> object:
        attachment = ptcache.attach(space, inode)
        ptcache.detach(attachment)
        return attachment

    return attach_detach


def _prep_tlb_invalidate_range() -> Callable[[], object]:
    from repro.vm.vma import MapFlags

    kernel = _machine()
    process = kernel.spawn("b")
    size = 2 * MIB
    va = kernel.syscalls(process).mmap(
        size, flags=MapFlags.PRIVATE | MapFlags.POPULATE
    )
    asid = process.space.asid
    fill_pages = 8

    def step() -> object:
        for index in range(fill_pages):  # refill a few entries to drop
            kernel.access(process, va + index * PAGE_SIZE)
        return kernel.tlb.invalidate_range(va, size, asid=asid)

    return step


def _prep_buddy_free_many(round_budget: int) -> Callable[[], object]:
    kernel = _machine()
    buddy = kernel.dram_buddy
    chunk = 64
    batches = [
        [buddy.alloc(0) for _ in range(chunk)] for _ in range(round_budget)
    ]
    batches.reverse()

    def step() -> object:
        frames = batches.pop()
        buddy.free_many(frames)
        return frames

    return step


def _prep_fom_allocate_release() -> Callable[[], object]:
    from repro.core.fom.manager import FileOnlyMemory

    kernel = _machine()
    fom = FileOnlyMemory(kernel)
    process = kernel.spawn("b")

    def cycle() -> object:
        region = fom.allocate(process, 2 * MIB)
        fom.release(region)
        return region

    return cycle


def _prep_rangetrans_map_unmap() -> Callable[[], object]:
    from repro.core.rangetrans.manager import RangeMemory

    kernel = _machine()
    assert kernel.pmfs is not None
    inode = kernel.pmfs.create("/bench", size=2 * MIB)
    memory = RangeMemory(kernel)
    process = kernel.spawn("b")

    def cycle() -> object:
        mapping = memory.map_file(process, inode)
        memory.unmap(mapping)
        return mapping

    return cycle


def _prep_spawn_exit() -> Callable[[], object]:
    kernel = _machine()

    def cycle() -> object:
        process = kernel.spawn("b")
        process.exit()
        return process

    return cycle


def _prep_qos_reclaim_batch(round_budget: int) -> Callable[[], object]:
    from repro.vm.vma import MapFlags

    kernel = _machine(swap_pages=8192)
    qos = kernel.arm_qos()
    batch = qos.config.reclaim_batch
    pages = (round_budget + 1) * batch
    # The target's watermarks sit above its footprint: setup never breaches.
    target = qos.cgroup("target", high=2 * pages, max_frames=4 * pages)
    for cg, npages in ((qos.cgroup("neighbour"), 512), (target, pages)):
        process = kernel.spawn(cg.name, track_lru=True, cgroup=cg)
        va = kernel.syscalls(process).mmap(npages * PAGE_SIZE, flags=MapFlags.PRIVATE)
        kernel.access_range(process, va, npages * PAGE_SIZE, write=True)
    # Fresh pages are referenced: the first batches only promote them.
    # Once the hand has aged them, every batch evicts a full batch.
    while qos.reclaim_batch(target) < batch:
        pass
    return lambda: qos.reclaim_batch(target)


def _prep_reclaim_aging_pass(pages: int) -> Callable[[], object]:
    from repro.vm.reclaimd import ClockReclaimer

    kernel = _machine()
    process = kernel.spawn("b", track_lru=True)
    va = kernel.syscalls(process).mmap(pages * PAGE_SIZE)
    kernel.access_range(process, va, pages * PAGE_SIZE, write=True)
    lru = kernel.lru
    reclaimer = ClockReclaimer(lru, kernel.frame_table, kernel.counters)

    def step() -> object:
        # Every entry back on the active list, the page the last call
        # promoted at its tail: this call ages all of them, then pops one
        # page that is still referenced and promotes it, evicting nothing.
        lru.inactive.extend(lru.active)
        lru.active.clear()
        lru.active, lru.inactive = lru.inactive, lru.active
        return reclaimer.reclaim(1, max_scan=1)

    return step


def _prep_counters_bump() -> Callable[[], object]:
    counters = MetricsRegistry()
    counters.bump("tlb_hit")  # warm: the key exists, as on the hot path

    def step() -> object:
        counters.bump("tlb_hit")
        return counters.get("tlb_hit")

    return step


def _prep_walker_walk() -> Callable[[], object]:
    kernel = _machine()
    process = kernel.spawn("b")
    va = kernel.syscalls(process).mmap(PAGE_SIZE)
    kernel.access(process, va)  # fault in; warms the walk's cache lines
    walker, table = kernel.walker, process.space.page_table
    return lambda: walker.walk(table, va)


def _prep_qos_charge() -> Callable[[], object]:
    kernel = _machine()
    qos = kernel.arm_qos()
    # Watermarks far above the tenant's few frames: no breach, ever.
    tenant = qos.cgroup("tenant", high=4096, max_frames=8192)
    qos.enter_pid(kernel.spawn("tenant", cgroup=tenant).pid)
    buddy = kernel.dram_buddy
    first = buddy.alloc(0)
    buddy.alloc(0)  # first's buddy: keeps the freed block unmerged
    buddy.free(first)  # exact-order hit: each cycle reuses this frame

    def cycle() -> object:
        pfn = buddy.alloc(0)
        buddy.free(pfn)
        return pfn

    return cycle


def _prep_bitmap_find_clear_run() -> Callable[[], object]:
    import random

    from repro.mem.bitmap import Bitmap

    # file_churn's free space: 1-63-block files packed into 32,768
    # blocks, then random ones unlinked down to 2/3 full, so the holes
    # are file-sized and a next-fit search hops many runs per call.
    rng = random.Random(0)
    bitmap = Bitmap(32768)
    files = []
    start = 0
    while start + 63 <= bitmap.size:
        length = rng.randrange(1, 64)
        bitmap.set_range(start, length)
        files.append((start, length))
        start += length
    while bitmap.set_count > bitmap.size * 2 // 3:
        bitmap.clear_range(*files.pop(rng.randrange(len(files))))
    lengths = [rng.randrange(1, 64) for _ in range(1024)]
    cursor = [0, 0]  # [next length, next-fit hint]

    def step() -> object:
        index, hint = cursor
        length = lengths[index]
        found = bitmap.find_clear_run(length, hint)
        cursor[0] = (index + 1) % len(lengths)
        cursor[1] = found + length
        return found

    return step


def _prep_tlb_invalidate_small_range() -> Callable[[], object]:
    from repro.hw.tlb import Tlb, TlbEntry

    # Every 4 KiB set full of another space's entries; each call refills
    # four pages of a 63-page window (file_churn's largest unmap, with
    # its four touched pages) and drops the window, one VPN at a time.
    tlb = Tlb()
    for vpn in range(tlb.capacity(PAGE_SIZE)):
        tlb.insert(TlbEntry(vpn, vpn, PAGE_SIZE, True, 1))
    window = 63
    base_vpn = 1 << 20
    touched = [TlbEntry(base_vpn + page, page, PAGE_SIZE, True, 2) for page in (0, 9, 31, 62)]

    def step() -> object:
        for entry in touched:
            tlb.insert(entry)
        return tlb.invalidate_range(base_vpn * PAGE_SIZE, window * PAGE_SIZE, asid=2)

    return step


#: The tier-1 registry: every hot operation the lint fitter also covers,
#: measured on the wall clock.  Keep ``batch`` sized so one full round
#: lands in roughly 1-10 ms on a developer machine.
TIER1_OPS: List[BenchOp] = [
    BenchOp("access.tlb_hit", _prep_access_tlb_hit, 512,
            "resident 4 KiB page, TLB-warm: the floor of the access path"),
    BenchOp("access.tlb_miss_walk", _prep_access_tlb_miss_walk, 512,
            "sequential cycle over 4096 resident pages: every probe "
            "misses the 1536-entry TLB and walks"),
    BenchOp("access.fault_minor",
            lambda: _prep_access_fault_minor(256), 256,
            "first touch of a fresh anonymous page: trap + allocate + map"),
    BenchOp("access.cow_break", lambda: _prep_access_cow_break(32), 32,
            "parent's first store into a fork-shared 2 MiB window holding "
            "32 resident pages: window privatized, page copied"),
    BenchOp("syscall.mmap_anon", _prep_mmap_anon, 256,
            "16-page anonymous VMA insert, no populate"),
    BenchOp("syscall.mmap_populate", _prep_mmap_populate, 32,
            "32-page anonymous MAP_POPULATE into a fresh range"),
    BenchOp("syscall.munmap", lambda: _prep_munmap(128), 128,
            "teardown of a 2 MiB anonymous window with 8 resident pages "
            "(extent subtree drop)"),
    BenchOp("kernel.fork", _prep_fork, 16,
            "fork of a parent with 8 resident private pages "
            "(COW subtree share)"),
    BenchOp("pmfs.read", _prep_pmfs_read, 256,
            "4 KiB positioned read from a DAX PMFS file"),
    BenchOp("pmfs.write", _prep_pmfs_write, 256,
            "4 KiB positioned write to a DAX PMFS file"),
    BenchOp("pmfs.journal_commit", _prep_pmfs_journal_commit, 64,
            "one journaled block alloc + one journaled shrink (two "
            "commits) per iteration"),
    BenchOp("premap.attach", _prep_premap_attach, 128,
            "premapped 2 MiB window attach + detach"),
    BenchOp("tlb.invalidate_range", _prep_tlb_invalidate_range, 128,
            "8 TLB refills + one batched 2 MiB range invalidation"),
    BenchOp("mem.free_many", lambda: _prep_buddy_free_many(128), 128,
            "batched buddy free of 64 order-0 frames"),
    BenchOp("fom.allocate_release", _prep_fom_allocate_release, 64,
            "2 MiB file-only-memory allocate + release cycle"),
    BenchOp("rangetrans.map_unmap", _prep_rangetrans_map_unmap, 64,
            "single-extent range-translation map + unmap cycle"),
    BenchOp("kernel.spawn_exit", _prep_spawn_exit, 64,
            "process spawn (fresh page table + address space) + exit"),
    BenchOp("qos.reclaim_batch", lambda: _prep_qos_reclaim_batch(16), 16,
            "one direct-reclaim batch (32 evictions to swap) against a "
            "limited cgroup, with a neighbour cgroup's pages resident"),
    BenchOp("reclaim.aging_pass", lambda: _prep_reclaim_aging_pass(1024), 128,
            "clock reclaim that ages a 1,024-entry active list of "
            "referenced pages, then promotes one"),
    BenchOp("qos.charge", _prep_qos_charge, 256,
            "order-0 alloc + free billed to a limited tenant cgroup"),
    BenchOp("counters.bump", _prep_counters_bump, 16384,
            "one counter increment on an existing key"),
    BenchOp("walker.walk", _prep_walker_walk, 512,
            "warm 4-level walk of a resident 4 KiB page, no fault"),
    BenchOp("bitmap.find_clear_run", _prep_bitmap_find_clear_run, 256,
            "next-fit search for a 1-63-block run on a 32,768-block "
            "bitmap held 2/3 full with file-sized holes"),
    BenchOp("tlb.invalidate_range.small", _prep_tlb_invalidate_small_range, 256,
            "4 TLB refills + one 63-page range invalidation on a full TLB "
            "(per-VPN drops)"),
]


def ops_by_name(names: Optional[Sequence[str]] = None) -> List[BenchOp]:
    """The registry, optionally filtered to ``names`` (exact match)."""
    if not names:
        return list(TIER1_OPS)
    known = {op.name: op for op in TIER1_OPS}
    missing = [name for name in names if name not in known]
    if missing:
        raise KeyError(f"unknown bench ops {missing}; known: {sorted(known)}")
    return [known[name] for name in names]


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------
def run_op(
    op: BenchOp,
    rounds: int = FULL_ROUNDS,
    quick: bool = False,
    clock_ns: Callable[[], int] = time.perf_counter_ns,
) -> OpResult:
    """Measure one op: median over ``rounds`` of per-call wall ns."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    batch = op.batch_for(quick)
    samples: List[float] = []
    for _ in range(rounds):
        fn = op.prepare()
        start = clock_ns()
        for _ in range(batch):
            fn()
        elapsed = clock_ns() - start
        samples.append(elapsed / batch)
    median_ns = statistics.median(samples)
    ops_per_sec = 1e9 / median_ns if median_ns > 0 else 0.0
    return OpResult(
        name=op.name,
        median_ns=median_ns,
        ops_per_sec=ops_per_sec,
        rounds=rounds,
        batch=batch,
    )


def run_suite(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    rounds: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[OpResult]:
    """Run the registry (or the named subset) and return results."""
    effective_rounds = rounds or (QUICK_ROUNDS if quick else FULL_ROUNDS)
    results = []
    for op in ops_by_name(names):
        result = run_op(op, rounds=effective_rounds, quick=quick)
        if progress is not None:
            progress(
                f"{op.name:<24} {result.median_ns:>12,.0f} ns/op "
                f"({result.ops_per_sec:>12,.0f} ops/s, "
                f"{result.rounds} rounds x {result.batch})"
            )
        results.append(result)
    return results


# ---------------------------------------------------------------------------
# Calibration + environment fingerprint
# ---------------------------------------------------------------------------
def calibrate(
    rounds: int = 7, clock_ns: Callable[[], int] = time.perf_counter_ns
) -> float:
    """Median wall ns of a fixed pure-Python loop.

    The loop is deliberately allocation-free and branch-light so its
    speed tracks the interpreter + host CPU, the same substrate the
    simulator runs on; the comparator uses the baseline/current ratio to
    normalize absolute figures across machines.
    """
    samples = []
    for _ in range(rounds):
        acc = 0
        start = clock_ns()
        for i in range(50_000):
            acc = (acc + i) ^ (i << 1)
        samples.append(clock_ns() - start)
    return float(statistics.median(samples))


def env_fingerprint(calibration_ns: Optional[float] = None) -> Dict[str, object]:
    """The environment block stamped into every bench document."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "calibration_ns": (
            calibrate() if calibration_ns is None else calibration_ns
        ),
    }


# ---------------------------------------------------------------------------
# BENCH_tier1.json document
# ---------------------------------------------------------------------------
def build_document(
    results: Sequence[OpResult],
    env: Optional[Dict[str, object]] = None,
    mode: str = "full",
) -> Dict[str, object]:
    """Assemble the ``BENCH_tier1.json`` document for ``results``."""
    return {
        "version": SCHEMA_VERSION,
        "schema": SCHEMA,
        "mode": mode,
        "env": env if env is not None else env_fingerprint(),
        "ops": {result.name: result.to_dict() for result in results},
    }


def validate_document(document: object) -> List[str]:
    """Schema problems with ``document`` ([] means valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, expected object"]
    if document.get("schema") != SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, expected {SCHEMA!r}"
        )
    if document.get("version") != SCHEMA_VERSION:
        problems.append(
            f"version is {document.get('version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    env = document.get("env")
    if not isinstance(env, dict):
        problems.append("env block missing")
    else:
        calibration = env.get("calibration_ns")
        if not isinstance(calibration, (int, float)) or calibration <= 0:
            problems.append(
                f"env.calibration_ns must be a positive number, "
                f"got {calibration!r}"
            )
    ops = document.get("ops")
    if not isinstance(ops, dict) or not ops:
        problems.append("ops block missing or empty")
        return problems
    for name, figures in sorted(ops.items()):
        if not isinstance(figures, dict):
            problems.append(f"ops[{name!r}] is not an object")
            continue
        for field_name in ("median_ns", "ops_per_sec"):
            value = figures.get(field_name)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(
                    f"ops[{name!r}].{field_name} must be a positive "
                    f"number, got {value!r}"
                )
        for field_name in ("rounds", "batch"):
            value = figures.get(field_name)
            if not isinstance(value, int) or value < 1:
                problems.append(
                    f"ops[{name!r}].{field_name} must be an int >= 1, "
                    f"got {value!r}"
                )
    return problems


def merge_documents(documents: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """One baseline document from several runs of the same ops.

    Each op's ``median_ns`` is the median, over the runs, of that run's
    median scaled to the runs' median calibration (``median_ns *
    calibration / run_calibration``), so a run taken in a slow spell of
    a shared host counts as much as any other, at the common speed.  The
    merged ``calibration_ns`` is that median calibration, ``ops_per_sec``
    is 1e9 over the merged median, and ``rounds``, ``batch`` and the rest
    of the environment block are the first run's.

    Raises ``ValueError`` for no documents, an invalid one, runs in
    different modes, or runs that measured different ops.
    """
    if not documents:
        raise ValueError("no bench documents to merge")
    for index, document in enumerate(documents):
        problems = validate_document(document)
        if problems:
            raise ValueError(f"document {index} is invalid: " + "; ".join(problems))
    modes = sorted({str(document.get("mode")) for document in documents})
    if len(modes) > 1:
        raise ValueError(f"cannot merge runs in different modes: {modes}")
    runs = []
    for document in documents:
        env, ops = document["env"], document["ops"]
        assert isinstance(env, dict) and isinstance(ops, dict)
        runs.append((float(env["calibration_ns"]), ops))
    first_env, first_ops = documents[0]["env"], runs[0][1]
    assert isinstance(first_env, dict)
    for index, (_calibration, ops) in enumerate(runs):
        if set(ops) != set(first_ops):
            raise ValueError(
                f"document {index} measured other ops than document 0: "
                f"{sorted(set(ops) ^ set(first_ops))}"
            )
    calibration = statistics.median(run_calibration for run_calibration, _ in runs)
    merged: Dict[str, Dict[str, object]] = {}
    for name, figures in first_ops.items():
        median_ns = statistics.median(
            float(ops[name]["median_ns"]) * calibration / run_calibration
            for run_calibration, ops in runs
        )
        merged[name] = {
            "median_ns": median_ns,
            "ops_per_sec": 1e9 / median_ns,
            "rounds": figures["rounds"],
            "batch": figures["batch"],
        }
    return {
        "version": SCHEMA_VERSION,
        "schema": SCHEMA,
        "mode": documents[0].get("mode"),
        "env": dict(first_env, calibration_ns=calibration),
        "ops": merged,
    }


def write_document(path: str, document: Dict[str, object]) -> None:
    """Write a bench document as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_document(path: str) -> Dict[str, object]:
    """Load and validate a bench document; raises ``ValueError`` if bad."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    problems = validate_document(document)
    if problems:
        raise ValueError(
            f"{path} is not a valid {SCHEMA} document: " + "; ".join(problems)
        )
    return document


def results_table(results: Sequence[OpResult]) -> str:
    """Human table of results, slowest op first."""
    header = (
        f"{'op':<24} {'median ns/op':>14} {'ops/sec':>14} "
        f"{'rounds':>7} {'batch':>6}"
    )
    lines = [header, "-" * len(header)]
    for result in sorted(results, key=lambda r: -r.median_ns):
        lines.append(
            f"{result.name:<24} {result.median_ns:>14,.0f} "
            f"{result.ops_per_sec:>14,.0f} {result.rounds:>7} "
            f"{result.batch:>6}"
        )
    return "\n".join(lines)

"""Registered operations for the empirical complexity fitter.

Each :class:`Operation` builds a fresh small machine, prepares state, and
measures ONE operation at operand size ``n`` (pages, path components, or
sharers — whatever the operation naturally scales over) on the simulated
clock.  The clock is deterministic, so a constant-time operation measures
*identically* at every size and the fitter's verdict is exact.

Several constant verdicts hold only inside the design's own envelope —
e.g. the extent policy rounds every request up to one 2 MiB extent, and a
premapped attach is one pointer write per 2 MiB window — so those
operations cap their operand size (``max_size``) at the single-window /
single-extent range and say so in their note.  That is not cheating; it
*is* the paper's space-for-time bargain, and the caps document exactly
where the O(1) envelope ends.

``fom.demand_touch`` is the control: a per-page demand-fault loop
deliberately declared O(1) with ``known_mismatch=True``.  The fitter must
fit it LINEAR; if it ever "confirms" the bogus declaration, the fitter has
lost its teeth and CI fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.kernel.kernel import Kernel, MachineConfig
from repro.kernel.process import Process
from repro.lint.decorators import ComplexityClass
from repro.lint.fit import DEFAULT_CONSTANT_SPAN, FitResult, fit_series
from repro.qos.memcg import MemCg
from repro.units import MIB, PAGE_SIZE
from repro.vm.vma import MapFlags

#: Geometrically spaced operand sizes (pages, components, or sharers).
LIGHT_SIZES = (8, 16, 32, 64, 128, 256)
HEAVY_SIZES = (64, 128, 256, 512, 1024, 2048, 4096)

SIZE_SETS = {"light": LIGHT_SIZES, "heavy": HEAVY_SIZES}

#: One 2 MiB window / extent, in 4 KiB pages — the O(1) envelope for
#: premapped attaches and policy-rounded allocations.
WINDOW_PAGES = 512


@dataclass(frozen=True)
class Operation:
    """One fittable operation: a runner measuring cost at size ``n``."""

    name: str
    declared: ComplexityClass
    runner: Callable[[int], int]
    note: str = ""
    #: True for deliberate controls: the fit MUST contradict ``declared``.
    known_mismatch: bool = False
    #: Largest operand size the declaration covers (None = unbounded).
    max_size: Optional[int] = None

    def sizes_from(self, sizes: Sequence[int]) -> List[int]:
        """The subset of ``sizes`` inside this operation's envelope."""
        if self.max_size is None:
            return list(sizes)
        return [n for n in sizes if n <= self.max_size]


@dataclass(frozen=True)
class OperationFit:
    """Fit verdict for one operation at one size sweep."""

    operation: Operation
    sizes: List[int]
    costs: List[int]
    fit: FitResult

    @property
    def matches(self) -> bool:
        """Fitted class equals the declared class."""
        return self.fit.fitted is self.operation.declared

    @property
    def ok(self) -> bool:
        """True when the outcome is the expected one.

        Normal operations must match their declaration; known-mismatch
        controls must *not* (a control that matches means the fitter has
        stopped detecting O(n) behaviour).
        """
        if self.operation.known_mismatch:
            return not self.matches
        return self.matches


def _machine(**overrides: object) -> Kernel:
    config = dict(
        dram_bytes=128 * MIB,
        nvm_bytes=256 * MIB,
        range_hardware=True,
        pmfs_extent_align_frames=WINDOW_PAGES,
    )
    config.update(overrides)
    return Kernel(MachineConfig(**config))  # type: ignore[arg-type]


def _measure(kernel: Kernel, fn: Callable[[], object]) -> int:
    with kernel.measure() as measurement:
        fn()
    return measurement.elapsed_ns


# ---------------------------------------------------------------------------
# Runners (one fresh machine per measurement — fully deterministic)
# ---------------------------------------------------------------------------
def _run_mmap_anon(n: int) -> int:
    kernel = _machine()
    sys = kernel.syscalls(kernel.spawn("m"))
    return _measure(kernel, lambda: sys.mmap(n * PAGE_SIZE))


def _run_demand_touch(n: int) -> int:
    kernel = _machine()
    process = kernel.spawn("t")
    va = kernel.syscalls(process).mmap(n * PAGE_SIZE)
    return _measure(
        kernel, lambda: kernel.access_range(process, va, n * PAGE_SIZE)
    )


def _run_buddy_alloc_warm(n: int) -> int:
    kernel = _machine()
    buddy = kernel.dram_buddy
    order = buddy.order_for_pages(n)
    first = buddy.alloc(order)
    buddy.alloc(order)  # first's buddy: keeps the freed block unmerged
    buddy.free(first)
    return _measure(kernel, lambda: buddy.alloc(order))


def _run_buddy_free(n: int) -> int:
    kernel = _machine()
    buddy = kernel.dram_buddy
    pfn = buddy.alloc(buddy.order_for_pages(n))
    return _measure(kernel, lambda: buddy.free(pfn))


def _run_slab_alloc(n: int) -> int:
    from repro.mem.slab import SlabCache

    kernel = _machine()
    cache = SlabCache(
        "fit", 512, kernel.dram_buddy,
        clock=kernel.clock, costs=kernel.costs, counters=kernel.counters,
    )
    addrs = [cache.alloc() for _ in range(n)]
    cache.free(addrs[-1])  # warm LIFO slot: no slab growth in the measure
    return _measure(kernel, lambda: cache.alloc())


def _run_zeropool_take(n: int) -> int:
    from repro.mem.zeropool import ZeroPool

    kernel = _machine()
    pool = ZeroPool(
        kernel.dram_buddy, n,
        clock=kernel.clock, costs=kernel.costs, counters=kernel.counters,
    )
    pool.refill()  # background zeroing: off the measured clock
    return _measure(kernel, lambda: pool.take())


def _run_pmfs_create(n: int) -> int:
    kernel = _machine()
    assert kernel.pmfs is not None
    return _measure(
        kernel, lambda: kernel.pmfs.create("/fit", size=n * PAGE_SIZE)
    )


def _run_pmfs_unlink(n: int) -> int:
    kernel = _machine()
    assert kernel.pmfs is not None
    kernel.pmfs.create("/fit", size=n * PAGE_SIZE)
    return _measure(kernel, lambda: kernel.pmfs.unlink("/fit"))


def _run_fom_allocate(n: int) -> int:
    from repro.core.fom.manager import FileOnlyMemory

    kernel = _machine()
    fom = FileOnlyMemory(kernel)
    process = kernel.spawn("f")
    return _measure(kernel, lambda: fom.allocate(process, n * PAGE_SIZE))


def _run_fom_release(n: int) -> int:
    from repro.core.fom.manager import FileOnlyMemory

    kernel = _machine()
    fom = FileOnlyMemory(kernel)
    region = fom.allocate(kernel.spawn("f"), n * PAGE_SIZE)
    return _measure(kernel, lambda: fom.release(region))


def _premap_setup(n: int) -> Tuple[Any, Any, Any]:
    from repro.core.o1.premap import PageTableCache

    kernel = _machine()
    assert kernel.pmfs is not None
    inode = kernel.pmfs.create("/fit", size=n * PAGE_SIZE)
    ptcache = PageTableCache(
        kernel.config.page_table_levels,
        kernel.clock, kernel.costs, kernel.counters,
    )
    ptcache.premap(inode)  # the amortized linear build, unmeasured
    return kernel, ptcache, inode


def _run_premap_attach(n: int) -> int:
    kernel, ptcache, inode = _premap_setup(n)
    space = kernel.spawn("p").space
    return _measure(kernel, lambda: ptcache.attach(space, inode))


def _run_premap_detach(n: int) -> int:
    kernel, ptcache, inode = _premap_setup(n)
    attachment = ptcache.attach(kernel.spawn("p").space, inode)
    return _measure(kernel, lambda: ptcache.detach(attachment))


def _run_range_map(n: int) -> int:
    from repro.core.rangetrans.manager import RangeMemory

    kernel = _machine()
    assert kernel.pmfs is not None
    inode = kernel.pmfs.create("/fit", size=n * PAGE_SIZE)
    memory = RangeMemory(kernel)
    process = kernel.spawn("r")
    return _measure(kernel, lambda: memory.map_file(process, inode))


def _run_range_unmap(n: int) -> int:
    from repro.core.rangetrans.manager import RangeMemory

    kernel = _machine()
    assert kernel.pmfs is not None
    inode = kernel.pmfs.create("/fit", size=n * PAGE_SIZE)
    memory = RangeMemory(kernel)
    mapping = memory.map_file(kernel.spawn("r"), inode)
    return _measure(kernel, lambda: memory.unmap(mapping))


def _run_pbm_map(n: int) -> int:
    from repro.core.pbm.mapping import PbmManager

    kernel = _machine()
    assert kernel.pmfs is not None
    inode = kernel.pmfs.create("/fit", size=2 * MIB)
    pbm = PbmManager(kernel)
    for sharer in range(n):  # n processes already share the file
        pbm.map_file(kernel.spawn(f"s{sharer}"), inode)
    late = kernel.spawn("late")
    return _measure(kernel, lambda: pbm.map_file(late, inode))


def _run_vfs_lookup(n: int) -> int:
    kernel = _machine()
    assert kernel.pmfs is not None
    path = "/" + "/".join(f"d{i}" for i in range(n))
    kernel.pmfs.makedirs(path)
    kernel.pmfs.create(path + "/leaf")
    return _measure(kernel, lambda: kernel.pmfs.lookup(path + "/leaf"))


def _run_fork_cow(n: int) -> int:
    kernel = _machine()
    parent = kernel.spawn("f")
    sys = kernel.syscalls(parent)
    # POPULATE makes n pages resident without warming the TLB, so the
    # fork-time range invalidation drops a fixed (zero) entry count and
    # the measurement isolates the per-window share cost.
    sys.mmap(n * PAGE_SIZE, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
    return _measure(kernel, lambda: sys.fork())


def _run_munmap_extent(n: int) -> int:
    kernel = _machine()
    sys = kernel.syscalls(kernel.spawn("u"))
    va = sys.mmap(n * PAGE_SIZE, flags=MapFlags.PRIVATE | MapFlags.POPULATE)
    return _measure(kernel, lambda: sys.munmap(va, n * PAGE_SIZE))


def _run_zero_eager(n: int) -> int:
    from repro.core.o1.zeroing import EagerZeroing

    kernel = _machine()
    strategy = EagerZeroing(
        kernel.dram_buddy, kernel.clock, kernel.costs, kernel.counters
    )
    return _measure(kernel, lambda: strategy.take_frames(n))


def _run_crypto_return(n: int) -> int:
    from repro.core.o1.zeroing import CryptoErase

    kernel = _machine()
    strategy = CryptoErase(
        kernel.dram_buddy, kernel.clock, kernel.costs, kernel.counters
    )
    pfns = strategy.take_frames(n)
    return _measure(kernel, lambda: strategy.return_frames(pfns))


def _run_qos_charge(n: int) -> int:
    kernel = _machine()
    qos = kernel.arm_qos()
    process = None
    for i in range(n):  # n registered tenants, each with its own cgroup
        process = kernel.spawn(f"t{i}", cgroup=qos.cgroup(f"t{i}"))
    assert process is not None
    qos.enter_pid(process.pid)
    buddy = kernel.dram_buddy
    first = buddy.alloc(0)
    buddy.alloc(0)  # first's buddy: keeps the freed block unmerged
    buddy.free(first)  # exact-order hit: isolates the charge-hook cost
    return _measure(kernel, lambda: buddy.alloc(0))


def _fault_tenant(kernel: Kernel, name: str, cgroup: MemCg, pages: int) -> Process:
    """An LRU-tracking process in ``cgroup`` with ``pages`` faulted in."""
    process = kernel.spawn(name, track_lru=True, cgroup=cgroup)
    va = kernel.syscalls(process).mmap(pages * PAGE_SIZE, flags=MapFlags.PRIVATE)
    # Demand-fault every page: only the fault path feeds the LRU.
    kernel.access_range(process, va, pages * PAGE_SIZE, write=True)
    return process


def _run_qos_reclaim_batch(n: int) -> int:
    kernel = _machine(swap_pages=16384)
    qos = kernel.arm_qos()
    cg = qos.cgroup("fit")  # limitless: setup never breaches
    # Resident population = scan cap's worth of pages plus n more, all
    # freshly referenced, so every measurement pops exactly the 4x-batch
    # bound off the inactive list however long that list is.
    _fault_tenant(kernel, "fit", cg, 4 * qos.config.reclaim_batch * 4 + n)
    return _measure(kernel, lambda: qos.reclaim_batch(cg))


def _run_qos_reclaim_neighbours(n: int) -> int:
    kernel = _machine(swap_pages=16384)
    qos = kernel.arm_qos()
    batch = qos.config.reclaim_batch
    # The neighbour faults first: on one machine-wide list its n pages
    # would be the first the clock hand meets.
    _fault_tenant(kernel, "neighbour", qos.cgroup("neighbour"), n)
    target = qos.cgroup("target")
    _fault_tenant(kernel, "target", target, 2 * batch)
    freed: List[int] = []
    cost = _measure(kernel, lambda: freed.append(qos.reclaim_batch(target)))
    if freed != [batch]:
        raise AssertionError(
            f"reclaim_batch(target) evicted {freed[0]} of a {batch}-page "
            f"batch with {n} neighbour pages resident"
        )
    return cost


_C = ComplexityClass.CONSTANT
_N = ComplexityClass.LINEAR

OPERATIONS: List[Operation] = [
    Operation(
        "syscall.mmap_anon", _C, _run_mmap_anon,
        note="VMA insert only; faults happen later (n = pages mapped)",
    ),
    Operation(
        "buddy.alloc.warm", _C, _run_buddy_alloc_warm,
        note="exact-order free list hit (n = pages; cold allocs add "
             "<= max_order splits)",
    ),
    Operation("buddy.free", _C, _run_buddy_free,
              note="merge chain charges 0 ns (n = pages in the block)"),
    Operation("slab.alloc", _C, _run_slab_alloc,
              note="LIFO slot pop (n = live objects in the cache)"),
    Operation("zeropool.take", _C, _run_zeropool_take,
              note="popleft of a pre-zeroed frame (n = pool occupancy)"),
    Operation("pmfs.create", _C, _run_pmfs_create,
              note="one journaled extent for any size (n = file pages)"),
    Operation("pmfs.unlink", _C, _run_pmfs_unlink,
              note="whole-file free: one journaled extent (n = file pages)"),
    Operation(
        "fom.allocate", _C, _run_fom_allocate,
        note="policy-rounded single extent, one huge-page map "
             "(n = requested pages)",
        max_size=WINDOW_PAGES,
    ),
    Operation(
        "fom.release", _C, _run_fom_release,
        note="one huge PTE teardown + whole-file unlink (n = pages)",
        max_size=WINDOW_PAGES,
    ),
    Operation(
        "premap.attach", _C, _run_premap_attach,
        note="one pointer write per 2 MiB window; single window here "
             "(n = file pages)",
        max_size=WINDOW_PAGES,
    ),
    Operation(
        "premap.detach", _C, _run_premap_detach,
        note="one pointer unlink per 2 MiB window (n = file pages)",
        max_size=WINDOW_PAGES,
    ),
    Operation("rangetrans.map_file", _C, _run_range_map,
              note="one RTE per extent; files here are single-extent "
                   "(n = file pages)"),
    Operation("rangetrans.unmap", _C, _run_range_unmap,
              note="one RTE remove + one range-TLB shootdown (n = pages)"),
    Operation(
        "pbm.map_file", _C, _run_pbm_map,
        note="per-process map cost independent of sharers (n = processes "
             "already mapping the file)",
        max_size=256,
    ),
    Operation(
        "kernel.fork_cow", _C, _run_fork_cow,
        note="COW fork: one pointer write + one WP bit per 2 MiB window; "
             "single window here (n = resident pages)",
        max_size=WINDOW_PAGES,
    ),
    Operation(
        "syscalls.munmap", _C, _run_munmap_extent,
        note="extent policy: one subtree unlink per 2 MiB window plus one "
             "batched TLB range invalidation; single window here "
             "(n = resident pages)",
        max_size=WINDOW_PAGES,
    ),
    Operation(
        "qos.charge", _C, _run_qos_charge,
        note="one frame alloc through the armed memcg charge hook "
             "(n = registered tenant cgroups)",
    ),
    Operation(
        "qos.reclaim_batch", _C, _run_qos_reclaim_batch,
        note="one direct-reclaim batch: inactive-list pops capped at 4x "
             "batch size (n = the target's resident pages beyond the cap)",
    ),
    Operation(
        "qos.reclaim_batch.neighbours", _C, _run_qos_reclaim_neighbours,
        note="one direct-reclaim batch that must evict a full batch of the "
             "target's pages (n = a neighbour cgroup's resident pages, "
             "faulted first)",
    ),
    Operation(
        "vfs.lookup", _N, _run_vfs_lookup,
        note="one charge per path component (n = path depth)",
        max_size=256,
    ),
    Operation(
        "zeroing.eager.take_frames", _N, _run_zero_eager,
        note="the baseline: zero every frame inline (n = frames)",
        max_size=1024,
    ),
    Operation(
        "zeroing.crypto.return_frames", _C, _run_crypto_return,
        note="one key destroy + one batched region free via "
             "buddy.free_many (n = frames)",
        max_size=1024,
    ),
    Operation(
        "fom.demand_touch", _C, _run_demand_touch,
        note="CONTROL: per-page demand faults, deliberately misdeclared "
             "O(1); the fitter must flag it (n = pages touched)",
        known_mismatch=True,
        max_size=1024,
    ),
]


def operations_by_name(names: Optional[Sequence[str]] = None) -> List[Operation]:
    """The registry, optionally filtered to ``names`` (exact match)."""
    if not names:
        return list(OPERATIONS)
    known = {op.name: op for op in OPERATIONS}
    missing = [name for name in names if name not in known]
    if missing:
        raise KeyError(
            f"unknown operations {missing}; known: {sorted(known)}"
        )
    return [known[name] for name in names]


def fit_operation(
    operation: Operation,
    sizes: Sequence[int] = LIGHT_SIZES,
    *,
    constant_span: float = DEFAULT_CONSTANT_SPAN,
) -> OperationFit:
    """Measure ``operation`` across ``sizes`` and fit its cost curve."""
    chosen = operation.sizes_from(sizes)
    if len(chosen) < 3:
        raise ValueError(
            f"{operation.name}: need >= 3 sizes inside max_size="
            f"{operation.max_size}, got {chosen}"
        )
    costs = [operation.runner(n) for n in chosen]
    fit = fit_series(chosen, costs, constant_span=constant_span)
    return OperationFit(operation=operation, sizes=chosen, costs=costs, fit=fit)


def fit_all(
    sizes: Sequence[int] = LIGHT_SIZES,
    names: Optional[Sequence[str]] = None,
) -> List[OperationFit]:
    """Fit every registered operation (or the named subset)."""
    return [fit_operation(op, sizes) for op in operations_by_name(names)]

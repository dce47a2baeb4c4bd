"""Empirical cross-check of the static allocation certificates.

AllocSan (:mod:`repro.lint.alloc`) certifies hot paths allocation-free
by shape; this module re-runs them and watches the heap.  Each
registered :class:`AllocOp` builds a fresh small machine, warms the
operation past its transient phase (TLB fills, cache installs, counter
keys, interned ints), then measures the *net*
``tracemalloc.get_traced_memory()`` growth over thousands of
steady-state calls with the GC disabled.  An op whose certified
closure is honest nets ~0 bytes/call — transient objects (CPython int
boxing, immediately-freed tuples) cancel out of the current-size
delta, which is exactly why net growth rather than per-call event
counting is the metric: boxing is unavoidable at this layer,
*retained* allocation is not.

The registry carries a planted control
(:func:`repro.lint.controls.control_allocfree_retaining`): statically
certified ``@allocfree``, empirically retaining ~30 bytes per call.
Its ``expect_growth`` flag inverts the judgment — the run fails unless
the control *does* grow, so a broken harness (tracemalloc off, warmup
eating the measurement window, threshold absurdly high) is caught on
every run rather than silently certifying everything.

Each op also names the declared functions its closure exercises; a
name that is not in the import-time allocation registry
(:func:`repro.lint.decorators.iter_alloc_declarations`) fails the op —
the empirical and static prongs must agree on *what* is certified, not
just on whether it allocates.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.lint.decorators import iter_alloc_declarations

if TYPE_CHECKING:  # pragma: no cover - the simulator imports repro.lint
    from repro.kernel.kernel import Kernel

#: Net steady-state growth below this is noise (one pointer per call
#: would already be 8 bytes; a retained int is ~28).
DEFAULT_MAX_BYTES_PER_CALL = 8.0


@dataclass(frozen=True)
class AllocOp:
    """One empirically cross-checked hot operation."""

    name: str
    #: Builds fresh state; returns the zero-argument steady-state call.
    prepare: Callable[[], Callable[[], object]]
    #: Declared functions this op's certified closure exercises; each
    #: must exist in the import-time allocation registry.
    certified: Tuple[str, ...]
    #: Calls before measurement starts: must cover every transient
    #: (TLB/cache fills, counter keys, one full working-set cycle).
    warmup: int = 512
    #: Measured steady-state calls.
    calls: int = 4096
    max_bytes_per_call: float = DEFAULT_MAX_BYTES_PER_CALL
    #: Planted control: the run fails unless this op *does* grow.
    expect_growth: bool = False
    note: str = ""


@dataclass(frozen=True)
class AllocFitResult:
    """Measured heap behaviour of one op, judged."""

    name: str
    calls: int
    net_bytes: int
    per_call_bytes: float
    gc_delta: Tuple[int, int, int]
    expect_growth: bool
    grew: bool
    uncertified: Tuple[str, ...]
    ok: bool
    note: str = ""

    def format(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        kind = "control" if self.expect_growth else "certified"
        extra = ""
        if self.uncertified:
            extra = f"  undeclared: {', '.join(self.uncertified)}"
        return (
            f"{self.name:<24} {verdict:<4} {kind:<9} "
            f"{self.per_call_bytes:>8.2f} B/call net over {self.calls} calls "
            f"(gc {self.gc_delta}){extra}"
        )


def measure_net_growth(
    fn: Callable[[], object], warmup: int, calls: int
) -> Tuple[int, Tuple[int, int, int]]:
    """Net traced-heap growth (bytes) and gc-count delta of ``calls``
    steady-state invocations of ``fn`` after ``warmup`` discarded ones.

    The GC is disabled during the window so collector runs cannot mask
    retention, and tracemalloc state is restored to whatever it was on
    entry (the suite may already be tracing).

    Tracing starts *before* the warmup, not after: steady-state LRU
    churn (TLB sets, cache LRU lists) constantly replaces resident
    objects, and tracemalloc only credits the free of a block it saw
    allocated.  Warm under tracing and replacement nets to zero;
    warm untraced and the counter climbs for one full working-set
    cycle while untraced residents are swapped for traced ones —
    indistinguishable from a leak.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    for _ in range(warmup):
        fn()
    was_gc_enabled = gc.isenabled()
    gc.collect()
    if was_gc_enabled:
        gc.disable()
    try:
        before_counts = gc.get_count()
        before, _peak = tracemalloc.get_traced_memory()
        for _ in range(calls):
            fn()
        after, _peak = tracemalloc.get_traced_memory()
        after_counts = gc.get_count()
    finally:
        if was_gc_enabled:
            gc.enable()
        if not was_tracing:
            tracemalloc.stop()
    delta = (
        after_counts[0] - before_counts[0],
        after_counts[1] - before_counts[1],
        after_counts[2] - before_counts[2],
    )
    return after - before, delta


def _registered_certified() -> Dict[str, bool]:
    """Dotted name -> allocfree for every import-time declaration."""
    return {
        decl.function: decl.allocfree for decl in iter_alloc_declarations()
    }


def run_alloc_op(op: AllocOp) -> AllocFitResult:
    """Prepare, warm, measure and judge one op."""
    fn = op.prepare()
    net, gc_delta = measure_net_growth(fn, op.warmup, op.calls)
    per_call = net / op.calls if op.calls else 0.0
    grew = per_call > op.max_bytes_per_call
    registered = _registered_certified()
    uncertified = tuple(
        name for name in op.certified if name not in registered
    )
    ok = (grew if op.expect_growth else not grew) and not uncertified
    return AllocFitResult(
        name=op.name,
        calls=op.calls,
        net_bytes=net,
        per_call_bytes=per_call,
        gc_delta=gc_delta,
        expect_growth=op.expect_growth,
        grew=grew,
        uncertified=uncertified,
        ok=ok,
        note=op.note,
    )


# ---------------------------------------------------------------------------
# Op preparers: mirror the wall-clock bench preps, sized for heap
# steady state rather than timer granularity.
# ---------------------------------------------------------------------------
def _untraced_machine() -> Kernel:
    """A bench machine with the tracer off.

    The certificates describe the untraced access path.  A caller may
    enable the tracer of every Kernel (the ``REPRO_PROFILE`` suite);
    with this machine's tracer off, the span wrappers the other kernels
    keep installed pass its calls straight through to the plain
    methods, and their argument packing is freed on return, so it adds
    nothing net per call.
    """
    from repro.perf.bench import _machine

    kernel = _machine()
    kernel.tracer.disable()
    return kernel


def _prep_access_tlb_hit() -> Callable[[], object]:
    from repro.units import PAGE_SIZE
    from repro.vm.vma import MapFlags

    kernel = _untraced_machine()
    process = kernel.spawn("a")
    va = kernel.syscalls(process).mmap(
        PAGE_SIZE, flags=MapFlags.PRIVATE | MapFlags.POPULATE
    )
    return lambda: kernel.access(process, va)


def _prep_access_tlb_miss_walk() -> Callable[[], object]:
    from repro.units import PAGE_SIZE
    from repro.vm.vma import MapFlags

    kernel = _untraced_machine()
    process = kernel.spawn("a")
    npages = 4096  # beyond TLB reach: sequential cycle = all misses
    size = npages * PAGE_SIZE
    va = kernel.syscalls(process).mmap(
        size, flags=MapFlags.PRIVATE | MapFlags.POPULATE
    )
    cursor = [0]

    def step() -> object:
        index = cursor[0]
        cursor[0] = (index + 1) % npages
        return kernel.access(process, va + index * PAGE_SIZE)

    return step


def _prep_control_retaining() -> Callable[[], object]:
    from repro.lint import controls

    cursor = [0]

    def step() -> object:
        cursor[0] += 1
        # Large ints defeat the small-int cache so every call retains
        # a fresh object, not a shared singleton.
        return controls.control_allocfree_retaining(1_000_000 + cursor[0])

    return step


#: The registry ``lint --alloc`` cross-checks.  Warmups are sized to a
#: full working-set cycle (the miss op touches 4096 pages; everything
#: it will ever install must be installed before measurement).
ALLOC_OPS: List[AllocOp] = [
    AllocOp(
        "access.tlb_hit",
        _prep_access_tlb_hit,
        certified=(
            "repro.kernel.kernel.Kernel.access",
            "repro.kernel.kernel.Kernel._ensure_current",
            "repro.hw.cpu.Cpu.access",
            "repro.hw.cpu.Cpu._translate",
            "repro.hw.tlb.Tlb.lookup",
            "repro.hw.cache.CacheModel.reference",
            "repro.hw.clock.SimClock.advance",
            "repro.obs.metrics.MetricsRegistry.bump",
        ),
        warmup=512,
        calls=4096,
        note="resident 4 KiB page, TLB-warm: the certified floor",
    ),
    AllocOp(
        "access.tlb_miss_walk",
        _prep_access_tlb_miss_walk,
        certified=(
            "repro.hw.cpu.Cpu._translate",
            "repro.hw.tlb.Tlb.lookup",
            "repro.hw.tlb.Tlb.insert",
            "repro.paging.walker.PageWalker.walk",
            "repro.hw.cache.CacheModel.reference_lines",
        ),
        warmup=8704,  # two full 4096-page cycles + slack: TLB at capacity
        calls=4096,
        note="sequential miss cycle: walk + bounded refill, zero net",
    ),
    AllocOp(
        "control.allocfree_retaining",
        _prep_control_retaining,
        certified=("repro.lint.controls.control_allocfree_retaining",),
        warmup=64,
        calls=2048,
        expect_growth=True,
        note="planted control: statically certified, empirically leaky",
    ),
]


def ops_by_name(names: Optional[Sequence[str]] = None) -> List[AllocOp]:
    """The registry, optionally filtered to ``names`` (exact match)."""
    if not names:
        return list(ALLOC_OPS)
    known = {op.name: op for op in ALLOC_OPS}
    missing = [name for name in names if name not in known]
    if missing:
        raise KeyError(f"unknown alloc ops {missing}; known: {sorted(known)}")
    return [known[name] for name in names]


def run_allocfit(
    names: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[AllocFitResult]:
    """Run the registry (or the named subset) and return judged results."""
    results: List[AllocFitResult] = []
    for op in ops_by_name(names):
        result = run_alloc_op(op)
        if progress is not None:
            progress(result.format())
        results.append(result)
    return results

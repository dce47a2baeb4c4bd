"""procfs-style introspection: smaps and meminfo for the simulator.

Operators of the real system read ``/proc/<pid>/smaps`` and
``/proc/meminfo``; these builders produce the equivalent views of a
simulated machine, used by examples and by tests that assert on
whole-system accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.analysis.tables import format_table
from repro.obs.export import attribution_rows
from repro.units import KIB, PAGE_SIZE, fmt_bytes, fmt_ns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process


def smaps(process: "Process") -> str:
    """Per-VMA mapping report for one process (like /proc/pid/smaps)."""
    rows: List[List[object]] = []
    space = process.space
    for vma in space.vmas:
        resident = 0
        va = vma.start
        while va < vma.end:
            pte = space.page_table.lookup(va)
            if pte is not None:
                base = va - va % pte.page_size
                resident += pte.page_size
                va = base + pte.page_size
            else:
                va += PAGE_SIZE
        rows.append(
            [
                f"{vma.start:#x}-{vma.end:#x}",
                fmt_bytes(vma.length),
                fmt_bytes(resident),
                str(vma.prot),
                vma.name or "anon",
            ]
        )
    return format_table(
        ["range", "size", "resident", "prot", "name"], rows
    )


def meminfo(kernel: "Kernel") -> Dict[str, int]:
    """Machine-wide memory accounting (like /proc/meminfo)."""
    info = {
        "dram_total_bytes": kernel.dram_region.size,
        "dram_free_bytes": kernel.dram_buddy.free_frames * PAGE_SIZE,
        "frame_meta_tracked": kernel.frame_table.tracked_count(),
        "tmpfs_used_bytes": kernel.tmpfs.used_bytes(),
        "processes": sum(1 for p in kernel.processes.values() if p.alive),
    }
    if kernel.nvm_region is not None:
        info["nvm_total_bytes"] = kernel.nvm_region.size
        info["nvm_free_bytes"] = (
            kernel.nvm_allocator.free_blocks * PAGE_SIZE
        )
        info["pmfs_used_bytes"] = kernel.pmfs.used_bytes()
    if kernel.zeropool is not None:
        info["zeropool_ready_bytes"] = kernel.zeropool.available * PAGE_SIZE
    if kernel.swap is not None:
        info["swap_used_bytes"] = kernel.swap.used_slots * PAGE_SIZE
    return info


def attribution_report(
    attribution: Dict[Tuple[int, str], int],
    total_ns: int,
    process_names: Optional[Dict[int, str]] = None,
) -> str:
    """Top-down cost attribution: simulated ns per (subsystem, process).

    ``attribution`` is a ``Kernel.measure(trace=True)`` result's
    :attr:`attribution` (or a tracer's live table); ``total_ns`` the
    measured elapsed time the shares are computed against.
    """
    rows: List[List[object]] = []
    for subsystem, process, ns in attribution_rows(attribution, process_names):
        share = f"{100.0 * ns / total_ns:.1f}%" if total_ns else "-"
        rows.append([subsystem, process, fmt_ns(ns), share])
    attributed = sum(attribution.values())
    rows.append(["total", "(all)", fmt_ns(attributed), ""])
    return format_table(["subsystem", "process", "self time", "share"], rows)


def histogram_report(registry) -> str:
    """Latency-histogram summary table (p50/p95/p99 in simulated ns).

    ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry`; one row
    per histogram, i.e. per traced span name.
    """
    rows: List[List[object]] = []
    for hist in registry.iter_histograms():
        rows.append(
            [
                hist.name,
                hist.count,
                fmt_ns(hist.p50),
                fmt_ns(hist.p95),
                fmt_ns(hist.p99),
                fmt_ns(hist.max),
            ]
        )
    return format_table(["span", "count", "p50", "p95", "p99", "max"], rows)


def counters_report(counters) -> str:
    """All event counters as a two-column table, sorted by name."""
    rows = [[name, value] for name, value in counters]
    return format_table(["counter", "count"], rows)


def format_meminfo(kernel: "Kernel") -> str:
    """meminfo rendered as the classic two-column text."""
    info = meminfo(kernel)
    rows = [[name, fmt_bytes(value) if name.endswith("bytes") else value]
            for name, value in sorted(info.items())]
    return format_table(["field", "value"], rows)

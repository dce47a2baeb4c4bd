"""Ablation — extent-size policy: the space-for-time dial.

DESIGN.md calls out extent sizing as the core trade.  Sweep the minimum
extent size (4 KiB = no rounding ... 2 MiB = paper's choice) and report
both sides of the bargain: mapping cost (PTEs per region) and wasted
bytes, over a realistic mixed-size allocation trace.

PTE writes are counted on the mapping side (``fom.allocate``) only.
Teardown drops whole page-table windows and writes the same few PTEs at
every extent size, so counting it would only blur the mapping ratio.
"""

from conftest import run_once

from repro.analysis import format_table
from repro.core.fom import FileOnlyMemory
from repro.core.o1.policy import ExtentPolicy
from repro.kernel import Kernel, MachineConfig
from repro.units import GIB, KIB, MIB, PAGE_SIZE
from repro.workloads import AllocTrace, TraceOp

MIN_EXTENTS = [4 * KIB, 64 * KIB, 512 * KIB, 2 * MIB]
OPERATIONS = 300


def run_policy(min_extent: int):
    kernel = Kernel(
        MachineConfig(
            dram_bytes=512 * MIB, nvm_bytes=4 * GIB,
            pmfs_extent_align_frames=512,
        )
    )
    align = min_extent >= 2 * MIB
    policy = ExtentPolicy(
        min_extent_bytes=min_extent, align_to_page_structures=align
    )
    fom = FileOnlyMemory(kernel, policy=policy)
    process = kernel.spawn("p")
    trace = AllocTrace(seed=13, large_bytes_max=8 * MIB).generate(
        OPERATIONS, live_target=48
    )
    live = {}
    counters = kernel.counters
    map_ptes = 0
    with kernel.measure() as m:
        for event in trace:
            if event.op is TraceOp.MALLOC:
                before = counters.get("pte_write")
                live[event.tag] = fom.allocate(process, max(event.size, 1))
                map_ptes += counters.get("pte_write") - before
            else:
                fom.release(live.pop(event.tag))
    return (
        m.elapsed_ns,
        map_ptes,
        policy.ledger.wasted_bytes,
        policy.ledger.overhead_ratio,
    )


def run_experiment():
    rows = []
    for min_extent in MIN_EXTENTS:
        ns, ptes, waste, ratio = run_policy(min_extent)
        rows.append(
            (
                f"{min_extent // KIB} KiB",
                ns / 1e6,
                ptes,
                waste // MIB,
                f"{ratio:.1f}x",
            )
        )
    return rows


def test_ablation_extent_policy(benchmark, record_result):
    rows = run_once(benchmark, run_experiment)
    record_result(
        "ablation_extent_policy",
        format_table(
            ["min extent", "time ms", "map pte writes", "waste MiB", "overhead"],
            [(n, f"{ms:.2f}", p, w, o) for n, ms, p, w, o in rows],
        ),
    )
    # Time and PTE counts fall as extents grow; waste rises.
    times = [ms for _, ms, _, _, _ in rows]
    ptes = [p for _, _, p, _, _ in rows]
    wastes = [w for _, _, _, w, _ in rows]
    assert times[-1] < times[0]
    assert ptes[-1] < ptes[0] / 5
    assert wastes[-1] > wastes[0]

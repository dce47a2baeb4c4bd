"""The sim-cost vs wall-cost correlation report.

Joins the tracer's two columns, ``tracer.attribution`` (simulated ns)
and ``tracer.wall_attribution`` (wall ns), over their shared
``(pid, subsystem)`` keys and reports, per row, the *simulation rate*:
simulated nanoseconds produced per wall microsecond spent producing
them.  A subsystem whose rate is far below
the others is where the simulator's own implementation — not the model —
is burning real time; that is the row the batched-access-engine work
(ROADMAP direction 2) needs to move.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


def correlation_rows(
    sim_attribution: Dict[Tuple[int, str], int],
    wall_attribution: Dict[Tuple[int, str], int],
    process_names: Optional[Dict[int, str]] = None,
) -> List[Tuple[str, str, int, int, float]]:
    """(subsystem, process, sim_ns, wall_ns, sim_ns_per_wall_us) rows.

    Keys present in either attribution appear; the union is sorted by
    wall time, largest first, because wall time is what this report
    exists to explain.
    """
    names = process_names or {}
    keys = set(sim_attribution) | set(wall_attribution)
    rows: List[Tuple[str, str, int, int, float]] = []
    for pid, subsystem in keys:
        sim_ns = sim_attribution.get((pid, subsystem), 0)
        wall_ns = wall_attribution.get((pid, subsystem), 0)
        rate = sim_ns / (wall_ns / 1000.0) if wall_ns else 0.0
        rows.append(
            (subsystem, names.get(pid, f"pid {pid}"), sim_ns, wall_ns, rate)
        )
    rows.sort(key=lambda row: (-row[3], -row[2], row[0], row[1]))
    return rows


def correlation_report(
    sim_attribution: Dict[Tuple[int, str], int],
    wall_attribution: Dict[Tuple[int, str], int],
    process_names: Optional[Dict[int, str]] = None,
) -> str:
    """Text table of :func:`correlation_rows` plus a totals line."""
    rows = correlation_rows(sim_attribution, wall_attribution, process_names)
    header = (
        f"{'subsystem':<10} {'process':<14} {'sim ns':>14} "
        f"{'wall ns':>14} {'sim ns / wall us':>17}"
    )
    lines = [header, "-" * len(header)]
    for subsystem, process, sim_ns, wall_ns, rate in rows:
        lines.append(
            f"{subsystem:<10} {process:<14} {sim_ns:>14,} "
            f"{wall_ns:>14,} {rate:>17,.1f}"
        )
    total_sim = sum(sim_attribution.values())
    total_wall = sum(wall_attribution.values())
    total_rate = total_sim / (total_wall / 1000.0) if total_wall else 0.0
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<10} {'':<14} {total_sim:>14,} "
        f"{total_wall:>14,} {total_rate:>17,.1f}"
    )
    return "\n".join(lines)

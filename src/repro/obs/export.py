"""Trace exporters: Chrome ``trace_event`` JSON and text attribution.

The JSON form loads directly in ``chrome://tracing`` and in Perfetto
(https://ui.perfetto.dev): one track per simulated process, spans nested
by subsystem, timestamps in microseconds of *simulated* time.

The text form is the top-down cost-attribution report printed by
``repro-o1 trace`` / ``repro-o1 stats`` and embeddable in analysis
output: simulated nanoseconds charged per subsystem (and per process),
as a share of a measured total.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import EventKind, TraceEvent, Tracer

#: Chrome trace_event phase codes for our three event kinds.
_PHASES = {
    EventKind.SPAN_BEGIN: "B",
    EventKind.SPAN_END: "E",
    EventKind.INSTANT: "i",
}

#: pid the histogram counter tracks render under (its own track group,
#: so latency percentiles don't interleave with per-process span tracks).
COUNTER_TRACK_PID = 0


def counter_track_events(
    metrics: MetricsRegistry,
    end_ts_ns: int,
    pid: int = COUNTER_TRACK_PID,
) -> List[Dict[str, object]]:
    """Chrome ``ph: "C"`` counter samples for the registry's histograms.

    One counter track per histogram, named ``hist:<name>``, with p50/p95/
    p99 as its three series.  Histograms are cumulative over the whole
    trace, so each track gets two samples — one at ts 0 and one at the
    trace's end — which Perfetto renders as a level band spanning the
    run rather than a single invisible point.
    """
    records: List[Dict[str, object]] = []
    for hist in metrics.iter_histograms():
        if hist.count == 0:
            continue
        args = {"p50": hist.p50, "p95": hist.p95, "p99": hist.p99}
        for ts_ns in (0, end_ts_ns) if end_ts_ns > 0 else (0,):
            records.append(
                {
                    "name": f"hist:{hist.name}",
                    "ph": "C",
                    "ts": ts_ns / 1000.0,
                    "pid": pid,
                    "args": dict(args),
                }
            )
    return records


def chrome_trace(
    events: Iterable[TraceEvent],
    process_names: Optional[Dict[int, str]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Build a Chrome ``trace_event`` document from trace events.

    Timestamps convert from simulated ns to the microseconds the format
    expects (fractional µs are allowed and preserved by Perfetto).  When
    ``metrics`` is given, its latency histograms are appended as counter
    tracks (see :func:`counter_track_events`).
    """
    trace_events: List[Dict[str, object]] = []
    for pid, name in sorted((process_names or {}).items()):
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": name},
            }
        )
    end_ts_ns = 0
    for event in events:
        record: Dict[str, object] = {
            "name": event.name,
            "cat": event.subsystem,
            "ph": _PHASES[event.kind],
            "ts": event.ts_ns / 1000.0,
            "pid": event.pid,
            "tid": event.pid,
        }
        if event.kind is EventKind.INSTANT:
            record["s"] = "t"  # thread-scoped instant
        if event.args:
            record["args"] = dict(event.args)
        trace_events.append(record)
        if event.ts_ns > end_ts_ns:
            end_ts_ns = event.ts_ns
    if metrics is not None:
        trace_events.extend(counter_track_events(metrics, end_ts_ns))
    return {"traceEvents": trace_events, "displayTimeUnit": "ns"}


def write_chrome_trace(
    path: str,
    events: Iterable[TraceEvent],
    process_names: Optional[Dict[int, str]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> int:
    """Write a Chrome-trace JSON file; returns the event count written."""
    document = chrome_trace(events, process_names, metrics)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return len(document["traceEvents"])  # type: ignore[arg-type]


def export_tracer(path: str, tracer: Tracer) -> int:
    """Write everything a :class:`Tracer` buffered to ``path``.

    Includes counter tracks for the machine's latency histograms when
    the tracer is wired to a :class:`MetricsRegistry`.
    """
    return write_chrome_trace(
        path, tracer.events(), tracer.process_names, tracer.metrics
    )


# ----------------------------------------------------------------------
# Self-time recomputation (for verifying exported traces)
# ----------------------------------------------------------------------
def subsystem_self_times(events: Sequence[TraceEvent]) -> Dict[str, int]:
    """Per-subsystem self time recomputed from a span event stream.

    Mirrors the tracer's live attribution: each span's elapsed minus its
    children's elapsed is charged to its subsystem.  Unmatched
    ``span_end`` events (their begins fell off the ring) are skipped;
    spans never closed contribute nothing.  Tests use this to check that
    an exported trace reproduces ``measure().elapsed_ns``.
    """
    totals: Dict[str, int] = {}
    stack: List[Tuple[str, int, int]] = []  # (subsystem, start_ns, child_ns)
    for event in events:
        if event.kind is EventKind.SPAN_BEGIN:
            stack.append((event.subsystem, event.ts_ns, 0))
        elif event.kind is EventKind.SPAN_END:
            if not stack:
                continue
            subsystem, start_ns, child_ns = stack.pop()
            elapsed = event.ts_ns - start_ns
            totals[subsystem] = totals.get(subsystem, 0) + elapsed - child_ns
            if stack:
                parent = stack[-1]
                stack[-1] = (parent[0], parent[1], parent[2] + elapsed)
    return totals


def load_chrome_trace(path: str) -> List[TraceEvent]:
    """Parse a Chrome-trace JSON file back into :class:`TraceEvent` s.

    Metadata records are skipped; timestamps round back to integer ns.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    kinds = {code: kind for kind, code in _PHASES.items()}
    events: List[TraceEvent] = []
    for record in document.get("traceEvents", []):
        kind = kinds.get(record.get("ph"))
        if kind is None:
            continue
        events.append(
            TraceEvent(
                kind=kind,
                name=record["name"],
                ts_ns=round(record["ts"] * 1000),
                pid=record.get("pid", 0),
                subsystem=record.get("cat", ""),
                args=record.get("args"),
            )
        )
    return events


# ----------------------------------------------------------------------
# Text attribution report
# ----------------------------------------------------------------------
def attribution_rows(
    attribution: Dict[Tuple[int, str], int],
    process_names: Optional[Dict[int, str]] = None,
) -> List[Tuple[str, str, int]]:
    """(subsystem, process, self_ns) rows, largest subsystems first."""
    by_subsystem: Dict[str, Dict[int, int]] = {}
    for (pid, subsystem), ns in attribution.items():
        by_subsystem.setdefault(subsystem, {})[pid] = (
            by_subsystem.setdefault(subsystem, {}).get(pid, 0) + ns
        )
    names = process_names or {}
    rows: List[Tuple[str, str, int]] = []
    for subsystem, pids in sorted(
        by_subsystem.items(), key=lambda item: -sum(item[1].values())
    ):
        for pid, ns in sorted(pids.items(), key=lambda item: -item[1]):
            rows.append((subsystem, names.get(pid, f"pid {pid}"), ns))
    return rows

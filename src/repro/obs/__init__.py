"""Observability: typed tracing, metrics and cost attribution.

The instrument panel for the simulator — see DESIGN.md §Observability.

* :class:`~repro.obs.trace.Tracer` — span/instant events in a bounded
  ring, stamped with simulated ns, attributing each span's self time
  per (process, subsystem) on both the simulated and the wall clock;
* :class:`~repro.obs.metrics.MetricsRegistry` — the one counter class:
  event counters (``bump()`` is a dict increment with no strict mode;
  the source audit in ``tests/test_obs_names.py`` enforces names) plus
  log-bucketed latency histograms with p50/p95/p99 summaries;
* :mod:`~repro.obs.export` — Chrome ``trace_event`` JSON and the text
  attribution report;
* :mod:`~repro.obs.names` — the canonical counter-name list and the
  ``subsystem_verb_object`` convention.
"""

from repro.obs.export import (
    attribution_rows,
    chrome_trace,
    export_tracer,
    load_chrome_trace,
    subsystem_self_times,
    write_chrome_trace,
)
from repro.obs.metrics import LatencyHistogram, MetricsRegistry
from repro.obs.names import CANONICAL_COUNTERS, SUBSYSTEMS, check_convention, is_canonical
from repro.obs.trace import (
    DEFAULT_RING_CAPACITY,
    EventKind,
    TraceEvent,
    Tracer,
    subsystem_totals,
)

__all__ = [
    "CANONICAL_COUNTERS",
    "DEFAULT_RING_CAPACITY",
    "EventKind",
    "LatencyHistogram",
    "MetricsRegistry",
    "SUBSYSTEMS",
    "TraceEvent",
    "Tracer",
    "attribution_rows",
    "check_convention",
    "chrome_trace",
    "export_tracer",
    "is_canonical",
    "load_chrome_trace",
    "subsystem_self_times",
    "subsystem_totals",
    "write_chrome_trace",
]

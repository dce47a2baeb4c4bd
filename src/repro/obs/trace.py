"""Typed trace events over the simulated clock, with cost attribution.

:class:`Tracer` records ``span_begin`` / ``span_end`` / ``instant``
events into a **bounded ring buffer**.  Timestamps are
:class:`~repro.hw.clock.SimClock` nanoseconds — never wall time — so
traces are exactly reproducible run to run and legal inside the
deterministic simulator.

Beyond the event stream, the tracer maintains a live **attribution
table**: when a span ends, its *self time* (elapsed minus time covered
by nested spans) is charged to the ``(pid, subsystem)`` pair that opened
it.  Because self times are disjoint by construction, summing the table
over a window that was covered by one root span reproduces the window's
elapsed nanoseconds exactly — the invariant
``Kernel.measure(trace=True)`` exposes and tests assert.

Each open span also carries the **wall column**: its start and child
time on the host clock (:func:`time.perf_counter_ns`), which the tracer
reads but never feeds back into the simulation.  Ending a span charges
its wall self time to :attr:`Tracer.wall_attribution`, under the same
``(pid, subsystem)`` key as the simulated charge, and to the per-path
table :attr:`Tracer.paths` (``"subsystem:name;..."`` root to self ->
``[calls, wall self ns, wall cumulative ns]``), which the flamegraph and
pstats exports in :mod:`repro.perf.profiler` read.  The wall column is
what the simulator pays to produce the simulated one; one stack decides
a span's cost on both clocks.

The tracer is *disabled* by default, and the simulator's modules hold
no span code: :mod:`repro.obs.spans` names every traced method in one
table and wraps those methods on their classes only while some tracer
is enabled, so an untraced run executes no tracing code at all.  The
cold-path instants (machine crash, chaos, sanitizer, QoS, RAS, journal
commit) check :attr:`Tracer.enabled` where they fire.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.hw.clock import SimClock
from repro.obs.metrics import MetricsRegistry

#: Default ring capacity: enough for ~16k spans before the oldest drop.
DEFAULT_RING_CAPACITY = 65536


class EventKind(enum.Enum):
    """The three typed trace-event kinds."""

    SPAN_BEGIN = "span_begin"
    SPAN_END = "span_end"
    INSTANT = "instant"


@dataclass(frozen=True)
class TraceEvent:
    """One trace record, stamped with simulated nanoseconds."""

    kind: EventKind
    name: str
    ts_ns: int
    pid: int
    subsystem: str
    #: Instants only; spans carry no arguments.
    args: Optional[Dict[str, object]] = None


@dataclass
class _OpenSpan:
    """A span on the tracer's stack, on both clocks."""

    name: str
    subsystem: str
    pid: int
    #: ``"subsystem:name"`` labels from the root span to this one.
    path: str
    start_ns: int
    wall_start_ns: int
    child_ns: int = 0
    wall_child_ns: int = 0


def subsystem_totals(attribution: Dict[Tuple[int, str], int]) -> Dict[str, int]:
    """A ``(pid, subsystem)`` attribution summed over pids, on either clock."""
    totals: Dict[str, int] = {}
    for (_pid, subsystem), ns in attribution.items():
        totals[subsystem] = totals.get(subsystem, 0) + ns
    return totals


class Tracer:
    """Bounded-ring trace recorder and (pid, subsystem) cost attributor."""

    def __init__(
        self,
        clock: SimClock,
        capacity: int = DEFAULT_RING_CAPACITY,
        metrics: Optional[MetricsRegistry] = None,
        wall_clock_ns: Optional[Callable[[], int]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self._clock = clock
        #: Host clock of the wall column; injectable so tests can drive
        #: a fake one and assert exact wall attributions.
        self._wall_ns = wall_clock_ns or time.perf_counter_ns
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        #: Registry receiving one latency sample per finished span
        #: (``observe(span_name, elapsed_ns)``); optional.
        self._metrics = metrics
        self.enabled = False
        #: Pid stamped on spans/instants that don't pass one explicitly;
        #: the span table's kernel entry points set it on every call.
        self.current_pid = 0
        self._stack: List[_OpenSpan] = []
        #: Simulated ns attributed per (pid, subsystem): span self times.
        self.attribution: Dict[Tuple[int, str], int] = {}
        #: Wall ns attributed per (pid, subsystem): span self times.
        self.wall_attribution: Dict[Tuple[int, str], int] = {}
        #: Span path -> [calls, wall self ns, wall cumulative ns].
        self.paths: Dict[str, List[int]] = {}
        #: Events recorded over the tracer's lifetime (including dropped).
        self.total_events = 0
        #: Events lost to ring overflow.
        self.dropped_events = 0
        #: pid -> human name, exported as Chrome process_name metadata.
        self.process_names: Dict[int, str] = {0: "kernel"}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        """Start recording events (idempotent).

        The first tracer enabled installs the span table's wrappers
        (:mod:`repro.obs.spans`).
        """
        if not self.enabled:
            from repro.obs import spans

            self.enabled = True
            spans.attach(self)

    def disable(self) -> None:
        """Stop recording; open spans stay on the stack until ended.

        Disabling the last enabled tracer removes the span wrappers.
        """
        if self.enabled:
            from repro.obs import spans

            self.enabled = False
            spans.detach(self)

    def clear(self) -> None:
        """Drop all buffered events and attribution (keeps enablement)."""
        self._ring.clear()
        self._stack.clear()
        self.attribution.clear()
        self.wall_attribution.clear()
        self.paths.clear()
        self.total_events = 0
        self.dropped_events = 0

    @property
    def capacity(self) -> int:
        """Maximum events the ring retains."""
        return self._ring.maxlen or 0

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The registry this tracer feeds span latencies into (or None)."""
        return self._metrics

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _append(self, event: TraceEvent) -> None:
        if len(self._ring) == self._ring.maxlen:
            self.dropped_events += 1
        self._ring.append(event)
        self.total_events += 1

    def begin(self, name: str, subsystem: str, pid: Optional[int] = None) -> None:
        """Open a span; every ``begin`` must be matched by one ``end``."""
        if not self.enabled:
            return
        if pid is None:
            pid = self.current_pid
        now = self._clock.now
        stack = self._stack
        path = f"{subsystem}:{name}"
        if stack:
            path = f"{stack[-1].path};{path}"
        self._append(TraceEvent(EventKind.SPAN_BEGIN, name, now, pid, subsystem))
        stack.append(_OpenSpan(name, subsystem, pid, path, now, self._wall_ns()))

    def end(self) -> None:
        """Close the innermost open span, attributing its self time on
        both clocks."""
        if not self._stack:
            return
        wall_now = self._wall_ns()
        span = self._stack.pop()
        now = self._clock.now
        elapsed = now - span.start_ns
        self_ns = elapsed - span.child_ns
        wall_elapsed = wall_now - span.wall_start_ns
        wall_self = wall_elapsed - span.wall_child_ns
        key = (span.pid, span.subsystem)
        self.attribution[key] = self.attribution.get(key, 0) + self_ns
        self.wall_attribution[key] = self.wall_attribution.get(key, 0) + wall_self
        row = self.paths.get(span.path)
        if row is None:
            self.paths[span.path] = [1, wall_self, wall_elapsed]
        else:
            row[0] += 1
            row[1] += wall_self
            row[2] += wall_elapsed
        if self._stack:
            parent = self._stack[-1]
            parent.child_ns += elapsed
            parent.wall_child_ns += wall_elapsed
        if self._metrics is not None:
            self._metrics.observe(span.name, elapsed)
        self._append(
            TraceEvent(EventKind.SPAN_END, span.name, now, span.pid, span.subsystem)
        )

    def instant(
        self,
        name: str,
        subsystem: str,
        pid: Optional[int] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record a zero-duration marker event."""
        if not self.enabled:
            return
        if pid is None:
            pid = self.current_pid
        self._append(
            TraceEvent(
                EventKind.INSTANT, name, self._clock.now, pid, subsystem, args
            )
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        """All buffered events, oldest first."""
        return list(self._ring)

    def events_since(self, total_before: int) -> List[TraceEvent]:
        """Events recorded after ``total_events`` read ``total_before``.

        Clipped to what the ring still holds (oldest may have dropped).
        """
        fresh = self.total_events - total_before
        if fresh <= 0:
            return []
        buffered = list(self._ring)
        return buffered[-fresh:] if fresh < len(buffered) else buffered

    def attribution_since(
        self, snapshot: Dict[Tuple[int, str], int]
    ) -> Dict[Tuple[int, str], int]:
        """Attribution growth since a ``dict(tracer.attribution)`` copy."""
        out: Dict[Tuple[int, str], int] = {}
        for key, value in self.attribution.items():
            change = value - snapshot.get(key, 0)
            if change:
                out[key] = change
        return out

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended."""
        return len(self._stack)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"Tracer({state}, events={len(self._ring)}/{self.capacity}, "
            f"dropped={self.dropped_events}, open={self.open_spans})"
        )

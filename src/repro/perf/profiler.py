"""Wall-clock profiling hooks: where does *real* time go?

The tracer (:mod:`repro.obs.trace`) attributes **simulated** nanoseconds
per ``(pid, subsystem)`` — the model's cost.  :class:`WallProfiler`
attributes **wall-clock** nanoseconds over the *same* span structure —
the implementation's cost.  The two attributions share keys, so the
correlation report (:mod:`repro.perf.report`) can show, per subsystem,
how many simulated nanoseconds the simulator produces per wall-clock
microsecond spent producing them — the number every "make the simulator
faster" PR must move.

Arming follows the chaos/sanitize/ras pattern::

    profiler = kernel.arm_profiler()
    run_workload(kernel)
    print(correlation_report(kernel.tracer.attribution,
                             profiler.attribution,
                             kernel.tracer.process_names))
    profiler.write_collapsed("profile.folded")   # flamegraph.pl input
    profiler.write_pstats("profile.pstats")      # pstats.Stats input

The spans come from the table in :mod:`repro.obs.spans`, whose wrappers
are installed while a tracer is enabled, so the wall samples time the
same method bodies an untraced run executes, plus the wrappers' own
cost.  Unarmed, the only residue is one attribute check inside the
tracer's ``begin``/``end`` — which themselves only run when tracing is
enabled — so golden figures stay bit-identical
(``tests/test_perf_profiler.py`` pins this).

The profiler reads :func:`time.perf_counter_ns` and **never** touches
the simulated clock: arming it cannot change a single simulated
nanosecond.
"""

from __future__ import annotations

import marshal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: pstats pseudo-filename for exported span "functions".
_PSTATS_FILE = "~sim"


@dataclass
class _Frame:
    """One open span on the profiler's wall-clock stack."""

    label: str  # "subsystem:name"
    subsystem: str
    pid: int
    path: str  # ";"-joined labels root..self (collapsed-stack key)
    start_ns: int
    child_ns: int = 0


@dataclass
class SpanStat:
    """Aggregate wall-clock stats for one span name."""

    calls: int = 0
    self_ns: int = 0
    cum_ns: int = 0
    #: caller label -> (arc count, arc cumulative wall ns)
    callers: Dict[str, List[int]] = field(default_factory=dict)


class WallProfiler:
    """Per-(pid, subsystem) wall-time attribution over tracer spans.

    The tracer calls :meth:`on_begin` / :meth:`on_end` in lockstep with
    its own span stack (only while armed), and the profiler maintains
    the wall-clock mirror of the tracer's simulated-cost attribution:
    a span's *self* wall time (elapsed minus nested spans) is charged to
    the ``(pid, subsystem)`` that opened it, to the full stack path for
    flamegraphs, and to the span name for pstats.

    ``clock_ns`` is injectable so tests can drive a fake wall clock and
    assert exact attributions.
    """

    def __init__(self, clock_ns: Optional[Callable[[], int]] = None) -> None:
        self._clock_ns = clock_ns or time.perf_counter_ns
        #: Wall ns of span self time per (pid, subsystem) — the mirror
        #: of ``Tracer.attribution`` (which is simulated ns).
        self.attribution: Dict[Tuple[int, str], int] = {}
        #: Collapsed-stack self times: "a;b;c" -> wall ns.
        self.path_self_ns: Dict[str, int] = {}
        #: Per span name ("subsystem:name") aggregate stats.
        self.span_stats: Dict[str, SpanStat] = {}
        self._stack: List[_Frame] = []
        #: Spans closed over the profiler's lifetime.
        self.spans = 0

    # ------------------------------------------------------------------
    # Tracer hooks
    # ------------------------------------------------------------------
    def on_begin(self, name: str, subsystem: str, pid: int) -> None:
        """Open a wall-clock frame (called by ``Tracer.begin``)."""
        label = f"{subsystem}:{name}"
        parent = self._stack[-1].path if self._stack else ""
        path = f"{parent};{label}" if parent else label
        self._stack.append(
            _Frame(label, subsystem, pid, path, self._clock_ns())
        )

    def on_end(self) -> None:
        """Close the innermost frame (called by ``Tracer.end``)."""
        if not self._stack:
            return
        now = self._clock_ns()
        frame = self._stack.pop()
        elapsed = now - frame.start_ns
        self_ns = elapsed - frame.child_ns
        key = (frame.pid, frame.subsystem)
        self.attribution[key] = self.attribution.get(key, 0) + self_ns
        self.path_self_ns[frame.path] = (
            self.path_self_ns.get(frame.path, 0) + self_ns
        )
        stat = self.span_stats.get(frame.label)
        if stat is None:
            stat = self.span_stats[frame.label] = SpanStat()
        stat.calls += 1
        stat.self_ns += self_ns
        stat.cum_ns += elapsed
        if self._stack:
            caller = self._stack[-1]
            caller.child_ns += elapsed
            arc = stat.callers.get(caller.label)
            if arc is None:
                stat.callers[caller.label] = [1, elapsed]
            else:
                arc[0] += 1
                arc[1] += elapsed
        self.spans += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def total_ns(self) -> int:
        """Total attributed wall nanoseconds (sum of span self times)."""
        return sum(self.attribution.values())

    def subsystem_totals(self) -> Dict[str, int]:
        """Attributed wall self time per subsystem, summed over pids."""
        totals: Dict[str, int] = {}
        for (_pid, subsystem), ns in self.attribution.items():
            totals[subsystem] = totals.get(subsystem, 0) + ns
        return totals

    def clear(self) -> None:
        """Drop all collected attributions (open frames survive)."""
        self.attribution.clear()
        self.path_self_ns.clear()
        self.span_stats.clear()
        self.spans = 0

    # ------------------------------------------------------------------
    # Flamegraph export (Brendan Gregg "collapsed stack" format)
    # ------------------------------------------------------------------
    def collapsed_lines(self) -> List[str]:
        """``stack;frames value`` lines for flamegraph.pl / speedscope.

        Values are wall *microseconds* of self time (flamegraph tooling
        expects sample-count-sized integers; ns totals overflow its
        default width on long runs).  Zero-self-time paths are kept when
        they have descendants charged elsewhere — flamegraph rebuilds
        the hierarchy from the paths alone.
        """
        return [
            f"{path} {self.path_self_ns[path] // 1000}"
            for path in sorted(self.path_self_ns)
        ]

    def write_collapsed(self, path: str) -> int:
        """Write collapsed stacks to ``path``; returns the line count."""
        lines = self.collapsed_lines()
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        return len(lines)

    # ------------------------------------------------------------------
    # pstats export
    # ------------------------------------------------------------------
    def pstats_dict(self) -> Dict[tuple, tuple]:
        """A ``cProfile``-shaped stats dict: one entry per span name.

        Keys are ``(file, line, name)`` triples with the pseudo-file
        ``~sim``; values are ``(cc, nc, tt, ct, callers)`` with times in
        seconds, exactly what :class:`pstats.Stats` loads.
        """
        stats: Dict[tuple, tuple] = {}
        for label, stat in self.span_stats.items():
            callers = {
                (_PSTATS_FILE, 0, caller): (
                    arc[0], arc[0], 0.0, arc[1] / 1e9
                )
                for caller, arc in stat.callers.items()
            }
            stats[(_PSTATS_FILE, 0, label)] = (
                stat.calls,
                stat.calls,
                stat.self_ns / 1e9,
                stat.cum_ns / 1e9,
                callers,
            )
        return stats

    def write_pstats(self, path: str) -> int:
        """Dump a :class:`pstats.Stats`-loadable file; returns entries."""
        stats = self.pstats_dict()
        with open(path, "wb") as handle:
            marshal.dump(stats, handle)
        return len(stats)

    def __repr__(self) -> str:
        return (
            f"WallProfiler(spans={self.spans}, "
            f"subsystems={len(self.subsystem_totals())}, "
            f"total_ms={self.total_ns / 1e6:.1f})"
        )

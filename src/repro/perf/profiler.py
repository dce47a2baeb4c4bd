"""Flamegraph and pstats exports of a tracer's wall column.

An enabled :class:`~repro.obs.trace.Tracer` stamps every span on the
wall clock as well as the simulated one (see :mod:`repro.obs.trace`)::

    kernel.tracer.enable()
    run_workload(kernel)
    kernel.tracer.disable()
    write_collapsed(kernel.tracer, "profile.folded")  # flamegraph.pl input
    write_pstats(kernel.tracer, "profile.pstats")     # pstats.Stats input

These functions read only its per-path table, ``tracer.paths``
(``"subsystem:name;..."`` root to self -> ``[calls, wall self ns, wall
cumulative ns]``); :mod:`repro.perf.report` joins its two
``(pid, subsystem)`` attributions.
"""

from __future__ import annotations

import marshal
from typing import Dict, List

from repro.obs.trace import Tracer

#: pstats pseudo-filename for exported span "functions".
_PSTATS_FILE = "~sim"


# ----------------------------------------------------------------------
# Flamegraph export (Brendan Gregg "collapsed stack" format)
# ----------------------------------------------------------------------
def collapsed_lines(tracer: Tracer) -> List[str]:
    """``stack;frames value`` lines for flamegraph.pl / speedscope.

    Values are wall *microseconds* of self time (flamegraph tooling
    expects sample-count-sized integers; ns totals overflow its default
    width on long runs).  Zero-self-time paths are kept when they have
    descendants charged elsewhere — flamegraph rebuilds the hierarchy
    from the paths alone.
    """
    return [
        f"{path} {row[1] // 1000}" for path, row in sorted(tracer.paths.items())
    ]


def write_collapsed(tracer: Tracer, path: str) -> int:
    """Write collapsed stacks to ``path``; returns the line count."""
    lines = collapsed_lines(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


# ----------------------------------------------------------------------
# pstats export
# ----------------------------------------------------------------------
def pstats_dict(tracer: Tracer) -> Dict[tuple, tuple]:
    """A ``cProfile``-shaped stats dict: one entry per span label.

    Keys are ``(file, line, "subsystem:name")`` triples with the
    pseudo-file ``~sim``; values are ``(cc, nc, tt, ct, callers)`` with
    times in seconds, exactly what :class:`pstats.Stats` loads.  A
    label's row sums every path that ends in it, and each such path's
    second-to-last label is a caller arc.
    """
    totals: Dict[str, List[int]] = {}
    arcs: Dict[str, Dict[str, List[int]]] = {}
    for path, (calls, self_ns, cum_ns) in tracer.paths.items():
        parent, _, label = path.rpartition(";")
        total = totals.setdefault(label, [0, 0, 0])
        total[0] += calls
        total[1] += self_ns
        total[2] += cum_ns
        callers = arcs.setdefault(label, {})
        if parent:
            arc = callers.setdefault(parent.rpartition(";")[2], [0, 0])
            arc[0] += calls
            arc[1] += cum_ns
    return {
        (_PSTATS_FILE, 0, label): (
            calls,
            calls,
            self_ns / 1e9,
            cum_ns / 1e9,
            {
                (_PSTATS_FILE, 0, caller): (count, count, 0.0, arc_ns / 1e9)
                for caller, (count, arc_ns) in arcs[label].items()
            },
        )
        for label, (calls, self_ns, cum_ns) in totals.items()
    }


def write_pstats(tracer: Tracer, path: str) -> int:
    """Dump a :class:`pstats.Stats`-loadable file; returns entries."""
    stats = pstats_dict(tracer)
    with open(path, "wb") as handle:
        marshal.dump(stats, handle)
    return len(stats)

"""Performance observability: wall-clock profiles + microbench gates.

The tracer answers "where did the *simulated* nanoseconds go" and, in
its wall column, what each span cost on the host; this package answers
the question the ROADMAP's performance work needs: "where does the
simulator's *wall-clock* time go, and is it getting slower?"  Three
pieces:

* Profile exports (:mod:`repro.perf.profiler`) — flamegraph
  (collapsed-stack) and :mod:`pstats` files from an enabled tracer's
  per-path wall table, and a sim-vs-wall correlation report
  (:mod:`repro.perf.report`) over its two ``(pid, subsystem)``
  attributions.
* The tier-1 microbenchmark registry (:mod:`repro.perf.bench`) — the
  hot operations the lint fitter covers, measured on the wall clock and
  committed as the ``BENCH_tier1.json`` trajectory.
* The regression comparator (:mod:`repro.perf.compare`) — per-op
  tolerances over calibration-scaled baselines; CI runs it as
  ``repro-o1 bench --quick --compare BENCH_tier1.json``.

Everything here is **opt-in and invisible when off**: no import of this
package, and no untraced code path, changes a single simulated
nanosecond — golden figures stay bit-identical.
"""

from repro.perf.bench import (
    FULL_ROUNDS,
    QUICK_ROUNDS,
    SCHEMA,
    BenchOp,
    OpResult,
    TIER1_OPS,
    build_document,
    calibrate,
    env_fingerprint,
    load_document,
    merge_documents,
    ops_by_name,
    results_table,
    run_op,
    run_suite,
    validate_document,
    write_document,
)
from repro.perf.compare import (
    DEFAULT_TOLERANCE,
    CompareReport,
    MissingBaselineError,
    OpComparison,
    compare_documents,
    compare_to_baseline,
    tolerance_for,
)
from repro.perf.profiler import (
    collapsed_lines,
    pstats_dict,
    write_collapsed,
    write_pstats,
)
from repro.perf.report import correlation_report, correlation_rows

__all__ = [
    "FULL_ROUNDS",
    "QUICK_ROUNDS",
    "SCHEMA",
    "BenchOp",
    "OpResult",
    "TIER1_OPS",
    "build_document",
    "calibrate",
    "env_fingerprint",
    "load_document",
    "merge_documents",
    "ops_by_name",
    "results_table",
    "run_op",
    "run_suite",
    "validate_document",
    "write_document",
    "DEFAULT_TOLERANCE",
    "CompareReport",
    "MissingBaselineError",
    "OpComparison",
    "compare_documents",
    "compare_to_baseline",
    "tolerance_for",
    "collapsed_lines",
    "pstats_dict",
    "write_collapsed",
    "write_pstats",
    "correlation_report",
    "correlation_rows",
]

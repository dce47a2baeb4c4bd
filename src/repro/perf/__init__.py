"""Performance observability: wall-clock profiling + microbench gates.

PR 1's tracer answers "where did the *simulated* nanoseconds go"; this
package answers the orthogonal question the ROADMAP's scale work needs:
"where does the simulator's *wall-clock* time go, and is it getting
slower?"  Three pieces:

* :class:`WallProfiler` (:mod:`repro.perf.profiler`) — armed via
  ``kernel.arm_profiler()``, attributes wall nanoseconds per
  ``(pid, subsystem)`` over the tracer's span structure, with
  flamegraph (collapsed-stack) and :mod:`pstats` export and a
  sim-vs-wall correlation report (:mod:`repro.perf.report`).
* The tier-1 microbenchmark registry (:mod:`repro.perf.bench`) — the
  hot operations the lint fitter covers, measured on the wall clock and
  committed as the ``BENCH_tier1.json`` trajectory.
* The regression comparator (:mod:`repro.perf.compare`) — per-op
  tolerances over calibration-scaled baselines; CI runs it as
  ``repro-o1 bench --quick --compare BENCH_tier1.json``.

Like chaos/sanitize/ras, everything here is **opt-in and invisible when
unarmed**: no import of this package, and no unarmed code path, changes
a single simulated nanosecond — golden figures stay bit-identical.
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
from repro.perf.profiler import SpanStat, WallProfiler
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
    "SpanStat",
    "WallProfiler",
    "correlation_report",
    "correlation_rows",
]

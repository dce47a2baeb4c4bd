"""Host-time benchmark of the simulator, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload file_churn --seed 1 --seconds 40 --trace 0

``BENCHMARK.json`` gates ``file_churn`` and ``tenant_fleet``.
``access_stream`` runs the same way but is not gated: from run to run
its timings follow the host's speed swings further than the 25% bounds
allow.  Its traced run still backs the prediction tests, as the
workload that bypasses reclaim, PMFS, the bitmap and QoS.

``--trace 0`` reports the end-to-end metrics with all instrumentation
off, over the workload's fixed number of rounds.  ``--trace 1``
alternates untraced rounds with rounds that wrap each layer's public
methods from outside the program, and reports per-layer calls and self
time instead, plus the model's hit/evict ratios and the tracing
overhead; the spans of the last traced round are written to
``.perfbench/``.  ``--seconds`` is only a cap: on a host so slow that a
run passes three times its value, no further round starts.  Both modes
check every round's oracle and that every round of the seed yields the
same simulated fingerprint.  The last line of output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit status
is non-zero if any oracle or fingerprint check failed.

The benchmark's own tests: ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("access_stream", "file_churn", "tenant_fleet")


def _use_checkout_source() -> None:
    """Import the simulator from this checkout's ``src``, or exit."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no simulator source under {src}")
    sys.path.insert(0, src)


def _report(result, op: str) -> None:
    ops = len(result.rounds[0].op_ns)
    sim_ns, digest = result.rounds[0].fingerprint
    print(
        f"# {result.workload} seed={result.seed} trace={int(result.trace)} "
        f"rounds={len(result.rounds)} accesses/round={result.rounds[0].accesses}"
    )
    print(f"# fingerprint sim_ns={sim_ns} counters={digest}")
    for name, (value, unit) in result.metrics.items():
        print(f"#   {name:32s} {value:>16.6g} {unit}")
    if not result.trace:
        beyond = ops - -(-99 * ops // 100)
        print(
            f"# op = {op}; percentiles over {ops} ops (best of {len(result.rounds)} "
            f"rounds each); {beyond} lie beyond p99"
        )
    for problem in result.problems:
        print(f"# PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _use_checkout_source()
    import harness

    result = harness.measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        spans_dir=os.path.join(ROOT, ".perfbench") if args.trace else None,
    )
    _report(result, harness.WORKLOADS[args.workload].op)
    print(json.dumps(result.summary()), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

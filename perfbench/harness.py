"""Rounds, metrics and fingerprints for one run of one workload.

A run repeats a fixed number of *rounds*, set per workload.  A round
builds a fresh machine (timed as set-up), runs the workload's fixed input
(timed as the run, op by op), checks the workload's oracle and
fingerprints the result.  Every round of one seed must produce the same
fingerprint; a traced run also checks its traced rounds against the
untraced ones it alternates them with.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from spans import LAYER_NAMES, SpanRecorder, installed_state, instrumented
from workloads import WORKLOADS

#: Fewest rounds in an untraced run, so set-up time is a median and a
#: repeat checks the fingerprint, even when the run is cut short.
MIN_ROUNDS = 3
#: (untraced, traced) round pairs in a traced run.
TRACED_PAIRS = 3
#: A run starts no new round after this many times ``--seconds`` (once
#: it has its minimum), so a very slow host still ends in time.
CAP_FACTOR = 3


@dataclass
class Round:
    setup_s: float
    run_s: float
    op_ns: List[int]
    accesses: int
    attempted: int
    failed: int
    problems: List[str]
    fingerprint: Tuple[int, str]
    delta: Dict[str, int]
    #: The process's peak resident memory so far, in MiB.
    peak_rss_mib: float
    layers: Optional[Dict[str, Tuple[int, int]]] = None


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    rounds: List[Round]
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def summary(self) -> Dict[str, object]:
        """The result line: correctness, op counts and metrics."""
        return {
            "correct": self.correct,
            "attempted": sum(r.attempted for r in self.rounds),
            "failed": sum(r.failed for r in self.rounds),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def _digest(counters: Dict[str, int], outcome: Dict[str, object]) -> str:
    blob = json.dumps([sorted(counters.items()), outcome], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def one_round(workload: str, seed: int, recorder: Optional[SpanRecorder] = None) -> Round:
    """Set up, run and check one fresh instance of ``workload``."""
    gc.collect()
    started = perf_counter()
    instance = WORKLOADS[workload](seed)
    instance.setup()
    ready = perf_counter()
    kernel = instance.kernel
    snapshot = kernel.counters.snapshot()
    sim_start = kernel.clock.now
    if recorder is not None:
        recorder.reset()
        recorder.active = True
    begin = perf_counter()
    try:
        op_ns = instance.run()
    finally:
        end = perf_counter()
        if recorder is not None:
            recorder.active = False
    sim_ns = kernel.clock.now - sim_start
    delta = kernel.counters.delta_since(snapshot)
    fingerprint = (sim_ns, _digest(kernel.counters.snapshot(), instance.outcome()))
    return Round(
        setup_s=ready - started,
        run_s=end - begin,
        op_ns=op_ns,
        accesses=instance.accesses,
        attempted=instance.attempted,
        failed=instance.failed,
        problems=instance.problems(delta),
        fingerprint=fingerprint,
        delta=delta,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        layers=recorder.totals() if recorder is not None else None,
    )


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _percentile(sorted_values: List[int], p: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def op_best(rounds: List[Round]) -> List[int]:
    """Each op's fastest host time (ns) over the rounds.

    Every round runs the same ops on the same simulated state, so the
    work is identical and host contention can only add time: a slow
    spell of the host drops out, a cost the op pays every time stays.
    """
    return [min(times) for times in zip(*(r.op_ns for r in rounds))]


def end_to_end(rounds: List[Round]) -> Dict[str, Tuple[float, str]]:
    """The metrics a user of the simulator sees, with tracing off.

    ``run_s`` and the op percentiles come from each op's best time over
    the run's fixed number of rounds, so ``run_s`` is the timed phase's
    wall time on an uncontended host.  ``setup_s`` is the best round's
    set-up for the same reason: set-up allocates most of the memory a
    round uses, and the host's slow spells stretch it more than the
    timed phase (a median over rounds moved by a quarter between two
    sweeps in which ``run_s`` moved by 6%).
    """
    ops = sorted(op_best(rounds))
    run_s = sum(ops) / 1e9
    return {
        "setup_s": (min(r.setup_s for r in rounds), "s"),
        "run_s": (run_s, "s"),
        "accesses_per_s": (rounds[0].accesses / run_s, "1/s"),
        "op_p50_us": (statistics.median(ops) / 1e3, "us"),
        "op_p99_us": (_percentile(ops, 99) / 1e3, "us"),
        # Through the first round only: later rounds can raise the
        # high-water mark through allocator fragmentation alone.
        "peak_rss_mib": (rounds[0].peak_rss_mib, "MiB"),
    }


def per_layer(traced: List[Round], untraced: List[Round]) -> Dict[str, Tuple[float, str]]:
    """Calls and self time per layer, model ratios, and tracing overhead."""
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = (traced[0].layers[layer][0], "count")
        self_ms = statistics.median(r.layers[layer][1] for r in traced) / 1e6
        metrics[f"{layer}.self_ms"] = (self_ms, "ms")
    d = traced[0].delta
    metrics["hw.tlb.hit_ratio"] = (
        _ratio(d.get("tlb_hit", 0), d.get("tlb_hit", 0) + d.get("tlb_miss", 0)),
        "ratio",
    )
    references = sum(d.get(k, 0) for k in ("cache_l1_hit", "cache_llc_hit", "cache_miss"))
    metrics["hw.cache.l1_hit_ratio"] = (_ratio(d.get("cache_l1_hit", 0), references), "ratio")
    metrics["vm.reclaimd.evict_ratio"] = (
        _ratio(d.get("reclaim_evicted", 0), d.get("reclaim_scanned", 0)),
        "ratio",
    )
    metrics["vm.addrspace.faults"] = (d.get("fault_trap", 0), "count")
    metrics["qos.throttle_stalls"] = (d.get("qos_throttle_stall", 0), "count")
    # Both sides are best-of over as many rounds, taken in alternation.
    metrics["trace.overhead_ratio"] = (sum(op_best(traced)) / sum(op_best(untraced)), "ratio")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, spans_dir: Optional[str] = None) -> Result:
    """Run ``workload`` for its fixed number of rounds and score it.

    ``seconds`` only caps the run (see ``CAP_FACTOR``); on a host of the
    expected speed the rounds take about that long.
    """
    deadline = perf_counter() + CAP_FACTOR * seconds

    def more(done: int, wanted: int, floor: int) -> bool:
        return done < wanted and (done < floor or perf_counter() < deadline)

    result = Result(workload=workload, seed=seed, trace=trace, rounds=[])
    if not trace:
        while more(len(result.rounds), WORKLOADS[workload].ROUNDS, MIN_ROUNDS):
            result.rounds.append(one_round(workload, seed))
        result.metrics = end_to_end(result.rounds)
    else:
        before = installed_state()
        recorder = SpanRecorder()
        untraced: List[Round] = []
        traced: List[Round] = []
        while more(len(traced), TRACED_PAIRS, 1):
            untraced.append(one_round(workload, seed))
            with instrumented(recorder):
                traced.append(one_round(workload, seed, recorder))
            result.rounds.extend((untraced[-1], traced[-1]))
        if installed_state() != before:
            result.problems.append("a layer wrapper is still installed after the traced run")
        calls = [[c for c, _ns in r.layers.values()] for r in traced]
        if any(c != calls[0] for c in calls):
            result.problems.append("traced rounds disagree on per-layer call counts")
        result.metrics = per_layer(traced, untraced)
        if spans_dir is not None:
            os.makedirs(spans_dir, exist_ok=True)
            recorder.write(os.path.join(spans_dir, f"{workload}-seed{seed}-spans.json"))
    for index, r in enumerate(result.rounds):
        result.problems.extend(f"round {index}: {p}" for p in r.problems)
    prints = {r.fingerprint for r in result.rounds}
    if len(prints) > 1:
        result.problems.append(f"rounds of one seed disagree: {sorted(prints)}")
    return result

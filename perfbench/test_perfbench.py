"""The benchmark's own checks: the instrument must not change the answer.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench -q``
(about 40 s).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import spans
from workloads import WORKLOADS, TenantFleet
from repro.workloads.tenants import run_tenants

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3

with open(os.path.join(HERE, "predictions.json")) as f:
    PREDICTIONS = json.load(f)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


@pytest.fixture(scope="module")
def traced():
    """One traced run (an untraced round, then one traced round) per workload."""
    return {name: harness.measure(name, SEED, 0, trace=True) for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_fingerprint(traced, name):
    result = traced[name]
    assert result.correct, result.problems
    untraced, first_traced = result.rounds[0], result.rounds[1]
    assert untraced.layers is None and first_traced.layers is not None
    assert first_traced.fingerprint == untraced.fingerprint


def test_traced_run_reports_every_per_layer_metric(traced):
    expected = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    for result in traced.values():
        assert [(name, unit) for name, (_, unit) in result.metrics.items()] == expected


def test_untraced_run_reports_every_end_to_end_metric():
    result = harness.measure("file_churn", SEED, 0, trace=False)
    assert result.correct, result.problems
    assert len(result.rounds) == harness.MIN_ROUNDS
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit) in result.metrics.items()} == expected
    assert all(value > 0 for value, _ in result.metrics.values())
    summary = result.summary()
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["failed"] == 0


def test_no_wrapper_left_installed_after_a_traced_run(traced):
    before = spans.installed_state()
    assert all(
        not hasattr(fn, "__wrapped__") for fn in before.values() if fn is not None
    )
    recorder = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with spans.instrumented(recorder):
            assert spans.installed_state() != before
            raise RuntimeError("a workload failed mid-run")
    assert spans.installed_state() == before


def test_self_time_excludes_child_spans():
    recorder = spans.SpanRecorder()

    class Outer:
        def run(self, inner):
            return inner.run()

    class Inner:
        def run(self):
            return sum(range(10_000))

    outer = recorder.wrap(0, "Outer.run", Outer.run)
    inner = recorder.wrap(1, "Inner.run", Inner.run)
    Outer.run, Inner.run = outer, inner
    recorder.active = True
    Outer().run(Inner())
    recorder.active = False
    (name_o, start_o, end_o, parent_o), (name_i, start_i, end_i, parent_i) = recorder.spans
    assert (name_o, parent_o, name_i, parent_i) == ("Outer.run", -1, "Inner.run", 0)
    assert start_o <= start_i <= end_i <= end_o
    assert recorder.calls[:2] == [1, 1]
    assert recorder.self_ns[1] == end_i - start_i
    assert recorder.self_ns[0] == (end_o - start_o) - (end_i - start_i)


def test_fleet_replays_run_tenants_exactly():
    fleet = TenantFleet(SEED)
    fleet.setup()
    fleet.run()
    mine = fleet.report()
    reference = run_tenants(
        tenants=TenantFleet.TENANTS, seed=SEED, requests_per_tenant=TenantFleet.REQUESTS
    )
    assert mine.counters == reference.counters
    assert [(r.spec.name, r.requests_done, r.requests_total, r.killed) for r in mine.results] == [
        (r.spec.name, r.requests_done, r.requests_total, r.killed) for r in reference.results
    ]
    assert mine.problems() == reference.problems() == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_bears_out_the_prediction_table(traced, name):
    metrics = traced[name].metrics
    table = PREDICTIONS["workloads"][name]
    for layer in table["stresses"]:
        assert metrics[f"{layer}.calls"][0] > 0, layer
    for layer in table["bypasses"]:
        assert metrics[f"{layer}.calls"][0] == 0, layer


def test_prediction_smoke(traced):
    calls = {name: {m: v for m, (v, _) in r.metrics.items()} for name, r in traced.items()}
    assert [n for n in sorted(calls) if calls[n]["mem.bitmap.calls"]] == ["file_churn"]
    assert [n for n in sorted(calls) if calls[n]["vm.reclaimd.calls"]] == ["tenant_fleet"]
    assert calls["access_stream"]["vm.addrspace.faults"] == 0
    fleet = calls["tenant_fleet"]
    self_ms = {layer: fleet[f"{layer}.self_ms"] for layer in spans.LAYER_NAMES}
    assert max(self_ms, key=self_ms.get) == "vm.reclaimd"


def test_benchmark_fails_without_the_simulator_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "file_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

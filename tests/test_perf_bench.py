"""Bench registry, runner, and BENCH_tier1.json schema round-trips."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf.bench import (
    FULL_ROUNDS,
    QUICK_BATCH_DIVISOR,
    QUICK_ROUNDS,
    SCHEMA,
    SCHEMA_VERSION,
    TIER1_OPS,
    OpResult,
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

REPO_ROOT = Path(__file__).resolve().parent.parent

FAKE_ENV = {
    "python": "3.0.0",
    "implementation": "CPython",
    "platform": "test",
    "machine": "test",
    "cpus": 1,
    "calibration_ns": 1_000_000.0,
}


def fake_results(**medians: float):
    return [
        OpResult(name=name, median_ns=ns, ops_per_sec=1e9 / ns,
                 rounds=3, batch=8)
        for name, ns in medians.items()
    ]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registry_covers_at_least_twelve_unique_ops(self):
        names = [op.name for op in TIER1_OPS]
        assert len(names) == len(set(names))
        assert len(names) >= 12  # the issue's trajectory floor

    def test_ops_by_name_filters_and_rejects_unknown(self):
        subset = ops_by_name(["kernel.fork", "pmfs.read"])
        assert [op.name for op in subset] == ["kernel.fork", "pmfs.read"]
        assert len(ops_by_name()) == len(TIER1_OPS)
        with pytest.raises(KeyError, match="no.such.op"):
            ops_by_name(["no.such.op"])

    def test_quick_batch_is_divided_with_floor_one(self):
        for op in TIER1_OPS:
            assert op.batch_for(quick=False) == op.batch
            assert op.batch_for(quick=True) == max(
                1, op.batch // QUICK_BATCH_DIVISOR
            )

    def test_every_op_prepares_and_runs(self):
        # One invocation per op: prepare() must hand back a callable that
        # survives at least one call on a fresh machine.
        for op in TIER1_OPS:
            fn = op.prepare()
            fn()


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class TestRunner:
    def test_run_op_median_uses_injected_clock(self):
        op = ops_by_name(["syscall.mmap_anon"])[0]
        ticks = iter(range(0, 10**9, 1000))
        result = run_op(op, rounds=2, quick=True,
                        clock_ns=lambda: next(ticks))
        # Each round reads the clock twice -> elapsed exactly 1000 ns.
        assert result.median_ns == 1000 / op.batch_for(True)
        assert result.rounds == 2
        assert result.batch == op.batch_for(True)

    def test_run_op_rejects_zero_rounds(self):
        with pytest.raises(ValueError, match="rounds"):
            run_op(TIER1_OPS[0], rounds=0)

    def test_run_suite_subset_and_progress(self):
        seen = []
        results = run_suite(
            names=["kernel.spawn_exit"], quick=True, rounds=1,
            progress=seen.append,
        )
        assert [r.name for r in results] == ["kernel.spawn_exit"]
        assert results[0].median_ns > 0
        assert len(seen) == 1 and "kernel.spawn_exit" in seen[0]

    def test_round_defaults(self):
        assert QUICK_ROUNDS < FULL_ROUNDS

    def test_results_table_lists_every_op(self):
        table = results_table(fake_results(**{"a.b": 10.0, "c.d": 20.0}))
        assert "a.b" in table and "c.d" in table

    def test_calibrate_positive(self):
        assert calibrate(rounds=1) > 0


# ----------------------------------------------------------------------
# Document schema
# ----------------------------------------------------------------------
class TestDocument:
    def test_build_and_validate(self):
        document = build_document(
            fake_results(**{"x.y": 123.0}), env=FAKE_ENV, mode="quick"
        )
        assert document["schema"] == SCHEMA
        assert document["version"] == SCHEMA_VERSION
        assert validate_document(document) == []

    def test_write_load_round_trip(self, tmp_path):
        document = build_document(
            fake_results(**{"x.y": 123.0, "z.w": 5.5}), env=FAKE_ENV
        )
        path = tmp_path / "bench.json"
        write_document(str(path), document)
        assert load_document(str(path)) == document
        # Stable serialization: keys sorted, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(
            document, indent=1, sort_keys=True
        ) + "\n"

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.pop("ops"), "ops block"),
            (lambda d: d.update(schema="other/v9"), "schema"),
            (lambda d: d.update(version=99), "version"),
            (lambda d: d["env"].pop("calibration_ns"), "calibration_ns"),
            (lambda d: d["ops"]["x.y"].update(median_ns=-1), "median_ns"),
            (lambda d: d["ops"]["x.y"].update(rounds=0), "rounds"),
        ],
    )
    def test_validate_rejects_broken_documents(self, mutate, fragment):
        document = build_document(
            fake_results(**{"x.y": 123.0}), env=dict(FAKE_ENV)
        )
        document["env"] = dict(FAKE_ENV)
        mutate(document)
        problems = validate_document(document)
        assert problems
        assert any(fragment in problem for problem in problems)

    def test_load_document_raises_on_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"schema\": \"nope\"}\n")
        with pytest.raises(ValueError, match="not a valid"):
            load_document(str(path))

    def test_env_fingerprint_shape(self):
        env = env_fingerprint(calibration_ns=42.0)
        assert env["calibration_ns"] == 42.0
        for key in ("python", "implementation", "platform", "machine",
                    "cpus"):
            assert key in env


# ----------------------------------------------------------------------
# The committed trajectory itself
# ----------------------------------------------------------------------
class TestCommittedBaseline:
    def test_committed_baseline_is_valid_and_complete(self):
        document = load_document(str(REPO_ROOT / "BENCH_tier1.json"))
        ops = document["ops"]
        assert len(ops) >= 12
        # Every registered op is in the committed trajectory and vice
        # versa — a drift either way silently weakens the CI gate.
        assert set(ops) == {op.name for op in TIER1_OPS}


# ----------------------------------------------------------------------
# Merging runs into a baseline
# ----------------------------------------------------------------------
def _run_document(calibration_ns, mode="full", **medians):
    return build_document(
        fake_results(**medians),
        env=dict(FAKE_ENV, calibration_ns=calibration_ns),
        mode=mode,
    )


class TestMergeDocuments:
    def test_copies_of_one_document_merge_to_it(self):
        document = _run_document(3_000_000.0, **{"x.y": 123.0, "z.w": 5.5})
        assert merge_documents([document] * 3) == document
        assert merge_documents([document]) == document

    def test_medians_are_scaled_to_the_median_calibration(self):
        # The second run's host was half as fast: calibration and every
        # op doubled.  Scaled to the common calibration they agree.
        slow = _run_document(2_000_000.0, **{"x.y": 200.0, "z.w": 60.0})
        fast = _run_document(1_000_000.0, **{"x.y": 100.0, "z.w": 30.0})
        merged = merge_documents([fast, slow])
        assert merged["env"]["calibration_ns"] == 1_500_000.0
        assert merged["ops"]["x.y"]["median_ns"] == pytest.approx(150.0)
        assert merged["ops"]["z.w"]["median_ns"] == pytest.approx(45.0)
        assert merged["ops"]["x.y"]["ops_per_sec"] == pytest.approx(1e9 / 150.0)
        assert validate_document(merged) == []

    def test_median_over_runs_drops_an_outlier(self):
        runs = [
            _run_document(1_000_000.0, **{"x.y": ns})
            for ns in (100.0, 104.0, 900.0, 98.0, 101.0)
        ]
        assert merge_documents(runs)["ops"]["x.y"]["median_ns"] == 101.0

    @pytest.mark.parametrize(
        "documents, fragment",
        [
            ([], "no bench documents"),
            (
                [
                    _run_document(1e6, **{"x.y": 1.0}),
                    _run_document(1e6, mode="quick", **{"x.y": 1.0}),
                ],
                "different modes",
            ),
            (
                [
                    _run_document(1e6, **{"x.y": 1.0}),
                    _run_document(1e6, **{"x.y": 1.0, "z.w": 2.0}),
                ],
                "other ops",
            ),
            ([{"schema": "nope"}], "invalid"),
        ],
    )
    def test_mismatched_inputs_raise(self, documents, fragment):
        with pytest.raises(ValueError, match=fragment):
            merge_documents(documents)

"""`repro-o1 bench` / `repro-o1 profile` CLI surface and exit codes."""

from __future__ import annotations

import pstats

from repro.cli import main
from repro.perf.bench import load_document, write_document

#: One cheap op keeps every CLI test to a fraction of a second.
FAST = ["--op", "kernel.spawn_exit", "--rounds", "1", "--quick"]


class TestBench:
    def test_bench_runs_and_prints_table(self, capsys):
        assert main(["bench", *FAST]) == 0
        out = capsys.readouterr().out
        assert "kernel.spawn_exit" in out
        assert "calibration:" in out

    def test_bench_verbose_progress(self, capsys):
        assert main(["bench", *FAST, "-v"]) == 0
        assert "ops/s" in capsys.readouterr().out

    def test_bench_json_writes_valid_document(self, tmp_path):
        path = tmp_path / "bench.json"
        assert main(["bench", *FAST, "--json", str(path)]) == 0
        document = load_document(str(path))
        assert document["mode"] == "quick"
        assert set(document["ops"]) == {"kernel.spawn_exit"}

    def test_compare_pass_exits_zero(self, tmp_path, capsys):
        # Commit a baseline, then rewrite it pretending the op used to
        # take a day — slower than any real run, however loaded the host,
        # even after calibration scaling (clamped at 0.2x) — so the gate
        # must pass: the exit-code plumbing is what's under test here.
        baseline = tmp_path / "baseline.json"
        assert main(["bench", *FAST, "--json", str(baseline)]) == 0
        document = load_document(str(baseline))
        document["ops"]["kernel.spawn_exit"]["median_ns"] = 86_400e9
        write_document(str(baseline), document)
        assert main(["bench", *FAST, "--compare", str(baseline)]) == 0
        assert "no wall-clock regressions" in capsys.readouterr().out

    def test_compare_missing_baseline_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "never-written.json"
        assert main(["bench", *FAST, "--compare", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_compare_regression_exits_one(self, tmp_path, capsys):
        # Commit a baseline, then rewrite it pretending the op used to
        # run in 1 ns — faster than any real run by orders of magnitude,
        # beyond what tolerance or calibration scaling (clamped at 0.2x)
        # could forgive — so the gate must go red.
        baseline = tmp_path / "baseline.json"
        assert main(["bench", *FAST, "--json", str(baseline)]) == 0
        document = load_document(str(baseline))
        document["ops"]["kernel.spawn_exit"]["median_ns"] = 1.0
        write_document(str(baseline), document)
        assert main(["bench", *FAST, "--compare", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "reproduce with" in out

    def test_unknown_op_exits_two(self, capsys):
        # Exit 1 means a regression; a typo in an op name is a usage error.
        assert main(["bench", "--op", "no.such.op", "--quick"]) == 2
        captured = capsys.readouterr()
        assert "no.such.op" in captured.err
        assert "kernel.spawn_exit" in captured.err  # the known names
        assert "calibration:" not in captured.out  # nothing was run


class TestProfile:
    def test_profile_prints_correlation(self, capsys):
        assert main(["profile", "--mib", "2"]) == 0
        out = capsys.readouterr().out
        assert "sim-cost vs wall-cost correlation" in out
        assert "spans sampled" in out

    def test_profile_exports(self, tmp_path):
        folded = tmp_path / "profile.folded"
        stats_path = tmp_path / "profile.pstats"
        assert main([
            "profile", "--mib", "2",
            "--folded", str(folded), "--pstats", str(stats_path),
        ]) == 0
        assert folded.read_text().splitlines()
        assert pstats.Stats(str(stats_path)).stats

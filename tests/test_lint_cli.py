"""repro-o1 lint subcommand.

Option and exit-code checks run on a small fixture package via
``--root``; one test runs the whole gate over the shipped tree.
"""

import ast
import json
import shutil
import tokenize
from pathlib import Path

import pytest

import repro
from repro.cli import main

REPRO_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(scope="module")
def clean_root(tmp_path_factory):
    """A ``repro`` package holding only the planted controls: the o1
    and alloc passes verify every control and find nothing else."""
    root = tmp_path_factory.mktemp("clean") / "repro"
    (root / "lint").mkdir(parents=True)
    shutil.copy(REPRO_ROOT / "lint" / "controls.py", root / "lint")
    return root


class TestLintCommand:
    def test_lint_clean_exits_zero(self, capsys, clean_root):
        assert main(["lint", "--root", str(clean_root)]) == 0
        out = capsys.readouterr().out
        assert "o1 flow:" in out
        assert "0 finding(s), 2/2 controls verified" in out

    def test_lint_json_report(self, capsys, clean_root, tmp_path):
        path = tmp_path / "lint_report.json"
        assert main(
            ["lint", "--root", str(clean_root), "--json", str(path)]
        ) == 0
        report = json.loads(path.read_text())
        assert report["version"] == 5
        assert report["o1"]["findings"] == []
        assert report["o1"]["declared"] == 1
        assert report.get("lint") is None
        assert report.get("fit") is None
        assert report.get("alloc") is None

    def test_lint_fit_single_op(self, capsys, clean_root, tmp_path):
        path = tmp_path / "lint_report.json"
        assert main(
            ["lint", "--root", str(clean_root), "--fit",
             "--op", "rangetrans.map_file", "--json", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "o1 fit: 1 operation(s)" in out
        assert "rangetrans.map_file" in out
        report = json.loads(path.read_text())
        ops = report["fit"]["operations"]
        assert len(ops) == 1
        assert ops[0]["ok"] is True
        assert ops[0]["fitted"] == "O(1)"

    def test_lint_fit_flags_control(self, capsys, clean_root):
        assert main(
            ["lint", "--root", str(clean_root), "--fit",
             "--op", "fom.demand_touch"]
        ) == 0
        out = capsys.readouterr().out
        assert "[control]" in out
        assert "fitted O(n)" in out

    def test_dirty_tree_exits_one(self, capsys, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "from repro.lint import o1\n\n@o1\ndef b(pages):\n"
            "    for p in pages:\n        x(p)\n"
        )
        assert main(["lint", "--root", str(pkg)]) == 1
        out = capsys.readouterr().out
        assert "flow-cost-exceeds-declared" in out

    def test_missing_root_exits_two(self, capsys, tmp_path):
        assert main(["lint", "--root", str(tmp_path / "nope")]) == 2

    def test_unknown_op_exits_two(self, capsys):
        # Exit 1 means a finding; a typo in an op name is a usage error.
        assert main(["lint", "--fit", "--op", "no.such.op"]) == 2
        err = capsys.readouterr().err
        assert "no.such.op" in err
        assert "rangetrans.map_file" in err  # the known names are listed

    def test_dot_alone_writes_the_graph(self, capsys, clean_root, tmp_path):
        dot_path = tmp_path / "callgraph.dot"
        assert main(
            ["lint", "--root", str(clean_root), "--dot", str(dot_path)]
        ) == 0
        assert dot_path.read_text().startswith("digraph")

    def test_op_without_fit_exits_two(self, capsys):
        assert main(["lint", "--op", "rangetrans.map_file"]) == 2
        assert "--fit" in capsys.readouterr().err

    def test_interproc_clean_with_artifacts(self, capsys, clean_root, tmp_path):
        report_path = tmp_path / "lint_report.json"
        dot_path = tmp_path / "callgraph.dot"
        assert main(
            ["lint", "--root", str(clean_root), "--json", str(report_path),
             "--dot", str(dot_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "o1 flow:" in out
        assert "0 finding(s)" in out
        assert "2/2 controls verified" in out
        assert "0 stale suppression(s)" in out
        assert dot_path.read_text().startswith("digraph")
        report = json.loads(report_path.read_text())
        assert report["version"] == 5
        assert report["o1"]["findings"] == []
        assert len(report["o1"]["controls_verified"]) == 2
        assert report["o1"]["stale_suppressions"] == []

    def test_alloc_clean_with_artifacts(self, capsys, monkeypatch, tmp_path):
        """The whole gate over the shipped tree, as CI runs it: each
        source file is parsed once and tokenized once."""
        parsed = []
        tokenized = []
        real_parse = ast.parse
        real_tokens = tokenize.generate_tokens

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            if filename.endswith(".py"):
                parsed.append(filename)
            return real_parse(source, filename, *args, **kwargs)

        def counting_tokens(readline):
            tokenized.append(readline)
            return real_tokens(readline)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(tokenize, "generate_tokens", counting_tokens)
        report_path = tmp_path / "lint_report.json"
        dot_path = tmp_path / "callgraph.dot"
        assert main(
            ["lint", "--alloc", "--json", str(report_path),
             "--dot", str(dot_path)]
        ) == 0
        monkeypatch.undo()
        package = Path(repro.__file__).resolve().parent
        sources = sorted(str(p) for p in package.rglob("*.py"))
        assert sorted(parsed) == sources
        assert len(tokenized) == len(sources)
        out = capsys.readouterr().out
        assert "0 finding(s), 2/2 controls verified, 0 stale suppression(s)" in out
        assert "o1 alloc:" in out
        assert "1/1 controls verified" in out
        assert "allocfit: 3 op(s) cross-checked" in out
        assert dot_path.read_text().startswith("digraph")
        report = json.loads(report_path.read_text())
        assert report["version"] == 5
        assert report["o1"]["findings"] == []
        section = report["alloc"]
        assert section["findings"] == []
        assert section["stale_suppressions"] == []
        assert len(section["controls_verified"]) == 1
        fit_rows = section["allocfit"]
        assert all(row["ok"] for row in fit_rows)
        assert {row["name"] for row in fit_rows} == {
            "access.tlb_hit", "access.tlb_miss_walk",
            "control.allocfree_retaining",
        }

    def test_alloc_dirty_tree_exits_one(self, capsys, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "from repro.lint import allocfree\n\n"
            "@allocfree\ndef hot(x):\n    return [x]\n"
        )
        assert main(["lint", "--alloc", "--root", str(pkg)]) == 1
        out = capsys.readouterr().out
        assert "alloc-exceeds-declared" in out

    def test_alloc_stale_allow_alone_exits_one(self, capsys, tmp_path):
        # The planted controls plus one dead `# alloc: allow`: no
        # finding, every control verified, and still a failing gate.
        root = tmp_path / "repro"
        (root / "lint").mkdir(parents=True)
        shutil.copy(REPRO_ROOT / "lint" / "controls.py", root / "lint")
        (root / "quiet.py").write_text(
            "def quiet(x):\n"
            "    return x  # alloc: allow(list-display) -- dead\n"
        )
        assert main(["lint", "--alloc", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "0 finding(s), 2/2 controls verified, 0 stale suppression(s)" in out
        assert "0 finding(s), 1/1 controls verified, 1 stale suppression(s)" in out
        assert "stale suppression # alloc: allow(list-display)" in out

    def test_interproc_dirty_tree_exits_one(self, capsys, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "from repro.lint import o1\n\n"
            "@o1\ndef entry(pages):\n    return helper(pages)\n\n"
            "def helper(pages):\n"
            "    total = 0\n"
            "    for p in pages:\n        total += p\n"
            "    return total\n"
        )
        assert main(["lint", "--root", str(pkg)]) == 1
        out = capsys.readouterr().out
        assert "flow-cost-exceeds-declared" in out

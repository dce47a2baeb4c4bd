"""The o1 pass on synthetic one-module packages.

Loop shape is judged by the call-graph cost summaries
(``flow-cost-exceeds-declared``); recursion and persist ordering by the
two intraprocedural rules the pass runs on every function.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint.astcheck import (
    RULE_PERSIST_OUTSIDE_TXN,
    RULE_RECURSION,
    module_name_for,
)
from repro.lint.flow import RULE_CONTROL_MISSING, run_flow
from repro.lint.protocols import RULE_FLOW_PERSIST, RULE_STALE_TRANSLATION
from repro.lint.summaries import RULE_COST_EXCEEDS


def lint(tmp_path: Path, source: str):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "synthetic.py").write_text(textwrap.dedent(source))
    return run_flow(pkg, package="pkg")


def findings(result):
    """Findings minus the planted-control noise a throwaway tree makes."""
    return [f for f in result.findings if f.rule != RULE_CONTROL_MISSING]


def rules(result):
    return [f.rule for f in findings(result)]


class TestSizeLoops:
    def test_clean_o1_function_passes(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import o1

            @o1
            def f(table, key):
                return table.get(key)
            """,
        )
        assert findings(result) == []
        assert result.declared == 1

    def test_size_loop_in_o1_flags(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import o1

            @o1
            def f(pages):
                for page in pages:
                    touch(page)
            """,
        )
        assert rules(result) == [RULE_COST_EXCEEDS]
        assert findings(result)[0].function == "pkg.synthetic.f"

    def test_comprehension_flags_too(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import o1

            @o1
            def f(entries):
                return [e for e in entries if e.live]
            """,
        )
        assert rules(result) == [RULE_COST_EXCEEDS]

    def test_constant_bounded_loop_passes(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import o1

            @o1
            def f():
                total = 0
                for i in range(4):
                    total += i
                return total
            """,
        )
        assert findings(result) == []

    def test_undecorated_function_ignored(self, tmp_path):
        result = lint(
            tmp_path,
            """
            def f(pages):
                for page in pages:
                    touch(page)
            """,
        )
        assert findings(result) == []
        assert result.declared == 0

    def test_linear_class_tolerates_depth_one_loop(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import complexity

            @complexity("n")
            def f(pages):
                for page in pages:
                    touch(page)
            """,
        )
        assert findings(result) == []

    def test_linear_class_flags_nested_size_loops(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import complexity

            @complexity("n")
            def f(vmas):
                for vma in vmas:
                    for page in vma.pages:
                        touch(page)
            """,
        )
        assert rules(result) == [RULE_COST_EXCEEDS]
        assert "nested in an unbounded loop" in findings(result)[0].chain[0].note


class TestChargeAndRecursion:
    def test_charge_inside_loop_flags(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import o1

            class Walker:
                @o1
                def f(self, items):
                    for item in items:
                        self.clock.advance(10)
            """,
        )
        assert rules(result) == [RULE_COST_EXCEEDS]

    def test_recursion_in_o1_flags(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import o1

            @o1
            def f(node):
                if node.child:
                    return f(node.child)
                return node
            """,
        )
        assert rules(result) == [RULE_RECURSION]
        assert "recursive call to f()" in findings(result)[0].message

    def test_call_inside_nested_def_is_not_recursion(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import o1

            @o1
            def f(node):
                def helper():
                    return f
                return helper
            """,
        )
        assert findings(result) == []


#: (rule, module) pairs: the line above ``# second`` commits the same
#: violation and carries a trailing allow for ``rule``.
_TRAILING_ALLOWS = (
    (
        RULE_PERSIST_OUTSIDE_TXN,
        """
        class Fs:
            def op(self, record):
                self._apply_alloc(record)  # o1: allow(persist-outside-txn) -- redo
                self._apply_free(record)  # second
        """,
    ),
    (
        RULE_RECURSION,
        """
        from repro.lint import o1

        @o1
        def f(node):
            left = f(node.left)  # o1: allow(o1-recursion) -- two levels at most
            return f(node.right)  # second
        """,
    ),
    (
        RULE_STALE_TRANSLATION,
        """
        class PageTable:
            def unmap(self, va):
                return va

        class Syscalls:
            def __init__(self, pt: PageTable) -> None:
                self._pt = pt

            def munmap(self, va):
                self._pt.unmap(va)  # o1: allow(flow-stale-translation) -- fresh hole
                self._pt.unmap(va + 1)  # second
                return 0
        """,
    ),
    (
        RULE_FLOW_PERSIST,
        """
        def op(fs):
            fs._apply_alloc(None)  # o1: allow(persist-outside-txn, flow-persist-outside-txn) -- redo
            fs._apply_free(None)  # second
        """,
    ),
)


class TestInlineAllows:
    def test_allow_on_flagged_line(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import o1

            @o1
            def f(pages):
                for page in pages:  # o1: allow(flow-bounded) -- bounded
                    touch(page)
            """,
        )
        assert findings(result) == []
        assert result.stale_suppressions == []

    def test_allow_on_previous_line(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import o1

            @o1
            def f(pages):
                # o1: allow(flow-bounded) -- bounded by geometry
                for page in pages:
                    touch(page)
            """,
        )
        assert findings(result) == []
        assert result.stale_suppressions == []

    def test_allow_on_def_line_covers_body(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import o1

            @o1
            def f(pages):  # o1: allow(flow-bounded) -- whole function
                for page in pages:
                    touch(page)
                stale = [p for p in pages]
            """,
        )
        assert findings(result) == []
        assert result.stale_suppressions == []

    def test_allow_for_other_rule_does_not_suppress(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import o1

            @o1
            def f(pages):
                for page in pages:  # o1: allow(o1-recursion) -- wrong rule
                    touch(page)
            """,
        )
        assert rules(result) == [RULE_COST_EXCEEDS]
        (stale,) = result.stale_suppressions
        assert stale.rules == (RULE_RECURSION,)

    @pytest.mark.parametrize(
        "rule,source", _TRAILING_ALLOWS, ids=[rule for rule, _ in _TRAILING_ALLOWS]
    )
    def test_trailing_allow_does_not_excuse_the_next_line(self, tmp_path, rule, source):
        """An allow after code speaks for its own line only; the same
        violation on the line below stays a finding."""
        source = textwrap.dedent(source)
        (second,) = [
            number
            for number, text in enumerate(source.splitlines(), start=1)
            if text.rstrip().endswith("# second")
        ]
        result = lint(tmp_path, source)
        assert (rule, second) in {(f.rule, f.line) for f in findings(result)}


class TestTreeAndBaseline:
    def test_module_name_for(self):
        root = Path("/x/src/repro")
        assert (
            module_name_for(root / "mem" / "buddy.py", root, "repro")
            == "repro.mem.buddy"
        )
        assert module_name_for(root / "__init__.py", root, "repro") == "repro"

    def test_lint_tree_walks_files(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "good.py").write_text(
            "from repro.lint import o1\n\n@o1\ndef g():\n    return 1\n"
        )
        (pkg / "bad.py").write_text(
            "from repro.lint import o1\n\n@o1\ndef b(pages):\n"
            "    for p in pages:\n        x(p)\n"
        )
        result = run_flow(pkg, package="pkg")
        assert result.files == 2
        assert result.declared == 2
        assert [f.function for f in findings(result)] == ["pkg.bad.b"]

    def test_violation_format_mentions_rule_and_site(self, tmp_path):
        result = lint(
            tmp_path,
            """
            from repro.lint import o1

            @o1
            def f(pages):
                for page in pages:
                    touch(page)
            """,
        )
        text = findings(result)[0].format()
        assert RULE_COST_EXCEEDS in text
        assert "pkg.synthetic.f" in text


class TestPersistOutsideTxn:
    def persist(self, result):
        return [f for f in result.findings if f.rule == RULE_PERSIST_OUTSIDE_TXN]

    def test_apply_without_commit_flags(self, tmp_path):
        result = lint(
            tmp_path,
            """
            class Fs:
                def sneaky(self, record):
                    self._apply_alloc(record)
            """,
        )
        (finding,) = self.persist(result)
        assert finding.function == "pkg.synthetic.Fs.sneaky"
        assert RULE_PERSIST_OUTSIDE_TXN in finding.format()
        assert "_apply_alloc" in finding.message

    def test_commit_before_apply_passes(self, tmp_path):
        result = lint(
            tmp_path,
            """
            class Fs:
                def txn(self, record):
                    self._journal_begin(record)
                    self._journal_commit(record)
                    self._apply_shrink(record)
            """,
        )
        assert findings(result) == []

    def test_commit_after_apply_still_flags(self, tmp_path):
        result = lint(
            tmp_path,
            """
            class Fs:
                def backwards(self, record):
                    self._apply_free(record)
                    self._journal_commit(record)
            """,
        )
        assert len(self.persist(result)) == 1

    def test_rule_fires_in_undeclared_functions(self, tmp_path):
        # Unlike the cost rules, no @o1/@complexity declaration is
        # needed: every function is inside the persist contract.
        result = lint(
            tmp_path,
            """
            def helper(fs, record):
                fs._apply_alloc(record)
            """,
        )
        assert len(self.persist(result)) == 1
        assert result.declared == 0

    def test_apply_implementations_are_exempt(self, tmp_path):
        result = lint(
            tmp_path,
            """
            class Fs:
                def _apply_alloc(self, record):
                    self._apply_alloc_extent(record)
            """,
        )
        assert findings(result) == []

    def test_allow_comment_suppresses(self, tmp_path):
        result = lint(
            tmp_path,
            """
            class Fs:
                def crash_redo(self, record):
                    # o1: allow(persist-outside-txn) -- committed redo
                    self._apply_free(record)
            """,
        )
        assert self.persist(result) == []
        assert result.stale_suppressions == []

    def test_nested_def_is_its_own_scope(self, tmp_path):
        # The inner function applies without committing; the outer
        # commit must not excuse it.
        result = lint(
            tmp_path,
            """
            class Fs:
                def outer(self, record):
                    self._journal_commit(record)
                    def inner():
                        self._apply_alloc(record)
                    return inner
            """,
        )
        assert [f.function for f in self.persist(result)] == [
            "pkg.synthetic.Fs.outer.inner"
        ]

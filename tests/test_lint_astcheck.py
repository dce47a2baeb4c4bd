"""AST cost-shape linter on synthetic sources."""

import textwrap
from pathlib import Path

from repro.lint.astcheck import lint_source, lint_tree, module_name_for


def lint(source: str):
    return lint_source(textwrap.dedent(source), module="synthetic")


class TestSizeLoops:
    def test_clean_o1_function_passes(self):
        result = lint(
            """
            from repro.lint import o1

            @o1
            def f(table, key):
                return table.get(key)
            """
        )
        assert result.violations == []
        assert result.functions_checked == 1

    def test_size_loop_in_o1_flags(self):
        result = lint(
            """
            from repro.lint import o1

            @o1
            def f(pages):
                for page in pages:
                    touch(page)
            """
        )
        assert len(result.violations) == 1
        assert result.violations[0].rule == "o1-size-loop"
        assert result.violations[0].function == "synthetic.f"

    def test_comprehension_flags_too(self):
        result = lint(
            """
            from repro.lint import o1

            @o1
            def f(entries):
                return [e for e in entries if e.live]
            """
        )
        assert [v.rule for v in result.violations] == ["o1-size-loop"]

    def test_constant_bounded_loop_passes(self):
        result = lint(
            """
            from repro.lint import o1

            @o1
            def f():
                total = 0
                for i in range(4):
                    total += i
                return total
            """
        )
        assert result.violations == []

    def test_undecorated_function_ignored(self):
        result = lint(
            """
            def f(pages):
                for page in pages:
                    touch(page)
            """
        )
        assert result.violations == []
        assert result.functions_checked == 0

    def test_linear_class_tolerates_depth_one_loop(self):
        result = lint(
            """
            from repro.lint import complexity

            @complexity("n")
            def f(pages):
                for page in pages:
                    touch(page)
            """
        )
        assert result.violations == []

    def test_linear_class_flags_nested_size_loops(self):
        result = lint(
            """
            from repro.lint import complexity

            @complexity("n")
            def f(vmas):
                for vma in vmas:
                    for page in vma.pages:
                        touch(page)
            """
        )
        assert [v.rule for v in result.violations] == ["o1-nested-size-loop"]


class TestChargeAndRecursion:
    def test_charge_inside_loop_flags(self):
        result = lint(
            """
            from repro.lint import o1

            @o1
            def f(self, items):
                for item in items:
                    self.clock.advance(10)
            """
        )
        rules = {v.rule for v in result.violations}
        assert "o1-charge-in-loop" in rules

    def test_recursion_in_o1_flags(self):
        result = lint(
            """
            from repro.lint import o1

            @o1
            def f(node):
                if node.child:
                    return f(node.child)
                return node
            """
        )
        assert [v.rule for v in result.violations] == ["o1-recursion"]

    def test_call_inside_nested_def_is_not_recursion(self):
        result = lint(
            """
            from repro.lint import o1

            @o1
            def f(node):
                def helper():
                    return f
                return helper
            """
        )
        assert result.violations == []


class TestInlineAllows:
    def test_allow_on_flagged_line(self):
        result = lint(
            """
            from repro.lint import o1

            @o1
            def f(pages):
                for page in pages:  # o1: allow(o1-size-loop) -- bounded
                    touch(page)
            """
        )
        assert result.violations == []
        assert result.inline_suppressed == 1

    def test_allow_on_previous_line(self):
        result = lint(
            """
            from repro.lint import o1

            @o1
            def f(pages):
                # o1: allow(o1-size-loop) -- bounded by geometry
                for page in pages:
                    touch(page)
            """
        )
        assert result.violations == []
        assert result.inline_suppressed == 1

    def test_allow_on_def_line_covers_body(self):
        result = lint(
            """
            from repro.lint import o1

            @o1
            def f(pages):  # o1: allow(o1-size-loop) -- whole function
                for page in pages:
                    touch(page)
                stale = [p for p in pages]
            """
        )
        assert result.violations == []
        assert result.inline_suppressed == 2

    def test_allow_for_other_rule_does_not_suppress(self):
        result = lint(
            """
            from repro.lint import o1

            @o1
            def f(pages):
                for page in pages:  # o1: allow(o1-recursion) -- wrong rule
                    touch(page)
            """
        )
        assert [v.rule for v in result.violations] == ["o1-size-loop"]


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
        result = lint_tree(pkg, package="pkg")
        assert result.files_checked == 2
        assert result.functions_checked == 2
        assert [v.function for v in result.violations] == ["pkg.bad.b"]

    def test_violation_format_mentions_rule_and_site(self):
        result = lint(
            """
            from repro.lint import o1

            @o1
            def f(pages):
                for page in pages:
                    touch(page)
            """
        )
        text = result.violations[0].format()
        assert "o1-size-loop" in text
        assert "synthetic.f" in text


class TestPersistOutsideTxn:
    def test_apply_without_commit_flags(self):
        result = lint(
            """
            class Fs:
                def sneaky(self, record):
                    self._apply_alloc(record)
            """
        )
        assert [v.rule for v in result.violations] == ["persist-outside-txn"]
        violation = result.violations[0]
        assert violation.declared is None
        assert "persist-outside-txn" in violation.format()
        assert "_apply_alloc" in violation.message

    def test_commit_before_apply_passes(self):
        result = lint(
            """
            class Fs:
                def txn(self, record):
                    self._journal_begin(record)
                    self._journal_commit(record)
                    self._apply_shrink(record)
            """
        )
        assert result.violations == []

    def test_commit_after_apply_still_flags(self):
        result = lint(
            """
            class Fs:
                def backwards(self, record):
                    self._apply_free(record)
                    self._journal_commit(record)
            """
        )
        assert [v.rule for v in result.violations] == ["persist-outside-txn"]

    def test_rule_fires_in_undeclared_functions(self):
        # Unlike the cost-shape rules, no @o1/@complexity declaration is
        # needed: every function is inside the persist contract.
        result = lint(
            """
            def helper(fs, record):
                fs._apply_alloc(record)
            """
        )
        assert [v.rule for v in result.violations] == ["persist-outside-txn"]
        assert result.functions_checked == 0  # not a declared function

    def test_apply_implementations_are_exempt(self):
        result = lint(
            """
            class Fs:
                def _apply_alloc(self, record):
                    self._apply_alloc_extent(record)
            """
        )
        assert result.violations == []

    def test_allow_comment_suppresses(self):
        result = lint(
            """
            class Fs:
                def crash_redo(self, record):
                    # o1: allow(persist-outside-txn) -- committed redo
                    self._apply_free(record)
            """
        )
        assert result.violations == []
        assert result.inline_suppressed == 1

    def test_nested_def_is_its_own_scope(self):
        # The inner function applies without committing; the outer
        # commit must not excuse it.
        result = lint(
            """
            class Fs:
                def outer(self, record):
                    self._journal_commit(record)
                    def inner():
                        self._apply_alloc(record)
                    return inner
            """
        )
        assert [v.rule for v in result.violations] == ["persist-outside-txn"]

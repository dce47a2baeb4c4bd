"""Static kill matrix: which lint rule catches each planted mutant.

Every mutant below is a small bug of a kind the Order(1) gate exists to
stop, planted in its own module of one throwaway package.  The matrix
records, per mutant, the exact set of rules whose findings name the
function where the bug surfaces.  A rule that no row needs catches
nothing unique; a row whose set comes up empty is a bug the gate lets
through.  The controls at the bottom are clean code that must stay
unflagged.
"""

import textwrap

import pytest

from repro.lint.flow import run_flow

#: A syscall layer over a page table and a TLB; ``body`` is munmap's.
_SYSCALLS = """
class PageTable:
    def unmap(self, va):
        return va

class Tlb:
    def flush_all(self):
        return 0

class Syscalls:
    def __init__(self, pt: PageTable, tlb: Tlb) -> None:
        self._pt = pt
        self._tlb = tlb

    def munmap(self, va, quick):{body}"""

#: (mutant, module source, function the finding lands on, rules).
MATRIX = (
    (
        "unbounded_loop_in_o1",
        """
        from repro.lint import o1

        @o1
        def f(pages):
            for page in pages:
                touch(page)
        """,
        "f",
        {"flow-cost-exceeds-declared"},
    ),
    (
        "charge_in_loop_in_o1",
        """
        from repro.lint import o1

        class Walker:
            @o1
            def f(self, items):
                for item in items:
                    self.clock.advance(10)
        """,
        "Walker.f",
        {"flow-cost-exceeds-declared"},
    ),
    (
        "recursive_o1_function",
        """
        from repro.lint import o1

        @o1
        def f(node):
            if node.child:
                return f(node.child)
            return node
        """,
        "f",
        {"o1-recursion"},
    ),
    (
        "recursive_o1_method",
        """
        from repro.lint import o1

        class Tree:
            @o1
            def find(self, node):
                if node.child:
                    return self.find(node.child)
                return node
        """,
        "Tree.find",
        {"o1-recursion"},
    ),
    (
        "page_loop_in_log_n",
        """
        from repro.lint import complexity

        @complexity("log n")
        def f(frames):
            for frame in frames:
                touch(frame)
        """,
        "f",
        {"flow-cost-exceeds-declared"},
    ),
    (
        "nested_size_loops_in_n",
        """
        from repro.lint import complexity

        @complexity("n")
        def f(vmas):
            for vma in vmas:
                for page in vma.pages:
                    touch(page)
        """,
        "f",
        {"flow-cost-exceeds-declared"},
    ),
    (
        "loop_in_undeclared_helper",
        """
        from repro.lint import o1

        @o1
        def f(pages):
            return _helper(pages)

        def _helper(pages):
            total = 0
            for page in pages:
                total += page
            return total
        """,
        "f",
        {"flow-cost-exceeds-declared"},
    ),
    (
        "apply_before_commit",
        """
        class Fs:
            def op(self, record):
                self._apply_alloc(record)
                self._journal_commit(record)
        """,
        "Fs.op",
        {"persist-outside-txn", "flow-persist-outside-txn"},
    ),
    (
        "apply_after_call_that_may_commit",
        """
        class Fs:
            def _maybe_commit(self, record):
                if record.dirty:
                    self._journal_commit(record)

            def op(self, record):
                self._maybe_commit(record)
                self._apply_alloc(record)
        """,
        "Fs.op",
        {"persist-outside-txn", "flow-persist-outside-txn"},
    ),
    (
        "apply_after_branch_that_may_commit",
        """
        class Fs:
            def op(self, record):
                if record.dirty:
                    self._journal_commit(record)
                self._apply_alloc(record)
        """,
        "Fs.op",
        {"flow-persist-outside-txn"},
    ),
    (
        # Both persist rules stay: only the intra rule sees an apply
        # that precedes its own function's commit when every caller
        # has already committed something else.
        "apply_before_own_commit_in_callee",
        """
        class Fs:
            def _helper(self, record):
                self._apply_alloc(record)
                self._journal_commit(record)

            def op(self, first, second):
                self._journal_commit(first)
                self._helper(second)
        """,
        "Fs._helper",
        {"persist-outside-txn"},
    ),
    (
        "helper_apply_callers_never_commit",
        """
        def op(fs):
            _helper_apply(fs)

        def _helper_apply(fs):
            fs._apply_alloc(None)  # o1: allow(persist-outside-txn) -- caller commits
        """,
        "op",
        {"flow-persist-outside-txn"},
    ),
    (
        "invalidate_skipped_by_early_return",
        _SYSCALLS.format(
            body="""
                self._pt.unmap(va)
                if quick:
                    return 0
                self._tlb.flush_all()
                return 0
            """
        ),
        "Syscalls.munmap",
        {"flow-stale-translation"},
    ),
    (
        "control_constant_loop_in_o1",
        """
        from repro.lint import o1

        @o1
        def f():
            total = 0
            for i in range(4):
                total += i
            return total
        """,
        "f",
        set(),
    ),
    (
        "control_commit_then_apply",
        """
        class Fs:
            def op(self, record):
                self._journal_commit(record)
                self._apply_alloc(record)
        """,
        "Fs.op",
        set(),
    ),
    (
        "control_guarded_invalidate",
        _SYSCALLS.format(
            body="""
                self._pt.unmap(va)
                if quick is not None:
                    self._tlb.flush_all()
                return 0
            """
        ),
        "Syscalls.munmap",
        set(),
    ),
)


@pytest.fixture(scope="module")
def caught(tmp_path_factory):
    """function id -> rules whose findings name it, over every mutant."""
    pkg = tmp_path_factory.mktemp("matrix") / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for name, source, _, _ in MATRIX:
        (pkg / f"{name}.py").write_text(textwrap.dedent(source))
    rules = {}
    for finding in run_flow(pkg, package="pkg").findings:
        rules.setdefault(finding.function, set()).add(finding.rule)
    return rules


@pytest.mark.parametrize(
    "name,function,expected",
    [(name, function, expected) for name, _, function, expected in MATRIX],
    ids=[row[0] for row in MATRIX],
)
def test_mutant_caught_by(caught, name, function, expected):
    assert caught.get(f"pkg.{name}.{function}", set()) == expected

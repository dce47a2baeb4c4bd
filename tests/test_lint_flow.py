"""The o1 conformance pass: repro.lint.flow and friends.

Covers the call-graph builder, the transitive cost summaries, the
must-call protocol checks, the planted controls, stale-suppression
detection, the ``o1`` section of ``lint_report.json`` — and the two
intraprocedural false negatives this pass exists to close, pinned as
regression tests.
"""

import re
import shutil
import textwrap
from pathlib import Path

from repro.lint.astcheck import RULE_PERSIST_OUTSIDE_TXN
from repro.lint.callgraph import build_callgraph
from repro.lint.flow import CONTROLS, RULE_CONTROL_MISSING, run_flow
from repro.lint.protocols import (
    RULE_FLOW_PERSIST,
    RULE_STALE_TRANSLATION,
    compute_protocols,
)
from repro.lint.report import REPORT_VERSION, build_report, render_text
from repro.lint.summaries import (
    RULE_COST_EXCEEDS,
    Cost,
    SummaryTable,
)

REPRO_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def make_pkg(tmp_path: Path, files: dict) -> Path:
    """Materialise a throwaway package for the analyses to chew on."""
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    for name, source in files.items():
        path = pkg / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return pkg


def flow(pkg: Path):
    return run_flow(pkg, package="pkg")


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------
class TestCallGraph:
    def test_module_function_resolution(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            def caller(x):
                return helper(x)

            def helper(x):
                return x
        """})
        graph = build_callgraph(pkg, package="pkg")
        assert "pkg.mod.helper" in list(graph.callees("pkg.mod.caller"))

    def test_self_method_resolution(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            class Thing:
                def outer(self):
                    return self.inner()

                def inner(self):
                    return 1
        """})
        graph = build_callgraph(pkg, package="pkg")
        assert "pkg.mod.Thing.inner" in list(
            graph.callees("pkg.mod.Thing.outer")
        )

    def test_annotated_attribute_dispatch(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            class Dep:
                def run(self):
                    return 1

            class Owner:
                def __init__(self, dep: Dep) -> None:
                    self._dep = dep

                def go(self):
                    return self._dep.run()
        """})
        graph = build_callgraph(pkg, package="pkg")
        assert "pkg.mod.Dep.run" in list(graph.callees("pkg.mod.Owner.go"))

    def test_cross_module_resolution(self, tmp_path):
        pkg = make_pkg(tmp_path, {
            "a.py": """
                from pkg.b import worker

                def caller(x):
                    return worker(x)
            """,
            "b.py": """
                def worker(x):
                    return x
            """,
        })
        graph = build_callgraph(pkg, package="pkg")
        assert "pkg.b.worker" in list(graph.callees("pkg.a.caller"))

    def test_defaulting_ifexp_in_init_resolves(self, tmp_path):
        """``self._dep = dep if dep is not None else Dep()`` — both arms
        agree on the type, so the attribute is typed."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            class Dep:
                def run(self):
                    return 1

            class Owner:
                def __init__(self, dep=None):
                    self._dep = dep if dep is not None else Dep()

                def go(self):
                    return self._dep.run()
        """})
        graph = build_callgraph(pkg, package="pkg")
        assert "pkg.mod.Dep.run" in list(graph.callees("pkg.mod.Owner.go"))

    def test_annotated_ifexp_arm_resolves(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            class Dep:
                def run(self):
                    return 1

            class Owner:
                def __init__(self, dep: Dep, alt: Dep) -> None:
                    self._dep = alt if alt is not None else dep

                def go(self):
                    return self._dep.run()
        """})
        graph = build_callgraph(pkg, package="pkg")
        assert "pkg.mod.Dep.run" in list(graph.callees("pkg.mod.Owner.go"))

    def test_module_level_singleton_resolves(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            class Dep:
                def run(self):
                    return 1

            SINGLETON = Dep()

            def go():
                return SINGLETON.run()
        """})
        graph = build_callgraph(pkg, package="pkg")
        assert graph.module_globals["pkg.mod"]["SINGLETON"] == "pkg.mod.Dep"
        assert "pkg.mod.Dep.run" in list(graph.callees("pkg.mod.go"))

    def test_dot_export_mentions_edges(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            def caller(x):
                return helper(x)

            def helper(x):
                return x
        """})
        graph = build_callgraph(pkg, package="pkg")
        dot = graph.to_dot()
        assert dot.startswith("digraph")
        assert "pkg.mod.caller" in dot
        assert "->" in dot


# ---------------------------------------------------------------------------
# Cost summaries
# ---------------------------------------------------------------------------
class TestSummaries:
    def test_linear_helper_propagates_to_o1_caller(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import o1

            @o1
            def entry(pages):
                return helper(pages)

            def helper(pages):
                total = 0
                for page in pages:
                    total += page
                return total
        """})
        graph = build_callgraph(pkg, package="pkg")
        table = SummaryTable(graph)
        assert table.summaries["pkg.mod.helper"].cost is Cost.LINEAR
        assert table.summaries["pkg.mod.entry"].cost is Cost.LINEAR
        chain = table.witness_chain("pkg.mod.entry")
        assert chain, "exceeding summary must carry a witness chain"

    def test_constant_callee_in_loop_scales_to_linear(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import o1

            @o1
            def tick():
                return 1

            def walk(pages):
                for page in pages:
                    tick()
        """})
        graph = build_callgraph(pkg, package="pkg")
        table = SummaryTable(graph)
        assert table.summaries["pkg.mod.walk"].cost is Cost.LINEAR

    def test_log_callee_in_loop_scales_to_linearithmic(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import complexity

            @complexity("log n")
            def probe(x):
                return x

            def walk(pages):
                for page in pages:
                    probe(page)
        """})
        graph = build_callgraph(pkg, package="pkg")
        table = SummaryTable(graph)
        assert table.summaries["pkg.mod.walk"].cost is Cost.LINEARITHMIC

    def test_for_header_call_is_charged_once(self, tmp_path):
        """A ``for`` iterable runs once, before the first iteration: a
        linear call there is not a linear call per iteration."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import complexity

            class Store:
                @complexity("n")
                def runs(self, n):
                    return list(range(n))

                @complexity("n")
                def total(self, n):
                    total = 0
                    for run in self.runs(n):
                        total += run
                    return total
        """})
        table = SummaryTable(build_callgraph(pkg, package="pkg"))
        assert table.summaries["pkg.mod.Store.total"].cost is Cost.LINEAR
        assert [
            f for f in flow(pkg).findings if f.rule == RULE_COST_EXCEEDS
        ] == []

    def test_loop_allow_leaves_its_header_call_charged(self, tmp_path):
        """An allow above a ``for``/``while`` bounds the loop; the call
        in the loop's header keeps its own cost."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import complexity, o1

            class Tree:
                @complexity("n")
                def walk(self):
                    return list(range(8))

                @complexity("n")
                def pending(self):
                    return bool(self.walk())

                @o1
                def first(self):
                    # o1: allow(flow-bounded) -- returns on the first node
                    for node in self.walk():
                        return node

                @o1
                def drain(self):
                    # o1: allow(flow-bounded) -- runs at most twice
                    while self.pending():
                        return
        """})
        table = SummaryTable(build_callgraph(pkg, package="pkg"))
        assert table.summaries["pkg.mod.Tree.first"].cost is Cost.LINEAR
        assert table.summaries["pkg.mod.Tree.drain"].cost is Cost.LINEAR
        result = flow(pkg)
        assert sorted(
            f.function for f in result.findings if f.rule == RULE_COST_EXCEEDS
        ) == ["pkg.mod.Tree.drain", "pkg.mod.Tree.first"]
        assert result.stale_suppressions == []

    def test_inline_loop_allow_does_not_reach_the_first_body_line(self, tmp_path):
        """Only an allow alone on its line speaks for the line below."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import complexity, o1

            @complexity("n")
            def sweep(pages):
                total = 0
                for page in pages:
                    total += page
                return total

            @o1
            def touch_all(batch, pages):
                for entry in batch:  # o1: allow(flow-bounded) -- at most 4 entries
                    sweep(pages)

            @o1
            def scan_all(batch, pages):
                for entry in batch:  # o1: allow(flow-bounded) -- at most 4 entries
                    for page in pages:
                        entry += page

            @o1
            def touch_once(pages):
                # o1: allow(flow-bounded) -- pages is one cache line here
                sweep(pages)
        """})
        table = SummaryTable(build_callgraph(pkg, package="pkg"))
        assert table.summaries["pkg.mod.touch_all"].cost is Cost.LINEAR
        assert table.summaries["pkg.mod.scan_all"].cost is Cost.LINEAR
        assert table.summaries["pkg.mod.touch_once"].cost is Cost.CONSTANT
        result = flow(pkg)
        assert sorted(
            f.function for f in result.findings if f.rule == RULE_COST_EXCEEDS
        ) == ["pkg.mod.scan_all", "pkg.mod.touch_all"]
        assert result.stale_suppressions == []

    def test_comprehension_first_iterable_is_charged_once(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import complexity

            @complexity("n")
            def pages(n):
                return list(range(n))

            @complexity("n")
            def doubled(n):
                return [page * 2 for page in pages(n)]
        """})
        table = SummaryTable(build_callgraph(pkg, package="pkg"))
        assert table.summaries["pkg.mod.doubled"].cost is Cost.LINEAR

    def test_iterable_named_nested_is_still_one_loop(self, tmp_path):
        """The loop's cost is the one the shape pass computed, not a
        guess from its rendered source text."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import complexity

            @complexity("n")
            def total(nested_pages):
                count = 0
                for page in nested_pages:
                    count += page
                return count
        """})
        table = SummaryTable(build_callgraph(pkg, package="pkg"))
        summary = table.summaries["pkg.mod.total"]
        assert summary.cost is Cost.LINEAR
        assert "[O(n)]" in summary.witness.detail
        assert [
            f for f in flow(pkg).findings if f.rule == RULE_COST_EXCEEDS
        ] == []

    def test_mutual_recursion_is_unbounded(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            def ping(x):
                return pong(x)

            def pong(x):
                return ping(x)
        """})
        graph = build_callgraph(pkg, package="pkg")
        table = SummaryTable(graph)
        assert table.summaries["pkg.mod.ping"].cost is Cost.UNBOUNDED
        assert table.summaries["pkg.mod.pong"].cost is Cost.UNBOUNDED


# ---------------------------------------------------------------------------
# Regression: the intraprocedural false negatives this pass closes
# ---------------------------------------------------------------------------
class TestIntraFalseNegatives:
    def test_loop_in_undeclared_callee(self, tmp_path):
        """The @o1 body is a single call; the pass walks into the
        helper and finds the loop."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import o1

            @o1
            def entry(pages):
                return helper(pages)

            def helper(pages):
                total = 0
                for page in pages:
                    total += page
                return total
        """})
        result = flow(pkg)
        findings = [f for f in result.findings if f.rule == RULE_COST_EXCEEDS]
        assert [f.function for f in findings] == ["pkg.mod.entry"]
        assert any("helper" in hop.fid for hop in findings[0].chain)

    def test_commit_in_helper_persist(self, tmp_path):
        """The apply site carries the classic "caller commits" allow, so
        the intra rule is silent — and no caller on the path ever
        commits."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            def root_op(fs):
                _helper_apply(fs)

            def _helper_apply(fs):
                fs._apply_alloc(None)  # o1: allow(persist-outside-txn) -- caller commits
        """})
        result = flow(pkg)
        assert [
            f for f in result.findings if f.rule == RULE_PERSIST_OUTSIDE_TXN
        ] == []
        findings = [f for f in result.findings if f.rule == RULE_FLOW_PERSIST]
        assert any(f.function == "pkg.mod.root_op" for f in findings)

    def test_commit_on_path_stays_clean(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            def root_op(fs):
                fs._journal_commit()
                _helper_apply(fs)

            def _helper_apply(fs):
                fs._apply_alloc(None)  # o1: allow(persist-outside-txn) -- caller commits
        """})
        result = flow(pkg)
        assert [f for f in result.findings if f.rule == RULE_FLOW_PERSIST] == []


# ---------------------------------------------------------------------------
# Must-call protocol: page-table mutation vs TLB invalidation
# ---------------------------------------------------------------------------
_SYSCALL_FIXTURE = """
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

        def munmap(self, va):
            self._pt.unmap(va)
            {epilogue}
"""


class TestStaleTranslationProtocol:
    def test_mutation_without_invalidation_flagged(self, tmp_path):
        pkg = make_pkg(tmp_path, {
            "mod.py": _SYSCALL_FIXTURE.format(epilogue="return va"),
        })
        result = flow(pkg)
        findings = [
            f for f in result.findings if f.rule == RULE_STALE_TRANSLATION
        ]
        assert [f.function for f in findings] == ["pkg.mod.Syscalls.munmap"]
        assert findings[0].chain, "protocol finding must show the mutation"

    def test_mutation_with_invalidation_clean(self, tmp_path):
        pkg = make_pkg(tmp_path, {
            "mod.py": _SYSCALL_FIXTURE.format(
                epilogue="self._tlb.flush_all()\n            return va"
            ),
        })
        result = flow(pkg)
        assert [
            f for f in result.findings if f.rule == RULE_STALE_TRANSLATION
        ] == []

    def test_protocol_effects_computed_per_function(self, tmp_path):
        pkg = make_pkg(tmp_path, {
            "mod.py": _SYSCALL_FIXTURE.format(epilogue="return va"),
        })
        graph = build_callgraph(pkg, package="pkg")
        protocols = compute_protocols(graph)
        effect = protocols.tlb["pkg.mod.Syscalls.munmap"]
        assert effect.gen and not effect.kill


# ---------------------------------------------------------------------------
# The real tree: clean gate, verified controls, mutant detection
# ---------------------------------------------------------------------------
class TestRealTree:
    def test_tree_is_clean_with_empty_baseline(self, real_o1):
        assert real_o1.findings == []

    def test_no_stale_suppressions(self, real_o1):
        assert real_o1.stale_suppressions == []

    def test_planted_controls_fire_with_chains(self, real_o1):
        result = real_o1
        fired = {(f.function, f.rule) for f in result.controls_verified}
        assert fired == set(CONTROLS)
        for finding in result.controls_verified:
            assert finding.chain, (
                f"control {finding.function} must carry its call chain"
            )

    def test_missing_controls_reported_once_each(self, tmp_path):
        """A tree without the planted controls must say so, once per
        control, at the pseudo-path ``<flow>``."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            def fine():
                return 1
        """})
        missing = [
            f for f in flow(pkg).findings if f.rule == RULE_CONTROL_MISSING
        ]
        assert sorted(f.function for f in missing) == sorted(
            function for function, _ in CONTROLS
        )
        assert {f.path for f in missing} == {"<flow>"}

    def test_resolution_ratio_floor(self, real_o1):
        """Pin the call-site resolution ratio so regressions in the
        resolver (attribute typing, module globals, IfExp arms) show up
        as a number going down, not as silently thinner coverage.

        Re-pinned from 0.39 when repro.qos landed: its ~450 new sites
        skew toward builtins and container methods (deliberately
        unresolvable), measuring 0.3874 with the resolver unchanged.
        """
        result = real_o1
        ratio = result.sites_resolved / result.sites_total
        assert ratio >= 0.385, (
            f"resolution ratio fell to {ratio:.4f} "
            f"({result.sites_resolved}/{result.sites_total})"
        )

    def test_cpu_tlb_attributes_are_typed(self, real_o1):
        """The hot-path certificate depends on these exact attribute
        types: Cpu._translate's tlb calls must resolve."""
        graph = real_o1.graph
        cpu = next(
            cid for cid in graph.classes if cid == "repro.hw.cpu.Cpu"
        )
        attrs = graph.classes[cpu].attr_types
        assert attrs.get("_tlb") == "repro.hw.tlb.Tlb"
        assert attrs.get("_rtlb") == "repro.hw.rtlb.RangeTlb"

    def test_backing_calls_reach_every_override(self, real_o1):
        """Every backing subclasses ``MemoryBacking``, so a call through
        ``vma.backing`` reaches each backing's own body, not a stub."""
        graph = real_o1.graph
        backings = (
            "repro.vm.vma.AnonBacking",
            "repro.fs.tmpfs._TmpfsBacking",
            "repro.fs.pmfs._PmfsBacking",
            "repro.vm.userfault._UserFaultBacking",
            "repro.core.rangetrans.manager._RawExtentBacking",
        )
        space = "repro.vm.addrspace.AddressSpace"
        for caller, method in (
            ("_minor_fault", "frame_for"),
            ("populate", "frame_runs"),
            ("_unmap_vma_range", "release"),
        ):
            targets = {
                target
                for site in graph.calls[f"{space}.{caller}"]
                if site.attr == method and "backing" in site.raw
                for target in site.targets
            }
            for backing in backings:
                override = graph.lookup_method(backing, method)
                assert override in targets, (caller, override)

    def test_entries_cover_syscalls_and_kernel(self, real_o1):
        names = set(real_o1.entries)
        assert "repro.kernel.kernel.Kernel.fork" in names
        assert "repro.kernel.syscalls.Syscalls.mmap" in names

    def test_munmap_without_invalidation_caught(self, tmp_path):
        """Mutant: drop the TLB shootdown from AddressSpace.munmap and
        the stale-translation protocol must go red statically."""
        mutant_root = tmp_path / "repro"
        shutil.copytree(REPRO_ROOT, mutant_root)
        target = mutant_root / "vm" / "addrspace.py"
        source = target.read_text()
        mutated = re.sub(
            r"\n        if self\.cpu is not None:\n"
            r"            self\.cpu\.invalidate_space_range\("
            r"addr, length, asid=self\.asid\)\n",
            "\n",
            source,
        )
        assert mutated != source, "mutation target not found"
        target.write_text(mutated)
        result = run_flow(mutant_root)
        stale = [
            f for f in result.findings if f.rule == RULE_STALE_TRANSLATION
        ]
        assert any(
            f.function == "repro.kernel.syscalls.Syscalls.munmap"
            for f in stale
        ), f"expected Syscalls.munmap flagged, got {[f.function for f in stale]}"


# ---------------------------------------------------------------------------
# Stale-suppression detection
# ---------------------------------------------------------------------------
class TestStaleSuppressions:
    def test_dead_allow_reported(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import o1

            @o1
            def fine():
                # o1: allow(flow-bounded) -- obsolete: the loop is long gone
                return 1
        """})
        result = flow(pkg)
        assert len(result.stale_suppressions) == 1
        stale = result.stale_suppressions[0]
        assert stale.rules == ("flow-bounded",)
        assert stale.path.endswith("mod.py")

    def test_used_allow_not_reported(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import o1

            @o1
            def clamp(entries):
                total = 0
                # o1: allow(flow-bounded) -- bounded table by construction
                for entry in entries:
                    total += entry
                return total
        """})
        result = flow(pkg)
        assert result.stale_suppressions == []

    def test_allow_text_in_a_string_is_not_a_comment(self, tmp_path):
        """Only comment tokens suppress: allow text inside a string
        literal neither silences the loop below it nor goes stale."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import o1

            @o1
            def walk(pages):
                note = "# o1: allow(flow-bounded) -- not a comment"
                for page in pages:
                    touch(page, note)
        """})
        result = flow(pkg)
        assert [
            f.function for f in result.findings if f.rule == RULE_COST_EXCEEDS
        ] == ["pkg.mod.walk"]
        assert result.stale_suppressions == []


# ---------------------------------------------------------------------------
# Report schema
# ---------------------------------------------------------------------------
class TestFlowReport:
    def _fixture_result(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import o1

            @o1
            def entry(pages):
                return helper(pages)

            def helper(pages):
                total = 0
                for page in pages:
                    total += page
                return total
        """})
        return flow(pkg)

    def test_flow_section_schema(self, tmp_path):
        result = self._fixture_result(tmp_path)
        report = build_report(result)
        assert report["version"] == REPORT_VERSION == 5
        assert "lint" not in report and "flow" not in report
        section = report["o1"]
        assert set(section) == {
            "entries", "files", "functions", "declared", "call_sites",
            "findings", "controls_verified", "stale_suppressions",
        }
        assert section["declared"] == 1
        assert section["call_sites"]["resolved"] <= section["call_sites"]["total"]
        (finding,) = [
            f for f in section["findings"]
            if f["rule"] == RULE_COST_EXCEEDS
        ]
        assert finding["function"] == "pkg.mod.entry"
        assert finding["chain"], "chain must be serialised"
        hop = finding["chain"][-1]
        assert set(hop) == {"function", "path", "line", "note"}

    def test_render_text_shows_chain(self, tmp_path):
        result = self._fixture_result(tmp_path)
        text = render_text(result)
        assert "o1 flow:" in text
        assert "FINDING" in text
        assert "pkg.mod.helper" in text  # the witness hop, not just the root

    def test_render_text_spells_dead_allow_in_o1_namespace(self, tmp_path):
        # A retired rule name is an allow no rule consumes.
        pkg = make_pkg(tmp_path, {"mod.py": """
            def fine():
                return 1  # o1: allow(o1-size-loop) -- obsolete
        """})
        text = render_text(flow(pkg))
        assert "1 stale suppression(s)" in text
        assert "stale suppression # o1: allow(o1-size-loop)" in text

"""AllocSan: repro.lint.alloc — the static allocation-shape prong.

Covers the shape classifier, the lattice scaling, interprocedural
propagation over the call graph, cold-call mechanics, the hot-closure
gate, the planted-control check, the ``alloc`` section of
``lint_report.json`` (schema v5) — and the mutants the pass exists to
catch, pinned against the real tree.
"""

import json
import re
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.lint.alloc import (
    ALLOC_CONTROLS,
    RULE_ALLOC_CONTROL_MISSING,
    RULE_ALLOC_EXCEEDS,
    RULE_ALLOC_HOT,
    AllocClass,
    _scale,
    run_alloc,
)
from repro.lint.flow import run_flow
from repro.lint.report import REPORT_VERSION, build_report, render_text

REPRO_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def make_pkg(tmp_path: Path, files: dict) -> Path:
    """Materialise a throwaway package for the analysis to chew on."""
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    for name, source in files.items():
        path = pkg / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return pkg


def alloc(pkg: Path):
    return run_alloc(pkg, package="pkg")


def real_findings(result):
    """Findings minus the control-missing noise a non-repro tree makes.

    The planted control lives in ``repro.lint.controls``; a throwaway
    ``pkg`` tree cannot contain it, so every tmp-package run reports
    ``alloc-control-missing`` — correct behaviour, filtered here.
    """
    return [f for f in result.findings if f.rule != RULE_ALLOC_CONTROL_MISSING]


# ---------------------------------------------------------------------------
# The lattice
# ---------------------------------------------------------------------------
class TestLattice:
    def test_order(self):
        assert (
            AllocClass.NONE
            < AllocClass.BOUNDED
            < AllocClass.PER_ELEMENT
            < AllocClass.UNBOUNDED
        )

    def test_none_never_scales(self):
        assert _scale(AllocClass.NONE, 3) is AllocClass.NONE

    def test_bounded_in_one_loop_is_per_element(self):
        assert _scale(AllocClass.BOUNDED, 1) is AllocClass.PER_ELEMENT

    def test_anything_two_deep_is_unbounded(self):
        assert _scale(AllocClass.BOUNDED, 2) is AllocClass.UNBOUNDED
        assert _scale(AllocClass.PER_ELEMENT, 1) is AllocClass.UNBOUNDED


# ---------------------------------------------------------------------------
# Shape classification, via the declared-vs-summary judgment
# ---------------------------------------------------------------------------
class TestShapes:
    @pytest.mark.parametrize("body,needle", [
        ("return [x, x]", "list"),
        ("return {'k': x}", "dict"),
        ("return {x}", "set"),
        ("return (x, x)", "tuple"),
        ("return [i for i in x]", "comprehension"),
        ("return (i for i in x)", "generator"),
        ("return f'{x}'", "f-string"),
        ("return 'a' + str(x)", ""),
        ("return x[1:3]", "slice"),
        ("return sorted(x)", "materializes"),
        ("return x.items()", "materializes"),
    ])
    def test_shape_breaks_allocfree(self, tmp_path, body, needle):
        pkg = make_pkg(tmp_path, {"mod.py": f"""
            from repro.lint import allocfree

            @allocfree
            def hot(x):
                {body}
        """})
        findings = real_findings(alloc(pkg))
        assert [f.rule for f in findings] == [RULE_ALLOC_EXCEEDS]
        assert findings[0].function == "pkg.mod.hot"
        assert findings[0].chain, "exceeds finding must carry a witness"
        assert needle in findings[0].chain[-1].note

    def test_arithmetic_is_allocation_free(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocfree

            @allocfree
            def hot(a, b):
                if a < 0:
                    raise ValueError(f"negative {a}")
                return a + b * 3
        """})
        # The f-string lives in a raise: terminal, excused by policy.
        assert real_findings(alloc(pkg)) == []

    def test_nested_def_is_a_closure_shape(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocfree

            @allocfree
            def hot(x):
                def inner():
                    return x
                return inner
        """})
        findings = real_findings(alloc(pkg))
        assert [f.rule for f in findings] == [RULE_ALLOC_EXCEEDS]
        assert "function object" in findings[0].chain[-1].note

    def test_comprehension_first_iterable_is_evaluated_once(self, tmp_path):
        """A generator's first iterable runs once, before the loop: a
        bounded shape there is not a per-element one."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocbound

            @allocbound(2)
            def total(table):
                return sum(v for v in table.values())
        """})
        assert real_findings(alloc(pkg)) == []

    def test_allocbound_tolerates_bounded_shapes(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocbound

            @allocbound(2)
            def fill(x):
                return {"key": x}
        """})
        assert real_findings(alloc(pkg)) == []

    def test_bounded_shape_in_unbounded_loop_breaks_allocbound(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocbound

            @allocbound(1)
            def fill(items):
                out = None
                for item in items:
                    out = {"key": item}
                return out
        """})
        findings = real_findings(alloc(pkg))
        assert [f.rule for f in findings] == [RULE_ALLOC_EXCEEDS]
        assert "per-element" in findings[0].message

    def test_constant_bounded_loop_keeps_bounded(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocbound

            @allocbound(4)
            def fill(x):
                out = None
                for i in range(4):
                    out = {"key": i}
                return out
        """})
        assert real_findings(alloc(pkg)) == []

    def test_inline_allow_suppresses_shape(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocfree

            @allocfree
            def hot(x):
                return [x]  # alloc: allow(list-display) -- interned, measured free
        """})
        result = alloc(pkg)
        assert real_findings(result) == []
        assert result.stale_suppressions == []

    @pytest.mark.parametrize("rule,first,second", [
        ("list-display", "x = [x]", "return [x, x]"),
        ("cold-call", "x = refill(x)", "return refill(x)"),
    ], ids=["list-display", "cold-call"])
    def test_trailing_allow_does_not_excuse_the_next_line(
        self, tmp_path, rule, first, second
    ):
        pkg = make_pkg(tmp_path, {"mod.py": f"""
            from repro.lint import allocfree

            @allocfree
            def hot(x):
                {first}  # alloc: allow({rule}) -- speaks for this line only
                {second}

            def refill(x):
                return [i for i in x]
        """})
        findings = real_findings(alloc(pkg))
        assert [f.rule for f in findings] == [RULE_ALLOC_EXCEEDS]
        assert findings[0].line == 7

    def test_dead_allow_is_a_stale_suppression(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocfree

            @allocfree
            def hot(x):
                # alloc: allow(list-display) -- obsolete: the list is long gone
                return x
        """})
        result = alloc(pkg)
        assert real_findings(result) == []
        (stale,) = result.stale_suppressions
        assert stale.rules == ("list-display",)
        assert stale.path.endswith("mod.py")


# ---------------------------------------------------------------------------
# Interprocedural propagation
# ---------------------------------------------------------------------------
class TestPropagation:
    def test_undeclared_helper_propagates_to_caller(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocfree

            @allocfree
            def hot(x):
                return helper(x)

            def helper(x):
                return [i for i in x]
        """})
        findings = real_findings(alloc(pkg))
        assert [f.function for f in findings] == ["pkg.mod.hot"]
        assert any("helper" in hop.fid for hop in findings[0].chain)

    def test_declared_callee_is_cut_at_its_declaration(self, tmp_path):
        """The caller trusts the callee's decorator, not its body — the
        callee's own judgment (a separate finding) polices the body."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocbound, allocfree

            @allocfree
            def hot(x):
                return probe(x)

            @allocbound(1)
            def probe(x):
                return [i for i in x]
        """})
        findings = real_findings(alloc(pkg))
        by_function = {f.function for f in findings}
        # probe exceeds its own bound; hot exceeds because a BOUNDED
        # callee is still above allocation-free.
        assert by_function == {"pkg.mod.hot", "pkg.mod.probe"}

    def test_cold_call_excludes_callee(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocfree

            @allocfree
            def hot(x, miss):
                if miss:
                    # alloc: allow(cold-call) -- refill path, off steady state
                    return refill(x)
                return x

            def refill(x):
                return [i for i in x]
        """})
        result = alloc(pkg)
        assert real_findings(result) == []
        assert result.stale_suppressions == []

    def test_cold_call_on_allocation_free_callee_is_stale(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocfree

            @allocfree
            def hot(x):
                # alloc: allow(cold-call) -- obsolete: helper stopped allocating
                return helper(x)

            def helper(x):
                return x
        """})
        result = alloc(pkg)
        assert real_findings(result) == []
        (stale,) = result.stale_suppressions
        assert stale.rules == ("cold-call",)

    def test_recursive_undeclared_cycle_is_unbounded(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocfree

            @allocfree
            def hot(x):
                return ping(x)

            def ping(x):
                return pong(x)

            def pong(x):
                return ping(x)
        """})
        findings = real_findings(alloc(pkg))
        assert [f.function for f in findings] == ["pkg.mod.hot"]
        assert "unbounded" in findings[0].message


# ---------------------------------------------------------------------------
# The hot closure
# ---------------------------------------------------------------------------
class TestHotClosure:
    def test_undeclared_allocating_reachable_function_flagged(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            class Tlb:
                def lookup(self, vpn):
                    return self._probe(vpn)

                def _probe(self, vpn):
                    return [vpn]
        """})
        result = alloc(pkg)
        findings = real_findings(result)
        # Both the undeclared entry (which inherits the summary) and
        # the allocating helper are flagged.
        assert {(f.function, f.rule) for f in findings} == {
            ("pkg.mod.Tlb.lookup", RULE_ALLOC_HOT),
            ("pkg.mod.Tlb._probe", RULE_ALLOC_HOT),
        }
        probe = next(f for f in findings if f.qualname == "Tlb._probe")
        # The chain walks entry -> callee -> witness.
        assert probe.chain[0].fid == "pkg.mod.Tlb.lookup"
        assert result.entries == ["pkg.mod.Tlb.lookup"]
        assert result.hot_reachable == 2

    def test_declaring_the_function_moves_the_judgment(self, tmp_path):
        """Once declared, the hot rule yields to exceeds-declared — the
        finding becomes ratchetable, which is the entire point of the
        two-rule split."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocbound

            class Tlb:
                @allocbound(1)
                def lookup(self, vpn):
                    return self._probe(vpn)

                @allocbound(1)
                def _probe(self, vpn):
                    return [vpn]
        """})
        findings = real_findings(alloc(pkg))
        assert [f.rule for f in findings] == []

    def test_allocation_free_closure_is_clean(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            class Tlb:
                def lookup(self, vpn):
                    return self._probe(vpn + 1)

                def _probe(self, vpn):
                    return vpn
        """})
        assert real_findings(alloc(pkg)) == []


# ---------------------------------------------------------------------------
# Report: schema v5
# ---------------------------------------------------------------------------
class TestAllocReport:
    def _fixture(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            from repro.lint import allocfree

            @allocfree
            def hot(x):
                return helper(x)

            def helper(x):
                return [i for i in x]
        """})
        return run_flow(pkg, package="pkg"), alloc(pkg)

    def test_alloc_section_schema(self, tmp_path):
        o1, result = self._fixture(tmp_path)
        report = build_report(o1, alloc=result)
        assert report["version"] == REPORT_VERSION == 5
        section = report["alloc"]
        assert set(section) == {
            "entries", "files", "functions", "hot_reachable",
            "declared_allocfree", "declared_allocbound", "findings",
            "controls_verified", "stale_suppressions",
        }
        (finding,) = [
            f for f in section["findings"] if f["rule"] == RULE_ALLOC_EXCEEDS
        ]
        assert finding["function"] == "pkg.mod.hot"
        assert finding["chain"], "chain must be serialised"
        hop = finding["chain"][-1]
        assert set(hop) == {"function", "path", "line", "note"}

    def test_allocfit_results_serialised(self, tmp_path):
        from repro.lint.allocfit import AllocFitResult

        o1, result = self._fixture(tmp_path)
        fit = AllocFitResult(
            name="access.tlb_hit", calls=4096, net_bytes=164,
            per_call_bytes=0.04, gc_delta=(3, 0, 0), expect_growth=False,
            grew=False, uncertified=(), ok=True, note="",
        )
        report = build_report(o1, alloc=result, allocfit_results=[fit])
        (row,) = report["alloc"]["allocfit"]
        assert row["name"] == "access.tlb_hit"
        assert row["ok"] is True
        assert row["gc_delta"] == [3, 0, 0]
        json.dumps(report)  # the whole document must be serialisable

    def test_render_text_shows_alloc_section(self, tmp_path):
        o1, result = self._fixture(tmp_path)
        text = render_text(o1, alloc=result)
        assert "o1 alloc:" in text
        assert "FINDING" in text
        assert "pkg.mod.helper" in text  # the witness hop, not just the root

    def test_render_text_spells_dead_allow_in_alloc_namespace(self, tmp_path):
        pkg = make_pkg(tmp_path, {"mod.py": """
            def fine(x):
                return x  # alloc: allow(list-display) -- obsolete
        """})
        text = render_text(run_flow(pkg, package="pkg"), alloc=alloc(pkg))
        assert "1 stale suppression(s)" in text
        assert "stale suppression # alloc: allow(list-display)" in text
        assert "# o1: allow" not in text


# ---------------------------------------------------------------------------
# The real tree: clean gate, verified control, mutant detection
# ---------------------------------------------------------------------------
class TestRealTree:
    def test_tree_is_clean_with_empty_baseline(self, real_alloc):
        assert real_alloc.findings == []

    def test_no_stale_suppressions(self, real_alloc):
        assert real_alloc.stale_suppressions == []

    def test_planted_control_fires_with_chain(self, real_alloc):
        fired = {(f.function, f.rule) for f in real_alloc.controls_verified}
        assert fired == set(ALLOC_CONTROLS)
        for finding in real_alloc.controls_verified:
            assert finding.chain, (
                f"control {finding.function} must carry its witness chain"
            )

    def test_missing_control_reported_once_each(self, tmp_path):
        """A tree without the planted control must say so, once per
        control, at the pseudo-path ``<alloc>``."""
        pkg = make_pkg(tmp_path, {"mod.py": """
            def fine(x):
                return x
        """})
        missing = [
            f for f in alloc(pkg).findings
            if f.rule == RULE_ALLOC_CONTROL_MISSING
        ]
        assert sorted(f.function for f in missing) == sorted(
            function for function, _ in ALLOC_CONTROLS
        )
        assert {f.path for f in missing} == {"<alloc>"}

    def test_entries_are_the_four_hot_access_points(self, real_alloc):
        assert set(real_alloc.entries) == {
            "repro.kernel.kernel.Kernel.access",
            "repro.kernel.kernel.Kernel.access_range",
            "repro.hw.cpu.Cpu.access",
            "repro.hw.tlb.Tlb.lookup",
        }

    def test_closure_is_declared_and_nontrivial(self, real_alloc):
        assert real_alloc.hot_reachable >= 15
        assert real_alloc.declared_allocfree >= 10
        assert real_alloc.declared_allocbound >= 5

    def test_comprehension_in_certified_hot_fn_goes_red(self, tmp_path):
        """Mutant: plant a list comprehension in @allocfree
        SimClock.advance — the certified hot closure must go red."""
        mutant_root = tmp_path / "repro"
        shutil.copytree(REPRO_ROOT, mutant_root)
        target = mutant_root / "hw" / "clock.py"
        source = target.read_text()
        mutated = source.replace(
            "        self._now += ns\n",
            "        self._now += ns\n"
            "        _shadow = [v for v in (ns, self._now)]\n",
        )
        assert mutated != source, "mutation target not found"
        target.write_text(mutated)
        result = run_alloc(mutant_root)
        flagged = [
            f for f in result.findings if f.rule == RULE_ALLOC_EXCEEDS
        ]
        assert any(
            f.function == "repro.hw.clock.SimClock.advance" for f in flagged
        ), f"expected SimClock.advance flagged, got {[f.function for f in flagged]}"

    def test_undeclaring_a_hot_allocator_goes_red(self, tmp_path):
        """Mutant: strip @allocbound from Cpu.access_range while it
        still allocates — the unratchetable hot rule must fire."""
        mutant_root = tmp_path / "repro"
        shutil.copytree(REPRO_ROOT, mutant_root)
        target = mutant_root / "hw" / "cpu.py"
        source = target.read_text()
        mutated = re.sub(
            r"    @allocbound\(1,[^)]*\)\n(    def access_range)",
            r"\1",
            source,
        )
        assert mutated != source, "mutation target not found"
        target.write_text(mutated)
        result = run_alloc(mutant_root)
        flagged = [f for f in result.findings if f.rule == RULE_ALLOC_HOT]
        assert any(
            f.function == "repro.hw.cpu.Cpu.access_range" for f in flagged
        ), f"expected Cpu.access_range flagged, got {[f.function for f in flagged]}"

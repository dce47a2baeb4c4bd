"""Rendering for Order(1) conformance results.

Two consumers: humans (``render_text`` — what ``repro-o1 lint`` prints)
and machines (``build_report`` / ``write_json`` — the
``lint_report.json`` artifact CI archives next to benchmark results, so
fitted exponents can be tracked across commits).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.lint.flow import CONTROLS, FlowResult
from repro.lint.ops import OperationFit

if TYPE_CHECKING:
    from repro.lint.alloc import AllocResult
    from repro.lint.allocfit import AllocFitResult

#: v2 added the ``flow`` section (``lint --interproc``); v3 added the
#: ``alloc`` section (``lint --alloc``: AllocSan + empirical cross-check);
#: v4 dropped the ``baseline_suppressed`` / ``stale_baseline_entries``
#: keys: every finding fails the gate; v5 merged the ``lint`` and
#: ``flow`` sections into one ``o1`` section: one pass judges both.
REPORT_VERSION = 5


def _verdict_dict(result: Union[FlowResult, "AllocResult"]) -> Dict[str, object]:
    """The keys the ``o1`` and ``alloc`` sections share."""
    return {
        "findings": [
            {
                "function": f.function,
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "message": f.message,
                "chain": [
                    {
                        "function": hop.fid,
                        "path": hop.path,
                        "line": hop.line,
                        "note": hop.note,
                    }
                    for hop in f.chain
                ],
            }
            for f in result.findings
        ],
        "controls_verified": [
            {"function": f.function, "rule": f.rule}
            for f in result.controls_verified
        ],
        "stale_suppressions": [
            {"path": s.path, "line": s.line, "rules": list(s.rules)}
            for s in result.stale_suppressions
        ],
    }


def _verdict_lines(
    result: Union[FlowResult, "AllocResult"], controls: int
) -> List[str]:
    """Summary line plus one line per finding and stale suppression."""
    lines = [
        f"  {len(result.findings)} finding(s), "
        f"{len(result.controls_verified)}/{controls} controls verified, "
        f"{len(result.stale_suppressions)} stale suppression(s)"
    ]
    lines.extend(f"  FINDING {f.format()}" for f in result.findings)
    lines.extend(f"  STALE {s.format()}" for s in result.stale_suppressions)
    return lines


def build_report(
    o1: FlowResult,
    fits: Optional[Sequence[OperationFit]] = None,
    *,
    sizes: Optional[Sequence[int]] = None,
    alloc: Optional["AllocResult"] = None,
    allocfit_results: Optional[Sequence["AllocFitResult"]] = None,
) -> Dict[str, object]:
    """Assemble the machine-readable conformance report."""
    report: Dict[str, object] = {
        "version": REPORT_VERSION,
        "tool": "repro-o1 lint",
        "o1": {
            "entries": list(o1.entries),
            "files": o1.files,
            "functions": o1.functions,
            "declared": o1.declared,
            "call_sites": {
                "total": o1.sites_total,
                "resolved": o1.sites_resolved,
            },
            **_verdict_dict(o1),
        },
    }
    if alloc is not None:
        alloc_section: Dict[str, object] = {
            "entries": list(alloc.entries),
            "files": alloc.files,
            "functions": alloc.functions,
            "hot_reachable": alloc.hot_reachable,
            "declared_allocfree": alloc.declared_allocfree,
            "declared_allocbound": alloc.declared_allocbound,
            **_verdict_dict(alloc),
        }
        if allocfit_results is not None:
            alloc_section["allocfit"] = [
                {
                    "name": r.name,
                    "calls": r.calls,
                    "net_bytes": r.net_bytes,
                    "per_call_bytes": round(r.per_call_bytes, 4),
                    "gc_delta": list(r.gc_delta),
                    "expect_growth": r.expect_growth,
                    "grew": r.grew,
                    "uncertified": list(r.uncertified),
                    "ok": r.ok,
                    "note": r.note,
                }
                for r in allocfit_results
            ]
        report["alloc"] = alloc_section
    if fits is not None:
        report["fit"] = {
            "sizes": list(sizes) if sizes is not None else None,
            "operations": [
                {
                    "name": f.operation.name,
                    "declared": str(f.operation.declared),
                    "fitted": str(f.fit.fitted),
                    "exponent": round(f.fit.exponent, 4),
                    "span": round(f.fit.span, 4)
                    if f.fit.span != float("inf")
                    else None,
                    "known_mismatch": f.operation.known_mismatch,
                    "ok": f.ok,
                    "note": f.operation.note,
                    "sizes": f.sizes,
                    "costs_ns": f.costs,
                }
                for f in fits
            ],
        }
    return report


def write_json(path: Path, report: Dict[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def render_text(
    o1: FlowResult,
    fits: Optional[Sequence[OperationFit]] = None,
    *,
    alloc: Optional["AllocResult"] = None,
    allocfit_results: Optional[Sequence["AllocFitResult"]] = None,
) -> str:
    """Human-readable conformance summary."""
    lines: List[str] = [
        f"o1 flow: {o1.functions} functions ({o1.declared} declared) across "
        f"{o1.files} files, {o1.sites_resolved}/{o1.sites_total} call sites "
        f"resolved, {len(o1.entries)} hot-path entries"
    ]
    lines.extend(_verdict_lines(o1, len(CONTROLS)))
    if alloc is not None:
        from repro.lint.alloc import ALLOC_CONTROLS

        lines.append("")
        lines.append(
            f"o1 alloc: {alloc.hot_reachable} functions in the hot closure "
            f"of {len(alloc.entries)} entries, "
            f"{alloc.declared_allocfree} @allocfree + "
            f"{alloc.declared_allocbound} @allocbound declared"
        )
        lines.extend(_verdict_lines(alloc, len(ALLOC_CONTROLS)))
        if allocfit_results is not None:
            lines.append(
                f"  allocfit: {len(allocfit_results)} op(s) cross-checked"
            )
            for result in allocfit_results:
                lines.append(f"    {result.format()}")
    if fits is not None:
        lines.append("")
        lines.append(f"o1 fit: {len(fits)} operation(s)")
        for f in fits:
            span = (
                f"{f.fit.span:.2f}x" if f.fit.span != float("inf") else "inf"
            )
            status = "ok" if f.ok else "FAIL"
            verdict = (
                f"declared {f.operation.declared} fitted {f.fit.fitted} "
                f"(slope {f.fit.exponent:+.2f}, span {span})"
            )
            if f.operation.known_mismatch:
                verdict += " [control]"
            lines.append(f"  {status:4s} {f.operation.name:32s} {verdict}")
    return "\n".join(lines)

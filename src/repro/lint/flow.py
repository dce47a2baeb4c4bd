"""`repro.lint.flow` — the O(1) conformance pass.

Orchestrates the whole-package pass behind ``repro-o1 lint``: builds
the syntactic call graph (:mod:`repro.lint.callgraph`), propagates
transitive cost summaries (:mod:`repro.lint.summaries`), evaluates the
must-call protocols (:mod:`repro.lint.protocols`), runs the two
intraprocedural rules of :mod:`repro.lint.astcheck` on every function
of the graph, and turns the results into findings:

``o1-recursion``
    a declared-O(1)/O(log n) function calls itself.
``persist-outside-txn``
    a journal apply with no commit on an earlier line of its function.
``flow-cost-exceeds-declared``
    a declared function's transitive summary is worse than its
    decorator, with the witness call chain down to the loop.
``flow-undeclared``
    a function reachable from a ``Syscalls.*`` / ``Kernel.*`` hot-path
    entry point is neither declared nor constant-shaped.
``flow-stale-translation``
    a syscall-boundary entry can return with a page-table mutation no
    invalidation ever covers.
``flow-persist-outside-txn``
    a journal apply can execute on a path from its protocol root that
    has made no commit before it (a commit on only some paths does not
    count).
``flow-control-missing``
    a planted control (:mod:`repro.lint.controls`) was *not* flagged —
    the pass itself is broken.

Every finding fails the gate; a justified inline ``# o1: allow(rule)
-- reason`` comment is the only escape.  The pass also owns
stale-suppression detection: every ``# o1: allow`` comment no rule
consumed is reported, with unused-``noqa`` semantics.

AllocSan (:mod:`repro.lint.alloc`) judges a different lattice over the
same graph and reuses this module's verdict plumbing: :class:`Finding`,
:class:`StaleSuppression`, :func:`split_controls`,
:func:`stale_suppressions`, and the two verdicts over any
:class:`~repro.lint.summaries.Propagation`, :func:`exceeds_findings`
and :func:`closure_findings` (the latter over the
:class:`EntryClosure` walk).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.astcheck import (
    RULE_PERSIST_OUTSIDE_TXN,
    RULE_RECURSION,
    AllowMap,
    applies_before_commit,
    recursive_calls,
)
from repro.lint.callgraph import CallGraph, FunctionNode, build_callgraph
from repro.lint.decorators import ComplexityClass
from repro.lint.protocols import (
    RULE_FLOW_PERSIST,
    RULE_STALE_TRANSLATION,
    ProtocolResult,
    compute_protocols,
    persist_roots,
)
from repro.lint.summaries import (
    RULE_COST_EXCEEDS,
    RULE_UNDECLARED,
    Hop,
    L,
    Propagation,
    SummaryTable,
    Witness,
)

RULE_CONTROL_MISSING = "flow-control-missing"

#: Planted controls the pass must flag on every run (function, rule).
CONTROLS: Tuple[Tuple[str, str], ...] = (
    ("repro.lint.controls.control_undeclared_callee_loop", RULE_COST_EXCEEDS),
    ("repro.lint.controls.control_persist_commit_elsewhere", RULE_FLOW_PERSIST),
)

#: ``Kernel`` methods treated as hot-path entry points alongside every
#: public ``Syscalls`` method.
_KERNEL_ENTRY_NAMES = frozenset(
    {"spawn", "fork", "access", "access_range", "crash"}
)

_COST_EXCEEDS = "declared {declared} but the call graph reaches {level} work"
_UNDECLARED = (
    "reachable from hot-path entry {entry} with {level} shape but no "
    "@o1/@complexity declaration"
)


@dataclass(frozen=True)
class Finding:
    """One finding (o1 pass or AllocSan) on one function."""

    path: str
    line: int
    module: str
    qualname: str
    rule: str
    message: str
    chain: Tuple[Hop, ...] = ()

    @classmethod
    def on(
        cls,
        func: FunctionNode,
        rule: str,
        message: str,
        line: Optional[int] = None,
        chain: Tuple[Hop, ...] = (),
    ) -> "Finding":
        """A finding on ``func``, reported at ``line`` (default: its def)."""
        return cls(
            path=func.path,
            line=func.lineno if line is None else line,
            module=func.module,
            qualname=func.qualname,
            rule=rule,
            message=message,
            chain=chain,
        )

    @property
    def function(self) -> str:
        """Fully qualified dotted name (``module.qualname``)."""
        return f"{self.module}.{self.qualname}"

    def format(self) -> str:
        head = f"{self.path}:{self.line}: [{self.rule}] {self.function}: {self.message}"
        if not self.chain:
            return head
        steps = "\n".join(f"      {hop.format()}" for hop in self.chain)
        return f"{head}\n{steps}"


@dataclass(frozen=True)
class StaleSuppression:
    """An allow comment that suppressed nothing.

    ``marker`` names its namespace: ``o1`` for ``# o1: allow`` (unused
    by this pass), ``alloc`` for ``# alloc: allow`` (unused by
    AllocSan).
    """

    path: str
    line: int
    rules: Tuple[str, ...]
    marker: str

    def format(self) -> str:
        listed = ", ".join(self.rules)
        return (
            f"{self.path}:{self.line}: stale suppression "
            f"# {self.marker}: allow({listed})"
        )


@dataclass
class FlowResult:
    """Everything the o1 pass of ``repro-o1 lint`` reports."""

    findings: List[Finding]
    controls_verified: List[Finding]
    stale_suppressions: List[StaleSuppression]
    entries: List[str]
    files: int
    functions: int
    declared: int
    sites_total: int
    sites_resolved: int
    graph: CallGraph = field(repr=False)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def entry_points(graph: CallGraph) -> List[str]:
    """Hot-path entries: public ``Syscalls`` methods plus the ``Kernel``
    operations user programs hit on every access/fork/crash."""
    entries: List[str] = []
    for klass in graph.classes.values():
        if klass.name == "Syscalls":
            entries.extend(
                fid
                for name, fid in sorted(klass.methods.items())
                if not name.startswith("_")
            )
        elif klass.name == "Kernel":
            entries.extend(
                fid
                for name, fid in sorted(klass.methods.items())
                if name in _KERNEL_ENTRY_NAMES
            )
    return entries


# ---------------------------------------------------------------------------
# Verdict plumbing shared with AllocSan
# ---------------------------------------------------------------------------
class EntryClosure:
    """Breadth-first closure of hot-path entries over a call graph.

    ``order`` lists every function reachable from ``entries`` in visit
    order; each one remembers the call that first reached it, so
    :meth:`chain` can show how an entry gets there.  ``successors``
    yields ``(callee, call line)`` pairs; the flow pass follows every
    resolved call, AllocSan only its non-cold ones.
    """

    def __init__(
        self,
        graph: CallGraph,
        entries: Sequence[str],
        successors: Callable[[str], Iterable[Tuple[str, int]]],
    ) -> None:
        self.graph = graph
        self.order: List[str] = []
        self._parent: Dict[str, Tuple[Optional[str], int]] = {}
        for entry in entries:
            if entry in self._parent:
                continue
            self._parent[entry] = (None, graph.functions[entry].lineno)
            queue = deque([entry])
            while queue:
                current = queue.popleft()
                self.order.append(current)
                for target, line in successors(current):
                    if target in self._parent or target not in graph.functions:
                        continue
                    self._parent[target] = (current, line)
                    queue.append(target)

    def chain(
        self, fid: str, witness: Optional[Witness], limit: int = 12
    ) -> Tuple[Hop, ...]:
        """Entry-to-``fid`` call chain, then ``witness`` inside ``fid``."""
        hops: List[Hop] = []
        cursor: Optional[str] = fid
        while cursor is not None:
            origin, line = self._parent[cursor]
            hops.append(
                Hop(
                    fid=cursor,
                    path=self.graph.functions[cursor].path,
                    line=line,
                    note="" if origin is None else "called from here",
                )
            )
            cursor = origin
        hops.reverse()
        if witness is not None:
            func = self.graph.functions[fid]
            hops.append(
                Hop(fid=fid, path=func.path, line=witness.line, note=witness.detail)
            )
        return tuple(hops[:limit])


def split_controls(
    findings: List[Finding],
    controls: Sequence[Tuple[str, str]],
    missing_rule: str,
    where: str,
) -> Tuple[List[Finding], List[Finding]]:
    """Separate the planted ``controls`` from real findings.

    Returns ``(real, verified)``.  A control that did not fire becomes a
    ``missing_rule`` finding at path ``<where>``: the pass is broken.
    """
    control_keys = set(controls)
    real: List[Finding] = []
    verified: List[Finding] = []
    for finding in findings:
        if (finding.function, finding.rule) in control_keys:
            verified.append(finding)
        else:
            real.append(finding)
    fired = {(f.function, f.rule) for f in verified}
    for function, rule in controls:
        if (function, rule) in fired:
            continue
        module, _, qualname = function.rpartition(".")
        real.append(
            Finding(
                path=f"<{where}>",
                line=0,
                module=module,
                qualname=qualname,
                rule=missing_rule,
                message=(
                    f"planted control was not flagged for {rule}; the "
                    f"{where} pass is not detecting what it is built to detect"
                ),
            )
        )
    return real, verified


def stale_suppressions(
    allow_maps: Dict[str, AllowMap], marker: str
) -> List[StaleSuppression]:
    """Every ``# <marker>: allow`` comment no lookup consumed."""
    stale: List[StaleSuppression] = []
    for path in sorted(allow_maps):
        allow_map = allow_maps[path]
        for line in sorted(allow_map.rules_by_line):
            if line in allow_map.used:
                continue
            stale.append(
                StaleSuppression(
                    path=path,
                    line=line,
                    rules=tuple(sorted(allow_map.rules_by_line[line])),
                    marker=marker,
                )
            )
    return stale


def exceeds_findings(
    table: Propagation[L], rule: str, message: str
) -> List[Finding]:
    """Declared functions whose computed summary is above their
    declaration, each with its witness chain.  ``message`` is formatted
    with the ``declared`` text and the summary's ``level``."""
    graph = table.graph
    findings: List[Finding] = []
    for fid in sorted(graph.functions):
        declared = table.declared_level(fid)
        if declared is None:
            continue
        summary = table.summaries[fid]
        if summary.cost <= declared:
            continue
        func = graph.functions[fid]
        if table.allows[func.path].allow((func.lineno,), rule):
            continue
        chain = tuple(table.witness_chain(fid))
        text = message.format(
            declared=table.declared_text(fid), level=table.label(summary.cost)
        )
        findings.append(
            Finding.on(
                func, rule, text, line=chain[0].line if chain else None, chain=chain
            )
        )
    return findings


def closure_findings(
    table: Propagation[L], entries: Sequence[str], rule: str, message: str
) -> Tuple[List[Finding], int]:
    """Undeclared functions above the lattice's bottom that a hot entry
    reaches over ``table.successors``, and the closure's size.
    ``message`` is formatted with the ``entry`` and the ``level``."""
    graph = table.graph
    closure = EntryClosure(graph, entries, table.successors)
    findings: List[Finding] = []
    for fid in closure.order:
        if table.declared_level(fid) is not None:
            continue
        summary = table.summaries[fid]
        if summary.cost == table.bottom:
            continue
        func = graph.functions[fid]
        if table.allows[func.path].allow((func.lineno,), rule):
            continue
        chain = closure.chain(fid, summary.witness)
        text = message.format(entry=chain[0].fid, level=table.label(summary.cost))
        findings.append(Finding.on(func, rule, text, chain=chain))
    return findings, len(closure.order)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def _intra_findings(graph: CallGraph) -> List[Finding]:
    """The intraprocedural rules, run on each function of the graph."""
    findings: List[Finding] = []
    for fid in sorted(graph.functions):
        func = graph.functions[fid]
        flagged = [
            (
                RULE_PERSIST_OUTSIDE_TXN,
                call,
                f"journaled mutation {ast.unparse(call.func)}() applied "
                "with no preceding _journal_commit() in scope",
            )
            for call in applies_before_commit(func.node)
        ]
        if func.declared in (ComplexityClass.CONSTANT, ComplexityClass.LOG):
            flagged.extend(
                (
                    RULE_RECURSION,
                    call,
                    f"declared {func.declared} but makes a recursive call "
                    f"to {func.name}()",
                )
                for call in recursive_calls(func.node)
            )
        allowed = graph.allow_maps[func.path]
        for rule, call, message in flagged:
            lines = [*allowed.lines_for(call.lineno), func.lineno]
            if not allowed.allow(lines, rule):
                findings.append(Finding.on(func, rule, message, line=call.lineno))
    return findings


def _protocol_findings(
    graph: CallGraph, protocols: ProtocolResult, entries: Sequence[str]
) -> List[Finding]:
    findings: List[Finding] = []
    for entry in entries:
        effect = protocols.tlb.get(entry)
        if effect is None or not effect.gen:
            continue
        func = graph.functions[entry]
        allowed = graph.allow_maps[func.path]
        if allowed.allow((func.lineno,), RULE_STALE_TRANSLATION):
            continue
        findings.append(
            Finding.on(
                func,
                RULE_STALE_TRANSLATION,
                "page-table mutation can reach the syscall return with "
                "no TLB/rTLB/premap invalidation on any later path",
                line=effect.chain[0].line if effect.chain else None,
                chain=effect.chain,
            )
        )
    roots = set(persist_roots(graph, protocols)) | set(entries)
    seen: Set[Tuple[str, str, int]] = set()
    for root in sorted(roots):
        effect = protocols.persist.get(root)
        if effect is None or not effect.pre_applies:
            continue
        func = graph.functions[root]
        allowed = graph.allow_maps[func.path]
        if allowed.allow((func.lineno,), RULE_FLOW_PERSIST):
            continue
        for chain in effect.pre_applies:
            apply_hop = chain[-1]
            key = (root, apply_hop.path, apply_hop.line)
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                Finding.on(
                    func,
                    RULE_FLOW_PERSIST,
                    "journaled mutation can apply with no "
                    "_journal_commit() anywhere on the path from this "
                    "protocol root",
                    line=chain[0].line if chain else None,
                    chain=chain,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def run_flow(root: Path, package: str = "repro") -> FlowResult:
    """Run the whole o1 pass over the package at ``root``."""
    graph = build_callgraph(root, package)
    table = SummaryTable(graph)
    protocols = compute_protocols(graph)
    entries = entry_points(graph)
    coverage, _ = closure_findings(table, entries, RULE_UNDECLARED, _UNDECLARED)
    findings = (
        _intra_findings(graph)
        + exceeds_findings(table, RULE_COST_EXCEEDS, _COST_EXCEEDS)
        + coverage
        + _protocol_findings(graph, protocols, entries)
    )
    findings, verified = split_controls(
        findings, CONTROLS, RULE_CONTROL_MISSING, "flow"
    )
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.function))
    return FlowResult(
        findings=findings,
        controls_verified=verified,
        stale_suppressions=stale_suppressions(graph.allow_maps, "o1"),
        entries=entries,
        files=graph.files_parsed,
        functions=len(graph.functions),
        declared=sum(
            1 for func in graph.functions.values() if func.declared is not None
        ),
        sites_total=graph.sites_total,
        sites_resolved=graph.sites_resolved,
        graph=graph,
    )

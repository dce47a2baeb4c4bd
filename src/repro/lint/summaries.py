"""Transitive cost summaries over the call graph.

Every function gets a *computed* cost class from the lattice

    CONSTANT < LOG < LINEAR < LINEARITHMIC < UNBOUNDED

by combining its own loop shape with the cost of everything it calls,
bottom-up in reverse-topological SCC order:

* a loop the AST cannot bound to a constant contributes LINEAR (or
  UNBOUNDED when nested inside another unbounded loop);
* a call contributes the callee's *declared* class when the callee is
  decorated — declarations are trust cut points, each verified at its
  own node — and the callee's computed summary otherwise;
* a call inside an unbounded loop is scaled: CONSTANT work per
  iteration makes the loop LINEAR, LOG makes it LINEARITHMIC, anything
  more is UNBOUNDED;
* any cycle of *undeclared* functions is UNBOUNDED (recursion the
  linter cannot bound);
* unresolved calls (builtins, untyped handles) contribute CONSTANT —
  deliberate optimism; the declaration-coverage gate is what forces
  hot-path code into the resolved world.

A loop's header (a ``for`` iterable, a comprehension's first iterable)
runs once, before the first iteration, so it is judged at the loop's
enclosing depth.  ``# o1: allow(flow-bounded)`` on a loop or call site
line, or alone on the line above it, marks it bounded (constant
iterations / constant-amortized callee).  An allow for a ``for`` or
``while`` loop bounds the loop only: a call in its header keeps its own
cost.

Two checks run on the summaries: ``flow-cost-exceeds-declared`` (a
declared function's computed summary is worse than its decorator says,
reported with the witness call chain) and ``flow-undeclared`` (a
function reachable from a hot-path entry point is neither declared nor
constant-shaped, reported with the path from the entry).
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.astcheck import (
    _is_constant_bounded,
    _LOOP_TYPES,
    _LoopNode,
    _SCOPE_TYPES,
    loop_parts,
)
from repro.lint.callgraph import CallGraph, CallSite, FunctionNode
from repro.lint.decorators import ComplexityClass

RULE_COST_EXCEEDS = "flow-cost-exceeds-declared"
RULE_UNDECLARED = "flow-undeclared"
#: Suppression-only rule: names a loop or call site proven bounded by
#: reasoning the AST cannot do.  Never reported, only allowed.
RULE_BOUNDED = "flow-bounded"


class Cost(enum.IntEnum):
    """Summary lattice; comparison is growth order."""

    CONSTANT = 0
    LOG = 1
    LINEAR = 2
    LINEARITHMIC = 3
    UNBOUNDED = 4

    @property
    def label(self) -> str:
        return _COST_LABEL[self]


_COST_LABEL = {
    Cost.CONSTANT: "O(1)",
    Cost.LOG: "O(log n)",
    Cost.LINEAR: "O(n)",
    Cost.LINEARITHMIC: "O(n log n)",
    Cost.UNBOUNDED: "unbounded",
}

_DECLARED_COST = {
    ComplexityClass.CONSTANT: Cost.CONSTANT,
    ComplexityClass.LOG: Cost.LOG,
    ComplexityClass.LINEAR: Cost.LINEAR,
    ComplexityClass.LINEARITHMIC: Cost.LINEARITHMIC,
}


def declared_cost(klass: ComplexityClass) -> Cost:
    return _DECLARED_COST[klass]


@dataclass(frozen=True)
class Hop:
    """One step of a call-chain diagnostic."""

    fid: str
    path: str
    line: int
    note: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.fid} {self.note}".rstrip()


@dataclass(frozen=True)
class Witness:
    """Why a function's summary is what it is."""

    kind: str  # "loop" | "call" | "recursion"
    line: int
    detail: str
    callee: Optional[str] = None
    #: A loop witness's own cost: LINEAR, or UNBOUNDED when nested.
    cost: Optional[Cost] = None


@dataclass
class Summary:
    """Computed cost of one function (ignoring its own declaration)."""

    fid: str
    cost: Cost
    witness: Optional[Witness] = None


# ---------------------------------------------------------------------------
# Per-function shape: unbounded-loop depth for every loop and call site
# ---------------------------------------------------------------------------
@dataclass
class _Shape:
    loops: List[Witness]
    call_depth: Dict[int, int]  # id(ast.Call) -> enclosing unbounded loops
    #: id(ast.Call) in a ``for``/``while`` header -> the loop's line.
    header_loop: Dict[int, int]


def _loop_detail(loop: _LoopNode) -> str:
    if isinstance(loop, ast.While):
        try:
            test = ast.unparse(loop.test)
        except Exception:  # pragma: no cover
            test = "..."
        return f"while {test[:48]}"
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        try:
            iterable = ast.unparse(loop.iter)
        except Exception:  # pragma: no cover
            iterable = "..."
        return f"loop over {iterable[:48]}"
    return "comprehension the AST cannot bound"


def _shape_of(graph: CallGraph, func: FunctionNode) -> _Shape:
    allowed = graph.allow_maps[func.path]
    shape = _Shape(loops=[], call_depth={}, header_loop={})

    def bounded(loop: _LoopNode) -> bool:
        if _is_constant_bounded(loop):
            return True
        return allowed.allow(
            [*allowed.lines_for(loop.lineno), func.lineno], RULE_BOUNDED
        )

    def visit(node: ast.AST, depth: int) -> None:
        if isinstance(node, _SCOPE_TYPES):
            return
        if isinstance(node, ast.Call):
            shape.call_depth[id(node)] = depth
        if isinstance(node, _LOOP_TYPES):
            inner = depth
            if not bounded(node):
                cost = _loop_cost(depth)
                shape.loops.append(
                    Witness(
                        kind="loop",
                        line=node.lineno,
                        detail=(
                            f"{_loop_detail(node)}"
                            f" [{cost.label}"
                            + (" — nested in an unbounded loop]" if depth else "]")
                        ),
                        cost=cost,
                    )
                )
                inner = depth + 1
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                header_expr = node.test if isinstance(node, ast.While) else node.iter
                for child in ast.walk(header_expr):
                    if isinstance(child, ast.Call):
                        shape.header_loop[id(child)] = node.lineno
            header, per_iteration = loop_parts(node)
            if header is not None:
                visit(header, depth)
            for child in per_iteration:
                visit(child, inner)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, depth)

    for stmt in func.node.body:
        visit(stmt, 0)
    return shape


def _loop_cost(depth: int) -> Cost:
    return Cost.LINEAR if depth == 0 else Cost.UNBOUNDED


def _scaled(cost: Cost, depth: int) -> Cost:
    """Cost of ``depth`` nested unbounded loops around per-iteration ``cost``."""
    if depth == 0:
        return cost
    if depth == 1:
        if cost is Cost.CONSTANT:
            return Cost.LINEAR
        if cost is Cost.LOG:
            return Cost.LINEARITHMIC
        return Cost.UNBOUNDED
    return Cost.UNBOUNDED


# ---------------------------------------------------------------------------
# SCC condensation (iterative Tarjan)
# ---------------------------------------------------------------------------
def strongly_connected(
    nodes: Sequence[str], edges: Dict[str, List[str]]
) -> List[List[str]]:
    """SCCs of ``nodes`` in reverse-topological order (callees first)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            targets = edges.get(node, [])
            while child_index < len(targets):
                target = targets[child_index]
                child_index += 1
                if target not in index:
                    work[-1] = (node, child_index)
                    work.append((target, 0))
                    advanced = True
                    break
                if target in on_stack:
                    lowlink[node] = min(lowlink[node], index[target])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


# ---------------------------------------------------------------------------
# Summary computation
# ---------------------------------------------------------------------------
@dataclass
class _BoundedSite:
    """A call site excused by ``flow-bounded``; usage judged after the fact."""

    caller: str
    site: CallSite
    allow_line: int


class SummaryTable:
    """Computed summaries plus the helpers findings are built from."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.shapes: Dict[str, _Shape] = {}
        self.summaries: Dict[str, Summary] = {}
        self._bounded_sites: List[_BoundedSite] = []
        self._scc_of: Dict[str, int] = {}
        self._compute()

    # -- propagation ---------------------------------------------------
    def _site_bound_line(self, func: FunctionNode, site: CallSite) -> Optional[int]:
        allowed = self.graph.allow_maps[func.path]
        lines = allowed.lines_for(site.line)
        loop_line = self.shapes[func.fid].header_loop.get(id(site.node))
        if loop_line is not None:
            # The loop's allow bounds the loop, not a call in its header.
            lines = [line for line in lines if line not in (loop_line, loop_line - 1)]
        return allowed.match(lines, RULE_BOUNDED)

    def _compute(self) -> None:
        graph = self.graph
        for fid, func in graph.functions.items():
            self.shapes[fid] = _shape_of(graph, func)
        edges: Dict[str, List[str]] = {}
        for fid, func in graph.functions.items():
            out: List[str] = []
            for site in graph.calls.get(fid, ()):
                bound_line = self._site_bound_line(func, site)
                if bound_line is not None:
                    self._bounded_sites.append(
                        _BoundedSite(caller=fid, site=site, allow_line=bound_line)
                    )
                    continue
                for target in site.targets:
                    node = graph.functions.get(target)
                    if node is not None and node.declared is None:
                        out.append(target)
            edges[fid] = out
        components = strongly_connected(list(graph.functions), edges)
        for number, component in enumerate(components):
            for member in component:
                self._scc_of[member] = number
        for component in components:
            cyclic = len(component) > 1 or (
                component[0] in edges.get(component[0], ())
            )
            if cyclic:
                for member in component:
                    self.summaries[member] = self._recursive_summary(
                        member, set(component)
                    )
                continue
            fid = component[0]
            self.summaries[fid] = self._combine(fid)
        for bounded in self._bounded_sites:
            if self._bounded_site_was_needed(bounded):
                self.graph.allow_maps[
                    self.graph.functions[bounded.caller].path
                ].mark_used(bounded.allow_line)

    def _recursive_summary(self, fid: str, component: Set[str]) -> Summary:
        witness: Optional[Witness] = None
        for site in self.graph.calls.get(fid, ()):
            for target in site.targets:
                if target in component:
                    witness = Witness(
                        kind="recursion",
                        line=site.line,
                        detail=f"recursive call {site.raw} (cycle of undeclared functions)",
                        callee=None,
                    )
                    break
            if witness is not None:
                break
        return Summary(fid=fid, cost=Cost.UNBOUNDED, witness=witness)

    def effective_cost(self, fid: str) -> Cost:
        """What a call to ``fid`` contributes: declared cut or summary."""
        node = self.graph.functions.get(fid)
        if node is not None and node.declared is not None:
            return declared_cost(node.declared)
        summary = self.summaries.get(fid)
        return summary.cost if summary is not None else Cost.CONSTANT

    def _combine(self, fid: str) -> Summary:
        shape = self.shapes[fid]
        best_cost = Cost.CONSTANT
        best_witness: Optional[Witness] = None
        candidates: List[Tuple[Cost, int, Witness]] = []
        for loop in shape.loops:
            assert loop.cost is not None
            candidates.append((loop.cost, loop.line, loop))
        bounded_ids = {
            id(b.site.node) for b in self._bounded_sites if b.caller == fid
        }
        for site in self.graph.calls.get(fid, ()):
            if not site.targets:
                continue
            if id(site.node) in bounded_ids:
                continue
            depth = shape.call_depth.get(id(site.node), 0)
            for target in site.targets:
                raw = self.effective_cost(target)
                cost = _scaled(raw, depth)
                if cost is Cost.CONSTANT:
                    continue
                node = self.graph.functions.get(target)
                label = raw.label
                if node is not None and node.declared is not None:
                    label = f"declared {node.declared}"
                detail = f"calls {site.raw} [{label}]"
                if depth:
                    detail += " inside an unbounded loop"
                candidates.append(
                    (
                        cost,
                        site.line,
                        Witness(
                            kind="call",
                            line=site.line,
                            detail=detail,
                            callee=target,
                        ),
                    )
                )
        for cost, line, witness in sorted(
            candidates, key=lambda item: (-item[0], item[1])
        ):
            best_cost = cost
            best_witness = witness
            break
        return Summary(fid=fid, cost=best_cost, witness=best_witness)

    def _bounded_site_was_needed(self, bounded: _BoundedSite) -> bool:
        """A flow-bounded call allow is *used* iff it changed anything."""
        caller_scc = self._scc_of.get(bounded.caller)
        for target in bounded.site.targets:
            if self.effective_cost(target) > Cost.CONSTANT:
                return True
            if (
                self._scc_of.get(target) is not None
                and self._scc_of.get(target) == caller_scc
            ):
                return True
        return False

    # -- diagnostics ---------------------------------------------------
    def witness_chain(self, fid: str, limit: int = 12) -> List[Hop]:
        """Follow worst-cost witnesses down from ``fid``."""
        hops: List[Hop] = []
        current: Optional[str] = fid
        while current is not None and len(hops) < limit:
            node = self.graph.functions[current]
            summary = self.summaries[current]
            witness = summary.witness
            if witness is None:
                hops.append(
                    Hop(
                        fid=current,
                        path=node.path,
                        line=node.lineno,
                        note=f"[{summary.cost.label}]",
                    )
                )
                break
            hops.append(
                Hop(
                    fid=current,
                    path=node.path,
                    line=witness.line,
                    note=witness.detail,
                )
            )
            if witness.kind != "call" or witness.callee is None:
                break
            callee = self.graph.functions.get(witness.callee)
            if callee is None or callee.declared is not None:
                break
            current = witness.callee
        return hops

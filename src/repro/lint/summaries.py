"""Transitive summaries over the call graph: one propagation, two lattices.

:class:`Propagation` summarizes every function of the call graph over
one lattice, bottom-up in reverse-topological SCC order:

* a function's own witnesses (here: loops; AllocSan's: allocation
  shapes) each carry a level;
* a call contributes the callee's *declared* level when the callee is
  declared — declarations are trust cut points, each verified at its
  own node — and the callee's computed summary otherwise;
* a call inside unbounded loops is scaled by the lattice's loop rule;
* any cycle of *undeclared* functions goes to the lattice's top
  (recursion the linter cannot bound);
* unresolved calls contribute the bottom — deliberate optimism; the
  coverage gates are what force hot-path code into the resolved world;
* a call site an allow comment excuses is cut, and the allow counts as
  used only if the cut changed something (a non-bottom callee, or a
  callee in the caller's own cycle).

A summary keeps its worst witness, so :meth:`Propagation.witness_chain`
can follow it down to the loop or shape responsible.  Calls outside the
body (decorators, defaults) run at definition time, not per call, and
are not charged.

:class:`SummaryTable` is the cost lattice

    CONSTANT < LOG < LINEAR < LINEARITHMIC < UNBOUNDED

where a loop the AST cannot bound contributes LINEAR (UNBOUNDED when
nested inside another unbounded loop) and a call inside an unbounded
loop is scaled: CONSTANT work per iteration makes the loop LINEAR, LOG
makes it LINEARITHMIC, anything more is UNBOUNDED.  A loop's header (a
``for`` iterable, a comprehension's first iterable) runs once, before
the first iteration, so it is judged at the loop's enclosing depth.
``# o1: allow(flow-bounded)`` on a loop or call site line, or alone on
the line above it, marks it bounded (constant iterations /
constant-amortized callee).  An allow for a ``for`` or ``while`` loop
bounds the loop only: a call in its header keeps its own cost.
AllocSan's :class:`repro.lint.alloc.AllocTable` is the other lattice.

Two checks run on the cost summaries: ``flow-cost-exceeds-declared`` (a
declared function's computed summary is worse than its decorator says,
reported with the witness call chain) and ``flow-undeclared`` (a
function reachable from a hot-path entry point is neither declared nor
constant-shaped, reported with the path from the entry).
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import (
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.lint.astcheck import (
    AllowMap,
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


#: A summary lattice: an IntEnum whose order is growth order.
L = TypeVar("L", bound=enum.IntEnum)


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

    kind: str  # "loop" | "shape" | "call" | "recursion"
    line: int
    detail: str
    callee: Optional[str] = None


@dataclass
class Summary(Generic[L]):
    """Computed level of one function (ignoring its own declaration)."""

    fid: str
    cost: L
    witness: Optional[Witness] = None


@dataclass
class Walk(Generic[L]):
    """One function body on its own: its witnesses and its call sites."""

    own: List[Tuple[L, Witness]] = field(default_factory=list)
    #: id(ast.Call) -> enclosing unbounded loops, for every call that
    #: runs per invocation (not a decorator's or a default's).
    call_depth: Dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ExcusedSite:
    """A call site an allow comment cut; usage judged after the fact."""

    caller: str
    site: CallSite
    allow_line: int


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
# The propagation
# ---------------------------------------------------------------------------
class Propagation(Generic[L]):
    """Summaries of one lattice over the call graph, plus the helpers
    findings are built from.

    A subclass supplies the lattice (``bottom``, ``top``, :meth:`label`,
    :meth:`scale`), the per-function walk (:meth:`_walk`), the excuse
    rule (:meth:`_excuse_line`) and the declared bounds
    (:meth:`declared_level`, :meth:`declared_text`); ``allows`` is the
    allow namespace both the excuse rule and the verdicts read.
    """

    bottom: L
    top: L
    #: What a cycle's members are, for the recursion witness.
    cycle_note = "undeclared"

    def __init__(self, graph: CallGraph, allows: Dict[str, AllowMap]) -> None:
        self.graph = graph
        self.allows = allows
        self.walks = {fid: self._walk(func) for fid, func in graph.functions.items()}
        self.summaries: Dict[str, Summary[L]] = {}
        self.excused: List[ExcusedSite] = []
        self._excused_ids: Set[int] = set()
        self._scc_of: Dict[str, int] = {}
        self._propagate()

    # -- supplied by the lattice -----------------------------------------
    def label(self, level: L) -> str:
        raise NotImplementedError

    def scale(self, level: L, depth: int) -> L:
        """Level of ``depth`` nested unbounded loops around ``level``."""
        raise NotImplementedError

    def declared_level(self, fid: str) -> Optional[L]:
        """The level a declaration on ``fid`` promises, or None."""
        raise NotImplementedError

    def declared_text(self, fid: str) -> str:
        """The declaration of ``fid`` as findings spell it."""
        raise NotImplementedError

    def _walk(self, func: FunctionNode) -> Walk[L]:
        raise NotImplementedError

    def _excuse_line(self, func: FunctionNode, site: CallSite) -> Optional[int]:
        """The allow line that cuts ``site``, if any; no usage marking."""
        raise NotImplementedError

    # -- propagation -----------------------------------------------------
    def _kept_sites(self, fid: str) -> Iterator[Tuple[CallSite, int]]:
        """Per-invocation call sites no allow cut, with their loop depth."""
        call_depth = self.walks[fid].call_depth
        for site in self.graph.calls.get(fid, ()):
            depth = call_depth.get(id(site.node))
            if depth is not None and id(site.node) not in self._excused_ids:
                yield site, depth

    def _propagate(self) -> None:
        graph = self.graph
        edges: Dict[str, List[str]] = {}
        for fid, func in graph.functions.items():
            call_depth = self.walks[fid].call_depth
            for site in graph.calls.get(fid, ()):
                if id(site.node) not in call_depth:
                    continue
                line = self._excuse_line(func, site)
                if line is not None:
                    self.excused.append(ExcusedSite(fid, site, line))
                    self._excused_ids.add(id(site.node))
            edges[fid] = [
                target
                for site, _ in self._kept_sites(fid)
                for target in site.targets
                if target in graph.functions and self.declared_level(target) is None
            ]
        components = strongly_connected(list(graph.functions), edges)
        for number, component in enumerate(components):
            members = set(component)
            cyclic = len(component) > 1 or component[0] in edges[component[0]]
            for member in component:
                self._scc_of[member] = number
                self.summaries[member] = (
                    self._recursive(member, members)
                    if cyclic
                    else self._combine(member)
                )
        for excused in self.excused:
            if self._was_needed(excused):
                path = graph.functions[excused.caller].path
                self.allows[path].mark_used(excused.allow_line)

    def _recursive(self, fid: str, component: Set[str]) -> Summary[L]:
        for site in self.graph.calls.get(fid, ()):
            if any(target in component for target in site.targets):
                detail = (
                    f"recursive call {site.raw} "
                    f"(cycle of {self.cycle_note} functions)"
                )
                return Summary(fid, self.top, Witness("recursion", site.line, detail))
        return Summary(fid, self.top)

    def effective(self, fid: str) -> L:
        """What a call to ``fid`` contributes: declared cut or summary."""
        declared = self.declared_level(fid)
        if declared is not None:
            return declared
        summary = self.summaries.get(fid)
        return summary.cost if summary is not None else self.bottom

    def _combine(self, fid: str) -> Summary[L]:
        candidates = list(self.walks[fid].own)
        for site, depth in self._kept_sites(fid):
            for target in site.targets:
                raw = self.effective(target)
                level = self.scale(raw, depth)
                if level == self.bottom:
                    continue
                label = self.label(raw)
                if self.declared_level(target) is not None:
                    label = f"declared {self.declared_text(target)}"
                detail = f"calls {site.raw} [{label}]"
                if depth:
                    detail += " inside an unbounded loop"
                candidates.append((level, Witness("call", site.line, detail, target)))
        if not candidates:
            return Summary(fid, self.bottom)
        level, witness = min(candidates, key=lambda item: (-item[0], item[1].line))
        return Summary(fid, level, witness)

    def _was_needed(self, excused: ExcusedSite) -> bool:
        """An excusing allow is *used* iff the cut changed anything."""
        caller_scc = self._scc_of[excused.caller]
        return any(
            self.effective(target) > self.bottom
            or self._scc_of.get(target) == caller_scc
            for target in excused.site.targets
        )

    # -- diagnostics -----------------------------------------------------
    def successors(self, fid: str) -> Iterable[Tuple[str, int]]:
        """``(callee, line)`` edges a hot-closure walk follows from ``fid``."""
        for site, _ in self._kept_sites(fid):
            for target in site.targets:
                yield target, site.line

    def witness_chain(self, fid: str, limit: int = 12) -> List[Hop]:
        """Follow worst witnesses down from ``fid``."""
        hops: List[Hop] = []
        current = fid
        while len(hops) < limit:
            node = self.graph.functions[current]
            summary = self.summaries[current]
            witness = summary.witness
            if witness is None:
                note = f"[{self.label(summary.cost)}]"
                hops.append(Hop(current, node.path, node.lineno, note))
                break
            hops.append(Hop(current, node.path, witness.line, witness.detail))
            callee = witness.callee
            if (
                witness.kind != "call"
                or callee is None
                or callee not in self.graph.functions
                or self.declared_level(callee) is not None
            ):
                break
            current = callee
        return hops


# ---------------------------------------------------------------------------
# The cost lattice
# ---------------------------------------------------------------------------
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


def _shape_of(
    graph: CallGraph, func: FunctionNode, header_loop: Dict[int, int]
) -> Walk[Cost]:
    """Unbounded loops and call depths of one body; a call in a ``for``
    or ``while`` header is recorded in ``header_loop`` with its loop's
    line."""
    allowed = graph.allow_maps[func.path]
    shape: Walk[Cost] = Walk()

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
                nested = " — nested in an unbounded loop]" if depth else "]"
                detail = f"{_loop_detail(node)} [{cost.label}{nested}"
                shape.own.append((cost, Witness("loop", node.lineno, detail)))
                inner = depth + 1
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                header_expr = node.test if isinstance(node, ast.While) else node.iter
                for child in ast.walk(header_expr):
                    if isinstance(child, ast.Call):
                        header_loop[id(child)] = node.lineno
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


class SummaryTable(Propagation[Cost]):
    """Computed cost summaries; ``flow-bounded`` allows cut call sites."""

    bottom = Cost.CONSTANT
    top = Cost.UNBOUNDED

    def __init__(self, graph: CallGraph) -> None:
        self._header_loop: Dict[int, int] = {}
        super().__init__(graph, graph.allow_maps)

    def label(self, level: Cost) -> str:
        return level.label

    def scale(self, level: Cost, depth: int) -> Cost:
        if depth == 0:
            return level
        if depth == 1 and level is Cost.CONSTANT:
            return Cost.LINEAR
        if depth == 1 and level is Cost.LOG:
            return Cost.LINEARITHMIC
        return Cost.UNBOUNDED

    def declared_level(self, fid: str) -> Optional[Cost]:
        node = self.graph.functions.get(fid)
        if node is None or node.declared is None:
            return None
        return _DECLARED_COST[node.declared]

    def declared_text(self, fid: str) -> str:
        return f"{self.graph.functions[fid].declared}"

    def _walk(self, func: FunctionNode) -> Walk[Cost]:
        return _shape_of(self.graph, func, self._header_loop)

    def _excuse_line(self, func: FunctionNode, site: CallSite) -> Optional[int]:
        allowed = self.allows[func.path]
        lines = allowed.lines_for(site.line)
        loop_line = self._header_loop.get(id(site.node))
        if loop_line is not None:
            # The loop's allow bounds the loop, not a call in its header.
            lines = [line for line in lines if line not in (loop_line, loop_line - 1)]
        return allowed.match(lines, RULE_BOUNDED)

    def successors(self, fid: str) -> Iterable[Tuple[str, int]]:
        """Every resolved call: the coverage gate follows excused and
        definition-time calls too."""
        for site in self.graph.calls.get(fid, ()):
            for target in site.targets:
                yield target, site.line

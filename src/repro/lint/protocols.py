"""Interprocedural must-call protocol checks on the call graph.

Two protocols, both the static twins of dynamic detectors:

**Stale translations** (TransSan's static half, ``flow-stale-translation``):
any path that mutates page-table state — ``unmap`` / ``protect`` /
``link_subtree`` / ``unlink_subtree`` / ``window_write_protect`` or a
direct ``wp_slots`` write — must reach a TLB/rTLB/premap invalidation
(``invalidate*`` / ``flush_asid`` / ``flush_all``) before control
returns to the syscall boundary.  Each function gets a gen/kill effect:
*gen* means "a mutation can still be pending on some path out of this
function", *kill* means "some path through this function invalidates".
Composition is sequential (a later kill clears an earlier gen); at a
branch, gen joins pessimistically (either arm may leave a mutation
pending) while kill joins optimistically — the rule hunts mutations
with *no possible* subsequent invalidation, which is exactly the shape
of a dropped-invalidate bug, without flagging every ``if cpu is not
None`` guard.  Early ``return`` paths carry their pending state to the
function's exit effect; exception exits are exempt (a fault delivery
aborts the translation anyway).

**Persist ordering** (PersistSan's static half,
``flow-persist-outside-txn``): a journal *apply* may only run once the
record describing it has been committed.  The intraprocedural rule only
sees commit and apply in the same body; here each function summarizes
whether it (maybe) commits and which applies can execute before any
commit, and a call composes the callee's pre-commit applies into the
caller unless the caller has already committed by the call site.
Findings are reported at protocol *roots* — entry points and functions
no one in the package calls — with the full chain down to the apply.

Inline escapes: ``# o1: allow(flow-stale-translation)`` on a mutation
site asserts no prior translation can exist (e.g. linking a subtree
into a hole); ``# o1: allow(flow-persist-outside-txn)`` on an apply
site asserts the record is known-committed (e.g. crash-recovery redo).
An apply allowed only for the *intra* rule still propagates — that is
how the flow pass catches the commit-lives-in-the-caller false negative.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.astcheck import (
    _PERSIST_APPLY_ATTRS,
    _PERSIST_COMMIT_ATTR,
    _SCOPE_TYPES,
)
from repro.lint.callgraph import CallGraph, CallSite, FunctionNode
from repro.lint.summaries import Hop, strongly_connected

RULE_STALE_TRANSLATION = "flow-stale-translation"
RULE_FLOW_PERSIST = "flow-persist-outside-txn"

#: Page-table mutators that can leave a stale translation behind.
TLB_GEN_ATTRS = frozenset(
    {"unmap", "protect", "unlink_subtree", "link_subtree", "window_write_protect"}
)

#: Classes whose methods the gen set applies to when the call resolves;
#: unresolved calls fall back to the attribute name alone.
TLB_GEN_OWNERS = frozenset({"PageTable"})

#: Invalidation primitives (TLB, range-TLB, CPU fan-out, premap cache).
TLB_KILL_ATTRS = frozenset(
    {
        "invalidate",
        "invalidate_range",
        "invalidate_page",
        "invalidate_space_range",
        "invalidate_overlap",
        "flush_asid",
        "flush_all",
    }
)

_MAX_CHAIN = 12
_MAX_FIXPOINT_PASSES = 8


# ---------------------------------------------------------------------------
# Stale-translation effect lattice
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TlbEffect:
    """gen/kill summary of one function (or statement sequence)."""

    gen: bool = False
    kill: bool = False
    chain: Tuple[Hop, ...] = ()


_IDENTITY = TlbEffect()


def _compose(first: TlbEffect, second: TlbEffect) -> TlbEffect:
    gen = (first.gen and not second.kill) or second.gen
    if second.gen:
        chain = second.chain
    elif first.gen and not second.kill:
        chain = first.chain
    else:
        chain = ()
    return TlbEffect(gen=gen, kill=first.kill or second.kill, chain=chain)


def _join(first: TlbEffect, second: TlbEffect) -> TlbEffect:
    gen = first.gen or second.gen
    chain = first.chain if first.gen else second.chain
    return TlbEffect(gen=gen, kill=first.kill or second.kill, chain=chain)


def _join_all(effects: Sequence[TlbEffect]) -> TlbEffect:
    result = _IDENTITY
    for effect in effects:
        result = _join(result, effect)
    return result


class _TlbEvaluator:
    """Evaluates one function body against the current effect table."""

    def __init__(
        self,
        graph: CallGraph,
        func: FunctionNode,
        effects: Dict[str, TlbEffect],
        sites_by_node: Dict[int, CallSite],
    ) -> None:
        self.graph = graph
        self.func = func
        self.effects = effects
        self.sites = sites_by_node
        self.allowed = graph.allow_maps[func.path]
        self.exit_effect = _IDENTITY

    def run(self) -> TlbEffect:
        body_effect = self._sequence(self.func.node.body)
        return _join(self.exit_effect, body_effect)

    # -- structure -----------------------------------------------------
    def _sequence(self, body: Sequence[ast.stmt]) -> TlbEffect:
        acc = _IDENTITY
        for stmt in body:
            acc = self._statement(stmt, acc)
        return acc

    def _statement(self, stmt: ast.stmt, acc: TlbEffect) -> TlbEffect:
        if isinstance(stmt, _SCOPE_TYPES):
            return acc
        if isinstance(stmt, ast.Return):
            acc = _compose(acc, self._calls_in(stmt))
            self.exit_effect = _join(self.exit_effect, acc)
            return acc
        if isinstance(stmt, ast.Raise):
            # Exceptional exits are exempt: the fault path re-walks.
            return acc
        if isinstance(stmt, ast.If):
            acc = _compose(acc, self._calls_in_expr(stmt.test))
            branches = _join(
                self._sequence(stmt.body), self._sequence(stmt.orelse)
            )
            return _compose(acc, branches)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            acc = _compose(acc, self._calls_in_expr(stmt.iter))
            loop_body = _join(_IDENTITY, self._sequence(stmt.body))
            acc = _compose(acc, loop_body)
            return _compose(acc, self._sequence(stmt.orelse))
        if isinstance(stmt, ast.While):
            acc = _compose(acc, self._calls_in_expr(stmt.test))
            loop_body = _join(_IDENTITY, self._sequence(stmt.body))
            acc = _compose(acc, loop_body)
            return _compose(acc, self._sequence(stmt.orelse))
        if isinstance(stmt, ast.Try):
            acc = _compose(acc, self._sequence(stmt.body))
            handler_effects = [self._sequence(h.body) for h in stmt.handlers]
            acc = _compose(acc, _join_all([_IDENTITY, *handler_effects]))
            acc = _compose(acc, self._sequence(stmt.orelse))
            return _compose(acc, self._sequence(stmt.finalbody))
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                acc = _compose(acc, self._calls_in_expr(item.context_expr))
            return _compose(acc, self._sequence(stmt.body))
        return _compose(acc, self._calls_in(stmt))

    # -- leaves --------------------------------------------------------
    def _calls_in(self, stmt: ast.stmt) -> TlbEffect:
        return self._calls_in_nodes(list(ast.iter_child_nodes(stmt)))

    def _calls_in_expr(self, expr: ast.expr) -> TlbEffect:
        return self._calls_in_nodes([expr])

    def _calls_in_nodes(self, roots: List[ast.AST]) -> TlbEffect:
        calls: List[ast.Call] = []
        stack = list(roots)
        while stack:
            node = stack.pop()
            if isinstance(node, _SCOPE_TYPES):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Call):
                calls.append(node)
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        acc = _IDENTITY
        for call in calls:
            acc = _compose(acc, self._call_effect(call))
        return acc

    def _call_effect(self, call: ast.Call) -> TlbEffect:
        attr = call.func.attr if isinstance(call.func, ast.Attribute) else None
        if attr in TLB_KILL_ATTRS:
            return TlbEffect(kill=True)
        if attr is not None and self._is_wp_slots_write(call):
            return self._gen(call, "direct wp_slots write")
        site = self.sites.get(id(call))
        targets = site.targets if site is not None else ()
        if attr in TLB_GEN_ATTRS:
            if not targets or any(
                self._owner_name(t) in TLB_GEN_OWNERS for t in targets
            ):
                return self._gen(call, f"page-table mutation {site.raw if site else attr}")
        if targets:
            effect = _join_all(
                [self.effects.get(t, _IDENTITY) for t in targets]
            )
            if effect.gen and site is not None:
                hop = Hop(
                    fid=self.func.fid,
                    path=self.func.path,
                    line=call.lineno,
                    note=f"calls {site.raw}",
                )
                effect = TlbEffect(
                    gen=True,
                    kill=effect.kill,
                    chain=(hop, *effect.chain)[:_MAX_CHAIN],
                )
            return effect
        return _IDENTITY

    def _owner_name(self, fid: str) -> Optional[str]:
        node = self.graph.functions.get(fid)
        if node is None or node.owner is None:
            return None
        return node.owner.rsplit(".", 1)[-1]

    def _is_wp_slots_write(self, call: ast.Call) -> bool:
        func = call.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr in ("add", "discard")
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "wp_slots"
        )

    def _gen(self, call: ast.Call, detail: str) -> TlbEffect:
        if self.allowed.allow(
            (call.lineno, call.lineno - 1), RULE_STALE_TRANSLATION
        ):
            return _IDENTITY
        hop = Hop(
            fid=self.func.fid,
            path=self.func.path,
            line=call.lineno,
            note=detail,
        )
        return TlbEffect(gen=True, chain=(hop,))


# ---------------------------------------------------------------------------
# Persist-ordering effect
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PersistEffect:
    """Whether a function may commit, and which applies can pre-empt it."""

    commits: bool = False
    pre_applies: Tuple[Tuple[Hop, ...], ...] = ()


_P_IDENTITY = PersistEffect()


def _p_compose(first: PersistEffect, second: PersistEffect) -> PersistEffect:
    pre = first.pre_applies
    if not first.commits:
        pre = pre + second.pre_applies
    return PersistEffect(
        commits=first.commits or second.commits, pre_applies=pre
    )


def _p_join(first: PersistEffect, second: PersistEffect) -> PersistEffect:
    # Lenient commit join (matches the intra rule's line-order
    # heuristic): if either arm commits, later applies are considered
    # covered.  Pre-commit applies union pessimistically.
    return PersistEffect(
        commits=first.commits or second.commits,
        pre_applies=first.pre_applies + second.pre_applies,
    )


class _PersistEvaluator:
    def __init__(
        self,
        graph: CallGraph,
        func: FunctionNode,
        effects: Dict[str, PersistEffect],
        sites_by_node: Dict[int, CallSite],
    ) -> None:
        self.graph = graph
        self.func = func
        self.effects = effects
        self.sites = sites_by_node
        self.allowed = graph.allow_maps[func.path]

    def run(self) -> PersistEffect:
        return self._sequence(self.func.node.body)

    def _sequence(self, body: Sequence[ast.stmt]) -> PersistEffect:
        acc = _P_IDENTITY
        for stmt in body:
            acc = self._statement(stmt, acc)
        return acc

    def _statement(self, stmt: ast.stmt, acc: PersistEffect) -> PersistEffect:
        if isinstance(stmt, _SCOPE_TYPES):
            return acc
        if isinstance(stmt, ast.If):
            acc = _p_compose(acc, self._calls_in_expr(stmt.test))
            return _p_compose(
                acc, _p_join(self._sequence(stmt.body), self._sequence(stmt.orelse))
            )
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            acc = _p_compose(acc, self._calls_in_expr(stmt.iter))
            body = self._sequence(stmt.body)
            acc = _p_compose(acc, _p_join(_P_IDENTITY, body))
            return _p_compose(acc, self._sequence(stmt.orelse))
        if isinstance(stmt, ast.While):
            acc = _p_compose(acc, self._calls_in_expr(stmt.test))
            body = self._sequence(stmt.body)
            acc = _p_compose(acc, _p_join(_P_IDENTITY, body))
            return _p_compose(acc, self._sequence(stmt.orelse))
        if isinstance(stmt, ast.Try):
            acc = _p_compose(acc, self._sequence(stmt.body))
            handler_effects = [self._sequence(h.body) for h in stmt.handlers]
            joined = _P_IDENTITY
            for effect in handler_effects:
                joined = _p_join(joined, effect)
            acc = _p_compose(acc, joined)
            acc = _p_compose(acc, self._sequence(stmt.orelse))
            return _p_compose(acc, self._sequence(stmt.finalbody))
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                acc = _p_compose(acc, self._calls_in_expr(item.context_expr))
            return _p_compose(acc, self._sequence(stmt.body))
        return _p_compose(acc, self._calls_in_nodes(list(ast.iter_child_nodes(stmt))))

    def _calls_in_expr(self, expr: ast.expr) -> PersistEffect:
        return self._calls_in_nodes([expr])

    def _calls_in_nodes(self, roots: List[ast.AST]) -> PersistEffect:
        calls: List[ast.Call] = []
        stack = list(roots)
        while stack:
            node = stack.pop()
            if isinstance(node, _SCOPE_TYPES):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Call):
                calls.append(node)
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        acc = _P_IDENTITY
        for call in calls:
            acc = _p_compose(acc, self._call_effect(call))
        return acc

    def _call_effect(self, call: ast.Call) -> PersistEffect:
        attr = call.func.attr if isinstance(call.func, ast.Attribute) else None
        if attr == _PERSIST_COMMIT_ATTR:
            return PersistEffect(commits=True)
        if attr in _PERSIST_APPLY_ATTRS:
            if self.allowed.allow(
                (call.lineno, call.lineno - 1), RULE_FLOW_PERSIST
            ):
                return _P_IDENTITY
            hop = Hop(
                fid=self.func.fid,
                path=self.func.path,
                line=call.lineno,
                note=f"journaled mutation {attr}()",
            )
            return PersistEffect(pre_applies=((hop,),))
        site = self.sites.get(id(call))
        if site is None or not site.targets:
            return _P_IDENTITY
        commits = False
        pre: List[Tuple[Hop, ...]] = []
        for target in site.targets:
            effect = self.effects.get(target, _P_IDENTITY)
            commits = commits or effect.commits
            for chain in effect.pre_applies:
                hop = Hop(
                    fid=self.func.fid,
                    path=self.func.path,
                    line=call.lineno,
                    note=f"calls {site.raw}",
                )
                pre.append(((hop, *chain))[:_MAX_CHAIN])
        return PersistEffect(commits=commits, pre_applies=tuple(pre))


# ---------------------------------------------------------------------------
# Fixpoint driver
# ---------------------------------------------------------------------------
@dataclass
class ProtocolResult:
    """Per-function effects for both protocols."""

    tlb: Dict[str, TlbEffect] = field(default_factory=dict)
    persist: Dict[str, PersistEffect] = field(default_factory=dict)
    callers: Dict[str, Set[str]] = field(default_factory=dict)


def _sites_by_node(graph: CallGraph, fid: str) -> Dict[int, CallSite]:
    return {id(site.node): site for site in graph.calls.get(fid, ())}


def compute_protocols(graph: CallGraph) -> ProtocolResult:
    """Evaluate both protocols to a fixpoint over the call graph."""
    result = ProtocolResult()
    edges: Dict[str, List[str]] = {}
    for fid in graph.functions:
        edges[fid] = [t for t in graph.callees(fid) if t in graph.functions]
        for target in edges[fid]:
            result.callers.setdefault(target, set()).add(fid)
    components = strongly_connected(list(graph.functions), edges)
    site_cache = {fid: _sites_by_node(graph, fid) for fid in graph.functions}
    for component in components:
        for _ in range(_MAX_FIXPOINT_PASSES):
            changed = False
            for fid in component:
                func = graph.functions[fid]
                tlb = _TlbEvaluator(
                    graph, func, result.tlb, site_cache[fid]
                ).run()
                persist = _PersistEvaluator(
                    graph, func, result.persist, site_cache[fid]
                ).run()
                if func.name in _PERSIST_APPLY_ATTRS:
                    # The apply implementations are the primitive, not a
                    # violation of it (mirrors the intra rule).
                    persist = PersistEffect(commits=persist.commits)
                if (
                    result.tlb.get(fid) != tlb
                    or result.persist.get(fid) != persist
                ):
                    changed = True
                result.tlb[fid] = tlb
                result.persist[fid] = persist
            if not changed:
                break
    return result


def persist_roots(graph: CallGraph, result: ProtocolResult) -> List[str]:
    """Functions no one in the package calls — where pre-commit applies
    surface as findings (plus anything explicitly marked an entry by the
    caller)."""
    return [
        fid
        for fid in graph.functions
        if not result.callers.get(fid)
    ]

"""Interprocedural must-call protocol checks on the call graph.

Two protocols, both the static twins of dynamic detectors, evaluated by
one statement walker over each protocol's effect lattice
(:class:`MustCall`):

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
None`` guard.

**Persist ordering** (PersistSan's static half,
``flow-persist-outside-txn``): a journal *apply* may only run once the
record describing it has been committed.  The intraprocedural rule only
sees commit and apply in the same body; here each function summarizes
whether *every* path through it commits and which applies can execute
before any commit, and a call composes the callee's pre-commit applies
into the caller unless the caller has already committed by the call
site.  Commits join with AND — at a branch, around a loop body or a
handler that may not run, and across a call's possible targets — so a
commit on one path covers no later apply.  Findings are reported at
protocol *roots* — entry points and functions no one in the package
calls — with the full chain down to the apply.

In both, a ``return`` carries its whole path from function entry to the
function's exit effect, from inside a nested block too: an invalidation
or a commit that an early return skips does not count for that path.
Exception exits are exempt (a fault delivery aborts the translation, and
a raise ends the operation).

Inline escapes: ``# o1: allow(flow-stale-translation)`` on a mutation
site asserts no prior translation can exist (e.g. linking a subtree
into a hole); ``# o1: allow(flow-persist-outside-txn)`` on an apply
site asserts the record is known-committed (e.g. crash-recovery redo).
Either counts on its own line, or alone on the line above.  An apply
allowed only for the *intra* rule still propagates — that is how the
flow pass catches the commit-lives-in-the-caller false negative.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, Generic, List, Optional, Sequence, Set, Tuple, TypeVar

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

#: A protocol's effect: what a statement sequence does to its state.
E = TypeVar("E")


class MustCall(Generic[E]):
    """One must-call protocol: its effect lattice and its own calls.

    The walker asks five things of a protocol: the ``identity`` effect
    (a sequence that calls nothing), sequential :meth:`compose`, the
    :meth:`join` of two paths, how a callee's effect looks from its call
    site (:meth:`through_call`), and the effect of the calls the
    protocol itself names (:meth:`primitive`; None for any other call).
    """

    identity: E

    def compose(self, first: E, second: E) -> E:
        raise NotImplementedError

    def join(self, first: E, second: E) -> E:
        raise NotImplementedError

    def through_call(self, effect: E, hop: Hop) -> E:
        raise NotImplementedError

    def primitive(
        self, walker: "_Walker[E]", call: ast.Call, site: Optional[CallSite]
    ) -> Optional[E]:
        raise NotImplementedError


def _attr(call: ast.Call) -> Optional[str]:
    return call.func.attr if isinstance(call.func, ast.Attribute) else None


# ---------------------------------------------------------------------------
# The statement walker
# ---------------------------------------------------------------------------
class _Walker(Generic[E]):
    """Evaluates one function body under one protocol, against the
    current effect table.

    Every block is walked with its *prefix*: the effect from function
    entry to the block's first statement.  A ``return`` joins its prefix
    composed with the block so far into the exit effect, so the path
    that leaves early keeps what happened before its block.  Statements
    after a ``return`` are walked as if it fell through.  A ``raise``
    and the calls in it are skipped.
    """

    def __init__(
        self,
        protocol: MustCall[E],
        graph: CallGraph,
        func: FunctionNode,
        effects: Dict[str, E],
        sites_by_node: Dict[int, CallSite],
    ) -> None:
        self.protocol = protocol
        self.graph = graph
        self.func = func
        self.effects = effects
        self.sites = sites_by_node
        self.allowed = graph.allow_maps[func.path]
        self.exits: Optional[E] = None

    def run(self) -> E:
        body = self._sequence(self.func.node.body, self.protocol.identity)
        return body if self.exits is None else self.protocol.join(self.exits, body)

    # -- services for a protocol's primitives ----------------------------
    def hop(self, call: ast.Call, note: str) -> Hop:
        return Hop(fid=self.func.fid, path=self.func.path, line=call.lineno, note=note)

    def allows(self, call: ast.Call, rule: str) -> bool:
        return self.allowed.allow(self.allowed.lines_for(call.lineno), rule)

    # -- structure -------------------------------------------------------
    def _sequence(self, body: Sequence[ast.stmt], prefix: E) -> E:
        acc = self.protocol.identity
        for stmt in body:
            acc = self._statement(stmt, prefix, acc)
        return acc

    def _block(self, body: Sequence[ast.stmt], prefix: E, acc: E) -> E:
        """A nested block entered after ``prefix`` and then ``acc``."""
        return self._sequence(body, self.protocol.compose(prefix, acc))

    def _statement(self, stmt: ast.stmt, prefix: E, acc: E) -> E:
        p = self.protocol
        if isinstance(stmt, _SCOPE_TYPES) or isinstance(stmt, ast.Raise):
            return acc
        if isinstance(stmt, ast.Return):
            acc = p.compose(acc, self._calls_in(list(ast.iter_child_nodes(stmt))))
            here = p.compose(prefix, acc)
            self.exits = here if self.exits is None else p.join(self.exits, here)
            return acc
        if isinstance(stmt, ast.If):
            acc = p.compose(acc, self._calls_in([stmt.test]))
            arms = p.join(
                self._block(stmt.body, prefix, acc), self._block(stmt.orelse, prefix, acc)
            )
            return p.compose(acc, arms)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            header = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            acc = p.compose(acc, self._calls_in([header]))
            acc = p.compose(acc, p.join(p.identity, self._block(stmt.body, prefix, acc)))
            return p.compose(acc, self._block(stmt.orelse, prefix, acc))
        if isinstance(stmt, ast.Try):
            acc = p.compose(acc, self._block(stmt.body, prefix, acc))
            handlers = [self._block(h.body, prefix, acc) for h in stmt.handlers]
            acc = p.compose(acc, reduce(p.join, handlers, p.identity))
            acc = p.compose(acc, self._block(stmt.orelse, prefix, acc))
            return p.compose(acc, self._block(stmt.finalbody, prefix, acc))
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acc = p.compose(acc, self._calls_in([item.context_expr for item in stmt.items]))
            return p.compose(acc, self._block(stmt.body, prefix, acc))
        return p.compose(acc, self._calls_in(list(ast.iter_child_nodes(stmt))))

    # -- leaves ----------------------------------------------------------
    def _calls_in(self, roots: Sequence[ast.AST]) -> E:
        """The calls under ``roots``, composed in source order."""
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
        acc = self.protocol.identity
        for call in calls:
            acc = self.protocol.compose(acc, self._call_effect(call))
        return acc

    def _call_effect(self, call: ast.Call) -> E:
        p = self.protocol
        site = self.sites.get(id(call))
        own = p.primitive(self, call, site)
        if own is not None:
            return own
        if site is None or not site.targets:
            return p.identity
        joined = reduce(p.join, [self.effects.get(t, p.identity) for t in site.targets])
        return p.through_call(joined, self.hop(call, f"calls {site.raw}"))


# ---------------------------------------------------------------------------
# Stale translations
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TlbEffect:
    """gen/kill summary of one function (or statement sequence)."""

    gen: bool = False
    kill: bool = False
    chain: Tuple[Hop, ...] = ()


class _StaleTranslation(MustCall[TlbEffect]):
    identity = TlbEffect()

    def compose(self, first: TlbEffect, second: TlbEffect) -> TlbEffect:
        gen = (first.gen and not second.kill) or second.gen
        if second.gen:
            chain = second.chain
        elif first.gen and not second.kill:
            chain = first.chain
        else:
            chain = ()
        return TlbEffect(gen=gen, kill=first.kill or second.kill, chain=chain)

    def join(self, first: TlbEffect, second: TlbEffect) -> TlbEffect:
        # Pessimistic gen, optimistic kill: see the module docstring.
        chain = first.chain if first.gen else second.chain
        return TlbEffect(
            gen=first.gen or second.gen, kill=first.kill or second.kill, chain=chain
        )

    def through_call(self, effect: TlbEffect, hop: Hop) -> TlbEffect:
        if not effect.gen:
            return effect
        chain = (hop, *effect.chain)[:_MAX_CHAIN]
        return TlbEffect(gen=True, kill=effect.kill, chain=chain)

    def primitive(
        self, walker: "_Walker[TlbEffect]", call: ast.Call, site: Optional[CallSite]
    ) -> Optional[TlbEffect]:
        attr = _attr(call)
        if attr in TLB_KILL_ATTRS:
            return TlbEffect(kill=True)
        if attr is not None and _is_wp_slots_write(call):
            return self._gen(walker, call, "direct wp_slots write")
        targets = site.targets if site is not None else ()
        if attr in TLB_GEN_ATTRS and (
            not targets
            or any(_owner_name(walker.graph, t) in TLB_GEN_OWNERS for t in targets)
        ):
            raw = site.raw if site is not None else attr
            return self._gen(walker, call, f"page-table mutation {raw}")
        return None

    def _gen(
        self, walker: "_Walker[TlbEffect]", call: ast.Call, detail: str
    ) -> TlbEffect:
        if walker.allows(call, RULE_STALE_TRANSLATION):
            return self.identity
        return TlbEffect(gen=True, chain=(walker.hop(call, detail),))


def _owner_name(graph: CallGraph, fid: str) -> Optional[str]:
    node = graph.functions.get(fid)
    if node is None or node.owner is None:
        return None
    return node.owner.rsplit(".", 1)[-1]


def _is_wp_slots_write(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in ("add", "discard")
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "wp_slots"
    )


# ---------------------------------------------------------------------------
# Persist ordering
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PersistEffect:
    """Whether every path commits, and which applies can pre-empt it."""

    commits: bool = False
    pre_applies: Tuple[Tuple[Hop, ...], ...] = ()


class _PersistOrdering(MustCall[PersistEffect]):
    identity = PersistEffect()

    def compose(self, first: PersistEffect, second: PersistEffect) -> PersistEffect:
        pre = first.pre_applies
        if not first.commits:
            pre = pre + second.pre_applies
        return PersistEffect(commits=first.commits or second.commits, pre_applies=pre)

    def join(self, first: PersistEffect, second: PersistEffect) -> PersistEffect:
        # A commit counts only when every path makes it; pre-commit
        # applies union across paths.
        pre = first.pre_applies + tuple(
            chain for chain in second.pre_applies if chain not in first.pre_applies
        )
        return PersistEffect(commits=first.commits and second.commits, pre_applies=pre)

    def through_call(self, effect: PersistEffect, hop: Hop) -> PersistEffect:
        pre = tuple((hop, *chain)[:_MAX_CHAIN] for chain in effect.pre_applies)
        return PersistEffect(commits=effect.commits, pre_applies=pre)

    def primitive(
        self, walker: "_Walker[PersistEffect]", call: ast.Call, site: Optional[CallSite]
    ) -> Optional[PersistEffect]:
        attr = _attr(call)
        if attr == _PERSIST_COMMIT_ATTR:
            return PersistEffect(commits=True)
        if attr not in _PERSIST_APPLY_ATTRS:
            return None
        if walker.allows(call, RULE_FLOW_PERSIST):
            return self.identity
        hop = walker.hop(call, f"journaled mutation {attr}()")
        return PersistEffect(pre_applies=((hop,),))


_TLB = _StaleTranslation()
_PERSIST = _PersistOrdering()


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
                sites = site_cache[fid]
                tlb = _Walker(_TLB, graph, func, result.tlb, sites).run()
                persist = _Walker(_PERSIST, graph, func, result.persist, sites).run()
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

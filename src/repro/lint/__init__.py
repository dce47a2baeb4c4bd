"""Order(1) conformance: declarations, the o1 pass, AllocSan, fitters.

The paper's thesis is that every memory-management operation should cost
constant time regardless of operand size.  This package turns that claim
into a machine-checked invariant, in three prongs.  Every finding any
prong reports fails the gate; a justified inline allow comment
(``# o1: allow(rule) -- reason`` or ``# alloc: allow(rule) -- reason``)
is the only escape, and an allow that suppresses nothing is itself a
finding.

* :mod:`repro.lint.decorators` — the :func:`o1` / :func:`complexity`
  decorators hot paths use to *declare* their simulated-cost class, and
  the :func:`allocfree` / :func:`allocbound` decorators that declare the
  orthogonal wall-clock contract (how many Python-level allocations a
  call may perform).  Declaring is free at runtime: each decorator
  returns its function unchanged.
* :mod:`repro.lint.flow` (with :mod:`repro.lint.callgraph`,
  :mod:`repro.lint.summaries`, :mod:`repro.lint.protocols`,
  :mod:`repro.lint.astcheck`, :mod:`repro.lint.controls`) — the o1
  pass.  It parses and tokenizes each module once, builds a syntactic
  call graph of the whole package, propagates transitive cost
  summaries bottom-up over SCCs so a declaration is judged against
  everything it can reach, requires every function reachable from a
  hot-path entry to be declared or constant-shaped, and checks two
  must-call protocols across call boundaries with one statement walker
  (page-table mutation must reach a TLB invalidation before the
  syscall returns; a journal commit must precede every apply on every
  path).  Two rules judge each function body alone:
  self-recursion in an O(1)/O(log n) function, and a journal apply
  with no earlier commit in its function.  Known-O(n)-by-design loops
  carry inline ``# o1: allow(flow-bounded)`` comments, and stale
  ``# o1: allow`` suppressions are themselves findings.
* :mod:`repro.lint.alloc` + :mod:`repro.lint.allocfit` — AllocSan: an
  AST allocation-shape classifier (displays, comprehensions, f-strings,
  closures, star-args, materializing builtins) whose per-function shapes
  propagate through the cost pass's own propagation
  (:class:`repro.lint.summaries.Propagation`) as transitive allocation
  summaries (none < bounded < per-element < unbounded), judged against
  ``@allocfree`` / ``@allocbound`` declarations; every function
  reachable from the four hot access entries must be declared or
  allocation-free.  ``allocfit`` then re-runs the certified hot ops
  under ``tracemalloc`` / ``gc.get_count()`` deltas, so a static
  certificate that lies about steady-state allocation fails the gate.
  Stale ``# alloc: allow`` suppressions are findings too.
* :mod:`repro.lint.fit` + :mod:`repro.lint.ops` — an empirical complexity
  fitter that runs registered operations at geometrically spaced operand
  sizes on the simulated clock and fits cost-vs-size to
  constant/log/linear/linearithmic, catching dynamic O(n) behaviour the
  AST cannot see.

Run them via ``repro-o1 lint [--alloc] [--fit]``; CI gates on a clean
run.

Only the declaration half is imported here: the checkers and fitters pull
in the whole simulator, and annotated modules (buddy, TLB, syscalls, ...)
import ``repro.lint`` at module load, so this ``__init__`` must stay
dependency-free to avoid import cycles.
"""

from repro.lint.decorators import (
    AllocDeclaration,
    ComplexityClass,
    allocbound,
    allocfree,
    complexity,
    iter_alloc_declarations,
    o1,
)

__all__ = [
    "AllocDeclaration",
    "ComplexityClass",
    "allocbound",
    "allocfree",
    "complexity",
    "iter_alloc_declarations",
    "o1",
]

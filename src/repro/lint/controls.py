"""Planted mislabeled controls for the interprocedural passes.

Mirrors the empirical fitter's ``fom.demand_touch`` control: each
function below is *deliberately* wrong in a way only whole-program
analysis can see, and :mod:`repro.lint.flow` (or AllocSan /
:mod:`repro.lint.allocfit` for the allocation controls) must flag it
on every run — a pass that comes back clean on these is broken, and
the gate fails on the missing finding rather than on the finding
itself.

Nothing imports this module at runtime and nothing here is reachable
from a hot-path entry point; the functions exist purely as lint
fixtures inside the real tree.
"""

from __future__ import annotations

from typing import Any, Iterable, List

from repro.lint.decorators import allocfree, o1


@o1(note="control: deliberately mislabeled; the flow pass must flag this")
def control_undeclared_callee_loop(pages: Iterable[int]) -> int:
    """Declared O(1), but the undeclared helper walks every page.

    Intraprocedurally this body is a single call — clean.  The flow
    pass must report ``flow-cost-exceeds-declared`` with the chain down
    to the loop in :func:`_control_touch_all`.
    """
    return _control_touch_all(pages)


def _control_touch_all(pages: Iterable[int]) -> int:
    total = 0
    for page in pages:
        total += page
    return total


def control_persist_commit_elsewhere(fs: Any) -> None:
    """Applies a journaled mutation through a helper; nobody commits.

    The helper's apply site carries the ``persist-outside-txn`` allow
    (the classic "caller commits" justification), so that rule is
    silent — and no caller on this path ever commits.  The flow pass must report
    ``flow-persist-outside-txn`` here, at the protocol root.
    """
    _control_apply(fs)


def _control_apply(fs: Any) -> None:
    fs._apply_alloc(None)  # o1: allow(persist-outside-txn) -- control: caller commits


@allocfree(note="control: deliberately mislabeled; AllocSan must flag this")
def control_allocfree_hidden_comprehension(pages: Iterable[int]) -> List[int]:
    """Declared allocation-free, but the undeclared helper materializes.

    Intraprocedurally this body is a single allocation-shape-free call
    — clean.  AllocSan must report ``alloc-exceeds-declared`` with the
    chain down to the comprehension in :func:`_control_materialize`.
    """
    return _control_materialize(pages)


def _control_materialize(pages: Iterable[int]) -> List[int]:
    return [page * 2 for page in pages]


#: Retained by :func:`control_allocfree_retaining` on every call: the
#: leak the static prong cannot see and allocfit must.
_CONTROL_SINK: List[int] = []


@allocfree(note="control: retains memory per call; allocfit must flag this")
def control_allocfree_retaining(tick: int) -> int:
    """Statically clean — no display, no comprehension, no boxing call —
    yet every call retains an int in a module-level list.  The AST pass
    certifies it; the ``tracemalloc`` cross-check must fail it, which is
    exactly why the empirical prong exists.
    """
    _CONTROL_SINK.append(tick)
    return len(_CONTROL_SINK)

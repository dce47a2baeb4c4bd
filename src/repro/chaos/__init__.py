"""Deterministic fault injection (`repro.chaos`).

The chaos engine injects faults at named, kernel-wide fault sites, and
is the simulator's only crash injector.  A :class:`FaultPlan` — explicit
schedule or seeded RNG — is armed on a machine with
``kernel.arm_chaos(plan)``, which stores it in the registry's one
``counters.chaos`` slot; the instrumented hot paths read that
attribute, so unarmed machines pay one attribute read per site.
:func:`~repro.chaos.explore.explore` turns the plan's hit census into
exhaustive crash-at-any-point coverage with recovery oracles.

Import layout: :class:`FaultPlan`/:class:`FaultSpec` and the site
registry are import-light and exported eagerly; ``explore``, ``oracles``
and ``workloads`` pull in the kernel, so they load lazily (PEP 562) to
keep hot-path modules free of import cycles.
"""

from __future__ import annotations

from repro.chaos.plan import FaultPlan, FaultSpec, Injection
from repro.chaos.sites import ACTIONS, FAULT_SITES, SITE_ACTIONS, actions_for, is_site

__all__ = [
    "ACTIONS",
    "FAULT_SITES",
    "SITE_ACTIONS",
    "FaultPlan",
    "FaultSpec",
    "Injection",
    "actions_for",
    "is_site",
    # lazy:
    "explore",
    "ExploreReport",
    "CrashOutcome",
    "recover_machine",
    "DEFAULT_ORACLES",
    "run_oracles",
    "fig2_workload",
    "make_builder",
]

_LAZY = {
    "explore": ("repro.chaos.explore", "explore"),
    "ExploreReport": ("repro.chaos.explore", "ExploreReport"),
    "CrashOutcome": ("repro.chaos.explore", "CrashOutcome"),
    "recover_machine": ("repro.chaos.explore", "recover_machine"),
    "DEFAULT_ORACLES": ("repro.chaos.oracles", "DEFAULT_ORACLES"),
    "run_oracles": ("repro.chaos.oracles", "run_oracles"),
    "fig2_workload": ("repro.chaos.workloads", "fig2_workload"),
    "make_builder": ("repro.chaos.workloads", "make_builder"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    # Rebind explicitly: importing a submodule sets the same-named package
    # attribute to the *module* (shadowing e.g. ``explore`` the function),
    # so cache the resolved object over it.
    globals()[name] = value
    return value

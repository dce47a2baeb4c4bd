"""Deterministic, seedable fault plans.

A :class:`FaultPlan` is armed on a machine (:meth:`Kernel.arm_chaos
<repro.kernel.kernel.Kernel.arm_chaos>`), which stores it in the
registry's one ``chaos`` slot, and is consulted by every instrumented
hot path through one call::

    chaos = self._counters.chaos
    if chaos is not None and chaos.hit("buddy.alloc") == "error":
        raise OutOfMemoryError("chaos: injected exhaustion")

``hit`` always *counts* the visit (so an unarmed plan doubles as the
census pass of the crash-at-any-point explorer) and then decides whether
a fault fires there:

* explicit :class:`FaultSpec` schedules — "crash at the 3rd hit of
  ``pmfs.journal.commit.pre``" or "crash at global hit 17" — which is
  what :func:`repro.chaos.explore.explore` replays exhaustively;
* a seeded RNG mode (:meth:`FaultPlan.seeded`) that injects up to
  ``max_faults`` faults at rate ``rate``, fully reproducible from the
  seed alone.

``crash`` actions raise :class:`~repro.errors.SimulatedCrashError` from
inside ``hit``; other actions (``error``/``torn``/``corrupt``) are
returned to the call site, which implements the site-specific damage and
— for torn/corrupt — finishes with :meth:`FaultPlan.power_cut`.

Everything is deterministic: the same plan against the same workload
produces the same hit sequence and the same injections, which is what
makes a printed seed a complete reproduction recipe.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.sites import ACTIONS, SITE_ACTIONS, actions_for, is_site
from repro.errors import SimulatedCrashError
from repro.lint.decorators import o1
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Exactly one of ``nth`` (per-site hit index) or ``at_hit`` (global hit
    index across all sites) selects the firing point; each spec fires at
    most once.
    """

    site: Optional[str] = None
    action: str = "crash"
    #: Fire on the nth hit of ``site`` (0-based).
    nth: Optional[int] = None
    #: Fire on the nth hit overall, regardless of site (0-based).
    at_hit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown action {self.action!r}; valid: {sorted(ACTIONS)}"
            )
        if (self.nth is None) == (self.at_hit is None):
            raise ValueError("exactly one of nth/at_hit must be set")
        if self.nth is not None:
            if self.site is None:
                raise ValueError("per-site specs need a site name")
            if not is_site(self.site):
                raise ValueError(
                    f"unknown fault site {self.site!r}; "
                    f"valid sites: {sorted(SITE_ACTIONS)}"
                )
            if self.action not in actions_for(self.site):
                raise ValueError(
                    f"site {self.site!r} does not support action "
                    f"{self.action!r} (valid: {sorted(actions_for(self.site))})"
                )
        if self.at_hit is not None and self.site is not None:
            raise ValueError("at_hit specs fire at any site; leave site unset")


@dataclass
class Injection:
    """Record of one fault that actually fired."""

    index: int
    site: str
    action: str


class FaultPlan:
    """Counts fault-site hits and injects scheduled/seeded faults."""

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        seed: Optional[int] = None,
        rate: float = 0.0,
        max_faults: int = 1,
        sites: Optional[Sequence[str]] = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if sites is not None:
            for site in sites:
                if not is_site(site):
                    raise ValueError(f"unknown fault site {site!r}")
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self.rate = rate
        self.max_faults = max_faults
        self._random_sites = frozenset(sites) if sites is not None else None
        self._rng = random.Random(seed) if seed is not None else None
        #: site -> times visited.
        self.hits: Counter = Counter()
        #: Site of every hit, in order (the explorer's crash-point map).
        self.history: List[str] = []
        self.total_hits = 0
        #: Faults that fired, in order.
        self.injections: List[Injection] = []
        self._fired_specs: set = set()
        #: Its own registry until :meth:`bind` hands it the machine's.
        self._counters = MetricsRegistry()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def counting(cls) -> "FaultPlan":
        """A plan that never fires — the explorer's census pass."""
        return cls()

    @classmethod
    def crash_at(cls, index: int) -> "FaultPlan":
        """Crash at global hit ``index`` (crash-at-any-point replay)."""
        return cls(specs=[FaultSpec(at_hit=index)])

    @classmethod
    def crash_at_site(cls, site: str, nth: int = 0) -> "FaultPlan":
        """Crash at the ``nth`` hit of ``site``."""
        return cls(specs=[FaultSpec(site=site, nth=nth)])

    @classmethod
    def fault_at_site(cls, site: str, action: str, nth: int = 0) -> "FaultPlan":
        """Inject ``action`` at the ``nth`` hit of ``site``."""
        return cls(specs=[FaultSpec(site=site, action=action, nth=nth)])

    @classmethod
    def seeded(
        cls,
        seed: int,
        rate: float = 0.02,
        max_faults: int = 1,
        sites: Optional[Sequence[str]] = None,
    ) -> "FaultPlan":
        """Random faults, reproducible from ``seed`` alone."""
        return cls(seed=seed, rate=rate, max_faults=max_faults, sites=sites)

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def bind(self, counters: MetricsRegistry) -> None:
        """Attach the machine's counter registry (for obs events)."""
        self._counters = counters

    # ------------------------------------------------------------------
    # Hot-path API
    # ------------------------------------------------------------------
    @o1(note="per-visit fault check; spec list is a test-config constant")
    def hit(self, site: str) -> Optional[str]:
        """Record a visit to ``site`` and maybe inject a fault.

        Returns ``None`` (no fault), or the action string the call site
        must implement (``"error"``/``"torn"``/``"corrupt"``).  ``crash``
        actions raise :class:`SimulatedCrashError` directly.
        """
        index = self.total_hits
        site_count = self.hits[site]
        self.hits[site] += 1
        self.total_hits += 1
        self.history.append(site)
        self._counters.bump("chaos_site_hit")
        action = self._decide(site, index, site_count)
        if action is None:
            return None
        self.injections.append(Injection(index=index, site=site, action=action))
        self._counters.bump("chaos_fault_injected")
        tracer = self._counters.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant(
                "chaos_fault",
                "kernel",
                args={"site": site, "action": action, "hit": index},
            )
        if action == "crash":
            raise SimulatedCrashError(
                f"chaos: injected power failure at {site} (hit {index})"
            )
        return action

    def power_cut(self, site: str) -> None:
        """Finish a torn/corrupt injection with the power failure."""
        raise SimulatedCrashError(
            f"chaos: power failed mid-write at {site} "
            f"(hit {self.total_hits - 1})"
        )

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    @o1(note="scan of the registered fault specs, a test-config constant")
    def _decide(self, site: str, index: int, site_count: int) -> Optional[str]:
        # o1: allow(flow-bounded) -- specs is the configured fault list, not operand-sized
        for spec_index, spec in enumerate(self.specs):
            if spec_index in self._fired_specs:
                continue
            if spec.at_hit is not None and spec.at_hit == index:
                self._fired_specs.add(spec_index)
                return spec.action
            if spec.nth is not None and spec.site == site and spec.nth == site_count:
                self._fired_specs.add(spec_index)
                return spec.action
        if (
            self._rng is not None
            and self.rate > 0.0
            and len(self.injections) < self.max_faults
            and (self._random_sites is None or site in self._random_sites)
            and self._rng.random() < self.rate
        ):
            return self._rng.choice(sorted(actions_for(site)))
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def census(self) -> Dict[str, int]:
        """site -> hit count, for every site visited so far."""
        return dict(self.hits)

    def describe(self) -> str:
        """One-line reproduction recipe for this plan."""
        if self._rng is not None:
            return (
                f"FaultPlan.seeded(seed={self.seed}, rate={self.rate}, "
                f"max_faults={self.max_faults})"
            )
        if not self.specs:
            return "FaultPlan.counting()"
        parts = []
        for spec in self.specs:
            if spec.at_hit is not None:
                parts.append(f"{spec.action}@hit{spec.at_hit}")
            else:
                parts.append(f"{spec.action}@{spec.site}#{spec.nth}")
        return f"FaultPlan({', '.join(parts)})"

    def __repr__(self) -> str:
        return (
            f"<{self.describe()} hits={self.total_hits} "
            f"injected={len(self.injections)}>"
        )

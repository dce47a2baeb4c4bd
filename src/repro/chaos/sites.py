"""Canonical fault-injection sites and the actions each supports.

Every :meth:`~repro.chaos.plan.FaultPlan.hit` call in the simulator names
a site from :data:`SITE_ACTIONS`; the plan rejects specs naming anything
else, so this table is the single place a new injection point is declared
(mirroring how :mod:`repro.obs.names` declares counters).

Actions
-------

``crash``
    Power failure at the site: :class:`~repro.errors.SimulatedCrashError`
    is raised before the site's effect becomes durable.  Allowed at
    *every* site — a power cut can land anywhere — so it is implied and
    not listed per site.
``error``
    The site's domain error is injected (``OutOfMemoryError`` from the
    allocators, ``NoSpaceError`` from the extent allocator), exercising
    the caller's fallback/retry path.
``torn``
    A durable write is cut mid-stream: a prefix of the payload lands,
    then the power fails.
``corrupt``
    A durable journal record is torn while being committed: the record
    is marked unreadable, then the power fails.  Recovery must not trust
    its contents.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

#: Action names an armed plan may inject.
ACTIONS: FrozenSet[str] = frozenset({"crash", "error", "torn", "corrupt"})

#: site -> extra (non-crash) actions it supports.  ``crash`` is valid at
#: every site and therefore implied.
SITE_ACTIONS: Dict[str, FrozenSet[str]] = {
    # PMFS durable metadata steps (journal undo/redo protocol); the
    # extent site is hit before each extent is taken, every piece of a
    # fragmented allocation included
    "pmfs.journal.begin": frozenset(),
    "pmfs.extent.alloc": frozenset({"error"}),
    "pmfs.journal.commit.pre": frozenset({"corrupt"}),
    "pmfs.journal.commit.post": frozenset(),
    # VFS data path
    "fs.write.torn": frozenset({"torn"}),
    # FOM persistence recovery sweep (one hit per file examined)
    "fom.recover.file": frozenset(),
    # Constant-time-erase strategies
    "zeroing.take": frozenset(),
    # Physical allocators
    "buddy.alloc": frozenset({"error"}),
    "slab.grow": frozenset({"error"}),
    # SMP TLB-shootdown broadcast (one hit per broadcast attempt)
    "cpu.shootdown": frozenset({"error"}),
    # Pre-created page-table subtree build
    "premap.attach": frozenset({"error"}),
    # COW break of a fork-shared page-table window (after the window is
    # privatized, before leaf downgrades / write-protect clearing)
    "vm.cow_break": frozenset(),
    # RAS: patrol scrubbing, frame retirement, badblock persistence,
    # live-extent migration (crash-at-any-point covers the journaled
    # retirement/migration protocol)
    "ras.scrub.batch": frozenset(),
    "ras.retire.frame": frozenset(),
    "ras.badblock.persist": frozenset(),
    "ras.migrate.extent": frozenset(),
    # QoS: direct-reclaim batches (error = transient reclaim failure,
    # the throttle absorbs it) and the OOM kill decision point
    "qos.reclaim": frozenset({"error"}),
    "qos.oom_kill": frozenset(),
}

#: Every declared fault site.
FAULT_SITES: FrozenSet[str] = frozenset(SITE_ACTIONS)


def is_site(name: str) -> bool:
    """True if ``name`` is a declared fault site."""
    return name in SITE_ACTIONS


def actions_for(site: str) -> FrozenSet[str]:
    """All actions valid at ``site`` (``crash`` plus the site's extras)."""
    return frozenset({"crash"}) | SITE_ACTIONS[site]

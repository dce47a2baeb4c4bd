"""Memory control groups: the per-tenant accounting tree (``repro.qos``).

A :class:`MemCg` is one node of a cgroup-v2-style hierarchy.  Every frame
allocation on an armed machine is charged to the allocating tenant's
cgroup and to each of its ancestors — the lineage is precomputed at
creation and its depth is capped by :data:`MemCg.MAX_DEPTH`, so one
charge is a bounded handful of integer adds: O(1) in tenant count,
resident memory, and hierarchy width, which is the property the
empirical fitter pins (``qos.charge`` in ``repro.lint.ops``).

Two watermarks drive the controller's policy (semantics match the
kernel's ``memory.high`` / ``memory.max``):

* ``high`` — soft limit.  Crossing it is *backpressure, not failure*:
  the controller runs bounded-batch direct reclaim against the cgroup's
  own pages and throttles the allocating tenant with a linearly growing,
  clock-charged stall.
* ``max`` — hard limit.  Crossing it, after reclaim fails to bring
  usage back, invokes the OOM killer — which only ever picks victims
  *inside* the offending cgroup's subtree.

Pressure is exported PSI-style: per-cgroup ``some``/``full`` stall
totals plus ``avg10`` window ratios (:class:`PsiTracker`), fed into the
``repro.obs`` histograms by the controller.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.lint import allocbound, allocfree, complexity, o1

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.process import Process
    from repro.vm.reclaimd import LruLists


class CgroupError(ValueError):
    """Invalid cgroup construction or attachment."""


class PsiTracker:
    """PSI-style pressure accounting on the simulated clock.

    Tracks total stalled nanoseconds in two classes — ``some`` (at least
    one task delayed by memory: reclaim work *and* throttles) and
    ``full`` (the task made no progress at all: throttle sleeps) — plus
    a two-bucket sliding window from which ``avg10`` is derived as the
    stalled fraction of the last :data:`WINDOW_NS` of simulated time.
    Everything is integer arithmetic on the deterministic clock, so the
    figures are bit-stable across runs.
    """

    #: The averaging window (10 simulated seconds, like PSI's avg10).
    WINDOW_NS = 10_000_000_000

    __slots__ = (
        "some_total_ns",
        "full_total_ns",
        "_epoch",
        "_cur_some",
        "_cur_full",
        "_prev_some",
        "_prev_full",
    )

    def __init__(self) -> None:
        self.some_total_ns = 0
        self.full_total_ns = 0
        self._epoch = 0
        self._cur_some = 0
        self._cur_full = 0
        self._prev_some = 0
        self._prev_full = 0

    @o1(note="two integer adds and at most one window roll")
    def record(self, now_ns: int, stall_ns: int, full: bool) -> None:
        """Account one stall ending at ``now_ns``."""
        if stall_ns <= 0:
            return
        self._roll(now_ns)
        self.some_total_ns += stall_ns
        self._cur_some += stall_ns
        if full:
            self.full_total_ns += stall_ns
            self._cur_full += stall_ns

    def _roll(self, now_ns: int) -> None:
        epoch = now_ns // self.WINDOW_NS
        if epoch == self._epoch:
            return
        if epoch == self._epoch + 1:
            self._prev_some, self._prev_full = self._cur_some, self._cur_full
        else:
            self._prev_some = self._prev_full = 0
        self._cur_some = self._cur_full = 0
        self._epoch = epoch

    def avg10(self, now_ns: int) -> Tuple[float, float]:
        """(some, full) stalled fractions over the trailing window."""
        self._roll(now_ns)
        offset = now_ns % self.WINDOW_NS
        weight = (self.WINDOW_NS - offset) / self.WINDOW_NS
        some = (self._prev_some * weight + self._cur_some) / self.WINDOW_NS
        full = (self._prev_full * weight + self._cur_full) / self.WINDOW_NS
        return (min(1.0, some), min(1.0, full))

    def snapshot(self, now_ns: int) -> Dict[str, float]:
        """JSON-friendly PSI figures."""
        some, full = self.avg10(now_ns)
        return {
            "some_total_ns": self.some_total_ns,
            "full_total_ns": self.full_total_ns,
            "some_avg10": round(some, 6),
            "full_avg10": round(full, 6),
        }


class MemCg:
    """One node of the memory-cgroup hierarchy.

    ``usage_frames`` is hierarchical (a child's charge lands on every
    ancestor too), matching cgroup v2.  ``nvm_blocks`` and
    ``kmem_frames`` are informational side ledgers (PMFS block and slab
    charging) with no watermark actions of their own.  ``lru`` holds the
    pages this node's LRU-tracking processes faulted in (Linux's
    per-memcg lruvec), so reclaim targeted here scans only them.
    """

    #: Hierarchy depth cap — what makes per-charge lineage walks O(1).
    MAX_DEPTH = 4

    __slots__ = (
        "name",
        "parent",
        "children",
        "depth",
        "lineage",
        "high_frames",
        "max_frames",
        "oom_policy",
        "oom_priority",
        "usage_frames",
        "peak_frames",
        "nvm_blocks",
        "kmem_frames",
        "pids",
        "events",
        "throttle_streak",
        "psi",
        "lru",
    )

    def __init__(
        self,
        name: str,
        parent: Optional["MemCg"] = None,
        high: Optional[int] = None,
        max_frames: Optional[int] = None,
        oom_policy: str = "largest_rss",
        oom_priority: int = 0,
        lru: Optional["LruLists"] = None,
    ) -> None:
        if parent is not None and parent.depth + 1 > self.MAX_DEPTH:
            raise CgroupError(
                f"cgroup {name!r} would exceed the depth cap "
                f"({self.MAX_DEPTH}) that keeps charging O(1)"
            )
        if high is not None and max_frames is not None and high > max_frames:
            raise CgroupError(
                f"cgroup {name!r}: high ({high}) must not exceed "
                f"max ({max_frames})"
            )
        if oom_policy not in OOM_POLICIES:
            raise CgroupError(
                f"unknown oom_policy {oom_policy!r}; "
                f"choose one of {sorted(OOM_POLICIES)}"
            )
        self.name = name
        self.parent = parent
        self.children: List["MemCg"] = []
        self.depth = 0 if parent is None else parent.depth + 1
        #: (self, parent, ..., root) — the bounded charge path.
        self.lineage: Tuple["MemCg", ...] = (
            (self,) if parent is None else (self,) + parent.lineage
        )
        self.high_frames = high
        self.max_frames = max_frames
        self.oom_policy = oom_policy
        self.oom_priority = oom_priority
        self.usage_frames = 0
        self.peak_frames = 0
        self.nvm_blocks = 0
        self.kmem_frames = 0
        #: Pids attached directly to this node (not the subtree).
        self.pids: Set[int] = set()
        self.events: Dict[str, int] = {
            "high": 0,
            "max": 0,
            "reclaim": 0,
            "throttle": 0,
            "oom_kill": 0,
            # Pages this node's direct-reclaim batches examined / evicted.
            "scanned": 0,
            "evicted": 0,
        }
        self.throttle_streak = 0
        self.psi = PsiTracker()
        self.lru = lru
        if parent is not None:
            parent.children.append(self)

    # ------------------------------------------------------------------
    # Charging (the O(1) hot path; driven by the controller)
    # ------------------------------------------------------------------
    @o1(note="lineage walk capped at MAX_DEPTH nodes")
    @allocbound(1, note="the breach-pair tuple; freed by the caller each call")
    def charge(self, nframes: int) -> Tuple[Optional["MemCg"], Optional["MemCg"]]:
        """Add ``nframes`` along the lineage.

        Returns ``(max_breach, high_breach)`` — the deepest node (self
        first) whose hard or soft watermark the charge crossed, so the
        controller can run its slow path without re-walking.
        """
        max_breach: Optional[MemCg] = None
        high_breach: Optional[MemCg] = None
        # o1: allow(flow-bounded) -- lineage length is capped at MAX_DEPTH
        for node in self.lineage:
            usage = node.usage_frames + nframes
            node.usage_frames = usage
            if usage > node.peak_frames:
                node.peak_frames = usage
            if node.max_frames is not None and usage > node.max_frames:
                if max_breach is None:
                    max_breach = node
            elif node.high_frames is not None and usage > node.high_frames:
                if high_breach is None:
                    high_breach = node
        return max_breach, high_breach

    @o1(note="lineage walk capped at MAX_DEPTH nodes")
    @allocfree(note="integer subtracts on preexisting nodes")
    def uncharge(self, nframes: int) -> None:
        """Remove ``nframes`` along the lineage (floors at zero)."""
        # o1: allow(flow-bounded) -- lineage length is capped at MAX_DEPTH
        for node in self.lineage:
            usage = node.usage_frames - nframes
            node.usage_frames = usage if usage > 0 else 0
            if (
                node.throttle_streak
                and (
                    node.high_frames is None
                    or node.usage_frames <= node.high_frames
                )
            ):
                # Pressure relieved: the linear backoff restarts small.
                node.throttle_streak = 0

    @property
    def over_high(self) -> bool:
        """True while usage exceeds the soft watermark."""
        return self.high_frames is not None and self.usage_frames > self.high_frames

    @property
    def over_max(self) -> bool:
        """True while usage exceeds the hard limit."""
        return self.max_frames is not None and self.usage_frames > self.max_frames

    # ------------------------------------------------------------------
    # Subtree walks (slow paths only: OOM victim selection, reporting)
    # ------------------------------------------------------------------
    @complexity("n", note="full subtree walk; OOM/report slow path only")
    def walk(self) -> Iterator["MemCg"]:
        """This node and every descendant, preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    @complexity("n", note="subtree pid sweep; OOM slow path only")
    def subtree_pids(self) -> List[int]:
        """Pids attached anywhere in this subtree."""
        pids: List[int] = []
        # o1: allow(flow-bounded) -- the walk yields the declared n subtree nodes exactly once
        for node in self.walk():
            pids.extend(node.pids)
        return pids

    def contains(self, other: "MemCg") -> bool:
        """True if ``other`` is this node or a descendant of it."""
        node: Optional[MemCg] = other
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    def snapshot(self, now_ns: int) -> Dict[str, object]:
        """JSON-friendly state of this node."""
        return {
            "name": self.name,
            "usage_frames": self.usage_frames,
            "peak_frames": self.peak_frames,
            "high_frames": self.high_frames,
            "max_frames": self.max_frames,
            "nvm_blocks": self.nvm_blocks,
            "kmem_frames": self.kmem_frames,
            "oom_policy": self.oom_policy,
            "oom_priority": self.oom_priority,
            "pids": sorted(self.pids),
            "events": dict(self.events),
            "psi": self.psi.snapshot(now_ns),
        }

    def __repr__(self) -> str:
        return (
            f"MemCg({self.name!r}, usage={self.usage_frames}, "
            f"high={self.high_frames}, max={self.max_frames})"
        )


# ----------------------------------------------------------------------
# OOM victim policies
# ----------------------------------------------------------------------
#: A policy ranks live candidate processes and returns the victim.
#: ``cg_of`` resolves a pid to its cgroup (for priority weighting).
OomPolicy = Callable[
    [List["Process"], Callable[[int], Optional[MemCg]]], "Process"
]


@complexity("n", note="one resident-page count of a candidate; OOM slow path")
def _rss_of(process: "Process") -> int:
    """Resident pages of one candidate (slow path: OOM only)."""
    return process.space.resident_pages()


@complexity("n", note="one pass over the candidate list; OOM slow path")
def victim_largest_rss(
    candidates: List["Process"],
    cg_of: Callable[[int], Optional[MemCg]],
) -> "Process":
    """Kill the biggest consumer (ties: the youngest, largest pid)."""
    return max(candidates, key=lambda p: (_rss_of(p), p.pid))


@complexity("n", note="one pass over the candidate list; OOM slow path")
def victim_oldest(
    candidates: List["Process"],
    cg_of: Callable[[int], Optional[MemCg]],
) -> "Process":
    """Kill the longest-running process (smallest pid)."""
    return min(candidates, key=lambda p: p.pid)


@complexity("n", note="one pass over the candidate list; OOM slow path")
def victim_priority(
    candidates: List["Process"],
    cg_of: Callable[[int], Optional[MemCg]],
) -> "Process":
    """Priority-weighted badness: higher ``oom_priority`` dies first.

    Badness is ``(priority, rss, pid)`` lexicographically, so within one
    priority band the policy degrades to largest-RSS.
    """

    def badness(process: "Process") -> Tuple[int, int, int]:
        cg = cg_of(process.pid)
        priority = 0 if cg is None else cg.oom_priority
        return (priority, _rss_of(process), process.pid)

    return max(candidates, key=badness)


#: Pluggable OOM policy table (``MemCg.oom_policy`` names a key here).
OOM_POLICIES: Dict[str, OomPolicy] = {
    "largest_rss": victim_largest_rss,
    "oldest": victim_oldest,
    "priority": victim_priority,
}

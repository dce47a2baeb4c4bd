"""Event counters plus log-bucketed latency histograms.

:class:`MetricsRegistry` is the simulator's one counter class: every
component takes one as ``counters`` (``kernel.counters`` is the
machine's).  It also holds the machine's hook slots — ``tracer``,
``chaos``, ``sanitize``, ``ras`` and ``qos`` — each ``None`` until the
kernel arms that subsystem, so a hot path reads ``counters.<slot>`` as a
plain attribute.  It adds

* **named counters** — ``bump()`` is one dict increment with no run-time
  name check; the source audit in ``tests/test_obs_names.py`` holds every
  ``bump("literal")`` site to :data:`repro.obs.names.CANONICAL_COUNTERS`;
* **latency histograms** — :meth:`~MetricsRegistry.observe` records a
  simulated-ns sample into a power-of-two-bucketed histogram with
  p50/p95/p99 summaries; the tracer feeds one sample per finished span.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.decorators import allocfree


class LatencyHistogram:
    """Power-of-two-bucketed histogram of non-negative integer samples.

    Bucket ``b`` holds samples whose value has ``b`` significant bits,
    i.e. the range ``[2**(b-1), 2**b)`` (bucket 0 holds exact zeros) — a
    log scale that spans one nanosecond to seconds in ~40 buckets.
    Percentiles are reported as the upper edge of the bucket holding the
    requested rank, clamped to the observed maximum, which bounds the
    relative error at 2x — plenty for "where did the time go" questions.

    >>> h = LatencyHistogram("demo")
    >>> for v in [1, 2, 3, 100]:
    ...     h.observe(v)
    >>> h.count, h.total
    (4, 106)
    >>> h.percentile(50)
    3
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max = 0
        self._buckets: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        """Record one sample (negative values are clamped to zero)."""
        if value < 0:
            value = 0
        bucket = value.bit_length()
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        self.max = max(self.max, value)
        self.min = value if self.min is None else min(self.min, value)

    def percentile(self, p: float) -> int:
        """Approximate ``p``-th percentile (upper bucket edge, clamped)."""
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return 0
        rank = max(1, -(-int(p * self.count) // 100))  # ceil(p*n/100)
        cumulative = 0
        for bucket in sorted(self._buckets):
            cumulative += self._buckets[bucket]
            if cumulative >= rank:
                upper = 0 if bucket == 0 else (1 << bucket) - 1
                return min(upper, self.max)
        return self.max

    @property
    def p50(self) -> int:
        """Median sample (approximate)."""
        return self.percentile(50)

    @property
    def p95(self) -> int:
        """95th-percentile sample (approximate)."""
        return self.percentile(95)

    @property
    def p99(self) -> int:
        """99th-percentile sample (approximate)."""
        return self.percentile(99)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples."""
        return self.total / self.count if self.count else 0.0

    def buckets(self) -> List[Tuple[int, int]]:
        """(bucket_upper_edge, count) pairs, ascending."""
        return [
            (0 if b == 0 else (1 << b) - 1, n)
            for b, n in sorted(self._buckets.items())
        ]

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram({self.name!r}, n={self.count}, "
            f"p50={self.p50}, p99={self.p99}, max={self.max})"
        )


class MetricsRegistry:
    """Named event counters and latency histograms.

    Components increment counters like ``tlb_miss``, ``fault_minor``,
    ``pte_write`` as they run; tests and benchmarks assert on them to
    verify that the *mechanism* (not just the cost) matches the paper's
    narrative — e.g. that MAP_POPULATE eliminates all minor faults.

    >>> reg = MetricsRegistry()
    >>> reg.bump("tlb_hit")
    >>> reg.observe("page_walk_ns", 45)
    >>> reg.get("tlb_hit"), reg.histogram("page_walk_ns").count
    (1, 1)
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        # Hook slots: the one place an armed subsystem lives (the kernel's
        # ``arm_*`` methods write them); hot paths read ``counters.<slot>``
        # and ``None`` means that subsystem is off.
        self.tracer = None
        self.chaos = None
        self.sanitize = None
        self.ras = None
        self.qos = None

    # -- counter surface -------------------------------------------------
    @allocfree(note="one dict increment on an existing key")
    def bump(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        try:
            self._counts[name] += amount
        except KeyError:
            self._counts[name] = amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never bumped)."""
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """A copy of all counters, for diffing around a measured region."""
        return dict(self._counts)

    def delta_since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Counters that changed since ``snapshot``, as name -> increase.

        Deltas are clamped at zero: a :meth:`reset` between snapshot and
        read would otherwise report negative "increases" for counters
        that were already non-zero at snapshot time.
        """
        out = {}
        for name, value in self._counts.items():
            change = value - snapshot.get(name, 0)
            if change > 0:
                out[name] = change
        return out

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    # -- histogram surface ----------------------------------------------
    def histogram(self, name: str) -> LatencyHistogram:
        """The histogram named ``name`` (created on first use)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = LatencyHistogram(name)
        return hist

    def observe(self, name: str, value: int) -> None:
        """Record one latency sample into histogram ``name``."""
        self.histogram(name).observe(value)

    def histograms(self) -> Dict[str, LatencyHistogram]:
        """All histograms, keyed by name."""
        return dict(self._histograms)

    def iter_histograms(self) -> Iterator[LatencyHistogram]:
        """Histograms in name order."""
        for name in sorted(self._histograms):
            yield self._histograms[name]

    def reset(self) -> None:
        """Zero every counter and drop every histogram."""
        self._counts.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counts)}, "
            f"histograms={len(self._histograms)})"
        )

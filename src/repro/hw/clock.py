"""Deterministic simulated clock.

The whole simulator is single-threaded and deterministic: time only moves
when a component calls :meth:`SimClock.advance`.  Benchmarks read simulated
nanoseconds off the clock, so results are exactly reproducible run to run —
there is no wall-clock noise in any reported figure.
"""

from __future__ import annotations

from repro.lint.decorators import allocfree


class SimClock:
    """Monotonic simulated clock, in integer nanoseconds.

    >>> clk = SimClock()
    >>> clk.advance(150)
    >>> clk.now
    150
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds since boot."""
        return self._now

    @allocfree(note="one int add on the accumulator")
    def advance(self, ns: int) -> None:
        """Move time forward by ``ns`` nanoseconds (must be non-negative)."""
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        self._now += ns

    def elapsed_since(self, start_ns: int) -> int:
        """Nanoseconds elapsed since a previously sampled ``now``."""
        return self._now - start_ns

    def __repr__(self) -> str:
        return f"SimClock(now={self._now}ns)"

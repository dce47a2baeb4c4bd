"""Patrol scrubber: background media scrubbing in bounded batches.

Real memory controllers patrol-scrub: a slow background walk that reads
every line, corrects correctable errors, and flags uncorrectable ones
before a demand access consumes them.  This scrubber does the simulated
equivalent — each :meth:`PatrolScrubber.scrub_batch` probes a *bounded*
batch of frames (O(1) per invocation, however large the machine) from a
wrapping cursor over the registered DRAM + NVM spans:

* sticky poisoned lines are corrected in place (a patrol write-back);
* permanently dead frames are retired through the engine (allocator
  removal, badblock persistence, live-data migration);
* busy DRAM frames that cannot be retired yet are skipped and counted —
  the cursor wraps, so a later pass catches them once they free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Tuple

from repro.lint import complexity, o1

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ras.engine import RasEngine


class PatrolScrubber:
    """Cursor-based patrol over every registered physical span."""

    def __init__(self, engine: "RasEngine", batch_frames: int = 64) -> None:
        if batch_frames <= 0:
            raise ValueError(f"batch_frames must be positive, got {batch_frames}")
        self._engine = engine
        self.batch_frames = batch_frames
        self._cursor = 0

    @property
    def total_frames(self) -> int:
        """Frames covered by one full patrol pass."""
        return sum(count for _first, count in self._engine.model.spans())

    @property
    def cursor(self) -> int:
        """Current patrol position (frame index into the span walk)."""
        return self._cursor

    @o1(note="bounded batch, independent of machine size")
    def scrub_batch(self) -> int:
        """Probe one batch of frames; returns how many were probed."""
        spans = self._engine.model.spans()
        # o1: allow(flow-bounded) -- spans are the two fixed memory regions
        total = sum(count for _first, count in spans)
        if total == 0:
            return 0
        chaos = self._engine._counters.chaos
        if chaos is not None:
            chaos.hit("ras.scrub.batch")
        probed = min(self.batch_frames, total)
        # o1: allow(flow-bounded) -- bounded patrol batch
        for _ in range(probed):
            pfn = self._pfn_at(spans, self._cursor)
            self._cursor = (self._cursor + 1) % total
            self._engine.scrub_frame(pfn)
        return probed

    @complexity("n", note="maintenance sweep: one full pass over all frames")
    def scrub_full(self) -> int:
        """One complete patrol pass (ceil(total/batch) batches)."""
        total = self.total_frames
        if total == 0:
            return 0
        probed = 0
        batches = -(-total // self.batch_frames)
        for _ in range(batches):
            probed += self.scrub_batch()
        return probed

    @staticmethod
    def _pfn_at(spans: Sequence[Tuple[int, int]], index: int) -> int:
        """Frame at patrol position ``index`` across the spans."""
        # o1: allow(flow-bounded) -- two spans (DRAM + NVM), not data-sized
        for first, count in spans:
            if index < count:
                return first + index
            index -= count
        raise IndexError(f"patrol index {index} beyond registered spans")

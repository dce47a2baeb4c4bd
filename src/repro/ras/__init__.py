"""RAS: reliability, availability, serviceability for the simulated machine.

Armed via ``kernel.arm_ras()``, which stores the engine in the registry's
one ``counters.ras`` slot, as the chaos engine and the sanitizers have
theirs: unarmed machines pay one attribute read per hook site and
produce bit-identical figures.

* :class:`MediaFaultModel` — seeded, deterministic NVM fault population
  (transient, sticky-poison, dead frames).
* :class:`RasEngine` — poison traps, graceful degradation (SIGBUS one
  process / EIO / bounded retry), frame retirement, journaled badblock
  persistence, live-extent migration.
* :class:`PatrolScrubber` — bounded-batch background patrol that clears
  correctable poison and proactively retires failing frames.
"""

from repro.ras.engine import BADBLOCK_PATH, DRAM_BADBLOCK_PATH, RasEngine
from repro.ras.model import FaultKind, MediaFault, MediaFaultModel
from repro.ras.scrub import PatrolScrubber

__all__ = [
    "BADBLOCK_PATH",
    "DRAM_BADBLOCK_PATH",
    "FaultKind",
    "MediaFault",
    "MediaFaultModel",
    "PatrolScrubber",
    "RasEngine",
]

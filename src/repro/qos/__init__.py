"""Per-tenant memory QoS: cgroup-style limits, reclaim backpressure, OOM.

The fourth armable subsystem (after chaos, sanitize, ras):
``kernel.arm_qos()`` stores a :class:`~repro.qos.controller.QosController`
in the registry's one ``counters.qos`` slot; unarmed machines pay one
attribute read per charge site and stay bit-identical to the baseline.

>>> from repro.kernel.kernel import Kernel
>>> kernel = Kernel.default()
>>> qos = kernel.arm_qos()
>>> cg = qos.cgroup("tenant-a", high=64, max_frames=128)
>>> process = kernel.spawn("a", track_lru=True, cgroup=cg)
>>> qos.cgroup_of(process.pid) is cg
True
"""

from repro.qos.controller import QosConfig, QosController
from repro.qos.memcg import (
    OOM_POLICIES,
    CgroupError,
    MemCg,
    PsiTracker,
)

__all__ = [
    "CgroupError",
    "MemCg",
    "OOM_POLICIES",
    "PsiTracker",
    "QosConfig",
    "QosController",
]

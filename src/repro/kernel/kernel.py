"""The simulated machine: hardware + memory + file systems + processes.

:class:`Kernel` is the composition root.  It builds the clock, cost model,
cache, TLBs and CPU; carves physical memory into a DRAM region (buddy-
managed) and an NVM region (extent-managed); mounts a tmpfs and a PMFS;
and hands out processes whose address spaces are wired into all of it.

Typical use::

    from repro.kernel import Kernel
    from repro.units import MIB

    kernel = Kernel.standard()
    proc = kernel.spawn("worker")
    sys = kernel.syscalls(proc)
    fd = sys.open(kernel.tmpfs, "/data", create=True, size=1 * MIB)
    va = sys.mmap(1 * MIB, fd=fd)
    kernel.access(proc, va)          # demand fault, charged
    print(kernel.clock.now)           # simulated nanoseconds
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, MemoryPoisonError
from repro.fs.pmfs import BlockAllocator, Pmfs
from repro.fs.tmpfs import Tmpfs
from repro.hw.cache import CacheModel
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.hw.cpu import Cpu
from repro.hw.rtlb import RangeTlb
from repro.hw.tlb import Tlb
from repro.kernel.process import Process
from repro.kernel.syscalls import Syscalls
from repro.lint import allocbound, allocfree, complexity, o1
from repro.mem.buddy import BuddyAllocator
from repro.mem.frame_meta import FrameTable
from repro.mem.physical import PhysicalMemory
from repro.mem.zeropool import ZeroPool
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.paging.pagetable import PageTable, Pte
from repro.paging.walker import PageWalker
from repro.units import GIB, MIB, PAGE_SIZE
from repro.vm.addrspace import AddressSpace
from repro.vm.reclaimd import LruLists
from repro.vm.swap import SwapDevice
from repro.vm.vma import Protection, Vma


@dataclass(frozen=True)
class MachineConfig:
    """Knobs for assembling a simulated machine."""

    dram_bytes: int = 4 * GIB
    nvm_bytes: int = 16 * GIB
    page_table_levels: int = 4
    #: 2-D (nested) page walks, as under virtualization (§2's 35-reference
    #: worst case for 5-level EPT).
    virtualized: bool = False
    #: Install a range TLB + range-table support (the paper's proposed
    #: hardware, §3.2/§4.3).
    range_hardware: bool = False
    #: Align PMFS extents to this many frames (512 = 2 MiB) so file-only
    #: memory can use huge mappings / linked subtrees.
    pmfs_extent_align_frames: int = 1
    #: Swap device capacity in pages; 0 = no swap (the paper's assumption).
    swap_pages: int = 0
    #: Pre-zeroed pool target (frames); 0 = no pool (baseline zeroes
    #: on allocation).
    zeropool_frames: int = 0
    #: Cores in the machine; invalidations broadcast IPIs to cpus - 1
    #: remote cores (one simulated core executes, the rest cost).
    cpus: int = 1
    #: fork implementation: ``"cow"`` shares whole page-table subtrees
    #: with the child (O(#vmas + #windows)); ``"eager"`` copies every
    #: resident PTE (the paper's motivating baseline, pinned by the
    #: golden figures).
    fork_policy: str = "cow"
    #: munmap implementation: ``"extent"`` drops whole PTE subtrees with
    #: one batched TLB range invalidation; ``"page"`` tears down PTEs one
    #: page at a time (the baseline).
    munmap_policy: str = "extent"


class Kernel:
    """A fully wired simulated machine."""

    def __init__(self, config: Optional[MachineConfig] = None, costs: Optional[CostModel] = None) -> None:
        self.config = config or MachineConfig()
        self.clock = SimClock()
        #: Counters + latency histograms: the one counter object every
        #: component of this machine bumps, and the one home of every
        #: armed subsystem (``counters.chaos``, ``.sanitize``, ``.ras``,
        #: ``.qos``; see the ``arm_*`` methods).
        self.counters = MetricsRegistry()
        #: Trace recorder (disabled until ``measure(trace=True)`` or an
        #: explicit ``kernel.tracer.enable()``).
        self.tracer = Tracer(self.clock, metrics=self.counters)
        self.counters.tracer = self.tracer
        self.costs = costs or CostModel()

        cfg = self.config
        if cfg.dram_bytes < 64 * MIB:
            raise ConfigurationError("need at least 64 MiB of DRAM")
        if cfg.fork_policy not in ("eager", "cow"):
            raise ConfigurationError(
                f"fork_policy must be 'eager' or 'cow', got {cfg.fork_policy!r}"
            )
        if cfg.munmap_policy not in ("page", "extent"):
            raise ConfigurationError(
                f"munmap_policy must be 'page' or 'extent', "
                f"got {cfg.munmap_policy!r}"
            )

        # --- physical memory -------------------------------------------------
        self.physmem = PhysicalMemory()
        self.dram_region = self.physmem.add_region(
            cfg.dram_bytes, MemoryTechnology.DRAM, name="dram0"
        )
        self.nvm_region = None
        if cfg.nvm_bytes:
            self.nvm_region = self.physmem.add_region(
                cfg.nvm_bytes, MemoryTechnology.NVM, name="nvm0"
            )

        # --- hardware ---------------------------------------------------------
        self.cache = CacheModel(
            self.clock, self.costs, self.counters, tech_of=self.physmem.tech_of
        )
        self.tlb = Tlb()
        self.rtlb = RangeTlb(32) if cfg.range_hardware else None
        self.cpu = Cpu(
            self.clock, self.costs, self.counters, self.cache, self.tlb, self.rtlb
        )
        if cfg.cpus < 1:
            raise ConfigurationError(f"cpus must be >= 1, got {cfg.cpus}")
        self.cpu.remote_cpus = cfg.cpus - 1
        self.walker = PageWalker(
            self.cache,
            self.clock,
            self.costs,
            self.counters,
            virtualized=cfg.virtualized,
        )

        # --- allocators & metadata -------------------------------------------
        # Max order 18 allows 1 GiB contiguous DRAM blocks.
        self.dram_buddy = BuddyAllocator(
            self.dram_region,
            max_order=18,
            clock=self.clock,
            costs=self.costs,
            counters=self.counters,
        )
        self.frame_table = FrameTable(self.clock, self.costs, self.counters)
        self.zeropool = None
        if cfg.zeropool_frames:
            self.zeropool = ZeroPool(
                self.dram_buddy,
                cfg.zeropool_frames,
                clock=self.clock,
                costs=self.costs,
                counters=self.counters,
            )
            self.zeropool.refill()

        # --- file systems -----------------------------------------------------
        self.tmpfs = Tmpfs("tmpfs", self.dram_buddy, self.clock, self.costs, self.counters)
        self.pmfs: Optional[Pmfs] = None
        self.nvm_allocator: Optional[BlockAllocator] = None
        if self.nvm_region is not None:
            self.nvm_allocator = BlockAllocator(
                self.nvm_region, self.clock, self.costs, self.counters
            )
            self.pmfs = Pmfs(
                "pmfs",
                self.nvm_allocator,
                self.clock,
                self.costs,
                self.counters,
                dax=True,
                extent_align_frames=cfg.pmfs_extent_align_frames,
            )

        # --- swap & reclaim ----------------------------------------------------
        self.swap: Optional[SwapDevice] = None
        if cfg.swap_pages:
            self.swap = SwapDevice(cfg.swap_pages, self.clock, self.costs, self.counters)
        self.lru = LruLists(self.frame_table)

        # --- processes ----------------------------------------------------------
        self._pids = itertools.count(1)
        self._asids = itertools.count(1)
        self.processes: Dict[int, Process] = {}
        self._current_asid: Optional[int] = None

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def standard(cls, **overrides: object) -> "Kernel":
        """A machine with the default config, tweaked by keyword."""
        return cls(MachineConfig(**overrides))  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    @o1(note="empty address space; table frames come from a deferred source")
    def spawn(
        self, name: str, track_lru: bool = False, cgroup=None
    ) -> Process:
        """Create a process with an empty address space.

        ``cgroup`` (a :class:`~repro.qos.memcg.MemCg` or a registered
        cgroup name) attaches the new process to a QoS memory cgroup;
        it requires an armed controller (:meth:`arm_qos`).
        """
        asid = next(self._asids)
        page_table = PageTable(
            levels=self.config.page_table_levels,
            clock=self.clock,
            costs=self.costs,
            counters=self.counters,
            # o1: allow(flow-bounded) -- deferred frame source; charged to the faulting access
            frame_source=lambda: self.dram_buddy.alloc(0),
            frame_sink=self.dram_buddy.free_many,
        )
        space = AddressSpace(
            asid=asid,
            page_table=page_table,
            walker=self.walker,
            clock=self.clock,
            costs=self.costs,
            counters=self.counters,
            buddy=self.dram_buddy,
            frame_table=self.frame_table,
        )
        space.cpu = self.cpu
        space.munmap_policy = self.config.munmap_policy
        if track_lru:
            space.lru = self.lru
        process = Process(pid=next(self._pids), name=name, space=space)
        self.processes[process.pid] = process
        self.tracer.process_names[process.pid] = name
        if cgroup is not None:
            qos = self.counters.qos
            if qos is None:
                raise ConfigurationError(
                    "spawn(cgroup=...) needs an armed QoS controller; "
                    "call kernel.arm_qos() first"
                )
            qos.attach(process, cgroup)
        return process

    def syscalls(self, process: Process) -> Syscalls:
        """Syscall interface bound to ``process``."""
        return Syscalls(self, process)

    @o1(
        note="COW policy: per-VMA subtree shares, one pointer write per "
        "2 MiB window; the eager per-PTE policy stays selectable as the "
        "paper's baseline"
    )
    def fork(self, parent: Process) -> Process:
        """Clone ``parent`` with copy-on-write semantics.

        Under ``fork_policy="cow"`` (the default) the child *shares* the
        parent's bottom-level page-table nodes — one pointer write plus
        one write-protect bit per 2 MiB window — and the per-page work
        happens lazily at the first write fault (charged to the access,
        not the syscall).  Under ``fork_policy="eager"`` every resident
        PTE is copied and downgraded at fork time: the paper's motivating
        baseline, linear in resident pages, pinned by the golden figures.
        """
        if not parent.alive:
            raise ConfigurationError(f"cannot fork dead pid {parent.pid}")
        if self.config.fork_policy == "eager":
            # o1: allow(flow-bounded) -- eager mode is the measured baseline; COW is the O(1) claim
            return self._fork_eager(parent)
        # o1: allow(flow-bounded) -- per VMA and per 2 MiB window, 512x coarser than pages
        return self._fork_cow(parent)

    def _fork_begin(self, parent: Process):
        child = self.spawn(f"{parent.name}-child")
        qos = self.counters.qos
        if qos is not None:
            # Children inherit the parent's cgroup, like clone(2).
            parent_cg = qos.cgroup_of(parent.pid)
            if parent_cg is not None:
                qos.attach(child, parent_cg)
        self.counters.bump("fork_call")
        return child

    @complexity("n", note="one dup per open descriptor")
    def _fork_finish(self, parent: Process, child: Process) -> None:
        # Duplicate the descriptor table (shared offsets are not modeled).
        for _fd, handle in parent.fds():
            dup = handle.inode.fs.open_inode(handle.inode)
            dup.pos = handle.pos
            child.install_fd(dup)

    @complexity("n", note="one duplicate frame per pre-fork private copy (rare)")
    def _fork_clone_vma(self, child: Process, vma: Vma) -> tuple:
        """Shared per-VMA fork work; returns (child_vma, cow)."""
        vma.backing.add_user()
        cow = vma.is_private() and bool(vma.prot & Protection.WRITE)
        if cow:
            vma.cow_shared = True
        child_vma = Vma(
            start=vma.start,
            end=vma.end,
            prot=vma.prot,
            flags=vma.flags,
            backing=vma.backing,
            backing_offset=vma.backing_offset,
            name=vma.name,
            cow_shared=vma.cow_shared,
        )
        child.space.adopt_vma(child_vma)
        # Eagerly duplicate the parent's existing private copies for
        # the child (rare; keeps sharing bookkeeping simple), from the
        # DRAM buddy the child's munmap and exit return them to.
        # o1: allow(flow-bounded) -- one order-0 alloc per pre-fork private copy, the declared n
        for page_index, _src_pfn in vma.private_copies.items():
            copy_pfn = self.dram_buddy.alloc(0)
            self.clock.advance(self.costs.copy_line_ns * 128)
            child_vma.private_copies[page_index] = copy_pfn
        return child_vma, cow

    @complexity("n", note="the per-resident-PTE baseline the paper fixes")
    def _fork_eager(self, parent: Process) -> Process:
        """Per-resident-PTE fork: the baseline the paper fixes."""
        child = self._fork_begin(parent)
        for vma in parent.space.vmas:
            # o1: allow(flow-bounded) -- the VMAs partition the declared n pages
            child_vma, cow = self._fork_clone_vma(child, vma)
            # Copy resident translations, downgrading COW pages.
            # o1: allow(flow-bounded) -- the VMAs partition the declared n leaves
            self._fork_copy_window(
                parent, child, {id(vma): child_vma}, vma.start, vma.end
            )
            if cow:
                self.cpu.invalidate_space_range(
                    vma.start, vma.length, asid=parent.space.asid
                )
        self._fork_finish(parent, child)
        return child

    @complexity("n", note="per VMA and per resident 2 MiB window, not per page")
    def _fork_cow(self, parent: Process) -> Process:
        """Subtree-sharing fork: O(#vmas + #resident 2 MiB windows).

        The child links each of the parent's bottom-level page-table
        nodes by reference; windows overlapping a COW VMA are linked
        write-protected in both tables, so the first write anywhere in a
        window faults and breaks the share (see
        ``AddressSpace._cow_break_window``).  Huge-page leaves above the
        bottom level cannot be shared by node reference and are copied
        directly (rare).
        """
        child = self._fork_begin(parent)
        self.counters.bump("fork_cow")
        cow_vmas = []
        child_vmas = {}
        pc_windows = set()
        parent_pt = parent.space.page_table
        child_pt = child.space.page_table
        window_span = parent_pt.span_at(parent_pt.bottom_depth - 1)
        for vma in parent.space.vmas:
            # o1: allow(flow-bounded) -- the VMAs partition the declared n windows
            child_vma, cow = self._fork_clone_vma(child, vma)
            child_vmas[id(vma)] = child_vma
            if cow:
                cow_vmas.append(vma)
            # Windows holding pre-fork private COW copies cannot be
            # shared by node reference: the child must map its *own*
            # duplicates, or the parent freeing its copy would leave the
            # child translating a dead frame.  Those windows take the
            # eager per-leaf path below (rare; see _fork_clone_vma).
            # o1: allow(flow-bounded) -- pre-fork private copies are rare
            for page_index in vma.private_copies:
                pc_va = vma.start + (page_index - vma.backing_offset) * PAGE_SIZE
                pc_windows.add(pc_va - pc_va % window_span)
        windows = list(parent_pt.iter_bottom_subtrees())
        for window_va, entry in windows:
            if isinstance(entry, Pte):
                # Huge leaf above the bottom level: copy it directly.
                vma = parent.space.find_vma(window_va)
                cow = vma is not None and vma.needs_cow()
                self.clock.advance(self.costs.fork_page_copy_ns)
                child_pt.map(
                    window_va, entry.pfn, page_size=entry.page_size,
                    writable=entry.writable and not cow,
                )
                if cow and entry.writable:
                    parent_pt.protect(
                        window_va, writable=False, page_size=entry.page_size
                    )
                continue
            if window_va in pc_windows:
                # o1: allow(flow-bounded) -- unshareable windows are rare and disjoint
                self._fork_copy_window(
                    parent, child, child_vmas, window_va,
                    window_va + window_span,
                )
                continue
            # o1: allow(flow-bounded) -- a handful of COW VMAs per test
            wp = any(
                vma.overlaps(window_va, window_va + window_span)
                for vma in cow_vmas
            )
            child_pt.link_subtree(window_va, entry, write_protect=wp)
            if wp:
                parent_pt.window_write_protect(window_va)
        for vma in cow_vmas:
            # The parent's TLB may cache pre-fork writable entries for
            # pages now behind a write-protect bit; shoot them down.
            self.cpu.invalidate_space_range(
                vma.start, vma.length, asid=parent.space.asid
            )
        self._fork_finish(parent, child)
        return child

    @complexity("n", note="per-leaf copy of one range of the parent's leaves")
    def _fork_copy_window(
        self, parent: Process, child: Process, child_vmas: dict,
        window_va: int, window_end: int,
    ) -> None:
        """Eager per-leaf copy of ``[window_va, window_end)``.

        Maps each resident leaf into the child (its own duplicate where
        the VMA holds a pre-fork private copy) and write-protects COW
        leaves in the parent.  ``child_vmas`` maps ``id(parent_vma)`` to
        the child's clone.  Eager fork copies each VMA this way; COW fork
        copies the windows whose leaves include pre-fork private copies,
        where a by-reference subtree share would leave the child
        translating the parent's copies.
        """
        parent_pt = parent.space.page_table
        child_pt = child.space.page_table
        leaves = list(self._leaves_in_range(parent.space, window_va, window_end))
        for page_va, pte in leaves:
            vma = parent.space.find_vma(page_va)
            if vma is None:
                continue
            child_vma = child_vmas[id(vma)]
            cow = vma.needs_cow()
            self.clock.advance(self.costs.fork_page_copy_ns)
            page_index = vma.backing_page(page_va)
            child_pfn = child_vma.private_copies.get(page_index, pte.pfn)
            child_pt.map(
                page_va, child_pfn, page_size=pte.page_size,
                writable=pte.writable and not cow,
            )
            if cow and pte.writable:
                parent_pt.protect(
                    page_va, writable=False, page_size=pte.page_size
                )

    @staticmethod
    @complexity("n", note="one leaf walk; the range filter subsets it")
    def _leaves_in_range(space: AddressSpace, start: int, end: int):
        # o1: allow(flow-bounded) -- one pass over the declared n leaves
        for page_va, pte in space.page_table.iter_leaves():
            if start <= page_va < end:
                yield page_va, pte

    # ------------------------------------------------------------------
    # CPU entry points
    # ------------------------------------------------------------------
    @allocfree(note="asid compare; the PCID switch fires only on process change")
    def _ensure_current(self, process: Process) -> None:
        qos = self.counters.qos
        if qos is not None:
            # Demand allocations taken on this access path bill the
            # running process's cgroup.
            qos.enter_pid(process.pid)
        if self._current_asid != process.space.asid:
            # PCID-style switch: no flush, but the CR3 write is charged.
            # alloc: allow(cold-call) -- fires only when the running process changes
            self.cpu.switch_address_space(process.space.asid, flush=False)
            self._current_asid = process.space.asid

    @o1(note="one access; any fault charges its own, separate path")
    @allocfree(note="delegates to the certified CPU path; poison recovery is cold")
    def access(self, process: Process, vaddr: int, write: bool = False) -> int:
        """One user-mode memory access; returns the physical address."""
        self._ensure_current(process)
        ras = self.counters.ras
        if ras is None:
            return self.cpu.access(process.space, vaddr, write=write)
        try:
            return self.cpu.access(process.space, vaddr, write=write)
        except MemoryPoisonError as exc:
            # Machine check.  Graceful degradation: file-backed data is
            # migrated off the failing media and the access retried;
            # anonymous/private memory SIGBUS-kills only this process.
            if not ras.handle_poison(process, vaddr, write, exc):
                raise
            self.counters.bump("ras_recovered_access")
            return self.cpu.access(process.space, vaddr, write=write)

    @complexity("n", note="one access per stride step")
    @allocbound(1, note="one range object for the stride walk")
    def access_range(
        self,
        process: Process,
        vaddr: int,
        size: int,
        write: bool = False,
        stride: int = PAGE_SIZE,
    ) -> None:
        """Touch ``[vaddr, vaddr+size)`` at ``stride`` intervals.

        The default page stride is the paper's Figure 1b workload:
        "access one byte of each page".
        """
        self._ensure_current(process)
        self.cpu.access_range(process.space, vaddr, size, write=write, stride=stride)

    def warm_file(self, inode) -> None:
        """Install a file's data lines in the LLC, as if just written.

        The paper's measurements read files "after writing to the
        allocated pages first"; this models that prior write without
        charging it to the measured region.
        """
        fs = inode.fs
        npages = inode.page_count
        if npages == 0:
            return
        backing = fs.backing_for(inode)
        # frame_runs charges its (small) lookup costs; warm before opening
        # a measure() block so they land outside the measured region.
        for _index, pfn, run in backing.frame_runs(0, npages):
            self.cache.warm_range(pfn * PAGE_SIZE, run * PAGE_SIZE)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def arm_chaos(self, plan) -> None:
        """Arm a :class:`~repro.chaos.plan.FaultPlan` on this machine.

        The plan lives in one slot, ``counters.chaos``; instrumented hot
        paths read that attribute and an unarmed machine finds ``None``.
        """
        plan.bind(self.counters)
        self.counters.chaos = plan

    def disarm_chaos(self) -> None:
        """Detach the armed fault plan (it keeps its hit history)."""
        self.counters.chaos = None

    # ------------------------------------------------------------------
    # Sanitizers
    # ------------------------------------------------------------------
    def arm_sanitizers(self, suite=None):
        """Arm a :class:`~repro.sanitize.SanitizerSuite` on this machine.

        The suite lives in one slot, ``counters.sanitize``, which
        instrumented hot paths read as a plain attribute; the armed hooks
        never touch the simulated clock.  Returns the armed suite.
        """
        if suite is None:
            from repro.sanitize import SanitizerSuite

            suite = SanitizerSuite()
        suite.bind(self.counters)
        self.counters.sanitize = suite
        return suite

    def disarm_sanitizers(self) -> None:
        """Detach the armed suite (it keeps its collected violations)."""
        self.counters.sanitize = None

    # ------------------------------------------------------------------
    # RAS (media faults, scrubbing, retirement)
    # ------------------------------------------------------------------
    def arm_ras(self, engine=None, model=None):
        """Arm a :class:`~repro.ras.RasEngine` on this machine.

        The engine lives in one slot, ``counters.ras``, which the access
        path and the VFS copy loop read; an unarmed machine finds
        ``None``, never charges the clock, and produces bit-identical
        figures.  Pass ``model`` (a
        :class:`~repro.ras.MediaFaultModel`) to control the seeded fault
        population, or a pre-built ``engine`` to reuse one.  Returns the
        armed engine.
        """
        if engine is None:
            from repro.ras import RasEngine

            engine = RasEngine(self, model=model)
        self.counters.ras = engine
        return engine

    def disarm_ras(self) -> None:
        """Detach the armed RAS engine (it keeps its model state)."""
        self.counters.ras = None

    # ------------------------------------------------------------------
    # Per-tenant memory QoS
    # ------------------------------------------------------------------
    def arm_qos(self, controller=None, config=None):
        """Arm the per-tenant memory controller (``repro.qos``) here.

        The controller lives in one slot, ``counters.qos``, which the
        allocator charge sites read; an unarmed machine finds ``None``
        and its golden figures stay bit-identical.  An armed controller
        with no limits configured (the default root cgroup) accounts
        usage without ever touching the simulated clock; watermarked
        cgroups add reclaim backpressure, throttling and the OOM killer
        — all charged where the pressure happens.

        Returns the armed :class:`~repro.qos.controller.QosController`.
        """
        if controller is None:
            from repro.qos.controller import QosController

            controller = QosController(self, config=config)
        self.counters.qos = controller
        return controller

    def disarm_qos(self) -> None:
        """Detach the QoS controller (its accounting stops updating)."""
        self.counters.qos = None

    # ------------------------------------------------------------------
    # Whole-machine events
    # ------------------------------------------------------------------
    @complexity("n", note="one-time whole-machine teardown; not a hot path")
    def crash(self) -> None:
        """Power failure: volatile state vanishes, persistent FS survives.

        Processes die, DRAM-backed tmpfs loses everything, caches and
        TLBs empty; PMFS replays its journal.
        """
        san = self.counters.sanitize
        if san is not None:
            # Volatile shadow state (translations, open journal epochs)
            # dies with the power, *before* teardown frees any frames.
            san.on_machine_crash()
        for process in list(self.processes.values()):
            if process.alive:
                process.exit()
        self.processes.clear()
        self.tmpfs.crash()
        if self.pmfs is not None:
            self.pmfs.crash()
        self.cache.flush()
        self.tlb.flush_all()
        if self.rtlb is not None:
            self.rtlb.flush_all()
        self.counters.bump("machine_crash")
        self.tracer.instant("machine_crash", "kernel", pid=0)

    # ------------------------------------------------------------------
    # Measurement helper
    # ------------------------------------------------------------------
    def measure(self, trace: bool = False):
        """Context manager measuring simulated ns and counter deltas.

        With ``trace=True`` the machine's tracer records the region under
        a root ``measure`` span, and the result additionally carries the
        trace events, the per-(pid, subsystem) cost :attr:`attribution
        <_Measurement.attribution>` (whose values sum to ``elapsed_ns``
        exactly), and a :meth:`~_Measurement.write_trace` helper.  The
        spans come from the table in :mod:`repro.obs.spans`, whose
        wrappers are in place while any tracer is enabled; a measure
        that enabled the tracer disables it on exit.

        >>> kernel = Kernel.standard()
        >>> with kernel.measure() as m:
        ...     kernel.clock.advance(10)
        >>> m.elapsed_ns
        10
        """
        return _Measurement(self, trace=trace)


class _Measurement:
    """Result object for :meth:`Kernel.measure`."""

    def __init__(self, kernel: Kernel, trace: bool = False) -> None:
        self._kernel = kernel
        self.trace = trace
        self.elapsed_ns = 0
        self.counter_delta: Dict[str, int] = {}
        #: (pid, subsystem) -> simulated ns of span self time in the
        #: measured region (trace=True only); sums to ``elapsed_ns``.
        self.attribution: Dict = {}
        #: Trace events recorded in the region (trace=True only; the
        #: oldest may be missing if the tracer ring overflowed).
        self.events: List = []
        self._start_ns = 0
        self._snapshot: Dict[str, int] = {}
        self._was_enabled = False
        self._attr_snapshot: Dict = {}
        self._events_before = 0

    def __enter__(self) -> "_Measurement":
        if self.trace:
            tracer = self._kernel.tracer
            self._was_enabled = tracer.enabled
            tracer.enable()
            self._attr_snapshot = dict(tracer.attribution)
            self._events_before = tracer.total_events
            tracer.begin("measure", "kernel", pid=0)
        self._start_ns = self._kernel.clock.now
        self._snapshot = self._kernel.counters.snapshot()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed_ns = self._kernel.clock.now - self._start_ns
        self.counter_delta = self._kernel.counters.delta_since(self._snapshot)
        if self.trace:
            tracer = self._kernel.tracer
            tracer.end()
            self.attribution = tracer.attribution_since(self._attr_snapshot)
            self.events = tracer.events_since(self._events_before)
            if not self._was_enabled:
                tracer.disable()

    def write_trace(self, path: str) -> int:
        """Write the region's events as Chrome-trace JSON; returns count."""
        from repro.obs.export import write_chrome_trace

        return write_chrome_trace(
            path, self.events, self._kernel.tracer.process_names
        )

"""Property-based integration: random workloads vs simple models.

Heavy hypothesis tests driving the whole stack (syscalls, faults, file
systems) with random operation sequences, checking global invariants a
correct kernel must keep:

* frame conservation: free + used frames is constant;
* translation coherence: every resident PTE points at the frame its
  backing says it should;
* file-system/bytes equivalence for data read back;
* and, with a random `FaultPlan` crash interleaved anywhere into the
  sequence, every recovery oracle after the machine comes back up.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import FaultPlan, recover_machine, run_oracles
from repro.errors import (
    FileExistsError_,
    FileNotFoundError_,
    NoSpaceError,
    OutOfMemoryError,
    SimulatedCrashError,
)
from repro.kernel import Kernel, MachineConfig
from repro.units import GIB, KIB, MIB, PAGE_SIZE
from repro.vm.vma import MapFlags, Protection


def small_kernel():
    return Kernel(MachineConfig(dram_bytes=128 * MIB, nvm_bytes=256 * MIB))


class TestAddressSpaceProperties:
    @given(st.data())
    @settings(max_examples=25)
    def test_mmap_touch_munmap_conserves_frames(self, data):
        """Any mmap/touch/munmap interleaving returns every data frame."""
        kernel = small_kernel()
        process = kernel.spawn("p")
        sys = kernel.syscalls(process)
        baseline_free = kernel.dram_buddy.free_frames
        live = []  # (va, pages)
        node_frames = 0
        for _ in range(data.draw(st.integers(1, 25))):
            action = data.draw(st.sampled_from(["map", "touch", "unmap"]))
            if action == "map" or not live:
                pages = data.draw(st.integers(1, 16))
                flags = MapFlags.PRIVATE
                if data.draw(st.booleans()):
                    flags |= MapFlags.POPULATE
                before_nodes = kernel.counters.get("pt_node_alloc")
                va = sys.mmap(pages * PAGE_SIZE, flags=flags)
                node_frames += (
                    kernel.counters.get("pt_node_alloc") - before_nodes
                )
                live.append((va, pages))
            elif action == "touch":
                va, pages = data.draw(st.sampled_from(live))
                page = data.draw(st.integers(0, pages - 1))
                before_nodes = kernel.counters.get("pt_node_alloc")
                kernel.access(process, va + page * PAGE_SIZE, write=True)
                node_frames += (
                    kernel.counters.get("pt_node_alloc") - before_nodes
                )
            else:
                index = data.draw(st.integers(0, len(live) - 1))
                va, pages = live.pop(index)
                sys.munmap(va, pages * PAGE_SIZE)
        for va, pages in live:
            sys.munmap(va, pages * PAGE_SIZE)
        # All data frames returned; page-table node frames may stay out
        # (still linked in the live tree) or come back early (extent
        # unmaps free exclusively-owned window subtrees), never leak
        # beyond the node count nor over-free past the baseline.
        assert (
            baseline_free - node_frames
            <= kernel.dram_buddy.free_frames
            <= baseline_free
        )

    @given(st.data())
    @settings(max_examples=20)
    def test_translation_coherence(self, data):
        """Every resident translation agrees with the file backing."""
        kernel = small_kernel()
        process = kernel.spawn("p")
        sys = kernel.syscalls(process)
        size = data.draw(st.integers(1, 32)) * PAGE_SIZE
        fd = sys.open(kernel.tmpfs, "/f", create=True, size=size)
        va = sys.mmap(size, fd=fd, flags=MapFlags.SHARED)
        inode = process.fd(fd).inode
        touched = data.draw(
            st.lists(
                st.integers(0, size // PAGE_SIZE - 1),
                min_size=1, max_size=20,
            )
        )
        for page in touched:
            kernel.access(process, va + page * PAGE_SIZE, write=True)
        cache = kernel.tmpfs._pages[inode.ino]
        for page in set(touched):
            pte = process.space.page_table.lookup(va + page * PAGE_SIZE)
            assert pte is not None
            assert pte.pfn == cache[page]


class TestFileSystemProperties:
    @given(st.data())
    @settings(max_examples=20)
    def test_pmfs_matches_dict_model(self, data):
        """Random create/write/read/unlink matches a bytes model.

        Each file is modelled as one bytearray sized to the furthest
        write, so overlap semantics are exact (a dict of writes cannot
        express "a later write at a lower offset spans this range").
        """
        kernel = small_kernel()
        fs = kernel.pmfs
        model = {}
        for step in range(data.draw(st.integers(1, 30))):
            action = data.draw(
                st.sampled_from(["create", "write", "read", "unlink"])
            )
            if action == "create":
                name = f"/f{data.draw(st.integers(0, 9))}"
                if name not in model:
                    fs.create(name)
                    model[name] = bytearray()
            elif action == "write" and model:
                name = data.draw(st.sampled_from(sorted(model)))
                offset = data.draw(st.integers(0, 3 * PAGE_SIZE))
                payload = data.draw(st.binary(min_size=1, max_size=200))
                with fs.open(name) as handle:
                    handle.pwrite(offset, payload)
                buf = model[name]
                end = offset + len(payload)
                if len(buf) < end:
                    buf.extend(b"\x00" * (end - len(buf)))
                buf[offset:end] = payload
            elif action == "read" and model:
                name = data.draw(st.sampled_from(sorted(model)))
                buf = model[name]
                offset = data.draw(st.integers(0, 3 * PAGE_SIZE + 200))
                length = data.draw(st.integers(1, 300))
                # pread is short at EOF and zero-fills holes — exactly a
                # slice of the model bytearray.
                expected = bytes(buf[offset : offset + length])
                with fs.open(name) as handle:
                    assert handle.pread(offset, length) == expected
            elif action == "unlink" and model:
                name = data.draw(st.sampled_from(sorted(model)))
                fs.unlink(name)
                del model[name]
        assert fs.file_count() == len(model)

    @given(st.lists(st.integers(1, 64), min_size=1, max_size=20))
    @settings(max_examples=20)
    def test_pmfs_space_conservation(self, sizes_pages):
        """Creating and unlinking any set of files returns every block."""
        kernel = small_kernel()
        free_before = kernel.nvm_allocator.free_blocks
        for index, pages in enumerate(sizes_pages):
            kernel.pmfs.create(f"/s{index}", size=pages * PAGE_SIZE)
        for index in range(len(sizes_pages)):
            kernel.pmfs.unlink(f"/s{index}")
        assert kernel.nvm_allocator.free_blocks == free_before


class TestChaosProperties:
    """Random syscall sequences with a random crash interleaved anywhere.

    The global invariant: whatever the workload was doing when the armed
    :class:`FaultPlan` fired, recovery brings the machine back to a state
    where every oracle (fsck, frame/block conservation, translation
    coherence, recovery idempotence) holds.
    """

    #: Anything an injected fault may surface through an unhardened call
    #: site, besides the power failure itself.
    _FAULT_ERRORS = (SimulatedCrashError, OutOfMemoryError, NoSpaceError)

    def _random_ops(self, data, kernel, fom, strategy):
        from repro.core.fom import MapStrategy

        process = kernel.spawn("w")
        sys = kernel.syscalls(process)
        live_maps = []  # (va, size)
        regions = []
        for step in range(data.draw(st.integers(2, 12))):
            action = data.draw(
                st.sampled_from(
                    ["create", "mmap", "touch", "pwrite", "munmap",
                     "region", "release", "unlink"]
                )
            )
            if action == "create":
                index = data.draw(st.integers(0, 5))
                pages = data.draw(st.integers(1, 8))
                try:
                    kernel.pmfs.create(f"/c{index}", size=pages * PAGE_SIZE)
                except FileExistsError_:
                    pass
            elif action == "mmap":
                pages = data.draw(st.integers(1, 8))
                flags = MapFlags.PRIVATE
                if data.draw(st.booleans()):
                    flags |= MapFlags.POPULATE
                va = sys.mmap(pages * PAGE_SIZE, flags=flags)
                live_maps.append((va, pages * PAGE_SIZE))
            elif action == "touch" and live_maps:
                va, size = data.draw(st.sampled_from(live_maps))
                page = data.draw(st.integers(0, size // PAGE_SIZE - 1))
                kernel.access(process, va + page * PAGE_SIZE, write=True)
            elif action == "pwrite":
                index = data.draw(st.integers(0, 5))
                fd = sys.open(
                    kernel.pmfs, f"/c{index}", create=True,
                    size=2 * PAGE_SIZE,
                )
                sys.pwrite(
                    fd,
                    data.draw(st.integers(0, PAGE_SIZE)),
                    data.draw(st.binary(min_size=1, max_size=128)),
                )
                sys.close(fd)
            elif action == "munmap" and live_maps:
                va, size = live_maps.pop(
                    data.draw(st.integers(0, len(live_maps) - 1))
                )
                sys.munmap(va, size)
            elif action == "region":
                pages = data.draw(st.integers(1, 8))
                regions.append(
                    fom.allocate(
                        process,
                        pages * PAGE_SIZE,
                        strategy=strategy,
                        # Unique per step: after a release, a name
                        # counted from the live regions can be taken.
                        name=f"/r{step}",
                    )
                )
            elif action == "release" and regions:
                region = regions.pop(
                    data.draw(st.integers(0, len(regions) - 1))
                )
                if not region.released:
                    fom.release(region)
            elif action == "unlink":
                index = data.draw(st.integers(0, 5))
                try:
                    sys.unlink(kernel.pmfs, f"/c{index}")
                except FileNotFoundError_:
                    pass

    def _crash_anywhere(self, data, kernel, fom, strategy):
        seed = data.draw(st.integers(0, 2**16))
        plan = FaultPlan.seeded(seed, rate=0.2, max_faults=1)
        kernel.arm_chaos(plan)
        try:
            self._random_ops(data, kernel, fom, strategy)
        except self._FAULT_ERRORS:
            pass
        finally:
            kernel.disarm_chaos()
        recover_machine(kernel)
        assert run_oracles(kernel) == [], (
            f"oracles failed after {plan.describe()} "
            f"(injections: {plan.injections})"
        )

    @given(st.data())
    @settings(max_examples=10)
    def test_pbm_address_space_recovers_from_any_crash(self, data):
        from repro.core.fom import FileOnlyMemory, MapStrategy

        kernel = Kernel(
            MachineConfig(
                dram_bytes=128 * MIB, nvm_bytes=256 * MIB,
                cpus=2, pmfs_extent_align_frames=8,
            )
        )
        fom = FileOnlyMemory(kernel)
        self._crash_anywhere(data, kernel, fom, MapStrategy.PREMAP)

    @given(st.data())
    @settings(max_examples=10)
    def test_range_translation_space_recovers_from_any_crash(self, data):
        from repro.core.fom import FileOnlyMemory, MapStrategy

        kernel = Kernel(
            MachineConfig(
                dram_bytes=128 * MIB, nvm_bytes=256 * MIB,
                cpus=2, range_hardware=True, pmfs_extent_align_frames=8,
            )
        )
        fom = FileOnlyMemory(kernel)
        self._crash_anywhere(data, kernel, fom, MapStrategy.RANGE)

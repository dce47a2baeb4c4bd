"""fork(): COW cloning of address spaces and descriptor tables."""

import pytest

from repro.errors import ConfigurationError, ProtectionError
from repro.kernel.kernel import Kernel, MachineConfig
from repro.paging.fault import FaultType
from repro.units import GIB, KIB, MIB, PAGE_SIZE
from repro.vm.vma import MapFlags, Protection


@pytest.fixture
def forked(kernel):
    parent = kernel.spawn("parent")
    sys = kernel.syscalls(parent)
    va = sys.mmap(16 * KIB)
    kernel.access_range(parent, va, 16 * KIB, write=True)  # 4 resident pages
    child = sys.fork()
    return kernel, parent, child, va


class TestAddressSpaceCloning:
    def test_child_sees_parent_mappings(self, forked):
        kernel, parent, child, va = forked
        assert len(child.space.vmas) == len(parent.space.vmas)
        assert child.space.vmas[0].start == va

    def test_child_reads_shared_frames(self, forked):
        kernel, parent, child, va = forked
        pa_parent = kernel.access(parent, va)
        pa_child = kernel.access(child, va)
        assert pa_parent == pa_child  # still the same frame until a write

    def test_resident_ptes_copied(self, forked):
        kernel, parent, child, va = forked
        assert child.space.resident_pages() == 4

    def test_no_faults_on_child_read(self, forked):
        kernel, parent, child, va = forked
        before = kernel.counters.get("fault_trap")
        kernel.access_range(child, va, 16 * KIB)
        assert kernel.counters.get("fault_trap") == before

    def test_fork_cost_linear_in_resident_pages(self):
        # The eager per-PTE policy is the paper's motivating baseline:
        # pinned explicitly now that COW subtree sharing is the default.
        kernel = Kernel(
            MachineConfig(
                dram_bytes=512 * MIB, nvm_bytes=1 * GIB, fork_policy="eager"
            )
        )
        parent = kernel.spawn("p")
        sys = kernel.syscalls(parent)
        va = sys.mmap(256 * KIB)
        kernel.access_range(parent, va, 256 * KIB, write=True)
        with kernel.measure() as big:
            sys.fork()
        parent2 = kernel.spawn("p2")
        sys2 = kernel.syscalls(parent2)
        va2 = sys2.mmap(16 * KIB)
        kernel.access_range(parent2, va2, 16 * KIB, write=True)
        with kernel.measure() as small:
            sys2.fork()
        assert big.elapsed_ns > 3 * small.elapsed_ns

    def test_cow_fork_cheaper_than_eager_at_scale(self):
        # Same 256-page footprint: the per-window COW fork must beat the
        # per-PTE eager fork by a wide margin.  (The COW fork's residual
        # cost is the capacity-bounded TLB range invalidation, not a
        # per-page loop.)
        def fork_cost(policy):
            kernel = Kernel(
                MachineConfig(
                    dram_bytes=512 * MIB, nvm_bytes=1 * GIB, fork_policy=policy
                )
            )
            parent = kernel.spawn("p")
            sys = kernel.syscalls(parent)
            va = sys.mmap(1024 * KIB)
            kernel.access_range(parent, va, 1024 * KIB, write=True)
            with kernel.measure() as m:
                sys.fork()
            return m.elapsed_ns

        assert fork_cost("cow") * 3 < fork_cost("eager")

    def test_fork_dead_parent_rejected(self, kernel):
        parent = kernel.spawn("p")
        parent.exit()
        with pytest.raises(ConfigurationError):
            kernel.fork(parent)


class TestCopyOnWrite:
    def test_child_write_copies(self, forked):
        kernel, parent, child, va = forked
        pa_before = kernel.access(parent, va)
        kernel.access(child, va, write=True)  # COW in the child
        pa_child = kernel.access(child, va)
        pa_parent = kernel.access(parent, va)
        assert pa_child != pa_parent
        assert pa_parent == pa_before  # parent keeps the original

    def test_parent_write_also_copies(self, forked):
        kernel, parent, child, va = forked
        pa_shared = kernel.access(child, va)
        kernel.access(parent, va, write=True)  # parent got downgraded too
        assert kernel.counters.get("fault_cow") >= 1
        assert kernel.access(child, va) == pa_shared

    def test_cow_fault_counted(self, forked):
        kernel, parent, child, va = forked
        kernel.access(child, va, write=True)
        assert child.space.fault_stats[FaultType.COW] >= 1 or kernel.counters.get("fault_cow") >= 1

    def test_untouched_fork_pages_fault_fresh_in_child(self, kernel):
        parent = kernel.spawn("p")
        sys = kernel.syscalls(parent)
        va = sys.mmap(16 * KIB)
        kernel.access(parent, va, write=True)  # only page 0 resident
        child = sys.fork()
        before = kernel.counters.get("fault_minor")
        kernel.access(child, va + 12 * KIB)  # page 3: fresh demand fault
        assert kernel.counters.get("fault_minor") == before + 1
        # The fresh page is shared with the parent until someone writes.
        assert kernel.access(child, va + 12 * KIB) == kernel.access(
            parent, va + 12 * KIB
        )

    def test_readonly_parent_mapping_not_cowed(self, kernel):
        parent = kernel.spawn("p")
        sys = kernel.syscalls(parent)
        va = sys.mmap(PAGE_SIZE, prot=Protection.READ)
        kernel.access(parent, va)
        child = sys.fork()
        kernel.access(child, va)
        with pytest.raises(ProtectionError):
            kernel.access(child, va, write=True)


class TestResourceLifetimes:
    def test_fd_table_duplicated(self, kernel):
        parent = kernel.spawn("p")
        sys = kernel.syscalls(parent)
        fd = sys.open(kernel.tmpfs, "/f", create=True, size=4 * KIB)
        child = sys.fork()
        assert child.open_fd_count == 1
        inode = parent.fd(fd).inode
        assert inode.refcount == 2

    def test_child_exit_keeps_parent_memory(self, forked):
        kernel, parent, child, va = forked
        child.exit()
        kernel.access(parent, va)  # parent unaffected

    def test_parent_exit_keeps_child_memory(self, forked):
        kernel, parent, child, va = forked
        parent.exit()
        kernel.access(child, va)  # frames survive: child still a user

    def test_both_exits_free_frames(self, kernel):
        free_before = kernel.dram_buddy.free_frames
        parent = kernel.spawn("p")
        sys = kernel.syscalls(parent)
        va = sys.mmap(16 * KIB)
        kernel.access_range(parent, va, 16 * KIB, write=True)
        child = sys.fork()
        parent.exit()
        child.exit()
        # Data frames return; only page-table node frames stay out.
        assert kernel.dram_buddy.free_frames >= free_before - 24

    def test_private_copies_duplicated_eagerly(self, kernel):
        parent = kernel.spawn("p")
        sys = kernel.syscalls(parent)
        fd = sys.open(kernel.tmpfs, "/f", create=True, size=8 * KIB)
        va = sys.mmap(8 * KIB, fd=fd, flags=MapFlags.PRIVATE)
        kernel.access(parent, va, write=True)  # parent has a private copy
        child = sys.fork()
        child_vma = child.space.vmas[0]
        parent_vma = parent.space.vmas[0]
        assert set(child_vma.private_copies) == set(parent_vma.private_copies)
        assert (
            child_vma.private_copies[0] != parent_vma.private_copies[0]
        )

    def test_private_dax_copies_come_from_dram(self):
        # A store into a private PMFS mapping copies the page into DRAM,
        # as Linux does, and fork duplicates that copy from DRAM too: no
        # NVM block leaves the file system, so fsck stays clean, and
        # munmap and exit return each copy to the buddy.
        kernel = Kernel(MachineConfig(dram_bytes=64 * MIB, nvm_bytes=16 * MIB))
        parent = kernel.spawn("p")
        sys = kernel.syscalls(parent)
        fd = sys.open(kernel.pmfs, "/f", create=True, size=8 * PAGE_SIZE)
        va = sys.mmap(8 * PAGE_SIZE, fd=fd, flags=MapFlags.PRIVATE)
        nvm_free = kernel.nvm_allocator.free_blocks
        copy = kernel.access(parent, va, write=True) // PAGE_SIZE
        assert kernel.dram_buddy.is_allocated(copy)
        assert kernel.nvm_allocator.free_blocks == nvm_free
        assert kernel.pmfs.fsck() == []
        dram_free = kernel.dram_buddy.free_frames
        child = sys.fork()
        dup = child.space.find_vma(va).private_copies[0]
        assert dup != copy and kernel.dram_buddy.is_allocated(dup)
        assert kernel.nvm_allocator.free_blocks == nvm_free
        assert kernel.pmfs.fsck() == []
        child.exit()
        # The duplicate and the child's page-table nodes went back.
        assert not kernel.dram_buddy.is_allocated(dup)
        assert kernel.dram_buddy.free_frames == dram_free
        sys.munmap(va, 8 * PAGE_SIZE)
        assert not kernel.dram_buddy.is_allocated(copy)
        assert kernel.nvm_allocator.free_blocks == nvm_free
        assert kernel.pmfs.fsck() == []

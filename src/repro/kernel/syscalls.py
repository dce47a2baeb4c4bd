"""Syscall layer: the user/kernel boundary with its crossing costs.

Every call charges ``syscall_entry_ns`` + ``syscall_exit_ns`` around the
kernel work, because the boundary itself is part of what the paper
measures — e.g. the observation that a ``read()`` system call can beat
touching cold mapped memory (§3.2) only holds when both sides' fixed
costs are accounted.

The mmap path reproduces the semantics Figure 1 measures: MAP_PRIVATE
returns after VMA setup (constant time), MAP_POPULATE pre-fills every PTE
(linear), and mapping a DAX file charges the extra setup that makes the
student-report's DAX mmap ~15 us vs tmpfs's ~8 us.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import MappingError
from repro.fs.vfs import FileSystem
from repro.lint import complexity, o1
from repro.units import PAGE_SIZE
from repro.vm.vma import AnonBacking, MapFlags, Protection, Vma

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process


class Syscalls:
    """POSIX-ish syscall interface bound to one process."""

    def __init__(self, kernel: "Kernel", process: "Process") -> None:
        self._kernel = kernel
        self._process = process

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _enter(self, name: str) -> None:
        self._kernel.clock.advance(self._kernel.costs.syscall_entry_ns)
        qos = self._kernel.counters.qos
        if qos is not None:
            # Kernel work done on this call bills the caller's cgroup.
            qos.enter_pid(self._process.pid)
        self._kernel.counters.bump(f"sys_{name}")

    def _exit(self) -> None:
        self._kernel.clock.advance(self._kernel.costs.syscall_exit_ns)

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------
    @complexity("n", note="path walk, plus the extent preallocation on create")
    def open(
        self,
        fs: FileSystem,
        path: str,
        create: bool = False,
        size: int = 0,
    ) -> int:
        """Open (optionally create+preallocate) a file; returns an fd."""
        self._enter("open")
        try:
            handle = fs.open(path, create=create, size=size)
            return self._process.install_fd(handle)
        finally:
            self._exit()

    def close(self, fd: int) -> None:
        """Close a descriptor."""
        self._enter("close")
        try:
            self._process.remove_fd(fd).close()
        finally:
            self._exit()

    @complexity("n", note="per page copied through the kernel")
    def read(self, fd: int, length: int) -> bytes:
        """Read from the descriptor's offset."""
        self._enter("read")
        try:
            self._kernel.clock.advance(self._kernel.costs.fd_lookup_ns)
            return self._process.fd(fd).read(length)
        finally:
            self._exit()

    @complexity("n", note="per page copied through the kernel")
    def write(self, fd: int, data: bytes) -> int:
        """Write at the descriptor's offset."""
        self._enter("write")
        try:
            self._kernel.clock.advance(self._kernel.costs.fd_lookup_ns)
            return self._process.fd(fd).write(data)
        finally:
            self._exit()

    @complexity("n", note="per page copied through the kernel")
    def pread(self, fd: int, offset: int, length: int) -> bytes:
        """Positioned read."""
        self._enter("pread")
        try:
            self._kernel.clock.advance(self._kernel.costs.fd_lookup_ns)
            return self._process.fd(fd).pread(offset, length)
        finally:
            self._exit()

    @complexity("n", note="per page copied through the kernel")
    def pwrite(self, fd: int, offset: int, data: bytes) -> int:
        """Positioned write."""
        self._enter("pwrite")
        try:
            self._kernel.clock.advance(self._kernel.costs.fd_lookup_ns)
            return self._process.fd(fd).pwrite(offset, data)
        finally:
            self._exit()

    @o1(note="whole-file reclamation: one journaled extent free")
    def unlink(self, fs: FileSystem, path: str) -> None:
        """Remove a file — whole-file reclamation."""
        self._enter("unlink")
        try:
            # o1: allow(flow-bounded) -- path depth, not file size; the free is one extent op
            fs.unlink(path)
        finally:
            self._exit()

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    @o1(note="VMA insert only; MAP_POPULATE opts into the linear pre-fill")
    def mmap(
        self,
        length: int,
        prot: int = Protection.rw(),
        flags: int = MapFlags.PRIVATE,
        fd: Optional[int] = None,
        offset: int = 0,
        addr: Optional[int] = None,
        name: str = "",
    ) -> int:
        """Map a file (via ``fd``) or anonymous memory; returns the VA.

        Mirrors Linux: MAP_ANONYMOUS is implied when no fd is given;
        MAP_POPULATE triggers the linear pre-fill; DAX files charge their
        extra setup.
        """
        self._enter("mmap")
        try:
            if offset % PAGE_SIZE:
                raise MappingError(f"mmap offset {offset:#x} not page-aligned")
            space = self._process.space
            if addr is None:
                addr = space.pick_address(length)
            if fd is None:
                flags |= MapFlags.ANONYMOUS
                backing = AnonBacking(
                    self._kernel.dram_buddy,
                    self._kernel.clock,
                    self._kernel.costs,
                    self._kernel.counters,
                    zeropool=self._kernel.zeropool,
                    swap=self._kernel.swap,
                )
                space.mmap(
                    length, prot, flags, backing, addr=addr, name=name or "anon"
                )
            else:
                handle = self._process.fd(fd)
                inode = handle.inode
                fs = inode.fs
                self._kernel.clock.advance(fs.mmap_setup_extra_ns)
                backing = fs.backing_for(inode)
                inode.refcount += 1
                space.mmap(
                    length,
                    prot,
                    flags,
                    backing,
                    addr=addr,
                    backing_offset=offset // PAGE_SIZE,
                    name=name or f"file:ino{inode.ino}",
                )
            return addr
        finally:
            self._exit()

    @o1(
        note=(
            "COW policy: per-VMA subtree shares, O(windows) not O(pages); "
            "the eager policy keeps the paper's linear baseline selectable"
        )
    )
    def fork(self):
        """Clone the calling process (COW); returns the child Process."""
        self._enter("fork")
        try:
            return self._kernel.fork(self._process)
        finally:
            self._exit()

    @o1(
        note=(
            "extent policy: one subtree unlink per 2 MiB window plus one "
            "batched TLB range invalidation; the page policy keeps the "
            "per-PTE baseline selectable"
        )
    )
    def munmap(self, addr: int, length: int) -> None:
        """Unmap a range."""
        self._enter("munmap")
        try:
            # o1: allow(flow-bounded) -- extent teardown; the per-page walk is the selectable baseline
            self._process.space.munmap(addr, length)
        finally:
            self._exit()

    @complexity("n", note="per page in the protected range")
    def mprotect(self, addr: int, length: int, prot: int) -> None:
        """Change a mapping's protection."""
        self._enter("mprotect")
        try:
            self._process.space.mprotect(addr, length, prot)
        finally:
            self._exit()

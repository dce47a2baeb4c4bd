"""VFS layer: inodes, directories, path walking, file handles.

Deliberately thin — just enough structure that the paper's comparisons are
honest: path lookup charges per component, file creation charges an inode
allocation, permissions live on the *whole file* ("permission is granted
for the whole file and not individual blocks"), and reads/writes through
the handle pay the kernel-copy costs that make ``read()`` competitive with
cold mapped access (§3.2).

Concrete file systems (:mod:`repro.fs.tmpfs`, :mod:`repro.fs.pmfs`)
subclass :class:`FileSystem` and provide block storage and a
:class:`~repro.vm.vma.MemoryBacking` per inode so files can be mmapped.
"""

from __future__ import annotations

import abc
import enum
import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    BadFileDescriptorError,
    FileExistsError_,
    FileNotFoundError_,
    FileSystemError,
)
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.lint import complexity
from repro.obs.metrics import MetricsRegistry
from repro.units import CACHE_LINE, PAGE_SIZE, pages_for
from repro.vm.vma import MemoryBacking


class InodeKind(enum.Enum):
    """What an inode names."""

    FILE = "file"
    DIR = "dir"


class Inode:
    """One file or directory.

    Permissions (``mode``) apply to the whole file — the coarse-metadata
    property the paper leans on.  ``payload`` sparsely stores real bytes
    for pages that were actually written, so examples can demonstrate data
    surviving crashes without the simulator holding gigabytes.
    """

    _ino_counter = itertools.count(1)

    def __init__(self, fs: "FileSystem", kind: InodeKind, mode: int = 0o644) -> None:
        self.ino = next(self._ino_counter)
        self.fs = fs
        self.kind = kind
        self.mode = mode
        self.size = 0
        self.nlink = 1
        #: Open-handle/mmap reference count; reclamation is whole-file.
        self.refcount = 0
        #: Directory entries (DIR inodes only).
        self.children: Dict[str, "Inode"] = {}
        #: Sparse real data: page_index -> bytes (FILE inodes only).
        self.payload: Dict[int, bytes] = {}
        #: File-only-memory annotation: survives crash iff True and the
        #: file system itself is persistent.
        self.persistent = True
        #: Discardable files may be deleted under memory pressure.
        self.discardable = False

    @property
    def page_count(self) -> int:
        """Pages needed for the current size."""
        return pages_for(self.size) if self.size else 0

    def __repr__(self) -> str:
        return f"Inode(ino={self.ino}, {self.kind.value}, size={self.size})"


class FileSystem(abc.ABC):
    """Base for the memory file systems.

    Subclasses implement block storage (:meth:`allocate_blocks`,
    :meth:`free_blocks`, :meth:`charge_block_lookup`) and expose a
    :meth:`backing_for` used by mmap.
    """

    #: Technology backing file data, for pricing copies.
    tech: MemoryTechnology = MemoryTechnology.DRAM
    #: Whether contents survive :meth:`crash`.
    persistent: bool = False
    #: Extra constant cost mmap pays to map a file of this file system.
    mmap_setup_extra_ns: int = 0

    def __init__(
        self,
        name: str,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
    ) -> None:
        self.name = name
        self._clock = clock
        self._costs = costs
        self._counters = counters
        self.root = Inode(self, InodeKind.DIR, mode=0o755)

    # ------------------------------------------------------------------
    # Path operations
    # ------------------------------------------------------------------
    @staticmethod
    @complexity("n", note="one part per path component")
    def _split(path: str) -> List[str]:
        if not path.startswith("/"):
            raise FileSystemError(f"paths must be absolute, got {path!r}")
        return [part for part in path.split("/") if part]

    @complexity("n", note="one charge per path component")
    def _walk_to_parent(self, path: str) -> Tuple[Inode, str]:
        """(parent directory inode, final component), charging per hop."""
        parts = self._split(path)
        if not parts:
            raise FileSystemError(f"path {path!r} names the root")
        node = self.root
        for part in parts[:-1]:
            self._clock.advance(self._costs.path_component_ns)
            child = node.children.get(part)
            if child is None or child.kind is not InodeKind.DIR:
                raise FileNotFoundError_(f"{self.name}: no directory {part!r} in {path!r}")
            node = child
        self._clock.advance(self._costs.path_component_ns)
        return node, parts[-1]

    @complexity("n", note="per path component")
    def lookup(self, path: str) -> Inode:
        """Resolve ``path`` to its inode."""
        parent, name = self._walk_to_parent(path)
        child = parent.children.get(name)
        if child is None:
            raise FileNotFoundError_(f"{self.name}: {path!r} does not exist")
        return child

    @complexity("n", note="one path lookup")
    def exists(self, path: str) -> bool:
        """True if ``path`` resolves."""
        try:
            self.lookup(path)
            return True
        except FileNotFoundError_:
            return False

    @complexity("n", note="one walk per missing ancestor, within the path length")
    def makedirs(self, path: str) -> Inode:
        """Create a directory and any missing ancestors (mkdir -p)."""
        parts = self._split(path)
        node = self.root
        prefix = ""
        for part in parts:
            prefix += "/" + part
            child = node.children.get(part)
            if child is None:
                # o1: allow(flow-bounded) -- the ancestors partition the declared n components
                child = self.mkdir(prefix)
            elif child.kind is not InodeKind.DIR:
                raise FileSystemError(f"{self.name}: {prefix!r} is not a directory")
            node = child
        return node

    @complexity("n", note="one path walk")
    def mkdir(self, path: str) -> Inode:
        """Create one directory."""
        parent, name = self._walk_to_parent(path)
        if name in parent.children:
            raise FileExistsError_(f"{self.name}: {path!r} exists")
        self._clock.advance(self._costs.inode_alloc_ns)
        inode = Inode(self, InodeKind.DIR, mode=0o755)
        parent.children[name] = inode
        return inode

    @complexity("n", note="path walk; the storage itself is one extent")
    def create(self, path: str, size: int = 0, mode: int = 0o644) -> Inode:
        """Create a file, pre-allocating ``size`` bytes of storage.

        Pre-allocation at create time is the file-system idiom the paper
        exploits: one (or few) extent allocations up front instead of
        per-page allocations on every fault.
        """
        parent, name = self._walk_to_parent(path)
        if name in parent.children:
            raise FileExistsError_(f"{self.name}: {path!r} exists")
        self._clock.advance(self._costs.inode_alloc_ns)
        self._counters.bump("inode_create")
        inode = Inode(self, InodeKind.FILE, mode=mode)
        parent.children[name] = inode
        if size:
            self.truncate(inode, size)
        return inode

    @complexity("n", note="path walk; the free itself is whole-file")
    def unlink(self, path: str) -> None:
        """Remove a file, freeing its storage — whole-file reclamation."""
        parent, name = self._walk_to_parent(path)
        inode = parent.children.get(name)
        if inode is None:
            raise FileNotFoundError_(f"{self.name}: {path!r} does not exist")
        if inode.kind is InodeKind.DIR and inode.children:
            raise FileSystemError(f"{self.name}: directory {path!r} not empty")
        del parent.children[name]
        inode.nlink -= 1
        if inode.nlink == 0 and inode.kind is InodeKind.FILE:
            self.free_blocks(inode)
            self._counters.bump("inode_unlink")

    @complexity("n", note="block allocation/release for the size delta")
    def truncate(self, inode: Inode, size: int) -> None:
        """Grow (or shrink) a file's allocated storage to ``size`` bytes."""
        if size < 0:
            raise FileSystemError(f"negative size {size}")
        old_pages = inode.page_count
        new_pages = pages_for(size) if size else 0
        if new_pages > old_pages:
            self.allocate_blocks(inode, new_pages - old_pages)
        elif new_pages < old_pages:
            self.shrink_blocks(inode, new_pages)
        inode.size = size

    @complexity("n", note="one path lookup (plus create's walk on miss)")
    def open(self, path: str, create: bool = False, size: int = 0) -> "FileHandle":
        """Open (optionally creating) a file."""
        try:
            inode = self.lookup(path)
        except FileNotFoundError_:
            if not create:
                raise
            inode = self.create(path, size=size)
        return self.open_inode(inode)

    def open_inode(self, inode: Inode) -> "FileHandle":
        """Open a handle to an already-resolved inode (dup/fork path)."""
        if inode.kind is not InodeKind.FILE:
            raise FileSystemError(f"{self.name}: inode {inode.ino} is a directory")
        inode.refcount += 1
        return FileHandle(inode, self._clock, self._costs, self._counters)

    @complexity("n", note="one visit per directory entry")
    def iter_files(self) -> Iterator[Tuple[str, Inode]]:
        """All (path, inode) file pairs, depth-first."""
        stack: List[Tuple[str, Inode]] = [("", self.root)]
        while stack:
            prefix, node = stack.pop()
            # o1: allow(flow-bounded) -- each entry is visited once; entries are the declared n
            for name, child in sorted(node.children.items()):
                path = f"{prefix}/{name}"
                if child.kind is InodeKind.DIR:
                    stack.append((path, child))
                else:
                    yield path, child

    # ------------------------------------------------------------------
    # Storage interface for subclasses
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def allocate_blocks(self, inode: Inode, nblocks: int) -> None:
        """Extend ``inode``'s storage by ``nblocks`` pages."""

    @abc.abstractmethod
    def shrink_blocks(self, inode: Inode, keep_blocks: int) -> None:
        """Release storage beyond the first ``keep_blocks`` pages."""

    @abc.abstractmethod
    def free_blocks(self, inode: Inode) -> None:
        """Release all storage of ``inode`` (unlink path)."""

    @abc.abstractmethod
    def charge_block_lookup(self, inode: Inode, page_index: int) -> int:
        """Charge the cost of resolving one file page; returns its PFN."""

    @abc.abstractmethod
    def backing_for(self, inode: Inode) -> MemoryBacking:
        """A mmap backing for ``inode``."""

    @complexity("n", note="volatile reset: every file's storage freed once")
    def crash(self) -> None:
        """Power failure: volatile file systems lose everything."""
        if not self.persistent:
            files = list(self.iter_files())
            for _, inode in files:
                # o1: allow(flow-bounded) -- the files partition the declared n blocks
                self.free_blocks(inode)
            self.root = Inode(self, InodeKind.DIR, mode=0o755)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def file_count(self) -> int:
        """Number of regular files."""
        return sum(1 for _ in self.iter_files())

    def used_bytes(self) -> int:
        """Total bytes of allocated file storage."""
        return sum(inode.page_count * PAGE_SIZE for _, inode in self.iter_files())


class FileHandle:
    """An open file: positioned read/write with kernel-copy costs.

    Costs per page touched: one block lookup (page cache or extent) plus
    one line-granularity copy — the standard file API the paper compares
    mapped access against.
    """

    def __init__(
        self,
        inode: Inode,
        clock: SimClock,
        costs: CostModel,
        counters: MetricsRegistry,
    ) -> None:
        self.inode = inode
        self.pos = 0
        self._clock = clock
        self._costs = costs
        self._counters = counters
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise BadFileDescriptorError("handle is closed")

    def close(self) -> None:
        """Drop this handle's reference."""
        if not self._closed:
            self._closed = True
            self.inode.refcount -= 1

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Positioned I/O
    # ------------------------------------------------------------------
    def seek(self, pos: int) -> None:
        """Set the file offset."""
        if pos < 0:
            raise FileSystemError(f"negative seek {pos}")
        self._check_open()
        self.pos = pos

    @complexity("n", note="one positioned pread")
    def read(self, length: int) -> bytes:
        """Read up to ``length`` bytes from the current offset."""
        data = self.pread(self.pos, length)
        self.pos += len(data)
        return data

    @complexity("n", note="one positioned pwrite")
    def write(self, data: bytes) -> int:
        """Write ``data`` at the current offset."""
        written = self.pwrite(self.pos, data)
        self.pos += written
        return written

    @complexity("n", note="per page copied")
    def pread(self, offset: int, length: int) -> bytes:
        """Read without moving the offset; short at EOF."""
        self._check_open()
        if offset >= self.inode.size:
            return b""
        length = min(length, self.inode.size - offset)
        self._charge_copy(offset, length, write=False)
        out = bytearray()
        position = offset
        remaining = length
        while remaining > 0:
            page, start = divmod(position, PAGE_SIZE)
            chunk = min(remaining, PAGE_SIZE - start)
            stored = self.inode.payload.get(page, b"")
            piece = stored[start : start + chunk]
            piece = piece + b"\x00" * (chunk - len(piece))
            out += piece
            position += chunk
            remaining -= chunk
        return bytes(out)

    @complexity("n", note="per page copied")
    def pwrite(self, offset: int, data: bytes) -> int:
        """Write without moving the offset, extending the file if needed."""
        self._check_open()
        end = offset + len(data)
        if end > self.inode.page_count * PAGE_SIZE:
            self.inode.fs.truncate(self.inode, end)
        elif end > self.inode.size:
            self.inode.size = end
        self._charge_copy(offset, len(data), write=True)
        san = self._counters.sanitize
        if san is not None:
            # The data store is about to become visible: any journal
            # fence this write depends on must already have passed.
            san.on_data_visible(self.inode)
        chaos = self._counters.chaos
        if chaos is not None and chaos.hit("fs.write.torn") == "torn":
            # Torn write: a prefix of the payload lands, then power fails.
            self._store(offset, data[: len(data) // 2])
            chaos.power_cut("fs.write.torn")
        self._store(offset, data)
        return len(data)

    @complexity("n", note="one payload splice per page written")
    def _store(self, offset: int, data: bytes) -> None:
        """Splice ``data`` into the per-page payload at ``offset``."""
        position = offset
        index = 0
        while index < len(data):
            page, start = divmod(position, PAGE_SIZE)
            chunk = min(len(data) - index, PAGE_SIZE - start)
            stored = bytearray(self.inode.payload.get(page, b""))
            if len(stored) < start + chunk:
                stored.extend(b"\x00" * (start + chunk - len(stored)))
            stored[start : start + chunk] = data[index : index + chunk]
            self.inode.payload[page] = bytes(stored)
            position += chunk
            index += chunk

    @complexity("n", note="one block lookup and one copy per page touched")
    def _charge_copy(self, offset: int, length: int, write: bool) -> None:
        """Kernel-copy cost: per-page lookup + per-line copy + media access."""
        if length <= 0:
            return
        fs = self.inode.fs
        first_page = offset // PAGE_SIZE
        last_page = (offset + length - 1) // PAGE_SIZE
        ras = self._counters.ras
        for page in range(first_page, last_page + 1):
            pfn = fs.charge_block_lookup(self.inode, page)
            if ras is not None:
                # Media check per block touched: retries transients on
                # the simulated clock, raises MediaError (EIO) for reads
                # of poisoned/dead media.
                ras.on_file_block(self.inode, pfn, write)
        lines = -(-length // CACHE_LINE)
        media = (
            self._costs.write_ns(fs.tech) if write else self._costs.read_ns(fs.tech)
        )
        # One media access per page (streaming prefetch hides the rest),
        # plus the per-line copy through the kernel.
        pages = last_page - first_page + 1
        self._clock.advance(self._costs.copy_line_ns * lines + media * pages)
        self._counters.bump("file_copy_bytes", length)

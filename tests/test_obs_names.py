"""Source audits over src/: every bump() literal must be canonical,
every armed subsystem is read from its registry slot as a plain
attribute, and no code probes a backing, file system or kernel with
``getattr``."""

import ast
import pathlib
import re

import pytest

from repro.obs.names import (
    CANONICAL_COUNTERS,
    COUNTER_PREFIXES,
    SUBSYSTEMS,
    check_convention,
    is_canonical,
)
from repro.units import PAGE_SIZE
from repro.vm.vma import AnonBacking, MemoryBacking

SRC = pathlib.Path(__file__).parent.parent / "src"

#: ``.bump("name")`` / ``.bump('name', n)`` literals.
BUMP_RE = re.compile(r"\.bump\(\s*[\"']([a-z0-9_]+)[\"']")

#: f-string bump sites like ``bump(f"sys_{name}")`` — audited via the
#: explicit ``sys_*`` entries in the canonical list instead.
BUMP_FSTRING_RE = re.compile(r"\.bump\(\s*f[\"']([a-z0-9_{}]+)[\"']")


def iter_bump_literals():
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for match in BUMP_RE.finditer(text):
            yield path.relative_to(SRC), match.group(1)


class TestBumpSiteAudit:
    def test_every_bump_literal_is_canonical(self):
        offenders = [
            f"{path}: {name}"
            for path, name in iter_bump_literals()
            if not is_canonical(name)
        ]
        assert not offenders, (
            "bump() sites using counters missing from "
            "repro.obs.names.CANONICAL_COUNTERS:\n" + "\n".join(offenders)
        )

    def test_audit_actually_sees_the_tree(self):
        names = {name for _path, name in iter_bump_literals()}
        # sanity: the scan found a meaningful slice of the hot counters
        assert {"tlb_hit", "tlb_miss", "fault_trap", "pte_write"} <= names
        assert len(names) >= 40

    def test_dynamic_fault_counter_names_are_canonical(self):
        # The fault path bumps FAULT_COUNTERS[kind], which the literal
        # scan can't see, so pin every kind's name here.
        from repro.paging.fault import FAULT_COUNTERS, FaultType

        kinds = (FaultType.MINOR, FaultType.MAJOR, FaultType.COW)
        assert sorted(kinds) == list(range(len(FAULT_COUNTERS)))
        for kind in kinds:
            assert is_canonical(FAULT_COUNTERS[kind]), kind

    def test_fstring_bumps_limited_to_syscall_dispatch(self):
        dynamic = []
        for path in sorted(SRC.rglob("*.py")):
            for match in BUMP_FSTRING_RE.finditer(path.read_text()):
                dynamic.append((path.relative_to(SRC), match.group(1)))
        assert all(template == "sys_{name}" for _p, template in dynamic), dynamic


#: The registry's hook slots (``MetricsRegistry.__init__``), plus the
#: deleted ``profiler`` slot: wall time is now a column of every enabled
#: tracer, so a probe of a reintroduced slot still fails the audit.
HOOK_SLOTS = frozenset({"tracer", "chaos", "sanitize", "ras", "qos", "profiler"})


def _is_registry(node):
    """``counters``, ``self._counters``, ``self._kernel.counters``, ..."""
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name in ("counters", "_counters")


#: Receivers with a declared interface: every backing subclasses
#: ``MemoryBacking``, every file system ``FileSystem``, and the kernel
#: sets each of its attributes.  A ``getattr`` probe of one with a
#: default only hides a typo, or a member some subclass lacks.
DECLARED_RECEIVERS = frozenset({"backing", "fs", "kernel", "_kernel"})


def _receiver_name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _accesses(tree):
    """(line, kind) for every hook-slot access and declared-receiver
    probe in ``tree``.

    ``kind`` is ``"getattr"`` for a ``getattr(<registry>, "<slot>", ...)``
    probe, ``"probe"`` for a ``getattr`` on a backing (``backing``,
    ``<expr>.backing``), a file system or the kernel, and ``"attr"`` for
    a plain ``<registry>.<slot>`` read or write.
    """
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
        ):
            if (
                _is_registry(node.args[0])
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in HOOK_SLOTS
            ):
                yield node.lineno, "getattr"
            elif _receiver_name(node.args[0]) in DECLARED_RECEIVERS:
                yield node.lineno, "probe"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in HOOK_SLOTS
            and _is_registry(node.value)
        ):
            yield node.lineno, "attr"


def iter_hook_accesses():
    """(path, line, kind) of every :func:`_accesses` hit under src/.

    Parsed, not grepped, so docstring examples do not count.
    """
    for path in sorted(SRC.rglob("*.py")):
        for line, kind in _accesses(ast.parse(path.read_text())):
            yield path.relative_to(SRC), line, kind


@pytest.fixture(scope="module")
def hook_accesses():
    return list(iter_hook_accesses())


class TestHookSlotAudit:
    def test_no_getattr_probe_of_a_hook_slot(self, hook_accesses):
        # Every registry has every slot, so a probe with a default only
        # hides a typo; read the slot as a plain attribute.
        offenders = [
            f"{path}:{line}" for path, line, kind in hook_accesses if kind == "getattr"
        ]
        assert not offenders, (
            "getattr() probes of a registry hook slot; read "
            "<registry>.<slot> instead:\n" + "\n".join(offenders)
        )

    def test_audit_actually_sees_the_slot_reads(self, hook_accesses):
        reads = [(p, line) for p, line, kind in hook_accesses if kind == "attr"]
        # sanity: the scan recognises the receivers the hot paths use
        assert len(reads) >= 70
        assert {str(p) for p, _line in reads} >= {
            "repro/hw/cpu.py",
            "repro/mem/buddy.py",
            "repro/kernel/kernel.py",
        }


class TestBackingAudit:
    def test_no_getattr_probe_of_a_backing(self, hook_accesses):
        # The MemoryBacking base declares every member the vm, kernel
        # and ras layers call; give a missing one a default there.
        offenders = [
            f"{path}:{line}" for path, line, kind in hook_accesses if kind == "probe"
        ]
        assert not offenders, (
            "getattr() probes of a backing, file system or kernel; call "
            "the member the base class declares instead:\n" + "\n".join(offenders)
        )

    def test_audit_sees_each_receiver_shape(self):
        probes = (
            'getattr(vma.backing, "_allocator", None)',
            'getattr(backing, "swap_out", None)',
            'getattr(fs, "mmap_setup_extra_ns", 0)',
            'getattr(self._kernel, "pmfs", None)',
        )
        for source in probes:
            assert list(_accesses(ast.parse(source))) == [(1, "probe")], source
        assert list(_accesses(ast.parse('getattr(space, "asid", None)'))) == []

    def test_every_backing_is_a_memory_backing(self, kernel):
        assert issubclass(AnonBacking, MemoryBacking)
        for fs in (kernel.tmpfs, kernel.pmfs):
            inode = fs.create("/audit", size=PAGE_SIZE)
            assert isinstance(fs.backing_for(inode), MemoryBacking), fs.name


class TestConvention:
    def test_every_canonical_name_follows_convention(self):
        offenders = sorted(
            name for name in CANONICAL_COUNTERS if not check_convention(name)
        )
        assert not offenders, offenders

    def test_prefixes_are_all_used(self):
        used = {name.split("_")[0] for name in CANONICAL_COUNTERS}
        assert used == COUNTER_PREFIXES

    def test_check_convention_rejects_bare_subsystem(self):
        assert not check_convention("tlb")

    def test_check_convention_rejects_unknown_prefix(self):
        assert not check_convention("bogus_event")

    def test_renamed_counters_present_and_old_names_gone(self):
        # PR rename sweep: subsystem_verb_object everywhere.
        assert is_canonical("fault_trap") and not is_canonical("page_fault")
        assert is_canonical("walk_start") and not is_canonical("page_walk")
        assert is_canonical("fork_call") and not is_canonical("fork")
        assert is_canonical("vm_page_evict") and not is_canonical("page_evicted")

    def test_subsystem_tags_are_coarse(self):
        assert "kernel" in SUBSYSTEMS
        assert len(SUBSYSTEMS) < 12

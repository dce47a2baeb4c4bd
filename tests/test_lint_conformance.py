"""THE conformance gate: the shipped tree must satisfy its own checker.

This is the test CI leans on.  It fails when (a) someone adds a
size-dependent loop to a function declared O(1) without a justified
inline ``# o1: allow``, or (b) a declared cost class stops matching
what the simulated clock actually measures.  There is no baseline file:
every finding fails.
"""

import pytest

from repro.lint.decorators import ComplexityClass
from repro.lint.ops import LIGHT_SIZES, OPERATIONS, fit_all


class TestAstGate:
    def test_tree_is_clean_against_baseline(self, real_o1):
        formatted = "\n".join(f.format() for f in real_o1.findings)
        assert real_o1.findings == [], (
            f"new O(1) conformance findings:\n{formatted}"
        )

    def test_checker_actually_saw_the_tree(self, real_o1):
        assert real_o1.files >= 60
        assert real_o1.declared >= 50


@pytest.fixture(scope="module")
def fits():
    return fit_all(LIGHT_SIZES)


class TestEmpiricalGate:
    def test_every_operation_fits_its_declaration(self, fits):
        failures = [
            f"{f.operation.name}: declared {f.operation.declared.value} "
            f"fitted {f.fit.fitted.value}"
            for f in fits
            if not f.ok
        ]
        assert not failures, "complexity fit failures:\n" + "\n".join(failures)

    def test_at_least_ten_constant_confirmations(self, fits):
        confirmed = [
            f
            for f in fits
            if f.operation.declared is ComplexityClass.CONSTANT
            and not f.operation.known_mismatch
            and f.fit.fitted is ComplexityClass.CONSTANT
        ]
        assert len(confirmed) >= 10

    def test_control_is_caught(self, fits):
        # The demand-fault touch loop is declared O(1) on purpose; the
        # fitter must see through the lie or it proves nothing.
        controls = [f for f in fits if f.operation.known_mismatch]
        assert controls, "registry lost its O(n) control"
        for control in controls:
            assert control.fit.fitted is not control.operation.declared
            assert control.ok

    def test_registry_covers_the_subsystems(self):
        prefixes = {op.name.split(".")[0] for op in OPERATIONS}
        assert {
            "syscall",
            "buddy",
            "slab",
            "zeropool",
            "pmfs",
            "fom",
            "premap",
            "rangetrans",
            "pbm",
            "vfs",
            "zeroing",
            "kernel",
            "syscalls",
        } <= prefixes

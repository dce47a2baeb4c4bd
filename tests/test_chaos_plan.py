"""Unit tests for the fault-plan core (`repro.chaos.plan` / `sites`)."""

import pytest

from repro.chaos import FaultPlan, FaultSpec, SITE_ACTIONS, actions_for, is_site
from repro.errors import SimulatedCrashError


class TestSites:
    def test_every_site_allows_crash(self):
        for site in SITE_ACTIONS:
            assert "crash" in actions_for(site)

    def test_extra_actions_are_declared(self):
        assert "error" in actions_for("buddy.alloc")
        assert "torn" in actions_for("fs.write.torn")
        assert "corrupt" in actions_for("pmfs.journal.commit.pre")

    def test_is_site(self):
        assert is_site("pmfs.journal.begin")
        assert not is_site("not.a.site")

    def test_site_names_are_dotted_paths(self):
        for site in SITE_ACTIONS:
            assert "." in site
            assert site == site.lower()


class TestFaultSpecValidation:
    def test_needs_exactly_one_selector(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec(site="buddy.alloc")
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec(site="buddy.alloc", nth=0, at_hit=3)

    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="bogus.site", nth=0)

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown action"):
            FaultSpec(site="buddy.alloc", action="explode", nth=0)

    def test_rejects_action_not_supported_at_site(self):
        with pytest.raises(ValueError, match="does not support"):
            FaultSpec(site="buddy.alloc", action="torn", nth=0)

    def test_at_hit_is_site_agnostic(self):
        with pytest.raises(ValueError, match="leave site unset"):
            FaultSpec(site="buddy.alloc", at_hit=2)
        spec = FaultSpec(at_hit=2)
        assert spec.action == "crash"

    def test_per_site_spec_needs_site(self):
        with pytest.raises(ValueError, match="need a site"):
            FaultSpec(nth=0)


class TestCountingPlan:
    def test_counts_without_firing(self):
        plan = FaultPlan.counting()
        for _ in range(3):
            assert plan.hit("buddy.alloc") is None
        assert plan.hit("slab.grow") is None
        assert plan.total_hits == 4
        assert plan.census() == {"buddy.alloc": 3, "slab.grow": 1}
        assert plan.history == ["buddy.alloc"] * 3 + ["slab.grow"]
        assert plan.injections == []

    def test_describe(self):
        assert FaultPlan.counting().describe() == "FaultPlan.counting()"
        assert "hit2" in FaultPlan.crash_at(2).describe()
        assert "seed=9" in FaultPlan.seeded(9).describe()


class TestScheduledFaults:
    def test_crash_at_global_hit(self):
        plan = FaultPlan.crash_at(2)
        plan.hit("buddy.alloc")
        plan.hit("slab.grow")
        with pytest.raises(SimulatedCrashError, match="buddy.alloc"):
            plan.hit("buddy.alloc")
        assert [i.index for i in plan.injections] == [2]

    def test_crash_at_site_nth(self):
        plan = FaultPlan.crash_at_site("buddy.alloc", nth=1)
        plan.hit("buddy.alloc")  # nth 0: no fire
        plan.hit("slab.grow")  # other site
        with pytest.raises(SimulatedCrashError):
            plan.hit("buddy.alloc")  # nth 1

    def test_non_crash_action_returned_not_raised(self):
        plan = FaultPlan.fault_at_site("buddy.alloc", "error")
        assert plan.hit("buddy.alloc") == "error"
        # Specs fire once: the next hit passes through clean.
        assert plan.hit("buddy.alloc") is None

    def test_power_cut_raises(self):
        plan = FaultPlan.fault_at_site("fs.write.torn", "torn")
        assert plan.hit("fs.write.torn") == "torn"
        with pytest.raises(SimulatedCrashError, match="power failed"):
            plan.power_cut("fs.write.torn")

    def test_multiple_specs(self):
        plan = FaultPlan(
            specs=[
                FaultSpec(site="buddy.alloc", action="error", nth=0),
                FaultSpec(site="slab.grow", action="error", nth=0),
            ]
        )
        assert plan.hit("buddy.alloc") == "error"
        assert plan.hit("slab.grow") == "error"
        assert len(plan.injections) == 2


class TestSeededPlans:
    def _drive(self, plan, hits=200):
        fired = []
        for index in range(hits):
            site = ["buddy.alloc", "slab.grow", "pmfs.journal.begin"][index % 3]
            try:
                action = plan.hit(site)
            except SimulatedCrashError:
                action = "crash"
            if action is not None:
                fired.append((index, site, action))
        return fired

    def test_same_seed_same_faults(self):
        a = self._drive(FaultPlan.seeded(42, rate=0.05, max_faults=5))
        b = self._drive(FaultPlan.seeded(42, rate=0.05, max_faults=5))
        assert a == b
        assert a, "rate=0.05 over 200 hits should fire at least once"

    def test_max_faults_bounds_injections(self):
        plan = FaultPlan.seeded(7, rate=1.0, max_faults=2)
        self._drive(plan)
        assert len(plan.injections) == 2

    def test_site_filter(self):
        plan = FaultPlan.seeded(7, rate=1.0, max_faults=10, sites=["slab.grow"])
        fired = self._drive(plan)
        assert fired
        assert all(site == "slab.grow" for _, site, _ in fired)

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultPlan.seeded(1, rate=1.5)

    def test_unknown_site_filter_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.seeded(1, sites=["nope"])


class TestObsIntegration:
    def test_bound_plan_bumps_counters(self, kernel):
        plan = FaultPlan.fault_at_site("buddy.alloc", "error")
        kernel.arm_chaos(plan)
        assert kernel.counters.chaos is plan
        plan.hit("buddy.alloc")
        plan.hit("buddy.alloc")
        assert kernel.counters.get("chaos_site_hit") == 2
        assert kernel.counters.get("chaos_fault_injected") == 1
        kernel.disarm_chaos()
        assert kernel.counters.chaos is None

    def test_injection_emits_trace_event(self, kernel, request):
        kernel.tracer.enable()
        request.addfinalizer(kernel.tracer.disable)
        plan = FaultPlan.fault_at_site("buddy.alloc", "error")
        kernel.arm_chaos(plan)
        plan.hit("buddy.alloc")
        names = [e.name for e in kernel.tracer.events()]
        assert "chaos_fault" in names
        kernel.disarm_chaos()

    def test_unarmed_components_pay_nothing(self, kernel):
        # No plan armed: hot paths must not bump chaos counters.
        process = kernel.spawn("p")
        sys_calls = kernel.syscalls(process)
        va = sys_calls.mmap(4 * 4096)
        kernel.access(process, va, write=True)
        assert kernel.counters.get("chaos_site_hit") == 0

"""The load generator: named plans, spec generation, audited load runs."""

import pytest

from repro.service.loadgen import (
    MIX,
    PLAN_NAMES,
    LoadResult,
    named_plan,
    run_load,
    service_protocol,
)
from repro.service.runtime import InstanceOutcome


class TestNamedPlans:
    @pytest.mark.parametrize("name", PLAN_NAMES)
    def test_every_name_builds(self, name):
        named_plan(name, 4)  # validation happens at construction

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_plan("mayhem", 4)

    def test_none_is_clean(self):
        plan = named_plan("none", 4)
        assert not plan.partitions and not plan.crashes
        assert plan.default.drop_prob == 0.0

    def test_partition_splits_low_and_high(self):
        plan = named_plan("partition", 6)
        (split,) = plan.partitions
        assert split.groups == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))

    def test_chaos_has_every_fault_class(self):
        plan = named_plan("chaos", 4)
        assert plan.default.drop_prob > 0
        assert plan.default.dup_prob > 0
        assert plan.partitions
        assert plan.crashes  # crash with recovery
        assert all(
            w.up is not None for ws in plan.crashes.values() for w in ws
        )


class TestServiceProtocol:
    def test_alias_of_the_catalog(self):
        protocol, rounds = service_protocol("consensus", f=1)
        assert rounds == 2
        with pytest.raises(ValueError):
            service_protocol("nope", f=1)


class TestRunLoad:
    def test_clean_load_all_decide_zero_violations(self):
        result = run_load(n=4, f=1, instances=9, protocol="mix", plan="none",
                          seed=2)
        assert isinstance(result, LoadResult)
        assert len(result.results) == 9
        assert result.count(InstanceOutcome.DECIDED) == 9
        assert result.violations == 0
        assert result.throughput > 0
        # The mix cycles through the catalog.
        names = [r.spec.protocol for r in result.results]
        assert set(names) == set(MIX)

    def test_summary_schema(self):
        result = run_load(n=3, f=1, instances=3, protocol="consensus",
                          plan="none", seed=4)
        summary = result.summary()
        for key in (
            "n", "f", "plan", "protocol", "instances", "decided", "degraded",
            "parked", "violations", "throughput", "latency_p50",
            "latency_p95", "duration", "degradation_events", "retries",
            "retransmissions", "fast_retransmissions", "reconnects",
            "degraded_rounds",
            "queue_high_water",
        ):
            assert key in summary, key
        assert summary["instances"] == 3
        assert summary["decided"] == 3
        assert summary["latency_p95"] >= summary["latency_p50"] >= 0

    def test_drop_plan_terminates_and_audits_clean(self):
        result = run_load(n=4, f=1, instances=6, protocol="consensus",
                          plan="drop", seed=0, round_deadline=1.5)
        terminated = (
            result.count(InstanceOutcome.DECIDED)
            + result.count(InstanceOutcome.DEGRADED)
            + result.count(InstanceOutcome.PARKED)
        )
        assert terminated == 6  # never hangs
        assert result.violations == 0

    def test_inputs_are_seed_deterministic(self):
        a = run_load(n=3, f=1, instances=4, protocol="consensus",
                     plan="none", seed=9)
        b = run_load(n=3, f=1, instances=4, protocol="consensus",
                     plan="none", seed=9)
        assert [r.spec.inputs for r in a.results] == [
            r.spec.inputs for r in b.results
        ]

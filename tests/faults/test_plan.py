"""FaultPlan / DelaySpec / NetFaultSpec: validation, no-op guarantees
and the one fault-support table."""

import pytest

from repro.faults import DelaySpec, FaultPlan, NetFaultSpec
from repro.faults.plan import check_support


class TestDelaySpec:
    def test_defaults_are_noop(self):
        assert DelaySpec().is_noop

    def test_active_spec_is_not_noop(self):
        assert not DelaySpec(probability=0.5, minimum=1.0, maximum=2.0).is_noop

    @pytest.mark.parametrize("probability", [-0.1, 1.1])
    def test_rejects_bad_probability(self, probability):
        with pytest.raises(ValueError):
            DelaySpec(probability=probability)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            DelaySpec(probability=0.5, minimum=3.0, maximum=1.0)

    def test_rejects_negative_minimum(self):
        with pytest.raises(ValueError):
            DelaySpec(probability=0.5, minimum=-1.0)


class TestFaultPlan:
    def test_default_plan_is_noop(self):
        plan = FaultPlan()
        assert check_support(plan, "shard") == ()  # sets no field at all
        assert not plan.perturbs_delivery
        assert not plan.schedules_churn

    def test_loss_perturbs_delivery(self):
        plan = FaultPlan(loss_probability=0.1)
        assert plan.perturbs_delivery and not plan.schedules_churn

    def test_delay_perturbs_delivery(self):
        plan = FaultPlan(delay=DelaySpec(probability=0.2))
        assert plan.perturbs_delivery

    def test_churn_alone_does_not_perturb_delivery(self):
        plan = FaultPlan(crash_every=10.0)
        assert plan.schedules_churn
        assert not plan.perturbs_delivery

    @pytest.mark.parametrize(
        "plan",
        [FaultPlan(lease_refresh_every=10.0), FaultPlan(net=NetFaultSpec(partition_for=3.0))],
        ids=["lease-refresh", "partition"],
    )
    def test_every_churn_knob_schedules_churn(self, plan):
        # Lease refresh alone once read as "no churn", so a live run
        # built no chaos layer and dropped the refreshes.
        assert plan.schedules_churn

    @pytest.mark.parametrize("probability", [-0.01, 1.0])
    def test_rejects_bad_loss_probability(self, probability):
        with pytest.raises(ValueError):
            FaultPlan(loss_probability=probability)

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            FaultPlan(max_attempts=0)

    def test_rejects_negative_periods(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_every=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(restart_after=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(backoff_base=-0.1)

    @pytest.mark.parametrize(
        "kwargs", [{"crash_count": -1}, {"lease_refresh_every": -3.0}]
    )
    def test_rejects_negative_churn_knobs(self, kwargs):
        # A negative crash_count used to claim churn and schedule no crash.
        with pytest.raises(ValueError):
            FaultPlan(crash_every=5.0, **kwargs)

    def test_plan_is_immutable(self):
        with pytest.raises(AttributeError):
            FaultPlan().loss_probability = 0.5


class TestNetFaultSpec:
    def test_defaults_are_noop(self):
        assert NetFaultSpec().is_noop

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"connect_refusal_probability": 0.1},
            {"frame_fault_probability": 0.1},
            {"partition_for": 5.0},
        ],
    )
    def test_any_wire_knob_is_not_noop(self, kwargs):
        assert not NetFaultSpec(**kwargs).is_noop

    @pytest.mark.parametrize("name", ["partition_at", "partition_for"])
    def test_rejects_a_negative_partition_window(self, name):
        with pytest.raises(ValueError):
            NetFaultSpec(**{name: -1.0})

    @pytest.mark.parametrize("value", [-0.01, 1.0, 1.5])
    def test_rejects_bad_probabilities(self, value):
        with pytest.raises(ValueError):
            NetFaultSpec(connect_refusal_probability=value)
        with pytest.raises(ValueError):
            NetFaultSpec(frame_fault_probability=value)

    def test_wire_faults_perturb_wire_not_delivery(self):
        plan = FaultPlan(net=NetFaultSpec(frame_fault_probability=0.2))
        assert plan.perturbs_wire
        assert not plan.perturbs_delivery
        assert not plan.schedules_churn

    def test_jitter_alone_breaks_noop(self):
        # Jitter changes retry timing even with no injected faults, so a
        # jittered plan must not be treated as "changes nothing".
        plan = FaultPlan(backoff_jitter=0.5)
        assert check_support(plan, "sim") == ("backoff_jitter",)
        assert not plan.perturbs_wire

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            FaultPlan(backoff_jitter=-0.1)

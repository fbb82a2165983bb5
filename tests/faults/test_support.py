"""The one fault-support table: every (transport, plan field) cell is
carried by its executor or refused by name at the entry point."""

import re
from dataclasses import fields

import pytest

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig
from repro.bench.harness import run_workload
from repro.faults import (
    ChaosHarness, DelaySpec, FaultInjector, FaultPlan, NetFaultSpec, churn_schedule,
)
from repro.faults.plan import FAULT_SUPPORT, check_support
from repro.net.chaos import DEFAULT_PLAN, _SPEC_KEYS
from repro.net.cluster import DEFAULT_RETRIES, ClusterConfig, LiveCluster
from repro.sim.shard import run_sharded
from repro.workload.generator import WorkloadParams, build_workload

#: One non-default value per leaf field (``delay`` one leaf, ``net.*`` four).
SAMPLES = {
    "loss_probability": 0.1,
    "delay": DelaySpec(probability=0.2, maximum=2.0),
    "crash_every": 5.0,
    "crash_count": 2,
    "restart_after": 3.0,
    "lease_refresh_every": 10.0,
    "max_attempts": 3,
    "backoff_base": 0.1,
    "backoff_jitter": 0.5,
    "seed": 7,
    "net.connect_refusal_probability": 0.1,
    "net.frame_fault_probability": 0.5,
    "net.partition_at": 5.0,
    "net.partition_for": 4.0,
}

_RETRIES_AND_SEED = {"max_attempts", "backoff_base", "backoff_jitter", "seed"}
_CRASHES = {"crash_every", "crash_count", "restart_after"}

#: What each executor carries today, written out apart from the table.
CARRIED = {
    "sim": {"loss_probability", "delay", "lease_refresh_every"} | _CRASHES | _RETRIES_AND_SEED,
    "shard": set(),
    "live": {f"net.{leaf.name}" for leaf in fields(NetFaultSpec)} | _CRASHES | _RETRIES_AND_SEED,
}


def setting(leaf: str) -> FaultPlan:
    """A plan that sets exactly ``leaf``."""
    if leaf.startswith("net."):
        return FaultPlan(net=NetFaultSpec(**{leaf[4:]: SAMPLES[leaf]}))
    return FaultPlan(**{leaf: SAMPLES[leaf]})


@pytest.fixture(scope="module")
def workload():
    return build_workload(WorkloadParams(n_queries=3, n_tuples=12, domain_size=5, seed=1))


def _engine(plan: FaultPlan) -> ContinuousQueryEngine:
    network = ChordNetwork.build(8, injector=FaultInjector(plan))
    return ContinuousQueryEngine(network, EngineConfig("sai", index_choice="random"))


ENTRY_POINTS = {
    "sim": lambda plan, workload: run_workload(_engine(plan), workload),
    "shard": lambda plan, workload: run_sharded(_engine(plan), workload, batch_size=4),
    "live": lambda plan, workload: LiveCluster(ClusterConfig(n_nodes=4, fault_plan=plan)),
}


def test_the_samples_name_every_leaf_field():
    leaves = [f.name for f in fields(FaultPlan) if f.name != "net"]
    assert set(SAMPLES) == set(leaves) | {f"net.{f.name}" for f in fields(NetFaultSpec)}
    assert {transport: set(column) for transport, column in FAULT_SUPPORT.items()} == CARRIED


@pytest.mark.parametrize("leaf", SAMPLES)
@pytest.mark.parametrize("transport", ["sim", "shard", "live"])
def test_every_cell_is_carried_or_refused_by_name(transport, leaf, workload):
    plan = setting(leaf)
    enter = ENTRY_POINTS[transport]
    if leaf in CARRIED[transport]:
        assert check_support(plan, transport) == (leaf,)
        enter(plan, workload)
    else:
        refusal = f"the {transport} transport cannot carry fault plan field '{re.escape(leaf)}'"
        with pytest.raises(ValueError, match=refusal):
            enter(plan, workload)


def test_the_first_field_a_transport_lacks_is_named():
    plan = FaultPlan(seed=3, loss_probability=0.1, lease_refresh_every=5.0)
    assert check_support(plan, "sim") == ("loss_probability", "lease_refresh_every", "seed")
    with pytest.raises(ValueError, match="live transport cannot carry fault plan field 'loss_"):
        check_support(plan, "live")


def test_the_live_presets_pass_the_live_column():
    assert check_support(DEFAULT_RETRIES, "live") == ("max_attempts",)
    assert len(check_support(DEFAULT_PLAN, "live")) == 11
    assert sorted(_SPEC_KEYS) == sorted(leaf.removeprefix("net.") for leaf in CARRIED["live"])


def test_a_partition_is_refused_when_scheduled_on_the_simulator(workload):
    # Before the table, churn_schedule reached for the harness's
    # missing ``begin_partition`` and raised AttributeError.
    plan = FaultPlan(net=NetFaultSpec(partition_at=2.0, partition_for=3.0))
    engine = _engine(FaultPlan())
    refusal = "sim transport cannot carry fault plan field 'net.partition_at'"
    with pytest.raises(ValueError, match=refusal):
        churn_schedule(plan, ChaosHarness(engine), workload)

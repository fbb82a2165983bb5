"""Fault injection and crash recovery for the overlay and the engine.

The paper evaluates query processing on a cooperative ring; this
package supplies the adversarial counterpart: a declarative, seedable
:class:`FaultPlan` (message loss, delivery delay, crash/restart churn),
the :class:`FaultInjector` the router consults, the
:class:`ChaosHarness` recovery choreography (stabilize → refresh
leases → flush) that restores oracle-exact answer sets after crashes,
:func:`churn_schedule`, which times a plan's churn in publishes, and
:data:`~repro.faults.plan.FAULT_SUPPORT`, the one table of which
executor carries which plan field
(:func:`~repro.faults.plan.check_support` refuses the rest by name).
"""

from .injector import FaultInjector
from .plan import DelaySpec, FaultPlan, NetFaultSpec
from .recovery import ChaosHarness
from .schedule import churn_schedule

__all__ = [
    "ChaosHarness",
    "DelaySpec",
    "FaultInjector",
    "FaultPlan",
    "NetFaultSpec",
    "churn_schedule",
]

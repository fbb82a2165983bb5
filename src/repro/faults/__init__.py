"""Fault injection and crash recovery for the overlay and the engine.

The paper evaluates query processing on a cooperative ring; this
package supplies the adversarial counterpart: a declarative, seedable
:class:`FaultPlan` (message loss, delivery delay, crash/restart churn),
the :class:`FaultInjector` the router consults, the
:class:`ChaosHarness` recovery choreography (stabilize → refresh
leases → flush) that restores oracle-exact answer sets after crashes,
and :func:`churn_schedule`, which times a plan's churn in publishes.
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

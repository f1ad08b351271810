"""The scenario harness: one world builder, one driver, one checker.

``repro.testing.run_scenario`` drives the echo / key-value / storage /
replicated-KV workloads and the measurement rows the experiment
workloads are made of (RTT, sharded scaling, offload, open-loop load)
across the library OSes while a :class:`repro.sim.faults.FaultPlan`
misbehaves underneath, then checks the invariants the paper says a
libOS must uphold no matter what the device does.  Workloads and golden
scenarios are table rows (``WORKLOADS``, ``GOLDEN_SCENARIOS``); fault
plans resolve by name next to the table (``plan_by_name``).  See
docs/faults.md.
"""

from .scenarios import (
    GOLDEN_SCENARIOS,
    WORKLOADS,
    ScenarioFailure,
    ScenarioResult,
    check_reproducible,
    golden_plan,
    named_plans,
    plan_by_name,
    run_scenario,
    scenario_problem,
)

__all__ = [
    "ScenarioResult",
    "run_scenario",
    "scenario_problem",
    "plan_by_name",
    "named_plans",
    "WORKLOADS",
    "GOLDEN_SCENARIOS",
]

"""Workload catalog: the paper's benchmark circuits, named traffic-mix
scenarios for the proving service (:mod:`repro.service`) annotated with
plan-predicted per-job cost (:func:`scenario_cost_annotations`), and
seeded node crash/recovery churn traces for the failure-aware fleet
simulation (:mod:`repro.workloads.churn`)."""

from repro.workloads.catalog import (
    SCENARIOS,
    TrafficScenario,
    WORKLOADS,
    Workload,
    scenario_by_name,
    scenario_cost_annotations,
    workload_by_name,
)
from repro.workloads.churn import (
    CHURN_HORIZON_SLACK_S,
    CHURN_SCENARIOS,
    ChurnEvent,
    ChurnScenario,
    churn_trace,
    trace_for_downtime,
)

__all__ = [
    "CHURN_HORIZON_SLACK_S",
    "CHURN_SCENARIOS",
    "ChurnEvent",
    "ChurnScenario",
    "SCENARIOS",
    "TrafficScenario",
    "WORKLOADS",
    "Workload",
    "churn_trace",
    "scenario_by_name",
    "scenario_cost_annotations",
    "trace_for_downtime",
    "workload_by_name",
]

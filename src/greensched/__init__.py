"""Profit-aware job scheduling for data centers with on-site renewables.

The package splits along the problem's seams: ``model`` holds the grid of
machines and slots, ``pricing`` turns schedules into money, ``schedulers``
are the online policies, ``offline`` the exact solver and model export,
``adversary`` the worst-case constructions, ``workload`` the instance
generators, and ``experiment`` the sweep harness.
"""

from .adversary import (
    AdversarialInstance,
    RatioMeasurement,
    bf_lower_bound_instance,
    expected_ratio,
    ff_lower_bound_instance,
    measure_ratio,
    rf_worst_case_suite,
    standard_suite,
)
from .experiment import (
    ExperimentConfig,
    ExperimentError,
    load_config,
    preemption_comparison,
    run_suite,
    stable_seed,
)
from .model import (
    CapacityError,
    Job,
    Placement,
    Schedule,
    SimConfig,
    commit,
    nonpreemptive_starts,
    preemptive_slots,
)
from .offline import (
    MAX_STEPS,
    SearchBudgetError,
    emit_lp,
    node_assignment,
    solve_nonpreemptive_exact,
    solve_preemptive_exact,
)
from .pricing import (
    GreenTrace,
    NormalizedValues,
    ProfitReport,
    RandomFitParams,
    Tariff,
    account,
    brown_cost_vector,
    job_revenue,
    load_solar_csv,
    normalized_values,
    random_fit_params,
    synthetic_solar,
)
from .schedulers import (
    LogEntry,
    OnlineState,
    SchedulerKind,
    decision_log,
    expected_profit,
    place,
    run_online,
    run_trials,
)
from .workload import (
    WorkloadSpec,
    generate,
    ingest_swf,
    read_jobs,
    sample_jobs,
    write_jobs,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarialInstance",
    "CapacityError",
    "ExperimentConfig",
    "ExperimentError",
    "GreenTrace",
    "Job",
    "LogEntry",
    "MAX_STEPS",
    "NormalizedValues",
    "OnlineState",
    "Placement",
    "ProfitReport",
    "RandomFitParams",
    "RatioMeasurement",
    "Schedule",
    "SchedulerKind",
    "SearchBudgetError",
    "SimConfig",
    "Tariff",
    "WorkloadSpec",
    "account",
    "bf_lower_bound_instance",
    "brown_cost_vector",
    "commit",
    "decision_log",
    "emit_lp",
    "expected_profit",
    "expected_ratio",
    "ff_lower_bound_instance",
    "generate",
    "ingest_swf",
    "job_revenue",
    "load_config",
    "load_solar_csv",
    "measure_ratio",
    "node_assignment",
    "nonpreemptive_starts",
    "normalized_values",
    "place",
    "preemption_comparison",
    "preemptive_slots",
    "random_fit_params",
    "read_jobs",
    "rf_worst_case_suite",
    "run_online",
    "run_suite",
    "run_trials",
    "sample_jobs",
    "solve_nonpreemptive_exact",
    "solve_preemptive_exact",
    "stable_seed",
    "standard_suite",
    "synthetic_solar",
    "write_jobs",
]

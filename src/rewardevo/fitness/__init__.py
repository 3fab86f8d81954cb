"""Fitness measurement, caching, and the concurrent evaluation scheduler."""

from .core import (
    BUDGET_PROFILES,
    FINAL_BUDGET,
    INVALID_FITNESS,
    REPORT_VERSION,
    SEARCH_BUDGET,
    EvalBudget,
    FitnessReport,
    aggregate_scores,
    compute_sne,
    evaluate_fitness,
    invalid_report,
    normalized_score,
)
from .scheduler import (
    EvaluationScheduler,
    FitnessCache,
    job_key,
)

__all__ = [
    "BUDGET_PROFILES",
    "FINAL_BUDGET",
    "INVALID_FITNESS",
    "REPORT_VERSION",
    "SEARCH_BUDGET",
    "EvalBudget",
    "FitnessReport",
    "aggregate_scores",
    "compute_sne",
    "evaluate_fitness",
    "invalid_report",
    "normalized_score",
    "EvaluationScheduler",
    "FitnessCache",
    "job_key",
]

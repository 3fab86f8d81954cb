"""Fitness measurement: the normalized objective indicator over the
train-test protocol, plus the summed-normalized-efficiency ablation metric.

Lower fitness is better. A reward that fails anywhere (training or testing)
yields an invalid report with a +inf sentinel, never a partial fitness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import rsl
from ..envs import InvalidRewardError, MetaTask, policy_digest, run_episode, train_policy
from ..problems import ProblemSuite

REPORT_VERSION = 1

INVALID_FITNESS = math.inf


@dataclass(frozen=True)
class EvalBudget:
    """One evaluation profile: repetitions, per-episode budget, training. The
    defaults are the search profile."""

    gamma: int = 3
    fe_budget: int = 5000
    train_episodes: int = 20

    def __post_init__(self):
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.fe_budget < 1:
            raise ValueError("fe_budget must be >= 1")
        if self.train_episodes < 0:
            raise ValueError("train_episodes must be >= 0")

    def key_parts(self) -> tuple:
        return (self.gamma, self.fe_budget, self.train_episodes)


SEARCH_BUDGET = EvalBudget()
FINAL_BUDGET = EvalBudget(gamma=51, fe_budget=5000, train_episodes=60)

BUDGET_PROFILES = {"search": SEARCH_BUDGET, "final": FINAL_BUDGET}


@dataclass
class FitnessReport:
    fitness: float
    score_matrix: list[list[float]] | None = None  # |test| x gamma
    per_instance_medians: list[float] | None = None
    policy_digest: str | None = None
    budget_used: int = 0
    invalid_flag: bool = False
    failure_reason: str | None = None
    version: int = REPORT_VERSION

    def to_dict(self) -> dict:
        return {
            "fitness": None if math.isinf(self.fitness) else self.fitness,
            "score_matrix": self.score_matrix,
            "per_instance_medians": self.per_instance_medians,
            "policy_digest": self.policy_digest,
            "budget_used": self.budget_used,
            "invalid_flag": self.invalid_flag,
            "failure_reason": self.failure_reason,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FitnessReport":
        return cls(
            fitness=INVALID_FITNESS if d["fitness"] is None else float(d["fitness"]),
            score_matrix=d["score_matrix"],
            per_instance_medians=d["per_instance_medians"],
            policy_digest=d["policy_digest"],
            budget_used=int(d["budget_used"]),
            invalid_flag=bool(d["invalid_flag"]),
            failure_reason=d["failure_reason"],
            version=int(d.get("version", REPORT_VERSION)),
        )


def invalid_report(reason: str) -> FitnessReport:
    return FitnessReport(
        fitness=INVALID_FITNESS, invalid_flag=True, failure_reason=reason
    )


def normalized_score(y_initial: float, y_final: float, y_star: float) -> float:
    """(y_final - y_star) / (y_initial - y_star); 0.0 when the run started at
    the optimum (degenerate ratio). Never negative."""
    denom = y_initial - y_star
    if denom <= 0.0:
        return 0.0
    return max((y_final - y_star) / denom, 0.0)


def _median_lower(values: list[float]) -> float:
    """Median with the lower-middle convention for even counts."""
    s = sorted(values)
    return s[(len(s) - 1) // 2]


def aggregate_scores(score_matrix) -> tuple[float, list[float]]:
    """Mean over instances of the per-instance median over runs."""
    medians = [_median_lower(list(row)) for row in score_matrix]
    if not medians:
        raise ValueError("empty score matrix")
    return sum(medians) / len(medians), medians


def evaluate_fitness(
    reward: rsl.RewardProgram,
    task: MetaTask,
    suite: ProblemSuite,
    budget: EvalBudget,
    seed: int,
) -> FitnessReport:
    """Train a policy with the candidate reward on the train split, then run
    ``gamma`` frozen episodes per test instance with seeds seed+1 .. seed+gamma."""
    errors = rsl.schema_errors(reward, task.schema.names())
    if errors:
        return invalid_report(f"schema validation failed: {sorted(errors)}")
    try:
        policy = train_policy(
            task,
            reward,
            suite.train_instances,
            budget.train_episodes,
            budget.fe_budget,
            seed,
        )
    except InvalidRewardError as exc:
        return invalid_report(f"training: {exc.reason}")

    matrix: list[list[float]] = []
    fe_total = budget.train_episodes * budget.fe_budget
    try:
        for inst in suite.test_instances:
            row = []
            for j in range(1, budget.gamma + 1):
                log = run_episode(
                    task, policy, reward, inst, seed + j, budget.fe_budget
                )
                row.append(
                    normalized_score(log.y_initial, log.y_final, inst.optimum_value)
                )
                fe_total += log.fe_used
            matrix.append(row)
    except InvalidRewardError as exc:
        return invalid_report(f"testing: {exc.reason}")

    fitness, medians = aggregate_scores(matrix)
    return FitnessReport(
        fitness=fitness,
        score_matrix=matrix,
        per_instance_medians=medians,
        policy_digest=policy_digest(policy),
        budget_used=fe_total,
    )


def compute_sne(full_scores, baseline_scores) -> float:
    """Mean over tasks of full-framework/baseline fitness ratios; 1.0 means
    parity."""
    full = list(full_scores)
    base = list(baseline_scores)
    if len(full) != len(base) or not full:
        raise ValueError("score vectors must be non-empty and aligned")
    total = 0.0
    for r, b in zip(full, base):
        if not (math.isfinite(r) and math.isfinite(b)):
            raise ValueError("scores must be finite")
        if b == 0.0:
            raise ValueError("zero baseline score: ratio undefined")
        total += r / b
    return total / len(full)

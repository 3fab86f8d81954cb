"""Episode records and shared environment plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import problems
from ..rsl import RewardProgram, RslRuntimeError
from ..rsl import evaluate as rsl_evaluate


class InvalidRewardError(RuntimeError):
    """The reward program failed at runtime; the episode is aborted and the
    candidate's fitness becomes the invalid sentinel."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class StepRecord:
    step: int
    action: object  # int for discrete tasks, list[float] for the 35-entry task
    reward: float
    gbest: float  # objective error after the step


@dataclass
class EpisodeLog:
    instance_id: str
    seed: int
    steps: list[StepRecord] = field(default_factory=list)
    y_initial: float = 0.0  # raw objective after initialization
    y_final: float = 0.0  # raw objective at budget exhaustion
    fe_used: int = 0
    total_reward: float = 0.0

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "seed": self.seed,
            "y_initial": self.y_initial,
            "y_final": self.y_final,
            "fe_used": self.fe_used,
            "total_reward": self.total_reward,
            "steps": [
                {"step": s.step, "action": s.action, "reward": s.reward, "gbest": s.gbest}
                for s in self.steps
            ],
        }


class CountingProblem:
    """Wraps an instance so every objective evaluation increments FEs exactly
    once; also tracks the raw initial/best objective values."""

    def __init__(self, instance: problems.ProblemInstance, fe_budget: int):
        self.instance = instance
        self.fe_budget = int(fe_budget)
        self.fes = 0
        self.optimum_value = instance.optimum_value

    @property
    def remaining(self) -> int:
        return self.fe_budget - self.fes

    def eval_one(self, point: np.ndarray) -> float:
        """Objective error (value - optimum) of a single point."""
        self.fes += 1
        return problems.evaluate(self.instance, point) - self.optimum_value

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        self.fes += points.shape[0]
        return problems.evaluate_many(self.instance, points) - self.optimum_value


def wants_agent_fields(
    policy, reward: RewardProgram | None, collect_contexts: list | None, fields
) -> bool:
    """Whether a step must fill the agent-side context fields: the policy has
    them (it is not random), and contexts are being collected or the reward
    reads one of them. Otherwise they stay None."""
    if policy.kind == "random":
        return False
    if collect_contexts is not None:
        return True
    return reward is not None and not reward.referenced_fields.isdisjoint(fields)


def record_step(
    log: EpisodeLog,
    reward: RewardProgram | None,
    ctx: dict,
    action,
    gbest: float,
    collect_contexts: list | None,
) -> float:
    """The one place a step's context meets the reward: copy the context
    when contexts are being collected, score it, and append the step to the
    log. A missing program scores 0.0; a runtime failure aborts the episode
    via InvalidRewardError."""
    if collect_contexts is not None:
        collect_contexts.append(
            {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in ctx.items()}
        )
    r = 0.0
    if reward is not None:
        try:
            r = rsl_evaluate(reward, ctx).total
        except RslRuntimeError as exc:
            raise InvalidRewardError(f"reward program failed: {exc}") from exc
    log.steps.append(StepRecord(len(log.steps), action, r, gbest))
    log.total_reward += r
    return r


def episode_rng(instance: problems.ProblemInstance, seed: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(problems.mix64(seed, instance.instance_seed))
    )


def instance_label(instance: problems.ProblemInstance) -> str:
    return f"{instance.function_id}:{instance.instance_seed}"

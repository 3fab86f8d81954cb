"""Task registry: the three trainable environments behind one interface.

A task is its id, its problem suite, its population, its episode budget
ceiling ``max_fes`` and the constructor of the meta-policy it trains. The
population, the episode runner and the policy constructor come from one
table, ``_TASKS``; a policy's hyperparameters are its constructor's
defaults. The bundled expert-anchor rewards and algorithm-summary fixtures
are looked up by task id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .. import rsl
from ..problems import ProblemSuite, mix64
from .das_env import run_das_episode
from .de_env import run_de_episode
from .episode import EpisodeLog
from .policies import LinearGainPolicy, QTablePolicy
from .pso_env import run_pso_episode
from .schema import PSO_ACTION_SIZE, TASK_IDS, Schema, get_schema

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# Per task id: population, episode runner, policy constructor.
_TASKS = {
    "de-operator-selection": (50, run_de_episode, partial(QTablePolicy, 3)),
    "pso-parameter-control": (
        100, run_pso_episode, partial(LinearGainPolicy, PSO_ACTION_SIZE)
    ),
    "algorithm-selection": (50, run_das_episode, partial(QTablePolicy, 3)),
}

# Perturbations per round of the linear policy's (1+lambda) search.
_LAMBDA = 4


@dataclass(eq=False)
class MetaTask:
    task_id: str
    suite: ProblemSuite
    population: int
    max_fes: int
    new_policy: Callable[[], object]

    @property
    def schema(self) -> Schema:
        return get_schema(self.task_id)


@dataclass(frozen=True)
class Metadata:
    """A task's algorithm summary; its field dictionary is the task's
    schema."""

    task_id: str
    c_alg: str


def make_task(task_id: str, suite: ProblemSuite, max_fes: int = 5000) -> MetaTask:
    if task_id not in TASK_IDS:
        raise ValueError(f"unknown task id {task_id!r}")
    population, _, new_policy = _TASKS[task_id]
    max_fes = int(max_fes)
    if max_fes < population * 2:
        raise ValueError("MaxFEs must be at least NP * 2")
    return MetaTask(task_id, suite, population, max_fes, new_policy)


def run_episode(
    task: MetaTask,
    policy,
    reward: rsl.RewardProgram | None,
    instance,
    seed: int,
    fe_budget: int,
    learn: bool = False,
    collect_contexts: list | None = None,
) -> EpisodeLog:
    if fe_budget > task.max_fes:
        raise ValueError("fe_budget exceeds the task's MaxFEs")
    if fe_budget < task.population * 2:
        raise ValueError("fe_budget must cover at least two populations")
    runner = _TASKS[task.task_id][1]
    return runner(
        task,
        policy,
        reward,
        instance,
        seed,
        fe_budget,
        learn=learn,
        collect_contexts=collect_contexts,
    )


def make_policy(task: MetaTask):
    """A fresh, untrained policy of the kind the task trains."""
    return task.new_policy()


def train_policy(
    task: MetaTask,
    reward: rsl.RewardProgram,
    train_instances: list,
    episodes: int,
    fe_budget: int,
    seed: int,
):
    """Train a fresh policy with the candidate reward. Deterministic given
    the seed; an invalid reward propagates as InvalidRewardError."""
    policy = make_policy(task)
    if policy.kind == "random" or episodes <= 0 or not train_instances:
        return policy
    n = len(train_instances)

    if policy.kind == "qtable":
        for ep in range(episodes):
            inst = train_instances[ep % n]
            run_episode(
                task, policy, reward, inst, mix64(seed, 7000 + ep), fe_budget,
                learn=True,
            )
        return policy

    # (1+lambda) perturbation search on episode return for the linear policy.
    sigma = policy.sigma
    iterations = max(1, episodes // (1 + _LAMBDA))
    rng = np.random.Generator(np.random.PCG64(mix64(seed, 424242)))
    for it in range(iterations):
        inst = train_instances[it % n]
        ep_seed = mix64(seed, 9000 + it)
        policy.training_progress = it / iterations
        parent_ret = run_episode(
            task, policy, reward, inst, ep_seed, fe_budget
        ).total_reward
        best_w = None
        best_ret = parent_ret
        base_w = policy.w.copy()
        for _ in range(_LAMBDA):
            cand = base_w + sigma * rng.standard_normal(base_w.shape)
            policy.w = cand
            ret = run_episode(
                task, policy, reward, inst, ep_seed, fe_budget
            ).total_reward
            if ret > best_ret:
                best_ret = ret
                best_w = cand
        policy.w = best_w if best_w is not None else base_w
        policy.training_step += 1
        policy.return_baseline = 0.9 * policy.return_baseline + 0.1 * best_ret
    policy.training_progress = 1.0
    return policy


_ANCHOR_CACHE: dict[str, rsl.RewardProgram] = {}


def handcrafted_reward(task_id: str) -> rsl.RewardProgram:
    """The bundled expert-anchor reward of the task's original method."""
    if task_id not in TASK_IDS:
        raise ValueError(f"unknown task id {task_id!r}")
    if task_id not in _ANCHOR_CACHE:
        path = FIXTURES_DIR / "rewards" / "handcrafted" / f"{task_id}.rsl"
        _ANCHOR_CACHE[task_id] = rsl.parse(path.read_text(encoding="utf-8"))
    return _ANCHOR_CACHE[task_id]


def load_task_metadata(task_id: str) -> Metadata:
    """The bundled algorithm summary of the task."""
    path = FIXTURES_DIR / "metadata" / f"{task_id}.json"
    if not path.exists():
        raise FileNotFoundError(f"missing metadata fixture for {task_id!r}: {path}")
    raw = json.loads(path.read_text(encoding="utf-8"))
    return Metadata(task_id=task_id, c_alg=raw["c_alg"])


def discovered_reward(task_id: str) -> rsl.RewardProgram:
    """The bundled conformance fixture: the discovered reward for this task,
    expressed in the reward scripting language."""
    path = FIXTURES_DIR / "rewards" / "discovered" / f"{task_id}.rsl"
    return rsl.parse(path.read_text(encoding="utf-8"))

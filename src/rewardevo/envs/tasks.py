"""Task registry: the three trainable environments behind one interface.

A MetaTask bundles the problem suite, the low-level optimizer configuration,
and the meta-policy configuration. Episodes, policy training, the bundled
expert-anchor rewards, and the algorithm-summary fixtures all dispatch on the
task id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import rsl
from ..problems import ProblemSuite, mix64
from .das_env import run_das_episode
from .de_env import run_de_episode
from .episode import EpisodeLog
from .policies import LinearGainPolicy, QTablePolicy, RandomPolicy
from .pso_env import run_pso_episode
from .schema import PSO_ACTION_SIZE, TASK_IDS, Schema, get_schema

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"

_DEFAULT_OPTIMIZER = {
    "de-operator-selection": {"NP": 50},
    "pso-parameter-control": {"NP": 100},
    "algorithm-selection": {"NP": 50},
}

_DEFAULT_POLICY = {
    "de-operator-selection": {
        "kind": "qtable",
        "n_actions": 3,
        "lr": None,
        "gamma": 0.3,
        "epsilon": 0.4,
    },
    "pso-parameter-control": {
        "kind": "linear",
        "n_out": PSO_ACTION_SIZE,
        "sigma": 0.2,
        "lambda": 4,
    },
    "algorithm-selection": {
        "kind": "qtable",
        "n_actions": 3,
        "lr": None,
        "gamma": 0.3,
        "epsilon": 0.4,
    },
}


@dataclass(eq=False)
class MetaTask:
    task_id: str
    suite: ProblemSuite
    optimizer_config: dict
    policy_config: dict

    @property
    def schema(self) -> Schema:
        return get_schema(self.task_id)


@dataclass(frozen=True)
class Metadata:
    """A task's algorithm summary; its field dictionary is the task's
    schema."""

    task_id: str
    c_alg: str


def make_task(
    task_id: str,
    suite: ProblemSuite,
    max_fes: int = 5000,
    optimizer_overrides: dict | None = None,
    policy_overrides: dict | None = None,
) -> MetaTask:
    if task_id not in TASK_IDS:
        raise ValueError(f"unknown task id {task_id!r}")
    opt = dict(_DEFAULT_OPTIMIZER[task_id])
    opt["MaxFEs"] = int(max_fes)
    if optimizer_overrides:
        opt.update(optimizer_overrides)
    if opt["MaxFEs"] < opt["NP"] * 2:
        raise ValueError("MaxFEs must be at least NP * 2")
    pol = dict(_DEFAULT_POLICY[task_id])
    if policy_overrides:
        pol.update(policy_overrides)
    return MetaTask(
        task_id=task_id,
        suite=suite,
        optimizer_config=opt,
        policy_config=pol,
    )


_EPISODE_RUNNERS = {
    "de-operator-selection": run_de_episode,
    "pso-parameter-control": run_pso_episode,
    "algorithm-selection": run_das_episode,
}


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
    if fe_budget > task.optimizer_config["MaxFEs"]:
        raise ValueError("fe_budget exceeds the task's MaxFEs")
    if fe_budget < task.optimizer_config["NP"] * 2:
        raise ValueError("fe_budget must cover at least two populations")
    runner = _EPISODE_RUNNERS[task.task_id]
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


def make_policy(task: MetaTask, kind: str | None = None):
    cfg = task.policy_config
    kind = kind or cfg["kind"]
    if kind == "random":
        return RandomPolicy(
            n_actions=cfg.get("n_actions", 3), n_out=cfg.get("n_out", 0)
        )
    if kind == "qtable":
        return QTablePolicy(cfg["n_actions"], cfg["lr"], cfg["gamma"], cfg["epsilon"])
    if kind == "linear":
        return LinearGainPolicy(cfg["n_out"], cfg["sigma"])
    raise ValueError(f"unknown policy kind {kind!r}")


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
    lam = int(task.policy_config["lambda"])
    sigma = float(task.policy_config["sigma"])
    iterations = max(1, episodes // (1 + lam))
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
        for _ in range(lam):
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


def handcrafted_reward(task_or_id) -> rsl.RewardProgram:
    """The bundled expert-anchor reward of the task's original method."""
    task_id = task_or_id if isinstance(task_or_id, str) else task_or_id.task_id
    if task_id not in TASK_IDS:
        raise ValueError(f"unknown task id {task_id!r}")
    if task_id not in _ANCHOR_CACHE:
        path = FIXTURES_DIR / "rewards" / "handcrafted" / f"{task_id}.rsl"
        _ANCHOR_CACHE[task_id] = rsl.parse(path.read_text(encoding="utf-8"))
    return _ANCHOR_CACHE[task_id]


def load_task_metadata(task_or_id) -> Metadata:
    """The bundled algorithm summary of the task."""
    task_id = task_or_id if isinstance(task_or_id, str) else task_or_id.task_id
    path = FIXTURES_DIR / "metadata" / f"{task_id}.json"
    if not path.exists():
        raise FileNotFoundError(f"missing metadata fixture for {task_id!r}: {path}")
    raw = json.loads(path.read_text(encoding="utf-8"))
    return Metadata(task_id=task_id, c_alg=raw["c_alg"])


def discovered_reward(task_or_id) -> rsl.RewardProgram:
    """The bundled conformance fixture: the discovered reward for this task,
    expressed in the reward scripting language."""
    task_id = task_or_id if isinstance(task_or_id, str) else task_or_id.task_id
    path = FIXTURES_DIR / "rewards" / "discovered" / f"{task_id}.rsl"
    return rsl.parse(path.read_text(encoding="utf-8"))

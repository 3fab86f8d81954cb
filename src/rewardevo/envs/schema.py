"""Per-task reward-context schemas.

Each task locks the exact field set a reward program may read. Optional
fields (agent-side analogues and episode scratch values) may be null at
runtime; the reward language sees nulls as absent keys and reaches them only
through ctx.get(name, default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TASK_IDS = (
    "de-operator-selection",
    "pso-parameter-control",
    "algorithm-selection",
)

SCHEMA_VERSION = 1

PSO_ACTION_SIZE = 35  # 5 sub-swarms x 7 parameters
PSO_GROUPS = 5


class SchemaViolation(RuntimeError):
    """A context failed its schema contract; internal error, never a
    reward-program failure."""


@dataclass(frozen=True)
class FieldSpec:
    name: str
    kind: str  # "scalar" | "int" | "vector" | "matrix"
    description: str
    optional: bool = False


@dataclass(frozen=True)
class Schema:
    task_id: str
    fields: tuple[FieldSpec, ...]

    def names(self) -> set[str]:
        return {f.name for f in self.fields}


def _f(name, kind, desc, optional=False):
    return FieldSpec(name, kind, desc, optional)


_DE_FIELDS = (
    _f("survival", "vector", "consecutive generations each individual has survived, length NP"),
    _f("pointer", "int", "index of the individual currently being updated"),
    _f("population", "matrix", "current population, shape [NP, dim]"),
    _f("costs", "vector", "population objective errors (cost - optimum), shape [NP]"),
    _f("parent_cost", "scalar", "cost of the pointer individual before the trial"),
    _f("trial_cost", "scalar", "cost of the trial vector after mutation/crossover"),
    _f("gbest_cost", "scalar", "best cost found so far in this episode"),
    _f("median_cost", "scalar", "median of population costs"),
    _f("mean_cost", "scalar", "mean of population costs"),
    _f("std_cost", "scalar", "standard deviation of population costs"),
    _f("diversity", "scalar", "mean per-dimension standard deviation of positions"),
    _f("FEs", "int", "objective evaluations consumed so far"),
    _f("MaxFEs", "int", "objective evaluation budget for the episode"),
    _f("progress", "scalar", "FEs / MaxFEs, in [0, 1]"),
    _f("action", "int", "chosen mutation strategy id (0 rand/1, 1 current-to-rand/1, 2 best/2)"),
    _f("generation", "int", "current generation index"),
    _f("accepted", "int", "1 if the trial replaced its parent, else 0"),
    _f("delta_cost", "scalar", "parent_cost - trial_cost (>0 means improvement)"),
    _f("gbest_improve", "scalar", "previous gbest_cost - current gbest_cost"),
    _f("pointer_age", "scalar", "survival age of the pointer individual before the trial"),
    _f("q_values", "vector", "action-value row for the current state, length 3", True),
    _f("greedy_action", "int", "argmax of the action-value row", True),
    _f("q_span", "scalar", "max(q_values) - min(q_values)", True),
    _f("q_entropy", "scalar", "entropy of softmax(q_values)", True),
    _f("recent_reward_mean", "scalar", "mean of the last 20 emitted rewards", True),
    _f("recent_reward_max", "scalar", "max of the last 20 emitted rewards", True),
    _f("training_step", "int", "learner update counter", True),
    _f("improvement_history", "vector", "episode scratch: recent gbest improvements, newest last", True),
    _f("long_ema_improvement", "scalar", "episode scratch: EMA(0.1) of gbest improvements", True),
)

_DAS_FIELDS = (
    _f("last_cost", "scalar", "best cost before this decision interval"),
    _f("current_gbest", "scalar", "best cost after this decision interval"),
    _f("cost_scale_factor", "scalar", "scale factor for costs (initial best cost; 1.0 if zero)"),
    _f("FEs", "int", "objective evaluations consumed so far"),
    _f("MaxFEs", "int", "objective evaluation budget for the episode"),
    _f("action", "int", "selected optimizer index in the pool (0, 1 or 2)"),
    _f("population_group", "matrix", "current population, shape [NP, dim]"),
    _f("population_cost", "vector", "population objective errors, shape [NP]"),
    _f("population_gbest", "scalar", "best cost found so far in this episode"),
    _f("population_archive", "matrix", "archive of replaced parents, shape [<=NP, dim]"),
    _f("population_NP", "int", "population size"),
    _f("population_dim", "int", "problem dimensionality"),
    _f("policy_entropy", "scalar", "entropy of the action distribution", True),
    _f("value_estimation", "scalar", "learner's value estimate for the current state", True),
    _f("log_probability", "scalar", "log-probability of the taken action", True),
    _f("gamma", "scalar", "learner discount factor", True),
    _f("learning_rate", "scalar", "learner step size", True),
)

_PSO_FIELDS = (
    _f("gbest_val", "scalar", "current global best cost (smaller is better)"),
    _f("pre_gbest", "scalar", "global best cost before this iteration"),
    _f("fes", "int", "objective evaluations consumed so far"),
    _f("maxFEs", "int", "objective evaluation budget for the episode"),
    _f("progress", "scalar", "fes / maxFEs, in [0, 1]"),
    _f("NP", "int", "number of particles in the swarm"),
    _f("dim", "int", "problem dimensionality"),
    _f("current_position", "matrix", "swarm positions, shape [NP, dim]"),
    _f("velocity", "matrix", "swarm velocities, shape [NP, dim]"),
    _f("c_cost", "vector", "current particle costs, shape [NP]"),
    _f("pbest", "vector", "personal best costs, shape [NP]"),
    _f("pbest_position", "matrix", "personal best positions, shape [NP, dim]"),
    _f("gbest_position", "vector", "global best position, shape [dim]"),
    _f("gbest_index", "int", "index of the global best particle"),
    _f("no_improve", "int", "consecutive iterations without global best improvement"),
    _f("per_no_improve", "vector", "per-particle stagnation counters, shape [NP]"),
    _f("n_group", "int", "number of sub-swarms (5)"),
    _f("pci", "vector", "comprehensive-learning probability per particle, shape [NP]"),
    _f("action", "vector", "policy output, 35 entries: 5 groups x (w, c_mutation, scale, c1, c2, c3, c4)"),
    _f("mean_cost", "scalar", "mean of particle costs"),
    _f("median_cost", "scalar", "median of particle costs"),
    _f("std_cost", "scalar", "standard deviation of particle costs"),
    _f("diversity", "scalar", "mean per-dimension standard deviation of positions"),
    _f("gbest_improve", "scalar", "pre_gbest - gbest_val (>0 means improvement)"),
    _f("log_prob", "scalar", "log-density analogue of the sampled action", True),
    _f("entropy", "scalar", "entropy analogue of the action distribution", True),
    _f("training_progress", "scalar", "learner training progress in [0, 1]", True),
    *(
        _f(
            f"group_{g}_prev_best",
            "scalar",
            f"episode scratch: best cost of sub-swarm {g} at the previous iteration",
            True,
        )
        for g in range(PSO_GROUPS)
    ),
)

SCHEMAS: dict[str, Schema] = {
    "de-operator-selection": Schema("de-operator-selection", _DE_FIELDS),
    "algorithm-selection": Schema("algorithm-selection", _DAS_FIELDS),
    "pso-parameter-control": Schema("pso-parameter-control", _PSO_FIELDS),
}


def get_schema(task_id: str) -> Schema:
    try:
        return SCHEMAS[task_id]
    except KeyError:
        raise KeyError(f"unknown task id {task_id!r}")


def validate_context(schema: Schema, ctx: dict) -> None:
    """Internal contract check: exact key set, kinds, shapes, finiteness."""
    names = schema.names()
    if set(ctx) != names:
        extra = set(ctx) - names
        missing = names - set(ctx)
        raise SchemaViolation(
            f"context keys mismatch for {schema.task_id}: extra={sorted(extra)} "
            f"missing={sorted(missing)}"
        )
    for spec in schema.fields:
        v = ctx[spec.name]
        if v is None:
            if spec.optional:
                continue
            raise SchemaViolation(f"required field {spec.name!r} is null")
        if spec.kind == "int":
            if not isinstance(v, int) or isinstance(v, bool):
                raise SchemaViolation(f"{spec.name!r} must be an int, got {type(v)}")
        elif spec.kind == "scalar":
            if not isinstance(v, float):
                raise SchemaViolation(f"{spec.name!r} must be a float, got {type(v)}")
            if not math.isfinite(v):
                raise SchemaViolation(f"{spec.name!r} is not finite")
        elif spec.kind == "vector":
            if not (isinstance(v, np.ndarray) and v.ndim == 1):
                raise SchemaViolation(f"{spec.name!r} must be a 1-D array")
            if not np.isfinite(v).all():
                raise SchemaViolation(f"{spec.name!r} has non-finite entries")
        elif spec.kind == "matrix":
            if not (isinstance(v, np.ndarray) and v.ndim == 2):
                raise SchemaViolation(f"{spec.name!r} must be a 2-D array")
            if not np.isfinite(v).all():
                raise SchemaViolation(f"{spec.name!r} has non-finite entries")
    # Cross-field invariants.
    if schema.task_id == "de-operator-selection":
        if abs(ctx["progress"] - ctx["FEs"] / ctx["MaxFEs"]) > 1e-12:
            raise SchemaViolation("progress != FEs / MaxFEs")
        if ctx["accepted"] not in (0, 1):
            raise SchemaViolation("accepted must be 0 or 1")
    elif schema.task_id == "pso-parameter-control":
        if abs(ctx["progress"] - ctx["fes"] / ctx["maxFEs"]) > 1e-12:
            raise SchemaViolation("progress != fes / maxFEs")
        if ctx["action"].shape != (PSO_ACTION_SIZE,):
            raise SchemaViolation("action must have exactly 35 entries")
        if ctx["current_position"].shape != (ctx["NP"], ctx["dim"]):
            raise SchemaViolation("current_position must be NP x dim")
    elif schema.task_id == "algorithm-selection":
        if ctx["population_group"].shape != (
            ctx["population_NP"],
            ctx["population_dim"],
        ):
            raise SchemaViolation("population_group must be NP x dim")


def random_context(task_id: str, rng: np.random.Generator) -> dict:
    """A randomized, schema-valid context (used by conformance and fuzz
    tests). Optional fields are sometimes null."""
    if task_id == "de-operator-selection":
        return _random_de(rng)
    if task_id == "pso-parameter-control":
        return _random_pso(rng)
    if task_id == "algorithm-selection":
        return _random_das(rng)
    raise KeyError(f"unknown task id {task_id!r}")


def _cost_block(rng, n):
    scale = 10.0 ** rng.uniform(-6, 6)
    costs = rng.uniform(0.0, 1.0, n) * scale
    return costs


def _random_de(rng: np.random.Generator) -> dict:
    np_size = int(rng.integers(5, 60))
    dim = int(rng.integers(2, 20))
    max_fes = int(rng.integers(np_size * 2, 50_000))
    fes = int(rng.integers(1, max_fes + 1))
    costs = _cost_block(rng, np_size)
    pop = rng.uniform(-5, 5, (np_size, dim))
    gbest = float(min(costs.min(), costs.min() * rng.uniform(0.2, 1.0)))
    parent = float(rng.choice(costs))
    trial = float(parent * rng.uniform(0.0, 2.0))
    accepted = int(trial < parent)
    q = rng.normal(0, 1, 3) if rng.random() < 0.8 else None
    hist_len = int(rng.integers(0, 30))
    ctx = {
        "survival": rng.integers(0, 20, np_size).astype(float),
        "pointer": int(rng.integers(np_size)),
        "population": pop,
        "costs": costs,
        "parent_cost": parent,
        "trial_cost": trial,
        "gbest_cost": gbest,
        "median_cost": float(np.median(costs)),
        "mean_cost": float(np.mean(costs)),
        "std_cost": float(np.std(costs)),
        "diversity": float(np.mean(np.std(pop, axis=0))),
        "FEs": fes,
        "MaxFEs": max_fes,
        "progress": fes / max_fes,
        "action": int(rng.integers(3)),
        "generation": int(fes // np_size),
        "accepted": accepted,
        "delta_cost": parent - trial,
        "gbest_improve": float(abs(rng.normal(0, 0.1)) * (rng.random() < 0.6)),
        "pointer_age": float(rng.integers(0, 30)),
        "q_values": q,
        "greedy_action": int(np.argmax(q)) if q is not None else None,
        "q_span": float(np.max(q) - np.min(q)) if q is not None else None,
        "q_entropy": float(rng.uniform(0, 1.1)) if q is not None else None,
        "recent_reward_mean": float(rng.normal(0, 0.5)) if q is not None else None,
        "recent_reward_max": float(rng.normal(0.5, 0.5)) if q is not None else None,
        "training_step": int(rng.integers(0, 10_000)) if q is not None else None,
        "improvement_history": (
            np.abs(rng.normal(0, 0.1, hist_len)) if rng.random() < 0.8 else None
        ),
        "long_ema_improvement": (
            float(abs(rng.normal(0, 0.05))) if rng.random() < 0.8 else None
        ),
    }
    return ctx


def _random_pso(rng: np.random.Generator) -> dict:
    np_size = int(rng.integers(PSO_GROUPS * 2, 120))
    dim = int(rng.integers(2, 20))
    max_fes = int(rng.integers(np_size * 2, 100_000))
    fes = int(rng.integers(np_size, max_fes + 1))
    costs = _cost_block(rng, np_size)
    pop = rng.uniform(-5, 5, (np_size, dim))
    pbest = costs * rng.uniform(0.5, 1.0, np_size)
    gbest_idx = int(np.argmin(pbest))
    gbest = float(pbest[gbest_idx])
    pre = float(gbest * rng.uniform(1.0, 1.5) + (rng.random() < 0.3) * 0.01)
    has_agent = rng.random() < 0.8
    ctx = {
        "gbest_val": gbest,
        "pre_gbest": pre,
        "fes": fes,
        "maxFEs": max_fes,
        "progress": fes / max_fes,
        "NP": np_size,
        "dim": dim,
        "current_position": pop,
        "velocity": rng.normal(0, 1, (np_size, dim)),
        "c_cost": costs,
        "pbest": pbest,
        "pbest_position": rng.uniform(-5, 5, (np_size, dim)),
        "gbest_position": rng.uniform(-5, 5, dim),
        "gbest_index": gbest_idx,
        "no_improve": int(rng.integers(0, 40)),
        "per_no_improve": rng.integers(0, 40, np_size).astype(float),
        "n_group": PSO_GROUPS,
        "pci": rng.uniform(0.05, 0.5, np_size),
        "action": rng.uniform(0, 1, PSO_ACTION_SIZE),
        "mean_cost": float(np.mean(costs)),
        "median_cost": float(np.median(costs)),
        "std_cost": float(np.std(costs)),
        "diversity": float(np.mean(np.std(pop, axis=0))),
        "gbest_improve": pre - gbest,
        "log_prob": float(rng.normal(-2, 1)) if has_agent else None,
        "entropy": float(rng.uniform(0, 1)) if has_agent else None,
        "training_progress": float(rng.uniform(0, 1)) if has_agent else None,
    }
    for g in range(PSO_GROUPS):
        ctx[f"group_{g}_prev_best"] = (
            float(costs.min() * rng.uniform(1.0, 2.0)) if rng.random() < 0.8 else None
        )
    return ctx


def _random_das(rng: np.random.Generator) -> dict:
    np_size = int(rng.integers(10, 60))
    dim = int(rng.integers(2, 20))
    max_fes = int(rng.integers(np_size * 2, 50_000))
    fes = int(rng.integers(np_size, max_fes + 1))
    costs = _cost_block(rng, np_size)
    gbest = float(costs.min() * rng.uniform(0.2, 1.0))
    last = float(gbest * rng.uniform(1.0, 2.0) + (rng.random() < 0.3) * 0.01)
    n_arch = int(rng.integers(0, np_size))
    has_agent = rng.random() < 0.8
    return {
        "last_cost": last,
        "current_gbest": gbest,
        "cost_scale_factor": float(10.0 ** rng.uniform(-2, 6)),
        "FEs": fes,
        "MaxFEs": max_fes,
        "action": int(rng.integers(3)),
        "population_group": rng.uniform(-5, 5, (np_size, dim)),
        "population_cost": costs,
        "population_gbest": gbest,
        "population_archive": rng.uniform(-5, 5, (n_arch, dim)),
        "population_NP": np_size,
        "population_dim": dim,
        "policy_entropy": float(rng.uniform(0, 1.1)) if has_agent else None,
        "value_estimation": float(rng.normal(0, 1)) if has_agent else None,
        "log_probability": float(rng.normal(-1.5, 1)) if has_agent else None,
        "gamma": 0.9 if has_agent else None,
        "learning_rate": 0.3 if has_agent else None,
    }

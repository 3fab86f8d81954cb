"""Dynamic algorithm-selection environment.

A pool of three simplified DE variants (distinct mutation strategy and
parameter-adaptation scheme each) shares one population. At every decision
interval (NP*5 evaluations) the policy picks the variant to run next; each
variant's adaptive state persists across switches, so it is warm-started from
where it left off. The reward program is evaluated once per interval.
"""

from __future__ import annotations

import numpy as np

from .episode import (
    CountingProblem,
    EpisodeLog,
    episode_rng,
    instance_label,
    record_step,
    wants_agent_fields,
)
from .policies import state_index

DECISION_INTERVAL_GENS = 5  # interval = NP * 5 evaluations
# Context fields filled from QTablePolicy.das_fields, in context order.
AGENT_FIELDS = (
    "policy_entropy",
    "value_estimation",
    "log_probability",
    "gamma",
    "learning_rate",
)


class _SharedPop:
    def __init__(self, pop: np.ndarray, costs: np.ndarray, lb: float, ub: float):
        self.pop = pop
        self.costs = costs
        self.lb = lb
        self.ub = ub
        self.archive = np.zeros((0, pop.shape[1]))

    @property
    def gbest(self) -> float:
        return float(np.min(self.costs))

    def push_archive(self, rows: np.ndarray):
        if rows.size == 0:
            return
        cap = self.pop.shape[0]
        self.archive = np.concatenate([self.archive, rows])[-cap:]


def _binomial(rng, x, v, cr):
    mask = rng.random(x.shape) < cr[:, None]
    mask[np.arange(x.shape[0]), rng.integers(x.shape[1], size=x.shape[0])] = True
    return np.where(mask, v, x)


def _repair(u, x, lb, ub):
    u = np.where(u < lb, (x + lb) / 2.0, u)
    return np.where(u > ub, (x + ub) / 2.0, u)


class _RandDE:
    """DE/rand/1/bin with fixed F=0.5, Cr=0.9."""

    def step_generation(self, shared: _SharedPop, rng: np.random.Generator, problem):
        pop, costs = shared.pop, shared.costs
        n = pop.shape[0]
        r = np.array([rng.choice(n, size=3, replace=False) for _ in range(n)])
        v = pop[r[:, 0]] + 0.5 * (pop[r[:, 1]] - pop[r[:, 2]])
        u = _binomial(rng, pop, v, np.full(n, 0.9))
        u = _repair(u, pop, shared.lb, shared.ub)
        uc = problem.eval_many(u)
        better = uc < costs
        shared.push_archive(pop[better])
        pop[better] = u[better]
        costs[better] = uc[better]


class _BestJDE:
    """DE/best/1/bin with per-individual self-adaptive F and Cr."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.f = np.full(n, 0.5)
        self.cr = np.full(n, 0.9)

    def step_generation(self, shared: _SharedPop, rng: np.random.Generator, problem):
        pop, costs = shared.pop, shared.costs
        n = pop.shape[0]
        reset_f = rng.random(n) < 0.1
        self.f = np.where(reset_f, 0.1 + 0.9 * rng.random(n), self.f)
        reset_cr = rng.random(n) < 0.1
        self.cr = np.where(reset_cr, rng.random(n), self.cr)
        best = pop[int(np.argmin(costs))]
        r = np.array([rng.choice(n, size=2, replace=False) for _ in range(n)])
        v = best + self.f[:, None] * (pop[r[:, 0]] - pop[r[:, 1]])
        u = _binomial(rng, pop, v, self.cr)
        u = _repair(u, pop, shared.lb, shared.ub)
        uc = problem.eval_many(u)
        better = uc < costs
        shared.push_archive(pop[better])
        pop[better] = u[better]
        costs[better] = uc[better]


class _CurPBestDE:
    """DE/current-to-pbest/1 with a single success-history F memory and the
    shared archive in the difference term."""

    def __init__(self):
        self.mu_f = 0.5

    def step_generation(self, shared: _SharedPop, rng: np.random.Generator, problem):
        pop, costs = shared.pop, shared.costs
        n = pop.shape[0]
        order = np.argsort(costs)
        p_top = max(2, int(0.2 * n))
        pbest_idx = order[rng.integers(p_top, size=n)]
        f = np.clip(self.mu_f + 0.1 * rng.standard_normal(n), 0.05, 1.0)
        r1 = rng.integers(n, size=n)
        pool = (
            np.concatenate([pop, shared.archive]) if shared.archive.size else pop
        )
        r2 = rng.integers(pool.shape[0], size=n)
        v = pop + f[:, None] * (pop[pbest_idx] - pop) + f[:, None] * (
            pop[r1] - pool[r2]
        )
        u = _binomial(rng, pop, v, np.full(n, 0.9))
        u = _repair(u, pop, shared.lb, shared.ub)
        uc = problem.eval_many(u)
        better = uc < costs
        if better.any():
            sf = f[better]
            w = np.maximum(costs[better] - uc[better], 1e-12)
            w = w / w.sum()
            self.mu_f = float(np.sum(w * sf**2) / np.sum(w * sf))
        shared.push_archive(pop[better])
        pop[better] = u[better]
        costs[better] = uc[better]


def run_das_episode(
    task,
    policy,
    reward,
    instance,
    seed: int,
    fe_budget: int,
    learn: bool = False,
    collect_contexts: list | None = None,
) -> EpisodeLog:
    np_size = task.population
    dim = instance.dimension
    lb, ub = instance.lower_bound, instance.upper_bound
    rng = episode_rng(instance, seed)
    problem = CountingProblem(instance, fe_budget)

    pop = rng.uniform(lb, ub, (np_size, dim))
    costs = problem.eval_many(pop)
    shared = _SharedPop(pop, costs, lb, ub)
    y_initial = shared.gbest + instance.optimum_value
    cost_scale = shared.gbest if shared.gbest > 0 else 1.0

    variants = [_RandDE(), _BestJDE(np_size, rng), _CurPBestDE()]
    interval = np_size * DECISION_INTERVAL_GENS
    diversity = float(np.mean(np.std(pop, axis=0)))
    initial_diversity = max(diversity, 1e-12)
    last_improve = 0.0
    log = EpisodeLog(instance_id=instance_label(instance), seed=seed)
    want_agent = wants_agent_fields(policy, reward, collect_contexts, AGENT_FIELDS)

    while problem.remaining >= np_size:
        state = state_index(
            problem.fes / fe_budget, last_improve > 0, diversity / initial_diversity
        )
        action = policy.act(state, rng, learn)
        last_cost = shared.gbest
        target = min(interval, problem.remaining)
        consumed = 0
        while consumed + np_size <= target:
            variants[action].step_generation(shared, rng, problem)
            consumed += np_size
        current_gbest = shared.gbest
        last_improve = last_cost - current_gbest
        diversity = float(np.mean(np.std(shared.pop, axis=0)))

        ctx = {
            "last_cost": last_cost,
            "current_gbest": current_gbest,
            "cost_scale_factor": cost_scale,
            "FEs": problem.fes,
            "MaxFEs": fe_budget,
            "action": int(action),
            "population_group": shared.pop,
            "population_cost": shared.costs,
            "population_gbest": current_gbest,
            "population_archive": shared.archive,
            "population_NP": np_size,
            "population_dim": dim,
            **dict.fromkeys(AGENT_FIELDS),
        }
        if want_agent:
            ctx.update(policy.das_fields(state, action, learn))
        r = record_step(log, reward, ctx, int(action), current_gbest, collect_contexts)

        if learn:
            next_state = state_index(
                problem.fes / fe_budget, last_improve > 0, diversity / initial_diversity
            )
            policy.update(state, action, r, next_state)

    log.y_initial = y_initial
    log.y_final = shared.gbest + instance.optimum_value
    log.fe_used = problem.fes
    return log

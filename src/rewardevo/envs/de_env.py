"""Differential-evolution operator-selection environment.

Per trial, the policy picks one of three mutation strategies (rand/1,
current-to-rand/1, best/2); F and Cr come from success-history adaptation.
The reward program is evaluated once per trial on the freshly extracted
context. In frozen mode the reward never influences the trajectory.

Population statistics for the context are maintained incrementally (one row
changes per trial) and resynced from scratch every generation. Diversity is
recomputed only after a resync or an accepted trial; a rejected trial leaves
the population, and so the diversity, unchanged. The agent-side context
fields (``AGENT_FIELDS``) are built only under ``wants_agent_fields``.
"""

from __future__ import annotations

import bisect
import math

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

SHADE_MEMORY = 6
HISTORY_CAP = 50
# Context fields filled from QTablePolicy.de_fields, in context order.
AGENT_FIELDS = (
    "q_values",
    "greedy_action",
    "q_span",
    "q_entropy",
    "recent_reward_mean",
    "recent_reward_max",
    "training_step",
)


def _sample_f(rng: np.random.Generator, mu: float) -> float:
    for _ in range(100):
        f = mu + 0.1 * math.tan(math.pi * (rng.random() - 0.5))
        if f > 0.0:
            return min(f, 1.0)
    return 0.1


def _distinct(rng: np.random.Generator, np_size: int, exclude: int, k: int) -> list[int]:
    out: list[int] = []
    while len(out) < k:
        j = int(rng.integers(np_size))
        if j != exclude and j not in out:
            out.append(j)
    return out


class _PopStats:
    """Running mean/std/median of costs and positional diversity."""

    def __init__(self, pop: np.ndarray, costs: np.ndarray):
        self.n = pop.shape[0]
        self.resync(pop, costs)

    def resync(self, pop: np.ndarray, costs: np.ndarray):
        self.csum = float(np.sum(costs))
        self.csum2 = float(np.dot(costs, costs))
        self.sorted_costs = sorted(costs.tolist())
        self.s1 = np.sum(pop, axis=0)
        self.s2 = np.sum(pop * pop, axis=0)

    def replace(self, old_cost: float, new_cost: float, old_row, new_row):
        self.csum += new_cost - old_cost
        self.csum2 += new_cost * new_cost - old_cost * old_cost
        idx = bisect.bisect_left(self.sorted_costs, old_cost)
        del self.sorted_costs[idx]
        bisect.insort(self.sorted_costs, new_cost)
        self.s1 += new_row - old_row
        self.s2 += new_row * new_row - old_row * old_row

    def mean(self) -> float:
        return self.csum / self.n

    def std(self) -> float:
        v = self.csum2 / self.n - (self.csum / self.n) ** 2
        return math.sqrt(v) if v > 0 else 0.0

    def median(self) -> float:
        s = self.sorted_costs
        n = self.n
        if n % 2:
            return s[n // 2]
        return 0.5 * (s[n // 2 - 1] + s[n // 2])

    def diversity(self) -> float:
        var = self.s2 / self.n - (self.s1 / self.n) ** 2
        var[var < 0] = 0.0
        return float(np.mean(np.sqrt(var)))


def run_de_episode(
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
    gbest = float(np.min(costs))
    y_initial = gbest + instance.optimum_value

    survival = np.zeros(np_size)
    mem_f = np.full(SHADE_MEMORY, 0.5)
    mem_cr = np.full(SHADE_MEMORY, 0.5)
    mem_ptr = 0

    stats = _PopStats(pop, costs)
    initial_diversity = max(stats.diversity(), 1e-12)
    improvement_history: list[float] = []
    long_ema = 0.0
    last_improve = 0.0
    generation = 0
    log = EpisodeLog(instance_id=instance_label(instance), seed=seed)
    want_agent = wants_agent_fields(policy, reward, collect_contexts, AGENT_FIELDS)

    while problem.remaining > 0:
        generation += 1
        stats.resync(pop, costs)
        diversity = stats.diversity()
        s_f: list[float] = []
        s_cr: list[float] = []
        s_w: list[float] = []
        best_idx = int(np.argmin(costs))
        for i in range(np_size):
            if problem.remaining <= 0:
                break
            state = state_index(
                problem.fes / fe_budget, last_improve > 0, diversity / initial_diversity
            )
            action = policy.act(state, rng, learn)
            k = int(rng.integers(SHADE_MEMORY))
            f = _sample_f(rng, mem_f[k])
            cr = float(min(max(rng.normal(mem_cr[k], 0.1), 0.0), 1.0))

            x = pop[i]
            if action == 0:
                r1, r2, r3 = _distinct(rng, np_size, i, 3)
                v = pop[r1] + f * (pop[r2] - pop[r3])
            elif action == 1:
                r1, r2, r3 = _distinct(rng, np_size, i, 3)
                v = x + f * (pop[r1] - x) + f * (pop[r2] - pop[r3])
            else:
                r1, r2, r3, r4 = _distinct(rng, np_size, i, 4)
                v = pop[best_idx] + f * (pop[r1] - pop[r2]) + f * (pop[r3] - pop[r4])

            if action == 1:
                u = v
            else:
                mask = rng.random(dim) < cr
                mask[int(rng.integers(dim))] = True
                u = np.where(mask, v, x)
            # Midpoint repair toward the violated bound.
            low = u < lb
            if low.any():
                u = np.where(low, (x + lb) / 2.0, u)
            high = u > ub
            if high.any():
                u = np.where(high, (x + ub) / 2.0, u)

            parent_cost = float(costs[i])
            trial_cost = problem.eval_one(u)
            accepted = 1 if trial_cost < parent_cost else 0
            delta_cost = parent_cost - trial_cost
            pointer_age = float(survival[i])
            prev_gbest = gbest

            if accepted:
                stats.replace(parent_cost, trial_cost, pop[i].copy(), u)
                pop[i] = u
                costs[i] = trial_cost
                diversity = stats.diversity()
                survival[i] = 0.0
                s_f.append(f)
                s_cr.append(cr)
                s_w.append(max(delta_cost, 1e-12))
            else:
                survival[i] += 1.0
            if trial_cost < gbest:
                gbest = trial_cost
                best_idx = i
            gbest_improve = prev_gbest - gbest

            progress = problem.fes / fe_budget
            ctx = {
                "survival": survival,
                "pointer": i,
                "population": pop,
                "costs": costs,
                "parent_cost": parent_cost,
                "trial_cost": float(trial_cost),
                "gbest_cost": gbest,
                "median_cost": stats.median(),
                "mean_cost": stats.mean(),
                "std_cost": stats.std(),
                "diversity": diversity,
                "FEs": problem.fes,
                "MaxFEs": fe_budget,
                "progress": progress,
                "action": int(action),
                "generation": generation,
                "accepted": accepted,
                "delta_cost": float(delta_cost),
                "gbest_improve": float(gbest_improve),
                "pointer_age": pointer_age,
                **dict.fromkeys(AGENT_FIELDS),
                "improvement_history": np.asarray(improvement_history),
                "long_ema_improvement": long_ema,
            }
            if want_agent:
                ctx.update(policy.de_fields(state))
            r = record_step(log, reward, ctx, int(action), gbest, collect_contexts)

            improvement_history.append(gbest_improve)
            if len(improvement_history) > HISTORY_CAP:
                del improvement_history[0]
            long_ema = 0.9 * long_ema + 0.1 * gbest_improve
            last_improve = gbest_improve

            if learn:
                next_state = state_index(
                    progress, gbest_improve > 0, diversity / initial_diversity
                )
                policy.update(state, action, r, next_state)

        if s_f:
            w = np.asarray(s_w)
            w = w / w.sum()
            sf = np.asarray(s_f)
            mem_f[mem_ptr] = float(np.sum(w * sf**2) / np.sum(w * sf))  # Lehmer mean
            mem_cr[mem_ptr] = float(np.sum(w * np.asarray(s_cr)))
            mem_ptr = (mem_ptr + 1) % SHADE_MEMORY

    log.y_initial = y_initial
    log.y_final = gbest + instance.optimum_value
    log.fe_used = problem.fes
    return log

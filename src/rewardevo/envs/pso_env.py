"""Ensemble particle-swarm environment with 5 sub-swarms.

Each iteration the policy emits 35 bounded parameters (per sub-swarm: inertia
w, mutation probability, velocity-clamp scale, and the four acceleration
coefficients of the combined update toward personal best, global best, a
comprehensive-learning exemplar, and a fitness-distance-ratio partner). The
reward program is evaluated once per iteration.
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
from .schema import PSO_GROUPS

PARAMS_PER_GROUP = 7
# Context fields filled from LinearGainPolicy.agent_fields, in context order.
AGENT_FIELDS = ("log_prob", "entropy", "training_progress")


def _pci(np_size: int) -> np.ndarray:
    """Comprehensive-learning probability curve over particle rank."""
    i = np.arange(np_size)
    return 0.05 + 0.45 * (np.exp(10 * i / max(np_size - 1, 1)) - 1.0) / (
        np.exp(10) - 1.0
    )


def _features(progress, gbest_improve, scale0, div_ratio, no_improve) -> np.ndarray:
    return np.array(
        [
            1.0,
            progress,
            np.tanh(gbest_improve / scale0),
            min(div_ratio, 2.0),
            min(no_improve, 10) / 10.0,
        ]
    )


def run_pso_episode(
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
    span = ub - lb
    base_vmax = 0.2 * span
    rng = episode_rng(instance, seed)
    problem = CountingProblem(instance, fe_budget)

    pop = rng.uniform(lb, ub, (np_size, dim))
    vel = rng.uniform(-base_vmax, base_vmax, (np_size, dim)) * 0.1
    costs = problem.eval_many(pop)
    pbest = costs.copy()
    pbest_pos = pop.copy()
    gbest_idx = int(np.argmin(costs))
    gbest_val = float(costs[gbest_idx])
    gbest_pos = pop[gbest_idx].copy()
    y_initial = gbest_val + instance.optimum_value

    pci = _pci(np_size)
    group_size = np_size // PSO_GROUPS
    group_slices = [
        slice(g * group_size, (g + 1) * group_size if g < PSO_GROUPS - 1 else np_size)
        for g in range(PSO_GROUPS)
    ]
    group_prev_best = [float(np.min(costs[sl])) for sl in group_slices]

    diversity = float(np.mean(np.std(pop, axis=0)))
    initial_diversity = max(diversity, 1e-12)
    scale0 = max(abs(gbest_val), 1.0)
    no_improve = 0
    per_no_improve = np.zeros(np_size)
    gbest_improve = 0.0
    log = EpisodeLog(instance_id=instance_label(instance), seed=seed)
    want_agent = wants_agent_fields(policy, reward, collect_contexts, AGENT_FIELDS)

    while problem.remaining >= np_size:
        feats = _features(
            problem.fes / fe_budget,
            gbest_improve,
            scale0,
            diversity / initial_diversity,
            no_improve,
        )
        action = np.clip(policy.act_vector(feats, rng), 0.0, 1.0)
        grp = action.reshape(PSO_GROUPS, PARAMS_PER_GROUP)
        w_g = 0.4 + 0.5 * grp[:, 0]
        cm_g = 0.1 * grp[:, 1]
        sc_g = 0.5 + grp[:, 2]
        c_g = 2.5 * grp[:, 3:7]  # c1..c4 per group

        # Broadcast group parameters to particles.
        w = np.empty(np_size)
        cm = np.empty(np_size)
        sc = np.empty(np_size)
        cc = np.empty((np_size, 4))
        for g, sl in enumerate(group_slices):
            w[sl] = w_g[g]
            cm[sl] = cm_g[g]
            sc[sl] = sc_g[g]
            cc[sl] = c_g[g]

        # Comprehensive-learning exemplar: per dimension, learn from a random
        # particle's personal best with probability pci, else from own pbest.
        use_other = rng.random((np_size, dim)) < pci[:, None]
        partners = rng.integers(np_size, size=(np_size, dim))
        exemplar = np.where(
            use_other, pbest_pos[partners, np.arange(dim)[None, :]], pbest_pos
        )

        # Fitness-distance-ratio partner (particle level).
        diff = pop[:, None, :] - pbest_pos[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2)) + 1e-12
        fdr = (costs[:, None] - pbest[None, :]) / dist
        fdr_partner = np.argmax(fdr, axis=1)
        fdr_pos = pbest_pos[fdr_partner]

        r = rng.random((4, np_size, dim))
        vel = (
            w[:, None] * vel
            + cc[:, 0:1] * r[0] * (pbest_pos - pop)
            + cc[:, 1:2] * r[1] * (gbest_pos - pop)
            + cc[:, 2:3] * r[2] * (exemplar - pop)
            + cc[:, 3:4] * r[3] * (fdr_pos - pop)
        )
        vmax = sc * base_vmax
        vel = np.clip(vel, -vmax[:, None], vmax[:, None])
        pop = np.clip(pop + vel, lb, ub)
        mut = rng.random(np_size) < cm
        if mut.any():
            pop[mut] = rng.uniform(lb, ub, (int(mut.sum()), dim))

        costs = problem.eval_many(pop)
        improved = costs < pbest
        pbest = np.where(improved, costs, pbest)
        pbest_pos[improved] = pop[improved]
        per_no_improve = np.where(improved, 0.0, per_no_improve + 1.0)

        pre_gbest = gbest_val
        best_now = int(np.argmin(pbest))
        if float(pbest[best_now]) < gbest_val:
            gbest_val = float(pbest[best_now])
            gbest_idx = best_now
            gbest_pos = pbest_pos[best_now].copy()
            no_improve = 0
        else:
            no_improve += 1
        gbest_improve = pre_gbest - gbest_val
        diversity = float(np.mean(np.std(pop, axis=0)))

        ctx = {
            "gbest_val": gbest_val,
            "pre_gbest": pre_gbest,
            "fes": problem.fes,
            "maxFEs": fe_budget,
            "progress": problem.fes / fe_budget,
            "NP": np_size,
            "dim": dim,
            "current_position": pop,
            "velocity": vel,
            "c_cost": costs,
            "pbest": pbest,
            "pbest_position": pbest_pos,
            "gbest_position": gbest_pos,
            "gbest_index": gbest_idx,
            "no_improve": no_improve,
            "per_no_improve": per_no_improve,
            "n_group": PSO_GROUPS,
            "pci": pci,
            "action": action,
            "mean_cost": float(np.mean(costs)),
            "median_cost": float(np.median(costs)),
            "std_cost": float(np.std(costs)),
            "diversity": diversity,
            "gbest_improve": float(gbest_improve),
            **dict.fromkeys(AGENT_FIELDS),
        }
        for g in range(PSO_GROUPS):
            ctx[f"group_{g}_prev_best"] = group_prev_best[g]
        if want_agent:
            ctx.update(policy.agent_fields(feats))
        record_step(log, reward, ctx, action.tolist(), gbest_val, collect_contexts)
        group_prev_best = [float(np.min(costs[sl])) for sl in group_slices]

    log.y_initial = y_initial
    log.y_final = gbest_val + instance.optimum_value
    log.fe_used = problem.fes
    return log

"""Reference layer table: fixed inputs, independent of ``--seed``.

- rsl microseconds per evaluation of the six bundled rewards on fixed
  ``random_context`` draws;
- one episode per task with no reward, the expert anchor and the discovered
  reward;
- microseconds per ``select_survivors`` call on a nominal N=2 pool.

These figures are reference values for the README, not benchmark metrics.
"""

from __future__ import annotations

import time

import numpy as np

CONTEXTS = 200
EPISODE_DIMENSION = 5
EPISODE_FES = 1000
SELECT_CALLS = 5000


def reference_table() -> dict:
    from rewardevo import envs, rsl
    from rewardevo.evolution import Individual, select_survivors
    from rewardevo.problems import make_suite

    programs = {
        (task, kind): load(task)
        for task in envs.TASK_IDS
        for kind, load in (
            ("anchor", envs.handcrafted_reward),
            ("discovered", envs.discovered_reward),
        )
    }

    rsl_us = {}
    for (task, kind), program in programs.items():
        rng = np.random.default_rng(20240)
        contexts = [envs.random_context(task, rng) for _ in range(CONTEXTS)]
        start = time.perf_counter()
        for ctx in contexts:
            rsl.evaluate(program, ctx)
        rsl_us[f"{task}/{kind}"] = (time.perf_counter() - start) / CONTEXTS * 1e6

    suite = make_suite(EPISODE_DIMENSION, 3)
    episode_s = {}
    for task_id in envs.TASK_IDS:
        task = envs.make_task(task_id, suite, max_fes=EPISODE_FES)
        for kind in ("none", "anchor", "discovered"):
            reward = None if kind == "none" else programs[(task_id, kind)]
            policy = envs.make_policy(task)
            start = time.perf_counter()
            envs.run_episode(task, policy, reward, suite.test_instances[0], 1, EPISODE_FES)
            episode_s[f"{task_id}/{kind}"] = time.perf_counter() - start

    pool_size = 12  # N parents + 5N offspring, N = 2
    pool = [
        Individual(
            id=f"i{k}", task_id="de-operator-selection", thought="", source="",
            fitness=0.1 + 0.01 * k, per_instance_medians=None, generation_born=k % 2,
            parent_ids=(), operator="m1", status="alive", content_hash=str(k),
        )
        for k in range(pool_size)
    ]
    rng = np.random.Generator(np.random.PCG64(7))
    start = time.perf_counter()
    for _ in range(SELECT_CALLS):
        select_survivors(pool, 2, rng, nominal_pool_size=pool_size)
    select_us = (time.perf_counter() - start) / SELECT_CALLS * 1e6

    return {
        "rsl_us_per_eval": rsl_us,
        "episode_s": episode_s,
        "episode_config": {"dimension": EPISODE_DIMENSION, "fe_budget": EPISODE_FES},
        "select_us_per_call": select_us,
    }


def format_table(table: dict) -> str:
    cfg = table["episode_config"]
    lines = ["| layer | measurement |", "| --- | --- |"]
    for key, us in table["rsl_us_per_eval"].items():
        lines.append(f"| rsl eval, {key} | {us:.1f} us/eval |")
    for key, seconds in table["episode_s"].items():
        lines.append(
            f"| episode d={cfg['dimension']} {cfg['fe_budget']} FEs, {key} | {seconds:.3f} s |"
        )
    lines.append(f"| select_survivors, pool 12, N=2 | {table['select_us_per_call']:.1f} us/call |")
    return "\n".join(lines)

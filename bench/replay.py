"""Replay-script generator for the discovery workloads.

The script provisions every template for the worst case a real evaluator can
produce, so no LLM call of the run finds an empty queue:

- ``init_attempts`` ``init`` responses per niche;
- one ``m3_reflect`` per generation, generation 1 included (rejected init
  candidates can enter the archive before the first generation);
- per generation, niche and parent: ``m1_reflect`` plus one response for each
  code template of the five operators;
- per generation, one KT plan and one ``kt_execute`` per pathway.

Every code response is a distinct, anchor-sized (3-5 line) program that reads
the context fields of the task that will consume it. Queues are consumed in a
fixed task order, because each niche makes exactly ``init_attempts`` init calls
when that number is ``niche_size - 1`` and every operator slot is filled.
"""

from __future__ import annotations

import json
import random

# Anchor-sized reward bodies per task. ``{a}`` and ``{b}`` are filled with
# seeded constants; every body guards its denominators so it stays finite.
VARIANTS = {
    "de-operator-selection": (
        "if ctx.accepted > 0:\n    r = {a}\nelse:\n    r = {b}\n"
        'return r, {{"acceptance": r}}',
        "g = clip(ctx.delta_cost / (abs(ctx.parent_cost) + 1e-12), -1.0, 1.0)\n"
        "r = {a} * g + {b} * ctx.accepted\n"
        'return r, {{"relative_gain": g}}',
        "g = ctx.gbest_improve / (abs(ctx.gbest_cost) + ctx.gbest_improve + 1e-12)\n"
        "r = {a} * g + {b} * ctx.accepted * (1.0 - ctx.progress)\n"
        'return r, {{"gbest": g}}',
        "z = ctx.delta_cost / (ctx.std_cost + 1e-12)\n"
        "r = tanh({a} * z) + {b} * ctx.diversity / (ctx.diversity + 1.0)\n"
        'return r, {{"scaled_delta": z}}',
    ),
    "pso-parameter-control": (
        "if ctx.gbest_val < ctx.pre_gbest:\n    r = {a}\nelse:\n    r = {b}\n"
        'return r, {{"improved": r}}',
        "g = (ctx.pre_gbest - ctx.gbest_val) / (abs(ctx.pre_gbest) + 1e-12)\n"
        "r = {a} * g - {b} * min(ctx.no_improve, 10) * 0.1\n"
        'return r, {{"relative_gain": g}}',
        "g = clip(ctx.gbest_improve / (ctx.std_cost + 1e-12), 0.0, 1.0)\n"
        "r = {a} * g + {b} * ctx.diversity / (ctx.diversity + 1.0)\n"
        'return r, {{"gain": g}}',
        "g = log1p(max(ctx.gbest_improve, 0.0) / (abs(ctx.gbest_val) + 1e-12))\n"
        "r = {a} * g * (1.0 - {b} * ctx.progress)\n"
        'return r, {{"log_gain": g}}',
    ),
    "algorithm-selection": (
        "r = {a} * (ctx.last_cost - ctx.current_gbest) / ctx.cost_scale_factor\n"
        'return r, {{"scaled_improvement": r}}',
        "g = (ctx.last_cost - ctx.current_gbest) / ctx.cost_scale_factor\n"
        "r = clip({a} * g, 0.0, 1.0) + {b} * ctx.FEs / ctx.MaxFEs\n"
        'return r, {{"gain": g}}',
        "g = max(ctx.last_cost - ctx.current_gbest, 0.0) / ctx.cost_scale_factor\n"
        "r = {a} * log1p(g) - {b} * 0.01\n"
        'return r, {{"log_gain": g}}',
        "g = (ctx.last_cost - ctx.current_gbest) / (abs(ctx.last_cost) + 1e-12)\n"
        "r = {a} * g + {b} * min(ctx.population_cost) / (ctx.cost_scale_factor + 1e-12)\n"
        'return r, {{"relative_gain": g}}',
    ),
}

CODE_TEMPLATES = ("init", "m1_mutate", "m2", "m3_mutate", "c1", "c2", "kt_execute")


class _Programs:
    """Draws distinct reward programs: each call gets fresh constants.

    A task's variants are used in turn, not drawn, so every seed evaluates
    the same mix of program shapes and does the same amount of rsl work.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.count = 0
        self.per_task: dict[str, int] = {}

    def response(self, task_id: str, template_id: str) -> str:
        self.count += 1
        turn = self.per_task[task_id] = self.per_task.get(task_id, -1) + 1
        variants = VARIANTS[task_id]
        body = variants[turn % len(variants)].format(
            # The serial number in the last digits keeps every program distinct.
            a=f"{0.5 + 1.5 * self.rng.random():.4f}{self.count:04d}",
            b=f"{0.3 * self.rng.random():.4f}{self.count:04d}",
        )
        thought = (
            f"Candidate {self.count} for {task_id} ({template_id}): reward the "
            f"improvement signal, scaled so that it stays bounded."
        )
        return f"{thought}\n```rsl\n{body}\n```"


def kt_plan(tasks: list[str], pathways: int) -> str:
    return json.dumps(
        [
            {
                "source_task": tasks[i % len(tasks)],
                "target_task": tasks[(i + 1) % len(tasks)],
                "rationale": "both tasks reward a drop of the best cost",
                "transfer_strategy_guidance": "map the improvement fields",
            }
            for i in range(pathways)
        ]
    )


def discovery_script(config: dict, seed: int) -> list[dict]:
    """Replay entries (``template_id``, ``response``) for one discovery run of
    ``config`` (a RunConfig dict with ``tasks``, ``niche_size``, ``g_max`` and
    ``max_init_attempts`` set)."""
    tasks = list(config["tasks"])
    n = config["niche_size"]
    pathways = config.get("kt_pathways") or len(tasks)
    programs = _Programs(seed)
    script: list[dict] = []

    def add(template_id: str, response: str) -> None:
        script.append({"template_id": template_id, "response": response})

    def add_program(template_id: str, task: str) -> None:
        # ``task_id`` names the task that consumes the response; the replay
        # provider reads only ``template_id`` and ``response``.
        script.append(
            {
                "template_id": template_id,
                "response": programs.response(task, template_id),
                "task_id": task,
            }
        )

    for task in tasks:
        for _ in range(config["max_init_attempts"]):
            add_program("init", task)
    for g in range(1, config["g_max"] + 1):
        add("m3_reflect", f"```summary\ngeneration {g}: improvement terms dominate\n```")
        for task in tasks:
            for parent in range(n):
                add("m1_reflect", f"parent {parent} of {task} is weak on multimodal functions")
                for template_id in ("m1_mutate", "m2", "m3_mutate", "c1", "c2"):
                    add_program(template_id, task)
        add("kt_reflect", kt_plan(tasks, pathways))
        for i in range(pathways):
            add_program("kt_execute", tasks[(i + 1) % len(tasks)])
    return script

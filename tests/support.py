"""Shared test helpers: synthetic evaluators and replay-script builders."""

from __future__ import annotations

import json
import re

from rewardevo.evolution import RunConfig
from rewardevo.fitness import FitnessReport

TASKS3 = ["de-operator-selection", "pso-parameter-control", "algorithm-selection"]

_MAGIC = re.compile(r"return (-?\d+(?:\.\d+)?), \{\}")

ANCHOR_FITNESS = 0.5


class MagicEvaluator:
    """Synthetic fitness: the literal constant in ``return <c>, {}``.

    Sources without the magic shape (the expert anchors) score 0.5, so a
    scripted candidate with a constant below 0.5 "beats the anchor".
    """

    def __init__(self, n_instances: int = 16):
        self.n_instances = n_instances
        self.calls = 0

    def _fitness(self, program) -> float:
        m = _MAGIC.search(program.source_text)
        return float(m.group(1)) if m else ANCHOR_FITNESS

    def evaluate(self, program, task_id) -> FitnessReport:
        self.calls += 1
        fit = self._fitness(program)
        medians = [fit + 0.001 * i for i in range(self.n_instances)]
        return FitnessReport(
            fitness=fit,
            score_matrix=[[m] for m in medians],
            per_instance_medians=medians,
            policy_digest="synthetic",
            budget_used=0,
        )

    def evaluate_batch(self, pairs):
        return [self.evaluate(p, t) for p, t in pairs]


def reward_response(constant: float, thought: str | None = None) -> str:
    thought = thought or f"constant reward {constant}"
    return f"{thought}\n```rsl\nreturn {constant}, {{}}\n```"


class ReplayBuilder:
    """Accumulates a replay script with a drifting fitness counter so every
    generated candidate is distinct and better than the last."""

    def __init__(self, start: float = -1.0, step: float = -0.01):
        self.script: list[dict] = []
        self._value = start
        self._step = step

    def _next_value(self) -> float:
        self._value = round(self._value + self._step, 6)
        return self._value

    def add(self, template_id: str, response: str) -> "ReplayBuilder":
        self.script.append({"template_id": template_id, "response": response})
        return self

    def add_reward(self, template_id: str, constant: float | None = None):
        v = self._next_value() if constant is None else constant
        return self.add(template_id, reward_response(v))

    def to_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.script:
                fh.write(json.dumps(entry) + "\n")


def full_run_script(
    tasks: list[str],
    niche_size: int,
    g_max: int,
    kt_pathways: int | None = None,
) -> ReplayBuilder:
    """A fully provisioned script for a discovery run: improving init
    candidates, all five operators per parent, one KT plan per generation with
    one transplant per pathway.

    As in ``bench/replay.py``, it covers the worst case a real evaluator can
    produce: the default ``init_attempts`` init responses per niche, for
    candidates that do not beat the anchor, and one ``m3_reflect`` per
    generation, generation 1 included, for rejected init candidates that
    reach the archive."""
    b = ReplayBuilder()
    n_paths = kt_pathways if kt_pathways is not None else len(tasks)
    init_attempts = RunConfig(tasks=tasks, niche_size=niche_size).init_attempts
    for _t in tasks:
        for _ in range(init_attempts):
            b.add_reward("init")
    for g in range(1, g_max + 1):
        b.add("m3_reflect", "```summary\nimprovement terms dominate\n```")
        for _t in tasks:
            for _parent in range(niche_size):
                b.add("m1_reflect", "weak on ill-conditioned landscapes")
                b.add_reward("m1_mutate")
                b.add_reward("m2")
                b.add_reward("m3_mutate")
                b.add_reward("c1")
                if len(tasks) > 1:
                    b.add_reward("c2")
        if len(tasks) > 1:
            plan = [
                {
                    "source_task": tasks[i % len(tasks)],
                    "target_task": tasks[(i + 1) % len(tasks)],
                    "rationale": "structurally similar",
                    "transfer_strategy_guidance": "map the improvement signal",
                }
                for i in range(n_paths)
            ]
            b.add("kt_reflect", json.dumps(plan))
            for _ in range(n_paths):
                b.add_reward("kt_execute")
    return b
